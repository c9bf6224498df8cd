"""Tests for the adaptive adversaries."""

from __future__ import annotations

import functools

import pytest

from repro.core.naive import NaiveProtocol
from repro.core.three_unbounded import ThreeUnboundedProtocol
from repro.core.two_process import TwoProcessProtocol
from repro.obs.hooks import BaseSink
from repro.obs.metrics import MetricsRegistry
from repro.sched.adversary import (
    AdaptiveAdversary,
    DisagreementAdversary,
    LaggardFreezer,
    NaiveKillerAdversary,
    SplitVoteAdversary,
)
from repro.sched.lookahead import LookaheadAdversary
from repro.sched.optimal import OptimalAdversary, solve_game
from repro.sched.simple import FixedScheduler
from repro.sim.kernel import Simulation
from repro.sim.rng import ReplayableRng
from repro.sim.runner import ExperimentRunner
from repro.sim.transitions import declares_pure_choice

from conftest import run_protocol


class TestAdaptiveAdversary:
    def test_strategy_is_consulted(self):
        seen = []

        def strategy(view):
            seen.append(view.step_index)
            return view.enabled[-1]

        sim = Simulation(TwoProcessProtocol(), ("a", "b"),
                         AdaptiveAdversary(strategy), ReplayableRng(0))
        rec = sim.step()
        assert rec.pid == 1
        assert seen == [0]

    def test_none_falls_back_to_enabled(self):
        adversary = AdaptiveAdversary(lambda view: None, label="lazy")
        result = run_protocol(TwoProcessProtocol(), ("a", "b"),
                              scheduler=adversary)
        assert result.completed
        assert "lazy" in adversary.name

    def test_invalid_choice_falls_back(self):
        adversary = AdaptiveAdversary(lambda view: 99)
        result = run_protocol(TwoProcessProtocol(), ("a", "b"),
                              scheduler=adversary)
        assert result.completed


class TestDisagreementAdversary:
    def test_cannot_prevent_termination(self):
        for seed in range(30):
            result = run_protocol(TwoProcessProtocol(), ("a", "b"), seed=seed,
                                  scheduler=DisagreementAdversary())
            assert result.completed and result.consistent

    def test_prefers_reader_under_disagreement(self):
        # Drive both processors past their initial writes so registers
        # disagree and both are about to read.
        sim = Simulation(TwoProcessProtocol(), ("a", "b"),
                         FixedScheduler([0, 1]), ReplayableRng(0))
        sim.step(), sim.step()
        adversary = DisagreementAdversary()
        sim.scheduler = adversary
        rec = sim.step()
        # Both are readers; the adversary must pick one of them (P0 by
        # its deterministic tie-break), and the step is a read.
        assert rec.op.kind == "read"


class TestNaiveKiller:
    def test_starves_naive_victim_forever(self):
        result = run_protocol(
            NaiveProtocol(3), ("a", "a", "a"), seed=7,
            scheduler=NaiveKillerAdversary(), max_steps=3000,
        )
        # The victim is activated unboundedly but never decides; the
        # frozen pair never decides either (they are simply starved).
        assert not result.completed
        assert 2 not in result.decisions
        assert result.activations[2] > 1000

    def test_harmless_against_real_protocol(self):
        result = run_protocol(
            ThreeUnboundedProtocol(), ("a", "a", "a"), seed=7,
            scheduler=NaiveKillerAdversary(), max_steps=3000,
        )
        # The Figure 2 victim out-races the frozen pair by two and
        # decides alone — the paper's contrast (benchmark E4).
        assert 2 in result.decisions

    def test_requires_distinct_roles(self):
        with pytest.raises(ValueError):
            NaiveKillerAdversary(a=0, b=0, victim=1)


class TestLaggardFreezer:
    def test_starves_minimum_progress_processor(self):
        result = run_protocol(
            ThreeUnboundedProtocol(), ("a", "b", "b"), seed=3,
            scheduler=LaggardFreezer(), max_steps=5000,
        )
        # The two leaders must decide; wait-freedom means the run
        # completes once the laggard is the only one left (it finally
        # gets scheduled when the others halt).
        assert result.consistent
        assert len(result.decisions) >= 2

    def test_custom_progress_measure(self):
        calls = []

        def progress(view, pid):
            calls.append(pid)
            return -pid  # freeze the highest pid

        result = run_protocol(
            ThreeUnboundedProtocol(), ("a", "b", "b"), seed=3,
            scheduler=LaggardFreezer(progress_of=progress), max_steps=5000,
        )
        assert calls  # measure consulted
        assert result.consistent


class TestSplitVote:
    def test_cannot_prevent_termination(self):
        for seed in range(10):
            result = run_protocol(
                ThreeUnboundedProtocol(), ("a", "b", "a"), seed=seed,
                scheduler=SplitVoteAdversary(), max_steps=20000,
            )
            assert result.completed and result.consistent

    def test_works_on_two_process(self):
        result = run_protocol(TwoProcessProtocol(), ("a", "b"),
                              scheduler=SplitVoteAdversary())
        assert result.completed and result.consistent


class _Recorder(BaseSink):
    """Every kernel event, in order (a per-step sink)."""

    def __init__(self):
        self.events = []

    def on_run_start(self, name, n, inputs):
        self.events.append(("start", name, n, inputs))

    def on_sched(self, consults):
        self.events.append(("sched", consults))

    def on_coin_flip(self, pid, n_branches):
        self.events.append(("flip", pid, n_branches))

    def on_read(self, pid, register, value):
        self.events.append(("read", pid, register, value))

    def on_write(self, pid, register, value):
        self.events.append(("write", pid, register, value))

    def on_decision(self, pid, value, activation):
        self.events.append(("decide", pid, value, activation))

    def on_step(self, index, pid, op, result, decided):
        self.events.append(("step", index, pid, result, decided))

    def on_run_end(self, result):
        self.events.append(("end", result.total_steps))


def _counted(scheduler, calls):
    """``scheduler`` with its ``choose`` calls counted into ``calls``;
    set on the instance, so the class's purity declaration stands."""
    choose = scheduler.choose

    def counting(view):
        calls.append(view.step_index)
        return choose(view)

    scheduler.choose = counting
    return scheduler


@functools.lru_cache(maxsize=None)
def _two_game():
    """The solved two-processor game on inputs ``(a, b)``."""
    return solve_game(TwoProcessProtocol(), ("a", "b"))


def _batch(engine, make_scheduler, protocol=ThreeUnboundedProtocol,
           inputs=("a", "b", "a"), memory=None, runs=40, seed=5):
    """Run a batch; return its run stats, metrics, events, proc-stream
    draw counts and the number of ``choose`` calls."""
    calls, draws = [], []
    recorder, registry = _Recorder(), MetricsRegistry()

    def scheduler_factory(rng):
        return _counted(make_scheduler(), calls)

    runner = ExperimentRunner(
        protocol_factory=protocol, scheduler_factory=scheduler_factory,
        inputs_factory=lambda i, rng: inputs, seed=seed,
        sinks=(recorder, registry), memory=memory, engine=engine)
    stats = runner.run_many(runs, max_steps=5_000)
    for i in range(3):
        # The draw counts of single runs, replayed on a bare cache-less
        # Simulation seeded as the runner seeds run i.
        rng = ReplayableRng(seed).child("run", i)
        sim = Simulation(protocol(), inputs,
                         _counted(make_scheduler(), []),
                         rng.child("kernel"), engine=engine, memory=memory)
        sim.run(5_000)
        draws.append(tuple(r.draws for r in sim._proc_rngs))
    return (stats.runs, registry.to_dict(), recorder.events, draws,
            len(calls))


class TestPureChoiceMemo:
    """A pure scheduler is consulted once per configuration per batch:
    results, consultations, events and coin draws stay those of the
    reference engine, which consults it every step."""

    @pytest.mark.parametrize("make_scheduler, protocol, inputs", [
        (SplitVoteAdversary, ThreeUnboundedProtocol, ("a", "b", "a")),
        (SplitVoteAdversary, TwoProcessProtocol, ("a", "b")),
        (DisagreementAdversary, TwoProcessProtocol, ("a", "b")),
        (lambda: LookaheadAdversary(2), TwoProcessProtocol, ("a", "b")),
        (lambda: OptimalAdversary(_two_game()), TwoProcessProtocol,
         ("a", "b")),
        (NaiveKillerAdversary, ThreeUnboundedProtocol, ("a", "b", "a")),
    ], ids=["split-vote-three", "split-vote-two", "disagreement-two",
            "lookahead-two", "optimal-two", "naive-killer-three"])
    def test_pure_scheduler_is_consulted_less(self, make_scheduler,
                                              protocol, inputs):
        assert make_scheduler().pure_choice
        assert declares_pure_choice(type(make_scheduler()))
        fast = _batch("fast", make_scheduler, protocol, inputs)
        ref = _batch("reference", make_scheduler, protocol, inputs)
        runs, metrics, events, draws, calls = fast
        assert (runs, metrics, events, draws) == ref[:4]
        consults = sum(run.sched_consults for run in runs)
        assert ref[4] == consults
        # Each distinct configuration is consulted once in the batch.
        assert 0 < calls < consults / 4

    @pytest.mark.parametrize("variant", [
        "overriding-subclass", "custom-extractor", "custom-register-of",
        "regular", "safe"])
    def test_impure_schedulers_are_never_memoized(self, variant):
        class Overriding(SplitVoteAdversary):
            def choose(self, view):
                return super().choose(view)

        make_scheduler, memory = SplitVoteAdversary, None
        if variant == "overriding-subclass":
            make_scheduler = Overriding
        elif variant == "custom-extractor":
            def make_scheduler():
                return SplitVoteAdversary(
                    pref_extractor=lambda v: getattr(v, "pref", v))
        elif variant == "custom-register-of":
            def make_scheduler():
                return NaiveKillerAdversary(
                    register_of=lambda view, pid: view.register(f"r{pid}"))
        else:
            memory = variant
        assert declares_pure_choice(SplitVoteAdversary)
        assert not declares_pure_choice(Overriding)
        runs, metrics, _, _, calls = _batch("fast", make_scheduler,
                                            memory=memory)
        assert calls == sum(run.sched_consults for run in runs)
        assert (runs, metrics) == _batch("reference", make_scheduler,
                                         memory=memory)[:2]

    def test_runners_never_share_a_memo(self):
        # A runner that follows another runner's identical batch still
        # consults the scheduler in every configuration it reaches.
        first = _batch("fast", SplitVoteAdversary)
        second = _batch("fast", SplitVoteAdversary)
        assert first == second
        assert second[4] > 0
