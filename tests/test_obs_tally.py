"""Run tallies: a fast-engine MetricsRegistry folds counts, not events.

Under the fast engine a :class:`~repro.obs.metrics.MetricsRegistry` is
a run-tally sink: the step loop counts in locals and folds the counts
into the registry once per loop call (:mod:`repro.obs.hooks`).  The
registry's per-step ``on_*`` methods stay the oracle, driven by the
reference engine and by :func:`~repro.obs.journal.replay_journal`.
These tests hold the fold to that oracle snapshot for snapshot, across
protocols, schedulers (crash-injecting ones included), register
semantics, sink mixes and step-by-step driving.
"""

from __future__ import annotations

import pytest

from repro.core.deterministic import mirror
from repro.core.multivalued import MultiValuedProtocol
from repro.core.n_process import NProcessProtocol
from repro.core.naive import NaiveProtocol
from repro.core.three_bounded import ThreeBoundedProtocol
from repro.core.three_unbounded import ThreeUnboundedProtocol
from repro.core.two_process import TwoProcessProtocol
from repro.errors import SimulationError
from repro.obs import (BaseSink, JsonlJournal, MetricsRegistry, Tracer,
                       replay_journal)
from repro.obs.hooks import split_sinks
from repro.sched.adversary import (LaggardFreezer, ReadValueAdversary,
                                   SplitVoteAdversary)
from repro.sched.crash import CrashingScheduler, CrashPlan
from repro.sched.simple import RandomScheduler
from repro.sim.kernel import Simulation
from repro.sim.rng import ReplayableRng

PROTOCOLS = {
    "two": (TwoProcessProtocol, ("a", "b")),
    "three-unbounded": (ThreeUnboundedProtocol, ("a", "b", "a")),
    "three-bounded": (ThreeBoundedProtocol, ("a", "b", "b")),
    "n": (lambda: NProcessProtocol(4), ("a", "b", "a", "b")),
    "naive": (lambda: NaiveProtocol(3), ("a", "b", "a")),
    "multivalued": (lambda: MultiValuedProtocol(
        base_factory=lambda: TwoProcessProtocol(values=(0, 1)),
        values=("x", "y", "z")), ("x", "z")),
    # Theorem 4's deterministic kind: runs with no coin flips at all.
    "deterministic-mirror": (mirror, ("a", "b")),
}

SCHEDULERS = {
    "random": lambda rng, n: RandomScheduler(rng),
    "split-vote": lambda rng, n: SplitVoteAdversary(),
    "laggard-freezer": lambda rng, n: LaggardFreezer(),
    "read-adversary": lambda rng, n: ReadValueAdversary(
        RandomScheduler(rng), policy="adversarial"),
    "crashing": lambda rng, n: CrashingScheduler(
        RandomScheduler(rng), CrashPlan.kill_all_but(0, n, after=2)),
}

MEMORIES = ("atomic", "regular", "safe")
SEEDS = range(4)
MAX_STEPS = 600


def simulation(protocol, seed, scheduler, *, engine, memory, sinks=()):
    factory, inputs = PROTOCOLS[protocol]
    rng = ReplayableRng(seed)
    sched = SCHEDULERS[scheduler](rng.child("sched"), len(inputs))
    return Simulation(factory(), inputs, sched, rng.child("kernel"),
                      sinks=sinks, engine=engine, memory=memory)


def batch_metrics(protocol, scheduler, memory, *, engine, extra=()):
    """A registry observing one small batch (plus ``extra`` sinks)."""
    registry = MetricsRegistry()
    for seed in SEEDS:
        simulation(protocol, seed, scheduler, engine=engine, memory=memory,
                   sinks=(registry,) + tuple(extra)).run(MAX_STEPS)
    return registry


@pytest.mark.parametrize("memory", MEMORIES)
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_tally_fold_matches_reference_events(protocol, scheduler, memory):
    folded = batch_metrics(protocol, scheduler, memory, engine="fast")
    events = batch_metrics(protocol, scheduler, memory, engine="reference")
    assert folded.to_dict() == events.to_dict()


@pytest.mark.parametrize("memory", MEMORIES)
@pytest.mark.parametrize("scheduler", ("random", "crashing",
                                       "read-adversary"))
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_tally_fold_matches_journal_replay(protocol, scheduler, memory,
                                           tmp_path):
    path = str(tmp_path / "batch.jsonl")
    journal = JsonlJournal(path, memory=memory)
    folded = batch_metrics(protocol, scheduler, memory, engine="fast",
                           extra=(journal,))
    journal.close()
    assert folded.to_dict() == replay_journal(path).to_dict()
    events = batch_metrics(protocol, scheduler, memory, engine="reference")
    assert folded.to_dict() == events.to_dict()


@pytest.mark.parametrize("memory", MEMORIES)
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_tally_fold_beside_a_per_step_sink(protocol, memory):
    tracer = Tracer(max_spans=10 ** 6)
    folded = batch_metrics(protocol, "random", memory, engine="fast",
                           extra=(tracer,))
    events = batch_metrics(protocol, "random", memory, engine="reference")
    assert folded.to_dict() == events.to_dict()
    names = [span.name for span in tracer.spans]
    assert names.count("run") == len(SEEDS)
    assert names.count("step") == folded.counters["steps"].value


def drive(sim, registry, script):
    """Run ``script`` against ``sim``; snapshot ``registry`` after each
    call.  ``("attach", sink)`` attaches a sink mid-run."""
    snapshots = []
    for action in script:
        if action == "step":
            if sim.finished:
                break
            sim.step()
        elif action == "run":
            sim.run(MAX_STEPS)
        elif action[0] == "attach":
            sim.attach_sink(action[1])
        else:
            pid = action[1]
            if sim.finished or pid not in sim.enabled:
                continue
            sim.step_processor(pid)
        snapshots.append(registry.to_dict())
    return snapshots


SCRIPT = ("step", ("proc", 1), "step", ("proc", 0), ("proc", 0), "step",
          "step", ("proc", 1), "step", "run")


@pytest.mark.parametrize("memory", MEMORIES)
@pytest.mark.parametrize("scheduler", ("random", "crashing"))
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_step_by_step_fold_matches_events(protocol, scheduler, memory):
    snapshots = {}
    for engine in ("fast", "reference"):
        registry = MetricsRegistry()
        sim = simulation(protocol, 7, scheduler, engine=engine,
                         memory=memory, sinks=(registry,))
        snapshots[engine] = drive(sim, registry, SCRIPT)
    assert snapshots["fast"] == snapshots["reference"]


@pytest.mark.parametrize("memory", MEMORIES)
@pytest.mark.parametrize("protocol", ("two", "three-bounded", "n"))
def test_registry_attached_mid_run(protocol, memory):
    """A registry attached after some steps counts from there on, and a
    second registry shared with a fresh simulation keeps its per-run
    scratch across the hand-over, exactly as the event path does."""
    snapshots = {}
    for engine in ("fast", "reference"):
        late, shared = MetricsRegistry(), MetricsRegistry()
        sim = simulation(protocol, 3, "random", engine=engine,
                         memory=memory, sinks=(shared,))
        first = drive(sim, late, ("step", "step", ("attach", late),
                                  "step", ("proc", 0), "step"))
        other = simulation(protocol, 4, "random", engine=engine,
                           memory=memory, sinks=(shared,))
        second = drive(other, shared, ("step", "step", "run"))
        snapshots[engine] = (first, second, late.to_dict())
    assert snapshots["fast"] == snapshots["reference"]


class FailingScheduler:
    """Random activations until consultation ``fail_at``, then an
    action the kernel rejects."""

    def __init__(self, rng, fail_at):
        self._inner = RandomScheduler(rng)
        self._fail_at = fail_at

    def choose(self, view):
        if view.sched_consults >= self._fail_at:
            return "not an action"
        return self._inner.choose(view)


@pytest.mark.parametrize("fail_at", (1, 3, 6))
@pytest.mark.parametrize("protocol", ("two", "three-unbounded", "n"))
def test_fold_survives_a_failing_loop(protocol, fail_at):
    """A loop call that raises still folds what it counted."""
    factory, inputs = PROTOCOLS[protocol]
    snapshots = {}
    for engine in ("fast", "reference"):
        registry = MetricsRegistry()
        rng = ReplayableRng(5)
        sim = Simulation(factory(), inputs,
                         FailingScheduler(rng.child("sched"), fail_at),
                         rng.child("kernel"), sinks=(registry,),
                         engine=engine)
        with pytest.raises(SimulationError):
            sim.run(MAX_STEPS)
        snapshots[engine] = registry.to_dict()
    assert snapshots["fast"] == snapshots["reference"]
    assert snapshots["fast"]["counters"]["sched_consults"] == fail_at


class PerStepSpy(MetricsRegistry):
    """A registry that records every per-step hook it is handed."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def on_sched(self, consults):
        self.calls.append("sched")
        super().on_sched(consults)

    def on_coin_flip(self, pid, n_branches):
        self.calls.append("coin_flip")
        super().on_coin_flip(pid, n_branches)

    def on_read(self, pid, register, value):
        self.calls.append("read")
        super().on_read(pid, register, value)

    def on_write(self, pid, register, value):
        self.calls.append("write")
        super().on_write(pid, register, value)

    def on_decision(self, pid, value, activation):
        self.calls.append("decision")
        super().on_decision(pid, value, activation)

    def on_step(self, index, pid, op, result, decided):
        self.calls.append("step")
        super().on_step(index, pid, op, result, decided)


class TestSinkDeclarations:
    def test_fast_engine_makes_no_per_step_registry_calls(self):
        spy = PerStepSpy()
        sim = simulation("three-bounded", 1, "random", engine="fast",
                         memory="atomic", sinks=(spy,))
        result = sim.run(MAX_STEPS)
        assert result.total_steps > 0
        assert spy.calls == []
        assert spy.counters["steps"].value == result.total_steps

    def test_reference_engine_delivers_every_event(self):
        spy = PerStepSpy()
        result = simulation("two", 1, "random", engine="reference",
                            memory="atomic", sinks=(spy,)).run(MAX_STEPS)
        assert spy.calls.count("step") == result.total_steps

    def test_pairs_put_only_the_per_step_sink_on_the_step_hub(self):
        registry, journal_like = MetricsRegistry(), BaseSink()
        hub, step_hub, tallies, transitions = split_sinks(
            (registry, journal_like), True)
        assert hub.sinks == (registry, journal_like)
        assert step_hub.sinks == (journal_like,)
        assert tallies == (registry,)
        assert transitions is None

    def test_undeclared_sinks_and_reference_engine_are_per_step(self):
        sink = BaseSink()
        hub, step_hub, tallies, transitions = split_sinks((sink,), True)
        assert step_hub is hub and tallies is None and transitions is None
        registry = MetricsRegistry()
        hub, step_hub, tallies, transitions = split_sinks((registry,),
                                                          False)
        assert step_hub is hub and tallies is None and transitions is None

    def test_metrics_only_keeps_no_step_hub(self):
        registry = MetricsRegistry()
        sim = simulation("two", 0, "random", engine="fast",
                         memory="atomic", sinks=(registry,))
        assert sim._obs is None
        assert sim._tallies == (registry,)
