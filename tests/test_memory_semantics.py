"""Tests for the pluggable memory-semantics layer (docs/MODEL.md).

Covers the :mod:`repro.sim.memory` models directly, the kernel's
read-value resolution vocabulary (``Scheduler.resolve_read`` and
``Activate(pid, read_value=...)``), atomic zero-cost identity, journal
schema v2, batch/parallel threading of :class:`MemorySpec`, and the
checker's weak-memory branching (the Hadzilacos–Hu–Toueg-style claims:
regular registers keep two-process consensus consistent, safe
registers admit a replayable garbage-read anomaly).  That every engine
matches ``reference`` under weak semantics is the differential
harness's job (``tests/test_differential.py``).
"""

from __future__ import annotations

import json
import pickle

import pytest

from differential import SCHEDULERS, assert_identical
from repro.checker import (
    find_memory_anomaly,
    replay_witness,
    verify_safety,
)
from repro.core.two_process import TwoProcessProtocol
from repro.core.consensus import solve
from repro.errors import SimulationError
from repro.obs import JsonlJournal, MetricsRegistry, replay_journal
from repro.obs.journal import SUPPORTED_VERSIONS, concatenate_journals
from repro.parallel.tasks import (ConstantInputs, ProtocolSpec,
                                  SchedulerSpec)
from repro.sched.adversary import ReadValueAdversary
from repro.sched.base import Scheduler
from repro.sched.simple import FixedScheduler, RandomScheduler
from repro.sim.config import RegisterLayout
from repro.sim.kernel import Activate, Simulation
from repro.sim.memory import (
    ATOMIC,
    MEMORY_NAMES,
    AtomicMemory,
    MemorySpec,
    memory_spec,
)
from repro.sim.ops import BOTTOM, ReadOp, WriteOp
from repro.sim.process import Automaton, Branch, RegisterSpec
from repro.sim.rng import ReplayableRng
from repro.sim.runner import ExperimentRunner
from repro.sim.weak import RegularMemory, SafeMemory


# ----------------------------------------------------------------------
# Direct model semantics
# ----------------------------------------------------------------------


def _layout(n_regs=2, initial=BOTTOM):
    everyone = (0, 1)
    return RegisterLayout([
        RegisterSpec(name=f"r{i}", writers=everyone, readers=everyone,
                     initial=initial)
        for i in range(n_regs)
    ])


class TestAtomicModel:
    def test_write_is_immediately_the_only_choice(self):
        mem = AtomicMemory(_layout())
        assert mem.read_choices(0) == (BOTTOM,)
        mem.write(0, 0, "x")
        assert mem.read_choices(0) == ("x",)
        assert mem.values[0] == "x"

    def test_snapshot_is_always_none(self):
        mem = AtomicMemory(_layout())
        mem.write(1, 1, 5)
        assert mem.snapshot() is None
        mem.restore(("a", "b"), None)
        assert mem.values == ["a", "b"]
        with pytest.raises(SimulationError):
            mem.restore(("a", "b"), ("junk",))


class TestRegularModel:
    def test_write_pending_until_writers_next_activation(self):
        mem = RegularMemory(_layout())
        mem.on_activate(0)
        mem.write(0, 0, "new")
        # Pending: both old and new are legal, committed value first.
        assert mem.read_choices(0) == (BOTTOM, "new")
        assert mem.values[0] is BOTTOM
        # Another processor's activation does not commit P0's write.
        mem.on_activate(1)
        assert mem.read_choices(0) == (BOTTOM, "new")
        # P0's own next activation commits it.
        mem.on_activate(0)
        assert mem.read_choices(0) == ("new",)
        assert mem.values[0] == "new"

    def test_choices_are_committed_first_in_writer_order(self):
        mem = RegularMemory(_layout(n_regs=1))
        mem.write(1, 0, "b")
        mem.write(0, 0, "a")
        assert mem.read_choices(0) == (BOTTOM, "a", "b")

    def test_duplicate_pending_value_deduped(self):
        mem = RegularMemory(_layout(n_regs=1))
        mem.on_activate(0)
        mem.write(0, 0, "v")
        mem.on_activate(0)  # commit "v"
        mem.write(0, 0, "v")  # rewrite the same value
        # Regular registers cannot distinguish old from identical new.
        assert mem.read_choices(0) == ("v",)

    def test_halted_writer_stays_pending_forever(self):
        mem = RegularMemory(_layout(n_regs=1))
        mem.write(0, 0, "last")
        for _ in range(5):
            mem.on_activate(1)
        assert mem.read_choices(0) == (BOTTOM, "last")

    def test_snapshot_restore_round_trip(self):
        mem = RegularMemory(_layout())
        assert mem.snapshot() is None  # quiescent
        mem.write(0, 1, "p")
        snap = mem.snapshot()
        assert snap == ((0, 1, "p"),)
        other = RegularMemory(_layout())
        other.restore(tuple(mem.values), snap)
        assert other.read_choices(1) == (BOTTOM, "p")
        other.restore((1, 2), None)
        assert other.snapshot() is None
        assert other.values == [1, 2]


class TestSafeModel:
    def test_contended_read_may_return_initial_garbage(self):
        mem = SafeMemory(_layout(n_regs=1))
        mem.write(0, 0, "a")
        mem.on_activate(0)
        assert mem.read_choices(0) == ("a",)  # quiescent: like regular
        mem.write(0, 0, "b")
        assert mem.read_choices(0) == ("a", "b", BOTTOM)

    def test_rewriting_same_value_reexposes_garbage(self):
        """The genuine regular/safe divergence: a rewrite of the same
        value is invisible to a regular register but re-opens the
        garbage window of a safe one."""
        mem_reg = RegularMemory(_layout(n_regs=1))
        mem_safe = SafeMemory(_layout(n_regs=1))
        for mem in (mem_reg, mem_safe):
            mem.write(0, 0, "v")
            mem.on_activate(0)
            mem.write(0, 0, "v")
        assert mem_reg.read_choices(0) == ("v",)
        assert mem_safe.read_choices(0) == ("v", BOTTOM)


class TestMemorySpec:
    def test_names_and_normalizer(self):
        assert MEMORY_NAMES == ("atomic", "regular", "safe")
        assert memory_spec(None) is ATOMIC
        assert memory_spec("regular") == MemorySpec("regular")
        assert memory_spec(MemorySpec("safe")).name == "safe"
        with pytest.raises(ValueError):
            MemorySpec("linearizable")
        with pytest.raises(TypeError):
            memory_spec(42)

    def test_atomic_flag_and_build(self):
        layout = _layout()
        assert MemorySpec("atomic").atomic
        assert not MemorySpec("regular").atomic
        assert isinstance(MemorySpec("safe").build(layout), SafeMemory)
        # SafeMemory subclasses RegularMemory; the spec must still
        # distinguish them.
        assert type(MemorySpec("regular").build(layout)) is RegularMemory

    def test_spec_pickles(self):
        for name in MEMORY_NAMES:
            spec = MemorySpec(name)
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec and clone.atomic == spec.atomic


# ----------------------------------------------------------------------
# Kernel resolution vocabulary
# ----------------------------------------------------------------------


class WRProtocol(Automaton):
    """Deterministic scripted protocol: P0 writes 1,2,3; P1 reads 3x.

    Every step is a single unit-probability branch, so runs consume no
    coins and the read-value choices are the *only* nondeterminism —
    ideal for pinning down the resolution rules.
    """

    name = "wr"
    n_processes = 2

    def registers(self):
        return [RegisterSpec(name="r", writers=(0,), readers=(0, 1),
                             initial=BOTTOM)]

    def initial_state(self, pid, input_value):
        return ("w", 0) if pid == 0 else ("r", ())

    def branches(self, pid, state):
        if pid == 0:
            return (Branch(1.0, WriteOp("r", state[1] + 1)),)
        return (Branch(1.0, ReadOp("r")),)

    def observe(self, pid, state, op, result):
        if pid == 0:
            k = state[1] + 1
            return ("w", k) if k < 3 else ("done", k)
        seen = state[1] + (result,)
        return ("r", seen) if len(seen) < 3 else ("done", seen)

    def output(self, pid, state):
        return state[1] if state[0] == "done" else None


class ScriptedScheduler(Scheduler):
    """Plays back a fixed action list (ints or Activate objects)."""

    def __init__(self, actions):
        self._actions = list(actions)
        self._i = 0

    def choose(self, view):
        action = self._actions[self._i]
        self._i += 1
        return action


class RecordingResolver(Scheduler):
    """Round-robin activation; resolve_read records and picks newest."""

    def __init__(self):
        self._inner = FixedScheduler([0, 1, 0, 1, 0, 1])
        self.calls = []

    def choose(self, view):
        return self._inner.choose(view)

    def resolve_read(self, view, pid, register, choices):
        self.calls.append((pid, register, choices))
        return choices[-1]


def _run_wr(scheduler, memory, engine="fast", sinks=()):
    sim = Simulation(WRProtocol(), ("i0", "i1"), scheduler,
                     ReplayableRng(0).child("kernel"), engine=engine,
                     sinks=sinks, memory=memory)
    return sim.run(100)


class TestKernelResolution:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_default_resolution_is_committed_value(self, engine):
        # Alternating P0/P1: every P1 read races P0's in-flight write
        # and, with no resolver, sees the committed (old) value.
        result = _run_wr(FixedScheduler([0, 1, 0, 1, 0, 1]), "regular",
                         engine=engine)
        assert result.decisions[1] == (BOTTOM, 1, 2)
        assert result.memory == "regular"
        assert result.read_resolutions == 3

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_resolve_read_hook_sees_legal_sets(self, engine):
        sched = RecordingResolver()
        result = _run_wr(sched, "regular", engine=engine)
        assert sched.calls == [
            (1, "r", (BOTTOM, 1)),
            (1, "r", (1, 2)),
            (1, "r", (2, 3)),
        ]
        assert result.decisions[1] == (1, 2, 3)
        assert result.read_resolutions == 3

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_safe_adds_garbage_choice(self, engine):
        sched = RecordingResolver()
        result = _run_wr(sched, "safe", engine=engine)
        # choices[-1] under safe contention is the initial value ⊥.
        assert sched.calls == [
            (1, "r", (BOTTOM, 1)),
            (1, "r", (1, 2, BOTTOM)),
            (1, "r", (2, 3, BOTTOM)),
        ]
        assert result.decisions[1] == (1, BOTTOM, BOTTOM)
        assert result.memory == "safe"

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_activate_read_value_precommits(self, engine):
        sched = ScriptedScheduler([
            Activate(0), Activate(1, read_value=1),
            Activate(0), Activate(1, read_value=1),
            Activate(0), Activate(1, read_value=3),
        ])
        result = _run_wr(sched, "regular", engine=engine)
        assert result.decisions[1] == (1, 1, 3)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_illegal_read_value_rejected(self, engine):
        sched = ScriptedScheduler([Activate(0), Activate(1, read_value=9)])
        with pytest.raises(SimulationError):
            _run_wr(sched, "regular", engine=engine)

    @pytest.mark.parametrize("memory", ["atomic", "regular"])
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_read_value_on_write_step_rejected(self, memory, engine):
        sched = ScriptedScheduler([Activate(0, read_value=1)])
        with pytest.raises(SimulationError):
            _run_wr(sched, memory, engine=engine)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_atomic_precommit_must_match(self, engine):
        ok = ScriptedScheduler([
            Activate(0), Activate(1, read_value=1),
            Activate(0), Activate(1, read_value=2),
            Activate(0), Activate(1, read_value=3),
        ])
        result = _run_wr(ok, "atomic", engine=engine)
        assert result.decisions[1] == (1, 2, 3)
        assert result.read_resolutions == 0
        bad = ScriptedScheduler([Activate(0),
                                 Activate(1, read_value=BOTTOM)])
        with pytest.raises(SimulationError):
            _run_wr(bad, "atomic", engine=engine)

    def test_atomic_default_counts_no_resolutions(self):
        result = solve(TwoProcessProtocol(), ("a", "b"), seed=5)
        # solve returns an outcome; go through Simulation for the raw
        # RunResult fields instead.
        sim = Simulation(TwoProcessProtocol(), ("a", "b"),
                         RandomScheduler(ReplayableRng(5).child("sched")),
                         ReplayableRng(5).child("kernel"))
        res = sim.run(10_000)
        assert res.memory == "atomic"
        assert res.read_resolutions == 0
        assert result.consistent


class TestAtomicZeroCostIdentity:
    """memory='atomic' and memory=None must be the same engine."""

    def test_explicit_atomic_matches_default(self, tmp_path):
        payloads = {}
        for tag, memory in (("default", None), ("explicit", "atomic")):
            path = tmp_path / f"j_{tag}.jsonl"
            journal = JsonlJournal(str(path))
            rng = ReplayableRng(11)
            sim = Simulation(TwoProcessProtocol(), ("a", "b"),
                             RandomScheduler(rng.child("sched")),
                             rng.child("kernel"), sinks=(journal,),
                             memory=memory)
            result = sim.run(3_000)
            journal.close()
            payloads[tag] = (result, tuple(r.draws for r in sim._proc_rngs),
                             path.read_bytes())
        (res_d, *rest_d), (res_e, *rest_e) = payloads.values()
        assert_identical(res_d, res_e)
        assert rest_d == rest_e

    def test_fast_buffer_is_the_model_storage(self):
        sim = Simulation(TwoProcessProtocol(), ("a", "b"),
                         RandomScheduler(ReplayableRng(0).child("sched")),
                         ReplayableRng(0).child("kernel"))
        assert sim._registers is sim._memory.values


# ----------------------------------------------------------------------
# MemorySpec threading: solve, runner, parallel shards
# ----------------------------------------------------------------------


class TestThreading:
    def test_solve_regular_consistent_under_adversary(self):
        for seed in range(25):
            rng = ReplayableRng(seed)
            scheduler = ReadValueAdversary(
                RandomScheduler(rng.child("sched")), policy="adversarial")
            outcome = solve(TwoProcessProtocol(), ("a", "b"),
                            scheduler=scheduler, seed=seed,
                            memory="regular")
            assert outcome.completed
            assert outcome.consistent and outcome.nontrivial

    def test_parallel_batch_matches_serial(self, tmp_path):
        snapshots = {}
        for workers in (1, 2):
            metrics = MetricsRegistry()
            runner = ExperimentRunner(
                protocol_factory=ProtocolSpec("two", 2),
                scheduler_factory=SchedulerSpec("read-adversary"),
                inputs_factory=ConstantInputs(("a", "b")),
                seed=9,
                sinks=(metrics,),
                memory="regular",
            )
            journal = tmp_path / f"batch_{workers}.jsonl"
            stats = runner.run_many(24, max_steps=2_000, workers=workers,
                                    journal_path=str(journal))
            assert stats.n_consistency_violations == 0
            snapshots[workers] = (metrics.to_dict(), stats.runs,
                                  journal.read_bytes())
        assert snapshots[1][0] == snapshots[2][0]
        assert snapshots[1][1] == snapshots[2][1]
        assert snapshots[1][2] == snapshots[2][2]
        # The batch genuinely exercised weak memory.
        assert snapshots[1][0]["counters"].get("read_choice_points", 0) > 0


# ----------------------------------------------------------------------
# Journal schema v2
# ----------------------------------------------------------------------


class TestJournalV2:
    def _journaled_run(self, path, memory, seed=13):
        journal = JsonlJournal(str(path), memory=memory)
        metrics = MetricsRegistry()
        rng = ReplayableRng(seed)
        sim = Simulation(TwoProcessProtocol(), ("a", "b"),
                         SCHEDULERS["rv_adversarial"](rng.child("sched")),
                         rng.child("kernel"), sinks=(journal, metrics),
                         memory=memory)
        sim.run(3_000)
        journal.close()
        return metrics

    def test_header_and_alts(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._journaled_run(path, "regular")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0] == {"t": "journal", "v": 3, "mem": "regular"}
        alts = [l for l in lines if l.get("alts")]
        assert alts, "an adversarial regular run must hit contended reads"
        assert all(l["op"] == "read" and l["alts"] >= 2 for l in alts)

    def test_replay_reproduces_weak_memory_metrics(self, tmp_path):
        path = tmp_path / "run.jsonl"
        live = self._journaled_run(path, "safe")
        replayed = replay_journal(str(path))
        assert replayed.to_dict() == live.to_dict()
        assert replayed.counters["read_choice_points"].value > 0

    def test_v1_journal_still_readable(self, tmp_path):
        assert SUPPORTED_VERSIONS == (1, 2, 3)
        path = tmp_path / "v1.jsonl"
        lines = [
            {"t": "journal", "v": 1},
            {"t": "run_start", "protocol": "wr", "n": 2,
             "inputs": ["a", "b"]},
            {"t": "step", "i": 0, "pid": 0, "op": "write", "reg": "r",
             "value": 1},
            {"t": "step", "i": 1, "pid": 1, "op": "read", "reg": "r",
             "result": 1},
            {"t": "run_end", "completed": True, "steps": 2,
             "consults": 2, "crashed": []},
        ]
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        metrics = replay_journal(str(path))
        assert metrics.counters["reads"].value == 1
        assert metrics.counters["writes"].value == 1
        assert "read_choice_points" not in metrics.counters

    def test_concatenate_rejects_mixed_semantics(self, tmp_path):
        paths = []
        for i, mem in enumerate(("regular", "safe")):
            p = tmp_path / f"shard{i}.jsonl"
            JsonlJournal(str(p), memory=mem).close()
            paths.append(str(p))
        with pytest.raises(ValueError):
            concatenate_journals(paths, str(tmp_path / "out.jsonl"))
        # Identical headers concatenate fine.
        p2 = tmp_path / "shard2.jsonl"
        JsonlJournal(str(p2), memory="regular").close()
        out = tmp_path / "ok.jsonl"
        n = concatenate_journals([paths[0], str(p2)], str(out))
        assert n == 1  # one fused header, no events
        assert json.loads(out.read_text())["mem"] == "regular"


# ----------------------------------------------------------------------
# Checker: the HHT-style machine-checked claims
# ----------------------------------------------------------------------


class TestWeakMemoryChecker:
    def test_two_process_consistent_under_regular(self):
        report = verify_safety(TwoProcessProtocol(), ("a", "b"),
                               memory="regular")
        assert report.ok

    def test_no_regular_anomaly_on_two_process(self):
        assert find_memory_anomaly(TwoProcessProtocol(), ("a", "b"),
                                   memory="regular") is None

    def test_safe_garbage_read_witness_found_and_replayable(self):
        witness = find_memory_anomaly(TwoProcessProtocol(), ("a", "b"),
                                      memory="safe")
        assert witness is not None
        assert witness.kind == "garbage-read"
        assert witness.memory == "safe"
        assert witness.steps
        # The witness replays step for step through the explorer.
        final = replay_witness(TwoProcessProtocol(), ("a", "b"), "safe",
                               witness.steps)
        assert final is not None
        text = witness.describe()
        assert "garbage-read" in text and "safe" in text

    def test_atomic_checker_unchanged(self):
        report = verify_safety(TwoProcessProtocol(), ("a", "b"))
        assert report.ok
