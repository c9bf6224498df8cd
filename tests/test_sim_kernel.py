"""Tests for the simulation kernel: stepping, decisions, crashes, errors."""

from __future__ import annotations

import pytest

from repro.core.two_process import TwoProcessProtocol
from repro.core.naive import NaiveProtocol
from repro.errors import AccessViolation, SimulationError
from repro.sched.crash import CrashingScheduler, CrashPlan
from repro.sched.simple import (FixedScheduler, RandomScheduler,
                                RoundRobinScheduler)
from repro.sim.kernel import Activate, Crash, Simulation
from repro.sim.ops import BOTTOM, ReadOp, WriteOp
from repro.sim.rng import ReplayableRng

from conftest import run_protocol


def make_sim(protocol=None, inputs=("a", "b"), scheduler=None, seed=0,
             record_trace=False):
    protocol = protocol or TwoProcessProtocol()
    scheduler = scheduler or RoundRobinScheduler()
    return Simulation(protocol, inputs, scheduler, ReplayableRng(seed),
                      record_trace=record_trace)


class TestStepping:
    def test_first_steps_are_initial_writes(self):
        sim = make_sim()
        rec0 = sim.step()
        rec1 = sim.step()
        assert isinstance(rec0.op, WriteOp) and rec0.op.register == "r0"
        assert isinstance(rec1.op, WriteOp) and rec1.op.register == "r1"
        assert rec0.op.value == "a" and rec1.op.value == "b"

    def test_read_returns_register_content(self):
        sim = make_sim()
        sim.step()  # P0 writes a
        sim.step()  # P1 writes b
        rec = sim.step()  # P0 reads r1
        assert isinstance(rec.op, ReadOp)
        assert rec.result == "b"

    def test_read_of_unwritten_register_returns_bottom(self):
        sim = make_sim(scheduler=FixedScheduler([0, 0]))
        sim.step()
        rec = sim.step()
        assert rec.result is BOTTOM

    def test_decision_recorded_with_activation_count(self):
        # P0 writes, then reads ⊥ (P1 never moved) and decides "a".
        sim = make_sim(scheduler=FixedScheduler([0, 0]))
        sim.step()
        rec = sim.step()
        assert rec.decided == "a"
        assert sim.decisions[0] == "a"
        assert sim.decision_activation[0] == 2

    def test_decided_processor_not_enabled(self):
        sim = make_sim(scheduler=FixedScheduler([0, 0]))
        sim.step(), sim.step()
        assert 0 not in sim.enabled
        with pytest.raises(SimulationError):
            sim.step_processor(0)

    def test_activations_counted_per_processor(self):
        sim = make_sim()
        for _ in range(4):
            sim.step()
        assert sim.activations == {0: 2, 1: 2}

    def test_run_completes_and_is_consistent(self):
        result = run_protocol(TwoProcessProtocol(), ("a", "b"), seed=7)
        assert result.completed
        assert result.all_decided
        assert result.consistent and result.nontrivial

    def test_finished_simulation_refuses_steps(self):
        sim = make_sim(scheduler=FixedScheduler([0, 0, 1, 1]))
        while not sim.finished:
            sim.step()
        with pytest.raises(SimulationError):
            sim.step()

    def test_result_snapshot_midway(self):
        sim = make_sim()
        sim.step()
        result = sim.result()
        assert result.total_steps == 1
        assert not result.completed


class TestCrashes:
    def test_crash_removes_processor(self):
        sim = make_sim()
        sim.crash(1)
        assert sim.alive == (0,)
        assert 1 in sim.crashed

    def test_crashed_processor_cannot_step(self):
        sim = make_sim()
        sim.crash(0)
        with pytest.raises(SimulationError):
            sim.step_processor(0)

    def test_double_crash_rejected(self):
        sim = make_sim()
        sim.crash(0)
        with pytest.raises(SimulationError):
            sim.crash(0)

    def test_scheduler_injected_crash(self):
        class CrashOnce:
            def __init__(self):
                self.fired = False

            def choose(self, view):
                if not self.fired:
                    self.fired = True
                    return Crash(1)
                return Activate(view.enabled[0])

        sim = make_sim(scheduler=CrashOnce())
        sim.step()
        assert 1 in sim.crashed

    def test_survivor_decides_alone(self):
        # Crash P1 before it ever runs; P0 must still decide (wait-freedom).
        sim = make_sim(scheduler=FixedScheduler([0, 0, 0, 0]))
        sim.crash(1)
        result = sim.run(100)
        assert result.decisions == {0: "a"}
        assert result.completed

    @pytest.mark.parametrize("max_consults", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("protocol, inputs", [
        (TwoProcessProtocol, ("a", "b")),
        (lambda: NaiveProtocol(3), ("a", "b", "a")),
    ])
    def test_consult_budget_counts_injected_crashes(self, protocol, inputs,
                                                    max_consults):
        # A crash spends a consultation but no step, so the consultation
        # budget binds before the step budget; both engines stop at it.
        results = {}
        for engine in ("fast", "reference"):
            rng = ReplayableRng(3)
            scheduler = CrashingScheduler(RandomScheduler(rng.child("s")),
                                          CrashPlan(at_step={1: 1}))
            sim = Simulation(protocol(), inputs, scheduler, rng.child("k"),
                             engine=engine)
            results[engine] = sim.run(100, max_consults=max_consults)
        fast, reference = results["fast"], results["reference"]
        assert fast == reference
        assert fast.crashed == frozenset({1})
        assert fast.total_steps == fast.sched_consults - 1
        assert fast.completed \
            or fast.sched_consults == max(max_consults, 3)


class TestValidation:
    def test_invalid_pid_rejected(self):
        sim = make_sim()
        with pytest.raises(SimulationError):
            sim.step_processor(5)

    def test_access_control_enforced(self):
        # Craft a protocol step that writes someone else's register.
        protocol = TwoProcessProtocol()
        sim = make_sim(protocol)
        layout = sim.layout
        with pytest.raises(AccessViolation):
            layout.check_write(0, "r1")
        with pytest.raises(AccessViolation):
            layout.check_read(0, "r0")  # P0 may not read its own register

    def test_unknown_register_rejected(self):
        sim = make_sim()
        with pytest.raises(AccessViolation):
            sim.layout.index_of("nope")

    def test_wrong_input_arity_rejected(self):
        with pytest.raises(ValueError):
            make_sim(inputs=("a",))


class TestPartiallyDecidedAccounting:
    def test_steps_to_decide_on_partially_decided_run(self):
        # Only P0 moves: it decides, P1 never does.
        sim = make_sim(scheduler=FixedScheduler([0, 0]))
        sim.step(), sim.step()
        result = sim.result()
        assert result.decisions == {0: "a"}
        assert result.steps_to_decide(0) == 2
        assert result.steps_to_decide(1) is None
        assert result.max_steps_to_decide() == 2
        assert not result.all_decided

    def test_max_steps_to_decide_none_when_nobody_decided(self):
        sim = make_sim()
        sim.step()
        result = sim.result()
        assert result.decision_activation == {}
        assert result.max_steps_to_decide() is None
        assert result.steps_to_decide(0) is None

    def test_crashed_processor_excluded_from_all_decided(self):
        sim = make_sim(scheduler=FixedScheduler([0, 0, 0, 0]))
        sim.crash(1)
        result = sim.run(100)
        assert result.all_decided
        assert result.steps_to_decide(1) is None
        assert result.max_steps_to_decide() == result.steps_to_decide(0)


class TestDeterminismOfRuns:
    def test_same_seed_reproduces_run(self):
        r1 = run_protocol(TwoProcessProtocol(), ("a", "b"), seed=3,
                          record_trace=True)
        r2 = run_protocol(TwoProcessProtocol(), ("a", "b"), seed=3,
                          record_trace=True)
        assert r1.decisions == r2.decisions
        assert r1.trace.schedule() == r2.trace.schedule()
        assert [s.op for s in r1.trace] == [s.op for s in r2.trace]

    def test_coin_flip_counting(self):
        result = run_protocol(NaiveProtocol(3), ("a", "b", "a"), seed=1)
        # Every completed naive run with mixed inputs flips at least once.
        assert sum(result.coin_flips.values()) >= 1


class TestSchedulerActionNormalization:
    """The scheduler contract: ``choose`` may return Activate, Crash,
    or a bare processor id (int) as shorthand for Activate."""

    def test_bare_int_activates(self):
        class BareInt:
            def choose(self, view):
                return view.enabled[0]

        sim = make_sim(scheduler=BareInt())
        rec = sim.step()
        assert rec.pid == 0
        assert sim.activations[0] == 1

    def test_bare_int_run_matches_activate_run(self):
        class BareIntRR:
            def __init__(self):
                self._inner = RoundRobinScheduler()

            def choose(self, view):
                return self._inner.choose(view).pid

        r_int = run_protocol(TwoProcessProtocol(), ("a", "b"), seed=5,
                             scheduler=BareIntRR())
        r_act = run_protocol(TwoProcessProtocol(), ("a", "b"), seed=5,
                             scheduler=RoundRobinScheduler())
        assert r_int.decisions == r_act.decisions
        assert r_int.total_steps == r_act.total_steps

    @pytest.mark.parametrize("bogus", [True, False, "p0", 1.0, None, (0,)])
    def test_non_action_rejected(self, bogus):
        class Bogus:
            def choose(self, view):
                return bogus

        sim = make_sim(scheduler=Bogus())
        with pytest.raises(SimulationError, match="scheduler returned"):
            sim.step()

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_out_of_range_int_rejected(self, engine):
        class OutOfRange:
            def choose(self, view):
                return 99

        protocol = TwoProcessProtocol()
        sim = Simulation(protocol, ("a", "b"), OutOfRange(),
                         ReplayableRng(0), engine=engine)
        with pytest.raises(SimulationError, match="invalid processor id"):
            sim.run(10)

    @pytest.mark.parametrize("bare_int", [True, False])
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_decided_processor_rejected(self, engine, bare_int):
        # P0 decides on its second step (write, read bottom); a third
        # activation of P0 — within the same run() call — is a bug.
        class KeepsActivatingP0:
            def choose(self, view):
                return 0 if bare_int else Activate(0)

        sim = Simulation(TwoProcessProtocol(), ("a", "b"),
                         KeepsActivatingP0(), ReplayableRng(0),
                         engine=engine)
        with pytest.raises(SimulationError,
                           match="scheduled decided processor 0"):
            sim.run(10)
        assert sim.decisions == {0: "a"}
        assert sim.step_index == 2

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_processor_crashed_mid_run_rejected(self, engine):
        # P1 steps, is crashed by the scheduler, then activated again,
        # all within one run() call.
        script = iter([1, Crash(1), 1])

        class CrashThenActivate:
            def choose(self, view):
                return next(script)

        sim = Simulation(TwoProcessProtocol(), ("a", "b"),
                         CrashThenActivate(), ReplayableRng(0),
                         engine=engine)
        with pytest.raises(SimulationError,
                           match="scheduled crashed processor 1"):
            sim.run(10)
        assert sim.step_index == 1

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_activate_with_non_int_pid_rejected(self, engine):
        class StringPid:
            def choose(self, view):
                return Activate("p0")

        sim = Simulation(TwoProcessProtocol(), ("a", "b"), StringPid(),
                         ReplayableRng(0), engine=engine)
        with pytest.raises(SimulationError, match="invalid processor id"):
            sim.run(10)


class TestIncrementalViews:
    """alive/enabled are maintained incrementally (crash/decide events),
    not rebuilt per access; they must stay consistent with the run."""

    def test_views_are_cheap_tuples(self):
        sim = make_sim()
        assert sim.alive == (0, 1)
        assert sim.enabled == (0, 1)
        assert sim.alive is sim.alive  # stable object between events

    def test_crash_updates_both_views(self):
        sim = make_sim(protocol=NaiveProtocol(3), inputs=("a", "b", "a"))
        sim.crash(1)
        assert sim.alive == (0, 2)
        assert sim.enabled == (0, 2)

    def test_decide_leaves_alive_but_not_enabled(self):
        sim = make_sim(scheduler=FixedScheduler([0, 0]))
        sim.step(), sim.step()  # P0 writes, reads bottom, decides
        assert sim.alive == (0, 1)
        assert sim.enabled == (1,)
        assert not sim.finished

    def test_finished_reflects_empty_enabled(self):
        sim = make_sim(scheduler=FixedScheduler([0, 0]))
        sim.step(), sim.step()
        sim.crash(1)
        assert sim.enabled == ()
        assert sim.finished

    def test_view_object_matches_kernel_views(self):
        captured = {}

        class Spy:
            def __init__(self):
                self._inner = RoundRobinScheduler()

            def choose(self, view):
                captured["enabled"] = view.enabled
                captured["alive"] = view.alive
                return self._inner.choose(view)

        sim = make_sim(scheduler=Spy())
        sim.run(100)
        assert captured["alive"] == (0, 1)
        assert captured["enabled"] in ((0,), (1,), (0, 1))
