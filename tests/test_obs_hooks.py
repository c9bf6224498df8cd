"""Tests for the hook protocol, observed-vs-bare run parity, run-level
timing, and the scheduler-consultation accounting fix."""

from __future__ import annotations

import pytest

from repro.core.two_process import TwoProcessProtocol
from repro.errors import SimulationError
from repro.obs import (BaseSink, MetricsRegistry, ObsHub,
                       TimeAttributionProfiler)
from repro.obs.hooks import _taken, make_hub
from repro.sched.simple import FixedScheduler, RandomScheduler
from repro.sim.kernel import Activate, Crash, Simulation
from repro.sim.rng import ReplayableRng


def make_sim(scheduler=None, seed=0, sinks=None, record_trace=False):
    rng = ReplayableRng(seed)
    scheduler = scheduler or RandomScheduler(rng.child("sched"))
    return Simulation(TwoProcessProtocol(), ("a", "b"), scheduler,
                      rng.child("kernel"), record_trace=record_trace,
                      sinks=sinks)


class RecordingSink(BaseSink):
    """Appends (event, payload) tuples for assertion."""

    def __init__(self):
        self.events = []

    def on_run_start(self, protocol_name, n_processes, inputs):
        self.events.append(("run_start", protocol_name))

    def on_sched(self, consults):
        self.events.append(("sched", consults))

    def on_coin_flip(self, pid, n_branches):
        self.events.append(("coin_flip", pid))

    def on_read(self, pid, register, value):
        self.events.append(("read", register))

    def on_write(self, pid, register, value):
        self.events.append(("write", register))

    def on_decision(self, pid, value, activation):
        self.events.append(("decision", pid))

    def on_crash(self, pid, index):
        self.events.append(("crash", pid))

    def on_step(self, index, pid, op, result, decided):
        self.events.append(("step", index))

    def on_run_end(self, result):
        self.events.append(("run_end", result.completed))


class TestHub:
    def test_no_sinks_means_no_hub(self):
        assert make_hub(None) is None
        assert make_hub(()) is None
        sim = make_sim()
        assert sim._obs is None

    def test_hub_fans_out_to_all_sinks(self):
        a, b = RecordingSink(), RecordingSink()
        hub = ObsHub((a, b))
        hub.step(0, 1, None, None, None)
        assert a.events == b.events == [("step", 0)]

    def test_attach_sink_after_construction(self):
        sim = make_sim()
        sink = RecordingSink()
        sim.attach_sink(sink)
        sim.step()
        assert ("step", 0) in sink.events

    def test_event_order_within_a_step(self):
        sink = RecordingSink()
        sim = make_sim(scheduler=FixedScheduler([0, 1, 0]), sinks=(sink,))
        for _ in range(3):
            sim.step()
        kinds = [k for k, _ in sink.events]
        # Each step: sched consult, then op event(s), then the step.
        assert kinds[0:3] == ["sched", "write", "step"]
        # A decision is emitted immediately before its step event
        # (the journal replay contract relies on this order).
        if "decision" in kinds:
            assert kinds[kinds.index("decision") + 1] == "step"


class TestNonPerturbation:
    def test_observed_run_identical_to_bare_run(self):
        bare = make_sim(seed=21, record_trace=True).run(4000)
        observed = make_sim(seed=21, record_trace=True,
                            sinks=(RecordingSink(), MetricsRegistry(),
                                   TimeAttributionProfiler())).run(4000)
        assert observed.decisions == bare.decisions
        assert observed.total_steps == bare.total_steps
        assert observed.coin_flips == bare.coin_flips
        assert observed.sched_consults == bare.sched_consults
        assert observed.trace.schedule() == bare.trace.schedule()
        assert [s.op for s in observed.trace] == [s.op for s in bare.trace]

    @pytest.mark.parametrize("seed", range(8))
    def test_paths_agree_across_seeds(self, seed):
        bare = make_sim(seed=seed).run(4000)
        observed = make_sim(seed=seed, sinks=(BaseSink(),)).run(4000)
        assert observed.decisions == bare.decisions
        assert observed.total_steps == bare.total_steps


class TestRunTimer:
    def test_run_layers_accumulate(self):
        timer = TimeAttributionProfiler()
        result = make_sim(seed=2, sinks=(timer,)).run(4000)
        assert result.total_steps > 0
        assert timer.n_runs == 1
        assert timer.run_seconds > 0
        # A bare Simulation delivers no on_run_key: it is all loop.
        assert timer.setup_seconds == 0.0
        assert timer.run_seconds == timer.loop_seconds

    def test_timer_takes_run_level_events_only(self):
        assert _taken(TimeAttributionProfiler()) == {
            "run_key", "run_start", "run_end"}


class TestSchedulerConsultAccounting:
    def test_consults_counted_per_activation(self):
        sim = make_sim(scheduler=FixedScheduler([0, 1, 0, 1]))
        sim.step()
        sim.step()
        assert sim.sched_consults == 2
        assert sim.result().sched_consults == 2

    def test_crash_actions_consume_consults_not_steps(self):
        class CrashThenRun:
            def __init__(self):
                self.fired = False

            def choose(self, view):
                if not self.fired:
                    self.fired = True
                    return Crash(1)
                return Activate(0)

        sim = make_sim(scheduler=CrashThenRun())
        result = sim.run(100)
        assert result.completed
        assert result.total_steps < result.sched_consults

    def test_default_consult_budget_never_cuts_a_sane_run(self):
        result = make_sim(seed=3).run(4000)
        assert result.completed
        assert result.sched_consults == result.total_steps

    def test_consult_budget_stops_the_run(self):
        # No two-processor run can finish in 3 steps, so a 3-consult
        # budget must stop the run early instead of letting scheduler
        # work run unbounded relative to max_steps.
        result = make_sim(seed=1).run(4000, max_consults=3)
        assert not result.completed
        assert result.sched_consults == 3
        assert result.total_steps == 3

    def test_view_exposes_consults(self):
        sim = make_sim(scheduler=FixedScheduler([0, 1]))
        sim.step()
        assert sim._view.sched_consults == 1

    def test_metrics_expose_consults(self):
        reg = MetricsRegistry()
        result = make_sim(seed=5, sinks=(reg,)).run(4000)
        assert reg.counters["sched_consults"].value == result.sched_consults
        assert (reg.histograms["run_sched_consults"].p50
                == result.sched_consults)
