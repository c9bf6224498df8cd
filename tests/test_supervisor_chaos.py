"""Chaos suite for the fault-tolerant sweep supervisor.

The acceptance contract (docs/ROBUSTNESS.md): for every fault kind —
worker crash, raised exception, hang past the watchdog, corrupt
committed shard, fault-then-degrade — at multiple worker counts, a
supervised sweep completes and its deterministic artifacts (the
``RunStats`` list, the merged metrics snapshot, the journal bytes) are
**bit-identical** to the fault-free serial run.  That holds because
runs are pure functions of ``(root_seed, run_index)``; the supervisor
may only change *when and where* a shard executes, never what it
computes.

Quarantine is the one sanctioned deviation: the sweep still completes,
but ``runs`` omits the quarantined index ranges and the
:class:`FaultReport` names them exactly.

These tests prefer the ``fork`` start method where the platform offers
it (child startup is ~100x cheaper than ``spawn``, and the chaos
matrix launches many children); ``spawn`` coverage of the same code
path lives in tests/test_parallel.py and the crash-kill test.
"""

from __future__ import annotations

import os

import pytest

from repro.faults import FaultAction, FaultPlan
from repro.obs import MetricsRegistry
from repro.parallel import (BatchSpec, ConstantInputs, ProtocolSpec,
                            SchedulerSpec, SupervisorError,
                            SupervisorPolicy, default_start_method,
                            run_supervised)
from repro.sim.runner import ExperimentRunner
from repro.store import RunStore

N_RUNS = 40
MAX_STEPS = 400
SEED = 321

MP = default_start_method()

#: Fast, deterministic backoff for tests (the schedule, not the wait,
#: is what the suite verifies).
FAST = dict(backoff_base=0.001, backoff_cap=0.002)


def make_spec(seed=SEED):
    return BatchSpec(
        protocol_factory=ProtocolSpec("two", 2),
        scheduler_factory=SchedulerSpec("random"),
        inputs_factory=ConstantInputs(("a", "b")),
        seed=seed,
    )


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Fault-free serial truth: runs, metrics snapshot, journal bytes."""
    journal = str(tmp_path_factory.mktemp("base") / "journal.jsonl")
    registry = MetricsRegistry()
    runner = ExperimentRunner(
        protocol_factory=ProtocolSpec("two", 2),
        scheduler_factory=SchedulerSpec("random"),
        inputs_factory=ConstantInputs(("a", "b")),
        seed=SEED,
        sinks=(registry,),
    )
    stats = runner.run_many(N_RUNS, max_steps=MAX_STEPS,
                            journal_path=journal)
    with open(journal, "rb") as fh:
        journal_bytes = fh.read()
    return stats.runs, registry.to_dict(), journal_bytes


def assert_bit_identical(stats, registry, journal_path, baseline):
    base_runs, base_metrics, base_journal = baseline
    assert stats.runs == base_runs
    assert registry.to_dict() == base_metrics
    with open(journal_path, "rb") as fh:
        assert fh.read() == base_journal


def run_with(tmp_path, fault_plan=None, policy=None, workers=2,
             store=None, seed=SEED):
    registry = MetricsRegistry()
    journal = str(tmp_path / "journal.jsonl")
    stats = run_supervised(
        make_spec(seed), N_RUNS, MAX_STEPS, workers=workers,
        journal_path=journal, registry=registry, mp_context=MP,
        store=store, policy=policy, fault_plan=fault_plan,
    )
    return stats, registry, journal


# -- the chaos matrix: fault kind x worker count, all bit-identical ----

WORKER_COUNTS = (2, 4)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestChaosMatrix:
    def test_worker_crash(self, tmp_path, baseline, workers):
        plan = FaultPlan.build({(0, 0): FaultAction("crash")})
        stats, reg, journal = run_with(
            tmp_path, plan, SupervisorPolicy(**FAST), workers=workers)
        assert_bit_identical(stats, reg, journal, baseline)
        assert [e.kind for e in stats.faults.events] == ["crash"]
        assert stats.faults.n_retries == 1

    def test_raised_exception(self, tmp_path, baseline, workers):
        plan = FaultPlan.build({(1, 0): FaultAction("raise")})
        stats, reg, journal = run_with(
            tmp_path, plan, SupervisorPolicy(**FAST), workers=workers)
        assert_bit_identical(stats, reg, journal, baseline)
        assert [e.kind for e in stats.faults.events] == ["exception"]
        assert "InjectedFault" in stats.faults.events[0].detail

    def test_hang_past_shard_timeout(self, tmp_path, baseline, workers):
        plan = FaultPlan.build({(0, 0): FaultAction("hang", seconds=60)})
        policy = SupervisorPolicy(shard_timeout=1.5, **FAST)
        stats, reg, journal = run_with(tmp_path, plan, policy,
                                       workers=workers)
        assert_bit_identical(stats, reg, journal, baseline)
        assert [e.kind for e in stats.faults.events] == ["timeout"]

    def test_corrupt_committed_shard_heals_on_resume(
            self, tmp_path, baseline, workers):
        # Sweep 1 commits every shard, then an injected at-rest fault
        # damages one; sweep 2 (the resume) must detect, quarantine
        # the file, recompute the shard, and still match the baseline.
        store = RunStore(str(tmp_path / "store"))
        plan = FaultPlan.build({(0, 0): FaultAction("corrupt",
                                                    mode="bitflip")})
        first, _, _ = run_with(tmp_path, plan, SupervisorPolicy(**FAST),
                               workers=workers, store=store)
        assert [e.kind for e in first.faults.events] == ["corrupt"]
        assert any(not v.ok for v in store.verify())

        stats, reg, journal = run_with(tmp_path, workers=workers,
                                       store=store)
        assert_bit_identical(stats, reg, journal, baseline)
        assert [e.kind for e in stats.faults.events] == ["healed"]
        assert len(stats.faults.healed) == 1
        assert stats.store.hits == workers - 1
        assert stats.store.misses == 1
        assert all(v.ok for v in store.verify())

    def test_fault_then_degrade(self, tmp_path, baseline, workers):
        # Two consecutive faults walk the ladder fast -> reference;
        # the shard finally succeeds on the reference engine with
        # results identical to every other engine (they are
        # differentially verified).
        plan = FaultPlan.build({(0, 0): FaultAction("raise"),
                                (0, 1): FaultAction("crash")})
        policy = SupervisorPolicy(on_fault="degrade", max_retries=3,
                                  **FAST)
        stats, reg, journal = run_with(tmp_path, plan, policy,
                                       workers=workers)
        assert_bit_identical(stats, reg, journal, baseline)
        actions = [e.action for e in stats.faults.events]
        assert actions == ["retry@reference", "retry"]
        assert stats.faults.n_degradations == 1


# -- policy endpoints --------------------------------------------------

class TestPolicies:
    def test_fault_free_supervised_is_bit_identical(self, tmp_path,
                                                    baseline):
        stats, reg, journal = run_with(tmp_path)
        assert_bit_identical(stats, reg, journal, baseline)
        assert stats.faults is not None and stats.faults.ok
        assert stats.faults.n_faults == 0

    def test_quarantine_names_exact_ranges(self, tmp_path, baseline):
        # Shard 0 of a 2-worker sweep covers runs [0, 20); exhausting
        # its retries must quarantine exactly that range and nothing
        # else — the sweep completes with the other half intact.
        plan = FaultPlan.build(
            {(0, a): FaultAction("raise") for a in range(4)})
        policy = SupervisorPolicy(max_retries=2, **FAST)
        stats, reg, _ = run_with(tmp_path, plan, policy)
        base_runs, _, _ = baseline
        assert stats.faults.quarantined_ranges() == [(0, 20)]
        assert stats.faults.runs_missing == 20
        assert not stats.faults.ok
        assert stats.runs == base_runs[20:]
        assert [r.run_index for r in stats.runs] == list(range(20, 40))

    def test_on_fault_quarantine_gives_up_immediately(self, tmp_path):
        plan = FaultPlan.build({(1, 0): FaultAction("raise")})
        policy = SupervisorPolicy(on_fault="quarantine", **FAST)
        stats, _, _ = run_with(tmp_path, plan, policy)
        assert stats.faults.quarantined_ranges() == [(20, 40)]
        assert stats.faults.n_retries == 0

    def test_on_fault_fail_raises_with_diagnosis(self, tmp_path):
        plan = FaultPlan.build({(0, 0): FaultAction("crash")})
        policy = SupervisorPolicy(on_fault="fail")
        with pytest.raises(SupervisorError, match="shard 0.*crash"):
            run_with(tmp_path, plan, policy)

    def test_commit_fail_reexecutes_the_shard(self, tmp_path, baseline):
        # A failed durable write means work done, fact lost: the
        # supervisor discards the result and re-runs the shard; the
        # second commit lands and the merge is unaffected.
        store = RunStore(str(tmp_path / "store"))
        plan = FaultPlan.build({(1, 0): FaultAction("commit-fail")})
        stats, reg, journal = run_with(
            tmp_path, plan, SupervisorPolicy(**FAST), store=store)
        assert_bit_identical(stats, reg, journal, baseline)
        assert [(e.kind, e.action) for e in stats.faults.events] \
            == [("commit-fail", "retry")]
        assert all(v.ok for v in store.verify())
        assert len(store.verify()) == 2

    def test_scoped_plan_does_not_fire_on_other_sweeps(self, tmp_path,
                                                       baseline):
        plan = FaultPlan.build({(0, 0): FaultAction("raise")},
                               spec_hash="0" * 64)
        stats, reg, journal = run_with(tmp_path, plan,
                                       SupervisorPolicy(**FAST))
        assert_bit_identical(stats, reg, journal, baseline)
        assert stats.faults.n_faults == 0

    def test_backoff_is_deterministic_and_jitter_free(self):
        policy = SupervisorPolicy(backoff_base=0.05, backoff_cap=0.3)
        schedule = [policy.backoff(n) for n in range(1, 6)]
        assert schedule == [0.05, 0.1, 0.2, 0.3, 0.3]
        assert schedule == [policy.backoff(n) for n in range(1, 6)]
        with pytest.raises(ValueError, match="1-based"):
            policy.backoff(0)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="on_fault"):
            SupervisorPolicy(on_fault="panic")
        with pytest.raises(ValueError, match="max_retries"):
            SupervisorPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="shard_timeout"):
            SupervisorPolicy(shard_timeout=0)


# -- run_many integration ----------------------------------------------

class TestRunManyIntegration:
    def test_supervise_flag_routes_and_reports(self, baseline):
        base_runs, base_metrics, _ = baseline
        registry = MetricsRegistry()
        runner = ExperimentRunner(
            protocol_factory=ProtocolSpec("two", 2),
            scheduler_factory=SchedulerSpec("random"),
            inputs_factory=ConstantInputs(("a", "b")),
            seed=SEED,
            sinks=(registry,),
        )
        stats = runner.run_many(N_RUNS, max_steps=MAX_STEPS, workers=2,
                                mp_context=MP, supervise=True)
        assert stats.runs == base_runs
        assert registry.to_dict() == base_metrics
        assert stats.faults is not None and stats.faults.ok

    def test_fault_plan_alone_implies_supervision(self, baseline):
        base_runs, _, _ = baseline
        runner = ExperimentRunner(
            protocol_factory=ProtocolSpec("two", 2),
            scheduler_factory=SchedulerSpec("random"),
            inputs_factory=ConstantInputs(("a", "b")),
            seed=SEED,
        )
        plan = FaultPlan.build({(0, 0): FaultAction("raise")})
        stats = runner.run_many(
            N_RUNS, max_steps=MAX_STEPS, workers=2, mp_context=MP,
            fault_plan=plan,
            policy=SupervisorPolicy(**FAST))
        assert stats.runs == base_runs
        assert stats.faults.n_faults == 1

    def test_unsupervised_batches_have_no_fault_report(self):
        runner = ExperimentRunner(
            protocol_factory=ProtocolSpec("two", 2),
            scheduler_factory=SchedulerSpec("random"),
            inputs_factory=ConstantInputs(("a", "b")),
            seed=SEED,
        )
        stats = runner.run_many(10, max_steps=MAX_STEPS)
        assert stats.faults is None


# -- telemetry surface -------------------------------------------------

class TestFaultTelemetry:
    def test_fault_records_interleave_without_breaking_heartbeats(
            self, tmp_path):
        from repro.obs.telemetry import (read_fault_events,
                                         read_telemetry, render_top)

        telemetry = str(tmp_path / "top.jsonl")
        plan = FaultPlan.build({(0, 0): FaultAction("crash")})
        stats = run_supervised(
            make_spec(), N_RUNS, MAX_STEPS, workers=2,
            telemetry_path=telemetry, mp_context=MP,
            policy=SupervisorPolicy(**FAST), fault_plan=plan)
        assert stats.faults.n_faults == 1

        beats = read_telemetry(telemetry)
        assert beats, "heartbeats must survive interleaved fault records"
        events = read_fault_events(telemetry)
        assert [e["fault"] for e in events] == ["crash"]
        assert events[0]["shard"] == 0
        assert events[0]["action"] == "retry"

        table = render_top(beats, events)
        rows = table.splitlines()
        assert "faults" in rows[0]
        shard0 = next(r for r in rows if r.split()[0] == "0")
        shard1 = next(r for r in rows if r.split()[0] == "1")
        # The faults column sits right before the state column.
        assert shard0.split()[-2] == "1"
        assert shard1.split()[-2] == "0"

    def test_render_top_without_events_is_unchanged(self, tmp_path):
        from repro.obs.telemetry import read_telemetry, render_top

        telemetry = str(tmp_path / "top.jsonl")
        run_supervised(make_spec(), N_RUNS, MAX_STEPS, workers=2,
                       telemetry_path=telemetry, mp_context=MP)
        table = render_top(read_telemetry(telemetry))
        assert "faults" not in table.splitlines()[0]


# -- journal hygiene under quarantine ----------------------------------

class TestQuarantineHygiene:
    def test_quarantined_shard_leaves_no_journal_litter(self, tmp_path):
        plan = FaultPlan.build(
            {(0, a): FaultAction("raise") for a in range(3)})
        policy = SupervisorPolicy(max_retries=1, **FAST)
        journal = str(tmp_path / "journal.jsonl")
        stats = run_supervised(
            make_spec(), N_RUNS, MAX_STEPS, workers=2,
            journal_path=journal, mp_context=MP,
            policy=policy, fault_plan=plan)
        assert not stats.faults.ok
        leftovers = [n for n in os.listdir(tmp_path)
                     if ".shard" in n]
        assert leftovers == []
        # The stitched journal covers only the surviving shard.
        with open(journal) as fh:
            lines = fh.readlines()
        assert len(lines) == (stats.journal_events or 0)
