"""E-robustness — supervision overhead and crash-recovery latency.

The fault-tolerant sweep supervisor
(:mod:`repro.parallel.supervisor`) adds per-shard watchdogs, bounded
deterministic retries, and quarantine to the shard executor.
Supervision must be close to free when nothing goes wrong — supervised
and unsupervised sweeps run on the same long-lived, watched worker
processes and differ only in the fault policy — and this benchmark
gates that the fault-free supervised sweep stays within
``MAX_OVERHEAD`` of the unsupervised sweep on the same geometry.
It also measures (without gating — recovery cost depends on where in
the shard the crash lands) the wall-clock price of one injected worker
crash: the supervisor detects the dead process, re-executes the shard,
and still merges a bit-identical result.

Methodology: one untimed supervised sweep first asserts bit-identical
runs/metrics against the unsupervised sweep and warms caches.  Timed sweeps
then run journal- and telemetry-free on the fork context (worker
startup is process creation; fork keeps that share small and equal on
both sides).  Wall times are best-of-``REPS``; the overhead gate is
in-process (both sides measured in the same session on the same host).
Recovery latency is reported as (crashy supervised walltime) minus
(best clean supervised walltime) for a crash injected at shard 0's
first attempt, retried with near-zero backoff.
"""

from __future__ import annotations

from time import perf_counter

from conftest import dump_bench
from repro.analysis.reporting import ExperimentRecord
from repro.faults import FaultAction, FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.parallel.engine import default_start_method
from repro.parallel.tasks import ConstantInputs, ProtocolSpec, SchedulerSpec
from repro.parallel.supervisor import SupervisorPolicy
from repro.sim.runner import ExperimentRunner

N_RUNS = 800
SHARD = 100
MAX_STEPS = 2_000
WORKERS = 2
REPS = 3
SEED = 2026
# ISSUE 10 acceptance gate: fault-free supervised sweeps cost at most
# 5% over the plain parallel engine.
MAX_OVERHEAD = 1.05

INPUTS = ("a", "b", "b")

MP = default_start_method()


def make_runner():
    return ExperimentRunner(
        protocol_factory=ProtocolSpec("three-bounded", 3),
        scheduler_factory=SchedulerSpec("random"),
        inputs_factory=ConstantInputs(INPUTS),
        seed=SEED,
        sinks=(MetricsRegistry(),),
    )


def timed_sweep(supervise, fault_plan=None):
    """One parallel sweep; returns (seconds, stats, metrics dict)."""
    runner = make_runner()
    policy = None
    if fault_plan is not None:
        # Near-zero backoff so the measured recovery latency is
        # detection + re-execution, not a sleep we chose ourselves.
        policy = SupervisorPolicy(backoff_base=0.001, backoff_cap=0.002)
    t0 = perf_counter()
    stats = runner.run_many(N_RUNS, max_steps=MAX_STEPS, workers=WORKERS,
                            shard_size=SHARD, mp_context=MP,
                            supervise=supervise, policy=policy,
                            fault_plan=fault_plan)
    seconds = perf_counter() - t0
    return seconds, stats, runner.metrics.to_dict()


def test_bench_supervision_overhead(benchmark, report):
    # Untimed exactness pair: supervision must not change any result.
    plain = timed_sweep(supervise=False)
    supervised = timed_sweep(supervise=True)
    assert supervised[1].runs == plain[1].runs
    assert supervised[2] == plain[2]
    assert supervised[1].faults is not None and supervised[1].faults.ok

    def run_all():
        best_plain = best_sup = None
        for _rep in range(REPS):
            t_plain = timed_sweep(supervise=False)[0]
            t_sup = timed_sweep(supervise=True)[0]
            if best_plain is None or t_plain < best_plain:
                best_plain = t_plain
            if best_sup is None or t_sup < best_sup:
                best_sup = t_sup
        # One crash at shard 0's first attempt; the supervisor reaps
        # the dead process and re-executes the shard.
        crash_plan = FaultPlan.build({(0, 0): FaultAction("crash")})
        t_crash, crash_stats, crash_metrics = timed_sweep(
            supervise=True, fault_plan=crash_plan)
        return best_plain, best_sup, t_crash, crash_stats, crash_metrics

    t_plain, t_sup, t_crash, crash_stats, crash_metrics = \
        benchmark.pedantic(run_all, rounds=1, iterations=1)

    # The crashed-and-retried sweep still merges bit-identical.
    assert crash_stats.runs == plain[1].runs
    assert crash_metrics == plain[2]
    assert crash_stats.faults.counts() == {"crash": 1}

    overhead = t_sup / t_plain
    recovery = t_crash - t_sup
    record = ExperimentRecord(
        experiment="supervision_overhead",
        protocol="three_bounded",
        scheduler="random",
        inputs=",".join(INPUTS),
        seed=SEED,
        n_runs=N_RUNS,
        max_steps=MAX_STEPS,
        metrics={
            "timing": {
                "seconds_plain": t_plain,
                "seconds_supervised": t_sup,
                "overhead_ratio": overhead,
                "workers": WORKERS,
                "n_shards": N_RUNS // SHARD,
                "mp_context": MP,
                "reps": REPS,
            },
            "recovery": {
                "seconds_with_one_crash": t_crash,
                "recovery_latency_seconds": recovery,
                "faults_observed": crash_stats.faults.counts(),
            },
            "bit_identical": True,
        },
    )

    report.add_table(
        f"E-robustness: supervised vs plain parallel sweep "
        f"({N_RUNS:,} runs, {WORKERS} workers)",
        header=("sweep", "seconds", "vs plain"),
        rows=[
            ("plain run_many", f"{t_plain:.3f}", "1.00x"),
            ("supervised, fault-free", f"{t_sup:.3f}",
             f"{overhead:.2f}x"),
            ("supervised, one worker crash", f"{t_crash:.3f}",
             f"(+{recovery:.3f}s recovery)"),
        ],
        note=("Supervised and crash-retried sweeps are asserted "
              "bit-identical to the plain\nengine before timing is "
              f"reported.  Gate: fault-free overhead <= "
              f"{MAX_OVERHEAD:.2f}x in-process;\nrecovery latency is "
              "recorded in BENCH_robustness.json, not gated."),
    )

    dump_bench([record], "robustness")

    # CI regression gate (see .github/workflows/ci.yml sweep-smoke).
    assert overhead <= MAX_OVERHEAD, (
        f"fault-free supervised sweep costs {overhead:.3f}x over the "
        f"plain engine (gate {MAX_OVERHEAD:.2f}x)"
    )
