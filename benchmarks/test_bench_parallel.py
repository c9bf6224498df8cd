"""E-par — sharded Monte-Carlo batch engine: speedup and exactness.

Two claims are on trial.  **Exactness**: a batch sharded across worker
processes must be bit-identical to the serial batch with the same root
seed — same per-run stats, same merged metrics snapshot, same journal
bytes (runs are keyed by ``derive_seed(root, "run", i)``, never by
execution order).  **Speed**: the whole point of the engine is that the
paper's tail estimates (Theorem 7's ≤ (1/4)^(k/2), Theorem 9's (3/4)^k)
need run counts that are slow in one process; at 4 workers on the
two-process batch the engine must recover ≥ 2x of wall clock.

Exactness is asserted unconditionally.  The speedup assertion needs
hardware parallelism, so it is gated on ≥ 4 usable CPUs — but the
measured ratio (and the CPU budget it was measured under) is always
recorded in ``BENCH_parallel.json`` for the perf trajectory.
"""

from __future__ import annotations

import os
import time

from conftest import dump_bench
from repro.analysis.reporting import record_batch
from repro.obs import MetricsRegistry
from repro.parallel import (ConstantInputs, ProtocolSpec, SchedulerSpec,
                            default_start_method)
from repro.sim.runner import ExperimentRunner

N_RUNS = 12_000
JOURNAL_RUNS = 1_000
MAX_STEPS = 4_000
WORKERS = 4
SEED = 2025
SPEEDUP_FLOOR = 2.0



def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def make_runner(registry=None):
    return ExperimentRunner(
        protocol_factory=ProtocolSpec("two", 2),
        scheduler_factory=SchedulerSpec("random"),
        inputs_factory=ConstantInputs(("a", "b")),
        seed=SEED,
        sinks=(registry,) if registry is not None else (),
    )


def test_bench_parallel_speedup_and_exactness(benchmark, report, tmp_path):
    cpus = usable_cpus()
    mp_context = default_start_method()
    make_runner().run_many(500, max_steps=MAX_STEPS)  # warmup

    def run_both():
        serial_reg = MetricsRegistry()
        t0 = time.perf_counter()
        serial_stats = make_runner(serial_reg).run_many(
            N_RUNS, max_steps=MAX_STEPS)
        t_serial = time.perf_counter() - t0

        parallel_reg = MetricsRegistry()
        t0 = time.perf_counter()
        parallel_stats = make_runner(parallel_reg).run_many(
            N_RUNS, max_steps=MAX_STEPS, workers=WORKERS,
            mp_context=mp_context)
        t_parallel = time.perf_counter() - t0
        return (serial_stats, serial_reg, t_serial,
                parallel_stats, parallel_reg, t_parallel)

    (serial_stats, serial_reg, t_serial,
     parallel_stats, parallel_reg, t_parallel) = benchmark.pedantic(
        run_both, rounds=1, iterations=1)

    # -- exactness: the tentpole contract, asserted on every host ------
    assert parallel_stats.runs == serial_stats.runs
    assert parallel_reg.to_dict() == serial_reg.to_dict()
    assert serial_stats.completion_rate == 1.0
    assert serial_stats.n_consistency_violations == 0

    # Journal shards must concatenate to the serial journal, byte for
    # byte (smaller batch: journals are IO-bound).
    ser_path = str(tmp_path / "serial.jsonl")
    par_path = str(tmp_path / "parallel.jsonl")
    js = make_runner().run_many(JOURNAL_RUNS, max_steps=MAX_STEPS,
                                journal_path=ser_path)
    jp = make_runner().run_many(JOURNAL_RUNS, max_steps=MAX_STEPS,
                                workers=WORKERS, journal_path=par_path,
                                mp_context=mp_context)
    with open(ser_path, "rb") as fh:
        serial_journal = fh.read()
    with open(par_path, "rb") as fh:
        parallel_journal = fh.read()
    assert parallel_journal == serial_journal
    assert jp.journal_events == js.journal_events

    # -- speed ---------------------------------------------------------
    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    total_steps = sum(r.total_steps for r in serial_stats.runs)

    report.add_table(
        f"E-par: sharded batch engine, {N_RUNS}-run two-processor batch "
        f"({WORKERS} workers, {mp_context} start, {cpus} CPUs usable)",
        header=("configuration", "wall time", "steps/s", "speedup"),
        rows=[
            ("serial (workers=1)", f"{t_serial:.3f}s",
             f"{total_steps / t_serial:,.0f}", "1.00x"),
            (f"sharded (workers={WORKERS})", f"{t_parallel:.3f}s",
             f"{total_steps / t_parallel:,.0f}", f"{speedup:.2f}x"),
        ],
        note=(f"Merged run stats, metrics snapshot, and journal are "
              f"bit-identical to serial\n(asserted). Speedup floor of "
              f"{SPEEDUP_FLOOR:.0f}x at {WORKERS} workers is enforced "
              f"when >= 4 CPUs are usable."),
    )

    if cpus >= 4:
        assert speedup >= SPEEDUP_FLOOR, (
            f"{WORKERS}-worker batch only {speedup:.2f}x faster than "
            f"serial on {cpus} CPUs (floor {SPEEDUP_FLOOR}x)"
        )

    # -- machine-readable perf trajectory ------------------------------
    record = record_batch(
        experiment="parallel_speedup",
        protocol="two",
        scheduler="random",
        inputs="a,b",
        seed=SEED,
        stats=parallel_stats,
    )
    record.metrics["timing"] = {
        "n_runs": N_RUNS,
        "total_steps": total_steps,
        "workers": WORKERS,
        "mp_context": mp_context,
        "usable_cpus": cpus,
        "seconds_serial": t_serial,
        "seconds_parallel": t_parallel,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_floor_enforced": cpus >= 4,
        "steps_per_second_serial": total_steps / t_serial,
        "steps_per_second_parallel": total_steps / t_parallel,
        "bit_identical_run_stats": True,
        "bit_identical_metrics": True,
        "bit_identical_journal": True,
        "journal_runs": JOURNAL_RUNS,
        "journal_events": jp.journal_events,
    }
    dump_bench([record], "parallel")
