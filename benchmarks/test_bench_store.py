"""E-store — warm-cache sweeps answered without kernel execution.

PR 7's tentpole added the content-addressed run store
(:mod:`repro.store`): every committed shard is keyed by
``(spec_hash, root_seed, index_range)``, so repeating an identical
sweep is pure deserialization — zero kernel steps.  This benchmark
times one instrumented sweep cold (empty store, every shard executed
and committed) and the same sweep warm (every shard answered from
cache), asserts the warm results are *bit-identical* to the cold ones
(RunStats fields, metrics snapshot, journal bytes), gates on a minimum
warm-over-cold speedup, and emits ``BENCH_store.json`` on the shared
envelope so future PRs inherit the store's perf trajectory.

Methodology: both sweeps run through the same ``run_many(...,
store=...)`` entry point with identical shard geometry; the only
variable is store occupancy.  Exactness — including journal bytes — is
asserted on an untimed cold/warm pair first; the timed pairs then run
without a journal so the gate measures the cache path itself rather
than journal-segment IO (which both sides pay identically).  Cold/warm
wall times are best-of-``REPS`` (each cold rep starts from a fresh
store root) to shed scheduler-noise outliers.  The gate is in-process —
cold and warm are measured in the same session on the same host, so no
cross-host baseline skip is needed; exactness is asserted
unconditionally.
"""

from __future__ import annotations

import shutil
import tempfile
from time import perf_counter

from conftest import dump_bench
from repro.analysis.reporting import ExperimentRecord
from repro.obs.metrics import MetricsRegistry
from repro.parallel.tasks import ConstantInputs, ProtocolSpec, SchedulerSpec
from repro.sim.runner import ExperimentRunner
from repro.store import RunStore

N_RUNS = 2_000
SHARD = 250
MAX_STEPS = 4_000
REPS = 2
SEED = 2025
# The reference machine measures ~400x (a warm sweep is pickle loads,
# not kernel steps); 20x leaves a wide margin for slow CI disks while
# still failing if the cache path ever silently falls back to
# re-execution.
MIN_SPEEDUP = 20.0

INPUTS = ("a", "b", "b")


def make_runner():
    return ExperimentRunner(
        protocol_factory=ProtocolSpec("three-bounded", 3),
        scheduler_factory=SchedulerSpec("random"),
        inputs_factory=ConstantInputs(INPUTS),
        seed=SEED,
        sinks=(MetricsRegistry(),),
    )


def timed_sweep(store, journal_path=None):
    """One store-backed sweep; returns (seconds, stats, journal, metrics)."""
    runner = make_runner()
    t0 = perf_counter()
    stats = runner.run_many(N_RUNS, max_steps=MAX_STEPS, shard_size=SHARD,
                            journal_path=journal_path, store=store)
    seconds = perf_counter() - t0
    journal = None
    if journal_path is not None:
        with open(journal_path, "rb") as fh:
            journal = fh.read()
    return seconds, stats, journal, runner.metrics.to_dict()


def assert_bit_identical(cold, warm):
    _, cold_stats, cold_journal, cold_metrics = cold
    _, warm_stats, warm_journal, warm_metrics = warm
    assert warm_stats.runs == cold_stats.runs
    assert warm_journal == cold_journal
    assert warm_metrics == cold_metrics


def test_bench_store_warm_cache(benchmark, report, tmp_path):
    # Untimed exactness pair (with journal): "served from cache" must
    # mean bit-identical stats, metrics, and journal bytes.  This also
    # warms the kernel caches and allocator before the clock starts.
    exact_root = tempfile.mkdtemp(dir=str(tmp_path))
    exact_store = RunStore(exact_root)
    exact_cold = timed_sweep(exact_store, str(tmp_path / "exact-cold.jsonl"))
    exact_warm = timed_sweep(exact_store, str(tmp_path / "exact-warm.jsonl"))
    assert_bit_identical(exact_cold, exact_warm)
    assert exact_warm[1].store.fully_cached
    shutil.rmtree(exact_root)

    def run_all():
        best_cold = best_warm = None
        first_cold = first_warm = None
        for rep in range(REPS):
            root = str(tmp_path / f"store-{rep}")
            store = RunStore(root)
            cold = timed_sweep(store)
            warm = timed_sweep(store)
            if first_cold is None:
                first_cold, first_warm = cold, warm
            if best_cold is None or cold[0] < best_cold:
                best_cold = cold[0]
            if best_warm is None or warm[0] < best_warm:
                best_warm = warm[0]
        return best_cold, best_warm, first_cold, first_warm

    t_cold, t_warm, cold, warm = benchmark.pedantic(
        run_all, rounds=1, iterations=1)

    # The timed (journal-free) pair must agree too.
    assert_bit_identical(cold, warm)
    cold_store, warm_store_stats = cold[1].store, warm[1].store
    assert cold_store.hits == 0
    assert cold_store.runs_executed == N_RUNS
    assert warm_store_stats.fully_cached
    assert warm_store_stats.runs_executed == 0
    assert warm_store_stats.runs_from_cache == N_RUNS

    ratio = t_cold / t_warm
    record = ExperimentRecord(
        experiment="store_warm_cache",
        protocol="three_bounded",
        scheduler="random",
        inputs=",".join(INPUTS),
        seed=SEED,
        n_runs=N_RUNS,
        max_steps=MAX_STEPS,
        metrics={
            "timing": {
                "seconds_cold": t_cold,
                "seconds_warm": t_warm,
                "speedup_ratio": ratio,
                "n_shards": N_RUNS // SHARD,
                "shard_size": SHARD,
                "reps": REPS,
            },
            "store": {
                "cold_misses": cold_store.misses,
                "warm_hits": warm_store_stats.hits,
                "warm_runs_executed": warm_store_stats.runs_executed,
            },
            "bit_identical": True,
        },
    )

    report.add_table(
        f"E-store: warm-cache sweep vs cold ({N_RUNS:,} runs, "
        f"{N_RUNS // SHARD} shards)",
        header=("sweep", "seconds", "runs executed", "speedup"),
        rows=[
            ("cold (empty store)", f"{t_cold:.3f}",
             f"{cold_store.runs_executed:,}", "1.00x"),
            ("warm (fully cached)", f"{t_warm:.3f}",
             f"{warm_store_stats.runs_executed:,}", f"{ratio:.0f}x"),
        ],
        note=("The warm sweep is asserted bit-identical to the cold one "
              "(RunStats, metrics\nsnapshot, journal bytes) before timing "
              f"is reported.  Gate: >= {MIN_SPEEDUP:.0f}x in-process; "
              "the measured ratio lands in BENCH_store.json."),
    )

    dump_bench([record], "store")

    # CI regression gate (see .github/workflows/ci.yml sweep-smoke).
    assert ratio >= MIN_SPEEDUP, (
        f"warm-cache sweep only {ratio:.1f}x over cold "
        f"(gate {MIN_SPEEDUP:.0f}x)"
    )
