"""E-obs — observability layer overhead (kernel hot-path budget).

The hook layer's contract is that it is (nearly) free when unused: a
kernel built without sinks keeps no hub and pays one ``is not None``
dispatch check per step.  This benchmark measures a 10k-run
two-processor Monte-Carlo batch in three configurations —

* no sinks (the disabled path; must stay within ~3% of the seed
  kernel, enforced across versions via ``BENCH_observability.json``),
* with a :class:`MetricsRegistry` attached (streaming aggregation),
* with a :class:`JsonlJournal` attached (streaming serialization + IO),

asserts the *enabled* paths stay within generous in-process budgets
(they share a machine with the baseline, so ratios are robust where
absolute times are not), and emits a machine-readable record through
``analysis.reporting`` so future PRs have a perf trajectory to compare
against.
"""

from __future__ import annotations

import time

from conftest import dump_bench
from repro.analysis.reporting import record_batch
from repro.core.two_process import TwoProcessProtocol
from repro.obs import JsonlJournal, MetricsRegistry
from repro.sched.simple import RandomScheduler
from repro.sim.runner import ExperimentRunner

N_RUNS = 10_000
MAX_STEPS = 4_000
# Enabled-path budgets: ratios over the no-sink baseline.  Observed
# and sink-free runs take the same kernel loop (``Simulation._run_fast``,
# see docs/PERFORMANCE.md).  A journal is a per-step sink and adds its
# emissions; a MetricsRegistry is a run-tally sink, so the loop counts
# in locals and folds the counts into it once per run instead of
# calling it per step (docs/OBSERVABILITY.md, "The sink contract").
# The budgets were set when observed runs still took a separate,
# slower step loop (metrics ~1.8x, journal ~2.8x on the reference
# machine), so they leave headroom for noisy CI hosts while still
# catching a hot-path regression (e.g. an accidental allocation per
# event).
METRICS_BUDGET = 3.5
JOURNAL_BUDGET = 7.0

def make_runner(seed=2025, sinks=()):
    return ExperimentRunner(
        protocol_factory=lambda: TwoProcessProtocol(),
        scheduler_factory=lambda rng: RandomScheduler(rng),
        inputs_factory=lambda i, rng: ("a", "b"),
        seed=seed,
        sinks=sinks,
    )


def timed_batch(sinks=()):
    runner = make_runner(sinks=sinks)
    t0 = time.perf_counter()
    stats = runner.run_many(N_RUNS, max_steps=MAX_STEPS)
    return time.perf_counter() - t0, stats


def test_bench_observability_overhead(benchmark, report, tmp_path):
    make_runner().run_many(500, max_steps=MAX_STEPS)  # warmup

    measured = {}

    def run_all():
        out = {}
        out["no sinks (disabled path)"] = timed_batch()
        out["metrics registry"] = timed_batch(sinks=(MetricsRegistry(),))
        journal = JsonlJournal(str(tmp_path / "bench.jsonl"))
        out["jsonl journal"] = timed_batch(sinks=(journal,))
        journal.close()
        return out

    measured = benchmark.pedantic(run_all, rounds=1, iterations=1)

    t_base, stats_base = measured["no sinks (disabled path)"]
    t_metrics, stats_metrics = measured["metrics registry"]
    t_journal, _ = measured["jsonl journal"]
    total_steps = sum(r.total_steps for r in stats_base.runs)

    rows = []
    for label, (t, stats) in measured.items():
        rows.append((label, f"{t:.3f}s", f"{total_steps / t:,.0f}",
                     f"{t / t_base:.2f}x"))
        assert stats.completion_rate == 1.0
        assert stats.n_consistency_violations == 0

    report.add_table(
        "E-obs: kernel observability overhead, 10k-run two-processor batch",
        header=("configuration", "wall time", "steps/s", "vs disabled"),
        rows=rows,
        note=("The disabled path adds one dispatch check per step over "
              "the seed kernel\n(A/B-measured at ~1%, see "
              "docs/OBSERVABILITY.md); enabled paths must stay\nwithin "
              f"{METRICS_BUDGET:.0f}x (metrics) / {JOURNAL_BUDGET:.0f}x "
              "(journal) of it."),
    )

    # Sinks must not perturb results — identical seeds, identical runs.
    assert ([r.decisions for r in stats_base.runs]
            == [r.decisions for r in stats_metrics.runs])
    assert t_metrics / t_base < METRICS_BUDGET
    assert t_journal / t_base < JOURNAL_BUDGET

    # The metrics batch carries the aggregates the acceptance criteria
    # name: percentile steps-to-decide and coin-flip histograms.
    reg = stats_metrics.metrics
    assert reg.histograms["steps_to_decide"].p99 >= 1
    assert reg.histograms["coin_flips_per_decision"].total == 2 * N_RUNS

    # Machine-readable perf trajectory for future PRs.
    record = record_batch(
        experiment="observability_overhead",
        protocol="two",
        scheduler="random",
        inputs="a,b",
        seed=2025,
        stats=stats_metrics,
    )
    record.metrics["timing"] = {
        "n_runs": N_RUNS,
        "total_steps": total_steps,
        "seconds_no_sink": t_base,
        "seconds_metrics": t_metrics,
        "seconds_journal": t_journal,
        "steps_per_second_no_sink": total_steps / t_base,
        "metrics_overhead_ratio": t_metrics / t_base,
        "journal_overhead_ratio": t_journal / t_base,
    }
    dump_bench([record], "observability")
