"""Sharded Monte-Carlo batch execution across worker processes.

The paper's quantitative claims — Theorem 7's ≤ (1/4)^(k/2) tail, the
≤ 10 expected-steps corollary, Theorem 9's (3/4)^k num-depth envelope —
are estimated by Monte-Carlo batches, and resolving the deep tails
takes run counts that are slow in a single process.  Runs are
independent experiments keyed by ``derive_seed(root_seed, "run", i)``,
so they shard across processes with bit-identical results:

* :mod:`repro.parallel.engine` — :func:`run_parallel`, the one shard
  executor behind every sweep: it splits the run index range into
  contiguous shards, serves committed ones from the store, executes
  the rest in-process or on at most ``workers`` long-lived, watched
  worker processes (each shard with its own metrics registry /
  journal shard), and deterministically merges everything back into
  one :class:`~repro.sim.runner.BatchStats`.
* :mod:`repro.parallel.supervisor` — the supervision policy:
  :func:`run_supervised` is ``run_parallel`` with a
  :class:`SupervisorPolicy` (deterministic bounded retries, engine
  degradation, quarantine) — same bit-identical merge, plus a
  structured :class:`FaultReport` (see ``docs/ROBUSTNESS.md``).
* :mod:`repro.parallel.tasks` — picklable factory specs
  (:class:`ProtocolSpec`, :class:`SchedulerSpec`,
  :class:`ConstantInputs`) so task descriptions survive the ``spawn``
  boundary.

Most callers never import this package directly: pass ``workers=N``
(and ``supervise=True``) to :meth:`ExperimentRunner.run_many` or
``--workers N`` / ``--supervised`` to ``repro report``.  See
``docs/EXPERIMENTS.md`` for the sharding contract and benchmark
results.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.parallel.engine": (
        "BatchSpec",
        "ShardResult",
        "ShardTask",
        "default_start_method",
        "plan_shards",
        "run_parallel",
        "shard_journal_path",
    ),
    "repro.parallel.supervisor": (
        "DEGRADE_LADDER",
        "FaultEvent",
        "FaultReport",
        "SupervisorError",
        "SupervisorPolicy",
        "run_supervised",
    ),
    "repro.parallel.tasks": (
        "ConstantInputs",
        "ProtocolSpec",
        "SchedulerSpec",
        "PROTOCOL_NAMES",
        "SCHEDULER_NAMES",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
