"""Shard planning, execution and the deterministic merge.

Every sweep is a list of contiguous shards of run indices
(:func:`plan_shards`).  A shard runs on one runner, observed by its own
:class:`~repro.obs.metrics.MetricsRegistry` and, when asked, its own
journal shard (:func:`execute_shard`), and the shards merge back in
shard order (:func:`merge_shards`): run stats concatenate, registries
fold via :meth:`~repro.obs.metrics.MetricsRegistry.merge`, and journal
shards are stitched under one header.

These are the pieces :func:`repro.parallel.engine.run_parallel` plans,
executes and merges every sweep with.  A serial sweep with no store, no
supervision and no fault plan needs nothing else, so
:func:`run_in_process` runs it with them alone and loads neither the
worker pool nor the supervisor (docs/PERFORMANCE.md, "Start-up").
"""

from __future__ import annotations

import math
import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union


class ShardResult:
    """What a shard hands back: per-run stats plus shard aggregates."""

    __slots__ = ("start", "stop", "runs", "metrics", "journal_events")

    def __init__(self, start: int, stop: int, runs: List, metrics,
                 journal_events: int = 0) -> None:
        self.start = start
        self.stop = stop
        self.runs = runs
        self.metrics = metrics
        self.journal_events = journal_events


def plan_shards(n_runs: int, workers: int,
                shard_size: Optional[int] = None) -> List[Tuple[int, int]]:
    """Partition ``[0, n_runs)`` into contiguous ``(start, stop)`` shards.

    The default shard size is ``ceil(n_runs / workers)`` — one shard
    per worker, the lowest-overhead choice for uniform runs.  Pass a
    smaller ``shard_size`` when per-run cost varies (adversarial
    schedulers, mixed inputs) so idle workers can load-balance; results
    are identical either way.
    """
    if n_runs < 0:
        raise ValueError(f"n_runs must be >= 0, got {n_runs}")
    if shard_size is None:
        shard_size = max(1, math.ceil(n_runs / max(1, workers)))
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return [(start, min(start + shard_size, n_runs))
            for start in range(0, n_runs, shard_size)]


def shard_journal_path(journal_path: str, shard_index: int) -> str:
    """The temporary path shard ``shard_index`` streams its journal to."""
    return f"{journal_path}.shard{shard_index:04d}"


def execute_shard(runner, start: int, stop: int, max_steps: int,
                  with_metrics: bool, journal_path: Optional[str] = None,
                  memory: str = "atomic", shard_index: int = 0,
                  sinks: Sequence = (),
                  beat: Optional[Callable[[Dict[str, Any]], None]] = None
                  ) -> ShardResult:
    """Run shard ``[start, stop)`` on ``runner`` with its private sinks.

    ``sinks`` are extra observers (the caller's own, in-process);
    ``beat``, when given, receives the shard's heartbeat dicts.  This
    is the body of every shard, in-process or in a worker.
    """
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry() if with_metrics else None
    journal = None
    if journal_path is not None:
        from repro.obs.journal import JsonlJournal

        journal = JsonlJournal(journal_path, memory=memory)
    shard_sinks = tuple(sinks) + tuple(
        s for s in (registry, journal) if s is not None)
    emitter = None
    if beat is not None:
        from repro.obs.telemetry import TelemetryEmitter

        emitter = TelemetryEmitter(shard_index, stop - start, beat)
    runs = runner.run_range(start, stop, max_steps, sinks=shard_sinks,
                            emitter=emitter)
    if emitter is not None:
        emitter.finish()
    events = 0
    if journal is not None:
        events = journal.events_written
        journal.close()
    return ShardResult(start, stop, runs, registry, events)


def merge_shards(results: Sequence[ShardResult], registry,
                 journal_path: Optional[str] = None,
                 journal_parts: Sequence[Union[str, bytes]] = (),
                 stitch: bool = True) -> Tuple[List, Optional[int]]:
    """Merge shard results, in shard order, into ``(runs,
    journal_events)``.

    ``registry`` (when not ``None``) receives every shard's registry.
    ``journal_parts`` are the shard journals to stitch into
    ``journal_path``: files, removed once stitched, or a stored shard's
    bytes; a lone file is renamed into place.  ``stitch=False`` writes
    no journal (every shard was quarantined).
    """
    runs = [r for shard in results for r in shard.runs]
    if registry is not None:
        for shard in results:
            registry.merge(shard.metrics)
    journal_events: Optional[int] = None
    if journal_path is not None and stitch:
        from repro.obs.journal import adopt_journal, concatenate_journals

        if len(journal_parts) == 1 and isinstance(journal_parts[0], str):
            # One executed shard: its journal is the batch's journal.
            adopt_journal(journal_parts[0], journal_path)
            journal_events = results[0].journal_events
        else:
            journal_events = concatenate_journals(journal_parts,
                                                  journal_path)
            for part in journal_parts:
                if isinstance(part, str):
                    os.remove(part)
    return runs, journal_events


def run_in_process(runner, n_runs: int, max_steps: int,
                   shard_size: Optional[int] = None,
                   journal_path: Optional[str] = None,
                   telemetry_path: Optional[str] = None,
                   registry=None):
    """A serial sweep on ``runner``: its shards in this process, in
    order, observed by the runner's sinks, with the merge of
    :func:`repro.parallel.engine.run_parallel` (same stats, registry
    and journal bytes at any ``shard_size``)."""
    from repro.sim.runner import BatchStats

    sinks = tuple(s for s in runner.sinks if s is not registry)
    memory = runner.memory.name
    shards = plan_shards(n_runs, 1, shard_size)
    results: List[ShardResult] = []
    parts: List[Union[str, bytes]] = []
    beat = fh = None
    if telemetry_path is not None:
        from repro.obs.telemetry import file_sink

        fh = open(telemetry_path, "w")
        beat = file_sink(fh)
    try:
        for k, (start, stop) in enumerate(shards):
            part = (shard_journal_path(journal_path, k)
                    if journal_path is not None else None)
            results.append(execute_shard(
                runner, start, stop, max_steps, registry is not None,
                part, memory, k, sinks, beat))
            if part is not None:
                parts.append(part)
    finally:
        if fh is not None:
            fh.close()
    runs, events = merge_shards(results, registry, journal_path, parts)
    return BatchStats(runs=runs, max_steps=max_steps, metrics=registry,
                      journal_path=journal_path, journal_events=events)
