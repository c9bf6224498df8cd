"""Kernel-level observability: hooks, metrics, journals, and profiling.

The simulation kernel serializes an asynchronous execution into a single
global order of register operations.  Everything the paper quantifies —
steps-to-decide distributions (Theorem 7's tail), coin flips per
decision, the ``num``-field depth of the three-processor protocol
(Theorem 9's (3/4)^k envelope) — is a function of that event stream.

This subpackage makes the stream first-class without making the kernel
slow or memory-hungry:

* :mod:`repro.obs.hooks` — the event protocol (:class:`BaseSink`),
  the fan-out hub (:class:`ObsHub`) the kernel drives, and the
  :class:`RunTally` that run-tally sinks take instead of per-step
  events.  With no sinks attached the kernel keeps a ``None`` hub and
  pays only a few flag tests per step.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, a sink holding
  counters, gauges, and integer histograms (p50/p90/p99) that
  aggregates cheaply across millions of steps and thousands of runs.
* :mod:`repro.obs.journal` — :class:`JsonlJournal`, a streaming sink
  writing one bounded JSON record per event; a journal can be replayed
  back into a fresh :class:`MetricsRegistry` to reproduce the exact
  metrics of the live run.
* :mod:`repro.obs.tracing` — :class:`Tracer`, an OpenTelemetry-shaped
  span sink whose trace/span ids derive deterministically from the
  run's replay key, so a replay produces the identical trace.
* :mod:`repro.obs.telemetry` — per-shard heartbeats for live batch
  progress (``repro top``); wall-clock only, never part of results.
* :mod:`repro.obs.profiling` — :class:`TimeAttributionProfiler`, a
  run-level timing sink: each run's wall time split into its ``setup``
  and ``loop`` layers, for folded-stack flamegraphs.
* :mod:`repro.obs.export` — Prometheus text, OTLP-style JSON, and
  folded-stack emitters (with strict round-trip parsers).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.obs.hooks": ("BaseSink", "ObsHub", "RunTally"),
    "repro.obs.metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "repro.obs.journal": ("JsonlJournal", "JournalVerdict",
                          "concatenate_journals", "iter_events",
                          "iter_spans", "replay_journal", "verify_journal"),
    "repro.obs.tracing": ("Span", "Tracer", "trace_id_for", "span_id_for",
                          "render_span_tree"),
    "repro.obs.telemetry": ("Heartbeat", "TelemetryEmitter",
                            "read_telemetry", "render_top"),
    "repro.obs.profiling": ("TimeAttributionProfiler", "profile_matrix"),
    "repro.obs.export": ("folded_stacks", "otlp_json", "parse_folded",
                         "parse_prometheus", "prometheus_text"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
