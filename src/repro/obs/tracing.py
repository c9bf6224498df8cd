"""OpenTelemetry-shaped span tracing for simulation runs.

Metrics (:mod:`repro.obs.metrics`) answer *how much*; spans answer
*where and in what order*.  A span is one timed, named, attributed
interval with a parent — the OpenTelemetry data model — and a run's
spans form a tree: one ``run`` root, one ``sched`` child per scheduler
consultation, one ``step`` child per kernel step, a ``memory.resolve``
child under any step whose weak-memory read the adversary resolved, and
(from the checker) ``checker.explore`` spans around BFS expansions.

Two properties make these traces useful for a *reproduction*:

**Deterministic identity.**  Trace and span ids are derived from the
run's replay key through the same SplitMix64 mixer that seeds the run
itself: ``trace_id = derive_seed(root_seed, "trace", run_index)`` (two
64-bit lanes, 32 hex chars, OTel-sized) and the *n*-th span of a trace
gets ``span_id = derive_seed(trace_seed, "span", n)`` (16 hex chars).
Replaying ``(root_seed, run_index)`` therefore reproduces the exact
same ids — traces can be diffed, cached, and referenced across
machines, which wall-clock-derived ids never allow.

**Deterministic time by default.**  Span ``start``/``end`` are logical
timestamps — the kernel step index at which the interval opened and
closed — so two replays of one seeded run produce byte-identical span
trees.  Pass ``clock=time.perf_counter`` to additionally record wall
durations (``wall_us`` attribute); the ids and logical times stay
deterministic either way.

The tracer is an ordinary :class:`~repro.obs.hooks.BaseSink`: attaching
it turns on the hook emissions of the kernel's one step loop (exactly
like attaching a metrics registry) and **cannot perturb the run** — the
differential suite in ``tests/test_obs_tracing.py`` pins results,
journal bytes, and per-processor RNG draw counts with and without a
tracer attached.  With no tracer (and no other sink) attached the
kernel keeps no hub; tracing costs nothing when off.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.obs.hooks import BaseSink
from repro.sim.ops import ReadOp, WriteOp
from repro.sim.rng import derive_seed


def trace_id_for(root_seed: int, run_index: int) -> str:
    """The 32-hex-char (128-bit) trace id of run ``(root_seed, run_index)``.

    Pure function of the replay key — every component (tracer, CLI,
    exporters, tests) derives the same id independently.
    """
    hi = derive_seed(root_seed, "trace", run_index)
    lo = derive_seed(root_seed, "trace", run_index, 1)
    return f"{hi:016x}{lo:016x}"


def span_id_for(root_seed: int, run_index: int, ordinal: int) -> str:
    """The 16-hex-char id of the ``ordinal``-th span in a run's trace."""
    seed = derive_seed(root_seed, "trace", run_index)
    return f"{derive_seed(seed, 'span', ordinal):016x}"


@dataclasses.dataclass
class Span:
    """One node of a trace tree (OpenTelemetry-shaped).

    ``start`` and ``end`` are logical timestamps: the kernel step index
    when the span opened/closed (scheduler consultations open before
    the step they produce executes, so a ``sched`` span's interval is
    ``[i, i]`` for the step ``i`` it chose).  ``attrs`` holds flat
    JSON-able key/values; wall-clock durations, when a clock was
    supplied, appear there as ``wall_us``.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    kind: str
    start: int
    end: int
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (also the journal's ``span`` event payload)."""
        out: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
        }
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Span":
        return cls(
            trace_id=d["trace_id"],
            span_id=d["span_id"],
            parent_id=d.get("parent_id"),
            name=d["name"],
            kind=d["kind"],
            start=d["start"],
            end=d["end"],
            attrs=dict(d.get("attrs", {})),
        )


class Tracer(BaseSink):
    """Kernel sink building one deterministic span tree per run.

    Parameters
    ----------
    clock:
        Optional callable returning seconds (e.g.
        ``time.perf_counter``).  When given, spans carry a ``wall_us``
        attribute; ids and logical times stay deterministic regardless.
        Default ``None`` keeps traces fully replay-identical.
    max_spans:
        Per-run span budget (OTel-style span limit).  Steps beyond the
        budget are counted, not recorded — ``dropped`` lands on the run
        span's attributes — so tracing an adversarial 100k-step run
        cannot exhaust memory.  The ``run`` root is always kept.
    journal:
        Optional :class:`~repro.obs.journal.JsonlJournal`; each
        finished run's spans are appended to it as ``{"t": "span"}``
        lines (journal schema v3's optional spans section).

    Finished spans accumulate on :attr:`spans` across the tracer's
    lifetime; :meth:`trace` filters one run's tree back out.
    """

    def __init__(self, clock=None, max_spans: int = 4096,
                 journal=None) -> None:
        self.spans: List[Span] = []
        self.dropped = 0
        self._clock = clock
        self._max_spans = max_spans
        self._journal = journal
        # Replay key; refreshed by on_run_key, else synthesized from a
        # sequential run counter so direct Simulation use still traces.
        self._root_seed = 0
        self._run_index = 0
        self._have_key = False
        self._runs_seen = 0
        # Per-run state.
        self._trace_id = ""
        self._ordinal = 0
        self._run_span: Optional[Span] = None
        self._run_dropped = 0
        self._step_index = 0
        self._pending: Dict[str, Any] = {}
        self._pending_children: List[Span] = []
        self._t_run0 = 0.0
        self._t_step0 = 0.0

    # -- identity ------------------------------------------------------

    def _next_span(self, name: str, kind: str, parent: Optional[str],
                   start: int, end: int,
                   attrs: Optional[Dict[str, Any]] = None) -> Span:
        span = Span(
            trace_id=self._trace_id,
            span_id=span_id_for(self._root_seed, self._run_index,
                                self._ordinal),
            parent_id=parent,
            name=name,
            kind=kind,
            start=start,
            end=end,
            attrs=attrs or {},
        )
        self._ordinal += 1
        return span

    def _keep(self, span: Span) -> None:
        # Budget counts per-run spans; the run root is reserved slot 0.
        if self._ordinal - 1 < self._max_spans:
            self.spans.append(span)
        else:
            self._run_dropped += 1

    def _ensure_run(self) -> Span:
        """Open a synthetic run span for runs driven step-by-step.

        Normal runs get their root from ``on_run_start``; direct
        ``sim.step()`` loops never emit it, and the tree still needs a
        root to hang spans off.
        """
        if self._run_span is None:
            self.on_run_start("(unknown)", 0, ())
        return self._run_span

    # -- sink protocol -------------------------------------------------

    def on_run_key(self, root_seed: int, run_index: int) -> None:
        self._root_seed = root_seed
        self._run_index = run_index
        self._have_key = True

    def on_run_start(self, protocol_name: str, n_processes: int,
                     inputs: Tuple[Hashable, ...]) -> None:
        if not self._have_key:
            # Keyless runs (direct Simulation use): synthesize a stable
            # key from the attachment-order run count.
            self._root_seed = 0
            self._run_index = self._runs_seen
        self._have_key = False
        self._runs_seen += 1
        self._trace_id = trace_id_for(self._root_seed, self._run_index)
        self._ordinal = 0
        self._step_index = 0
        self._run_dropped = 0
        self._pending = {}
        self._pending_children = []
        run_span = self._next_span(
            "run", "run", None, 0, 0,
            attrs={
                "protocol": protocol_name,
                "n": n_processes,
                "root_seed": self._root_seed,
                "run_index": self._run_index,
            },
        )
        self._run_span = run_span
        self.spans.append(run_span)
        if self._clock is not None:
            self._t_run0 = self._clock()

    def on_sched(self, consults: int) -> None:
        span = self._next_span(
            "sched", "sched", self._ensure_run().span_id,
            self._step_index, self._step_index,
            attrs={"consult": consults},
        )
        self._keep(span)
        if self._clock is not None:
            self._t_step0 = self._clock()

    def on_coin_flip(self, pid: int, n_branches: int) -> None:
        self._pending["coin_branches"] = n_branches

    def on_read_choices(self, pid: int, register: str, n_choices: int,
                        chosen: Hashable) -> None:
        # Child of the step span being assembled; parent id is the
        # *next* ordinal's id only after the step closes, so buffer it
        # and fix the parent when the step span materializes.
        span = self._next_span(
            "memory.resolve", "memory", None,
            self._step_index, self._step_index,
            attrs={"register": register, "choices": n_choices,
                   "pid": pid},
        )
        self._pending_children.append(span)

    def on_read(self, pid: int, register: str, value: Hashable) -> None:
        self._pending["op"] = "read"
        self._pending["register"] = register

    def on_write(self, pid: int, register: str, value: Hashable) -> None:
        self._pending["op"] = "write"
        self._pending["register"] = register

    def on_decision(self, pid: int, value: Hashable, activation: int) -> None:
        self._pending["decided"] = True
        self._pending["activation"] = activation

    def on_crash(self, pid: int, index: int) -> None:
        span = self._next_span(
            "crash", "sched", self._ensure_run().span_id, index, index,
            attrs={"pid": pid},
        )
        self._keep(span)

    def on_step(self, index: int, pid: int, op, result: Hashable,
                decided: Optional[Hashable]) -> None:
        attrs: Dict[str, Any] = {"pid": pid}
        attrs.update(self._pending)
        if "op" not in attrs:
            # Defensive: classify from the op object if read/write
            # hooks were not seen (custom replay paths).
            if isinstance(op, ReadOp):
                attrs["op"] = "read"
            elif isinstance(op, WriteOp):
                attrs["op"] = "write"
        if self._clock is not None:
            attrs["wall_us"] = (self._clock() - self._t_step0) * 1e6
        span = self._next_span("step", "step", self._ensure_run().span_id,
                               index, index + 1, attrs)
        self._pending = {}
        for child in self._pending_children:
            child.parent_id = span.span_id
            self._keep(child)
        self._pending_children = []
        self._keep(span)
        self._step_index = index + 1

    def on_run_end(self, result) -> None:
        run_span = self._run_span
        if run_span is None:  # pragma: no cover - defensive
            return
        run_span.end = result.total_steps
        run_span.attrs["completed"] = bool(result.completed)
        run_span.attrs["consults"] = result.sched_consults
        run_span.attrs["memory"] = getattr(result, "memory", "atomic")
        if self._run_dropped:
            run_span.attrs["dropped"] = self._run_dropped
            self.dropped += self._run_dropped
        if self._clock is not None:
            run_span.attrs["wall_us"] = (self._clock() - self._t_run0) * 1e6
        if self._journal is not None:
            start = len(self.spans)
            while start and self.spans[start - 1].trace_id \
                    == run_span.trace_id:
                start -= 1
            self._journal.append_spans(self.spans[start:])
        self._run_span = None

    # -- non-kernel spans ----------------------------------------------

    def record_explore(self, protocol_name: str, n_configs: int,
                       n_edges: int, depth: int, complete: bool,
                       seconds: Optional[float] = None,
                       n_frontier: Optional[int] = None) -> Span:
        """Record a ``checker.explore`` span for one BFS exploration.

        The checker is not a kernel run, so this span is its trace's
        root; logical time is the BFS depth reached (``[0..depth)``).
        Identity follows the same key rules as runs: a preceding
        ``on_run_key`` pins the trace id, otherwise one is synthesized
        from the tracer's sequential counter.  ``seconds`` (measured by
        the caller) lands as ``wall_us`` only when the tracer was built
        with a clock, keeping default traces replay-identical.
        ``n_frontier`` is the number of unexpanded configurations left
        behind by a budget-truncated search (0 when exhaustive).
        """
        if not self._have_key:
            self._root_seed = 0
            self._run_index = self._runs_seen
        self._have_key = False
        self._runs_seen += 1
        self._trace_id = trace_id_for(self._root_seed, self._run_index)
        self._ordinal = 0
        attrs: Dict[str, Any] = {
            "protocol": protocol_name,
            "configs": n_configs,
            "visited": n_configs,
            "edges": n_edges,
            "complete": complete,
        }
        if n_frontier is not None:
            attrs["frontier"] = n_frontier
        if self._clock is not None and seconds is not None:
            attrs["wall_us"] = seconds * 1e6
        span = self._next_span("checker.explore", "checker", None,
                               0, depth, attrs)
        self.spans.append(span)
        return span

    # -- queries -------------------------------------------------------

    def trace(self, trace_id: Optional[str] = None) -> List[Span]:
        """Spans of one trace (default: the most recent run's)."""
        if trace_id is None:
            if not self.spans:
                return []
            trace_id = self.spans[-1].trace_id
        return [s for s in self.spans if s.trace_id == trace_id]


def render_span_tree(spans: List[Span]) -> str:
    """Indented tree view of one trace's spans.

    Children print under their parents in span order; logical times
    show as ``[start..end)`` step intervals; attributes append in
    ``key=value`` form.  Works on live :class:`Span` objects and on
    spans re-read from a journal (:func:`Span.from_dict`).
    """
    if not spans:
        return "(no spans)"
    by_parent: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent_id, []).append(span)
    ids = {s.span_id for s in spans}
    lines: List[str] = []

    def emit(span: Span, depth: int) -> None:
        attrs = " ".join(
            f"{k}={v}" for k, v in sorted(span.attrs.items())
        )
        lines.append(
            f"{'  ' * depth}{span.name} [{span.start}..{span.end}) "
            f"#{span.span_id[:8]}" + (f"  {attrs}" if attrs else "")
        )
        for child in by_parent.get(span.span_id, ()):
            emit(child, depth + 1)

    # Roots: no parent, or parent outside this span set (pruned trees).
    roots = [s for s in spans
             if s.parent_id is None or s.parent_id not in ids]
    for root in roots:
        emit(root, 0)
    return "\n".join(lines)
