"""Streaming JSONL run journal.

``record_trace=True`` keeps every :class:`StepRecord` in memory — fine
for a 40-step demo, hopeless for a Monte-Carlo batch.  The journal is
the streaming alternative: one bounded JSON object per kernel event,
written to disk as it happens and never retained.  A journal is both a
human-greppable artifact and a replayable one: feeding it back through
:func:`replay_journal` reproduces, event for event, the exact metrics a
live :class:`~repro.obs.metrics.MetricsRegistry` would have collected.

Schema (version 3) — one object per line:

``{"t": "journal", "v": 3, "mem": "atomic"|"regular"|"safe"}``
    header, always the first line; ``mem`` tags the register semantics
    every run in the file executed under (see :mod:`repro.sim.memory`).
``{"t": "run_start", "protocol": str, "n": int, "inputs": [...]}``
``{"t": "step", "i": int, "pid": int, "op": "read"|"write",
  "reg": str, "value": ..., "result": ..., "cf": true?, "alts": int?,
  "dec": ..., "act": int?}``
    one serialized kernel step.  ``value`` only on writes, ``result``
    only on reads; ``cf`` present when the step resolved a coin flip;
    ``alts`` present when a weak-memory read was resolved from a legal
    value set (its size; the chosen value is ``result``);
    ``dec``/``act`` present when the step decided (value + activation).
``{"t": "crash", "i": int, "pid": int}``
``{"t": "run_end", "completed": bool, "steps": int, "consults": int,
  "crashed": [...]}``
``{"t": "span", "trace_id": str, "span_id": str, "parent_id": str?,
  "name": str, "kind": str, "start": int, "end": int, "attrs": {...}?}``
    **optional** (new in v3): one line per finished span when a
    :class:`~repro.obs.tracing.Tracer` is paired with the journal.
    Spans are appended after their run's ``run_end`` line; metric
    replay skips them, :func:`iter_spans` reads them back.

Version 2 (PR 4 through PR 5) is v3 minus the optional ``span`` lines;
version 1 (PR 1 through PR 3) further lacks the header's ``mem`` key
and the ``alts`` step key.  Since atomic semantics never emit ``alts``
and spans are optional, every v1/v2 journal is also a valid v3 event
stream with an older header, and the readers here accept all three
versions.

**Crash safety.**  A path-owning journal streams to ``<path>.tmp`` and
atomically renames it over ``<path>`` on :meth:`close` (after flush and
fsync), so a finished journal is always complete: readers never see a
half-written file under the final name, and a crash leaves at most a
stale ``.tmp``.  :func:`verify_journal` inspects any journal file —
including an orphaned ``.tmp`` — and reports truncated tails and
unterminated runs instead of raising mid-replay.

Values are JSON-encoded structurally where possible: dataclass register
records (e.g. ``PrefNum``) become dicts, so a ``[pref, num]`` record
survives the round trip well enough for the ``num``-depth metrics;
anything else non-serializable falls back to ``repr``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import operator
import os
from typing import (Any, Dict, Hashable, IO, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from repro.obs.hooks import BaseSink
from repro.obs.metrics import MetricsRegistry
from repro.sim.ops import ReadOp, WriteOp

SCHEMA_VERSION = 3

#: Journal versions the readers below understand (v1 = pre-memory-layer
#: files: no "mem" header key, no "alts" step key, atomic by
#: construction; v2 = no optional "span" lines).
SUPPORTED_VERSIONS = (1, 2, 3)


#: Dataclass type -> its field names (``dataclasses.fields`` is slow).
_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _field_names(cls: type) -> Tuple[str, ...]:
    names = _FIELDS.get(cls)
    if names is None:
        names = _FIELDS[cls] = tuple(
            f.name for f in dataclasses.fields(cls))
    return names


def _jsonable(value: Any) -> Any:
    """Best-effort structural JSON encoding of a register value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            name: _jsonable(getattr(value, name))
            for name in _field_names(type(value))
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def _same(a: Any, b: Any) -> bool:
    """Does ``b`` encode exactly as ``a`` does?  ``False`` when unsure.

    Values that compare equal can encode differently (``True``, ``1``
    and ``1.0``; ``0.0`` and ``-0.0``), so types must match at every
    level.  A memo hit needs this; a ``False`` only costs a re-encode.
    """
    if a is b:
        return True
    cls = type(a)
    if cls is not type(b):
        return False
    if cls is str or cls is int or cls is bool:
        return a == b
    if cls is float:
        return repr(a) == repr(b)
    if cls is tuple or cls is list:
        return len(a) == len(b) and all(map(_same, a, b))
    if dataclasses.is_dataclass(cls):
        return all([_same(getattr(a, name), getattr(b, name))
                    for name in _field_names(cls)])
    return False


#: ``json.dumps(obj, separators=(",", ":"), sort_keys=True)``, built
#: once rather than per call.
_dumps = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def step_format(pid: int, op, result: Hashable,
                decided: Optional[Hashable], coin_flip: bool) -> str:
    """The text of one ``step`` line, as a ``%``-format.

    ``step_format(...) % (lead, index)`` is the line ``_dumps`` makes of
    the whole event: every key but the per-step ``i``, ``act`` and
    ``alts`` is placed here in sorted order, its value encoded by
    ``_jsonable`` and ``_dumps``, and ``lead`` is the ``"act":A,`` /
    ``"alts":N,`` text that sorts ahead of all of them (empty on most
    steps).  Both journal feeds — :meth:`JsonlJournal.on_step` and the
    memoized :meth:`JsonlJournal.on_transition` — encode steps here.
    """
    # "cf" < "dec" < "i" < "op" < every key of ``tail``.
    head = '"cf":true,' if coin_flip else ""
    if decided is not None:
        head += '"dec":' + _dumps(_jsonable(decided)) + ","
    tail: Dict[str, Any] = {"t": "step", "pid": pid}
    if isinstance(op, ReadOp):
        tail["op"] = "read"
        tail["reg"] = op.register
        tail["result"] = _jsonable(result)
    elif isinstance(op, WriteOp):
        tail["op"] = "write"
        tail["reg"] = op.register
        tail["value"] = _jsonable(op.value)
    else:  # pragma: no cover - no third op kind exists
        tail["op"] = repr(op)
    return ("{%s" + head.replace("%", "%%") + '"i":%d,'
            + _dumps(tail)[1:].replace("%", "%%") + "\n")


class JsonlJournal(BaseSink):
    """Kernel sink streaming one JSON line per event to a file.

    Parameters
    ----------
    target:
        A path to open (truncating) or an already-open text file
        object.  When given a path the journal owns the handle, streams
        to ``<path>.tmp``, and :meth:`close` fsyncs and atomically
        renames the finished file over ``<path>`` — so the final name
        only ever holds a complete journal.  A passed-in file object
        stays the caller's responsibility (no rename).
    flush_every:
        Flush the underlying handle every N events (default 1000), so
        a crash of the *host* process loses a bounded suffix.
    memory:
        Register-semantics tag written into the header (default
        ``"atomic"``); pass the run's :attr:`MemorySpec.name` so
        readers know which semantics produced the event stream.

    The journal never buffers events in Python; memory use is O(1) in
    run length.  One journal may span a whole batch of runs —
    ``run_start`` / ``run_end`` records delimit the runs.

    Under the fast engine the journal is a transition sink
    (:meth:`on_transition`): it encodes each transition outcome's step
    text once, keeps it in the outcome's memo slot, and writes every
    later step through that outcome with one ``%`` format.  Other
    engines feed it per-step events, encoded through the same
    :func:`step_format`.
    """

    def __init__(self, target: Union[str, IO[str]],
                 flush_every: int = 1000,
                 memory: str = "atomic") -> None:
        if isinstance(target, str):
            self.path: Optional[str] = target
            self._tmp_path: Optional[str] = target + ".tmp"
            self._fh: IO[str] = open(self._tmp_path, "w")
            self._owns_fh = True
        else:
            self.path = None
            self._tmp_path = None
            self._fh = target
            self._owns_fh = False
        self._closed = False
        self._flush_every = max(1, flush_every)
        self._flush_at = self._flush_every
        self.events_written = 0
        self.memory = memory
        # The in-flight step's per-step keys: "alts" (a weak-memory
        # read's fan-out) and, fed per-step events, "cf", "dec", "act".
        self._pending: Dict[str, Any] = {}
        # (protocol, n, inputs, line) of the last run_start written.
        self._start: Optional[tuple] = None
        self._write({"t": "journal", "v": SCHEMA_VERSION, "mem": memory})

    # -- plumbing ------------------------------------------------------

    def _put(self, line: str) -> None:
        self._fh.write(line)
        self.events_written += 1
        if self.events_written >= self._flush_at:
            self._flush()

    def _flush(self) -> None:
        self._fh.flush()
        self._flush_at = self.events_written + self._flush_every

    def _write(self, obj: Dict[str, Any]) -> None:
        self._put(_dumps(obj) + "\n")

    def _lead(self, activation: Optional[int]) -> str:
        """The ``"act"`` / ``"alts"`` text of the in-flight step; clears
        the step's pending keys."""
        lead = "" if activation is None else '"act":%d,' % activation
        alts = self._pending.get("alts")
        if alts is not None:
            lead += '"alts":%d,' % alts
        self._pending = {}
        return lead

    def close(self) -> None:
        """Finalize the journal.

        Owned files are flushed, fsynced, closed, and atomically
        renamed from ``<path>.tmp`` to ``<path>`` — the journal appears
        under its final name all at once, complete.  Borrowed file
        objects are only flushed.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self._fh.flush()
        if self._owns_fh:
            try:
                os.fsync(self._fh.fileno())
            except OSError:  # pragma: no cover - non-file targets
                pass
            self._fh.close()
            os.replace(self._tmp_path, self.path)

    def append_spans(self, spans: Sequence) -> None:
        """Write finished :class:`~repro.obs.tracing.Span` records.

        One ``{"t": "span", ...}`` line per span — the v3 optional
        spans section.  Called by a :class:`~repro.obs.tracing.Tracer`
        constructed with ``journal=`` at each run's end.
        """
        for span in spans:
            event = {"t": "span"}
            event.update(span.to_dict())
            self._write(event)

    def __enter__(self) -> "JsonlJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- kernel sink protocol -----------------------------------------

    def on_run_start(self, protocol_name: str, n_processes: int,
                     inputs: Tuple[Hashable, ...]) -> None:
        # A batch repeats its inputs; equal inputs of another type (1
        # for True) encode otherwise, so the elements must be identical.
        last = self._start
        if last is None or last[0] != protocol_name \
                or last[1] != n_processes or len(last[2]) != len(inputs) \
                or not all(map(operator.is_, last[2], inputs)):
            last = self._start = (protocol_name, n_processes, inputs, _dumps({
                "t": "run_start",
                "protocol": protocol_name,
                "n": n_processes,
                "inputs": [_jsonable(v) for v in inputs],
            }) + "\n")
        self._put(last[3])

    def on_coin_flip(self, pid: int, n_branches: int) -> None:
        self._pending["cf"] = True

    def on_read_choices(self, pid: int, register: str, n_choices: int,
                        chosen: Hashable) -> None:
        # The chosen value lands in the step's "result"; only the
        # fan-out size needs recording here.
        self._pending["alts"] = n_choices

    def on_decision(self, pid: int, value: Hashable, activation: int) -> None:
        self._pending["dec"] = value
        self._pending["act"] = activation

    def on_crash(self, pid: int, index: int) -> None:
        self._write({"t": "crash", "i": index, "pid": pid})

    def on_step(self, index: int, pid: int, op, result: Hashable,
                decided: Optional[Hashable]) -> None:
        pending = self._pending
        fmt = step_format(pid, op, result, pending.get("dec"),
                          "cf" in pending)
        self._put(fmt % (self._lead(pending.get("act")), index))

    def on_transition(self, index: int, pid: int, entry, branch: int,
                      result: Hashable, outcome,
                      activation: int) -> None:
        fmt = outcome.memo
        if fmt is None or (outcome.memo_result is not result
                           and not _same(outcome.memo_result, result)):
            # First step through this outcome, or one whose result
            # compares equal but encodes otherwise: encode and memoize.
            fmt = outcome.memo = step_format(
                pid, entry.execs[branch][0], result, outcome.decided,
                entry.weights is not None)
            outcome.memo_result = result
        if outcome.decided is None and not self._pending:
            self._fh.write(fmt % ("", index))
        else:
            self._fh.write(fmt % (self._lead(
                None if outcome.decided is None else activation), index))
        self.events_written += 1
        if self.events_written >= self._flush_at:
            self._flush()

    def on_run_end(self, result) -> None:
        self._put(
            '{"completed":%s,"consults":%d,"crashed":[%s],"steps":%d,'
            '"t":"run_end"}\n' % (
                "true" if result.completed else "false",
                getattr(result, "sched_consults", 0),
                ",".join(map(str, sorted(result.crashed))),
                result.total_steps))
        self._flush()


# -- shard concatenation ----------------------------------------------


def concatenate_journals(shards: Sequence[Union[str, bytes]],
                         out_path: str) -> int:
    """Concatenate journal shards into one journal with a single header.

    Used by the parallel batch engine: each worker streams its shard of
    runs to its own journal file, and this stitches the shards back
    together in shard order — which is global run order, because shards
    are contiguous index ranges.  A shard is a path, or the bytes of a
    complete shard journal (a stored shard's payload).  Every shard's
    header line is validated (and dropped, except that ``out_path``
    gets one fresh header), and the rest of each shard is copied
    verbatim in bulk, so the result is byte-identical to the journal a
    serial run over the same index range would have written.

    Returns the total line count of ``out_path`` (header included),
    matching the ``events_written`` a live :class:`JsonlJournal` would
    report for the same stream.  The count is of newlines:
    :class:`JsonlJournal` ends every event with one and never writes a
    blank line.

    Every shard must carry the *same* header (version and memory-
    semantics tag): shards of one batch all ran under one
    :class:`~repro.sim.memory.MemorySpec`, and mixing semantics in one
    file would make the header lie about its events.
    """
    events = 0
    expected_header: Optional[Dict[str, Any]] = None
    tmp_path = out_path + ".tmp"
    with open(tmp_path, "wb") as out:
        for k, shard in enumerate(shards):
            if isinstance(shard, bytes):
                name = f"stored shard {k}"
                fh: IO[bytes] = io.BytesIO(shard)
            else:
                name = shard
                fh = open(shard, "rb")
            with fh:
                header = _shard_header(name, fh.readline())
                if expected_header is None:
                    expected_header = header
                    out.write(_dumps(header).encode() + b"\n")
                    events += 1
                elif header != expected_header:
                    raise ValueError(
                        f"{name}: shard header {header!r} differs from "
                        f"{expected_header!r}; shards of one batch must "
                        f"share version and memory semantics"
                    )
                while True:
                    chunk = fh.read(1 << 20)
                    if not chunk:
                        break
                    out.write(chunk)
                    events += chunk.count(b"\n")
        if expected_header is None:
            # No shards: an empty batch still yields a valid journal.
            out.write(_dumps({"t": "journal", "v": SCHEMA_VERSION,
                              "mem": "atomic"}).encode() + b"\n")
            events += 1
        out.flush()
        os.fsync(out.fileno())
    # Same finalization contract as JsonlJournal.close: the stitched
    # journal appears under its final name complete or not at all.
    os.replace(tmp_path, out_path)
    return events


def _shard_header(name: str, first: bytes) -> Dict[str, Any]:
    """A journal shard's header line, parsed and checked."""
    if not first:
        raise ValueError(f"{name}: empty journal shard")
    header = json.loads(first)
    if header.get("t") != "journal":
        raise ValueError(f"{name}: missing journal header line")
    if header.get("v") not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"{name}: unsupported journal version {header.get('v')!r}")
    return header


def adopt_journal(shard: str, out_path: str) -> None:
    """Move a lone journal shard into place as ``out_path``.

    The one-shard case of :func:`concatenate_journals` without the
    copy: the shard's header is checked the same way, and the shard is
    fsynced and renamed.  A :class:`JsonlJournal` shard already starts
    with the header concatenation would write, so the bytes are the
    same.
    """
    with open(shard, "rb") as fh:
        _shard_header(shard, fh.readline())
        os.fsync(fh.fileno())
    os.replace(shard, out_path)


# -- reading and replay -----------------------------------------------


def iter_events(path: str) -> Iterator[Dict[str, Any]]:
    """Yield the journal's event dicts (header validated and skipped)."""
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty journal")
        header = json.loads(first)
        if header.get("t") != "journal":
            raise ValueError(f"{path}: missing journal header line")
        if header.get("v") not in SUPPORTED_VERSIONS:
            raise ValueError(
                f"{path}: unsupported journal version {header.get('v')!r}"
            )
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


@dataclasses.dataclass
class _ReplayRunEnd:
    """Shim giving run_end events the RunResult attributes sinks read."""

    completed: bool
    total_steps: int
    sched_consults: int
    crashed: frozenset


def replay_journal(path: str,
                   registry: Optional[MetricsRegistry] = None
                   ) -> MetricsRegistry:
    """Replay a journal's event stream into a metrics registry.

    The events are dispatched through the registry's per-step sink
    methods, so the resulting registry's snapshot matches the live one
    exactly, whether the live registry took events (reference engine)
    or run tallies (fast engine).  Only the order of events differs:
    the journal stores consultations per run, so replay delivers a
    run's ``sched`` events together, before its ``run_end``.
    """
    reg = registry if registry is not None else MetricsRegistry()
    for event in iter_events(path):
        kind = event["t"]
        if kind == "run_start":
            reg.on_run_start(event["protocol"], event["n"],
                             tuple(event["inputs"]))
        elif kind == "step":
            pid = event["pid"]
            if event.get("cf"):
                reg.on_coin_flip(pid, 2)
            if event["op"] == "read":
                if "alts" in event:
                    reg.on_read_choices(pid, event["reg"], event["alts"],
                                        event.get("result"))
                reg.on_read(pid, event["reg"], event.get("result"))
            else:
                reg.on_write(pid, event["reg"], event.get("value"))
            if "dec" in event:
                reg.on_decision(pid, event["dec"], event["act"])
            reg.on_step(event["i"], pid, None, event.get("result"),
                        event.get("dec"))
        elif kind == "crash":
            reg.on_crash(event["pid"], event["i"])
        elif kind == "run_end":
            consults = event.get("consults", 0)
            for i in range(consults):
                reg.on_sched(i + 1)
            reg.on_run_end(_ReplayRunEnd(
                completed=event["completed"],
                total_steps=event["steps"],
                sched_consults=consults,
                crashed=frozenset(event.get("crashed", ())),
            ))
        elif kind == "span":
            # v3 optional spans section: identity/timing metadata, not
            # kernel events — metric replay skips them (iter_spans
            # reads them back).
            continue
        else:
            raise ValueError(f"unknown journal event type {kind!r}")
    return reg


def iter_spans(path: str) -> Iterator[Dict[str, Any]]:
    """Yield the journal's ``span`` records (v3 optional section)."""
    for event in iter_events(path):
        if event.get("t") == "span":
            yield event


# -- integrity verification -------------------------------------------


@dataclasses.dataclass
class JournalVerdict:
    """What :func:`verify_journal` found.

    ``ok`` means the file is a complete journal: valid header, every
    line parseable, no unterminated run.  A truncated tail (the
    mid-line fragment a crashed writer leaves) sets ``truncated`` and
    counts the preceding good lines; a ``run_start`` with no matching
    ``run_end`` sets ``open_runs``.  ``problems`` collects one
    human-readable line per defect.
    """

    path: str
    ok: bool
    version: Optional[int]
    memory: Optional[str]
    events: int
    runs: int
    spans: int
    open_runs: int
    truncated: bool
    problems: List[str]

    def render(self) -> str:
        status = "OK" if self.ok else "DAMAGED"
        lines = [
            f"{self.path}: {status}",
            f"  version:  {self.version} (mem={self.memory})",
            f"  events:   {self.events} ({self.runs} complete runs, "
            f"{self.spans} spans)",
        ]
        for problem in self.problems:
            lines.append(f"  problem:  {problem}")
        return "\n".join(lines)


def verify_journal(path: str) -> JournalVerdict:
    """Inspect a journal file for truncation and structural damage.

    Unlike :func:`replay_journal` this never raises on a damaged file:
    it reads as far as the bytes allow and reports what it found, so a
    crashed writer's partial output (or an orphaned ``.tmp``) can be
    triaged — and everything before the damage is still known-good.
    """
    problems: List[str] = []
    version: Optional[int] = None
    memory: Optional[str] = None
    events = 0
    runs = 0
    spans = 0
    in_run = False
    open_runs = 0
    truncated = False
    known = {"journal", "run_start", "step", "crash", "run_end", "span"}
    try:
        fh = open(path)
    except OSError as exc:
        return JournalVerdict(
            path=path, ok=False, version=None, memory=None, events=0,
            runs=0, spans=0, open_runs=0, truncated=False,
            problems=[f"unreadable: {exc}"],
        )
    with fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if not line.endswith("\n"):
                # A writer died mid-line: the fragment is not an event.
                truncated = True
                problems.append(
                    f"line {lineno}: truncated tail (no newline)")
                break
            try:
                event = json.loads(stripped)
            except ValueError:
                truncated = True
                problems.append(
                    f"line {lineno}: unparseable JSON tail")
                break
            kind = event.get("t") if isinstance(event, dict) else None
            if lineno == 1:
                if kind != "journal":
                    problems.append("line 1: missing journal header")
                else:
                    version = event.get("v")
                    memory = event.get("mem",
                                       "atomic" if version == 1 else None)
                    if version not in SUPPORTED_VERSIONS:
                        problems.append(
                            f"line 1: unsupported version {version!r}")
                events += 1
                continue
            events += 1
            if kind == "run_start":
                if in_run:
                    open_runs += 1
                    problems.append(
                        f"line {lineno}: run_start inside an open run")
                in_run = True
            elif kind == "run_end":
                if not in_run:
                    problems.append(
                        f"line {lineno}: run_end without run_start")
                else:
                    runs += 1
                in_run = False
            elif kind == "span":
                spans += 1
            elif kind not in known:
                problems.append(
                    f"line {lineno}: unknown event type {kind!r}")
    if events == 0:
        problems.append("empty file")
    if in_run:
        open_runs += 1
        problems.append("unterminated run (run_start without run_end)")
    return JournalVerdict(
        path=path, ok=not problems, version=version, memory=memory,
        events=events, runs=runs, spans=spans, open_runs=open_runs,
        truncated=truncated, problems=problems,
    )
