"""Live sweep telemetry: per-shard heartbeats for long batches.

A 10^5-run adversary sweep sharded over eight workers is silent for
minutes at a time; the only signal used to be the OS process table.
This module gives each shard a pulse.  Workers carry a
:class:`TelemetryEmitter` that observes every finished run and emits a
:class:`Heartbeat` every ~1% of its shard (and once at the end):
runs done, cumulative kernel steps, throughput, an ETA, and a rolling
tail snapshot of the ``run_steps`` distribution (p50/p90/p99/max plus
how many runs arrived since the previous beat).

Transport is deliberately dumb: heartbeats cross process boundaries as
dicts on each worker's pipe to the parent (see
:mod:`repro.parallel.engine`), and the parent appends them to a JSONL
*telemetry file* — which makes the live feed replayable, greppable,
and consumable by the ``repro top`` follower (:func:`render_top`)
from another terminal while the sweep is still running.

Heartbeats are observability, not science: they carry wall-clock
rates, so two telemetry files from the same seeded sweep differ even
though the sweep's *results* are bit-identical.  Nothing here feeds
back into the kernel.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.obs.metrics import Histogram


@dataclasses.dataclass
class Heartbeat:
    """One progress pulse from one shard.

    ``tail`` summarizes the shard's ``run_steps`` histogram *so far*:
    ``{"p50", "p90", "p99", "max", "new"}`` where ``new`` counts runs
    folded in since the previous beat (the delta, so a follower can
    spot a stalled shard whose beats still arrive but carry no work).
    ``eta_s`` is ``None`` until the shard has enough signal to
    extrapolate.
    """

    shard: int
    runs_done: int
    runs_total: int
    steps: int
    elapsed_s: float
    steps_per_s: float
    eta_s: Optional[float]
    done: bool
    tail: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Heartbeat":
        return cls(**{f.name: d[f.name]
                      for f in dataclasses.fields(cls)})


class TelemetryEmitter:
    """Per-shard heartbeat source; lives inside the worker.

    ``sink`` is any callable taking a heartbeat *dict* — a send over
    the worker's pipe in sharded sweeps, a file-appender in-process.
    ``every`` is the emission stride in runs (default ~1% of the
    shard, at least 1); the final :meth:`finish` beat always fires, so
    even a tiny shard reports exactly once.
    """

    def __init__(self, shard: int, runs_total: int,
                 sink: Callable[[Dict[str, Any]], None],
                 every: Optional[int] = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.shard = shard
        self.runs_total = runs_total
        self._sink = sink
        self._every = every if every else max(1, runs_total // 100)
        self._clock = clock
        self._t0 = clock()
        self.runs_done = 0
        self.steps = 0
        self._hist = Histogram()
        self._last_beat_runs = 0

    def record_run(self, total_steps: int) -> None:
        """Fold one finished run in; emit on the stride boundary."""
        self.runs_done += 1
        self.steps += total_steps
        self._hist.observe(total_steps)
        if self.runs_done % self._every == 0 \
                and self.runs_done < self.runs_total:
            self._emit(done=False)

    def finish(self) -> None:
        """Emit the shard's final (``done=True``) heartbeat."""
        self._emit(done=True)

    def _emit(self, done: bool) -> None:
        elapsed = max(self._clock() - self._t0, 1e-9)
        rate = self.runs_done / elapsed
        eta = ((self.runs_total - self.runs_done) / rate
               if self.runs_done and not done else None)
        beat = Heartbeat(
            shard=self.shard,
            runs_done=self.runs_done,
            runs_total=self.runs_total,
            steps=self.steps,
            elapsed_s=elapsed,
            steps_per_s=self.steps / elapsed,
            eta_s=eta,
            done=done,
            tail={
                "p50": self._hist.p50,
                "p90": self._hist.p90,
                "p99": self._hist.p99,
                "max": self._hist.maximum,
                "new": self.runs_done - self._last_beat_runs,
            },
        )
        self._last_beat_runs = self.runs_done
        self._sink(beat.to_dict())


def file_sink(fh) -> Callable[[Dict[str, Any]], None]:
    """A heartbeat sink appending JSONL lines to an open file.

    Each line is flushed immediately so a follower tailing the file
    sees beats as they happen, not at buffer boundaries.
    """
    def _append(d: Dict[str, Any]) -> None:
        fh.write(json.dumps(d, sort_keys=True) + "\n")
        fh.flush()
    return _append


def read_telemetry(path: str) -> List[Heartbeat]:
    """Load every complete heartbeat from a telemetry JSONL file.

    A trailing partial line (the emitter mid-write) is skipped, not an
    error — the follower polls files that are still being appended.
    Supervisor event records (``{"kind": ...}`` lines interleaved by
    :mod:`repro.parallel.supervisor`) are skipped, not heartbeats;
    read them with :func:`read_fault_events`.
    """
    beats: List[Heartbeat] = []
    with open(path) as fh:
        for line in fh:
            if not line.endswith("\n"):
                break
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                if isinstance(doc, dict) and "kind" in doc:
                    continue
                beats.append(Heartbeat.from_dict(doc))
            except (ValueError, KeyError, TypeError):
                break
    return beats


def read_fault_events(path: str) -> List[Dict[str, Any]]:
    """Load the supervisor's fault records from a telemetry file.

    The supervisor (:mod:`repro.parallel.supervisor`) interleaves
    ``{"kind": "fault", "shard": ..., "attempt": ..., "fault": ...,
    "action": ...}`` records among the heartbeats.  Same
    partial-trailing-line tolerance as :func:`read_telemetry`.
    """
    events: List[Dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            if not line.endswith("\n"):
                break
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                break
            if isinstance(doc, dict) and doc.get("kind") == "fault":
                events.append(doc)
    return events


def latest_by_shard(beats: Iterable[Heartbeat]) -> Dict[int, Heartbeat]:
    """The most recent heartbeat per shard (file order = time order)."""
    latest: Dict[int, Heartbeat] = {}
    for beat in beats:
        latest[beat.shard] = beat
    return latest


def _fmt_tail(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def _fmt_eta(eta_s: Optional[float]) -> str:
    if eta_s is None:
        return "-"
    if eta_s >= 3600:
        return f"{eta_s / 3600:.1f}h"
    if eta_s >= 60:
        return f"{eta_s / 60:.1f}m"
    return f"{eta_s:.1f}s"


def render_top(beats: Iterable[Heartbeat],
               fault_events: Optional[List[Dict[str, Any]]] = None) -> str:
    """Render the ``repro top`` table: one row per shard plus totals.

    Takes the full beat list (e.g. :func:`read_telemetry` output) and
    shows each shard's latest state — progress, throughput, ETA, and
    the current ``run_steps`` tail — with an aggregate footer.

    ``fault_events`` (e.g. :func:`read_fault_events` output, for
    supervised sweeps) adds a ``faults`` column counting the faults
    each shard absorbed — ``3!`` flags a shard whose latest fault was
    a quarantine.  ``None`` (the default, and any unsupervised sweep)
    renders the classic table unchanged.
    """
    latest = latest_by_shard(beats)
    faults_by_shard: Dict[int, int] = {}
    quarantined: set = set()
    for event in (fault_events or []):
        shard = event.get("shard")
        if not isinstance(shard, int) or shard < 0:
            continue
        faults_by_shard[shard] = faults_by_shard.get(shard, 0) + 1
        if event.get("action") == "quarantine":
            quarantined.add(shard)
    if not latest and not faults_by_shard:
        return "(no heartbeats yet)"
    with_faults = fault_events is not None

    def _fault_cell(shard: int) -> str:
        n = faults_by_shard.get(shard, 0)
        return f"{n}{'!' if shard in quarantined else ''}"

    fault_header = f"  {'faults':>6}" if with_faults else ""
    header = (f"{'shard':>5}  {'runs':>13}  {'%':>5}  {'steps/s':>10}  "
              f"{'eta':>6}  {'p50':>6}  {'p99':>6}  {'max':>6}"
              f"{fault_header}  state")
    lines = [header]
    for shard in sorted(set(latest) | set(faults_by_shard)):
        b = latest.get(shard)
        fault_cell = f"  {_fault_cell(shard):>6}" if with_faults else ""
        if b is None:
            # A shard that faulted before its first heartbeat (e.g.
            # crash-at-start): all progress columns are unknowns.
            lines.append(
                f"{shard:>5}  {'-':>13}  {'-':>5}  {'-':>10}  {'-':>6}  "
                f"{'-':>6}  {'-':>6}  {'-':>6}{fault_cell}  "
                f"{'quarantined' if shard in quarantined else 'faulted'}"
            )
            continue
        pct = 100.0 * b.runs_done / b.runs_total if b.runs_total else 0.0
        tail = b.tail or {}
        state = 'done' if b.done else 'running'
        if shard in quarantined:
            state = 'quarantined'
        lines.append(
            f"{shard:>5}  {b.runs_done:>6}/{b.runs_total:<6}  "
            f"{pct:>5.1f}  {b.steps_per_s:>10.0f}  "
            f"{_fmt_eta(b.eta_s):>6}  "
            f"{_fmt_tail(tail.get('p50')):>6}  "
            f"{_fmt_tail(tail.get('p99')):>6}  "
            f"{_fmt_tail(tail.get('max')):>6}"
            f"{fault_cell}  "
            f"{state}"
        )
    runs_done = sum(b.runs_done for b in latest.values())
    runs_total = sum(b.runs_total for b in latest.values())
    steps = sum(b.steps for b in latest.values())
    rate = sum(b.steps_per_s for b in latest.values() if not b.done)
    all_done = all(b.done for b in latest.values()) if latest else False
    pct = 100.0 * runs_done / runs_total if runs_total else 0.0
    total_faults = sum(faults_by_shard.values())
    fault_cell = f"  {total_faults:>6}" if with_faults else ""
    lines.append(
        f"{'all':>5}  {runs_done:>6}/{runs_total:<6}  {pct:>5.1f}  "
        f"{rate:>10.0f}  {'-':>6}  {'':>6}  {'':>6}  {'':>6}"
        f"{fault_cell}  "
        f"{'done' if all_done else 'running'} "
        f"({steps} steps total)"
    )
    return "\n".join(lines)
