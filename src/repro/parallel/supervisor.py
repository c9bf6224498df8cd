"""Fault-tolerant shard supervision for Monte-Carlo sweeps.

Every sweep runs on one executor, :func:`repro.parallel.engine.
run_parallel`.  This module holds what makes a sweep *supervised* —
the :class:`SupervisorPolicy`, the :class:`FaultReport` it returns and
:func:`run_supervised`, the public name for "``run_parallel`` with a
policy".  A supervised sweep has the same sharding, the same merge and
the same bit-identical results as an unsupervised one, but its shards
always run on watched worker processes (even at ``workers=1``) with

* a **watchdog**: a shard that exceeds ``policy.shard_timeout`` has
  its worker killed and replaced, and counts as a fault;
* **crash detection**: a worker that dies without reporting (OOM kill,
  ``os._exit``, segfault) is detected by pipe EOF + exitcode and
  replaced; one that raises reports the exception and is retired;
* **bounded retries** with deterministic, jitter-free exponential
  backoff (``min(cap, base · 2^(n-1))`` — replayable, unlike the
  usual randomized backoff);
* **graceful degradation** (``on_fault="degrade"``): a shard that
  keeps faulting on ``engine="vector"`` retries on ``fast``, then
  ``reference``.  Results stay bit-identical because the engines are
  differentially verified (docs/IR.md §5) and the shard commits under
  the *original* spec's content address;
* **quarantine**: a shard that fails ``max_retries`` times is set
  aside and the sweep *completes*, returning a structured
  :class:`FaultReport` naming the exact unfinished index ranges
  instead of dying at 99%.

Unsupervised sweeps whose shards leave the process run under
``on_fault="fail"``: the first fault raises :class:`SupervisorError`
naming the shard's run range and the cause.

The determinism-under-faults contract (docs/ROBUSTNESS.md): every run
is a pure function of ``(root_seed, run_index)``, so however many
crashes, hangs, retries, degradations, or healed shard files a sweep
survives, the merged ``RunStats`` list, metrics snapshot, and journal
bytes are bit-identical to the fault-free serial run.  Fault
*observability* therefore lives outside the deterministic artifacts:
events stream to the telemetry file (already wall-clock-stamped and
non-deterministic by design) as ``{"kind": "fault", ...}`` records,
and the aggregate :class:`FaultReport` rides on ``BatchStats.faults``.

Fault injection for tests comes from :mod:`repro.faults` — pass a
:class:`~repro.faults.FaultPlan` and the executor injects worker
crashes, raised exceptions, hangs, slow shards, failed commits, and
at-rest corruption at exact ``(shard, attempt)`` coordinates,
replayably.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

#: Engine step-down order for ``on_fault="degrade"``: a shard faulting
#: on one rung retries on the next.  All rungs are differentially
#: verified bit-identical (tests/test_differential.py, docs/IR.md §5),
#: so degradation trades speed for robustness, never results.
DEGRADE_LADDER = ("vector", "fast", "reference")

#: Recognized ``on_fault`` policies.
ON_FAULT_MODES = ("retry", "degrade", "quarantine", "fail")


class SupervisorError(RuntimeError):
    """A sweep aborted on a shard fault under ``on_fault="fail"``.

    Raised by supervised sweeps with that policy and by every
    unsupervised sweep whose shards run on worker processes.
    """


@dataclasses.dataclass(frozen=True)
class SupervisorPolicy:
    """How the supervisor reacts to a faulting shard.

    ``shard_timeout``
        Watchdog in seconds per shard *attempt*; ``None`` disables it
        (a hung shard then hangs the sweep, exactly like an
        unsupervised one).
    ``max_retries``
        Retries per shard after its first failure; attempt numbering
        is 0-based, so a shard executes at most ``max_retries + 1``
        times before quarantine.
    ``on_fault``
        ``retry`` (default) — retry on the same engine, quarantine
        after ``max_retries``; ``degrade`` — like retry but each retry
        steps down :data:`DEGRADE_LADDER`; ``quarantine`` — give up on
        the first fault; ``fail`` — raise :class:`SupervisorError` on
        the first fault (what unsupervised sweeps do).
    ``backoff_base`` / ``backoff_cap``
        Deterministic exponential backoff before retry ``n``:
        ``min(cap, base · 2^(n-1))`` seconds.  Jitter-free on purpose —
        replaying a fault plan replays the schedule too.
    """

    shard_timeout: Optional[float] = None
    max_retries: int = 2
    on_fault: str = "retry"
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.on_fault not in ON_FAULT_MODES:
            raise ValueError(f"unknown on_fault mode {self.on_fault!r} "
                             f"(expected one of {ON_FAULT_MODES})")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(f"shard_timeout must be > 0, "
                             f"got {self.shard_timeout}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base/backoff_cap must be >= 0")

    def backoff(self, retry: int) -> float:
        """Delay in seconds before retry ``retry`` (1-based)."""
        if retry < 1:
            raise ValueError(f"retry numbering is 1-based, got {retry}")
        return min(self.backoff_cap,
                   self.backoff_base * (2 ** (retry - 1)))


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One observed fault and what the supervisor did about it.

    ``kind`` is ``crash`` / ``exception`` / ``timeout`` /
    ``commit-fail`` / ``corrupt`` / ``healed``; ``action`` is
    ``retry`` / ``retry@<engine>`` (a degradation) / ``quarantine`` /
    ``damaged`` (injected at-rest corruption, shard still complete) /
    ``healed`` (damaged file quarantined on resume, shard recomputed).
    """

    shard: int
    attempt: int
    kind: str
    engine: str
    action: str
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class FaultReport:
    """Everything that went wrong in one supervised sweep.

    ``quarantined`` lists the exact ``(start, stop)`` run-index ranges
    the sweep finished *without* — re-run with the same spec and store
    to fill them in.  ``healed`` lists damaged store files renamed to
    ``*.corrupt`` and recomputed.  The sweep's deterministic artifacts
    (runs / metrics / journal) never mention faults; this report is
    the observability surface.
    """

    events: List[FaultEvent] = dataclasses.field(default_factory=list)
    quarantined: List[Tuple[int, int]] = \
        dataclasses.field(default_factory=list)
    healed: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every shard completed (no quarantined ranges)."""
        return not self.quarantined

    @property
    def n_faults(self) -> int:
        return len(self.events)

    @property
    def n_retries(self) -> int:
        return sum(1 for e in self.events if e.action.startswith("retry"))

    @property
    def n_degradations(self) -> int:
        return sum(1 for e in self.events if e.action.startswith("retry@"))

    @property
    def runs_missing(self) -> int:
        return sum(stop - start for start, stop in self.quarantined)

    def counts(self) -> Dict[str, int]:
        """Fault tally by kind (the ``repro report`` fault metrics)."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def quarantined_ranges(self) -> List[Tuple[int, int]]:
        """Quarantined index ranges, sorted and coalesced."""
        merged: List[Tuple[int, int]] = []
        for start, stop in sorted(self.quarantined):
            if merged and merged[-1][1] == start:
                merged[-1] = (merged[-1][0], stop)
            else:
                merged.append((start, stop))
        return merged

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": [e.to_dict() for e in self.events],
            "quarantined": [list(r) for r in self.quarantined_ranges()],
            "healed": list(self.healed),
            "counts": self.counts(),
            "n_retries": self.n_retries,
            "n_degradations": self.n_degradations,
            "runs_missing": self.runs_missing,
        }


def degraded_engine(engine: str) -> str:
    """The next rung down :data:`DEGRADE_LADDER` (floor: last rung)."""
    if engine not in DEGRADE_LADDER:
        return DEGRADE_LADDER[-1]
    idx = DEGRADE_LADDER.index(engine)
    return DEGRADE_LADDER[min(idx + 1, len(DEGRADE_LADDER) - 1)]


def run_supervised(spec, n_runs: int, max_steps: int, workers: int,
                   policy: Optional[SupervisorPolicy] = None, **options):
    """Execute a sharded batch under shard-level supervision.

    :func:`repro.parallel.engine.run_parallel` with ``policy``
    defaulting to ``SupervisorPolicy()``; ``options`` are its other
    parameters (``shard_size``, ``journal_path``, ``store``,
    ``fault_plan`` — test-only injection, :mod:`repro.faults` — and so
    on).  The returned ``BatchStats`` carries a :class:`FaultReport`
    on ``.faults``; when shards were quarantined, ``stats.runs``
    simply omits their index ranges and the report names them.

    Shards always run on worker processes, even at ``workers=1`` —
    crash isolation needs the process boundary.  With a ``store``,
    each shard commits the moment it finishes, and damaged committed
    shards found on resume are healed (renamed ``*.corrupt``) and
    recomputed instead of raising.
    """
    from repro.parallel.engine import run_parallel

    return run_parallel(spec, n_runs, max_steps, workers,
                        policy=policy or SupervisorPolicy(), **options)
