"""Pluggable register semantics: atomic, regular, and safe memory.

The paper's model (Section 2) assumes *atomic* registers and defends
the assumption only by citation — atomicity is what lets every system
execution be serialized into one global operation order.  The register
construction tower (:mod:`repro.registers`) makes the weaker classes of
Lamport's hierarchy executable in the interval world, but until this
layer existed the simulation kernel itself hard-coded atomicity.

A :class:`MemoryModel` owns the register storage of one run and decides
what values a read may legally return:

* :class:`AtomicMemory` — a read returns exactly the last written
  value.  The legal-value set is always a singleton, so the adversary
  has no choice and the kernel's fast path keeps its inlined
  ``registers[slot]`` access (the model's ``values`` list *is* the fast
  path's buffer; semantically every access still goes through the
  model, the atomic resolution is just the identity).
* :class:`~repro.sim.weak.RegularMemory` — a write issued by
  processor P becomes *pending* and commits at the start of P's next
  activation (a crashed or halted writer leaves its write pending
  forever, i.e. the write overlaps every later read — the standard
  serialization of "the write is still in flight").  A read of a contended register may return the
  committed (old) value or the new value of any overlapping write; the
  *adversary* picks which (see below).
* :class:`~repro.sim.weak.SafeMemory` — regular, plus garbage: a read
  that overlaps a write may additionally return the register's initial
  value even when it was long overwritten.  (Lamport's safe registers allow arbitrary
  domain values under contention; register specs here declare no value
  domain, so the observable domain ``{initial} ∪ {committed} ∪
  {pending}`` is used.  For the ⊥-initialized paper registers the
  initial value is exactly the "garbage" a consistency argument must
  survive, and the choice keeps the model memoryless — a configuration
  plus its pending-write snapshot fully determines the legal sets,
  which is what lets the model checker branch over them.)

Who picks the returned value?  The scheduler (= the paper's adversary):
the kernel consults ``scheduler.resolve_read(view, pid, register,
choices)`` whenever a legal set has more than one element, and a
scheduler may also pre-commit the value with
``Activate(pid, read_value=...)``.  Both channels see only the current
configuration — never future coin flips — so the paper's
adaptive-adversary knowledge model is intact.

Ordering contract: :meth:`MemoryModel.read_choices` tuples are
deterministic — ``choices[0]`` is always the committed value, followed
by pending-write values in writer order, then (safe only) the initial
value.  Deterministic ordering is what keeps runs replayable and lets
the default resolution (``choices[0]``) behave like "the write has not
happened yet".

:class:`MemorySpec` is the picklable fingerprint (a name) that threads
the choice through ``ExperimentRunner``, ``BatchSpec`` workers,
``solve`` and the ``--memory`` CLI flag, exactly like
:class:`repro.parallel.tasks.ProtocolSpec` does for protocols.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.config import RegisterLayout

#: Memory-semantics names accepted by :class:`MemorySpec` (CLI vocabulary).
MEMORY_NAMES = ("atomic", "regular", "safe")


class MemoryModel:
    """Base class: owns one run's register storage.

    ``values[slot]`` is the *committed* content of each register — what
    a quiescent read returns, what :class:`SchedulerView.register`
    shows, and what :class:`~repro.sim.config.Configuration.registers`
    snapshots.  Subclasses add pending-write bookkeeping and define the
    legal read sets.

    The kernel drives the model with exactly three calls per step:
    ``on_activate(pid)`` at the start of ``pid``'s step (commits
    ``pid``'s pending write, if any), then one of ``write(pid, slot,
    value)`` or ``read_choices(slot)``.  ``snapshot``/``restore``
    round-trip the extra (non-``values``) state for the model checker.
    """

    #: Semantics tag recorded on results and journals.
    semantics: str = "abstract"
    #: True only for :class:`AtomicMemory`; lets the kernel keep its
    #: inlined buffer access for the zero-cost default.
    atomic: bool = False

    def __init__(self, layout: RegisterLayout) -> None:
        self.layout = layout
        self._initial: Tuple[Hashable, ...] = layout.initial_values()
        self.values: List[Hashable] = list(self._initial)

    def on_activate(self, pid: int) -> None:
        """``pid`` is taking a step: commit its pending write, if any."""
        raise NotImplementedError

    def write(self, pid: int, slot: int, value: Hashable) -> None:
        """``pid`` writes ``value`` into register ``slot``."""
        raise NotImplementedError

    def read_choices(self, slot: int) -> Tuple[Hashable, ...]:
        """Legal return values for a read of ``slot``, committed first."""
        raise NotImplementedError

    def snapshot(self) -> Optional[Hashable]:
        """Hashable extra state beyond ``values`` (``None`` if quiescent).

        Stored as :attr:`Configuration.mem`; ``None`` when there are no
        pending writes, so quiescent weak-memory configurations compare
        equal to atomic ones.
        """
        raise NotImplementedError

    def restore(self, registers, snap: Optional[Hashable]) -> None:
        """Reset to the state ``(registers, snap)`` describes (in place).

        Mutates ``self.values`` in place rather than rebinding it — the
        kernel's fast path aliases the list as its register buffer.
        """
        raise NotImplementedError


class AtomicMemory(MemoryModel):
    """The paper's model: every write commits instantly.

    Legal read sets are always singletons — the last written value —
    so runs under :class:`AtomicMemory` are bit-identical to the
    pre-memory-layer kernel (asserted by the differential suite).
    """

    semantics = "atomic"
    atomic = True

    def on_activate(self, pid: int) -> None:
        pass

    def write(self, pid: int, slot: int, value: Hashable) -> None:
        self.values[slot] = value

    def read_choices(self, slot: int) -> Tuple[Hashable, ...]:
        return (self.values[slot],)

    def snapshot(self) -> Optional[Hashable]:
        return None

    def restore(self, registers, snap: Optional[Hashable]) -> None:
        if snap is not None:
            raise SimulationError(
                f"atomic memory carries no snapshot state, got {snap!r}"
            )
        self.values[:] = registers


@dataclasses.dataclass(frozen=True)
class MemorySpec:
    """Picklable fingerprint of a memory semantics (see module docs).

    Frozen, hashable, and serializes as one string — safe to embed in
    :class:`repro.parallel.engine.BatchSpec` and ship across a
    ``multiprocessing`` spawn boundary.  ``build(layout)`` constructs a
    fresh per-run :class:`MemoryModel`.
    """

    name: str = "atomic"

    def __post_init__(self) -> None:
        if self.name not in MEMORY_NAMES:
            raise ValueError(
                f"unknown memory semantics {self.name!r} "
                f"(expected one of {MEMORY_NAMES})"
            )

    @property
    def atomic(self) -> bool:
        return self.name == "atomic"

    def build(self, layout: RegisterLayout) -> MemoryModel:
        if self.name == "atomic":
            return AtomicMemory(layout)
        from repro.sim.weak import RegularMemory, SafeMemory

        return (RegularMemory if self.name == "regular"
                else SafeMemory)(layout)


#: Shared default instances (specs are immutable, sharing is free).
ATOMIC = MemorySpec("atomic")
REGULAR = MemorySpec("regular")
SAFE = MemorySpec("safe")


def memory_spec(memory) -> MemorySpec:
    """Normalize ``None`` / a name / a spec into a :class:`MemorySpec`."""
    if memory is None:
        return ATOMIC
    if isinstance(memory, MemorySpec):
        return memory
    if isinstance(memory, str):
        return MemorySpec(memory)
    raise TypeError(
        f"memory must be None, a semantics name {MEMORY_NAMES}, or a "
        f"MemorySpec; got {memory!r}"
    )
