"""The weak register models: regular and safe memory.

:mod:`repro.sim.memory` defines the semantics and the atomic model;
these two are built only for runs under ``regular`` or ``safe``
semantics (:meth:`repro.sim.memory.MemorySpec.build`), so atomic runs
never compile them.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.sim.config import RegisterLayout
from repro.sim.memory import MemoryModel


class RegularMemory(MemoryModel):
    """Lamport-regular registers in the serialized kernel.

    A write by P is pending from the step that issues it until the
    start of P's next activation (its commit point).  Because the
    commit happens before P's next operation, each writer has at most
    one pending write at a time, and the pending map is tiny.

    A read of ``slot`` may return the committed value or the value of
    any write currently pending on that slot — exactly the "old value
    or any overlapping write's new value" regularity condition, with
    "overlap" serialized as "issued but not yet committed".
    """

    semantics = "regular"
    atomic = False

    def __init__(self, layout: RegisterLayout) -> None:
        super().__init__(layout)
        # writer pid -> (slot, value); at most one entry per writer.
        self._pending: Dict[int, Tuple[int, Hashable]] = {}

    def on_activate(self, pid: int) -> None:
        if self._pending:
            entry = self._pending.pop(pid, None)
            if entry is not None:
                self.values[entry[0]] = entry[1]

    def write(self, pid: int, slot: int, value: Hashable) -> None:
        # on_activate(pid) ran at the start of this step, so pid's
        # previous write (if any) is already committed.
        self._pending[pid] = (slot, value)

    def read_choices(self, slot: int) -> Tuple[Hashable, ...]:
        committed = self.values[slot]
        pending = self._pending
        if not pending:
            return (committed,)
        choices = [committed]
        for writer in sorted(pending):
            s, v = pending[writer]
            if s == slot and v not in choices:
                choices.append(v)
        return tuple(choices)

    def pending_writes(self, slot: int) -> Tuple[Hashable, ...]:
        """Values of writes currently pending on ``slot`` (writer order)."""
        return tuple(
            v for w in sorted(self._pending)
            for s, v in (self._pending[w],) if s == slot
        )

    def snapshot(self) -> Optional[Hashable]:
        pending = self._pending
        if not pending:
            return None
        return tuple((w,) + pending[w] for w in sorted(pending))

    def restore(self, registers, snap: Optional[Hashable]) -> None:
        self.values[:] = registers
        self._pending = (
            {w: (s, v) for w, s, v in snap} if snap else {}
        )


class SafeMemory(RegularMemory):
    """Safe registers: contended reads may additionally return garbage.

    Quiescent reads behave like regular (and atomic) reads; a read
    overlapping a pending write on its slot may also return the
    register's *initial* value — the canonical garbage for the
    ⊥-initialized paper registers (see the module docstring for why the
    garbage domain is restricted to observable values).  Crucially the
    garbage choice is legal even when the committed and pending values
    agree, which is where safe registers genuinely diverge from
    regular ones (a rewrite of the same value exposes ⊥ again).
    """

    semantics = "safe"

    def read_choices(self, slot: int) -> Tuple[Hashable, ...]:
        committed = self.values[slot]
        pending = self._pending
        if not pending:
            return (committed,)
        choices = [committed]
        contended = False
        for writer in sorted(pending):
            s, v = pending[writer]
            if s == slot:
                contended = True
                if v not in choices:
                    choices.append(v)
        if contended:
            garbage = self._initial[slot]
            if garbage not in choices:
                choices.append(garbage)
        return tuple(choices)
