"""Scheduler abstract base class.

A scheduler receives a :class:`~repro.sim.kernel.SchedulerView` — the
full configuration plus run bookkeeping — and returns either
:class:`~repro.sim.kernel.Activate` (who moves next) or
:class:`~repro.sim.kernel.Crash` (fail-stop a processor).  Returning a
bare processor id is accepted as shorthand for activation.

Contract: the returned processor must be *enabled* (alive and
undecided).  The kernel raises :class:`~repro.errors.SimulationError`
otherwise, because an adversary that silently "activates" a halted
processor would let broken protocols appear live.
"""

from __future__ import annotations

import abc
from typing import Hashable, Tuple, Union

from repro.sim.kernel import Activate, Crash, SchedulerView


class Scheduler(abc.ABC):
    """Base class for all schedulers."""

    #: Set to True on a class whose ``choose`` is a function of the
    #: view's processor states, committed registers and ``enabled``
    #: alone: no coins, no run bookkeeping (step index, activation or
    #: consultation counts), no state of its own.  The fast kernel then
    #: consults it once per configuration per batch under atomic memory
    #: and replays the memoized action (counting every consultation as
    #: before).  The declaration belongs to the class that defines
    #: ``choose``: a subclass overriding ``choose`` must declare it
    #: again, and an instance may clear it (``self.pure_choice =
    #: False``) when its parameters make the choice impure.
    pure_choice: bool = False

    @abc.abstractmethod
    def choose(self, view: SchedulerView) -> Union[Activate, Crash, int]:
        """Pick the next scheduler action for the given configuration."""

    def resolve_read(self, view: SchedulerView, pid: int, register: str,
                     choices: Tuple[Hashable, ...]) -> Hashable:
        """Pick a contended weak-memory read's return value.

        Consulted by the kernel under ``regular``/``safe`` register
        semantics whenever a read has more than one legal return value
        (``choices``, committed value first — see
        :meth:`repro.sim.memory.MemoryModel.read_choices`).  The default
        returns ``choices[0]``, i.e. "the overlapping write has not
        taken effect yet", which preserves atomic-looking behavior for
        schedulers that don't care.  Adversarial schedulers override
        this (or pre-commit via ``Activate(pid, read_value=...)``,
        which takes precedence).  Returning a value outside ``choices``
        is a scheduler bug surfaced as a
        :class:`~repro.errors.SimulationError`.
        """
        return choices[0]

    @property
    def name(self) -> str:
        """Scheduler name used in experiment reports."""
        return type(self).__name__
