"""The processor-automaton formalism (Section 2 of the paper).

A processor is a (not necessarily finite) state automaton.  Each step is
a single register operation followed by a state transition; transition
functions may be deterministic or probabilistic.  We capture this with
three methods:

* :meth:`Automaton.initial_state` — the state ``I_P`` with the input
  value loaded into the internal input register,
* :meth:`Automaton.branches` — the probability distribution over the
  *next operation* from a state (a deterministic protocol returns a
  single branch of probability 1),
* :meth:`Automaton.observe` — the deterministic state transition applied
  once the operation has executed (for reads, it receives the value
  read).

Decisions are exposed by :meth:`Automaton.output`: a state whose output
is not ⊥ is a decision state, and the paper requires the output register
to be written at most once — the kernel enforces that a decided
processor halts.

This explicit formalism (instead of, say, coroutines) buys three things:

1. configurations ``(states, registers)`` are hashable, which makes
   exhaustive model checking possible (:mod:`repro.checker`),
2. the adaptive adversary can inspect full processor states without any
   reflection tricks, matching the paper's strongest scheduler,
3. coin flips are sampled at activation time, so the adversary provably
   cannot see them in advance.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Hashable, Optional, Sequence, Tuple

from repro.sim.ops import Op

_setattr = object.__setattr__


@dataclasses.dataclass(frozen=True)
class Branch:
    """One probabilistic alternative for a processor's next step.

    ``probability`` is the chance this alternative is taken; the branches
    returned by :meth:`Automaton.branches` must have probabilities
    summing to 1 (within floating-point tolerance).
    """

    probability: float
    op: Op

    def __repr__(self) -> str:
        return f"Branch(p={self.probability:g}, {self.op!r})"


@dataclasses.dataclass(frozen=True)
class RegisterSpec:
    """Declaration of one shared register.

    ``writers`` and ``readers`` are tuples of processor ids entitled to
    write/read (Section 2 associates W_r and R_r with every register).
    ``initial`` is the starting content, ⊥ unless stated otherwise.

    The paper's headline protocols use the most restricted class —
    single-writer registers — so most specs here have ``len(writers)
    == 1``; the kernel nevertheless supports arbitrary sets.
    """

    name: str
    writers: Tuple[int, ...]
    readers: Tuple[int, ...]
    initial: Hashable

    def __post_init__(self) -> None:
        if not self.writers:
            raise ValueError(f"register {self.name!r} has no writers")
        if not self.readers:
            raise ValueError(f"register {self.name!r} has no readers")


class Automaton(abc.ABC):
    """A protocol for ``n_processes`` processors, one automaton per processor.

    Subclasses implement the four abstract methods below.  All states
    must be hashable and should be cheap to compare; frozen dataclasses
    or plain tuples work well.

    The same object describes every processor (the paper's protocols are
    symmetric up to register naming); asymmetric protocols simply branch
    on ``pid`` inside the methods.
    """

    #: Number of processors in the system; subclasses must set this.
    n_processes: int = 0

    @abc.abstractmethod
    def registers(self) -> Sequence[RegisterSpec]:
        """Declare the shared registers this protocol uses."""

    @abc.abstractmethod
    def initial_state(self, pid: int, input_value: Hashable) -> Hashable:
        """Return processor ``pid``'s initial state with the given input."""

    @abc.abstractmethod
    def branches(self, pid: int, state: Hashable) -> Sequence[Branch]:
        """Return the distribution over processor ``pid``'s next operation.

        Must return at least one branch unless the state is a decision
        state (in which case the processor has halted and is never
        scheduled again).
        """

    @abc.abstractmethod
    def observe(self, pid: int, state: Hashable, op: Op,
                result: Hashable) -> Hashable:
        """Apply the state transition after ``op`` executed.

        For a read, ``result`` is the value read; for a write it is
        ``None``.  Must be deterministic: all randomness lives in
        :meth:`branches`.
        """

    @abc.abstractmethod
    def output(self, pid: int, state: Hashable) -> Optional[Hashable]:
        """Return the decided value in ``state``, or ``None`` if undecided."""

    # ------------------------------------------------------------------
    # Conveniences with sensible defaults.
    # ------------------------------------------------------------------

    def describe_state(self, pid: int, state: Hashable) -> str:
        """Human-readable rendering of a state, used in traces and demos."""
        return repr(state)

    def symmetry_candidates(self) -> Optional[Sequence[Sequence[int]]]:
        """Processor permutations worth testing for symmetry reduction.

        The checker's symmetry reduction (:mod:`repro.checker.
        reduction`) never *trusts* a candidate — each one is verified
        against the protocol's compiled step tables and admitted only
        with a machine-checked automorphism certificate — so this hook
        is purely a search-space hint.  Return ``None`` (the default)
        to let the checker enumerate all permutations for small widths;
        return an explicit (possibly empty) list to narrow or disable
        the search for protocols known to be asymmetric.
        """
        return None

    @property
    def name(self) -> str:
        """Protocol name used in reports."""
        return type(self).__name__

    def validate_branches(self, branches: Sequence[Branch]) -> None:
        """Check that a branch list is a probability distribution.

        Called by the kernel in strict mode; protocols may also call it
        from their own tests.
        """
        from repro.errors import ProtocolError

        if not branches:
            raise ProtocolError(f"{self.name}: empty branch list")
        total = sum(b.probability for b in branches)
        if abs(total - 1.0) > 1e-9:
            raise ProtocolError(
                f"{self.name}: branch probabilities sum to {total}, not 1"
            )
        for branch in branches:
            if branch.probability < 0:
                raise ProtocolError(
                    f"{self.name}: negative branch probability {branch}"
                )


def evolve(state, **changes):
    """``dataclasses.replace(state, **changes)`` for a processor state:
    a frozen dataclass with no ``__post_init__``.

    It sets the instance's fields, with ``changes`` applied, without
    the per-call field introspection of :func:`dataclasses.replace`,
    which costs about twice as much; every transition a cache builds
    makes one.  Setting them one by one keeps the instance dictionary
    sharing its keys with the class's other instances, as
    ``__init__`` leaves it.  The copy compares, hashes and pickles as
    the replaced instance would.
    """
    fields = state.__dict__
    if not changes.keys() <= fields.keys():
        raise TypeError(f"{type(state).__name__} has no field "
                        f"{sorted(changes.keys() - fields.keys())}")
    new = object.__new__(state.__class__)
    for name, value in fields.items():
        _setattr(new, name, changes.get(name, value))
    return new


def deterministic(op: Op) -> Tuple[Branch]:
    """Helper: the single-branch distribution taking ``op`` surely."""
    return (Branch(1.0, op),)


def fair_coin(heads_op: Op, tails_op: Op) -> Tuple[Branch, Branch]:
    """Helper: an unbiased coin between two operations.

    This is the exact shape used by the paper's protocols — e.g. the
    two-processor protocol's line (2): heads rewrites the old preference,
    tails adopts the other processor's value.
    """
    return (Branch(0.5, heads_op), Branch(0.5, tails_op))


def biased_coin(p_heads: float, heads_op: Op, tails_op: Op) -> Tuple[Branch, Branch]:
    """Helper: a biased coin, used by ablation experiments."""
    if not 0.0 < p_heads < 1.0:
        raise ValueError("p_heads must be strictly between 0 and 1")
    return (Branch(p_heads, heads_op), Branch(1.0 - p_heads, tails_op))
