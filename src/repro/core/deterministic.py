"""Deterministic coordination attempts — Theorem 4's victims.

Section 3 proves that *no* deterministic protocol solves coordination,
even for two processors: every consistent, nontrivial deterministic
protocol has an infinite schedule on which nobody ever decides.  One
cannot "reproduce" a universally quantified impossibility by running
code, but one can mechanize its proof on concrete instances: the
checker in :mod:`repro.checker.flp` takes any deterministic protocol
from this module and either

* exhibits a run violating consistency or nontriviality, or
* constructs the Lemma 2 bivalent initial configuration and extends it
  per Lemma 3 into an explicit non-deciding schedule (a lasso: a path
  into a cycle of bivalent configurations).

The protocols here are natural deterministic attempts at the problem,
each in the shape of Figure 1 with the coin flip replaced by a
deterministic rule: after writing its preference and reading the other
processor's register, a processor either decides or deterministically
rewrites a new preference.  Benchmark E1 runs the checker over the
whole zoo.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Hashable, Optional, Sequence, Tuple

from repro.core.protocol import ConsensusProtocol
from repro.errors import ProtocolError
from repro.sim.ops import BOTTOM, Op, ReadOp, WriteOp
from repro.sim.process import Branch, RegisterSpec, deterministic, evolve


#: rule(pid, my_pref, value_read) -> ("decide", v) | ("write", new_pref)
Rule = Callable[[int, Hashable, Hashable], Tuple[str, Hashable]]


@dataclasses.dataclass(frozen=True)
class DetState:
    """State of a Figure 1-shaped deterministic protocol."""

    pc: str  # "init" | "read" | "write" | "done"
    pref: Hashable
    last_read: Hashable = BOTTOM
    output: Optional[Hashable] = None


class TwoProcessDeterministic(ConsensusProtocol):
    """A deterministic two-processor protocol in the Figure 1 shape.

    Each processor writes its preference, reads the other register, and
    applies ``rule``; ``rule`` may be asymmetric in ``pid`` (the
    impossibility result does not assume symmetry).
    """

    n_processes = 2

    def __init__(self, rule: Rule, label: str,
                 values: Sequence[Hashable] = ("a", "b")) -> None:
        super().__init__(values)
        self._rule = rule
        self._label = label

    @property
    def name(self) -> str:
        return f"Deterministic({self._label})"

    @property
    def is_randomized(self) -> bool:
        return False

    def registers(self) -> Tuple[RegisterSpec, ...]:
        return (
            RegisterSpec(name="r0", writers=(0,), readers=(1,), initial=BOTTOM),
            RegisterSpec(name="r1", writers=(1,), readers=(0,), initial=BOTTOM),
        )

    def initial_state(self, pid: int, input_value: Hashable) -> DetState:
        self.check_input(input_value)
        return DetState(pc="init", pref=input_value)

    def branches(self, pid: int, state: DetState) -> Sequence[Branch]:
        own, other = f"r{pid}", f"r{1 - pid}"
        if state.pc == "init":
            return deterministic(WriteOp(own, state.pref))
        if state.pc == "read":
            return deterministic(ReadOp(other))
        if state.pc == "write":
            action, payload = self._rule(pid, state.pref, state.last_read)
            assert action == "write"
            return deterministic(WriteOp(own, payload))
        raise ProtocolError(f"branches() on terminal state {state!r}")

    def observe(self, pid: int, state: DetState, op: Op,
                result: Hashable) -> DetState:
        if state.pc == "init":
            return evolve(state, pc="read")
        if state.pc == "read":
            action, payload = self._rule(pid, state.pref, result)
            if action == "decide":
                return evolve(
                    state, pc="done", last_read=result, output=payload
                )
            return evolve(state, pc="write", last_read=result)
        if state.pc == "write":
            assert isinstance(op, WriteOp)
            return evolve(state, pc="read", pref=op.value)
        raise ProtocolError(f"observe() on terminal state {state!r}")

    def output(self, pid: int, state: DetState) -> Optional[Hashable]:
        return state.output


# ----------------------------------------------------------------------
# The zoo.  Rules return ("decide", v) only from the read observation;
# when they return ("write", p) the processor's next step writes p.
# ----------------------------------------------------------------------

def _obstinate_rule(pid: int, pref: Hashable, read: Hashable):
    """Never budge: decide only on agreement, otherwise keep own pref.

    Fails termination: with different inputs and a fair lock-step
    schedule both processors re-read forever (after the initial writes,
    neither register ever changes, so neither condition is met).
    """
    if read is BOTTOM or read == pref:
        return ("decide", pref)
    return ("write", pref)


def _mirror_rule(pid: int, pref: Hashable, read: Hashable):
    """Always adopt the other's value on disagreement.

    Fails termination: a lock-step schedule makes the processors swap
    preferences forever, a perfectly synchronized dance that never
    reaches agreement.
    """
    if read is BOTTOM or read == pref:
        return ("decide", pref)
    return ("write", read)


def _priority_rule(pid: int, pref: Hashable, read: Hashable):
    """Asymmetric: P0 stands firm, P1 yields.

    The textbook "fix" for the mirror protocol, and it is consistent
    (the impossibility result does not require symmetry, and indeed the
    asymmetry is no way out).  It fails *termination*: starving P1
    after its initial write leaves P0 re-reading the stale disagreeing
    value forever.  The checker exhibits that schedule.
    """
    if read is BOTTOM or read == pref:
        return ("decide", pref)
    if pid == 0:
        return ("write", pref)
    return ("write", read)


def _greedy_min_rule(pid: int, pref: Hashable, read: Hashable):
    """Symmetric tie-break: on disagreement both adopt the smaller value.

    Looks safe, and is: disagreeing processors deterministically
    converge on the smaller value, and the write-before-read structure
    closes the ⊥-race one might suspect.  What fails — as Theorem 4
    insists something must — is *termination*: freeze the larger-valued
    processor after its initial write and the other one re-reads the
    frozen disagreement forever (its own value is already the minimum,
    so its rewrites change nothing).  The checker exhibits that lasso.
    """
    if read is BOTTOM or read == pref:
        return ("decide", pref)
    return ("write", min(pref, read))


def obstinate() -> TwoProcessDeterministic:
    """Both processors keep their preference forever."""
    return TwoProcessDeterministic(_obstinate_rule, "obstinate")


def mirror() -> TwoProcessDeterministic:
    """Both processors adopt the other's preference."""
    return TwoProcessDeterministic(_mirror_rule, "mirror")


def priority() -> TwoProcessDeterministic:
    """P0 keeps its preference; P1 adopts P0's."""
    return TwoProcessDeterministic(_priority_rule, "priority")


def greedy_min() -> TwoProcessDeterministic:
    """On disagreement, both adopt the lexicographically smaller value."""
    return TwoProcessDeterministic(_greedy_min_rule, "greedy-min")


def zoo() -> Tuple[TwoProcessDeterministic, ...]:
    """Every deterministic attempt, for sweeping in tests and benches."""
    return (obstinate(), mirror(), priority(), greedy_min())
