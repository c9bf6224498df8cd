"""The n-processor generalization of the Figure 2 protocol.

The PODC extended abstract develops the two- and three-processor
protocols and defers the n-processor generalization to the full paper
("In the full paper we will generalize these last two protocols to n
processor protocols").  This module implements the natural
generalization of the unbounded pref/num protocol:

* every processor owns one 1-writer (n−1)-reader register holding a
  ``[pref, num]`` record;
* a phase reads all n−1 other registers, applies exactly the same
  decision and candidate rules as the three-processor protocol
  (:mod:`repro.core.rules` — they are already arity-independent), and
  flips the same install/retain coin.

The abstract's headline claim is that coordination is achievable for
systems of arbitrary size n with expected run time polynomial in n and
tolerance of up to n−1 fail-stop crashes; benchmarks E7 and E8 measure
both on this implementation, and the checker validates consistency
exhaustively for small n and empirically for larger n.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Optional, Sequence, Tuple

from repro.core.protocol import ConsensusProtocol
from repro.core.rules import INITIAL, PrefNum, candidate, decision
from repro.errors import ProtocolError
from repro.sim.ops import BOTTOM, Op, ReadOp, WriteOp
from repro.sim.process import Branch, RegisterSpec, deterministic, evolve


@dataclasses.dataclass(frozen=True)
class NPState:
    """Processor state: phase program counter plus the reads collected.

    ``pc`` is "init", "read" (with ``read_idx`` counting through the
    other processors), "write", or "done".
    """

    pc: str
    reg: PrefNum
    read_idx: int = 0
    reads: Tuple[PrefNum, ...] = ()
    oldreg: PrefNum = INITIAL
    cand: Optional[PrefNum] = None
    output: Optional[Hashable] = None


class NProcessProtocol(ConsensusProtocol):
    """Unbounded-register randomized coordination for any n ≥ 2.

    Parameters
    ----------
    n:
        System size (n ≥ 2).
    values:
        Input domain; defaults to binary ("a", "b").
    p_heads:
        Install-probability of the per-phase coin (ablation knob).
    """

    def __init__(
        self,
        n: int,
        values: Optional[Sequence[Hashable]] = ("a", "b"),
        p_heads: float = 0.5,
    ) -> None:
        super().__init__(values)
        if n < 2:
            raise ValueError("need at least two processors")
        if not 0.0 < p_heads < 1.0:
            raise ValueError("p_heads must be in (0, 1)")
        self.n_processes = n
        self._p_heads = p_heads

    def registers(self) -> Tuple[RegisterSpec, ...]:
        n = self.n_processes
        return tuple(
            RegisterSpec(
                name=f"r{i}",
                writers=(i,),
                readers=tuple(j for j in range(n) if j != i),
                initial=INITIAL,
            )
            for i in range(n)
        )

    def _others(self, pid: int) -> Tuple[int, ...]:
        return tuple(j for j in range(self.n_processes) if j != pid)

    def initial_state(self, pid: int, input_value: Hashable) -> NPState:
        self.check_input(input_value)
        if input_value is BOTTOM:
            raise ValueError("⊥ is not a legal input value")
        return NPState(pc="init", reg=PrefNum(pref=input_value, num=1))

    def branches(self, pid: int, state: NPState) -> Sequence[Branch]:
        own_reg = f"r{pid}"
        if state.pc == "init":
            return deterministic(WriteOp(own_reg, state.reg))
        if state.pc == "read":
            target = self._others(pid)[state.read_idx]
            return deterministic(ReadOp(f"r{target}"))
        if state.pc == "write":
            return (
                Branch(self._p_heads, WriteOp(own_reg, state.cand)),
                Branch(1.0 - self._p_heads, WriteOp(own_reg, state.oldreg)),
            )
        raise ProtocolError(f"branches() on terminal state {state!r}")

    def observe(self, pid: int, state: NPState, op: Op,
                result: Hashable) -> NPState:
        if state.pc == "init":
            return evolve(state, pc="read", read_idx=0, reads=())
        if state.pc == "read":
            reads = state.reads + (result,)
            if len(reads) < self.n_processes - 1:
                return evolve(
                    state, reads=reads, read_idx=state.read_idx + 1
                )
            # Phase's reads complete: decide or compute the candidate.
            own = state.reg
            decided = decision(own, reads)
            if decided is not None:
                return evolve(
                    state, pc="done", reads=reads, output=decided
                )
            return evolve(
                state,
                pc="write",
                reads=reads,
                oldreg=own,
                cand=candidate(own, reads),
            )
        if state.pc == "write":
            assert isinstance(op, WriteOp)
            return evolve(
                state, pc="read", read_idx=0, reads=(), reg=op.value
            )
        raise ProtocolError(f"observe() on terminal state {state!r}")

    def output(self, pid: int, state: NPState) -> Optional[Hashable]:
        return state.output

    def describe_state(self, pid: int, state: NPState) -> str:
        if state.pc == "done":
            return f"P{pid}: decided {state.output!r}"
        return f"P{pid}: pc={state.pc} reg={state.reg!r} reads={len(state.reads)}"
