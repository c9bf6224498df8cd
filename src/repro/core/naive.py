"""The broken "Consensus Protocol" of Section 5 — kept as a baseline.

    Each processor chooses at random a value, out of a and b.  When all
    processors have chosen the same value they terminate.

The paper presents this protocol precisely because it *fails* in a
subtle way: an adaptive adversary first lets two processors disagree,
then freezes them and activates only the third forever.  The third
processor can never observe unanimous registers and never terminates,
even though it is activated infinitely often — violating randomized
termination.

Concretely each processor: writes its input; then loops — read the
other registers; if every register (its own included) holds the same
value, decide it; otherwise re-choose its value uniformly at random and
write it.

Benchmark E4 runs this protocol against
:class:`repro.sched.adversary.NaiveKillerAdversary` side by side with
the paper's real three-processor protocol, reproducing the paper's
contrast: the naive victim never decides within any step budget, while
the Figure 2 protocol's victim simply out-races the frozen pair by two
and decides alone.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Optional, Sequence, Tuple

from repro.core.protocol import ConsensusProtocol
from repro.errors import ProtocolError
from repro.sim.ops import BOTTOM, Op, ReadOp, WriteOp
from repro.sim.process import Branch, RegisterSpec, deterministic, evolve


@dataclasses.dataclass(frozen=True)
class NaiveState:
    """Processor state: program counter plus the reads of this round."""

    pc: str  # "init" | "read" | "write" | "done"
    value: Hashable
    read_idx: int = 0
    reads: Tuple[Hashable, ...] = ()
    output: Optional[Hashable] = None


class NaiveProtocol(ConsensusProtocol):
    """The Section 5 strawman: flip coins until everyone agrees.

    Binary-valued (the re-choose step samples uniformly from the
    domain), for any n ≥ 2.
    """

    def __init__(self, n: int = 3,
                 values: Sequence[Hashable] = ("a", "b")) -> None:
        super().__init__(values)
        if n < 2:
            raise ValueError("need at least two processors")
        self.n_processes = n

    def registers(self) -> Tuple[RegisterSpec, ...]:
        n = self.n_processes
        return tuple(
            RegisterSpec(
                name=f"r{i}",
                writers=(i,),
                readers=tuple(j for j in range(n) if j != i),
                initial=BOTTOM,
            )
            for i in range(n)
        )

    def _others(self, pid: int) -> Tuple[int, ...]:
        return tuple(j for j in range(self.n_processes) if j != pid)

    def initial_state(self, pid: int, input_value: Hashable) -> NaiveState:
        self.check_input(input_value)
        return NaiveState(pc="init", value=input_value)

    def branches(self, pid: int, state: NaiveState) -> Sequence[Branch]:
        if state.pc == "init":
            return deterministic(WriteOp(f"r{pid}", state.value))
        if state.pc == "read":
            target = self._others(pid)[state.read_idx]
            return deterministic(ReadOp(f"r{target}"))
        if state.pc == "write":
            # Re-choose uniformly from the domain; the adversary cannot
            # see which branch will be taken.
            values = self.values
            p = 1.0 / len(values)
            return tuple(
                Branch(p, WriteOp(f"r{pid}", v)) for v in values
            )
        raise ProtocolError(f"branches() on terminal state {state!r}")

    def observe(self, pid: int, state: NaiveState, op: Op,
                result: Hashable) -> NaiveState:
        if state.pc == "init":
            return evolve(state, pc="read", read_idx=0, reads=())
        if state.pc == "read":
            reads = state.reads + (result,)
            if len(reads) < self.n_processes - 1:
                return evolve(
                    state, reads=reads, read_idx=state.read_idx + 1
                )
            seen = set(reads) | {state.value}
            if len(seen) == 1 and BOTTOM not in seen:
                return evolve(
                    state, pc="done", reads=reads, output=state.value
                )
            return evolve(state, pc="write", reads=reads)
        if state.pc == "write":
            assert isinstance(op, WriteOp)
            return evolve(
                state, pc="read", read_idx=0, reads=(), value=op.value
            )
        raise ProtocolError(f"observe() on terminal state {state!r}")

    def output(self, pid: int, state: NaiveState) -> Optional[Hashable]:
        return state.output

    def describe_state(self, pid: int, state: NaiveState) -> str:
        if state.pc == "done":
            return f"P{pid}: decided {state.output!r}"
        return f"P{pid}: pc={state.pc} value={state.value!r}"
