"""The two-processor protocol (paper Section 4, Figure 1).

Each processor P_i owns a single-writer single-reader register r_i
holding its currently preferred decision value.  The protocol, verbatim
from Figure 1 (for P_0)::

    (0) write r0 <- input
        repeat
    (1)     read v0 <- r1
            if v0 = r0 or v0 = ⊥ then decide r0 and quit
    (2)     else flip an unbiased coin:
               Heads: rewrite r0 <- r0
               Tails: write  r0 <- v0
        until decision is made

The paper proves:

* **Theorem 6 (consistency)** — the first decider saw both registers
  equal to v; the other processor must read the first's register (now
  frozen at v) before deciding, so it decides v too.
* **Theorem 7 (randomized termination)** — against any adaptive
  adversary, every pair of write steps reaches a univalent configuration
  with probability ≥ 1/4; P(not decided after k steps) ≤ (1/4)^(k/2).
* **Corollary** — expected steps to decide ≤ 2 + 4·2 = 10.

The ``rewrite`` on heads is superfluous for correctness (footnote 2 of
the paper) but kept because the step counts above assume it; pass
``skip_redundant_rewrite=True`` to benchmark the optimized variant.

States expose ``pc`` in {"init", "read", "write"} so the adaptive
adversaries of :mod:`repro.sched.adversary` can see which operation a
processor will perform next — the knowledge model Theorem 7 grants the
scheduler.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Optional, Sequence, Tuple

from repro.core.protocol import ConsensusProtocol
from repro.errors import ProtocolError
from repro.sim.ops import BOTTOM, Op, ReadOp, WriteOp
from repro.sim.process import Branch, RegisterSpec, deterministic, evolve


@dataclasses.dataclass(frozen=True)
class TPState:
    """Processor state of the two-processor protocol.

    ``pc``:
        "init"  — about to perform line (0)'s initial write;
        "read"  — about to perform line (1)'s read;
        "write" — about to perform line (2)'s coin-directed write;
        "done"  — decided (output holds the decision).
    ``pref``:
        the processor's current preferred value (mirrors its register).
    ``last_read``:
        the value read from the other register in the current iteration.
    """

    pc: str
    pref: Hashable
    last_read: Hashable = BOTTOM
    output: Optional[Hashable] = None


class TwoProcessProtocol(ConsensusProtocol):
    """Figure 1's randomized coordination protocol for two processors.

    Parameters
    ----------
    values:
        Optional input domain (any hashable values; with two processors
        at most two distinct inputs occur anyway).
    p_heads:
        Coin bias for the ablation benchmark; Figure 1 uses a fair coin.
        Heads keeps the processor's own preference.
    skip_redundant_rewrite:
        If True, a heads flip performs no write at all and the
        processor goes straight back to reading (footnote 2's remark
        that the rewrite is superfluous).  Changes step counts, not
        correctness.
    """

    n_processes = 2

    def __init__(
        self,
        values: Optional[Sequence[Hashable]] = None,
        p_heads: float = 0.5,
        skip_redundant_rewrite: bool = False,
    ) -> None:
        super().__init__(values)
        if not 0.0 < p_heads < 1.0:
            raise ValueError("p_heads must be in (0, 1)")
        self._p_heads = p_heads
        self._skip_rewrite = skip_redundant_rewrite

    # ------------------------------------------------------------------

    def registers(self) -> Tuple[RegisterSpec, ...]:
        """Two SRSW registers: P_i writes r_i, P_{1-i} reads it."""
        return (
            RegisterSpec(name="r0", writers=(0,), readers=(1,), initial=BOTTOM),
            RegisterSpec(name="r1", writers=(1,), readers=(0,), initial=BOTTOM),
        )

    @staticmethod
    def _own(pid: int) -> str:
        return f"r{pid}"

    @staticmethod
    def _other(pid: int) -> str:
        return f"r{1 - pid}"

    def initial_state(self, pid: int, input_value: Hashable) -> TPState:
        self.check_input(input_value)
        if input_value is BOTTOM:
            raise ValueError("⊥ is not a legal input value")
        return TPState(pc="init", pref=input_value)

    def branches(self, pid: int, state: TPState) -> Sequence[Branch]:
        if state.pc == "init":
            return deterministic(WriteOp(self._own(pid), state.pref))
        if state.pc == "read":
            return deterministic(ReadOp(self._other(pid)))
        if state.pc == "write":
            # Line (2): heads rewrites the old preference, tails adopts
            # the other processor's value.  The coin is sampled only
            # when this step executes — the adversary committed first.
            if self._skip_rewrite:
                # Footnote-2 variant: heads writes nothing; the step is
                # spent going straight to the next read instead.
                return (
                    Branch(self._p_heads, ReadOp(self._other(pid))),
                    Branch(1.0 - self._p_heads,
                           WriteOp(self._own(pid), state.last_read)),
                )
            return (
                Branch(self._p_heads, WriteOp(self._own(pid), state.pref)),
                Branch(1.0 - self._p_heads,
                       WriteOp(self._own(pid), state.last_read)),
            )
        raise ProtocolError(f"branches() on terminal state {state!r}")

    def observe(self, pid: int, state: TPState, op: Op,
                result: Hashable) -> TPState:
        if state.pc == "init":
            return evolve(state, pc="read")
        if state.pc == "read":
            v = result
            if v == state.pref or v is BOTTOM:
                # Line (1): decide r_i and quit.
                return evolve(
                    state, pc="done", last_read=v, output=state.pref
                )
            return evolve(state, pc="write", last_read=v)
        if state.pc == "write":
            if isinstance(op, ReadOp):
                # skip_redundant_rewrite heads-path: this step was the
                # next iteration's read; handle it like a "read" step.
                return self.observe(
                    pid, evolve(state, pc="read"), op, result
                )
            assert isinstance(op, WriteOp)
            return evolve(state, pc="read", pref=op.value)
        raise ProtocolError(f"observe() on terminal state {state!r}")

    def output(self, pid: int, state: TPState) -> Optional[Hashable]:
        return state.output

    def describe_state(self, pid: int, state: TPState) -> str:
        if state.pc == "done":
            return f"P{pid}: decided {state.output!r}"
        return (
            f"P{pid}: pc={state.pc} pref={state.pref!r} "
            f"last_read={state.last_read!r}"
        )
