"""The three-processor unbounded-register protocol (Section 5, Figure 2).

Each processor P_i keeps a ``[pref, num]`` record in its communication
register.  A phase is: remember the old register value, read the other
two registers, test Figure 2's decision condition, and otherwise toss a
fair coin — heads installs the newly computed value (leader-adopted pref,
num+1), tails rewrites the old value.

The paper proves:

* **Theorem 8 (consistency)** — stated without proof in the extended
  abstract; verified here exhaustively by the model checker (test suite)
  and on every Monte-Carlo trace.
* **Theorem 9** — P(num = k in any register) ≤ (3/4)^k: each time a
  processor takes the lead, the others agree with it with probability
  ≥ 1/4 per phase-pair.  Benchmark E3 measures the empirical num-field
  distribution against this geometric envelope.
* **Corollary** — constant expected running time.

Two register layouts are provided:

* ``"mrsw"`` (default, as in Figure 2): one 1-writer 2-reader register
  per processor.
* ``"srsw"``: the full-paper refinement using only 1-writer 1-reader
  registers — the writer keeps one copy per reader and writes both, one
  step at a time.  This doubles the writes per phase and briefly exposes
  the two copies as mutually inconsistent, which is exactly the
  difficulty the full paper's proof addresses; our checker validates the
  variant empirically.
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
class TUState:
    """Processor state of the three-processor protocol.

    ``pc`` walks the phase: ``init`` (initial write; ``init2`` for the
    second copy under the srsw layout) → ``read1`` → ``read2`` →
    ``write`` (coin-directed; ``write2`` for the second copy) → back to
    ``read1``, or ``done``.

    ``reg`` mirrors the processor's own register (its ``newreg``);
    ``oldreg`` is the previous phase's value; ``cand`` is the computed
    heads-path value; ``read_a``/``read_b`` hold the two values read
    this phase.
    """

    pc: str
    reg: PrefNum
    oldreg: PrefNum = INITIAL
    cand: Optional[PrefNum] = None
    read_a: Optional[PrefNum] = None
    read_b: Optional[PrefNum] = None
    output: Optional[Hashable] = None


class ThreeUnboundedProtocol(ConsensusProtocol):
    """Figure 2's randomized coordination protocol for three processors.

    Parameters
    ----------
    values:
        Input domain (default ("a", "b") as in the paper's exposition;
        the protocol itself works for any domain — multivaluedness is
        also obtainable via Theorem 5's reduction).
    layout:
        "mrsw" for 1-writer 2-reader registers (Figure 2) or "srsw"
        for the full-paper 1-writer 1-reader variant.
    p_heads:
        Coin bias (ablation); Figure 2 uses a fair coin.  Heads installs
        the new value, tails retains the old.
    """

    n_processes = 3

    def __init__(
        self,
        values: Optional[Sequence[Hashable]] = ("a", "b"),
        layout: str = "mrsw",
        p_heads: float = 0.5,
        decision_rule: str = "own-leader",
    ) -> None:
        super().__init__(values)
        if layout not in ("mrsw", "srsw"):
            raise ValueError(f"unknown layout {layout!r}")
        if not 0.0 < p_heads < 1.0:
            raise ValueError("p_heads must be in (0, 1)")
        if decision_rule not in ("own-leader", "literal"):
            raise ValueError(f"unknown decision rule {decision_rule!r}")
        self._layout = layout
        self._p_heads = p_heads
        # "own-leader" is the corrected rule (the library default);
        # "literal" is the extended abstract's broken wording, kept so
        # finding F1's consistency violation can be regenerated.
        from repro.core.rules import decision_literal_figure2

        self._decision = (
            decision if decision_rule == "own-leader"
            else decision_literal_figure2
        )
        self._decision_rule = decision_rule

    @property
    def decision_rule(self) -> str:
        return self._decision_rule

    # ------------------------------------------------------------------
    # Register wiring
    # ------------------------------------------------------------------

    def registers(self) -> Tuple[RegisterSpec, ...]:
        if self._layout == "mrsw":
            return tuple(
                RegisterSpec(
                    name=f"r{i}",
                    writers=(i,),
                    readers=tuple(j for j in range(3) if j != i),
                    initial=INITIAL,
                )
                for i in range(3)
            )
        # srsw: r{i}to{j} is P_i's copy dedicated to reader P_j.
        specs = []
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                specs.append(
                    RegisterSpec(
                        name=f"r{i}to{j}",
                        writers=(i,),
                        readers=(j,),
                        initial=INITIAL,
                    )
                )
        return tuple(specs)

    def _others(self, pid: int) -> Tuple[int, int]:
        a, b = [j for j in range(3) if j != pid]
        return a, b

    def _read_target(self, pid: int, other: int) -> str:
        if self._layout == "mrsw":
            return f"r{other}"
        return f"r{other}to{pid}"

    def _write_targets(self, pid: int) -> Tuple[str, ...]:
        if self._layout == "mrsw":
            return (f"r{pid}",)
        a, b = self._others(pid)
        return (f"r{pid}to{a}", f"r{pid}to{b}")

    # ------------------------------------------------------------------
    # Automaton interface
    # ------------------------------------------------------------------

    def initial_state(self, pid: int, input_value: Hashable) -> TUState:
        self.check_input(input_value)
        if input_value is BOTTOM:
            raise ValueError("⊥ is not a legal input value")
        return TUState(pc="init", reg=PrefNum(pref=input_value, num=1))

    def branches(self, pid: int, state: TUState) -> Sequence[Branch]:
        targets = self._write_targets(pid)
        a, b = self._others(pid)
        if state.pc == "init":
            return deterministic(WriteOp(targets[0], state.reg))
        if state.pc == "init2":
            return deterministic(WriteOp(targets[1], state.reg))
        if state.pc == "read1":
            return deterministic(ReadOp(self._read_target(pid, a)))
        if state.pc == "read2":
            return deterministic(ReadOp(self._read_target(pid, b)))
        if state.pc == "write":
            # The coin: heads installs the candidate, tails rewrites the
            # old value (Figure 2's "toss a fair coin").
            return (
                Branch(self._p_heads, WriteOp(targets[0], state.cand)),
                Branch(1.0 - self._p_heads, WriteOp(targets[0], state.oldreg)),
            )
        if state.pc == "write2":
            # Second copy under srsw: repeats the value chosen at write1.
            return deterministic(WriteOp(targets[1], state.reg))
        raise ProtocolError(f"branches() on terminal state {state!r}")

    def observe(self, pid: int, state: TUState, op: Op,
                result: Hashable) -> TUState:
        two_copies = self._layout == "srsw"
        if state.pc == "init":
            next_pc = "init2" if two_copies else "read1"
            return evolve(state, pc=next_pc)
        if state.pc == "init2":
            return evolve(state, pc="read1")
        if state.pc == "read1":
            return evolve(state, pc="read2", read_a=result)
        if state.pc == "read2":
            own = state.reg
            others = (state.read_a, result)
            decided = self._decision(own, others)
            if decided is not None:
                return evolve(
                    state, pc="done", read_b=result, output=decided
                )
            return evolve(
                state,
                pc="write",
                read_b=result,
                oldreg=own,
                cand=candidate(own, others),
            )
        if state.pc == "write":
            assert isinstance(op, WriteOp)
            next_pc = "write2" if two_copies else "read1"
            return evolve(state, pc=next_pc, reg=op.value)
        if state.pc == "write2":
            return evolve(state, pc="read1")
        raise ProtocolError(f"observe() on terminal state {state!r}")

    def output(self, pid: int, state: TUState) -> Optional[Hashable]:
        return state.output

    def describe_state(self, pid: int, state: TUState) -> str:
        if state.pc == "done":
            return f"P{pid}: decided {state.output!r}"
        return f"P{pid}: pc={state.pc} reg={state.reg!r}"
