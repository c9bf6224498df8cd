"""The bounded-register three-processor protocol (Section 6, Figure 3).

This is the paper's technically hardest construction: coordination for
three processors where every shared register takes one of finitely many
values.  The unbounded protocol's ``num`` field kept a *global* ordering
of processors; here it is replaced by a circular 9-position counter that
only ever supports a *local* (window-relative) ordering.

Mechanics (paper prose + Figure 3, concretized per DESIGN.md §5):

* Positions 1..9 are arranged circularly.  At any time all three
  registers lie within one of the overlapping windows (8..3), (2..6),
  (5..9) of width five, so the circular distance
  ``ahead(x, y) = ((x − y + 4) mod 9) − 4`` is a faithful local order.
* Processors run the unbounded protocol's advance/adopt/coin dynamics
  (:mod:`repro.core.three_unbounded`) pretending positions are nums.
* A *checkpoint* (position 3, 6 or 9 — a window's right end) gates
  progress: a leader may cross only if the last processor is within one
  step; otherwise the (at most two) leaders drop into the embedded
  two-processor protocol of Section 4 — their registers hold
  ``pref``-states that flip exactly like Figure 1's register — until
  either they agree (decide) or the laggard catches up (resume).
* Terminating rules:

  - **T1** — a processor reading ``dec-v`` moves to ``dec-v``
    (decisions are register values; deciding *is* writing ``dec-v``).
  - **T2** — a run-mode processor seeing both others ≥ 2 positions
    behind decides its own value (the bounded analog of the unbounded
    protocol's lead-by-two rule).
  - **T3** — each register carries a third field ``seen`` recording
    whether the owner held only a, only b, or both during the last
    completed window section; if all three registers show ``seen = v``
    *and all three currently hold value v* the reader decides v.  (The
    italicized strengthening is ours: the extended abstract's T3 is
    stated loosely, and the weaker reading admits stale-section races;
    see DESIGN.md §5 item 5.)
  - **A2** — a waiting leader whose fellow leader shows the same value
    (pref- or run-state) while the laggard is still ≥ 2 behind decides
    that value; this is Figure 1's "read equal, decide" rule.

* The re-read rule: a phase reads both other registers and then
  re-reads the one that is *ahead*, so the more advanced processor's
  value is the freshest ("the protocol works only if the value of the
  processor ahead is read last").

Safety is not taken on faith: the test suite model-checks this
implementation exhaustively over all schedules and coin outcomes to a
bounded depth and validates every Monte-Carlo trace, which is how the
interpretation choices above were settled.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, Hashable, Optional, Sequence, Tuple

from repro.core.protocol import ConsensusProtocol
from repro.errors import ProtocolError
from repro.sim.ops import Op, ReadOp, WriteOp
from repro.sim.process import Branch, RegisterSpec, deterministic, evolve


class _Mixed:
    """Sentinel for a section in which both values were held ("c")."""

    _instance = None

    def __new__(cls) -> "_Mixed":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "mixed"

    def __reduce__(self):
        return (_Mixed, ())


#: Third-field value meaning "held both values within the section".
MIXED = _Mixed()

#: The circular position ring and its checkpoints (window right-ends).
POSITIONS = tuple(range(1, 10))
CHECKPOINTS = (3, 6, 9)


def ahead(x: int, y: int) -> int:
    """Signed circular distance: how far position x is ahead of y.

    Well-defined (range −4..4) because the protocol maintains all
    registers within one width-5 window.
    """
    return ((x - y + 4) % 9) - 4


def advance(pos: int) -> int:
    """The circular successor of a position (9 wraps to 1)."""
    return pos % 9 + 1


@dataclasses.dataclass(frozen=True)
class BReg:
    """One register value: [number-field, value-field, third-field].

    ``mode``:
        "run"  — the A3-style state [pos, val];
        "wait" — the embedded two-processor state [pos, pref-val]
                 (``pos`` is then a checkpoint);
        "dec"  — decided [dec-val].
    ``val``:
        the held/preferred/decided value; ``None`` only in the initial
        (never-written) register content.
    ``seen``:
        the T3 third field — ``None`` (no completed section), a value
        (held only it), or :data:`MIXED`.
    """

    mode: str = "run"
    pos: int = 1
    val: Hashable = None
    seen: Hashable = None

    @property
    def pref(self) -> Hashable:
        """Alias letting generic adversaries read the value field."""
        return self.val

    def __repr__(self) -> str:
        if self.mode == "dec":
            return f"[dec-{self.val!r}]"
        if self.mode == "wait":
            return f"[{self.pos},pref-{self.val!r}]"
        return f"[{self.pos},{self.val!r},{self.seen!r}]"


#: Register content before the owner's initial write.
INITIAL = BReg(mode="run", pos=1, val=None, seen=None)


@dataclasses.dataclass(frozen=True)
class TBState:
    """Processor state: phase program counter plus phase-local reads.

    ``recent`` is the owner's window memory — the set of (position,
    value) pairs it has held within circular distance 4 of its current
    position; it is what the T3 ``seen`` summary is computed from when
    a checkpoint is crossed.
    """

    pc: str  # init | read1 | read2 | reread | write | decwrite | done
    reg: BReg
    recent: FrozenSet[Tuple[int, Hashable]] = frozenset()
    r_first: Optional[BReg] = None
    r_second: Optional[BReg] = None
    cand: Optional[BReg] = None
    dec_pending: Optional[Hashable] = None
    output: Optional[Hashable] = None


class ThreeBoundedProtocol(ConsensusProtocol):
    """Section 6's coordination protocol with bounded registers.

    Parameters
    ----------
    values:
        The binary input domain (exactly two values, as in the paper).
    p_heads:
        Install-probability of the per-phase coin (ablation knob).
    """

    n_processes = 3

    def __init__(self, values: Sequence[Hashable] = ("a", "b"),
                 p_heads: float = 0.5) -> None:
        super().__init__(values)
        if len(self.values) != 2:
            raise ValueError(
                "the bounded protocol is binary; compose with "
                "MultiValuedProtocol for larger domains"
            )
        if not 0.0 < p_heads < 1.0:
            raise ValueError("p_heads must be in (0, 1)")
        self._p_heads = p_heads

    def registers(self) -> Tuple[RegisterSpec, ...]:
        return tuple(
            RegisterSpec(
                name=f"r{i}",
                writers=(i,),
                readers=tuple(j for j in range(3) if j != i),
                initial=INITIAL,
            )
            for i in range(3)
        )

    def _others(self, pid: int) -> Tuple[int, int]:
        a, b = [j for j in range(3) if j != pid]
        return a, b

    # ------------------------------------------------------------------
    # Phase computation (pure; the heart of the protocol)
    # ------------------------------------------------------------------

    def _window_summary(self, recent: FrozenSet[Tuple[int, Hashable]]) -> Hashable:
        """T3 third-field value for the section being exited."""
        vals = {v for (_p, v) in recent}
        if len(vals) == 1:
            return next(iter(vals))
        return MIXED

    def _leader_value(self, own: BReg, others: Sequence[BReg]) -> Hashable:
        """Figure 3's conditions c1/c2: the value the next state carries.

        Verbatim from the paper (stated for the [m,a] family; the [m,b]
        family exchanges a and b):

        * c1 — one of the leading processors has [-,pref-a] or [-,a]
          and no leading processor has [-,pref-b]  →  carry a;
        * c2 — one of the leading processors has [-,pref-b], or all the
          leading processors have value [-,b]  →  carry b.

        The asymmetry matters: a *pref* state (a leader parked at a
        checkpoint running the embedded two-processor protocol)
        dominates run-mode values, so a processor catching up to
        waiting leaders aligns itself with the waiters' side instead of
        dragging its own value past them — which is what keeps a
        catcher-up from racing to a conflicting lead-of-two decision.
        """
        v = own.val
        w = self._other_value(v)
        regs = [own] + [o for o in others if o.mode != "dec"]
        lead = [
            r for r in regs
            if all(ahead(s.pos, r.pos) <= 0 for s in regs)
        ]
        lead_prefs = {r.val for r in lead if r.mode == "wait"}
        lead_vals = {r.val for r in lead}
        # c2 first clause: a leading pref-w wins outright (and also
        # falsifies c1's "no leading pref-w" conjunct).
        if w in lead_prefs:
            return w
        # c1: own value present among the leaders in any form.
        if v in lead_vals:
            return v
        # c2 second clause: all leaders carry w.
        if lead_vals == {w}:
            return w
        return v

    def _other_value(self, v: Hashable) -> Hashable:
        a, b = self.values
        return b if v == a else a

    def _compute(self, own: BReg, recent: FrozenSet[Tuple[int, Hashable]],
                 others: Sequence[BReg]) -> Tuple[str, Hashable]:
        """End-of-reads transition: ("dec", value) or ("cand", BReg)."""
        # T1 — adopt any visible decision.
        for o in others:
            if o.mode == "dec":
                return ("dec", o.val)

        gaps = [ahead(own.pos, o.pos) for o in others]

        if own.mode == "wait":
            return self._compute_wait(own, others, gaps)

        # T2 — both others at least two steps behind.
        if all(g >= 2 for g in gaps):
            return ("dec", own.val)

        # T3 — unanimous clean sections *and* unanimous current values.
        seens = {own.seen} | {o.seen for o in others}
        vals = {own.val} | {o.val for o in others}
        if (len(seens) == 1 and len(vals) == 1):
            s = next(iter(seens))
            v = next(iter(vals))
            if s is not None and s is not MIXED and s == v:
                return ("dec", v)

        new_val = self._leader_value(own, others)

        if own.pos in CHECKPOINTS:
            i_am_leading = all(ahead(o.pos, own.pos) <= 0 for o in others)
            laggard_far = any(g >= 2 for g in gaps)
            # Checkpoint gate: a leader may not leave a checkpoint while
            # the laggard is two or more behind — it waits in the
            # embedded two-processor protocol instead.
            if i_am_leading and laggard_far:
                return ("cand", BReg(mode="wait", pos=own.pos,
                                     val=new_val, seen=own.seen))
            # Crossing past visible waiters: a waiter parked at this
            # checkpoint may already hold a pending agreement decision,
            # so a catcher-up may carry only the value the others
            # unanimously show; on a mixed view it holds its position
            # until the embedded protocol resolves (a dec appears, the
            # waiters exit, or their values align).
            if any(o.mode == "wait" for o in others):
                shown = {o.val for o in others}
                if len(shown) != 1:
                    return ("cand", own)  # hold (rewrite old value)
                new_val = next(iter(shown))

        # Ordinary advance (crossing a checkpoint updates the third field).
        new_pos = advance(own.pos)
        if own.pos in CHECKPOINTS:
            new_seen = self._window_summary(recent)
        else:
            new_seen = own.seen
        return ("cand", BReg(mode="run", pos=new_pos, val=new_val,
                             seen=new_seen))

    def _compute_wait(self, own: BReg, others: Sequence[BReg],
                      gaps: Sequence[int]) -> Tuple[str, Hashable]:
        """Wait-mode phase: the embedded two-processor protocol."""
        c = own.pos
        # Everyone within one step again: resume the main protocol.
        if all(g <= 1 for g in gaps):
            return ("cand", BReg(mode="run", pos=c, val=own.val,
                                 seen=own.seen))
        # Identify the fellow leader (within one of the checkpoint) and
        # the laggard (two or more behind).
        fellow = None
        for o, g in zip(others, gaps):
            if g <= 1:
                fellow = o
        if fellow is None:
            # Both others far behind; hold position (T2 does not apply
            # in wait mode — we are no longer in a [-,v] run state).
            return ("cand", own)
        # Figure 1's rule: equal values decide...
        if fellow.val == own.val and fellow.val is not None:
            return ("dec", own.val)
        # ...different values flip: adopt the fellow's value (the coin's
        # retain-half plays the role of "rewrite own value").
        adopted = fellow.val if fellow.val is not None else own.val
        return ("cand", BReg(mode="wait", pos=c, val=adopted,
                             seen=own.seen))

    # ------------------------------------------------------------------
    # Automaton interface
    # ------------------------------------------------------------------

    def initial_state(self, pid: int, input_value: Hashable) -> TBState:
        self.check_input(input_value)
        reg = BReg(mode="run", pos=1, val=input_value, seen=None)
        return TBState(pc="init", reg=reg,
                       recent=frozenset({(1, input_value)}))

    def branches(self, pid: int, state: TBState) -> Sequence[Branch]:
        own_reg = f"r{pid}"
        o1, o2 = self._others(pid)
        if state.pc == "init":
            return deterministic(WriteOp(own_reg, state.reg))
        if state.pc == "read1":
            return deterministic(ReadOp(f"r{o1}"))
        if state.pc == "read2":
            return deterministic(ReadOp(f"r{o2}"))
        if state.pc == "reread":
            return deterministic(ReadOp(f"r{o1}"))
        if state.pc == "decwrite":
            return deterministic(
                WriteOp(own_reg, BReg(mode="dec", pos=0,
                                      val=state.dec_pending, seen=None))
            )
        if state.pc == "write":
            return (
                Branch(self._p_heads, WriteOp(own_reg, state.cand)),
                Branch(1.0 - self._p_heads, WriteOp(own_reg, state.reg)),
            )
        raise ProtocolError(f"branches() on terminal state {state!r}")

    def _finish_reads(self, state: TBState, first: BReg,
                      second: BReg) -> TBState:
        kind, payload = self._compute(state.reg, state.recent,
                                      (first, second))
        if kind == "dec":
            return evolve(
                state, pc="decwrite", r_first=first, r_second=second,
                dec_pending=payload,
            )
        return evolve(
            state, pc="write", r_first=first, r_second=second, cand=payload,
        )

    def observe(self, pid: int, state: TBState, op: Op,
                result: Hashable) -> TBState:
        if state.pc == "init":
            return evolve(state, pc="read1")
        if state.pc == "read1":
            return evolve(state, pc="read2", r_first=result)
        if state.pc == "read2":
            first, second = state.r_first, result
            # Re-read rule: the processor ahead must be read last.  If
            # the first-read register is ahead of the second, read it
            # again (decided registers never need a re-read: T1 wins).
            if (first.mode != "dec" and second.mode != "dec"
                    and ahead(first.pos, second.pos) > 0):
                return evolve(
                    state, pc="reread", r_second=second
                )
            return self._finish_reads(state, first, second)
        if state.pc == "reread":
            return self._finish_reads(state, result, state.r_second)
        if state.pc == "decwrite":
            return evolve(
                state, pc="done", reg=op.value, output=state.dec_pending
            )
        if state.pc == "write":
            assert isinstance(op, WriteOp)
            written: BReg = op.value
            if written == state.reg:
                # Tails: the old value was rewritten; nothing changes.
                return evolve(state, pc="read1")
            recent = {
                (p, v) for (p, v) in state.recent
                if 0 <= ahead(written.pos, p) <= 4
            }
            recent.add((written.pos, written.val))
            return evolve(
                state, pc="read1", reg=written, recent=frozenset(recent)
            )
        raise ProtocolError(f"observe() on terminal state {state!r}")

    def output(self, pid: int, state: TBState) -> Optional[Hashable]:
        return state.output

    def describe_state(self, pid: int, state: TBState) -> str:
        if state.pc == "done":
            return f"P{pid}: decided {state.output!r}"
        return f"P{pid}: pc={state.pc} reg={state.reg!r}"
