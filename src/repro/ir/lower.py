"""Lowering finite protocols to the integer table IR.

The paper's protocols are finite automata over shared registers: a
processor's next move depends only on its automaton state, and every
register ever holds one of finitely many values.  The kernel's
:class:`~repro.sim.transitions.TransitionCache` already memoizes
per-``(pid, state)`` branch distributions; this module finishes the
thought and lowers the whole protocol to *pure integer arrays*:

* automaton states become dense **state ids** (interned per
  ``(pid, state)`` pair, like the cache's keys),
* register values and decision values become dense **value ids**
  (shared across registers, inputs, and decisions),
* each state's branch distribution becomes a contiguous run of
  **branch rows** plus its weight total (summed in the exact order of
  :meth:`~repro.sim.rng.ReplayableRng.choice_index`),
* each branch becomes one row of flat **opcode arrays** (read/write
  flag, register slot, write-value id),
* ``observe``/``output`` become **outcome tables**: a write branch maps
  to one successor state id, a read branch maps each readable value id
  to one successor state id, and every state carries its decided-value
  id (``-1`` while undecided).

The result is a :class:`CompiledProtocol` that any engine can step
without touching a single protocol object — the table engine
(:mod:`repro.ir.vector`) steps runs over these arrays, and the model
checker can BFS over integer configurations.  The full layout, the
lowering rules, and the determinism contract are specified in
docs/IR.md.

Two compilation modes (docs/IR.md §6):

**Lazy** (the default, used by ``engine="vector"``): states and read
outcomes are interned on demand, exactly like the transition cache.
This admits protocols whose *reachable-in-k-steps* space is finite for
every k even when the full space is unbounded (the n-process protocol's
``num`` field grows without bound, but any bounded batch only ever sees
finitely many values).

**Closed** (:meth:`CompiledProtocol.close`, used by the checker and the
refusal tests): eagerly computes the whole joint fixpoint over states
and per-slot value domains.  Protocols with an unbounded reachable
space — the three-process *unbounded* protocol, anything counting — hit
``max_states``/``max_values`` and **refuse to compile** with
:class:`IRCompileError`.  Protocols whose branches perform anything but
shared-register ``ReadOp``/``WriteOp`` (e.g. message-passing ops)
refuse in either mode with :class:`IRUnsupportedError`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.sim.config import Configuration, RegisterLayout
from repro.sim.ops import ReadOp, WriteOp
from repro.sim.process import Automaton


class IRCompileError(ReproError):
    """A protocol could not be lowered to a finite table IR.

    Raised when interning exceeds the ``max_states``/``max_values``
    budget — the signature of an unbounded protocol (e.g. the
    three-process unbounded protocol's ever-growing ``num`` fields)
    under closed compilation, or of a runaway batch under lazy
    compilation.  See docs/IR.md §6 (refusal cases).
    """


class IRUnsupportedError(ReproError):
    """A protocol, scheduler, or memory model is outside the IR subset.

    The table IR covers shared-register ``ReadOp``/``WriteOp`` automata
    under atomic memory and state-blind schedulers; anything else
    (message-passing ops, adaptive adversaries, weak registers) must
    use the interpreted engines.  See docs/IR.md §6.
    """


#: Default interning budgets.  Lazy compilation is bounded by the batch
#: itself (a B-run, M-step batch can intern at most O(B*M) states), so
#: its cap is a runaway backstop; closed compilation uses the cap as
#: the finiteness test and refuses protocols that exceed it.
MAX_STATES = 1 << 20
MAX_VALUES = 1 << 20


class CompiledProtocol:
    """A protocol lowered to append-only integer tables.

    All tables are plain Python lists (exact ints/floats) so interning
    can grow them in place.  Indices:

    ``sid``
        state id — one per interned ``(pid, state)`` pair.
    ``vid``
        value id — one per interned register/input/decision value.
    ``b``
        flat branch id — ``state_base[sid] + branch_index`` for the
        branches of ``sid``, laid out contiguously in branch order.

    See docs/IR.md §2 for the field-by-field layout specification.
    """

    def __init__(self, protocol: Automaton,
                 layout: Optional[RegisterLayout] = None,
                 strict: bool = True,
                 max_states: int = MAX_STATES,
                 max_values: int = MAX_VALUES) -> None:
        self.protocol = protocol
        self.layout = layout if layout is not None \
            else RegisterLayout.for_protocol(protocol)
        self.strict = strict
        self.max_states = max_states
        self.max_values = max_values
        self.n_processes = protocol.n_processes
        self.n_slots = len(self.layout)
        self.slot_names: Tuple[str, ...] = tuple(
            spec.name for spec in self.layout.specs)

        # -- value intern table ---------------------------------------
        self.values: List[Hashable] = []
        self._value_ids: Dict[Hashable, int] = {}

        # -- state tables (one row per sid) ---------------------------
        self.state_pid: List[int] = []
        self.state_obj: List[Hashable] = []
        #: branch count; 0 = decided terminal, -1 = not yet compiled.
        self.state_nb: List[int] = []
        #: first flat branch id (-1 until compiled).
        self.state_base: List[int] = []
        #: decided-value vid, or -1 while undecided.
        self.state_out: List[int] = []
        #: ``float(sum(weights))`` for multi-branch states, else 0.0.
        self.state_total: List[float] = []
        self._state_ids: Dict[Tuple[int, Hashable], int] = {}

        # -- branch tables (one row per flat branch id) ---------------
        self.br_is_read: List[int] = []
        self.br_slot: List[int] = []
        #: written value's vid (writes), -1 (reads).
        self.br_write: List[int] = []
        self.br_prob: List[float] = []
        #: the original Op object (journal/trace reconstruction).
        self.br_op: List[object] = []
        #: owning state id (outcome computation, error messages).
        self.br_state: List[int] = []
        #: read branches: ``{vid: successor sid}``; None for writes.
        self.br_read_out: List[Optional[Dict[int, int]]] = []
        #: write branches: successor sid; -1 for reads.
        self.br_write_next: List[int] = []

        # -- initial configuration ------------------------------------
        self.init_regs: Tuple[int, ...] = tuple(
            self.intern_value(v) for v in self.layout.initial_values())
        self._initial_ids: Dict[Tuple[int, Hashable], int] = {}

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------

    def intern_value(self, value: Hashable) -> int:
        """Return (assigning if new) the dense id of a register value."""
        vid = self._value_ids.get(value)
        if vid is None:
            if len(self.values) >= self.max_values:
                raise IRCompileError(
                    f"{self.protocol.name}: value domain exceeded "
                    f"max_values={self.max_values} — the register value "
                    f"space is unbounded (or raise the budget)")
            vid = len(self.values)
            self.values.append(value)
            self._value_ids[value] = vid
        return vid

    def intern_state(self, pid: int, state: Hashable) -> int:
        """Return (assigning if new) the dense id of ``(pid, state)``.

        The state's decided value (:meth:`Automaton.output`) is
        resolved eagerly at interning so engines can test termination
        with one array lookup; branch lowering stays lazy (see
        :meth:`ensure_compiled`).
        """
        key = (pid, state)
        sid = self._state_ids.get(key)
        if sid is None:
            if len(self.state_pid) >= self.max_states:
                raise IRCompileError(
                    f"{self.protocol.name}: state space exceeded "
                    f"max_states={self.max_states} — the reachable "
                    f"automaton is unbounded (or raise the budget)")
            sid = len(self.state_pid)
            out = self.protocol.output(pid, state)
            self.state_pid.append(pid)
            self.state_obj.append(state)
            self.state_out.append(
                -1 if out is None else self.intern_value(out))
            self.state_nb.append(0 if out is not None else -1)
            self.state_base.append(-1)
            self.state_total.append(0.0)
            self._state_ids[key] = sid
        return sid

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------

    def ensure_compiled(self, sid: int) -> None:
        """Lower state ``sid``'s branch distribution into the tables.

        Mirrors :meth:`TransitionCache._build`: resolve each branch's
        op to a (kind, slot, write-vid) triple with the access check
        performed once, validate the distribution once under
        ``strict``, and precompute the weight total fed to the
        engines' coin flips.  Write-branch successors are resolved
        eagerly (``observe`` of a write does not depend on memory);
        read-branch successors stay lazy per observed value
        (:meth:`read_outcome`).
        """
        if self.state_nb[sid] >= 0:
            return
        protocol = self.protocol
        pid = self.state_pid[sid]
        state = self.state_obj[sid]
        branches = tuple(protocol.branches(pid, state))
        if self.strict:
            protocol.validate_branches(branches)
        base = len(self.br_is_read)
        for branch in branches:
            op = branch.op
            if isinstance(op, ReadOp):
                slot = self.layout.check_read(pid, op.register)
                is_read, wvid = 1, -1
                read_out: Optional[Dict[int, int]] = {}
                write_next = -1
            elif isinstance(op, WriteOp):
                slot = self.layout.check_write(pid, op.register)
                is_read, wvid = 0, self.intern_value(op.value)
                read_out = None
                new_state = protocol.observe(pid, state, op, None)
                write_next = self.intern_state(pid, new_state)
            else:
                raise IRUnsupportedError(
                    f"{protocol.name}: cannot lower op {op!r} — the "
                    f"table IR supports shared-register ReadOp/WriteOp "
                    f"only (message-passing and custom ops must use "
                    f"the interpreted engines; docs/IR.md §6)")
            self.br_is_read.append(is_read)
            self.br_slot.append(slot)
            self.br_write.append(wvid)
            self.br_prob.append(branch.probability)
            self.br_op.append(op)
            self.br_state.append(sid)
            self.br_read_out.append(read_out)
            self.br_write_next.append(write_next)
        if len(branches) > 1:
            self.state_total[sid] = float(
                sum(b.probability for b in branches))
        self.state_base[sid] = base
        self.state_nb[sid] = len(branches)

    def read_outcome(self, b: int, vid: int) -> int:
        """Successor sid of read branch ``b`` observing value ``vid``.

        Fills the cell on first use (``observe`` + interning, possibly
        discovering a new state).
        """
        table = self.br_read_out[b]
        sid = table.get(vid)
        if sid is None:
            owner = self.br_state[b]
            pid = self.state_pid[owner]
            new_state = self.protocol.observe(
                pid, self.state_obj[owner], self.br_op[b], self.values[vid])
            sid = self.intern_state(pid, new_state)
            table[vid] = sid
        return sid

    def initial_sid(self, pid: int, input_value: Hashable) -> int:
        """State id of ``initial_state(pid, input_value)`` (memoized)."""
        key = (pid, input_value)
        sid = self._initial_ids.get(key)
        if sid is None:
            state = self.protocol.initial_state(pid, input_value)
            sid = self.intern_state(pid, state)
            self._initial_ids[key] = sid
        return sid

    def initial_sids(self, inputs: Sequence[Hashable]) -> Tuple[int, ...]:
        """Per-processor initial state ids for one input assignment."""
        if len(inputs) != self.n_processes:
            raise ValueError(
                f"expected {self.n_processes} inputs, got {len(inputs)}")
        return tuple(self.initial_sid(pid, value)
                     for pid, value in enumerate(inputs))

    # ------------------------------------------------------------------
    # Closed (eager fixpoint) compilation
    # ------------------------------------------------------------------

    def close(self, input_sets: Sequence[Sequence[Hashable]]) -> None:
        """Eagerly compile the joint reachable space (docs/IR.md §6).

        Runs the fixpoint over (a) every state reachable from the
        seeded initial assignments and (b) every value each register
        slot can ever hold: write branches grow their slot's domain,
        domain growth re-visits every read branch on that slot, and
        read outcomes discover new states.  Terminates exactly when
        the protocol is finite over the given inputs; an unbounded
        protocol (three_unbounded, n_process) exhausts ``max_states``
        or ``max_values`` and raises :class:`IRCompileError` — this is
        the IR's *refusal* behavior, exercised by the checker path.
        """
        slot_dom: List[set] = [set() for _ in range(self.n_slots)]
        slot_readers: List[List[int]] = [[] for _ in range(self.n_slots)]
        for slot, vid in enumerate(self.init_regs):
            slot_dom[slot].add(vid)

        state_queue: List[int] = list(range(self.n_states))
        for inputs in input_sets:
            for sid in self.initial_sids(inputs):
                state_queue.append(sid)
        seen_states = set(state_queue)
        # (b, vid) read-outcome work items.
        read_queue: List[Tuple[int, int]] = []

        def register_branches(lo: int, hi: int) -> None:
            for b in range(lo, hi):
                slot = self.br_slot[b]
                if self.br_is_read[b]:
                    slot_readers[slot].append(b)
                    for vid in slot_dom[slot]:
                        read_queue.append((b, vid))
                else:
                    wvid = self.br_write[b]
                    if wvid not in slot_dom[slot]:
                        slot_dom[slot].add(wvid)
                        for rb in slot_readers[slot]:
                            read_queue.append((rb, wvid))
                    nxt = self.br_write_next[b]
                    if nxt not in seen_states:
                        seen_states.add(nxt)
                        state_queue.append(nxt)

        # Branches lowered lazily before close() was called still need
        # their reader/domain registration.
        visited_compiled = set()

        def visit_state(sid: int) -> None:
            if sid in visited_compiled:
                return
            visited_compiled.add(sid)
            if self.state_out[sid] >= 0:
                return  # terminal: never stepped, nothing to lower
            base_before = len(self.br_is_read)
            self.ensure_compiled(sid)
            if self.state_nb[sid] > 0 and self.state_base[sid] < base_before:
                # Pre-existing lazy compile: register its branch range.
                register_branches(
                    self.state_base[sid],
                    self.state_base[sid] + self.state_nb[sid])
            else:
                register_branches(base_before, len(self.br_is_read))

        while state_queue or read_queue:
            while state_queue:
                visit_state(state_queue.pop())
            while read_queue:
                b, vid = read_queue.pop()
                nxt = self.read_outcome(b, vid)
                if nxt not in seen_states:
                    seen_states.add(nxt)
                    state_queue.append(nxt)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.state_pid)

    @property
    def n_branches(self) -> int:
        return len(self.br_is_read)

    @property
    def n_values(self) -> int:
        return len(self.values)

    def value_of(self, vid: int) -> Hashable:
        return self.values[vid]

    def state_of(self, sid: int) -> Hashable:
        return self.state_obj[sid]

    def decode_configuration(self, sids: Sequence[int],
                             reg_vids: Sequence[int],
                             pend: Sequence[Tuple[int, int, int]] = ()) \
            -> Configuration:
        """Rebuild the object-level :class:`Configuration` of an IR one.

        ``pend`` carries the packed weak-memory pending-write triples
        ``(writer, slot, vid)`` in writer order; it decodes to the
        :attr:`Configuration.mem` snapshot shape (``None`` when empty),
        matching :meth:`repro.sim.weak.RegularMemory.snapshot`.
        """
        return Configuration(
            states=tuple(self.state_obj[s] for s in sids),
            registers=tuple(self.values[v] for v in reg_vids),
            mem=(tuple((w, s, self.values[v]) for w, s, v in pend)
                 if pend else None),
        )

    def encode_configuration(self, config: Configuration) \
            -> Tuple[Tuple[int, ...], Tuple[int, ...],
                     Tuple[Tuple[int, int, int], ...]]:
        """Pack an object-level configuration into interned vectors.

        The inverse of :meth:`decode_configuration`: per-processor
        state ids, per-slot value ids, and the pending-write triples
        ``(writer, slot, vid)`` (empty for atomic/quiescent
        configurations).  Interns on demand, so encoding a
        configuration the tables have never seen is legal — the
        differential suites use this to fingerprint object-BFS graphs
        through the same tables the fingerprint engine used.
        """
        sids = tuple(self.intern_state(pid, state)
                     for pid, state in enumerate(config.states))
        regs = tuple(self.intern_value(v) for v in config.registers)
        pend: Tuple[Tuple[int, int, int], ...] = ()
        if config.mem is not None:
            pend = tuple((w, s, self.intern_value(v))
                         for w, s, v in config.mem)
        return sids, regs, pend

    def describe(self) -> Dict[str, int]:
        """Table sizes, for logs/benchmarks and the CLI."""
        return {
            "states": self.n_states,
            "branches": self.n_branches,
            "values": self.n_values,
            "slots": self.n_slots,
        }


def compile_protocol(protocol: Automaton,
                     input_sets: Sequence[Sequence[Hashable]] = (),
                     *,
                     layout: Optional[RegisterLayout] = None,
                     strict: bool = True,
                     closed: bool = False,
                     max_states: int = MAX_STATES,
                     max_values: int = MAX_VALUES) -> CompiledProtocol:
    """Lower ``protocol`` to a :class:`CompiledProtocol`.

    ``input_sets`` seeds the initial states (one tuple per distinct
    input assignment the batch will run; lazy mode accepts further
    assignments later through :meth:`CompiledProtocol.initial_sids`).
    ``closed=True`` additionally runs the eager reachability fixpoint —
    required by the model checker, and the mode in which unbounded
    protocols refuse with :class:`IRCompileError` (docs/IR.md §6).
    """
    compiled = CompiledProtocol(protocol, layout=layout, strict=strict,
                                max_states=max_states,
                                max_values=max_values)
    for inputs in input_sets:
        compiled.initial_sids(tuple(inputs))
    if closed:
        compiled.close([tuple(i) for i in input_sets])
    return compiled
