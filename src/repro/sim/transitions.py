"""Memoized automaton transitions: the kernel's fast-path lookup tables.

The simulation kernel executes the same small set of automaton states
over and over — a protocol's reachable ``(pid, state)`` pairs number in
the dozens while a Monte-Carlo batch takes millions of steps.  The seed
kernel nevertheless re-derived everything from scratch on every step:
``protocol.branches()`` rebuilt the branch tuple (allocating fresh op
objects), ``validate_branches`` re-checked the same distribution,
``layout.check_read``/``check_write`` re-resolved the same register
slots, and ``protocol.observe``/``output`` re-computed the same state
transitions.

:class:`TransitionCache` memoizes all of it, keyed by ``(pid, state)``:

* the branch tuple and its probability-weight list (fed unchanged to
  :meth:`~repro.sim.rng.ReplayableRng.choice_index`, so the coin-flip
  draw sequence is bit-identical to the uncached path),
* per-branch execution plans ``(op, is_read, slot, write_value)`` with
  the access-control check already performed,
* per-branch outcome tables mapping the operation result (the value
  read; ``None`` for writes) to ``(new_state, decided)``,
* the ``num`` depth of each write branch's value, which a metrics
  run tally counts (:mod:`repro.obs.metrics`).

**Contract.**  Memoization is sound only for automata that follow the
:class:`~repro.sim.process.Automaton` contract:

* states (and register values) are hashable and compared by value,
* ``branches(pid, state)`` is *transition-stable* — it returns the same
  distribution every time it is called with the same arguments,
* ``observe`` and ``output`` are pure functions of their arguments
  (the docstrings already require this: all randomness lives in
  ``branches``).

Every protocol in :mod:`repro.core` and :mod:`repro.apps` satisfies
this; a protocol that does not must run with ``Simulation(...,
engine="reference")`` (see docs/PERFORMANCE.md).

A cache may be shared across many :class:`~repro.sim.kernel.Simulation`
instances — the runner shares one per batch, which also amortizes the
register-layout construction and the initial-state derivation across
runs.  Sharing is sound whenever the simulations execute *equivalent*
protocols (same type and parameters), which the
:class:`~repro.sim.runner.ExperimentRunner` factory contract already
guarantees.

:mod:`repro.ir.lower` is this module's logical successor one level
down: it performs the same lowering :meth:`TransitionCache._build`
does — branch tuple, weight sums in the same accumulation order,
access-checked slots, memoized observe/output — but into flat integer
arrays instead of per-state objects, so an engine can step runs
through the tables (docs/IR.md §3 maps each cache field to its table
twin).  The cache remains the fast path and the engine of record for
everything the IR refuses (docs/IR.md §6).

**Pure schedulers.**  The cache also holds the batch's memo of *pure*
schedulers' choices (:meth:`TransitionCache.choice`): a scheduler
class that declares ``pure_choice = True`` promises that ``choose``
reads only the view's processor states, committed registers and
``enabled`` (the paper's adversary: a function of the configuration),
so under atomic memory the kernel consults it once per configuration
and batch.  Sharing is sound for the reason sharing the transitions
is: the runner's factory contract gives every run an equivalent
scheduler.  Configurations that compare equal share one choice, as
they share one checker node.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence, Tuple

from repro.errors import ProtocolError
from repro.obs.metrics import num_depth_of
from repro.sim.config import RegisterLayout
from repro.sim.ops import ReadOp, WriteOp
from repro.sim.process import Automaton


class Outcome:
    """The memoized result of one branch of one ``(pid, state)``.

    ``state`` and ``decided`` are what :meth:`Automaton.observe` and
    :meth:`Automaton.output` produce for the branch's operation result;
    ``next_entry`` is the successor state's own
    :class:`CachedTransition` (``None`` once decided).  ``memo`` starts
    ``None``: a transition sink
    (:meth:`repro.obs.hooks.BaseSink.on_transition`) may keep what it
    derives from the outcome there, with the result object it derived
    it from in ``memo_result`` — results that compare equal share one
    outcome (``True``, ``1`` and ``1.0`` do), so a memo that depends on
    the result's exact type must check that first.
    """

    __slots__ = ("state", "decided", "next_entry", "memo", "memo_result")

    def __init__(self, state, decided, next_entry) -> None:
        self.state = state
        self.decided = decided
        self.next_entry = next_entry
        self.memo = None
        self.memo_result = None


class CachedTransition:
    """The memoized transition table of one ``(pid, state)`` pair.

    ``weights`` is ``None`` for deterministic (single-branch) states so
    the kernel can skip the coin flip without touching the RNG
    (``total`` is the weights' precomputed sum, fed back to
    :meth:`~repro.sim.rng.ReplayableRng.choice_index` so the sum is not
    recomputed per flip).  ``execs[i]`` is branch *i*'s execution plan
    ``(op, is_read, slot, write_value)``; ``outcomes[i]`` maps the
    operation result to its :class:`Outcome`, whose ``next_entry`` lets
    the kernel's inner loop follow transitions pointer-to-pointer
    instead of re-hashing the state every step.  ``depths[i]`` is the
    ``num``
    depth of branch *i*'s written value (``None`` for reads and for
    values without one).
    """

    __slots__ = ("branches", "weights", "total", "execs", "depths",
                 "outcomes")

    def __init__(self, branches, weights, total, execs) -> None:
        self.branches = branches
        self.weights = weights
        self.total = total
        self.execs = execs
        self.depths = tuple(None if is_read else num_depth_of(value)
                            for _, is_read, _, value in execs)
        self.outcomes: Tuple[Dict[Hashable, Outcome], ...] = tuple(
            {} for _ in branches
        )


class Choice:
    """A pure scheduler's memoized action in one configuration.

    ``action`` is what ``choose`` returned there (``None`` until it is
    first consulted); ``next`` maps each :class:`Outcome` a step took
    from this configuration to the successor configuration's
    ``Choice``.  Under atomic memory an outcome fixes the successor
    (the stepping processor's new state and, for a write, the slot and
    value), so the kernel follows ``next`` without rebuilding or
    hashing the configuration.
    """

    __slots__ = ("action", "next")

    def __init__(self) -> None:
        self.action = None
        self.next: Dict[Outcome, "Choice"] = {}


#: Most configurations one pure scheduler class memoizes per cache;
#: past it, unmemoized configurations are consulted as usual.
MAX_CHOICES = 1 << 16


def declares_pure_choice(cls: type) -> bool:
    """Whether the class defining ``cls``'s ``choose`` sets
    ``pure_choice = True`` itself, so a subclass overriding ``choose``
    never inherits the declaration."""
    for klass in cls.__mro__:
        if "choose" in vars(klass):
            return vars(klass).get("pure_choice", False) is True
    return False


class TransitionCache:
    """Per-protocol memo of branch distributions, slots, and outcomes.

    Parameters
    ----------
    protocol:
        The automaton whose transitions are cached.  Entries built
        lazily always consult *this* instance, so a cache shared across
        simulations must only be used with equivalent protocols.
    layout:
        The register layout to resolve slots against; built from the
        protocol when omitted.  Simulations constructed with a cache
        reuse this layout instead of rebuilding their own.
    strict:
        Validate each state's branch distribution (once, at entry
        build) — the cached analog of the kernel's per-step strict
        mode.
    max_entries:
        Safety valve for automata with very large state spaces (e.g.
        the unbounded protocol's ``num`` fields under adversarial
        schedules): past this many memoized pairs, lookups still work
        but new entries are computed without being stored.
    """

    __slots__ = ("protocol", "layout", "strict", "max_entries",
                 "entries", "_initial_states", "_initial_registers",
                 "_outputs", "_choices")

    def __init__(self, protocol: Automaton,
                 layout: Optional[RegisterLayout] = None,
                 strict: bool = True,
                 max_entries: int = 1 << 20) -> None:
        self.protocol = protocol
        self.layout = layout if layout is not None \
            else RegisterLayout.for_protocol(protocol)
        self.strict = strict
        self.max_entries = max_entries
        #: ``(pid, state) -> CachedTransition`` — read directly by the
        #: kernel's inner loop; populate through :meth:`entry`.
        self.entries: Dict[tuple, CachedTransition] = {}
        self._initial_states: Dict[tuple, tuple] = {}
        self._initial_registers: Optional[tuple] = None
        self._outputs: Dict[tuple, Optional[Hashable]] = {}
        #: scheduler class -> its configuration memo, or ``None`` for a
        #: class that does not declare ``pure_choice``.
        self._choices: Dict[type, Optional[Dict[tuple, Choice]]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, pid: int, state: Hashable) -> CachedTransition:
        """Return (building if needed) the transition table of a state."""
        key = (pid, state)
        entry = self.entries.get(key)
        if entry is None:
            entry = self._build(pid, state)
            if len(self.entries) < self.max_entries:
                self.entries[key] = entry
        return entry

    def _build(self, pid: int, state: Hashable) -> CachedTransition:
        protocol = self.protocol
        layout = self.layout
        branches = tuple(protocol.branches(pid, state))
        if self.strict:
            protocol.validate_branches(branches)
        execs = []
        for branch in branches:
            op = branch.op
            if isinstance(op, ReadOp):
                execs.append((op, True, layout.check_read(pid, op.register),
                              None))
            elif isinstance(op, WriteOp):
                execs.append((op, False, layout.check_write(pid, op.register),
                              op.value))
            else:
                raise ProtocolError(f"unknown operation {op!r}")
        if len(branches) > 1:
            weights = [b.probability for b in branches]
            total = float(sum(weights))
        else:
            weights = None
            total = 0.0
        return CachedTransition(branches, weights, total, tuple(execs))

    def outcome(self, pid: int, state: Hashable,
                entry: CachedTransition, branch_index: int,
                result: Hashable) -> Outcome:
        """The memoized :class:`Outcome` of one branch and result."""
        table = entry.outcomes[branch_index]
        out = table.get(result)
        if out is None:
            op = entry.execs[branch_index][0]
            new_state = self.protocol.observe(pid, state, op, result)
            decided = self.protocol.output(pid, new_state)
            next_entry = None if decided is not None \
                else self.entry(pid, new_state)
            out = Outcome(new_state, decided, next_entry)
            table[result] = out
        return out

    def output(self, pid: int, state: Hashable) -> Optional[Hashable]:
        """Memoized :meth:`Automaton.output` (used by the explorer)."""
        key = (pid, state)
        try:
            return self._outputs[key]
        except KeyError:
            value = self.protocol.output(pid, state)
            if len(self._outputs) < self.max_entries:
                self._outputs[key] = value
            return value

    def choice(self, scheduler_class: type, states: Sequence[Hashable],
               registers: Sequence[Hashable],
               enabled: Tuple[int, ...]) -> Optional[Choice]:
        """The memoized :class:`Choice` of a pure scheduler class in a
        configuration, or ``None`` when the class declares no
        ``pure_choice`` or its memo is full."""
        memo = self._choices.get(scheduler_class, False)
        if memo is False:
            memo = self._choices[scheduler_class] = (
                {} if declares_pure_choice(scheduler_class) else None)
        if memo is None:
            return None
        key = (tuple(states), tuple(registers), enabled)
        node = memo.get(key)
        if node is None and len(memo) < MAX_CHOICES:
            node = memo[key] = Choice()
        return node

    def initial_states(self, inputs: Sequence[Hashable]) -> tuple:
        """Memoized ``(states, decisions)`` for ``inputs``.

        ``states`` is the tuple of initial processor states; ``decisions``
        maps the processors (if any) whose *initial* state already
        carries an output — degenerate protocols — to that value, saving
        the kernel a per-construction ``output`` scan.
        """
        key = tuple(inputs)
        snapshot = self._initial_states.get(key)
        if snapshot is None:
            protocol = self.protocol
            states = tuple(
                protocol.initial_state(pid, value)
                for pid, value in enumerate(key)
            )
            decisions = {}
            for pid, state in enumerate(states):
                value = protocol.output(pid, state)
                if value is not None:
                    decisions[pid] = value
            snapshot = (states, decisions)
            self._initial_states[key] = snapshot
        return snapshot

    def initial_registers(self) -> tuple:
        """Memoized initial register contents of the layout."""
        regs = self._initial_registers
        if regs is None:
            regs = self._initial_registers = self.layout.initial_values()
        return regs
