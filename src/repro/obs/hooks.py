"""The kernel's event-hook protocol and fan-out hub.

Design constraints, in order of priority:

1. **Zero cost when off.**  A :class:`~repro.sim.kernel.Simulation`
   built without sinks keeps no hub, and its step loop pays one flag
   test per site where a hub, a run tally or a trace would be fed.
   Monte-Carlo batches of millions of steps must not notice the
   instrumentation exists.
2. **Streaming, not retaining.**  Sinks see each event exactly once, in
   the global serialization order the kernel defines; nothing here
   stores events (that is what :class:`~repro.sim.trace.Trace` is for,
   and why it is memory-heavy).
3. **Open protocol.**  Any object implementing a subset of the
   :class:`BaseSink` methods can be attached; unimplemented events are
   inherited no-ops.

Event vocabulary (one method per event, mirroring the kernel):

``on_run_key``      the run's replay coordinates ``(root_seed,
                    run_index)``, delivered by the *runner* (the kernel
                    does not know them) just before ``on_run_start``
``on_run_start``    once per :meth:`Simulation.run` entry
``on_sched``        one scheduler consultation (cumulative count)
``on_coin_flip``    a probabilistic branch was sampled for ``pid``
``on_read_choices`` a weak-memory read had its value resolved from a
                    legal set (>1 choice, or a pre-committed value);
                    emitted just before the matching ``on_read``
``on_read``         a register read, with the value returned
``on_write``        a register write, with the value installed
``on_decision``     ``pid`` entered a decision state at ``activation``
``on_crash``        the scheduler fail-stopped ``pid`` before ``index``
``on_step``         end of one serialized kernel step
``on_run_end``      once per :meth:`Simulation.run` exit

``on_read_choices`` never fires under the default atomic semantics
(legal sets are singletons and no resolution happens), so sinks
written for atomic memory observe exactly the event streams they
always did.

**Per-step and run-tally sinks.**  A sink declares what it needs with
the class attribute ``per_step``.  Sinks that leave it ``True`` (the
default, and so every sink that declares nothing) receive each event
above.  A sink that sets ``per_step = False`` takes no per-step
events (``sched``, ``coin_flip``, ``read``, ``write``, ``decision``,
``step``) from the fast engine's loop.  If it overrides
:meth:`BaseSink.on_run_tally` (:class:`~repro.obs.metrics.MetricsRegistry`
does) it is a *run-tally* sink: those events arrive folded into one
:class:`RunTally` per step-loop call, counted by the loop in integer
locals.  Otherwise (:class:`~repro.obs.profiling.TimeAttributionProfiler`)
it sees run-level events only.  Run-level and cold events
(``run_key``, ``run_start``, ``run_end``, ``crash``, ``read_choices``)
reach every sink as calls.  The reference engine, vector replay and
journal replay deliver the per-step events to every sink; a tally
sink's fold must leave it exactly as those events would have.

**Transition sinks.**  A per-step sink that overrides
:meth:`BaseSink.on_transition` — in this package only
:class:`~repro.obs.journal.JsonlJournal` — takes each fast-engine step
as one call naming the memoized transition it took, instead of the
``sched``, ``coin_flip``, ``read``/``write``, ``decision`` and
``step`` events; cold events (``read_choices``, ``crash``) and the
run-level ones still arrive as calls.  Elsewhere it is fed events like
any per-step sink.

A hub sends each event only to the sinks that override its
:class:`BaseSink` no-op, so a sink pays for the events it records and
no others.  :func:`split_sinks` sorts a sink tuple once per simulation.
The kernel reads no clock.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple


class BaseSink:
    """No-op implementation of every kernel event hook.

    Subclass and override the events you care about.  Sinks must not
    mutate anything they are handed (ops and values are the kernel's
    live objects).
    """

    #: Set to False to take a fast-engine step loop's per-step events
    #: as one :meth:`on_run_tally` per loop call instead (or not at
    #: all, for a sink that does not override it).
    per_step: bool = True

    def on_run_key(self, root_seed: int, run_index: int) -> None:
        """The replay coordinates of the run about to start.

        Delivered by :meth:`ExperimentRunner.run_one` (and the
        ``solve`` entry point) before the kernel's ``on_run_start``,
        because only the runner knows which ``(root_seed, run_index)``
        pair seeded the streams.  Sinks that derive deterministic
        identifiers from the key (e.g. the span tracer's trace ids)
        override this; direct :class:`Simulation` users who bypass the
        runner simply never receive it.
        """

    def on_run_start(self, protocol_name: str, n_processes: int,
                     inputs: Tuple[Hashable, ...]) -> None:
        """A run is starting."""

    def on_sched(self, consults: int) -> None:
        """The scheduler was consulted (``consults`` is the running total)."""

    def on_coin_flip(self, pid: int, n_branches: int) -> None:
        """Processor ``pid`` resolved a coin among ``n_branches`` branches."""

    def on_read_choices(self, pid: int, register: str, n_choices: int,
                        chosen: Hashable) -> None:
        """A weak-memory read of ``register`` was resolved by the adversary.

        ``n_choices`` is the size of the legal value set and ``chosen``
        the value picked (also delivered by the following
        :meth:`on_read`).  Never emitted under atomic semantics.
        """

    def on_read(self, pid: int, register: str, value: Hashable) -> None:
        """Processor ``pid`` read ``value`` from ``register``."""

    def on_write(self, pid: int, register: str, value: Hashable) -> None:
        """Processor ``pid`` atomically wrote ``value`` to ``register``."""

    def on_decision(self, pid: int, value: Hashable, activation: int) -> None:
        """Processor ``pid`` decided ``value`` at its ``activation``-th step."""

    def on_crash(self, pid: int, index: int) -> None:
        """The scheduler fail-stopped ``pid`` before global step ``index``."""

    def on_step(self, index: int, pid: int, op, result: Hashable,
                decided: Optional[Hashable]) -> None:
        """One serialized kernel step finished."""

    def on_run_end(self, result) -> None:
        """The run finished; ``result`` is the :class:`RunResult`."""

    def on_run_tally(self, tally: "RunTally") -> None:
        """The per-step events of one fast-engine loop call, folded
        (``per_step = False`` sinks only)."""

    def on_transition(self, index: int, pid: int, entry, branch: int,
                      result: Hashable, outcome,
                      activation: int) -> None:
        """One fast-engine step, as the memoized transition it took.

        A sink that overrides this gets it in place of the step's
        per-step events.  ``entry`` is the processor's
        :class:`~repro.sim.transitions.CachedTransition` and ``branch``
        the branch taken (a coin flip was sampled iff ``entry.weights``
        is not ``None``); ``result`` is the value read (``None`` for a
        write); ``outcome`` is the
        :class:`~repro.sim.transitions.Outcome` the step took, whose
        ``memo`` slot the sink may fill; ``activation`` is ``pid``'s
        activation count after the step.
        """


class RunTally:
    """What one call of the fast engine's step loop did, as counts.

    Stands in for the per-step events of that call: ``steps`` step
    events, ``sched_consults`` consultations, ``reads`` and ``writes``
    register events, ``coin_flips`` (``pid -> flips``) coin-flip
    events, and ``decisions`` (``(pid, activation)`` in decision
    order).  Register contention depends on state from before the
    call, so it comes in three parts: ``contention`` counts writes over
    a value written earlier in the call and still unread; ``opened``
    names the registers whose first access in the call was a write (it
    contends if the register was written and unread before the call);
    ``unread`` maps every register the call touched to its final
    written-and-unread flag.  ``num_depths`` counts the ``num`` depth
    of each write that carries one, and ``last_num_depth`` is the
    depth of the last such write.
    """

    __slots__ = ("steps", "sched_consults", "reads", "writes",
                 "coin_flips", "decisions", "contention", "opened",
                 "unread", "num_depths", "last_num_depth")

    def __init__(self, steps: int, sched_consults: int, reads: int,
                 writes: int, coin_flips: Dict[int, int],
                 decisions: List[Tuple[int, int]], contention: int,
                 opened: Tuple[str, ...], unread: Dict[str, bool],
                 num_depths: Dict[int, int],
                 last_num_depth: Optional[int]) -> None:
        self.steps = steps
        self.sched_consults = sched_consults
        self.reads = reads
        self.writes = writes
        self.coin_flips = coin_flips
        self.decisions = decisions
        self.contention = contention
        self.opened = opened
        self.unread = unread
        self.num_depths = num_depths
        self.last_num_depth = last_num_depth


#: The events a hub fans out, each to the sinks that override it.
_EVENTS = ("run_key", "run_start", "sched", "coin_flip", "read_choices",
           "read", "write", "decision", "crash", "step", "run_end")

#: Sink class -> the events (``_EVENTS`` names, plus "transition" and
#: "run_tally") whose :class:`BaseSink` no-op it overrides.
_TAKEN: Dict[type, frozenset] = {}


def _taken(sink: BaseSink) -> frozenset:
    """The events ``sink``'s class overrides (its methods decide, not
    attributes set on the instance)."""
    cls = type(sink)
    taken = _TAKEN.get(cls)
    if taken is None:
        taken = _TAKEN[cls] = frozenset([
            event for event in _EVENTS + ("transition", "run_tally")
            if getattr(cls, "on_" + event, None)
            not in (None, getattr(BaseSink, "on_" + event))])
    return taken


class ObsHub:
    """Fans kernel events out to a tuple of sinks.

    The kernel holds either ``None`` (nothing attached — the fast path)
    or one hub.  Hub methods are plain loops over the sinks that
    override the event (chosen once, here): a sink costs one call per
    event it records, and the events it leaves to the :class:`BaseSink`
    no-ops cost it nothing.
    """

    __slots__ = ("sinks",) + tuple(
        "_" + event for event in _EVENTS)

    def __init__(self, sinks: Iterable[BaseSink]) -> None:
        self.sinks: Tuple[BaseSink, ...] = tuple(sinks)
        taken = [_taken(s) for s in self.sinks]
        for event in _EVENTS:
            setattr(self, "_" + event, tuple([
                s for s, t in zip(self.sinks, taken) if event in t]))

    def __len__(self) -> int:
        return len(self.sinks)

    def run_key(self, root_seed: int, run_index: int) -> None:
        for s in self._run_key:
            s.on_run_key(root_seed, run_index)

    def run_start(self, protocol_name: str, n_processes: int,
                  inputs: Tuple[Hashable, ...]) -> None:
        for s in self._run_start:
            s.on_run_start(protocol_name, n_processes, inputs)

    def sched(self, consults: int) -> None:
        for s in self._sched:
            s.on_sched(consults)

    def coin_flip(self, pid: int, n_branches: int) -> None:
        for s in self._coin_flip:
            s.on_coin_flip(pid, n_branches)

    def read_choices(self, pid: int, register: str, n_choices: int,
                     chosen: Hashable) -> None:
        for s in self._read_choices:
            s.on_read_choices(pid, register, n_choices, chosen)

    def read(self, pid: int, register: str, value: Hashable) -> None:
        for s in self._read:
            s.on_read(pid, register, value)

    def write(self, pid: int, register: str, value: Hashable) -> None:
        for s in self._write:
            s.on_write(pid, register, value)

    def decision(self, pid: int, value: Hashable, activation: int) -> None:
        for s in self._decision:
            s.on_decision(pid, value, activation)

    def crash(self, pid: int, index: int) -> None:
        for s in self._crash:
            s.on_crash(pid, index)

    def step(self, index: int, pid: int, op, result: Hashable,
             decided: Optional[Hashable]) -> None:
        for s in self._step:
            s.on_step(index, pid, op, result, decided)

    def run_end(self, result) -> None:
        for s in self._run_end:
            s.on_run_end(result)


def make_hub(sinks: Optional[Sequence[BaseSink]]) -> Optional[ObsHub]:
    """Build a hub, or ``None`` when there is nothing to notify."""
    if not sinks:
        return None
    return ObsHub(sinks)


#: The last :func:`split_sinks` answer and the sinks tuple it was for.
#: A runner builds one simulation per run, all from one tuple, and hubs
#: keep no state of their own, so its runs share one split.
_last_split: Optional[tuple] = None


def split_sinks(sinks: Optional[Sequence[BaseSink]], fold: bool
                ) -> Tuple[Optional[ObsHub], Optional[ObsHub],
                           Optional[Tuple[BaseSink, ...]],
                           Optional[Tuple[BaseSink, ...]]]:
    """``(hub, step_hub, tally_sinks, transition_sinks)`` for a
    simulation's sinks.

    ``hub`` fans run-level and cold events out to every sink;
    ``step_hub`` carries the per-step events.  With ``fold`` (the fast
    engine) sinks declaring ``per_step = False`` leave the step hub,
    those among them overriding :meth:`BaseSink.on_run_tally` are
    returned as ``tally_sinks``, and sinks overriding
    :meth:`BaseSink.on_transition` leave it as ``transition_sinks``;
    otherwise every sink is per-step and both are ``None``.
    """
    global _last_split
    if not sinks:
        return None, None, None, None
    last = _last_split
    if last is not None and last[0] is sinks and last[1] == fold:
        return last[2]
    hub = ObsHub(sinks)
    split = hub, hub, None, None
    if fold:
        step = [s for s in hub.sinks if getattr(s, "per_step", True)
                and "transition" not in _taken(s)]
        if len(step) < len(hub.sinks):
            folded = tuple([s for s in hub.sinks
                            if not getattr(s, "per_step", True)
                            and "run_tally" in _taken(s)])
            moved = tuple([s for s in hub.sinks
                           if getattr(s, "per_step", True)
                           and "transition" in _taken(s)])
            split = (hub, (ObsHub(step) if step else None),
                     folded or None, moved or None)
    if type(sinks) is tuple:
        _last_split = (sinks, fold, split)
    return split
