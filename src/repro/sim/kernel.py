"""The simulation kernel: serialized execution of an asynchronous system.

The paper observes (Section 1) that atomicity of the registers lets one
serialize any system execution into a single global order of operations,
and that the choice among the many possible serializations should be
viewed as an adversary.  The kernel *is* that serialized model: at each
step a scheduler names a processor, the kernel samples that processor's
probabilistic transition (coin flips resolve here, invisible to the
scheduler beforehand), executes the single register operation, and
applies the state transition.

Fail-stop crashes (the paper tolerates up to n−1 of them) are scheduler
actions: a crashed processor is simply never activated again, which in a
fully asynchronous model is indistinguishable from being infinitely
slow.

Two execution engines share this class (see docs/PERFORMANCE.md), each
with exactly one step body:

* the **fast path** (``engine="fast"``, the default) keeps processor
  states and register contents in mutable run-local buffers, resolves
  transitions through a :class:`~repro.sim.transitions.TransitionCache`,
  and materializes immutable :class:`~repro.sim.config.Configuration`
  snapshots lazily.  Its one loop, :meth:`Simulation._run_fast`, runs
  bare and observed runs alike (hook emissions, run tallies and
  trace records sit behind one ``observed`` test) and
  serves :meth:`Simulation.step` and :meth:`Simulation.step_processor`
  with a one-step budget;
* the **reference path** (``engine="reference"``) preserves the original
  kernel verbatim in :meth:`Simulation._step_reference`: an immutable
  configuration rebuilt on every step, a fresh ``protocol.branches()``
  + validation + access check per step, and its own hook emissions.

The two paths consume randomness identically (same streams, same draw
counts) and produce bit-identical :class:`RunResult`s; the engine
differential harness (``tests/test_differential.py``) enforces that.  The fast path additionally requires the
:class:`~repro.sim.transitions.TransitionCache` contract (hashable,
transition-stable states); protocols that violate it must pass
``engine="reference"``.

A third engine lives *outside* this class: :mod:`repro.ir` lowers
finite protocols to integer tables and steps runs over them
(``engine="vector"``), held to this kernel's
:class:`RunResult` by the same harness (docs/IR.md §4, §5).

Register semantics are pluggable (:mod:`repro.sim.memory`,
docs/MODEL.md).  Under the default
:class:`~repro.sim.memory.AtomicMemory` every legal-read set is a
singleton and the fast path keeps its inlined buffer access (the
model's ``values`` list *is* the buffer).  Under ``regular`` / ``safe``
semantics a contended read has several legal return values and the
*scheduler* — the paper's adversary — picks one, via its
``resolve_read`` hook or by pre-committing
``Activate(pid, read_value=...)``, from the current configuration only;
coin flips are still sampled after the scheduler commits.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.engines import resolve_sim_engine
from repro.errors import ProtocolError, SimulationError
from repro.obs.hooks import BaseSink, RunTally, split_sinks
from repro.sim.config import Configuration, RegisterLayout
from repro.sim.memory import MemoryModel, MemorySpec, memory_spec
from repro.sim.ops import ReadOp, WriteOp
from repro.sim.process import Automaton
from repro.sim.rng import ReplayableRng
from repro.sim.trace import CrashRecord, StepRecord, Trace
from repro.sim.transitions import TransitionCache

#: The consultation budget of a single step: none, since a scheduler
#: may inject any number of crashes before it activates a processor.
_UNBOUNDED = sys.maxsize


@dataclasses.dataclass(frozen=True)
class Activate:
    """Scheduler action: let processor ``pid`` take its next step.

    ``read_value`` optionally pre-commits the value a *contended weak-
    memory read* must return this step — the adversary's extended
    vocabulary under ``regular``/``safe`` semantics.  The value must be
    in the step's legal set (:meth:`SchedulerView.read_choices`);
    anything else — including pre-committing on a write step, or a
    value other than the register content under atomic semantics — is a
    scheduler bug surfaced as :class:`~repro.errors.SimulationError`.
    ``None`` (the default) leaves resolution to the scheduler's
    ``resolve_read`` hook.
    """

    pid: int
    read_value: Optional[Hashable] = None


@dataclasses.dataclass(frozen=True)
class Crash:
    """Scheduler action: fail-stop processor ``pid`` (no step consumed)."""

    pid: int


SchedulerAction = Union[Activate, Crash]


class SchedulerView:
    """What a scheduler is allowed to see.

    The paper's adversary is the strongest possible: it has complete
    knowledge of every processor's internal state and all register
    contents — but it cannot predict future coin flips.  The view
    therefore exposes the full current configuration and the run's
    bookkeeping, while coins are sampled only after the scheduler has
    committed to an action.

    ``state_of`` and ``register`` read the kernel's live buffers;
    ``configuration`` materializes (and caches, until the next step)
    an immutable snapshot — adaptive adversaries that map
    configurations to processors pay that materialization once per
    consultation, benign schedulers never do.
    """

    __slots__ = ("_sim",)

    def __init__(self, simulation: "Simulation") -> None:
        self._sim = simulation

    @property
    def protocol(self) -> Automaton:
        return self._sim.protocol

    @property
    def configuration(self) -> Configuration:
        return self._sim.configuration

    @property
    def layout(self) -> RegisterLayout:
        return self._sim.layout

    @property
    def step_index(self) -> int:
        return self._sim.step_index

    @property
    def enabled(self) -> Tuple[int, ...]:
        """Processors that may still be activated (alive and undecided)."""
        return self._sim._enabled

    @property
    def alive(self) -> Tuple[int, ...]:
        """Processors that have not crashed (decided ones included)."""
        return self._sim._alive

    @property
    def crashed(self) -> frozenset:
        return self._sim.crashed

    @property
    def sched_consults(self) -> int:
        """How many times the scheduler has been consulted this run."""
        return self._sim.sched_consults

    def activations(self, pid: int) -> int:
        """How many steps processor ``pid`` has taken so far."""
        return self._sim.activations[pid]

    def state_of(self, pid: int) -> Hashable:
        return self._sim._state_of(pid)

    def register(self, name: str) -> Hashable:
        """The *committed* content of register ``name``."""
        return self._sim._register_value(self._sim.layout.index_of(name))

    def decided(self, pid: int) -> Optional[Hashable]:
        return self._sim.decisions.get(pid)

    @property
    def memory(self) -> MemoryModel:
        """The run's memory model (inspect, never mutate)."""
        return self._sim._memory

    @property
    def memory_semantics(self) -> str:
        """Semantics tag: ``"atomic"``, ``"regular"``, or ``"safe"``."""
        return self._sim._memory.semantics

    @property
    def read_resolutions(self) -> int:
        """Contended reads resolved so far (adversary had >1 choice)."""
        return self._sim.read_resolutions

    def read_choices(self, name: str) -> Tuple[Hashable, ...]:
        """Legal return values of a read of ``name`` right now.

        Committed value first (the ordering contract of
        :meth:`repro.sim.memory.MemoryModel.read_choices`).  Under
        atomic semantics this is always a singleton.
        """
        sim = self._sim
        return sim._memory.read_choices(sim.layout.index_of(name))


@dataclasses.dataclass
class RunResult:
    """Summary of one finished run."""

    protocol_name: str
    inputs: Tuple[Hashable, ...]
    decisions: Dict[int, Hashable]
    activations: Dict[int, int]
    decision_activation: Dict[int, int]
    coin_flips: Dict[int, int]
    total_steps: int
    crashed: frozenset
    completed: bool
    trace: Optional[Trace]
    final_configuration: Configuration
    sched_consults: int = 0
    #: Semantics tag of the run's memory model (docs/MODEL.md).
    memory: str = "atomic"
    #: Contended weak-memory reads the adversary resolved (always 0
    #: under atomic semantics, where legal sets are singletons).
    read_resolutions: int = 0

    @property
    def all_decided(self) -> bool:
        """Did every non-crashed processor decide?"""
        n = len(self.inputs)
        return all(
            pid in self.decisions for pid in range(n) if pid not in self.crashed
        )

    @property
    def decided_values(self) -> set:
        return set(self.decisions.values())

    @property
    def consistent(self) -> bool:
        """At most one distinct decision value (paper's consistency)."""
        return len(self.decided_values) <= 1

    @property
    def nontrivial(self) -> bool:
        """Every decision is the input of some processor (nontriviality)."""
        inputs = set(self.inputs)
        return all(value in inputs for value in self.decided_values)

    def steps_to_decide(self, pid: int) -> Optional[int]:
        """Activations processor ``pid`` needed to decide (None if it didn't)."""
        return self.decision_activation.get(pid)

    def max_steps_to_decide(self) -> Optional[int]:
        """Worst per-processor decision cost in this run."""
        if not self.decision_activation:
            return None
        return max(self.decision_activation.values())


class Simulation:
    """One run of a protocol under a scheduler.

    Parameters
    ----------
    protocol:
        The :class:`~repro.sim.process.Automaton` to execute.
    inputs:
        One input value per processor (the contents of the internal
        input registers ``i_P``).
    scheduler:
        Any object with ``choose(view) -> Activate | Crash | int``
        (a bare int is accepted as shorthand for ``Activate``).
    rng:
        Root random stream; each processor gets an independent child
        stream so scheduling decisions do not perturb coin sequences.
    record_trace:
        Record a full :class:`~repro.sim.trace.Trace` (memory-heavy for
        long runs; off by default).
    strict:
        Validate branch distributions: on every step (reference path),
        or once per distinct automaton state when its transition entry
        is built (fast path; equivalent for transition-stable protocols).
    sinks:
        Observability sinks (see :mod:`repro.obs`) to notify of kernel
        events.  Observed runs take the same step loop as bare ones;
        with no sink attached (the default) the kernel keeps no hub at
        all.  Under the fast engine, run-tally sinks
        (``per_step = False``, e.g. a
        :class:`~repro.obs.metrics.MetricsRegistry`) get each loop
        call's per-step events as one folded
        :class:`~repro.obs.hooks.RunTally`.
    engine:
        Backend name from the engine registry (:mod:`repro.engines`):
        ``"fast"`` (the default) or ``"reference"`` — the escape hatch
        for protocols that are not transition-stable, and the kernel
        benchmark's baseline (docs/PERFORMANCE.md).  ``"vector"`` steps
        compiled tables; use :func:`repro.core.consensus.solve` or the
        runner for it.
    cache:
        A :class:`~repro.sim.transitions.TransitionCache` to reuse
        (fast path only).  Sharing one across runs of equivalent
        protocols amortizes branch resolution, layout construction and
        initial-state derivation over a whole batch; omitted, the
        simulation builds a private cache.
    memory:
        Register semantics: ``None`` (atomic, the default), a name in
        ``("atomic", "regular", "safe")``, or a
        :class:`~repro.sim.memory.MemorySpec`.  See
        :mod:`repro.sim.memory` and docs/MODEL.md.
    """

    __slots__ = (
        "protocol", "inputs", "scheduler", "layout", "step_index",
        "activations", "coin_flips", "decisions", "decision_activation",
        "crashed", "sched_consults", "read_resolutions", "trace",
        "_fast", "_cache", "_states", "_registers", "_config_cache",
        "_memory", "_mem_atomic", "_read_resolver",
        "_hub", "_obs", "_tallies", "_trans", "_strict", "_rng",
        "_proc_rngs", "_view",
        "_alive", "_enabled",
    )

    def __init__(
        self,
        protocol: Automaton,
        inputs: Sequence[Hashable],
        scheduler,
        rng: ReplayableRng,
        record_trace: bool = False,
        strict: bool = True,
        sinks: Optional[Sequence[BaseSink]] = None,
        cache: Optional[TransitionCache] = None,
        memory: Union[None, str, MemorySpec] = None,
        engine: Optional[str] = None,
    ) -> None:
        info = resolve_sim_engine(engine)
        if not info.standalone:
            raise SimulationError(
                f"engine {info.name!r} steps compiled tables and cannot "
                f"back a standalone Simulation; use solve(engine="
                f"{info.name!r}) or ExperimentRunner(engine={info.name!r}) "
                f"instead (docs/IR.md)")
        fast = info.name == "fast"
        if protocol.n_processes < 1:
            raise SimulationError("protocol declares no processors")
        if cache is not None and not fast:
            raise SimulationError(
                "a TransitionCache requires the fast engine "
                "(engine='fast')"
            )
        n = protocol.n_processes
        self.protocol = protocol
        self.inputs: Tuple[Hashable, ...] = tuple(inputs)
        if len(self.inputs) != n:
            raise ValueError(
                f"expected {n} inputs, got {len(self.inputs)}"
            )
        self.scheduler = scheduler
        self._fast = fast
        spec = memory_spec(memory)
        initial_decisions: Optional[Dict[int, Hashable]] = None
        if fast:
            if cache is None:
                cache = TransitionCache(protocol, strict=strict)
            self._cache: Optional[TransitionCache] = cache
            self.layout = cache.layout
            # Mutable run-local buffers: the fast path's source of truth.
            states, initial_decisions = cache.initial_states(self.inputs)
            self._states: Optional[List[Hashable]] = list(states)
            # The memory model owns register storage; its committed-
            # values list doubles as the fast path's register buffer,
            # so the inlined atomic access below *is* model access.
            self._memory: MemoryModel = spec.build(self.layout)
            self._registers: Optional[List[Hashable]] = self._memory.values
            self._config_cache: Optional[Configuration] = None
        else:
            self._cache = None
            self.layout = RegisterLayout.for_protocol(protocol)
            # Reference path: the immutable configuration *is* the
            # state, rebuilt per step exactly as the seed kernel did —
            # with register access routed through the memory model
            # (identity resolution under the default AtomicMemory).
            self._states = None
            self._registers = None
            self._memory = spec.build(self.layout)
            self._config_cache = Configuration.initial(
                protocol, self.layout, self.inputs
            )
        self._mem_atomic = self._memory.atomic
        self._read_resolver = getattr(scheduler, "resolve_read", None)
        self.read_resolutions = 0
        self.step_index = 0
        self.activations: Dict[int, int] = dict.fromkeys(range(n), 0)
        self.coin_flips: Dict[int, int] = dict.fromkeys(range(n), 0)
        self.decisions: Dict[int, Hashable] = {}
        self.decision_activation: Dict[int, int] = {}
        self.crashed: frozenset = frozenset()
        self.sched_consults = 0
        self.trace: Optional[Trace] = Trace() if record_trace else None
        # ``_hub`` reaches every sink (run-level and cold events),
        # ``_obs`` the per-step ones; ``_tallies`` and ``_trans`` hold
        # the fast engine's run-tally and transition sinks (None when
        # there are none).
        self._hub, self._obs, self._tallies, self._trans = split_sinks(
            sinks, fast)
        self._strict = strict
        self._rng = rng
        self._proc_rngs = rng.children("proc", n)
        self._view = SchedulerView(self)
        # Incremental alive/enabled views: rebuilt only on the rare
        # crash/decide events, so `finished` and the scheduler API are
        # O(1) per step instead of the seed's two tuple rebuilds.
        self._alive: Tuple[int, ...] = tuple(range(n))
        self._enabled: Tuple[int, ...] = self._alive
        # Record decisions present in initial states (degenerate
        # protocols); the fast path gets them memoized from the cache.
        if initial_decisions is None:
            initial_decisions = {}
            for pid, state in enumerate(self._config_cache.states):
                value = protocol.output(pid, state)
                if value is not None:
                    initial_decisions[pid] = value
        if initial_decisions:
            self.decisions.update(initial_decisions)
            self.decision_activation.update(
                dict.fromkeys(initial_decisions, 0))
            self._enabled = tuple(
                pid for pid in self._alive if pid not in self.decisions
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def configuration(self) -> Configuration:
        """The current global snapshot (lazily materialized on the fast path).

        The reference path maintains this eagerly; the fast path builds
        it from the run buffers on first access after a step and caches
        it until the next mutation, so repeated reads within one
        scheduler consultation cost one construction.
        """
        config = self._config_cache
        if config is None:
            config = Configuration(
                states=tuple(self._states),
                registers=tuple(self._registers),
                mem=None if self._mem_atomic else self._memory.snapshot(),
            )
            self._config_cache = config
        return config

    @property
    def alive(self) -> Tuple[int, ...]:
        return self._alive

    @property
    def enabled(self) -> Tuple[int, ...]:
        """Alive processors that have not decided (decided ones halt)."""
        return self._enabled

    @property
    def finished(self) -> bool:
        """True when no processor can take a further step."""
        return not self._enabled

    def _state_of(self, pid: int) -> Hashable:
        states = self._states
        if states is None:
            return self._config_cache.states[pid]
        return states[pid]

    def _register_value(self, slot: int) -> Hashable:
        registers = self._registers
        if registers is None:
            return self._config_cache.registers[slot]
        return registers[slot]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def attach_sink(self, sink: BaseSink) -> None:
        """Attach an observability sink to an already-built simulation."""
        existing = self._hub.sinks if self._hub is not None else ()
        self._hub, self._obs, self._tallies, self._trans = split_sinks(
            existing + (sink,), self._fast)

    def crash(self, pid: int) -> None:
        """Fail-stop processor ``pid``."""
        self._check_pid(pid)
        if pid in self.crashed:
            raise SimulationError(f"processor {pid} already crashed")
        self.crashed = self.crashed | {pid}
        self._alive = tuple(p for p in self._alive if p != pid)
        self._enabled = tuple(p for p in self._enabled if p != pid)
        if self._hub is not None:
            self._hub.crash(pid, self.step_index)
        if self.trace is not None:
            self.trace.append_crash(CrashRecord(index=self.step_index, pid=pid))

    def _record_decision(self, pid: int, value: Hashable) -> None:
        self.decisions[pid] = value
        self.decision_activation[pid] = self.activations[pid]
        self._enabled = tuple([p for p in self._enabled if p != pid])

    def _normalize_action(self, action) -> int:
        """Resolve a scheduler action into the processor id to activate.

        The scheduler contract (`choose(view) -> Activate | Crash | int`)
        accepts a bare int as shorthand for ``Activate``; anything else
        is a scheduler bug surfaced as a :class:`SimulationError`
        (``bool`` is rejected even though it subclasses int — a
        scheduler returning True/False is confused, not naming P1/P0).
        """
        if isinstance(action, Activate):
            return action.pid
        if isinstance(action, int) and not isinstance(action, bool):
            return action
        raise SimulationError(
            f"scheduler returned {action!r}; expected Activate, Crash, "
            f"or a bare processor id (int)"
        )

    def step(self) -> StepRecord:
        """Execute one step, consulting the scheduler for who moves."""
        if self.finished:
            raise SimulationError("stepping a finished simulation")
        if self._fast:
            return self._run_fast(self.step_index + 1)
        obs = self._obs
        self.sched_consults += 1
        if obs is not None:
            obs.sched(self.sched_consults)
        pid, forced = self._settle(self.scheduler.choose(self._view), obs)
        self._check_active(pid)
        return self._step_reference(pid, forced)

    def _settle(self, action, obs) -> Tuple[int, Optional[Hashable]]:
        """Resolve a scheduler action into ``(pid, forced read value)``.

        Injected crashes are executed, and the scheduler consulted
        again, until it activates a processor.
        """
        while isinstance(action, Crash):
            self.crash(action.pid)
            if self.finished:
                raise SimulationError(
                    "scheduler crashed every remaining processor"
                )
            self.sched_consults += 1
            if obs is not None:
                obs.sched(self.sched_consults)
            action = self.scheduler.choose(self._view)
        forced = action.read_value if isinstance(action, Activate) else None
        return self._normalize_action(action), forced

    def step_processor(self, pid: int) -> StepRecord:
        """Execute one step of a specific processor (bypassing the scheduler)."""
        self._check_active(pid)
        if self._fast:
            return self._run_fast(self.step_index + 1, given=pid)
        return self._step_reference(pid)

    def _check_active(self, pid: int) -> None:
        """Reject activating an invalid, crashed or decided processor."""
        self._check_pid(pid)
        if pid in self.crashed:
            raise SimulationError(f"scheduled crashed processor {pid}")
        if pid in self.decisions:
            raise SimulationError(f"scheduled decided processor {pid}")

    def _resolve_read(self, pid: int, register: str,
                      choices: Tuple[Hashable, ...],
                      forced: Optional[Hashable]) -> Hashable:
        """Pick a contended weak-memory read's return value.

        Precedence: an ``Activate(pid, read_value=...)`` pre-commitment
        wins; otherwise the scheduler's ``resolve_read`` hook is
        consulted; with neither, the committed value ``choices[0]`` is
        returned (the write "has not happened yet").  Any chosen value
        outside the legal set is a scheduler bug.  Called only when the
        legal set has >1 element or a value was pre-committed; the
        latter under atomic semantics (reference engine only) resolves
        nothing, so it emits no ``read_choices`` event.
        """
        if len(choices) > 1:
            self.read_resolutions += 1
        if forced is not None:
            value = forced
        else:
            resolver = self._read_resolver
            if resolver is None:
                value = choices[0]
            else:
                value = resolver(self._view, pid, register, choices)
        if value not in choices:
            raise SimulationError(
                f"scheduler chose read value {value!r} for register "
                f"{register!r}, outside the legal set {choices!r}"
            )
        if self._hub is not None and not self._mem_atomic:
            self._hub.read_choices(pid, register, len(choices), value)
        return value

    @staticmethod
    def _check_forced(forced: Optional[Hashable], is_read: bool,
                      result: Hashable) -> None:
        """Validate an ``Activate.read_value`` on a step that resolved
        nothing (a write, or an atomic read): only the register's
        current content on a read step is legal."""
        if forced is None:
            return
        if not is_read:
            raise SimulationError(
                f"scheduler pre-committed read value {forced!r} but the "
                f"step performed a write"
            )
        if forced != result:
            raise SimulationError(
                f"scheduler pre-committed read value {forced!r}, but "
                f"atomic memory returns {result!r}"
            )

    def _step_reference(self, pid: int,
                        forced: Optional[Hashable] = None) -> StepRecord:
        """One reference-path step: the seed kernel's body.

        Immutable configuration rebuilt, ``branches()`` validated and
        access checked every step, register access routed through the
        memory model.  The differential tests and the kernel benchmark
        compare the fast path against it; hook emissions follow
        :meth:`_run_fast`'s order and meaning.
        """
        obs = self._obs
        config = self._config_cache
        state = config.states[pid]
        memory = self._memory
        memory.on_activate(pid)
        branches = self.protocol.branches(pid, state)
        if self._strict:
            self.protocol.validate_branches(branches)
        if len(branches) == 1:
            branch = branches[0]
        else:
            weights = [b.probability for b in branches]
            branch = branches[self._proc_rngs[pid].choice_index(weights)]
            self.coin_flips[pid] += 1
            if obs is not None:
                obs.coin_flip(pid, len(branches))
        op = branch.op

        if isinstance(op, ReadOp):
            slot = self.layout.check_read(pid, op.register)
            choices = memory.read_choices(slot)
            if len(choices) == 1 and forced is None:
                result: Hashable = choices[0]
            else:
                result = self._resolve_read(pid, op.register, choices, forced)
        elif isinstance(op, WriteOp):
            slot = self.layout.check_write(pid, op.register)
            self._check_forced(forced, False, None)
            memory.write(pid, slot, op.value)
            result = None
        else:
            raise ProtocolError(f"unknown operation {op!r}")
        if obs is not None:
            if isinstance(op, ReadOp):
                obs.read(pid, op.register, result)
            else:
                obs.write(pid, op.register, op.value)

        new_state = self.protocol.observe(pid, state, op, result)
        self._config_cache = Configuration(
            states=config.states[:pid] + (new_state,)
            + config.states[pid + 1:],
            registers=tuple(memory.values),
            mem=None if self._mem_atomic else memory.snapshot(),
        )
        self.activations[pid] += 1

        decided = self.protocol.output(pid, new_state)
        if decided is not None:
            self._record_decision(pid, decided)
            if obs is not None:
                obs.decision(pid, decided, self.activations[pid])

        record = StepRecord(index=self.step_index, pid=pid, op=op,
                            result=result, decided=decided)
        self.step_index += 1
        if obs is not None:
            obs.step(record.index, pid, op, result, decided)
        if self.trace is not None:
            self.trace.append(record)
        return record

    def _run_fast(self, max_steps: int, max_consults: int = _UNBOUNDED,
                  given: Optional[int] = None) -> Optional[StepRecord]:
        """The fast engine's step loop: its only step body.

        Steps until no processor is enabled or a budget is hit.
        :meth:`step` and :meth:`step_processor` call it with a one-step
        budget, the latter passing ``given`` (an already-checked pid)
        instead of consulting the scheduler; a one-step call returns
        its :class:`StepRecord`, a run returns ``None`` rather than
        allocate a record nothing reads.  Counters the
        :class:`SchedulerView` exposes stay live on ``self``.

        What observation adds costs a bare run one test per site: the
        hub-only sites (the sched and coin-flip emissions) test
        ``obs``, and one ``observed`` test at the end of the step
        covers hub emissions, transition-sink calls, run tallies and
        trace records.  The loop reads no clock: the profiler times
        whole runs from run-level events.  The bare path also keeps its
        own checks few: one loop bound (``limit``) stands for the step
        budget, the consultation budget and the end of the run, and
        decided or crashed processors are rejected on the branch that
        seeds a processor's transition entry, the only one they can
        reach.  Emission order is part of the journal schema contract
        — sched, coin-flip, read_choices (from :meth:`_resolve_read`),
        read/write, decision, step — and
        :func:`repro.obs.journal.replay_journal` re-dispatches in the
        same order.  Transition sinks get each
        step as one call with the memoized outcome the step took
        (:meth:`repro.obs.hooks.BaseSink.on_transition`).  Run-tally
        sinks get the call's counts once, on exit (:meth:`_fold_tally`),
        even when the loop raises.

        A pure scheduler (``pure_choice``, see
        :class:`~repro.sched.base.Scheduler`) under atomic memory is
        consulted through the batch's memo
        (:meth:`~repro.sim.transitions.TransitionCache.choice`): its
        action in a configuration is computed once, and each step moves
        to the successor's memoized choice along the outcome it took.
        Every consultation still counts and still emits its ``sched``
        event; a crash injection ends the memo's use for the call.
        """
        n = self.protocol.n_processes
        cache = self._cache
        entries = cache.entries
        build_entry = cache.entry
        resolve_outcome = cache.outcome
        states = self._states
        registers = self._registers
        atomic = self._mem_atomic
        memory = self._memory
        proc_rngs = self._proc_rngs
        scheduler = self.scheduler
        choose = scheduler.choose
        view = self._view
        activations = self.activations
        coin_flips = self.coin_flips
        decisions = self.decisions
        obs = self._obs
        tallies = self._tallies
        trans = self._trans
        trace = self.trace
        # Any sink (per-step or tally) means a hub; or a trace.
        observed = self._hub is not None or trace is not None
        # Each live processor's current transition entry: seeded lazily
        # from its state, then chained through the memoized outcomes'
        # next-entry pointers — no per-step state hashing.  None until
        # seeded, and again once the processor decides or crashes.
        cur_entries: List[Optional[object]] = [None] * n
        # step_index/sched_consults are mirrored in locals and written
        # back to self *before* every scheduler consultation, so views
        # always read live values.
        step_index = start = self.step_index
        consults = self.sched_consults
        # A scheduler's pre-committed read value; reset once used.
        forced = None
        if tallies is not None:
            # Per slot: None (untouched this call), True (written and
            # not read since) or False (read since the last write).
            unread: List[Optional[bool]] = [None] * len(registers)
            opened: List[int] = []
            num_depths: Dict[int, int] = {}
            writes = contention = 0
            last_depth = None
            base = (consults, list(coin_flips.values()), len(decisions))

        # The loop's one bound.  A consulting step adds one consultation
        # per step, so the consultation budget is a step limit; only
        # crash injections (extra consultations) move it.  The last
        # decision ends the loop by lowering it to the current step.
        limit = min(max_steps, max_consults - consults + step_index) \
            if self._enabled else step_index
        # A pure scheduler's choice in the current configuration, from
        # the batch's memo (TransitionCache.choice); None when the
        # scheduler is not pure, memory is weak (pending writes are part
        # of the view), or the memo stops, and then it is consulted.
        node = None
        if atomic and given is None and step_index < limit \
                and getattr(scheduler, "pure_choice", False):
            sched_class = scheduler.__class__
            node = cache.choice(sched_class, states, registers,
                                self._enabled)
        try:
            while step_index < limit:
                if given is not None:
                    pid = given
                else:
                    consults += 1
                    self.sched_consults = consults
                    if obs is not None:
                        obs.sched(consults)
                    if node is None:
                        action = choose(view)
                    else:
                        action = node.action
                        if action is None:
                            action = node.action = choose(view)
                    cls = action.__class__
                    if cls is int:
                        pid = action
                    else:
                        if cls is Activate:
                            pid = action.pid
                            forced = action.read_value
                        else:
                            # Cold branch: crash injections and exotic
                            # action types.
                            pid, forced = self._settle(action, obs)
                            consults = self.sched_consults
                            limit = min(max_steps, max_consults
                                        - consults + step_index + 1)
                            for p in self.crashed:
                                cur_entries[p] = None
                            node = None
                        if pid.__class__ is not int:
                            self._check_active(pid)
                    if not 0 <= pid < n:
                        self._check_active(pid)

                entry = cur_entries[pid]
                if entry is None:
                    # The processor's first step in this call, or an
                    # ineligible one: a decision chains to a None entry
                    # and a crash resets it, so only this branch checks.
                    if pid in self.crashed or pid in decisions:
                        self._check_active(pid)
                    state = states[pid]
                    entry = entries.get((pid, state))
                    if entry is None:
                        entry = build_entry(pid, state)
                weights = entry.weights
                if weights is not None:
                    branch_index = proc_rngs[pid].choice_index(
                        weights, entry.total)
                    coin_flips[pid] += 1
                    if obs is not None:
                        obs.coin_flip(pid, len(weights))
                else:
                    branch_index = 0
                op, is_read, slot, value = entry.execs[branch_index]
                if not atomic:
                    # Weak-memory value resolution; atomic access below
                    # resolves nothing.
                    memory.on_activate(pid)
                    if is_read:
                        choices = memory.read_choices(slot)
                        if len(choices) == 1 and forced is None:
                            result = choices[0]
                        else:
                            result = self._resolve_read(
                                pid, op.register, choices, forced)
                    else:
                        self._check_forced(forced, False, None)
                        memory.write(pid, slot, value)
                        result = None
                    forced = None
                else:
                    if is_read:
                        result = registers[slot]
                    else:
                        registers[slot] = value
                        result = None
                    if forced is not None:
                        self._check_forced(forced, is_read, result)
                        forced = None
                try:
                    outcome = entry.outcomes[branch_index][result]
                except KeyError:
                    outcome = resolve_outcome(pid, states[pid], entry,
                                              branch_index, result)
                states[pid] = outcome.state
                cur_entries[pid] = outcome.next_entry
                self._config_cache = None
                activations[pid] += 1
                step_index += 1
                self.step_index = step_index
                decided = outcome.decided
                if decided is not None:
                    self._record_decision(pid, decided)
                    if not self._enabled:
                        limit = step_index
                if node is not None:
                    try:
                        node = node.next[outcome]
                    except KeyError:
                        succ = cache.choice(sched_class, states, registers,
                                            self._enabled)
                        # A full cache builds a fresh outcome per step:
                        # linking those would only grow the memo.
                        if succ is not None \
                                and len(entries) < cache.max_entries:
                            node.next[outcome] = succ
                        node = succ
                if observed:
                    if obs is not None:
                        if is_read:
                            obs.read(pid, op.register, result)
                        else:
                            obs.write(pid, op.register, value)
                        if decided is not None:
                            obs.decision(pid, decided, activations[pid])
                        obs.step(step_index - 1, pid, op, result, decided)
                    if trans is not None:
                        activation = activations[pid]
                        for sink in trans:
                            sink.on_transition(step_index - 1, pid, entry,
                                               branch_index, result,
                                               outcome, activation)
                    if tallies is not None:
                        if is_read:
                            unread[slot] = False
                        else:
                            writes += 1
                            flag = unread[slot]
                            if flag:
                                contention += 1
                            elif flag is None:
                                opened.append(slot)
                            unread[slot] = True
                            depth = entry.depths[branch_index]
                            if depth is not None:
                                num_depths[depth] = \
                                    num_depths.get(depth, 0) + 1
                                last_depth = depth
                    if trace is not None:
                        trace.append(StepRecord(
                            index=step_index - 1, pid=pid, op=op,
                            result=result, decided=decided))
        finally:
            if tallies is not None:
                self._fold_tally(tallies, base, step_index - start,
                                 writes, contention, opened, unread,
                                 num_depths, last_depth)

        if step_index == start + 1 == max_steps:
            return StepRecord(index=start, pid=pid, op=op, result=result,
                              decided=decided)
        return None

    def _fold_tally(self, tallies, base, steps: int, writes: int,
                    contention: int, opened: List[int],
                    unread: List[Optional[bool]],
                    num_depths: Dict[int, int],
                    last_depth: Optional[int]) -> None:
        """Deliver one :meth:`_run_fast` call's counts to the run-tally
        sinks.  ``base`` is the consultation count, per-pid coin flips
        and decision count the call started from."""
        consults0, flips0, decided0 = base
        names = self.layout.names
        flips = {}
        for pid, count in enumerate(self.coin_flips.values()):
            if count != flips0[pid]:
                flips[pid] = count - flips0[pid]
        decisions = self.decisions
        if len(decisions) > decided0:
            activation = self.decision_activation
            decided = [(pid, activation[pid])
                       for pid in list(decisions)[decided0:]]
        else:
            decided = []
        touched = {}
        for slot, flag in enumerate(unread):
            if flag is not None:
                touched[names[slot]] = flag
        tally = RunTally(
            steps=steps, sched_consults=self.sched_consults - consults0,
            reads=steps - writes, writes=writes, coin_flips=flips,
            decisions=decided, contention=contention,
            opened=tuple([names[slot] for slot in opened]),
            unread=touched, num_depths=num_depths,
            last_num_depth=last_depth)
        for sink in tallies:
            sink.on_run_tally(tally)

    def run(self, max_steps: int,
            max_consults: Optional[int] = None) -> RunResult:
        """Run until every live processor decides, or a budget is hit.

        Two budgets bound the run: ``max_steps`` bounds executed
        processor steps and ``max_consults`` *scheduler consultations*.
        A ``Crash`` action consumes no ``step_index``, so without the
        second budget a crash-happy adversary does unbounded scheduler
        work relative to ``max_steps``.  Its default,
        ``max_steps + n_processes``, can never cut short a well-formed
        run (each step consumes one consultation and at most
        ``n_processes - 1`` crashes exist).  The consumed count is
        reported on :attr:`RunResult.sched_consults` and via the
        observability metrics.
        """
        if max_consults is None:
            max_consults = max_steps + self.protocol.n_processes
        hub = self._hub
        if hub is not None:
            hub.run_start(self.protocol.name, self.protocol.n_processes,
                          self.inputs)
        if self._fast:
            self._run_fast(max_steps, max_consults)
        else:
            while (not self.finished and self.step_index < max_steps
                   and self.sched_consults < max_consults):
                self.step()
        result = self.result()
        if hub is not None:
            hub.run_end(result)
        return result

    def result(self) -> RunResult:
        """Snapshot the current run summary."""
        return RunResult(
            protocol_name=self.protocol.name,
            inputs=self.inputs,
            decisions=dict(self.decisions),
            activations=dict(self.activations),
            decision_activation=dict(self.decision_activation),
            coin_flips=dict(self.coin_flips),
            total_steps=self.step_index,
            crashed=self.crashed,
            completed=self.finished,
            trace=self.trace,
            final_configuration=self.configuration,
            sched_consults=self.sched_consults,
            memory=self._memory.semantics,
            read_resolutions=self.read_resolutions,
        )

    # ------------------------------------------------------------------

    def _check_pid(self, pid: int) -> None:
        if not isinstance(pid, int) or not 0 <= pid < self.protocol.n_processes:
            raise SimulationError(f"invalid processor id {pid!r}")
