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

Two execution engines share this class (see docs/PERFORMANCE.md):

* the **fast path** (``engine="fast"``, the default) keeps processor states and
  register contents in mutable run-local buffers, resolves transitions
  through a :class:`~repro.sim.transitions.TransitionCache`, and
  materializes immutable :class:`~repro.sim.config.Configuration`
  snapshots lazily — only when a scheduler view, trace, sink, or
  :meth:`Simulation.result` asks for one;
* the **reference path** (``engine="reference"``) preserves the original
  kernel verbatim: an immutable configuration rebuilt via
  ``with_state``/``with_register`` on every step, a fresh
  ``protocol.branches()`` + validation + access check per step.

The two paths consume randomness identically (same streams, same draw
counts) and produce bit-identical :class:`RunResult`s; the differential
suites in ``tests/test_kernel_fastpath.py`` and the Hypothesis harness
enforce that.  The fast path additionally requires the
:class:`~repro.sim.transitions.TransitionCache` contract (hashable,
transition-stable states); protocols that violate it must pass
``engine="reference"``.

A third engine lives *outside* this class: :mod:`repro.ir` lowers
finite protocols to integer tables and steps whole Monte-Carlo batches
in lockstep (``engine="vector"`` on the batch surfaces).  It is held to
this kernel by the same differential discipline —
``tests/test_ir_lowering.py`` mirrors the fastpath suite, and this
kernel's :class:`RunResult` is the common currency all three engines
must produce bit-identically.  Its supported matrix and rng-draw
ordering contract are specified in docs/IR.md (§4, §5).

Register semantics are pluggable since PR 4 (see
:mod:`repro.sim.memory` and docs/MODEL.md): both engines route register
access through a :class:`~repro.sim.memory.MemoryModel`.  Under the
default :class:`~repro.sim.memory.AtomicMemory` every legal-read set is
a singleton and the fast path keeps its inlined buffer access (the
model's ``values`` list *is* the buffer), so atomic runs stay
bit-identical to the pre-memory-layer kernel.  Under ``regular`` /
``safe`` semantics a contended read has several legal return values and
the *scheduler* — the paper's adversary — picks one, either via its
``resolve_read`` hook or by pre-committing
``Activate(pid, read_value=...)``.  Either way the choice is made from
the current configuration only; coin flips are still sampled after the
scheduler commits, preserving the adaptive-adversary knowledge model.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.engines import resolve_sim_engine
from repro.errors import ProtocolError, SimulationError
from repro.obs.hooks import BaseSink, make_hub
from repro.sim.config import Configuration, RegisterLayout
from repro.sim.memory import MemoryModel, MemorySpec, memory_spec
from repro.sim.ops import ReadOp, WriteOp
from repro.sim.process import Automaton
from repro.sim.rng import ReplayableRng
from repro.sim.trace import CrashRecord, StepRecord, Trace
from repro.sim.transitions import TransitionCache


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
        Validate branch distributions.  The reference path validates on
        every step (as the seed kernel did); the fast path validates
        once per distinct automaton state, when its transition entry is
        built — equivalent for the transition-stable protocols the fast
        path requires.
    sinks:
        Observability sinks (see :mod:`repro.obs`) to notify of kernel
        events.  With none attached (the default) the kernel keeps no
        hub at all and the hot path pays only ``is not None`` checks.
    engine:
        Execution backend name resolved through the engine registry
        (:mod:`repro.engines`): ``"fast"`` (the default) or
        ``"reference"`` — the escape hatch for protocols that are not
        transition-stable, and the baseline the kernel benchmark gates
        against (see docs/PERFORMANCE.md).  The ``"vector"`` backend
        steps whole batches and cannot back a standalone simulation;
        use :func:`repro.core.consensus.solve` or the runner for it.
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
        "_memory", "_mem_atomic", "_read_resolver", "_forced_read",
        "_obs", "_strict", "_rng", "_proc_rngs", "_view",
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
                f"engine {info.name!r} steps lockstep batches and cannot "
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
        self._forced_read: Optional[Hashable] = None
        self.read_resolutions = 0
        self.step_index = 0
        self.activations: Dict[int, int] = dict.fromkeys(range(n), 0)
        self.coin_flips: Dict[int, int] = dict.fromkeys(range(n), 0)
        self.decisions: Dict[int, Hashable] = {}
        self.decision_activation: Dict[int, int] = {}
        self.crashed: frozenset = frozenset()
        self.sched_consults = 0
        self.trace: Optional[Trace] = Trace() if record_trace else None
        self._obs = make_hub(sinks)
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
        existing = self._obs.sinks if self._obs is not None else ()
        self._obs = make_hub(existing + (sink,))

    def crash(self, pid: int) -> None:
        """Fail-stop processor ``pid``."""
        self._check_pid(pid)
        if pid in self.crashed:
            raise SimulationError(f"processor {pid} already crashed")
        self.crashed = self.crashed | {pid}
        self._alive = tuple(p for p in self._alive if p != pid)
        self._enabled = tuple(p for p in self._enabled if p != pid)
        if self._obs is not None:
            self._obs.crash(pid, self.step_index)
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
        if self._obs is not None:
            return self._observed_step()
        self.sched_consults += 1
        action = self.scheduler.choose(self._view)
        # Allow schedulers to inject crashes; loop until an activation.
        while isinstance(action, Crash):
            self.crash(action.pid)
            if self.finished:
                raise SimulationError(
                    "scheduler crashed every remaining processor"
                )
            self.sched_consults += 1
            action = self.scheduler.choose(self._view)
        if isinstance(action, Activate) and action.read_value is not None:
            self._forced_read = action.read_value
        return self.step_processor(self._normalize_action(action))

    def _observed_step(self) -> StepRecord:
        """Instrumented twin of :meth:`step` (some sink is attached).

        Must stay semantically identical to the fast path — only hook
        emissions and (when a timing sink is attached) clock reads may
        differ.  ``test_obs_hooks`` asserts the two paths produce
        bit-identical runs.
        """
        obs = self._obs
        timing = obs.timing
        t0 = perf_counter() if timing else 0.0
        self.sched_consults += 1
        obs.sched(self.sched_consults)
        action = self.scheduler.choose(self._view)
        while isinstance(action, Crash):
            self.crash(action.pid)
            if self.finished:
                raise SimulationError(
                    "scheduler crashed every remaining processor"
                )
            self.sched_consults += 1
            obs.sched(self.sched_consults)
            action = self.scheduler.choose(self._view)
        if timing:
            obs.phase_time("sched", perf_counter() - t0)
        if isinstance(action, Activate) and action.read_value is not None:
            self._forced_read = action.read_value
        return self.step_processor(self._normalize_action(action))

    def step_processor(self, pid: int) -> StepRecord:
        """Execute one step of a specific processor (bypassing the scheduler)."""
        self._check_pid(pid)
        if pid in self.crashed:
            raise SimulationError(f"scheduled crashed processor {pid}")
        if pid in self.decisions:
            raise SimulationError(f"scheduled decided processor {pid}")
        forced = self._forced_read
        if forced is not None:
            self._forced_read = None
        if self._obs is not None:
            return self._observed_step_processor(pid, forced)
        if self._fast:
            return self._step_fast(pid, forced)
        return self._step_reference(pid, forced)

    def _resolve_read(self, pid: int, register: str,
                      choices: Tuple[Hashable, ...],
                      forced: Optional[Hashable]) -> Hashable:
        """Pick a contended weak-memory read's return value.

        Precedence: an ``Activate(pid, read_value=...)`` pre-commitment
        wins; otherwise the scheduler's ``resolve_read`` hook is
        consulted; with neither, the committed value ``choices[0]`` is
        returned (the write "has not happened yet").  Any chosen value
        outside the legal set is a scheduler bug.  Called only when the
        legal set has >1 element or a value was pre-committed, so the
        atomic hot path never pays for it.
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
        if self._obs is not None:
            self._obs.read_choices(pid, register, len(choices), value)
        return value

    @staticmethod
    def _check_forced_atomic(forced: Optional[Hashable], is_read: bool,
                             result: Hashable) -> None:
        """Validate an ``Activate.read_value`` under atomic semantics.

        Cold path: the only legal pre-commitment is the register's
        current content on a read step.
        """
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

    def _step_fast(self, pid: int,
                   forced: Optional[Hashable] = None) -> StepRecord:
        """One fast-path step, returning its :class:`StepRecord`.

        Mirrors the body of :meth:`_run_fast`'s inner loop; the two
        must stay in lockstep (this variant additionally allocates the
        record the public API promises and feeds the trace).
        """
        states = self._states
        state = states[pid]
        cache = self._cache
        atomic = self._mem_atomic
        if not atomic:
            self._memory.on_activate(pid)
        entry = cache.entries.get((pid, state))
        if entry is None:
            entry = cache.entry(pid, state)
        weights = entry.weights
        if weights is None:
            branch_index = 0
        else:
            branch_index = self._proc_rngs[pid].choice_index(
                weights, entry.total)
            self.coin_flips[pid] += 1
        op, is_read, slot, value = entry.execs[branch_index]
        if atomic:
            if is_read:
                result: Hashable = self._registers[slot]
            else:
                self._registers[slot] = value
                result = None
            if forced is not None:
                self._check_forced_atomic(forced, is_read, result)
        elif is_read:
            choices = self._memory.read_choices(slot)
            if len(choices) == 1 and forced is None:
                result = choices[0]
            else:
                result = self._resolve_read(pid, op.register, choices, forced)
        else:
            if forced is not None:
                raise SimulationError(
                    f"scheduler pre-committed read value {forced!r} but "
                    f"the step performed a write"
                )
            self._memory.write(pid, slot, value)
            result = None
        outcome = entry.outcomes[branch_index].get(result)
        if outcome is None:
            outcome = cache.outcome(pid, state, entry, branch_index, result)
        new_state, decided = outcome[0], outcome[1]
        states[pid] = new_state
        self._config_cache = None
        self.activations[pid] += 1
        if decided is not None:
            self._record_decision(pid, decided)
        record = StepRecord(
            index=self.step_index, pid=pid, op=op, result=result,
            decided=decided,
        )
        self.step_index += 1
        if self.trace is not None:
            self.trace.append(record)
        return record

    def _step_reference(self, pid: int,
                        forced: Optional[Hashable] = None) -> StepRecord:
        """One reference-path step: the seed kernel's body.

        Immutable configuration rebuilt every step, fresh
        ``branches()`` + validation + access check every step, register
        access routed through the memory model (under the default
        :class:`~repro.sim.memory.AtomicMemory` the model resolution is
        the identity, so this is the seed kernel's behavior verbatim).
        This is the baseline the differential tests and the kernel
        benchmark compare the fast path against.
        """
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
            if forced is not None:
                raise SimulationError(
                    f"scheduler pre-committed read value {forced!r} but "
                    f"the step performed a write"
                )
            memory.write(pid, slot, op.value)
            result = None
        else:
            raise ProtocolError(f"unknown operation {op!r}")

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

        record = StepRecord(
            index=self.step_index, pid=pid, op=op, result=result, decided=decided
        )
        self.step_index += 1
        if self.trace is not None:
            self.trace.append(record)
        return record

    def _observed_step_processor(self, pid: int,
                                 forced: Optional[Hashable] = None
                                 ) -> StepRecord:
        """Instrumented twin of :meth:`step_processor`'s execution body.

        Emission order is part of the journal schema contract:
        coin-flip, then read/write, then decision, then step —
        :func:`repro.obs.journal.replay_journal` re-dispatches in the
        same order (a contended weak read's ``read_choices`` emission
        lands between coin-flip and read, from :meth:`_resolve_read`).
        Keep the state updates in lockstep with the fast and reference
        bodies above (this one serves both engines: the ``self._fast``
        forks select cached vs. per-step resolution, and buffer vs.
        immutable-configuration state, with identical emissions either
        way).
        """
        obs = self._obs
        timing = obs.timing
        t_step = perf_counter() if timing else 0.0
        fast = self._fast
        atomic = self._mem_atomic
        memory = self._memory
        if not atomic:
            memory.on_activate(pid)

        if fast:
            state = self._states[pid]
            cache = self._cache
            entry = cache.entry(pid, state)
            branches = entry.branches
        else:
            state = self._config_cache.states[pid]
            entry = None
            branches = self.protocol.branches(pid, state)
            if self._strict:
                self.protocol.validate_branches(branches)
        if len(branches) == 1:
            branch_index = 0
        elif entry is not None:
            branch_index = self._proc_rngs[pid].choice_index(
                entry.weights, entry.total)
            self.coin_flips[pid] += 1
            obs.coin_flip(pid, len(branches))
        else:
            weights = [b.probability for b in branches]
            branch_index = self._proc_rngs[pid].choice_index(weights)
            self.coin_flips[pid] += 1
            obs.coin_flip(pid, len(branches))
        op = branches[branch_index].op
        t_trans = perf_counter() - t_step if timing else 0.0

        if fast:
            _, is_read, slot, value = entry.execs[branch_index]
        elif isinstance(op, ReadOp):
            is_read, value = True, None
            slot = self.layout.check_read(pid, op.register)
        elif isinstance(op, WriteOp):
            is_read, value = False, op.value
            slot = self.layout.check_write(pid, op.register)
        else:
            raise ProtocolError(f"unknown operation {op!r}")

        # The ``memory`` phase times weak-memory value resolution (legal
        # sets, adversary consultation, write installation into the
        # model).  Atomic semantics do no resolution, so the phase is
        # only emitted — and only costs clock reads — off the atomic
        # path; atomic runs attribute register access to ``kernel``.
        t_mem = 0.0
        if is_read:
            if atomic:
                result: Hashable = memory.values[slot]
                if forced is not None:
                    self._check_forced_atomic(forced, True, result)
            else:
                t2 = perf_counter() if timing else 0.0
                choices = memory.read_choices(slot)
                if len(choices) == 1 and forced is None:
                    result = choices[0]
                else:
                    result = self._resolve_read(
                        pid, op.register, choices, forced)
                if timing:
                    t_mem = perf_counter() - t2
            obs.read(pid, op.register, result)
        else:
            if forced is not None:
                self._check_forced_atomic(forced, False, None)
            if atomic:
                memory.write(pid, slot, value)
            else:
                t2 = perf_counter() if timing else 0.0
                memory.write(pid, slot, value)
                if timing:
                    t_mem = perf_counter() - t2
            result = None
            obs.write(pid, op.register, value)

        t1 = perf_counter() if timing else 0.0
        if fast:
            new_state, decided = self._cache.outcome(
                pid, state, entry, branch_index, result)[:2]
            self._states[pid] = new_state
            self._config_cache = None
        else:
            new_state = self.protocol.observe(pid, state, op, result)
            config = self._config_cache
            self._config_cache = Configuration(
                states=config.states[:pid] + (new_state,)
                + config.states[pid + 1:],
                registers=tuple(memory.values),
                mem=None if atomic else memory.snapshot(),
            )
            decided = self.protocol.output(pid, new_state)
        self.activations[pid] += 1

        if timing:
            t_trans += perf_counter() - t1
        if decided is not None:
            self._record_decision(pid, decided)
            obs.decision(pid, decided, self.activations[pid])

        record = StepRecord(
            index=self.step_index, pid=pid, op=op, result=result, decided=decided
        )
        self.step_index += 1
        obs.step(record.index, pid, op, result, decided)
        if self.trace is not None:
            self.trace.append(record)
        if timing:
            if not atomic:
                obs.phase_time("memory", t_mem)
            obs.phase_time("transition", t_trans)
            obs.phase_time("step", perf_counter() - t_step)
        return record

    def _run_fast(self, max_steps: int, max_consults: int) -> None:
        """The fast path's inlined run loop (no sinks, no trace).

        Semantically identical to ``while not finished: self.step()``
        but with the per-step :class:`StepRecord` allocation skipped
        (nothing would consume it) and hot lookups bound to locals.
        Counters the :class:`SchedulerView` exposes (``step_index``,
        ``sched_consults``, ``activations``, ``coin_flips``,
        ``decisions``) stay live on ``self`` so schedulers observe
        exactly what they would under :meth:`step`.  Keep the step body
        in lockstep with :meth:`_step_fast`.
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
        choose = self.scheduler.choose
        view = self._view
        activations = self.activations
        coin_flips = self.coin_flips
        decisions = self.decisions
        # Each live processor's current transition entry: seeded lazily
        # from its state, then chained through the memoized outcomes'
        # next-entry pointers — no per-step state hashing.  Local to
        # this loop (nothing else mutates states while it runs).
        cur_entries: List[Optional[object]] = [None] * n
        # step_index/sched_consults are mirrored in locals and written
        # back to self *before* every scheduler consultation, so views
        # always read live values.
        step_index = self.step_index
        consults = self.sched_consults
        crashed = self.crashed

        while self._enabled and step_index < max_steps \
                and consults < max_consults:
            consults += 1
            self.sched_consults = consults
            action = choose(view)
            forced = None
            cls = action.__class__
            if cls is int:
                pid = action
            elif cls is Activate:
                pid = action.pid
                forced = action.read_value
            else:
                # Cold branch: crash injections and exotic action types.
                while isinstance(action, Crash):
                    self.crash(action.pid)
                    if not self._enabled:
                        raise SimulationError(
                            "scheduler crashed every remaining processor"
                        )
                    consults += 1
                    self.sched_consults = consults
                    action = choose(view)
                crashed = self.crashed
                pid = self._normalize_action(action)
                if isinstance(action, Activate):
                    forced = action.read_value
            if pid.__class__ is not int or not 0 <= pid < n:
                self._check_pid(pid)
            if pid in crashed:
                raise SimulationError(f"scheduled crashed processor {pid}")
            if pid in decisions:
                raise SimulationError(f"scheduled decided processor {pid}")

            if not atomic:
                memory.on_activate(pid)
            entry = cur_entries[pid]
            if entry is None:
                state = states[pid]
                entry = entries.get((pid, state))
                if entry is None:
                    entry = build_entry(pid, state)
            weights = entry.weights
            if weights is None:
                branch_index = 0
            else:
                branch_index = proc_rngs[pid].choice_index(
                    weights, entry.total)
                coin_flips[pid] += 1
            op, is_read, slot, value = entry.execs[branch_index]
            if atomic:
                if is_read:
                    result = registers[slot]
                else:
                    registers[slot] = value
                    result = None
                if forced is not None:
                    self._check_forced_atomic(forced, is_read, result)
            elif is_read:
                choices = memory.read_choices(slot)
                if len(choices) == 1 and forced is None:
                    result = choices[0]
                else:
                    result = self._resolve_read(
                        pid, op.register, choices, forced)
            else:
                if forced is not None:
                    self._check_forced_atomic(forced, False, None)
                memory.write(pid, slot, value)
                result = None
            outcome = entry.outcomes[branch_index].get(result)
            if outcome is None:
                outcome = resolve_outcome(pid, states[pid], entry,
                                          branch_index, result)
            states[pid] = outcome[0]
            cur_entries[pid] = outcome[2]
            self._config_cache = None
            activations[pid] += 1
            step_index += 1
            self.step_index = step_index
            decided = outcome[1]
            if decided is not None:
                self._record_decision(pid, decided)

    def run(self, max_steps: int,
            max_consults: Optional[int] = None) -> RunResult:
        """Run until every live processor decides, or a budget is hit.

        Two budgets bound the run.  ``max_steps`` bounds executed
        processor steps, as before.  ``max_consults`` additionally
        bounds *scheduler consultations*: a ``Crash`` action consumes
        no ``step_index``, so without this second budget a crash-happy
        adversary does unbounded scheduler work relative to
        ``max_steps``.  The default budget,
        ``max_steps + n_processes``, can never cut short a well-formed
        run (each step consumes one consultation and at most
        ``n_processes - 1`` crashes exist), so only pathological
        schedulers notice it.  The consumed count is reported on
        :attr:`RunResult.sched_consults` and via the observability
        metrics.
        """
        if max_consults is None:
            max_consults = max_steps + self.protocol.n_processes
        obs = self._obs
        if obs is not None:
            obs.run_start(self.protocol.name, self.protocol.n_processes,
                          self.inputs)
        if self._fast and obs is None and self.trace is None:
            self._run_fast(max_steps, max_consults)
        else:
            while (not self.finished and self.step_index < max_steps
                   and self.sched_consults < max_consults):
                self.step()
        result = self.result()
        if obs is not None:
            obs.run_end(result)
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
