"""Monte-Carlo experiment runner.

The paper's quantitative claims are about expectations and tail
probabilities over the protocol's coin flips, holding against *every*
scheduler.  The runner estimates those quantities empirically: it
executes many independent seeded runs of a protocol under a given
scheduler family and aggregates per-processor decision costs.

Factories (rather than instances) are taken for the protocol, the
scheduler, and the inputs so that stateful schedulers are fresh per run
and input assignments can be randomized per run.

Every run is keyed by ``derive_seed(root_seed, "run", run_index)``
(through :class:`~repro.sim.rng.RunStreams`), never by execution order, so
batches shard across worker processes with bit-identical results —
``run_many(..., workers=N)`` delegates to :mod:`repro.parallel` and
merges the shards back deterministically.
"""

from __future__ import annotations

import dataclasses
from typing import (TYPE_CHECKING, Any, Callable, Dict, Hashable, List,
                    Optional, Sequence)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import FaultPlan
    from repro.parallel.supervisor import FaultReport, SupervisorPolicy
    from repro.store import RunStore, StoreStats

from repro.engines import resolve_sim_engine
from repro.obs.hooks import BaseSink
from repro.obs.metrics import MetricsRegistry
from repro.sim.kernel import RunResult, Simulation
from repro.sim.memory import MemorySpec, memory_spec
from repro.sim.process import Automaton
from repro.sim.rng import ReplayableRng, RunStreams
from repro.sim.transitions import TransitionCache


ProtocolFactory = Callable[[], Automaton]
SchedulerFactory = Callable[[ReplayableRng], object]
InputsFactory = Callable[[int, ReplayableRng], Sequence[Hashable]]


@dataclasses.dataclass(frozen=True)
class RunStats:
    """Condensed per-run record kept by the runner.

    Partially decided runs (``completed=False``, e.g. cut off by the
    ``max_steps`` budget or starved by an adversary) still populate
    every field, but the per-processor maps are *sparse*:
    ``decisions`` and ``steps_to_decide`` carry entries only for the
    processors that actually decided, while ``coin_flips`` has an
    entry for every processor that flipped at least one coin (decided
    or not).  ``crashed`` lists processors the scheduler fail-stopped;
    they never appear in ``decisions``.
    """

    run_index: int
    completed: bool
    consistent: bool
    nontrivial: bool
    total_steps: int
    decisions: Dict[int, Hashable]
    steps_to_decide: Dict[int, int]
    coin_flips: Dict[int, int]
    crashed: frozenset = frozenset()
    sched_consults: int = 0

    @classmethod
    def from_result(cls, run_index: int, result: RunResult) -> "RunStats":
        """Condense a kernel :class:`RunResult` into the batch record.

        This is the single conversion point shared by the serial loop
        and the parallel shard workers, so both produce field-identical
        records for the same seeded run.  The record shares the
        result's maps, which :meth:`Simulation.result` already copied
        out of the live run.
        """
        return cls(
            run_index=run_index,
            completed=result.completed,
            consistent=result.consistent,
            nontrivial=result.nontrivial,
            total_steps=result.total_steps,
            decisions=result.decisions,
            steps_to_decide=result.decision_activation,
            coin_flips=result.coin_flips,
            crashed=result.crashed,
            sched_consults=result.sched_consults,
        )


@dataclasses.dataclass
class BatchStats:
    """Aggregate statistics over a batch of runs.

    ``metrics`` carries the :class:`~repro.obs.metrics.MetricsRegistry`
    that observed the batch, when the runner had one attached; it holds
    the streaming aggregates (histograms with percentiles, event
    counters) that the per-run :class:`RunStats` summaries do not.

    **Lifetime.** The registry is the *runner's* sink, not a copy: it
    is live before ``run_many`` is called, keeps accumulating if the
    same runner executes another batch, and is shared by every
    ``BatchStats`` that runner returns.  Snapshot it
    (:meth:`metrics_dict`) when you need the state of one batch in
    isolation — or use a fresh runner (and registry) per batch, which
    is what the CLI and benchmarks do.

    **Merge semantics.** ``run_many`` executes a batch as contiguous
    shards of run indices (one shard by default at ``workers=1``),
    each observed with a private registry — in this process or in a
    worker process — and the shards are folded into the runner's
    registry in shard order via
    :meth:`MetricsRegistry.merge`: counters add, histograms union
    their exact counts, and gauges union min/max while the *value*
    field is last-writer-wins in shard order — the same final value a
    serial pass over the runs in index order would have left.  Because
    every run's randomness is keyed only by ``(root seed, run index)``,
    the merged registry snapshot, the ``runs`` list, and any journal
    written are bit-identical to a ``workers=1`` batch with the same
    seed.

    ``journal_path`` / ``journal_events`` are set when ``run_many`` was
    asked to stream a journal (``journal_path=...``): the path of the
    finished JSONL file and its line count (header included).

    ``store`` carries the :class:`~repro.store.StoreStats` cache
    accounting (hits, misses, runs served from cache vs executed) when
    the batch ran against a :class:`~repro.store.RunStore`.

    ``faults`` carries the
    :class:`~repro.parallel.supervisor.FaultReport` when the batch ran
    supervised (``run_many(..., supervise=True)``): every fault the
    supervisor absorbed, plus the quarantined index ranges ``runs``
    omits.  ``None`` on unsupervised batches; a supervised fault-free
    batch carries an empty report (``faults.ok``).
    """

    runs: List[RunStats]
    max_steps: int
    metrics: Optional[MetricsRegistry] = None
    journal_path: Optional[str] = None
    journal_events: Optional[int] = None
    store: Optional["StoreStats"] = None
    faults: Optional["FaultReport"] = None

    def metrics_dict(self) -> Optional[Dict[str, Any]]:
        """JSON-ready snapshot of the attached registry, if any."""
        return self.metrics.to_dict() if self.metrics is not None else None

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def n_completed(self) -> int:
        return sum(1 for r in self.runs if r.completed)

    @property
    def completion_rate(self) -> float:
        return self.n_completed / self.n_runs if self.runs else 0.0

    @property
    def n_consistency_violations(self) -> int:
        return sum(1 for r in self.runs if not r.consistent)

    @property
    def n_nontriviality_violations(self) -> int:
        return sum(1 for r in self.runs if not r.nontrivial)

    def per_processor_costs(self) -> List[int]:
        """Steps-to-decide samples pooled over all processors and runs.

        This is the distribution the paper's Theorem 7 tail bound and
        its expected-steps corollary speak about.  Only processors
        that actually decided contribute a sample — partially decided
        runs contribute their deciders and nothing else (use
        :meth:`tail_probability` for a censoring-aware estimate).
        """
        samples: List[int] = []
        for run in self.runs:
            samples.extend(run.steps_to_decide.values())
        return samples

    def worst_processor_costs(self) -> List[int]:
        """Per-run worst steps-to-decide (only runs where all decided)."""
        out: List[int] = []
        for run in self.runs:
            if run.completed and run.steps_to_decide:
                out.append(max(run.steps_to_decide.values()))
        return out

    def mean_steps_to_decide(self) -> Optional[float]:
        samples = self.per_processor_costs()
        if not samples:
            return None
        return sum(samples) / len(samples)

    def tail_probability(self, k: int) -> float:
        """Empirical P(a processor has not decided after k of its steps).

        Runs censored by the step budget count as "not decided", making
        the estimate conservative (an upper bound in expectation).
        """
        undecided = 0
        total = 0
        for run in self.runs:
            # Every non-crashed processor contributes one Bernoulli sample
            # per run; coin_flips is keyed by every pid, decided or not.
            for pid in run.coin_flips:
                if pid in run.crashed:
                    continue
                total += 1
                cost = run.steps_to_decide.get(pid)
                if cost is None or cost > k:
                    undecided += 1
        return undecided / total if total else 0.0

    def mean_coin_flips(self) -> Optional[float]:
        samples: List[int] = []
        for run in self.runs:
            samples.extend(run.coin_flips.values())
        if not samples:
            return None
        return sum(samples) / len(samples)


def _run_key_sinks(sinks: Sequence[BaseSink]) -> tuple:
    """The sinks whose class overrides :meth:`BaseSink.on_run_key`."""
    noop = BaseSink.on_run_key
    return tuple([s for s in sinks
                  if getattr(type(s), "on_run_key", noop) is not noop])


class ExperimentRunner:
    """Run a protocol many times and aggregate statistics.

    Example
    -------
    >>> from repro.core.two_process import TwoProcessProtocol
    >>> from repro.sched.simple import RandomScheduler
    >>> runner = ExperimentRunner(
    ...     protocol_factory=lambda: TwoProcessProtocol(("a", "b")),
    ...     scheduler_factory=lambda rng: RandomScheduler(rng),
    ...     inputs_factory=lambda i, rng: ("a", "b"),
    ...     seed=42,
    ... )
    >>> stats = runner.run_many(100, max_steps=1000)
    >>> stats.n_consistency_violations
    0
    """

    def __init__(
        self,
        protocol_factory: ProtocolFactory,
        scheduler_factory: SchedulerFactory,
        inputs_factory: InputsFactory,
        seed: int,
        strict: bool = False,
        sinks: Sequence[BaseSink] = (),
        memory=None,
        engine: Optional[str] = None,
    ) -> None:
        self._protocol_factory = protocol_factory
        self._scheduler_factory = scheduler_factory
        self._inputs_factory = inputs_factory
        self._seed = seed
        self._strict = strict
        self._sinks = tuple(sinks)
        # ``engine`` names the execution backend, resolved and
        # validated through the registry (repro.engines).  "vector"
        # steps each run over compiled integer tables (repro.ir) and
        # is bit-identical to the interpreted kernels for the
        # supported protocol × scheduler × memory matrix (docs/IR.md
        # §5); it raises IRUnsupportedError at first use otherwise.
        self._engine_info = resolve_sim_engine(engine)
        self._engine = self._engine_info.name
        self._fast = self._engine == "fast"
        # Every run's streams derive from (seed, "run", index); the
        # batch-invariant part of that derivation is folded once here.
        self._streams = RunStreams(seed)
        # Register semantics for every run of the batch (a picklable
        # MemorySpec, so parallel shards inherit it unchanged).
        self._memory: MemorySpec = memory_spec(memory)
        # One TransitionCache for the whole batch: the factory contract
        # (fresh but equivalent protocol per run) makes sharing sound,
        # and it amortizes branch/layout/initial-state resolution across
        # runs.  See repro.sim.transitions and docs/PERFORMANCE.md.
        self._cache: Optional[TransitionCache] = None
        # Lazily built VectorKernel (engine="vector"): the compiled
        # tables and scheduler spec are shared by every run.
        self._vector = None

    @property
    def engine(self) -> str:
        """The execution backend: ``fast``, ``reference``, or ``vector``."""
        return self._engine

    @property
    def sinks(self) -> tuple:
        """Every attached sink, in attachment order."""
        return self._sinks

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The attached batch-wide metrics registry, if any."""
        for sink in self._sinks:
            if isinstance(sink, MetricsRegistry):
                return sink
        return None

    def _vector_kernel(self):
        """Build (once) the shared VectorKernel for ``engine="vector"``.

        The scheduler factory is probed with a throwaway rng to learn
        the scheduler *kind* (and round-robin start); the factory
        contract — fresh but equivalent scheduler per run — makes that
        sound, exactly like the shared TransitionCache.  Per-run
        scheduler randomness still comes from each run's own ``sched``
        stream, derived inside the kernel.
        """
        if self._vector is None:
            from repro.ir import (VectorKernel, compile_protocol,
                                  vectorize_scheduler)

            protocol = self._protocol_factory()
            probe = self._scheduler_factory(
                ReplayableRng(self._seed).child("sched-probe"))
            self._vector = VectorKernel(
                compile_protocol(protocol, strict=self._strict),
                vectorize_scheduler(probe),
                memory=self._memory,
            )
        return self._vector

    def _run_one_vector(self, run_index: int, max_steps: int,
                        record_trace: bool,
                        sinks: Sequence[BaseSink]) -> RunResult:
        from repro.ir import replay_run

        vk = self._vector_kernel()
        sched_rng, inputs_rng, kernel_rng = self._streams.streams(run_index)
        inputs = self._inputs_factory(run_index, inputs_rng)
        result, rec = vk.run(inputs, sched_rng, kernel_rng, max_steps,
                             record=bool(sinks), record_trace=record_trace)
        if sinks:
            # replay_run emits on_run_key first, then the kernel event
            # stream — the exact order an instrumented Simulation (and
            # run_one's interpreted path) produces.
            replay_run(vk.compiled, result, rec, sinks, self._seed,
                       run_index)
        return result

    def run_one(self, run_index: int, max_steps: int,
                record_trace: bool = False,
                sinks: Optional[Sequence[BaseSink]] = None) -> RunResult:
        """Execute a single run (deterministic given the runner seed).

        Sinks never perturb the run itself: the kernel's coin streams
        are independent of observation, so results are bit-identical
        with and without instrumentation.

        Before the kernel's ``on_run_start``, every sink implementing
        ``on_run_key`` receives ``(root_seed, run_index)`` — the
        coordinates that replay this exact run, and the input from
        which the span tracer derives its deterministic trace ids.
        """
        sinks = self._sinks if sinks is None else sinks
        return self._run(run_index, max_steps, record_trace, sinks,
                         _run_key_sinks(sinks))

    def _run(self, run_index: int, max_steps: int, record_trace: bool,
             sinks: Sequence[BaseSink],
             keyed: Sequence[BaseSink]) -> RunResult:
        """One run; ``keyed`` are the ``sinks`` that take ``on_run_key``."""
        if self._engine == "vector":
            return self._run_one_vector(run_index, max_steps,
                                        record_trace, sinks)
        for sink in keyed:
            sink.on_run_key(self._seed, run_index)
        sched_rng, inputs_rng, kernel_rng = self._streams.streams(run_index)
        protocol = self._protocol_factory()
        scheduler = self._scheduler_factory(sched_rng)
        inputs = self._inputs_factory(run_index, inputs_rng)
        cache = None
        if self._fast:
            cache = self._cache
            if cache is None:
                cache = self._cache = TransitionCache(
                    protocol, strict=self._strict)
        sim = Simulation(
            protocol,
            inputs,
            scheduler,
            kernel_rng,
            record_trace=record_trace,
            strict=self._strict,
            sinks=sinks,
            engine=self._engine_info,
            cache=cache,
            memory=self._memory,
        )
        return sim.run(max_steps)

    def run_range(self, start: int, stop: int, max_steps: int,
                  sinks: Optional[Sequence[BaseSink]] = None,
                  emitter=None) -> List[RunStats]:
        """Execute runs ``[start, stop)`` in index order.

        The shared inner loop of serial batches and parallel shards:
        every engine steps one run at a time through :meth:`run_one`.
        ``emitter`` (a :class:`~repro.obs.telemetry.TelemetryEmitter`)
        receives one ``record_run`` per run.
        """
        sinks = self._sinks if sinks is None else sinks
        keyed = _run_key_sinks(sinks)
        run = self._run
        from_result = RunStats.from_result
        runs = []
        for i in range(start, stop):
            result = run(i, max_steps, False, sinks, keyed)
            runs.append(from_result(i, result))
            if emitter is not None:
                emitter.record_run(result.total_steps)
        return runs

    def run_many(
        self,
        n_runs: int,
        max_steps: int,
        workers: int = 1,
        shard_size: Optional[int] = None,
        journal_path: Optional[str] = None,
        telemetry_path: Optional[str] = None,
        mp_context: Optional[str] = None,
        store: Optional["RunStore"] = None,
        supervise: bool = False,
        policy: Optional["SupervisorPolicy"] = None,
        fault_plan: Optional["FaultPlan"] = None,
    ) -> BatchStats:
        """Execute ``n_runs`` independent runs and aggregate.

        The batch goes through the one shard executor,
        :func:`repro.parallel.engine.run_parallel`.  At ``workers=1``
        with no supervision its shards run in this process, on this
        runner and its sinks; an attached
        :class:`~repro.obs.metrics.MetricsRegistry` receives every
        shard's registry (merged in shard order) and is handed to the
        returned :class:`BatchStats` as ``metrics``.

        ``workers > 1`` runs the shards on that many long-lived worker
        processes (see :mod:`repro.parallel`).  Because each run's
        randomness is keyed only by the root seed and its index, the
        result — run stats, merged metrics snapshot, and journal bytes
        — is bit-identical to ``workers=1`` with the same seed, at any
        worker count and ``shard_size``.  Out-of-process shards
        require picklable factories (module-level functions or the
        specs in :mod:`repro.parallel.tasks`), and the only sink kind
        that may be attached is a :class:`MetricsRegistry` (shards
        merge into it); stream a journal with ``journal_path=``
        instead of attaching a :class:`JsonlJournal` sink.  A shard
        that faults there aborts the batch with
        :class:`~repro.parallel.supervisor.SupervisorError`.

        ``mp_context`` names the workers' ``multiprocessing`` start
        method.  ``None`` (default) resolves through
        :func:`repro.parallel.engine.default_start_method`: ``"fork"``
        on a single-threaded Linux process, so workers start with the
        caller's modules already loaded, and ``"spawn"`` elsewhere.
        Scripts should still guard their entry point with
        ``if __name__ == "__main__":`` for the spawn fallback.

        ``journal_path`` streams a batch-spanning JSONL journal to that
        path in either mode; the finished path and its event count are
        reported on the returned stats.

        ``telemetry_path`` streams live progress heartbeats (JSONL, one
        per ~1% of each shard — see :mod:`repro.obs.telemetry`) to that
        path in either mode; follow it live with ``repro top``.
        Heartbeats carry wall-clock rates and never affect results.

        ``store`` attaches a :class:`~repro.store.RunStore`: shards
        already committed under this batch's content address are
        loaded instead of executed, freshly executed shards are
        committed as they finish (so interruption granularity is the
        shard), and the returned stats carry a ``store`` accounting.
        Store-backed batches need spec-class factories (the store keys
        on their canonical form).

        ``supervise=True`` (or passing ``policy`` / ``fault_plan``)
        makes the batch supervised
        (:func:`repro.parallel.supervisor.run_supervised`): shards run
        on watched worker processes even at ``workers=1``, with
        bounded deterministic retries, optional engine degradation,
        and quarantine instead of sweep death.  Results stay
        bit-identical to the unsupervised batch; the returned stats
        gain a ``faults``
        :class:`~repro.parallel.supervisor.FaultReport`.
        """
        from repro.parallel.engine import BatchSpec, run_parallel

        spec = BatchSpec(
            protocol_factory=self._protocol_factory,
            scheduler_factory=self._scheduler_factory,
            inputs_factory=self._inputs_factory,
            seed=self._seed,
            strict=self._strict,
            memory=self._memory,
            engine=self._engine,
        )
        options = dict(
            workers=workers, shard_size=shard_size,
            journal_path=journal_path, telemetry_path=telemetry_path,
            registry=self.metrics, mp_context=mp_context, store=store,
            fault_plan=fault_plan, runner=self)
        if supervise or policy is not None or fault_plan is not None:
            from repro.parallel.supervisor import run_supervised

            return run_supervised(spec, n_runs, max_steps, policy=policy,
                                  **options)
        return run_parallel(spec, n_runs, max_steps, **options)
