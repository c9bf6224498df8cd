"""The shard executor behind every Monte-Carlo sweep.

Runs in a batch are independent coin-flip experiments: every stochastic
stream of run ``i`` derives from ``derive_seed(root_seed, "run", i)``
(see :meth:`repro.sim.runner.ExperimentRunner.run_one`), so a run's
outcome depends only on the root seed and its index — never on which
process executes it or in what order.  That makes batches trivially
shardable: split the index range ``[0, n_runs)`` into contiguous
shards, execute them anywhere, and merge the shards back in index
order.  The merged result is bit-identical to a serial run with the
same root seed, at any worker count and any shard size.

:func:`run_parallel` plans, caches, executes, commits and merges every
sweep that uses a store, supervision, a fault plan or more than one
worker, with the shard plan, shard body and merge of
:mod:`repro.parallel.shards`; a serial sweep with none of those runs
on those alone (:func:`~repro.parallel.shards.run_in_process`), and
loads neither this module nor the supervisor.  Shards execute either

* **in-process**, on the caller's own runner and sinks, when
  ``workers == 1`` and there is no supervision policy and no fault
  plan; or
* on at most ``workers`` **long-lived worker processes**, each
  connected to the parent by one duplex pipe carrying tasks, results
  and heartbeats.  A worker runs shard after shard; one that crashes,
  hangs past ``policy.shard_timeout`` or raises is killed or retired
  and replaced, and the shard's fate follows the
  :class:`~repro.parallel.supervisor.SupervisorPolicy`.  Unsupervised
  sweeps run under ``on_fault="fail"``: the first fault aborts them
  with a :class:`~repro.parallel.supervisor.SupervisorError`.

Each shard observes itself with its own
:class:`~repro.obs.metrics.MetricsRegistry` (and, when asked, its own
JSONL journal shard).  The merge step is deterministic:

* per-run :class:`~repro.sim.runner.RunStats` concatenate in shard
  order, which *is* global run order because shards are contiguous;
* shard registries fold together via
  :meth:`~repro.obs.metrics.MetricsRegistry.merge` in shard order
  (counters add, histograms union counts, gauges keep min/max unions
  and take the last shard's last value);
* journal shards concatenate via
  :func:`~repro.obs.journal.concatenate_journals`, keeping a single
  header line — byte-identical to the journal a serial run writes (a
  lone shard is renamed into place by
  :func:`~repro.obs.journal.adopt_journal`).

Shards that leave the process need picklable task specs (the engine
checks up front and raises a descriptive error otherwise): use
module-level factory functions or the spec classes in
:mod:`repro.parallel.tasks`.  A sweep that names no start method uses
:func:`default_start_method`: ``fork`` on a single-threaded Linux
process, so workers inherit the parent's loaded modules and skip the
interpreter start-up, and ``spawn`` everywhere else, the portable
method, under which workers re-import the library.  Either way a
worker only reads what it inherits: it talks to the parent over its
own pipe and writes only its own shard journal, so results are the
same under both methods.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

# The journal, telemetry, fault-injection and pickling modules load
# where a sweep uses them, so a serial unjournaled sweep loads only the
# in-process path (docs/PERFORMANCE.md, "Start-up").
from repro.engines import resolve_sim_engine
from repro.obs.metrics import MetricsRegistry
from repro.parallel.shards import (ShardResult, execute_shard,
                                   merge_shards, plan_shards,
                                   shard_journal_path)
from repro.parallel.supervisor import (FaultEvent, FaultReport,
                                       SupervisorError, SupervisorPolicy,
                                       degraded_engine)
from repro.sim.memory import ATOMIC, MemorySpec

#: Policy of unsupervised sweeps whose shards leave the process.
_UNSUPERVISED = SupervisorPolicy(on_fault="fail")


@dataclasses.dataclass(frozen=True)
class BatchSpec:
    """Everything a worker needs to rebuild the experiment.

    The three factories follow the :class:`ExperimentRunner` contract
    (see :mod:`repro.sim.runner`) and must be picklable.
    """

    protocol_factory: Callable
    scheduler_factory: Callable
    inputs_factory: Callable
    seed: int
    strict: bool = False
    #: Register semantics of every run (picklable; see repro.sim.memory).
    memory: MemorySpec = ATOMIC
    #: Execution backend name, resolved through the engine registry
    #: (:mod:`repro.engines`); ``None`` means the registry default
    #: (``"fast"``).  Workers rebuild their runner with it, so every
    #: shard runs on the batch's engine.
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        # Validate once, in the submitting process; workers rebuild
        # specs via pickle, which skips __init__.
        resolve_sim_engine(self.engine)

    @property
    def resolved_engine(self) -> str:
        """The effective engine name (default filled in)."""
        return resolve_sim_engine(self.engine).name


@dataclasses.dataclass(frozen=True)
class ShardTask:
    """One contiguous slice ``[start, stop)`` of a batch's run indices."""

    spec: BatchSpec
    start: int
    stop: int
    max_steps: int
    with_metrics: bool
    journal_path: Optional[str] = None
    #: Position of this shard in the batch plan (heartbeat identity).
    shard_index: int = 0
    #: Emit live heartbeats (see :mod:`repro.obs.telemetry`).  The
    #: executor decides where they go: straight into the telemetry
    #: file in-process, over the worker's pipe to the parent otherwise.
    telemetry: bool = False


def _spec_runner(spec: BatchSpec):
    """A sink-less :class:`ExperimentRunner` rebuilt from ``spec``."""
    from repro.sim.runner import ExperimentRunner

    return ExperimentRunner(
        protocol_factory=spec.protocol_factory,
        scheduler_factory=spec.scheduler_factory,
        inputs_factory=spec.inputs_factory,
        seed=spec.seed,
        strict=spec.strict,
        memory=spec.memory,
        engine=spec.resolved_engine,
    )


def _execute_shard(task: ShardTask, runner, sinks=(),
                   beat: Optional[Callable[[Dict[str, Any]], None]] = None
                   ) -> ShardResult:
    """Run ``task`` on ``runner`` through the shard body,
    :func:`~repro.parallel.shards.execute_shard`; ``beat`` receives its
    heartbeats when ``task.telemetry`` is set."""
    return execute_shard(
        runner, task.start, task.stop, task.max_steps, task.with_metrics,
        task.journal_path, task.spec.memory.name, task.shard_index, sinks,
        beat if task.telemetry else None)


def _worker(conn) -> None:
    """Worker process body: run shards from the pipe until told to stop.

    Module-level so it pickles under ``spawn``.  Each message is a
    ``(ShardTask, FaultAction | None)`` pair, or ``None`` to stop.  The
    worker answers ``("beat", dict)`` heartbeats, then ``("ok",
    ShardResult)``, or ``("error", summary, traceback)`` after which
    it exits (a worker that raised is retired, never reused).  An
    injected (or real) crash sends nothing: the parent sees pipe EOF.
    The injected fault, if any, triggers *before* the shard does any
    work, so a crash or hang never leaves a half-observed shard.

    The runner is rebuilt only when the spec changes, so shards of one
    sweep share its transition cache, as a serial batch does.
    """
    runner = spec = None

    def beat(d: Dict[str, Any]) -> None:
        conn.send(("beat", d))

    try:
        while True:
            message = conn.recv()
            if message is None:
                return
            task, fault = message
            try:
                if fault is not None:
                    from repro.faults import trigger_worker_fault

                    trigger_worker_fault(fault)
                if task.spec != spec:
                    runner, spec = _spec_runner(task.spec), task.spec
                result = _execute_shard(task, runner, beat=beat)
            except Exception as exc:  # noqa: BLE001 - forwarded
                import traceback

                conn.send(("error", f"{type(exc).__name__}: {exc}",
                           traceback.format_exc()))
                return
            conn.send(("ok", result))
    except (EOFError, OSError):
        return  # the parent went away
    finally:
        conn.close()


def _check_picklable(spec: BatchSpec) -> None:
    # Only genuine pickling failures get the "use the spec classes"
    # diagnosis; anything else a factory's __reduce__/__getstate__
    # raises is a real bug in that factory and propagates unchanged
    # (with its original traceback), not dressed up as a pickle
    # problem.
    import pickle

    try:
        pickle.dumps(spec)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise ValueError(
            "parallel batches need picklable factories (they cross a "
            "process boundary): use module-level functions or the spec "
            "classes in repro.parallel.tasks (ProtocolSpec, "
            "SchedulerSpec, ConstantInputs) instead of lambdas or "
            f"closures [pickle said: {exc}]"
        ) from exc


def default_start_method() -> str:
    """The ``multiprocessing`` start method of a sweep that names none.

    ``"fork"`` when ``multiprocessing`` offers it, the platform is
    Linux and the calling process runs no other thread; ``"spawn"``
    otherwise.  A forked child copies only the forking thread, so a
    lock another thread holds (logging's, an allocator's) would stay
    locked in the worker forever; with one thread there is no such
    lock.  macOS offers ``fork`` but its system libraries are not
    fork-safe, which is why it is Linux only.  ``forkserver`` is never
    picked: its workers are children of the server process, so their
    CPU time would not count towards the command that ran the sweep.
    """
    import multiprocessing
    import threading

    if (sys.platform.startswith("linux")
            and "fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1):
        return "fork"
    return "spawn"


def _warm_spec(spec: BatchSpec, journal: bool, telemetry: bool) -> None:
    """Build what ``spec`` builds once, before forking its workers.

    Forked workers inherit the parent's loaded modules, so loading here
    the runner and whatever the spec's protocol and scheduler factories
    import (the same throwaway probe ``ExperimentRunner`` makes for the
    vector kernel), and the journal and telemetry modules when the
    shards use them, lets every worker start warm, holding only the
    modules this sweep runs.  A factory that raises is left for the
    shard to report, under the sweep's fault policy.
    """
    from repro.sim.rng import ReplayableRng

    if journal:
        import repro.obs.journal  # noqa: F401
    if telemetry:
        import repro.obs.telemetry  # noqa: F401
    try:
        _spec_runner(spec)
        spec.protocol_factory()
        spec.scheduler_factory(ReplayableRng(spec.seed).child("sched-probe"))
    except Exception:  # noqa: BLE001 - the worker raises it again
        pass


def _shard_payload(task: ShardTask, result: ShardResult):
    """Package one executed shard for the store (journal bytes inline)."""
    from repro.store import ShardPayload

    journal_bytes = None
    if task.journal_path is not None:
        with open(task.journal_path, "rb") as fh:
            journal_bytes = fh.read()
    return ShardPayload(
        start=result.start, stop=result.stop, runs=result.runs,
        metrics=result.metrics, journal_bytes=journal_bytes,
        journal_events=result.journal_events)


@dataclasses.dataclass
class _Attempt:
    """One execution attempt of a shard, launchable after ``not_before``."""

    shard: int
    attempt: int
    engine: str
    not_before: float = 0.0


@dataclasses.dataclass
class _Worker:
    """A live worker process and the attempt it is running, if any."""

    proc: Any
    conn: Any
    job: Optional[_Attempt] = None
    deadline: Optional[float] = None


def _run_on_workers(jobs: List[_Attempt], workers: int, ctx,
                    policy: SupervisorPolicy, plan, make_task,
                    on_done, on_fault, beat) -> None:
    """Drive ``jobs`` through at most ``workers`` watched processes.

    ``on_done(job, result)`` and ``on_fault(job, kind, detail)`` return
    the retry attempt to enqueue, if any; ``on_fault`` may raise to
    abort the sweep.  Workers start on demand and run shard after
    shard.  One that crashes, times out or raises is retired and, while
    jobs are pending, replaced at once, so the number of starts follows
    the faults and not their timing.
    """
    from multiprocessing.connection import wait as wait_for

    pending = list(jobs)
    live: List[_Worker] = []

    def start() -> _Worker:
        conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_worker, args=(child_conn,), daemon=True)
        proc.start()
        child_conn.close()
        worker = _Worker(proc=proc, conn=conn)
        live.append(worker)
        return worker

    def retire(worker: _Worker, kill: bool = False) -> None:
        if kill:
            worker.proc.kill()
        worker.proc.join()
        worker.conn.close()
        live.remove(worker)

    def fail(worker: _Worker, kind: str, detail: str) -> None:
        job, worker.job = worker.job, None
        retry = on_fault(job, kind, detail)
        if retry is not None:
            pending.append(retry)
        if pending:
            start()

    def receive(worker: _Worker) -> None:
        while worker.job is not None and worker.conn.poll():
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                # EOF without a report: the worker died before sending
                # (os._exit, OOM kill, segfault).
                retire(worker)
                fail(worker, "crash", f"worker exited with code "
                                      f"{worker.proc.exitcode} before "
                                      f"reporting")
                return
            if message[0] == "beat":
                beat(message[1])
            elif message[0] == "ok":
                job, worker.job = worker.job, None
                retry = on_done(job, message[1])
                if retry is not None:
                    pending.append(retry)
            else:
                retire(worker)
                fail(worker, "exception", message[1])

    try:
        while pending or any(w.job is not None for w in live):
            now = time.monotonic()
            for job in [p for p in pending if p.not_before <= now]:
                idle = next((w for w in live if w.job is None), None)
                if idle is None:
                    if len(live) >= workers:
                        break
                    idle = start()
                pending.remove(job)
                fault = plan.worker_action(job.shard, job.attempt) \
                    if plan else None
                idle.conn.send((make_task(job.shard, job.engine), fault))
                idle.job = job
                idle.deadline = (now + policy.shard_timeout
                                 if policy.shard_timeout is not None
                                 else None)

            busy = [w for w in live if w.job is not None]
            wakes = [w.deadline for w in busy if w.deadline is not None]
            wakes += [p.not_before for p in pending if p.not_before > now]
            timeout = max(0.0, min(wakes) - now) if wakes else None
            if not busy:
                time.sleep(timeout or 0.0)
                continue
            ready = wait_for([w.conn for w in busy], timeout)
            for worker in busy:
                if worker.conn in ready:
                    receive(worker)
                elif worker.deadline is not None \
                        and time.monotonic() > worker.deadline:
                    retire(worker, kill=True)
                    fail(worker, "timeout",
                         f"exceeded shard_timeout={policy.shard_timeout}s;"
                         f" killed")
    finally:
        for worker in list(live):
            if worker.job is None:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
            worker.proc.join(timeout=5 if worker.job is None else 0)
            retire(worker, kill=worker.proc.is_alive())


def run_parallel(
    spec: BatchSpec,
    n_runs: int,
    max_steps: int,
    workers: int,
    shard_size: Optional[int] = None,
    journal_path: Optional[str] = None,
    telemetry_path: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
    mp_context: Optional[str] = None,
    store=None,
    policy: Optional[SupervisorPolicy] = None,
    fault_plan=None,
    runner=None,
):
    """Execute a sharded batch and merge it back into one ``BatchStats``.

    Parameters
    ----------
    registry:
        The caller's batch-wide :class:`MetricsRegistry`, if it has
        one.  Shard registries are folded into it in shard order and it
        becomes ``BatchStats.metrics`` — mirroring the serial contract
        where the runner's attached registry accumulates the batch.
        When ``None``, no metrics are collected (again matching a
        serial runner with no registry attached).
    journal_path:
        Final path of the batch journal.  Each shard streams to
        ``<journal_path>.shard<k>``; the shards are concatenated (one
        header, shard order) into ``journal_path`` and removed.
    telemetry_path:
        Live-progress JSONL file (see :mod:`repro.obs.telemetry`).
        Shards emit heartbeats (over their worker's pipe when out of
        process) and the parent appends them here as they arrive, so
        ``repro top <path>`` follows the sweep from another terminal.
        Fault records interleave as ``{"kind": "fault", ...}``.
        Heartbeats carry wall-clock rates — the file differs between
        repeats of the same seeded sweep even though the returned stats
        do not.
    mp_context:
        ``multiprocessing`` start method of the worker processes.
        ``None`` (default) picks :func:`default_start_method`:
        ``"fork"`` on a single-threaded Linux process, ``"spawn"``
        elsewhere.  An explicit name always wins.  Results are
        identical under every method.
    store:
        Optional :class:`~repro.store.RunStore`.  Shards already
        committed under this sweep's content address ``(spec_hash,
        root_seed, index_range)`` are loaded instead of executed (a
        damaged one is healed: quarantined as ``*.corrupt`` and
        recomputed); every freshly executed shard is committed (atomic
        tmp+rename) the moment it finishes, so an interrupted sweep
        resumes from its last committed shard.  The returned stats
        carry a :class:`~repro.store.StoreStats` accounting.
    policy:
        A :class:`~repro.parallel.supervisor.SupervisorPolicy` makes
        the sweep supervised: shards always run on worker processes
        (even at ``workers=1``) and the stats carry a
        :class:`~repro.parallel.supervisor.FaultReport` on ``.faults``.
        Without one, ``.faults`` is ``None`` and the first fault of an
        out-of-process shard raises
        :class:`~repro.parallel.supervisor.SupervisorError`.
    fault_plan:
        Test-only :class:`~repro.faults.FaultPlan` injecting faults at
        exact ``(shard, attempt)`` coordinates; forces worker
        processes, like ``policy``.
    runner:
        The calling :class:`~repro.sim.runner.ExperimentRunner`.
        In-process shards run on it, observed by its sinks (all but
        ``registry``, which receives the merged shard registries);
        sinks other than ``registry`` cannot follow shards into worker
        processes and are refused there.

    Returns a :class:`~repro.sim.runner.BatchStats` bit-identical to
    the serial equivalent: same ``runs`` list, same merged metrics
    snapshot, same journal bytes.  Quarantined shards (supervised
    sweeps only) are omitted from ``runs`` and named in the report.
    """
    from repro.sim.runner import BatchStats

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    in_process = workers == 1 and policy is None and fault_plan is None
    extra_sinks: Tuple = ()
    if runner is not None:
        extra_sinks = tuple(s for s in runner.sinks if s is not registry)
    if not in_process:
        if extra_sinks:
            names = ", ".join(type(s).__name__ for s in extra_sinks)
            raise ValueError(
                f"sinks cannot cross process boundaries in a parallel "
                f"batch (attached: {names}); attach only a "
                f"MetricsRegistry and pass journal_path= for journals, "
                f"or run with workers=1")
        _check_picklable(spec)
    supervised = policy is not None
    policy = policy or _UNSUPERVISED
    report = FaultReport()

    shards = plan_shards(n_runs, workers, shard_size)
    with_metrics = registry is not None
    engine = spec.resolved_engine

    # -- spec hash / store preamble (healing resume) -------------------
    run_spec = spec_hash = store_stats = None
    if store is not None or (fault_plan is not None
                             and fault_plan.spec_hash is not None):
        from repro.spec import ObsOptions, RunSpec

        run_spec = RunSpec.from_batch(
            spec, max_steps=max_steps,
            obs=ObsOptions(metrics=with_metrics,
                           journal=journal_path is not None))
        spec_hash = run_spec.spec_hash()
    plan = fault_plan if (fault_plan is not None
                          and fault_plan.applies_to(spec_hash)) else None

    cached: Dict[int, Any] = {}
    if store is not None:
        from repro.store import StoreStats

        store_stats = StoreStats(spec_hash=spec_hash)
        healed_before = len(store.healed)
        for k, (start, stop) in enumerate(shards):
            # heal=True: a committed shard damaged at rest is
            # quarantined as *.corrupt and simply re-executed — a fact
            # is always recomputable.
            payload = store.load_shard(spec_hash, spec.seed, start, stop,
                                       heal=True)
            if payload is not None:
                cached[k] = payload
                store_stats.hits += 1
                store_stats.runs_from_cache += stop - start
            else:
                store_stats.misses += 1
                store_stats.runs_executed += stop - start
        report.healed = store.healed[healed_before:]
        for path in report.healed:
            report.events.append(FaultEvent(
                shard=-1, attempt=0, kind="healed", engine=engine,
                action="healed",
                detail=f"damaged shard file quarantined as "
                       f"{path}.corrupt; recomputing"))

    completed: Dict[int, ShardResult] = {}
    quarantined: Dict[int, Tuple[int, int]] = {}
    telemetry_fh = open(telemetry_path, "w") \
        if telemetry_path is not None else None
    append = None
    if telemetry_fh is not None:
        from repro.obs.telemetry import file_sink

        append = file_sink(telemetry_fh)

    def make_task(shard: int, task_engine: str) -> ShardTask:
        start, stop = shards[shard]
        task_spec = spec
        if task_engine != engine:
            # Degraded attempt: rebuild the spec on the lower rung.
            # The shard still commits under the ORIGINAL run_spec —
            # sound because the engines are verified bit-identical.
            task_spec = dataclasses.replace(spec, engine=task_engine)
        return ShardTask(
            spec=task_spec, start=start, stop=stop, max_steps=max_steps,
            with_metrics=with_metrics,
            journal_path=(shard_journal_path(journal_path, shard)
                          if journal_path is not None else None),
            shard_index=shard, telemetry=append is not None)

    def record(job: _Attempt, kind: str, action: str, detail: str) -> None:
        report.events.append(FaultEvent(
            shard=job.shard, attempt=job.attempt, kind=kind,
            engine=job.engine, action=action, detail=detail))
        if append is not None:
            append({"kind": "fault", "shard": job.shard,
                    "attempt": job.attempt, "fault": kind,
                    "engine": job.engine, "action": action,
                    "detail": detail})

    def on_fault(job: _Attempt, kind: str,
                 detail: str) -> Optional[_Attempt]:
        start, stop = shards[job.shard]
        if policy.on_fault == "fail":
            record(job, kind, "fail", detail)
            raise SupervisorError(
                f"shard {job.shard} (runs [{start}, {stop})) attempt "
                f"{job.attempt} on engine {job.engine!r} faulted: "
                f"{kind}: {detail} [on_fault='fail'; supervise with "
                f"on_fault retry/degrade/quarantine to continue past "
                f"faults]")
        if policy.on_fault not in ("retry", "degrade") \
                or job.attempt >= policy.max_retries:
            quarantined[job.shard] = (start, stop)
            record(job, kind, "quarantine", detail)
            return None
        next_engine = (degraded_engine(job.engine)
                       if policy.on_fault == "degrade" else job.engine)
        delay = policy.backoff(job.attempt + 1)
        record(job, kind,
               "retry" if next_engine == job.engine
               else f"retry@{next_engine}",
               f"{detail}; backoff {delay:.3f}s")
        return _Attempt(shard=job.shard, attempt=job.attempt + 1,
                        engine=next_engine,
                        not_before=time.monotonic() + delay)

    def on_done(job: _Attempt,
                result: ShardResult) -> Optional[_Attempt]:
        if store is not None:
            action = plan.store_action(job.shard, job.attempt) \
                if plan else None
            if action is not None and action.kind == "commit-fail":
                # Work done, fact lost: the commit "fsync failed", so
                # the result is discarded and the shard re-executes —
                # the strictest reading of a failed durable write.
                return on_fault(job, "commit-fail",
                                "injected commit failure (fsync)")
            path = store.commit_shard(
                run_spec, spec.seed,
                _shard_payload(make_task(job.shard, job.engine), result))
            if action is not None and action.kind == "corrupt":
                # At-rest damage after a successful commit: the sweep
                # in flight is unaffected; the NEXT resume heals it.
                from repro.faults import corrupt_file

                corrupt_file(path, action.mode)
                record(job, "corrupt", "damaged",
                       f"injected {action.mode} damage to {path}")
        completed[job.shard] = result
        return None

    jobs = [_Attempt(shard=k, attempt=0, engine=engine)
            for k in range(len(shards)) if k not in cached]
    try:
        if in_process:
            runner = runner if runner is not None else _spec_runner(spec)
            for job in jobs:
                on_done(job, _execute_shard(
                    make_task(job.shard, engine), runner, extra_sinks,
                    append))
        elif jobs:
            import multiprocessing

            method = mp_context or default_start_method()
            if method == "fork":
                _warm_spec(spec, journal=journal_path is not None,
                           telemetry=append is not None)
            _run_on_workers(jobs, workers,
                            multiprocessing.get_context(method),
                            policy, plan, make_task, on_done, on_fault,
                            append)
    finally:
        if telemetry_fh is not None:
            telemetry_fh.close()

    # -- deterministic merge, in shard order, minus quarantined shards -
    results: List[ShardResult] = []
    # Shard journals to stitch: the executed shards' files, and the
    # loaded shards' stored bytes.
    journal_parts: List[Union[str, bytes]] = []
    for k, (start, stop) in enumerate(shards):
        part = (shard_journal_path(journal_path, k)
                if journal_path is not None else None)
        payload = cached.get(k)
        if k in quarantined or payload is not None:
            # Nothing is read from this shard's file: remove any
            # journal litter failed or interrupted attempts left so a
            # later sweep cannot trip over it.
            for stray in ((part, part + ".tmp") if part else ()):
                if os.path.exists(stray):
                    os.remove(stray)
        if k in quarantined:
            continue
        if payload is None:
            results.append(completed[k])
            if part is not None:
                journal_parts.append(part)
        else:
            # A loaded shard is indistinguishable from an executed one:
            # its journal segment is stitched from the stored bytes.
            results.append(ShardResult(
                start=start, stop=stop, runs=payload.runs,
                metrics=payload.metrics,
                journal_events=payload.journal_events))
            if part is not None:
                journal_parts.append(payload.journal_bytes)

    runs, journal_events = merge_shards(
        results, registry, journal_path, journal_parts,
        stitch=bool(journal_parts) or not quarantined)

    report.quarantined = sorted(quarantined.values())
    return BatchStats(
        runs=runs,
        max_steps=max_steps,
        metrics=registry,
        journal_path=journal_path,
        journal_events=journal_events,
        store=store_stats,
        faults=report if supervised else None,
    )
