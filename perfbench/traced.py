"""Traced run: per-layer numbers for one workload.

The workload's commands are replayed in this process through
``repro.cli.main``, once untraced to warm up, once traced and once
untraced again; the traced wall minus the second untraced wall is the
tracing overhead.  While tracing, every call into the public functions
listed in ``TARGETS`` is wrapped, from outside the program, in a span:
layer, name, start, end and parent span.  Spans stay in memory and are
written out when the run ends.  A layer's self time is its spans'
durations minus the durations of their child spans.

After the replay, a fixed set of layer probes (the same in every
workload, sized from the seed's cells) measures each layer on its own:
kernel speed with and without metrics, transition-cache build, stream
derivation, spec hashing, metrics merge, journal writes, sharding and
supervision overhead, store commits and loads, IR lowering and the two
checker engines.  Probes run traced too, so every layer's self time is
non-zero in every workload; the workload replay adds to the layers it
loads.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import io
import itertools
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from typing import Callable, Dict, List, Tuple

import workloads as wl

# (layer, module, attribute path) of every traced function.  Module
# functions are replaced wherever a module holds a reference to them;
# methods are replaced on their class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli", "repro.cli", "main"),
    ("sim.runner", "repro.sim.runner", "ExperimentRunner.run_many"),
    ("sim.kernel", "repro.sim.kernel", "Simulation.run"),
    ("sim.transitions", "repro.sim.transitions", "TransitionCache.entry"),
    ("sim.rng", "repro.sim.rng", "ReplayableRng.child"),
    ("sched", "repro.parallel.tasks", "SchedulerSpec.__call__"),
    ("spec", "repro.spec", "RunSpec.spec_hash"),
    ("obs.metrics", "repro.obs.metrics", "MetricsRegistry.merge"),
    ("obs.metrics", "repro.obs.metrics", "MetricsRegistry.render"),
    ("obs.journal", "repro.obs.journal", "concatenate_journals"),
    ("obs.journal", "repro.obs.journal", "JsonlJournal.close"),
    ("parallel", "repro.parallel.engine", "run_parallel"),
    ("parallel", "repro.parallel.supervisor", "run_supervised"),
    ("store", "repro.store", "RunStore.commit_shard"),
    ("store", "repro.store", "RunStore.load_shard"),
    ("ir", "repro.ir.lower", "compile_protocol"),
    ("ir", "repro.ir.lower", "CompiledProtocol.ensure_compiled"),
    ("checker", "repro.checker.statespace", "explore_fast"),
    ("checker", "repro.checker.properties", "verify_safety"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))
BENCH_LAYER = "perfbench"
MAX_STEPS = 4000


class Tracer:
    """In-memory span recorder that patches ``TARGETS`` while active."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo: List[Tuple[object, str, object]] = []

    def span(self, layer: str, name: str, fn: Callable) -> Callable:
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, layer, name, start, end))

        return traced

    def install(self) -> None:
        for layer, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[name]
                self._patch(owner, name, self.span(layer, attr, original))
                continue
            original = getattr(module, name)
            wrapper = self.span(layer, f"{module_name}.{name}", original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") and \
                        getattr(mod, name, None) is original:
                    self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def self_times(self) -> Dict[str, float]:
        """Per-layer duration minus the duration of child spans."""
        child = {}
        for sid, parent, _, _, start, end in self.spans:
            child[parent] = child.get(parent, 0.0) + (end - start)
        out: Dict[str, float] = {}
        for sid, _, layer, _, start, end in self.spans:
            out[layer] = out.get(layer, 0.0) + (end - start) \
                - child.get(sid, 0.0)
        return out

    def write(self, path: str) -> None:
        """Write every span as a gzipped JSON line
        ``[id, parent, layer, name, start_us, end_us]``, times in
        microseconds from the first span's start."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, parent, layer, name, start, end in self.spans:
                fh.write(f'[{sid},{parent},"{layer}","{name}",'
                         f'{round((start - t0) * 1e6)},'
                         f'{round((end - t0) * 1e6)}]\n')


# -- workload replay ----------------------------------------------------

def replay(workload: str, seed: int, expected: Dict[str, str]) \
        -> Tuple[float, List[wl.Outcome]]:
    """Run one cycle of ``workload`` in process; returns (wall, outcomes)."""
    from repro import cli

    work = wl.fresh_dir(os.path.join(wl.WORK, f"replay-{os.getpid()}"))
    outcomes = []
    t0 = time.perf_counter()
    try:
        for cmd in wl.cycle(workload, seed, work):
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                try:
                    rc = cli.main(cmd.argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
            outcome = wl.Outcome(cmd, time.perf_counter() - start, 0.0, rc, 0)
            (outcome.fingerprint, outcome.runs, outcome.states,
             outcome.error) = wl.check(cmd, rc, buf.getvalue(),
                                       expected.get(cmd.key))
            outcomes.append(outcome)
        return time.perf_counter() - t0, outcomes
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- layer probes -------------------------------------------------------

def _runner(cell, seed: int, sinks=(), engine=None):
    from repro.parallel.tasks import (ConstantInputs, ProtocolSpec,
                                      SchedulerSpec)
    from repro.sim.runner import ExperimentRunner

    proto, inputs, sched, memory = cell[:4]
    values = tuple(inputs.split(","))
    return ExperimentRunner(
        protocol_factory=ProtocolSpec(proto, len(values)),
        scheduler_factory=SchedulerSpec(sched),
        inputs_factory=ConstantInputs(values),
        seed=seed, sinks=sinks, memory=memory, engine=engine)


def _timed(fn: Callable, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - start, value


def probe_cli(seed: int) -> Dict[str, float]:
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", code], cwd=wl.ROOT,
                             env=wl.child_env(), capture_output=True,
                             text=True, check=True)
        samples.append(float(out.stdout))
    return {"cli.import_s": statistics.median(samples)}


def probe_kernel(seed: int) -> Dict[str, float]:
    """Serial in-process sweeps of the sweep-serial cells, bare and with
    a MetricsRegistry attached; split-vote cells give consults/step."""
    from repro.obs import MetricsRegistry

    bare_s = metrics_s = 0.0
    steps = consults = sv_steps = 0
    vec_s, vec_steps = 0.0, 0
    for i, cell in enumerate(wl.SERIAL_CELLS):
        n = cell[4] // 4
        s = wl.command_seed(seed, i)
        t, stats = _timed(_runner(cell, s).run_many, n, MAX_STEPS)
        bare_s += t
        cell_steps = sum(r.total_steps for r in stats.runs)
        steps += cell_steps
        t, _ = _timed(_runner(cell, s, sinks=(MetricsRegistry(),))
                      .run_many, n, MAX_STEPS)
        metrics_s += t
        if cell[2] == "split-vote":
            consults += sum(r.sched_consults for r in stats.runs)
            sv_steps += cell_steps
        if cell[2] == "random" and cell[3] == "atomic" and \
                cell[0] != "three-unbounded":
            t, _ = _timed(_runner(cell, s, engine="vector").run_many,
                          n, MAX_STEPS)
            vec_s += t
            vec_steps += cell_steps
    return {
        "kernel.steps_per_s.bare": steps / bare_s,
        "kernel.steps_per_s.metrics": steps / metrics_s,
        "kernel.metrics_overhead": metrics_s / bare_s,
        "kernel.sim_steps": steps,
        "sched.consults_per_step": consults / sv_steps,
        "ir.vector.steps_per_s": vec_steps / vec_s,
    }


def probe_transitions(seed: int) -> Dict[str, float]:
    """The same runs on a fresh TransitionCache, then again warm."""
    from repro.core import ThreeBoundedProtocol
    from repro.parallel.tasks import SchedulerSpec
    from repro.sim.kernel import Simulation
    from repro.sim.rng import ReplayableRng
    from repro.sim.transitions import TransitionCache

    inputs = ("a", "b", "a")
    cache = TransitionCache(ThreeBoundedProtocol(), strict=False)

    def runs():
        for i in range(100):
            rng = ReplayableRng(seed).child("run", i)
            Simulation(ThreeBoundedProtocol(), inputs,
                       SchedulerSpec("random")(rng.child("sched")),
                       rng.child("kernel"), strict=False, cache=cache,
                       engine="fast").run(MAX_STEPS)

    cold, _ = _timed(runs)
    warm, _ = _timed(runs)
    return {"transitions.cold_s": cold - warm,
            "transitions.entries": len(cache)}


def probe_rng(seed: int) -> Dict[str, float]:
    from repro.sim.rng import ReplayableRng

    n = 5000

    def derive():
        for i in range(n):
            ReplayableRng(seed).child("run", i)

    return {"rng.derive_us":
            statistics.median(_timed(derive)[0] for _ in range(3))
            / n * 1e6}


def probe_spec(seed: int) -> Dict[str, float]:
    from repro.parallel.tasks import (ConstantInputs, ProtocolSpec,
                                      SchedulerSpec)
    from repro.spec import ObsOptions, RunSpec

    specs = [RunSpec(protocol=ProtocolSpec(p, len(i.split(","))),
                     scheduler=SchedulerSpec(s),
                     inputs=ConstantInputs(tuple(i.split(","))),
                     memory=m, max_steps=MAX_STEPS,
                     obs=ObsOptions(metrics=True))
             for p, i, s, m, _ in wl.SERIAL_CELLS]
    reps = 200

    def hash_all():
        for spec in specs:
            for _ in range(reps):
                spec.spec_hash()

    t = statistics.median(_timed(hash_all)[0] for _ in range(3))
    return {"spec.hash_us": t / (reps * len(specs)) * 1e6}


def probe_obs(seed: int, work: str) -> Dict[str, float]:
    """Shard registries and journals of a two/random sweep: journal
    write cost, registry merge and journal concatenation."""
    from repro.obs import JsonlJournal, MetricsRegistry
    from repro.obs.journal import concatenate_journals

    cell, shards, size = wl.SERIAL_CELLS[0], 8, 250
    registries, paths = [], []
    t_metrics = t_journal = 0.0
    for k in range(shards):
        registry = MetricsRegistry()
        runner = _runner(cell, seed, sinks=(registry,))
        t, _ = _timed(runner.run_range, k * size, (k + 1) * size, MAX_STEPS)
        t_metrics += t
        registries.append(registry)
        path = os.path.join(work, f"shard{k}.jsonl")
        journal = JsonlJournal(path)
        runner = _runner(cell, seed, sinks=(MetricsRegistry(), journal))
        start = time.perf_counter()
        runner.run_range(k * size, (k + 1) * size, MAX_STEPS)
        journal.close()
        t_journal += time.perf_counter() - start
        paths.append(path)

    def merge():
        total = MetricsRegistry()
        for registry in registries:
            total.merge(registry)

    out = os.path.join(work, "all.jsonl")
    concat_s, _ = _timed(concatenate_journals, paths, out)
    return {
        "metrics.merge_s": statistics.median(_timed(merge)[0]
                                             for _ in range(5)),
        "journal.write_s": t_journal - t_metrics,
        "journal.bytes": os.path.getsize(out),
        "journal.concat_s": concat_s,
    }


def probe_parallel(seed: int) -> Dict[str, float]:
    """A sharded run_many against a serial one of the same spec, and a
    supervised sweep of one-run shards (one child process each)."""
    from repro.obs import MetricsRegistry

    cell, n = wl.SERIAL_CELLS[0], 4000
    serial, _ = _timed(_runner(cell, seed, sinks=(MetricsRegistry(),))
                       .run_many, n, MAX_STEPS)
    sharded, _ = _timed(_runner(cell, seed, sinks=(MetricsRegistry(),))
                        .run_many, n, MAX_STEPS, workers=2, shard_size=500)
    shards = 4
    t, stats = _timed(_runner(cell, seed, sinks=(MetricsRegistry(),))
                      .run_many, shards, MAX_STEPS, workers=1,
                      shard_size=1, supervise=True)
    return {
        "parallel.serial_s": serial,
        "parallel.sharded_s": sharded,
        "parallel.overhead_ratio": sharded / serial,
        "supervisor.spawn_s": t / shards,
        "supervisor.retries": stats.faults.n_retries,
        "supervisor.faults": stats.faults.n_faults,
    }


def probe_store(seed: int, work: str) -> Dict[str, float]:
    """A cold then warm store-backed sweep, then each shard loaded from
    that store and committed to a second one."""
    from repro.obs import MetricsRegistry
    from repro.parallel.tasks import (ConstantInputs, ProtocolSpec,
                                      SchedulerSpec)
    from repro.spec import ObsOptions, RunSpec
    from repro.store import RunStore

    cell, n, size = wl.SERIAL_CELLS[0], 2000, 250
    store = RunStore(os.path.join(work, "store"))
    cold = _runner(cell, seed, sinks=(MetricsRegistry(),)).run_many(
        n, MAX_STEPS, shard_size=size, store=store)
    warm = _runner(cell, seed, sinks=(MetricsRegistry(),)).run_many(
        n, MAX_STEPS, shard_size=size, store=store)
    spec_hash = cold.store.spec_hash
    spec = RunSpec(protocol=ProtocolSpec("two", 2),
                   scheduler=SchedulerSpec("random"),
                   inputs=ConstantInputs(("a", "b")),
                   max_steps=MAX_STEPS, obs=ObsOptions(metrics=True))
    second = RunStore(os.path.join(work, "store2"))
    loads, commits, sizes = [], [], []
    for start in range(0, n, size):
        stop = start + size
        sizes.append(os.path.getsize(
            store.shard_path(spec_hash, seed, start, stop)))
        t, payload = _timed(store.load_shard, spec_hash, seed, start, stop)
        loads.append(t)
        t, _ = _timed(second.commit_shard, spec, seed, payload)
        commits.append(t)
    return {
        "store.load_s": statistics.median(loads),
        "store.commit_s": statistics.median(commits),
        "store.shard_bytes": statistics.mean(sizes),
        "store.hits": warm.store.hits,
        "store.misses": cold.store.misses,
    }


def probe_checker(seed: int, tracer: Tracer) -> Dict[str, float]:
    """Both checker engines under a budget.  The IR lowering the
    fingerprint search triggers is read from the tracer's ``ir`` spans."""
    from repro.checker import verify_safety
    from repro.checker.statespace import explore_fast
    from repro.core import ThreeBoundedProtocol

    rotations = wl.VERIFY_CELLS[0][1]
    inputs = tuple(rotations[seed % len(rotations)].split(","))
    first = len(tracer.spans)
    t, fp = _timed(explore_fast, ThreeBoundedProtocol(), inputs,
                   max_states=60_000)
    compile_s = sum(end - start for _, _, layer, _, start, end
                    in tracer.spans[first:] if layer == "ir")
    t_obj, obj = _timed(verify_safety, ThreeBoundedProtocol(),
                        ("a", "b", "a"), max_states=5_000)
    tracemalloc.start()
    try:
        small = explore_fast(ThreeBoundedProtocol(), inputs,
                             max_states=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "ir.compile_s": compile_s,
        "checker.fp.states_per_s": fp.visited / t,
        "checker.objects.states_per_s": obj.states_explored / t_obj,
        "checker.visited": fp.visited,
        "checker.edges": fp.edges,
        "checker.bytes_per_state": peak / small.visited,
    }


# -- the traced run -----------------------------------------------------

def traced_run(workload: str, seed: int) -> dict:
    expected = wl.load_expected()
    tracer = Tracer()
    _, warmup = replay(workload, seed, expected)
    tracer.install()
    try:
        traced_s, traced = replay(workload, seed, expected)
        tracer.uninstall()
        untraced_s, untraced = replay(workload, seed, expected)
        tracer.install()
        work = wl.fresh_dir(os.path.join(wl.WORK, f"probe-{os.getpid()}"))
        metrics: Dict[str, float] = {}
        probes = [("cli", probe_cli), ("kernel", probe_kernel),
                  ("transitions", probe_transitions), ("rng", probe_rng),
                  ("spec", probe_spec),
                  ("obs", functools.partial(probe_obs, work=work)),
                  ("parallel", probe_parallel),
                  ("store", functools.partial(probe_store, work=work)),
                  ("checker", functools.partial(probe_checker,
                                                tracer=tracer))]
        for name, probe in probes:
            metrics.update(tracer.span(BENCH_LAYER, f"probe.{name}",
                                       probe)(seed))
    finally:
        tracer.uninstall()
        shutil.rmtree(os.path.join(wl.WORK, f"probe-{os.getpid()}"),
                      ignore_errors=True)

    self_times = tracer.self_times()
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = self_times.get(layer, 0.0)
    metrics["trace.traced_s"] = traced_s
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.spans"] = len(tracer.spans)
    tracer.write(os.path.join(wl.BENCH_DIR, "results",
                              f"spans-{workload}-{seed}.jsonl.gz"))

    outcomes = warmup + traced + untraced
    wl.mark_unrepeatable(outcomes)
    failed = [o for o in outcomes if not o.ok]
    from report import layer_units

    units = layer_units()
    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "detail": {
            "self_s": self_times,
            "failures": [f"{o.command.key}: {o.error}" for o in failed],
        },
    }
