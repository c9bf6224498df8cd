"""E-memory — the memory-semantics layer must not tax the atomic path.

PR 4 routed all kernel register access through a pluggable
:class:`~repro.sim.memory.MemoryModel`.  The refactor's perf contract:
under the default :class:`AtomicMemory` the fast path keeps its inlined
``registers[slot]`` access, so batch throughput may regress at most 10%
against the *PR-3* kernel.  Since the PR-3 loop no longer exists in the
tree, this file carries a frozen replica of its ``_run_fast`` body
(verbatim minus the memory-layer branches) and races the live engine
against it in-process, interleaved best-of-``REPS`` — same host, same
warmup, same prebuilt RNG streams, bit-identical results asserted
before any timing is trusted.

``regular`` / ``safe`` throughput is reported as informational rows
(they pay for pending-write bookkeeping by design and gate nothing).
Results land in ``BENCH_memory.json`` (schema in docs/PERFORMANCE.md).
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional

from conftest import dump_bench
from repro.analysis.reporting import ExperimentRecord
from repro.core.three_bounded import ThreeBoundedProtocol
from repro.core.two_process import TwoProcessProtocol
from repro.sched.simple import RandomScheduler
from repro.sim.kernel import Activate, Simulation
from repro.sim.rng import ReplayableRng
from repro.sim.transitions import TransitionCache

N_RUNS = 5_000
MAX_STEPS = 4_000
REPS = 3
SEED = 2026
#: Acceptance gate: atomic-path throughput >= 90% of the PR-3 replica.
MAX_ATOMIC_OVERHEAD = 0.10


CASES = {
    "two_process": (lambda: TwoProcessProtocol(), ("a", "b")),
    "three_bounded": (lambda: ThreeBoundedProtocol(), ("a", "b", "b")),
}


def pr3_run_fast(sim: Simulation, max_steps: int) -> None:
    """Frozen replica of the PR-3 ``Simulation._run_fast`` loop.

    The pre-memory-layer hot loop, kept verbatim except that the crash
    cold-branch is reduced to what a random-scheduler batch can reach.
    Runs against a live (atomic) Simulation's internals, so its results
    are directly comparable — and asserted bit-identical — to
    ``sim.run()`` on an identically-seeded twin.
    """
    max_consults = max_steps + sim.protocol.n_processes
    n = sim.protocol.n_processes
    cache = sim._cache
    entries = cache.entries
    build_entry = cache.entry
    resolve_outcome = cache.outcome
    states = sim._states
    registers = sim._registers
    proc_rngs = sim._proc_rngs
    choose = sim.scheduler.choose
    view = sim._view
    activations = sim.activations
    coin_flips = sim.coin_flips
    decisions = sim.decisions
    cur_entries: List[Optional[object]] = [None] * n
    step_index = sim.step_index
    consults = sim.sched_consults
    crashed = sim.crashed

    while sim._enabled and step_index < max_steps \
            and consults < max_consults:
        consults += 1
        sim.sched_consults = consults
        action = choose(view)
        cls = action.__class__
        if cls is int:
            pid = action
        elif cls is Activate:
            pid = action.pid
        else:
            pid = sim._normalize_action(action)
        if pid.__class__ is not int or not 0 <= pid < n:
            sim._check_pid(pid)
        if pid in crashed or pid in decisions:
            raise RuntimeError(f"scheduled ineligible processor {pid}")
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
        if is_read:
            result = registers[slot]
        else:
            registers[slot] = value
            result = None
        outcome = entry.outcomes[branch_index].get(result)
        if outcome is None:
            outcome = resolve_outcome(pid, states[pid], entry,
                                      branch_index, result)
        states[pid] = outcome.state
        cur_entries[pid] = outcome.next_entry
        sim._config_cache = None
        activations[pid] += 1
        step_index += 1
        sim.step_index = step_index
        decided = outcome.decided
        if decided is not None:
            sim._record_decision(pid, decided)


def build_streams(seed=SEED, n_runs=N_RUNS):
    """Per-run RNG pairs, Mersenne state pre-built outside the clock."""
    root = ReplayableRng(seed)
    streams = []
    for i in range(n_runs):
        run_rng = root.child("run", i)
        streams.append((run_rng.child("sched").prime(),
                        run_rng.child("kernel")))
    return streams


def timed_batch(protocol, inputs, streams, cache, *, engine,
                memory=None):
    """One batch over prebuilt streams; returns (seconds, results)."""
    results = []
    append = results.append
    t0 = perf_counter()
    if engine == "pr3":
        for sched_rng, kernel_rng in streams:
            sim = Simulation(protocol, inputs, RandomScheduler(sched_rng),
                             kernel_rng, cache=cache)
            pr3_run_fast(sim, MAX_STEPS)
            append(sim.result())
    else:
        for sched_rng, kernel_rng in streams:
            sim = Simulation(protocol, inputs, RandomScheduler(sched_rng),
                             kernel_rng, cache=cache, memory=memory)
            append(sim.run(MAX_STEPS))
    return perf_counter() - t0, results


def assert_bit_identical(a_results, b_results):
    assert len(a_results) == len(b_results)
    for a, b in zip(a_results, b_results):
        assert a.decisions == b.decisions
        assert a.activations == b.activations
        assert a.coin_flips == b.coin_flips
        assert a.total_steps == b.total_steps
        assert a.sched_consults == b.sched_consults
        assert a.final_configuration == b.final_configuration


def test_bench_memory_atomic_overhead(benchmark, report):
    # Warmup both engines (transition caches, allocator, dict sizing).
    for name, (factory, inputs) in CASES.items():
        protocol = factory()
        cache = TransitionCache(protocol)
        warm = build_streams(seed=7, n_runs=300)
        timed_batch(protocol, inputs, warm, cache, engine="pr3")
        warm = build_streams(seed=7, n_runs=300)
        timed_batch(protocol, inputs, warm, cache, engine="live")

    def run_all():
        out = {}
        for name, (factory, inputs) in CASES.items():
            protocol = factory()
            cache = TransitionCache(protocol)
            times = {"pr3": None, "atomic": None}
            results = {}
            # Interleave repetitions so host noise hits both engines
            # evenly; keep the best wall time of each.
            for _ in range(REPS):
                for cell in ("pr3", "atomic"):
                    streams = build_streams()
                    t, res = timed_batch(
                        protocol, inputs, streams, cache,
                        engine="pr3" if cell == "pr3" else "live",
                        memory=None)
                    if cell not in results:
                        results[cell] = res
                    if times[cell] is None or t < times[cell]:
                        times[cell] = t
            # Informational: the weak models' bookkeeping cost.
            weak = {}
            for semantics in ("regular", "safe"):
                streams = build_streams()
                t, res = timed_batch(protocol, inputs, streams, cache,
                                     engine="live", memory=semantics)
                weak[semantics] = (t, res)
            out[name] = (times, results, weak)
        return out

    measured = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    records = []
    for name, (times, results, weak) in measured.items():
        assert_bit_identical(results["pr3"], results["atomic"])
        total_steps = sum(r.total_steps for r in results["atomic"])
        sps_pr3 = total_steps / times["pr3"]
        sps_atomic = total_steps / times["atomic"]
        ratio = sps_atomic / sps_pr3
        weak_sps = {}
        for semantics, (t, res) in weak.items():
            weak_sps[semantics] = sum(r.total_steps for r in res) / t
            # Weak semantics may occasionally starve a run past the
            # step budget (in-flight writes slow the dance down);
            # consistency must still hold for everyone who decided.
            assert all(r.consistent for r in res)
        rows.append((name, f"{sps_pr3:,.0f}", f"{sps_atomic:,.0f}",
                     f"{ratio:.2f}x",
                     f"{weak_sps['regular']:,.0f}",
                     f"{weak_sps['safe']:,.0f}"))
        records.append(ExperimentRecord(
            experiment="memory_layer_overhead",
            protocol=name,
            scheduler="random",
            inputs=",".join(map(str, CASES[name][1])),
            seed=SEED,
            n_runs=N_RUNS,
            max_steps=MAX_STEPS,
            metrics={
                "timing": {
                    "seconds_pr3_baseline": times["pr3"],
                    "seconds_atomic": times["atomic"],
                    "steps_per_second_pr3_baseline": sps_pr3,
                    "steps_per_second_atomic": sps_atomic,
                    "atomic_over_baseline_ratio": ratio,
                    "steps_per_second_regular": weak_sps["regular"],
                    "steps_per_second_safe": weak_sps["safe"],
                    "total_steps": total_steps,
                    "reps": REPS,
                },
                "gate_max_overhead": MAX_ATOMIC_OVERHEAD,
                "bit_identical": True,
            },
        ))
        # CI regression gate (see .github/workflows/ci.yml memory-smoke).
        assert ratio >= 1.0 - MAX_ATOMIC_OVERHEAD, (
            f"{name}: atomic path at {ratio:.2f}x of the PR-3 baseline "
            f"(gate {1.0 - MAX_ATOMIC_OVERHEAD:.2f}x)"
        )

    report.add_table(
        "E-memory: memory-layer overhead vs frozen PR-3 kernel "
        f"({N_RUNS:,}-run random-scheduler batches)",
        header=("protocol", "PR-3 steps/s", "atomic steps/s", "ratio",
                "regular steps/s", "safe steps/s"),
        rows=rows,
        note=("The PR-3 column times an in-file frozen replica of the "
              "pre-memory-layer fast\nloop over identical RNG streams; "
              "atomic batches are asserted bit-identical to\nit first.  "
              f"Gate: atomic >= {1.0 - MAX_ATOMIC_OVERHEAD:.2f}x of "
              "baseline.  Regular/safe rows are informational\n(pending-"
              "write bookkeeping is a semantic feature, not a "
              "regression)."),
    )

    dump_bench(records, "memory")
