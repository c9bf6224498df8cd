"""E-checker — fingerprinted state-space engine vs the objects BFS.

The PR-8 tentpole replaces the checker's dict-of-Configurations BFS
with the fingerprinted table-IR engine
(:mod:`repro.checker.statespace`).  This benchmark is its honesty
harness (docs/CHECKER.md §6):

* **Exactness gate (always on):** before any timing is reported, the
  fingerprint engine's visited set — mapped through the same
  canonicalization + fingerprint function the search used — is
  asserted *identical* to the objects BFS's reachable set on small
  protocol×memory cells, with reductions off and on (POR must preserve
  the set exactly; symmetry must preserve the verdict and quotient
  coverage).  A hash-collision regression or an unsound reduction
  fails here, not in the throughput table.
* **Speedup gate:** visited-states/sec of the fingerprint engine vs
  the objects BFS on the n_process(4) depth-bounded cell.  Both
  engines run back-to-back in this process, so the ratio needs no
  stored-baseline host check — the >= 10x floor binds unconditionally.
* **Scale cells (recorded, asserted exhaustive):** the paper's
  three-processor bounded protocol — 17.36M reachable configurations,
  far beyond the objects BFS's practical reach — explored exhaustively
  with safety verified inline, and two_process under regular/safe
  register semantics (the HHT weak-memory cells), also exhaustive.

Emits ``BENCH_checker.json`` in the shared envelope
(docs/PERFORMANCE.md); the CI ``checker-bench`` job uploads it.
"""

from __future__ import annotations

from time import perf_counter

from conftest import dump_bench
from repro.analysis.reporting import ExperimentRecord
from repro.checker import explore, explore_fast
from repro.core.n_process import NProcessProtocol
from repro.core.naive import NaiveProtocol
from repro.core.three_bounded import ThreeBoundedProtocol
from repro.core.two_process import TwoProcessProtocol

SEED = 2025
MIN_SPEEDUP = 10.0
GATE_CELL = ("n_process_4", "depth_14")

# Exactness cells: (label, factory, inputs, memory)
EXACT_CELLS = [
    ("two_atomic", lambda: TwoProcessProtocol(), ("a", "b"), None),
    ("two_regular", lambda: TwoProcessProtocol(), ("a", "b"), "regular"),
    ("naive3_atomic", lambda: NaiveProtocol(3), ("a", "b", "a"), None),
]


def _record(protocol, inputs, cell, metrics):
    return ExperimentRecord(
        experiment="checker_statespace",
        protocol=protocol,
        scheduler="exhaustive",  # the checker quantifies over schedulers
        inputs=",".join(map(str, inputs)),
        seed=SEED,
        n_runs=1,
        max_steps=0,
        metrics=dict(metrics, cell=cell),
    )


def _assert_exactness(records):
    """The always-on gate: fingerprint sets == objects BFS, and the
    reductions preserve what they claim to preserve."""
    for label, factory, inputs, memory in EXACT_CELLS:
        graph = explore(factory(), inputs, memory=memory)
        assert graph.complete
        base = explore_fast(factory(), inputs, memory=memory,
                            keep_fingerprints=True,
                            fingerprint_seed=SEED)
        object_set = {base.fingerprint_of(c) for c in graph.depth_of}
        assert base.exhausted and base.ok
        assert object_set == base.fingerprints, (
            f"{label}: fingerprint engine visited a different set "
            f"than the objects BFS")
        checks = {"objects_set_identical": True}
        if memory is None:
            red = explore_fast(factory(), inputs, por=True,
                               keep_fingerprints=True,
                               fingerprint_seed=SEED)
            assert red.por and red.fingerprints == base.fingerprints, (
                f"{label}: POR changed the visited-state set")
            checks["por_set_identical"] = True
            checks["por_pruned_edges"] = red.pruned
        sym = explore_fast(factory(), inputs, memory=memory,
                           symmetry=True, fingerprint_seed=SEED)
        assert sym.ok == base.ok and sym.exhausted, (
            f"{label}: symmetry changed the safety verdict")
        checks["symmetry_verdict_identical"] = True
        checks["symmetry_order"] = sym.symmetry_order
        records.append(_record(
            factory().name, inputs, f"exactness/{label}",
            {"memory": memory or "atomic", "visited": base.visited,
             "gates": checks, "gated": True}))


def test_bench_checker_statespace(benchmark, report):
    records = []
    _assert_exactness(records)

    def run_all():
        out = {}

        # -- speedup gate: n_process(4) depth-bounded, both engines --
        inputs, depth = ("a", "b", "a", "b"), 14
        t0 = perf_counter()
        graph = explore(NProcessProtocol(4), inputs, max_depth=depth)
        t_obj = perf_counter() - t0
        rep = explore_fast(NProcessProtocol(4), inputs, max_depth=depth,
                           fingerprint_seed=SEED)
        assert rep.visited == len(graph.depth_of), (
            "gate cell: engines disagree on the reachable set")
        out["gate"] = (rep, len(graph.depth_of) / t_obj, t_obj)

        # -- scale: three_bounded exhaustive (the paper's 9-counter) --
        out["three_bounded"] = explore_fast(
            ThreeBoundedProtocol(), ("a", "a", "a"),
            fingerprint_seed=SEED)

        # -- scale: weak-memory exhaustive cells --
        for memory in ("regular", "safe"):
            out[f"two_{memory}"] = explore_fast(
                TwoProcessProtocol(), ("a", "b"), memory=memory,
                fingerprint_seed=SEED)
        return out

    measured = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rep, sps_obj, t_obj = measured["gate"]
    ratio = rep.states_per_sec / sps_obj
    records.append(_record(
        "NProcessProtocol(4)", ("a", "b", "a", "b"),
        "speedup/" + "/".join(GATE_CELL),
        {"memory": "atomic", "visited": rep.visited,
         "max_depth": 14,
         "timing": {
             "seconds_fingerprints": rep.seconds,
             "seconds_objects": t_obj,
             "states_per_second_fingerprints": rep.states_per_sec,
             "states_per_second_objects": sps_obj,
             "speedup_ratio": ratio,
         },
         "gated": True}))
    # CI gate (see .github/workflows/ci.yml checker-bench): in-process
    # ratio, so no same_host() conditioning is needed.
    assert ratio >= MIN_SPEEDUP, (
        f"fingerprint engine only {ratio:.2f}x over the objects BFS "
        f"(gate {MIN_SPEEDUP}x)")

    rows = [("n_process(4)/depth14", "atomic", f"{rep.visited:,}",
             f"{sps_obj:,.0f}", f"{rep.states_per_sec:,.0f}",
             f"{ratio:.2f}x", "yes")]

    tb = measured["three_bounded"]
    assert tb.exhausted and tb.ok, (
        "three_bounded must verify exhaustively (ISSUE-8 acceptance)")
    records.append(_record(
        tb.protocol, tb.inputs, "scale/three_bounded_exhaustive",
        {"memory": "atomic", "visited": tb.visited, "edges": tb.edges,
         "depth": tb.depth, "exhausted": True, "ok": tb.ok,
         "timing": {"seconds": tb.seconds,
                    "states_per_second": tb.states_per_sec},
         "gated": False}))
    rows.append(("three_bounded (exhaustive)", "atomic",
                 f"{tb.visited:,}", "-", f"{tb.states_per_sec:,.0f}",
                 "-", "no"))

    for memory in ("regular", "safe"):
        cell = measured[f"two_{memory}"]
        assert cell.exhausted and cell.ok
        records.append(_record(
            cell.protocol, cell.inputs, f"scale/two_{memory}_exhaustive",
            {"memory": memory, "visited": cell.visited,
             "edges": cell.edges, "depth": cell.depth,
             "exhausted": True, "ok": cell.ok,
             "timing": {"seconds": cell.seconds,
                        "states_per_second": cell.states_per_sec},
             "gated": False}))
        rows.append((f"two_process ({memory}, exhaustive)", memory,
                     f"{cell.visited:,}", "-",
                     f"{cell.states_per_sec:,.0f}", "-", "no"))

    report.add_table(
        "E-checker: fingerprinted state-space engine vs objects BFS",
        header=("cell", "memory", "visited", "objects st/s",
                "fingerprints st/s", "speedup", "gated"),
        rows=rows,
        note=("Exactness asserted before timing: fingerprint sets == "
              "objects BFS on every small cell,\nPOR preserves the "
              "visited set, symmetry preserves the verdict "
              f"(docs/CHECKER.md).  Gate: >= {MIN_SPEEDUP:.0f}x\non "
              "the n_process(4) depth-14 cell only; the in-process "
              "ratio needs no host conditioning."),
    )

    dump_bench(records, "checker")
