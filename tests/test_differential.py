"""The engine differential harness: every engine against its oracle.

Each sim engine the registry lists must be *observably identical* to
``reference`` on every zoo cell (``tests/differential.py``): every
RunResult field, the trace step for step, the per-processor RNG draw
counts (standalone engines), journal bytes, the metrics snapshot, the
span tree and profiled runs — through ``Simulation``, ``solve``,
``run_one`` and ``run_many`` serial and sharded, and on randomly drawn
automata.  Where an engine cannot run a cell it must refuse with
``IRUnsupportedError``, never approximate.  Each checker engine must
visit exactly the configurations the ``objects`` BFS visits and reach
its verdict, violation message and witness.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import io

import pytest
from hypothesis import given, settings, strategies as st

from differential import (
    CELLS, CHECKER_ENGINES, CONSENSUS, MAX_STEPS, ORACLE_CHECKER, ORACLE_SIM,
    PROTOCOLS, SCHEDULERS, SEEDS, SIM_ENGINES, STANDALONE_ENGINES,
    TableAutomaton, TypedValuesAutomaton, assert_identical,
    automaton_specs, make_runner, refuses, run_cell, run_zoo)
from repro.checker import explore, explore_fast, verify_safety
from repro.core.consensus import solve
from repro.core.deterministic import TwoProcessDeterministic
from repro.core.naive import NaiveProtocol
from repro.core.three_bounded import ThreeBoundedProtocol
from repro.core.two_process import TwoProcessProtocol
from repro.engines import engine_names
from repro.ir import IRUnsupportedError
from repro.obs import (JsonlJournal, MetricsRegistry,
                       TimeAttributionProfiler, Tracer)
from repro.parallel.tasks import ConstantInputs, ProtocolSpec, SchedulerSpec
from repro.sched.simple import RandomScheduler
from repro.sim.kernel import Simulation
from repro.sim.rng import ReplayableRng
from repro.sim.runner import ExperimentRunner


def test_harness_covers_every_registered_engine():
    for kind, oracle, engines in (("sim", ORACLE_SIM, SIM_ENGINES),
                                  ("checker", ORACLE_CHECKER,
                                   CHECKER_ENGINES)):
        registered = engine_names(kind)
        assert oracle in registered
        assert sorted(engines) == sorted(set(registered) - {oracle})
    # Every engine-parametrized test here runs one of those lists.
    tests = [f for name, f in globals().items()
             if name.startswith("test_") and hasattr(f, "pytestmark")]
    lists = {tuple(mark.args[1]) for f in tests for mark in f.pytestmark
             if mark.name == "parametrize" and mark.args[0] == "engine"}
    assert lists == {SIM_ENGINES, CHECKER_ENGINES,
                     tuple(e for e in SIM_ENGINES
                           if e in STANDALONE_ENGINES)}


# ----------------------------------------------------------------------
# Sim engines: the zoo matrix
# ----------------------------------------------------------------------

def _journal(memory):
    buffer = io.StringIO()
    journal = JsonlJournal(buffer, memory=memory)

    def written():
        journal.close()
        return buffer.getvalue()
    return journal, written


def _sink(sink, snapshot):
    return sink, lambda: snapshot(sink)


#: kind -> factory of a fresh sink for a cell's memory, paired with a
#: thunk that snapshots what the sink saw.
OBSERVERS = {
    "journal": _journal,
    "metrics": lambda memory: _sink(MetricsRegistry(),
                                    MetricsRegistry.to_dict),
    "tracer": lambda memory: _sink(Tracer(), lambda tracer: tracer.spans),
    "profiler": lambda memory: _sink(
        TimeAttributionProfiler(),
        lambda profiler: (profiler.n_runs, profiler.loop_seconds > 0)),
}


def observed_run(engine, cell, seed):
    """``(result, draws, snapshots)`` of one traced run of ``cell``; on
    the first seed one fresh sink of every observer kind rides along
    and ``snapshots`` maps each kind to what its sink saw."""
    observers = {kind: make(cell[2]) for kind, make in OBSERVERS.items()
                 if seed == SEEDS[0]}
    result, draws = run_zoo(engine, cell, seed, record_trace=True,
                            sinks=tuple(s for s, _ in observers.values()))
    return result, draws, {kind: snapshot()
                           for kind, (_, snapshot) in observers.items()}


#: The reference runs of the current cell, shared by its engines (the
#: engine varies fastest in the matrix below).
oracle_run = functools.lru_cache(maxsize=len(SEEDS))(
    functools.partial(observed_run, ORACLE_SIM))


@pytest.mark.parametrize("engine", SIM_ENGINES)
@pytest.mark.parametrize("cell", CELLS, ids="-".join)
def test_cell_matches_reference(cell, engine):
    """Every RunResult field, the trace and the draw counts on every
    seed; on the first, with every observer attached, also journal
    bytes, the metrics snapshot, the span tree and the profiled run."""
    if refuses(engine, *cell[1:]):
        with pytest.raises(IRUnsupportedError):
            run_zoo(engine, cell, SEEDS[0])
        return
    for seed in SEEDS:
        result, draws, seen = observed_run(engine, cell, seed)
        want, want_draws, want_seen = oracle_run(cell, seed)
        assert_identical(result, want)
        if draws is not None:
            assert draws == want_draws
        assert seen == want_seen
        assert all(seen.values())


@settings(max_examples=60, deadline=None)
@given(spec=automaton_specs(), seed=st.integers(0, 2 ** 32),
       inputs_bits=st.lists(st.integers(0, 1), min_size=3, max_size=3))
def test_random_automata_match_reference(spec, seed, inputs_bits):
    protocol = TableAutomaton(spec)
    inputs = tuple(inputs_bits[: protocol.n_processes])
    want, want_draws = run_cell(ORACLE_SIM, lambda: protocol, inputs,
                                RandomScheduler, seed, max_steps=300)
    for engine in SIM_ENGINES:
        result, draws = run_cell(engine, lambda: protocol, inputs,
                                 RandomScheduler, seed, max_steps=300)
        assert_identical(result, want)
        if draws is not None:
            assert draws == want_draws


# ----------------------------------------------------------------------
# Sim engines: every entry point
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", SIM_ENGINES)
def test_solve_matches_reference(engine):
    for protocol_factory, inputs in PROTOCOLS.values():
        for seed in SEEDS:
            outcomes = []
            for name in (engine, ORACLE_SIM):
                registry = MetricsRegistry()
                outcome = solve(protocol_factory(), inputs, seed=seed,
                                record_trace=True, sinks=(registry,),
                                engine=name)
                outcomes.append((dataclasses.replace(outcome, trace=None),
                                 outcome.trace.steps, registry.to_dict()))
            assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("engine", SIM_ENGINES)
def test_run_one_matches_reference(engine):
    for protocol_factory, inputs in PROTOCOLS.values():
        runners = [make_runner(name, protocol_factory, inputs,
                               SCHEDULERS["random"], 2_025)
                   for name in (engine, ORACLE_SIM)]
        for index in (0, 3, 17):
            got, want = (runner.run_one(index, MAX_STEPS, record_trace=True)
                         for runner in runners)
            assert_identical(got, want)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("engine", SIM_ENGINES)
def test_run_many_matches_reference(tmp_path, engine, workers):
    """Run stats, merged metrics and journal bytes of a batch, serial
    and sharded, match the reference engine's serial batch."""
    batches = {}
    for name, n_workers in ((engine, workers), (ORACLE_SIM, 1)):
        registry = MetricsRegistry()
        runner = ExperimentRunner(
            protocol_factory=ProtocolSpec("three-unbounded", 3),
            scheduler_factory=SchedulerSpec("random"),
            inputs_factory=ConstantInputs(("a", "b", "a")),
            seed=43, sinks=(registry,), engine=name)
        path = tmp_path / f"{name}.jsonl"
        stats = runner.run_many(160, max_steps=MAX_STEPS,
                                workers=n_workers, journal_path=str(path))
        batches[name] = (stats.runs, registry.to_dict(), path.read_bytes())
    assert batches[engine] == batches[ORACLE_SIM]


#: name -> (protocol factory, inputs factory) of the batch journals:
#: the consensus protocols, and the typed-values automaton, whose
#: inputs also compare equal across types, run to run.
BATCH_PROTOCOLS = dict(
    {name: (PROTOCOLS[name][0], lambda i, rng, inputs=PROTOCOLS[name][1]:
            inputs) for name in CONSENSUS},
    typed_values=(TypedValuesAutomaton,
                  lambda i, rng: ((0, 0), (False, 0), (0.0, 0))[i % 3]))


def batch_journal(path, protocol_name, engine, sinks=()):
    """One 24-run ``run_many`` batch journaled to ``path``: its runs
    share one transition cache, so later runs hit the memo."""
    protocol_factory, inputs_factory = BATCH_PROTOCOLS[protocol_name]
    runner = ExperimentRunner(
        protocol_factory=protocol_factory,
        scheduler_factory=RandomScheduler,
        inputs_factory=inputs_factory, seed=41, sinks=sinks, engine=engine)
    runner.run_many(24, max_steps=MAX_STEPS, journal_path=str(path))
    return path.read_bytes()


@pytest.fixture(scope="module")
def oracle_journals(tmp_path_factory):
    """The reference batch journal of each protocol, made once."""
    path = tmp_path_factory.mktemp("oracle")
    return {name: batch_journal(path / f"{name}.jsonl", name, ORACLE_SIM)
            for name in BATCH_PROTOCOLS}


@pytest.mark.parametrize("protocol_name", sorted(BATCH_PROTOCOLS))
@pytest.mark.parametrize("engine", SIM_ENGINES)
def test_batch_journal_matches_reference(tmp_path, oracle_journals, engine,
                                         protocol_name):
    assert batch_journal(tmp_path / "batch.jsonl", protocol_name, engine) \
        == oracle_journals[protocol_name]


def test_batch_journal_is_type_exact(oracle_journals):
    journal = oracle_journals["typed_values"]
    for text in (b'"result":true,', b'"result":1,', b'"result":1.0,',
                 b'"result":false,', b'"result":0,', b'"result":-0.0,',
                 b'"result":0.0,', b'"inputs":[0,0]', b'"inputs":[false,0]',
                 b'"inputs":[0.0,0]'):
        assert text in journal, text


@pytest.mark.parametrize("engine", SIM_ENGINES)
def test_batch_journal_beside_other_sinks(tmp_path, engine):
    seen = []
    for name in (engine, ORACLE_SIM):
        registry, tracer = MetricsRegistry(), Tracer()
        journal = batch_journal(tmp_path / f"{name}.jsonl",
                                "three_unbounded", name,
                                sinks=(registry, tracer))
        assert registry.counters["runs"].value == 24 and tracer.spans
        seen.append((journal, registry.to_dict(), tracer.spans))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("engine", [e for e in SIM_ENGINES
                                    if e in STANDALONE_ENGINES])
def test_mixed_stepping_matches_reference(tmp_path, engine):
    """``step()``, ``step_processor(pid)`` and ``run()`` interleaved on
    one observed simulation return the same records and emit the same
    events."""
    protocol_factory, inputs = PROTOCOLS["three_bounded"]
    seen = []
    for name in (engine, ORACLE_SIM):
        rng = ReplayableRng(5)
        path = tmp_path / f"mixed_{name}.jsonl"
        journal = JsonlJournal(str(path))
        registry = MetricsRegistry()
        profiler = TimeAttributionProfiler()
        sim = Simulation(protocol_factory(), inputs,
                         RandomScheduler(rng.child("sched")),
                         rng.child("kernel"), record_trace=True,
                         engine=name, sinks=(journal, registry, profiler))
        records = [sim.step(), sim.step_processor(2), sim.step(),
                   sim.step_processor(0), sim.step_processor(0)]
        result = sim.run(MAX_STEPS)
        journal.close()
        assert records == list(result.trace)[:len(records)]
        assert registry.counters["steps"].value == result.total_steps
        # step_processor bypasses the scheduler: no consultation.
        assert result.sched_consults == result.total_steps - 3
        assert profiler.n_runs == 1
        seen.append((result, records, path.read_bytes(),
                     registry.to_dict()))
    assert_identical(seen[0][0], seen[1][0])
    assert seen[0][1:] == seen[1][1:]


# ----------------------------------------------------------------------
# Checker engines: verdicts through ``verify_safety(engine=...)``; the
# visited set through ``explore_fast(keep_fingerprints=True)``, the one
# search that can keep it
# ----------------------------------------------------------------------

# (label, factory, inputs, memory, budget) — cells spanning the
# protocol zoo, all three register semantics and both budgets.  An
# empty budget means the cell is exhausted; the depth-9 weak-memory
# cells stop at a horizon where pending writes already fan reads out.
# three_bounded's full space is ~17M configurations; its depth-limited
# slice must still match.
CHECKER_CELLS = [
    ("two-atomic", TwoProcessProtocol, ("a", "b"), None, {}),
    ("two-regular", TwoProcessProtocol, ("a", "b"), "regular", {}),
    ("two-safe", TwoProcessProtocol, ("a", "b"), "safe", {}),
    ("naive3-atomic", lambda: NaiveProtocol(3), ("a", "b", "a"), None, {}),
    ("naive3-aab-atomic", lambda: NaiveProtocol(3), ("a", "a", "b"), None,
     {}),
    ("naive3-aab-s300", lambda: NaiveProtocol(3), ("a", "a", "b"), None,
     {"max_states": 300}),
    ("two-regular-d9", TwoProcessProtocol, ("a", "b"), "regular",
     {"max_depth": 9}),
    ("two-safe-d9", TwoProcessProtocol, ("a", "b"), "safe",
     {"max_depth": 9}),
    ("three-bounded-d7", ThreeBoundedProtocol, ("a", "b", "a"), None,
     {"max_depth": 7}),
]


def assert_verdicts_match(engine, protocol_factory, inputs, **options):
    """``verify_safety`` on ``engine`` reaches the objects verdict."""
    got, want = (verify_safety(protocol_factory(), inputs, engine=name,
                               **options)
                 for name in (engine, ORACLE_CHECKER))
    assert (got.ok, got.violation, got.witness) \
        == (want.ok, want.violation, want.witness)
    if want.ok:
        # A violation stops the search but not the objects BFS.  Under
        # a state budget both report the deepest level they visited
        # completely, not the one the budget cut part-way.
        assert (got.complete, got.states_explored, got.max_depth_reached) \
            == (want.complete, want.states_explored, want.max_depth_reached)
    return want


@pytest.mark.parametrize("cell", CHECKER_CELLS, ids=lambda c: c[0])
@pytest.mark.parametrize("engine", CHECKER_ENGINES)
def test_search_matches_objects_bfs(engine, cell):
    label, factory, inputs, memory, budget = cell
    graph = explore(factory(), inputs, memory=memory, **budget)
    assert graph.complete == (not budget)
    if memory is not None:
        # Weak memory genuinely fans out: some node carries a pending
        # write.
        assert any(c.mem for c in graph.depth_of)
    assert assert_verdicts_match(engine, factory, inputs, memory=memory,
                                 **budget).ok
    # The visited set, in fingerprint and in exact mode: the objects
    # configurations mapped through the search's own canonicalization
    # and fingerprint function are exactly what it visited.
    fp, ex = (explore_fast(factory(), inputs, memory=memory, exact=exact,
                           keep_fingerprints=True, **budget)
              for exact in (False, True))
    for report in (fp, ex):
        assert report.ok and report.exhausted == graph.complete
        assert report.truncated_by == (
            None if graph.complete
            else "depth" if "max_depth" in budget else "states")
        assert report.visited == len(graph.depth_of)
        assert {report.fingerprint_of(c) for c in graph.depth_of} \
            == report.fingerprints
    assert ex.exact and not fp.exact
    assert (ex.visited, ex.edges, ex.depth) == (fp.visited, fp.edges,
                                                fp.depth)
    # Both searches count edges alike, a state budget's included: the
    # objects BFS keeps the tripping configuration's edges only up to
    # the one the budget refused.
    assert fp.edges == sum(len(succ) for succ in graph.edges.values())


@pytest.mark.parametrize("engine", CHECKER_ENGINES)
def test_violation_matches_objects(engine):
    def selfish(pid, pref, read):
        return ("decide", pref)

    broken = TwoProcessDeterministic(selfish, "selfish")
    want = assert_verdicts_match(engine, lambda: broken, ("a", "b"))
    assert not want.ok and "consistency" in want.violation
    report = explore_fast(broken, ("a", "b"))
    assert not report.exhausted and report.truncated_by == "violation"
    assert (report.violation, report.witness) == (want.violation,
                                                  want.witness)
    assert "VIOLATION" in report.guarantee()


@pytest.mark.parametrize("max_states", (1, 2, 3, 10, 50, 300, 1_000, 5_000,
                                        10_000))
def test_budgeted_depth_is_deepest_complete_level(max_states):
    """Under a state budget every checker engine reports as its depth
    the deepest BFS level whose configurations fit in the budget, read
    off the level sizes of the unbudgeted objects BFS."""
    inputs = ("a", "a", "b")
    full = explore(NaiveProtocol(3), inputs)
    sizes = collections.Counter(full.depth_of.values())
    within, want = 0, 0
    for depth in sorted(sizes):
        within += sizes[depth]
        if within > max_states:
            break
        want = depth
    for engine in (ORACLE_CHECKER,) + CHECKER_ENGINES:
        report = verify_safety(NaiveProtocol(3), inputs, engine=engine,
                               max_states=max_states)
        assert report.ok
        assert report.complete == (max_states >= len(full.depth_of))
        assert report.max_depth_reached == want, engine


@settings(max_examples=15, deadline=None)
@given(spec=automaton_specs(), seed=st.integers(0, 2 ** 32))
def test_random_automata_match_objects_bfs(spec, seed):
    # Each search visits exactly the configurations the objects BFS
    # visits, in the same order: it stops at the first violation, so
    # it must see the objects BFS's visit order up to and including
    # the same witness.
    protocol = TableAutomaton(spec)
    inputs = tuple((seed >> pid) & 1 for pid in range(protocol.n_processes))
    kwargs = {"max_depth": 4, "max_states": 2_000}
    order = []
    graph = explore(protocol, inputs,
                    on_node=lambda config, depth: order.append(config),
                    **kwargs)
    for engine in CHECKER_ENGINES:
        want = assert_verdicts_match(engine, lambda: protocol, inputs,
                                     **kwargs)
        report = explore_fast(protocol, inputs, keep_fingerprints=True,
                              **kwargs)
        assert (report.ok, report.violation, report.witness) \
            == (want.ok, want.violation, want.witness)
        visited = order
        if report.ok:
            assert report.exhausted == graph.complete
        else:
            visited = order[:order.index(want.witness) + 1]
        assert {report.fingerprint_of(c) for c in visited} \
            == report.fingerprints
