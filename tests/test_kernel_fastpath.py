"""Differential tests: the fast kernel path vs the reference path.

The kernel's fast path (``Simulation(..., engine="fast")``, the
default) must be *observably identical* to the reference path
(``engine="reference"``, the seed kernel verbatim): same decisions,
same activation counts, same
coin-flip counts (per processor — the RNG draw sequences themselves
must match, not just totals), same scheduler-consultation count, same
final configuration, same trace, same journal bytes, same metrics.

These tests enforce that bit-for-bit across every core protocol, every
scheduler family (benign, oblivious, crashing, adaptive adversaries),
multiple seeds, and — via Hypothesis — randomly generated table-driven
automata whose branch structure, register wiring and transition tables
are arbitrary.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.n_process import NProcessProtocol
from repro.core.three_bounded import ThreeBoundedProtocol
from repro.core.three_unbounded import ThreeUnboundedProtocol
from repro.core.two_process import TwoProcessProtocol
from repro.checker.explorer import explore, successors
from repro.parallel.tasks import ConstantInputs, ProtocolSpec, SchedulerSpec
from repro.errors import SimulationError
from repro.obs import (JsonlJournal, MetricsRegistry,
                       TimeAttributionProfiler, Tracer)
from repro.sched.adversary import (DisagreementAdversary, ReadValueAdversary,
                                   SplitVoteAdversary)
from repro.sched.crash import CrashingScheduler, CrashPlan
from repro.sched.simple import (
    BlockScheduler,
    FixedScheduler,
    ObliviousScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.sim.config import Configuration, RegisterLayout
from repro.sim.kernel import Activate, Simulation
from repro.sim.ops import BOTTOM, ReadOp, WriteOp
from repro.sim.process import Automaton, Branch, RegisterSpec
from repro.sim.rng import ReplayableRng
from repro.sim.runner import ExperimentRunner
from repro.sim.transitions import TransitionCache


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

def run_one(protocol_factory, inputs, scheduler_factory, seed, *,
            engine, max_steps=3_000, record_trace=False, cache=None,
            sinks=None, memory=None):
    """One run with the full seed-derivation discipline of the runner."""
    rng = ReplayableRng(seed)
    scheduler = scheduler_factory(rng.child("sched"))
    sim = Simulation(
        protocol_factory(), inputs, scheduler, rng.child("kernel"),
        record_trace=record_trace, engine=engine, cache=cache,
        sinks=sinks, memory=memory,
    )
    result = sim.run(max_steps)
    draws = tuple(r.draws for r in sim._proc_rngs)
    return result, draws


def assert_identical(res_fast, res_ref):
    """Every observable field of two RunResults must match exactly."""
    assert res_fast.protocol_name == res_ref.protocol_name
    assert res_fast.inputs == res_ref.inputs
    assert res_fast.decisions == res_ref.decisions
    assert res_fast.activations == res_ref.activations
    assert res_fast.decision_activation == res_ref.decision_activation
    assert res_fast.coin_flips == res_ref.coin_flips
    assert res_fast.total_steps == res_ref.total_steps
    assert res_fast.crashed == res_ref.crashed
    assert res_fast.completed == res_ref.completed
    assert res_fast.sched_consults == res_ref.sched_consults
    assert res_fast.final_configuration == res_ref.final_configuration


def run_pair(protocol_factory, inputs, scheduler_factory, seed, **kw):
    res_fast, draws_fast = run_one(
        protocol_factory, inputs, scheduler_factory, seed,
        engine="fast", **kw)
    res_ref, draws_ref = run_one(
        protocol_factory, inputs, scheduler_factory, seed,
        engine="reference", **kw)
    assert_identical(res_fast, res_ref)
    # The per-processor RNG streams must have consumed the exact same
    # number of draws — a stronger property than equal coin_flips
    # counters (it pins the drawing *order*, because all streams are
    # derived from one seed and interleave through the scheduler).
    assert draws_fast == draws_ref
    return res_fast


PROTOCOLS = {
    "two_process": (lambda: TwoProcessProtocol(values=("a", "b")),
                    ("a", "b")),
    "three_unbounded": (lambda: ThreeUnboundedProtocol(), ("a", "b", "a")),
    "three_bounded": (lambda: ThreeBoundedProtocol(), ("a", "b", "b")),
    "n_process_4": (lambda: NProcessProtocol(4), ("a", "b", "b", "a")),
}

SCHEDULERS = {
    "random": lambda rng: RandomScheduler(rng),
    "round_robin": lambda rng: RoundRobinScheduler(),
    "fixed": lambda rng: FixedScheduler([0, 0, 1, 0, 1, 1, 0]),
    "oblivious": lambda rng: ObliviousScheduler(rng),
    "block": lambda rng: BlockScheduler(3),
    "crashing": lambda rng: CrashingScheduler(
        RandomScheduler(rng), CrashPlan(at_step={3: (1,)})),
    "disagreement": lambda rng: DisagreementAdversary(),
    "split_vote": lambda rng: SplitVoteAdversary(),
}

SEEDS = (1, 7, 42)


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
def test_fast_path_bit_identical(protocol_name, scheduler_name):
    protocol_factory, inputs = PROTOCOLS[protocol_name]
    scheduler_factory = SCHEDULERS[scheduler_name]
    for seed in SEEDS:
        run_pair(protocol_factory, inputs, scheduler_factory, seed)


def test_traces_identical_when_recorded():
    protocol_factory, inputs = PROTOCOLS["three_bounded"]
    for seed in SEEDS:
        res_fast, _ = run_one(protocol_factory, inputs,
                              SCHEDULERS["random"], seed,
                              engine="fast", record_trace=True)
        res_ref, _ = run_one(protocol_factory, inputs,
                             SCHEDULERS["random"], seed,
                             engine="reference", record_trace=True)
        assert_identical(res_fast, res_ref)
        assert len(res_fast.trace) == len(res_ref.trace)
        for a, b in zip(res_fast.trace, res_ref.trace):
            assert (a.index, a.pid, a.op, a.result, a.decided) \
                == (b.index, b.pid, b.op, b.result, b.decided)


# ----------------------------------------------------------------------
# Observability parity: journal bytes, metrics, span trees and profiled
# runs must not change
# ----------------------------------------------------------------------

class ForcedReadScheduler(RandomScheduler):
    """Random activation order that pre-commits every certain read.

    When the chosen processor's next operation is a read whatever its
    coin says, the scheduler pre-commits the last legal value
    (``Activate(pid, read_value=...)``); under atomic semantics that is
    the committed value, under weak semantics the newest pending one.
    """

    def choose(self, view):
        pid = super().choose(view)
        ops = {b.op for b in view.protocol.branches(pid, view.state_of(pid))}
        if len(ops) == 1:
            op = ops.pop()
            if isinstance(op, ReadOp):
                return Activate(
                    pid, read_value=view.read_choices(op.register)[-1])
        return pid


OBS_SCHEDULERS = dict(
    SCHEDULERS,
    read_adversary=lambda rng: ReadValueAdversary(ForcedReadScheduler(rng),
                                                  policy="adversarial"),
)

#: (protocol, scheduler, memory) cells of the parity tests: every
#: protocol under a benign, a crashing and an adaptive scheduler, and
#: under every register semantics with the adversary forcing read
#: values (pre-committed where the read is certain, through
#: ``resolve_read`` otherwise).
OBS_CASES = [
    (protocol_name, scheduler_name, None)
    for protocol_name in sorted(PROTOCOLS)
    for scheduler_name in ("random", "crashing", "split_vote")
] + [
    (protocol_name, "read_adversary", memory)
    for protocol_name in sorted(PROTOCOLS)
    for memory in ("atomic", "regular", "safe")
]


def observe_pair(case, seed, make_sink):
    """Run one OBS_CASES cell on both engines, one fresh sink each.

    Returns ``{engine: (sink, result)}``.
    """
    protocol_name, scheduler_name, memory = case
    protocol_factory, inputs = PROTOCOLS[protocol_name]
    out = {}
    for engine in ("fast", "reference"):
        sink = make_sink(engine)
        result, _ = run_one(protocol_factory, inputs,
                            OBS_SCHEDULERS[scheduler_name], seed,
                            engine=engine, sinks=(sink,), memory=memory)
        out[engine] = (sink, result)
    return out


def test_journal_bytes_identical(tmp_path):
    for case in OBS_CASES:
        pair = observe_pair(case, 11, lambda engine: JsonlJournal(
            str(tmp_path / f"journal_{engine}.jsonl")))
        journals = {}
        for engine, (journal, _) in pair.items():
            journal.close()
            journals[engine] = (tmp_path / f"journal_{engine}.jsonl") \
                .read_bytes()
        assert journals["fast"] == journals["reference"], case


# -- journal parity at batch scale --------------------------------------


class TypedValuesAutomaton(Automaton):
    """Two processors whose register values compare equal across types.

    P0 writes values from :attr:`VALUES` (``True == 1 == 1.0`` and
    ``False == 0 == 0.0 == -0.0``) behind a coin flip; P1 only counts
    its reads, so reads of equal values of different types land on one
    memoized transition outcome and only the journal text tells them
    apart.  That makes the journal's per-outcome memo prove it is
    type-exact.
    """

    name = "typed-values"
    n_processes = 2
    VALUES = (True, 1, 1.0, False, 0, -0.0, 0.0)

    def registers(self):
        return [RegisterSpec(name="r", writers=(0,), readers=(1,),
                             initial=BOTTOM)]

    def initial_state(self, pid, input_value):
        return 0

    def branches(self, pid, state):
        if pid == 0:
            values = self.VALUES
            return (Branch(0.5, WriteOp("r", values[state % 7])),
                    Branch(0.5, WriteOp("r", values[(state + 3) % 7])))
        return (Branch(1.0, ReadOp("r")),)

    def observe(self, pid, state, op, result):
        return state + 1

    def output(self, pid, state):
        if state >= (10 if pid == 0 else 12):
            return "w" if pid == 0 else "r"
        return None


#: name -> (protocol factory, inputs factory).  The typed-values
#: inputs also compare equal across types, run to run.
BATCH_PROTOCOLS = dict(
    {name: (factory, lambda i, rng, inputs=inputs: inputs)
     for name, (factory, inputs) in PROTOCOLS.items()},
    typed_values=(lambda: TypedValuesAutomaton(),
                  lambda i, rng: ((0, 0), (False, 0), (0.0, 0))[i % 3]))


def batch_journal(path, protocol_name, engine, sinks=(), n_runs=24):
    """One ``run_many`` batch on ``engine`` journaled to ``path``: its
    runs share one transition cache, so later runs hit the memo."""
    protocol_factory, inputs_factory = BATCH_PROTOCOLS[protocol_name]
    runner = ExperimentRunner(
        protocol_factory=protocol_factory,
        scheduler_factory=lambda rng: RandomScheduler(rng),
        inputs_factory=inputs_factory,
        seed=41, sinks=sinks, engine=engine)
    runner.run_many(n_runs, max_steps=3_000, journal_path=str(path))
    return path.read_bytes()


@pytest.mark.parametrize("protocol_name", sorted(BATCH_PROTOCOLS))
def test_batch_journal_bytes_identical(tmp_path, protocol_name):
    journals = {engine: batch_journal(tmp_path / f"{engine}.jsonl",
                                      protocol_name, engine)
                for engine in ("fast", "reference")}
    assert journals["fast"] == journals["reference"]


def test_batch_journal_is_type_exact(tmp_path):
    journal = batch_journal(tmp_path / "typed.jsonl", "typed_values",
                            "fast")
    for text in (b'"result":true,', b'"result":1,', b'"result":1.0,',
                 b'"result":false,', b'"result":0,', b'"result":-0.0,',
                 b'"result":0.0,', b'"inputs":[0,0]', b'"inputs":[false,0]',
                 b'"inputs":[0.0,0]'):
        assert text in journal, text


def test_batch_journal_bytes_identical_beside_other_sinks(tmp_path):
    journals = {}
    for engine in ("fast", "reference"):
        registry, tracer = MetricsRegistry(), Tracer()
        journals[engine] = batch_journal(
            tmp_path / f"{engine}.jsonl", "three_unbounded", engine,
            sinks=(registry, tracer))
        assert registry.counters["runs"].value == 24
        assert tracer.spans
    assert journals["fast"] == journals["reference"]


def test_sharded_journal_bytes_identical_to_serial(tmp_path):
    journals = {}
    for engine, workers in (("fast", 2), ("fast", 1), ("reference", 1)):
        runner = ExperimentRunner(
            protocol_factory=ProtocolSpec("three-unbounded", 3),
            scheduler_factory=SchedulerSpec("random"),
            inputs_factory=ConstantInputs(("a", "b", "a")),
            seed=43, engine=engine)
        path = tmp_path / f"{engine}_{workers}.jsonl"
        runner.run_many(40, max_steps=3_000, workers=workers,
                        journal_path=str(path))
        journals[engine, workers] = path.read_bytes()
    assert journals["fast", 2] == journals["fast", 1] \
        == journals["reference", 1]


def test_metrics_identical():
    for case in OBS_CASES:
        pair = observe_pair(case, 23, lambda engine: MetricsRegistry())
        registries = {engine: reg.to_dict()
                      for engine, (reg, _) in pair.items()}
        assert registries["fast"] == registries["reference"], case


def test_tracer_span_trees_identical():
    for case in OBS_CASES:
        pair = observe_pair(case, 31, lambda engine: Tracer())
        trees = {engine: [span.to_dict() for span in tracer.spans]
                 for engine, (tracer, _) in pair.items()}
        assert trees["fast"], case
        assert trees["fast"] == trees["reference"], case


def test_profiled_runs_identical():
    for case in OBS_CASES:
        pair = observe_pair(case, 37,
                            lambda engine: TimeAttributionProfiler())
        for engine, (profiler, _) in pair.items():
            assert profiler.n_runs == 1, case
            # A bare Simulation delivers no on_run_key: no setup layer.
            assert profiler.setup_seconds == 0.0 < profiler.loop_seconds
        assert_identical(pair["fast"][1], pair["reference"][1])


def test_mixed_stepping_identical_with_sinks(tmp_path):
    """``step()``, ``step_processor(pid)`` and ``run()`` interleaved on
    one observed simulation: both engines return the same records and
    emit the same events."""
    protocol_factory, inputs = PROTOCOLS["three_bounded"]
    seen = {}
    for engine in ("fast", "reference"):
        rng = ReplayableRng(5)
        path = tmp_path / f"mixed_{engine}.jsonl"
        journal = JsonlJournal(str(path))
        registry = MetricsRegistry()
        profiler = TimeAttributionProfiler()
        sim = Simulation(protocol_factory(), inputs,
                         RandomScheduler(rng.child("sched")),
                         rng.child("kernel"), record_trace=True,
                         engine=engine,
                         sinks=(journal, registry, profiler))
        records = [sim.step(), sim.step_processor(2), sim.step(),
                   sim.step_processor(0), sim.step_processor(0)]
        result = sim.run(3_000)
        journal.close()
        assert records == list(result.trace)[:len(records)]
        assert registry.counters["steps"].value == result.total_steps
        # step_processor bypasses the scheduler: no consultation.
        assert result.sched_consults == result.total_steps - 3
        assert profiler.n_runs == 1
        seen[engine] = (result, records, list(result.trace),
                        path.read_bytes(), registry.to_dict())
    fast, ref = seen["fast"], seen["reference"]
    assert_identical(fast[0], ref[0])
    assert fast[1:] == ref[1:]


# ----------------------------------------------------------------------
# Engine selection and cache plumbing
# ----------------------------------------------------------------------

class TestEngineSelection:
    def test_fast_is_the_default(self):
        sim = Simulation(TwoProcessProtocol(), ("a", "b"),
                         RoundRobinScheduler(), ReplayableRng(0))
        assert sim._fast and sim._cache is not None

    def test_reference_escape_hatch(self):
        sim = Simulation(TwoProcessProtocol(), ("a", "b"),
                         RoundRobinScheduler(), ReplayableRng(0),
                         engine="reference")
        assert not sim._fast and sim._cache is None
        result = sim.run(1_000)
        assert result.completed and result.consistent

    def test_cache_with_reference_path_rejected(self):
        protocol = TwoProcessProtocol()
        cache = TransitionCache(protocol)
        with pytest.raises(SimulationError):
            Simulation(protocol, ("a", "b"), RoundRobinScheduler(),
                       ReplayableRng(0), engine="reference", cache=cache)

    def test_shared_cache_matches_private_caches(self):
        protocol = TwoProcessProtocol()
        cache = TransitionCache(protocol)
        for seed in SEEDS:
            shared, _ = run_one(lambda: protocol, ("a", "b"),
                                SCHEDULERS["random"], seed,
                                engine="fast", cache=cache)
            private, _ = run_one(lambda: protocol, ("a", "b"),
                                 SCHEDULERS["random"], seed,
                                 engine="fast")
            assert_identical(shared, private)
        assert len(cache) > 0

    def test_shared_cache_reuses_layout(self):
        protocol = TwoProcessProtocol()
        cache = TransitionCache(protocol)
        sims = [
            Simulation(protocol, ("a", "b"), RoundRobinScheduler(),
                       ReplayableRng(s), cache=cache)
            for s in (0, 1)
        ]
        assert sims[0].layout is cache.layout
        assert sims[1].layout is cache.layout


class TestTransitionCache:
    def test_entries_memoized(self):
        protocol = TwoProcessProtocol()
        cache = TransitionCache(protocol)
        state = protocol.initial_state(0, "a")
        e1 = cache.entry(0, state)
        e2 = cache.entry(0, state)
        assert e1 is e2
        assert len(cache) == 1

    def test_max_entries_overflow_still_computes(self):
        protocol = TwoProcessProtocol()
        cache = TransitionCache(protocol, max_entries=0)
        state = protocol.initial_state(0, "a")
        e1 = cache.entry(0, state)
        e2 = cache.entry(0, state)
        assert e1 is not e2  # not stored...
        assert e1.execs == e2.execs  # ...but equivalent
        assert len(cache) == 0

    def test_outcome_chains_next_entry(self):
        protocol = TwoProcessProtocol()
        cache = TransitionCache(protocol)
        state = protocol.initial_state(0, "a")
        entry = cache.entry(0, state)
        # The initial move is a deterministic write of the input value.
        outcome = cache.outcome(0, state, entry, 0, None)
        assert outcome.decided is None
        assert outcome.next_entry is cache.entry(0, outcome.state)
        # The memo slot is left for transition sinks to fill.
        assert outcome.memo is None and outcome.memo_result is None
        assert entry.outcomes[0][None] is outcome

    def test_strict_cache_validates_distributions(self):
        class BadProtocol(TwoProcessProtocol):
            def branches(self, pid, state):
                branches = super().branches(pid, state)
                if len(branches) > 1:
                    return (Branch(0.9, branches[0].op),
                            Branch(0.9, branches[1].op))
                return branches

        from repro.errors import ProtocolError
        protocol = BadProtocol()
        cache = TransitionCache(protocol, strict=True)
        sim = Simulation(protocol, ("a", "b"), RoundRobinScheduler(),
                         ReplayableRng(3), cache=cache)
        with pytest.raises(ProtocolError):
            sim.run(1_000)


# ----------------------------------------------------------------------
# Explorer: the cached successor expansion must match the uncached one
# ----------------------------------------------------------------------

class TestExplorerCache:
    @pytest.mark.parametrize("protocol_name",
                             ["two_process", "three_bounded"])
    def test_successors_with_and_without_cache(self, protocol_name):
        protocol_factory, inputs = PROTOCOLS[protocol_name]
        protocol = protocol_factory()
        layout = RegisterLayout.for_protocol(protocol)
        cache = TransitionCache(protocol, layout=layout, strict=False)
        config = Configuration.initial(protocol, layout, inputs)
        seen = {config}
        frontier = [config]
        for _ in range(4):  # four BFS levels is plenty of coverage
            nxt = []
            for c in frontier:
                plain = list(successors(protocol, layout, c))
                cached = list(successors(protocol, layout, c, cache))
                assert plain == cached
                for s in plain:
                    if s.config not in seen:
                        seen.add(s.config)
                        nxt.append(s.config)
            frontier = nxt

    def test_explore_still_exhausts_two_process(self):
        graph = explore(TwoProcessProtocol(), ("a", "b"))
        assert graph.complete
        assert graph.n_states > 1


# ----------------------------------------------------------------------
# Hypothesis: random table-driven automata
# ----------------------------------------------------------------------

class TableAutomaton(Automaton):
    """An automaton whose entire behavior is a drawn lookup table.

    States are small ints; every register is readable and writable by
    every processor; ``observe`` maps ``(pid, state, op, result)``
    through index arithmetic into a drawn transition list.  Everything
    is pure and transition-stable, but the branch structure, weights,
    register wiring, and state graph are arbitrary — exactly the space
    the TransitionCache contract quantifies over.
    """

    name = "table"
    _WRITE_VALUES = (0, 1, 2)
    _RESULT_INDEX = {BOTTOM: 0, 0: 1, 1: 2, 2: 3, None: 4}

    def __init__(self, spec):
        self.n_processes = spec["n"]
        self._n_states = spec["n_states"]
        self._n_regs = spec["n_regs"]
        self._decide = spec["decide_states"]
        self._init = spec["init"]
        self._trans = spec["trans"]
        # Op space: every read, then every (register, value) write.
        ops = [ReadOp(f"r{i}") for i in range(self._n_regs)]
        ops += [WriteOp(f"r{i}", v) for i in range(self._n_regs)
                for v in self._WRITE_VALUES]
        self._op_code = {
            (op.kind, op.register, getattr(op, "value", None)): code
            for code, op in enumerate(ops)
        }
        self._branches = {}
        for (pid, state), (op_idxs, weights) in spec["branch_table"].items():
            total = sum(weights)
            self._branches[(pid, state)] = tuple(
                Branch(w / total, ops[i]) for i, w in zip(op_idxs, weights)
            )

    def registers(self):
        everyone = tuple(range(self.n_processes))
        return [RegisterSpec(name=f"r{i}", writers=everyone,
                             readers=everyone, initial=BOTTOM)
                for i in range(self._n_regs)]

    def initial_state(self, pid, input_value):
        return self._init[pid * 2 + input_value]

    def branches(self, pid, state):
        return self._branches[(pid, state)]

    def observe(self, pid, state, op, result):
        code = self._op_code[(op.kind, op.register,
                              getattr(op, "value", None))]
        ridx = self._RESULT_INDEX[result]
        trans = self._trans
        return trans[(pid * 7 + state * 13 + code * 3 + ridx * 5)
                     % len(trans)]

    def output(self, pid, state):
        return state % 2 if state in self._decide else None


@st.composite
def automaton_specs(draw):
    n = draw(st.integers(2, 3))
    n_states = draw(st.integers(3, 6))
    n_regs = draw(st.integers(1, 3))
    n_ops = n_regs * (1 + len(TableAutomaton._WRITE_VALUES))
    decide_states = draw(st.sets(st.integers(0, n_states - 1),
                                 max_size=n_states - 1))
    branch_table = {}
    for pid in range(n):
        for state in range(n_states):
            if state in decide_states:
                continue
            k = draw(st.integers(1, 3))
            op_idxs = draw(st.lists(st.integers(0, n_ops - 1),
                                    min_size=k, max_size=k))
            weights = draw(st.lists(st.integers(1, 5),
                                    min_size=k, max_size=k))
            branch_table[(pid, state)] = (tuple(op_idxs), tuple(weights))
    non_decided = [s for s in range(n_states) if s not in decide_states]
    init = draw(st.lists(st.sampled_from(non_decided + list(decide_states)),
                         min_size=n * 2, max_size=n * 2))
    trans = draw(st.lists(st.integers(0, n_states - 1),
                          min_size=4, max_size=16))
    return {
        "n": n, "n_states": n_states, "n_regs": n_regs,
        "decide_states": frozenset(decide_states),
        "branch_table": branch_table, "init": init, "trans": trans,
    }


@settings(max_examples=60, deadline=None)
@given(spec=automaton_specs(), seed=st.integers(0, 2 ** 32),
       inputs_bits=st.lists(st.integers(0, 1), min_size=3, max_size=3))
def test_random_automata_fast_equals_reference(spec, seed, inputs_bits):
    protocol = TableAutomaton(spec)
    inputs = tuple(inputs_bits[: protocol.n_processes])
    results = {}
    draws = {}
    for engine in ("fast", "reference"):
        rng = ReplayableRng(seed)
        sim = Simulation(protocol, inputs,
                         RandomScheduler(rng.child("sched")),
                         rng.child("kernel"), engine=engine)
        results[engine] = sim.run(300)
        draws[engine] = tuple(r.draws for r in sim._proc_rngs)
    assert_identical(results["fast"], results["reference"])
    assert draws["fast"] == draws["reference"]
    assert results["fast"].coin_flips == results["reference"].coin_flips
