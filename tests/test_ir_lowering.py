"""Differential tests: the table IR / vector engine vs the kernels.

``engine="vector"`` (``repro.ir``) compiles a finite protocol to dense
integer tables and steps whole batches in lockstep.  Its contract is
the same one the fast path owes the reference path, one level up: for
every supported protocol × scheduler × seed × memory cell it must be
*observably identical* to ``Simulation`` — same decisions, activation
counts, per-processor coin-draw counts, scheduler consults, final
configuration, trace steps, journal bytes, and metrics — and it must
refuse (``IRUnsupportedError`` / ``IRCompileError``) rather than
approximate anything outside the supported matrix (docs/IR.md §5–§6).

The suite mirrors ``test_kernel_fastpath.py``: a named matrix over the
core protocols and vectorizable schedulers, observability parity
tests, engine wiring through ``solve``/``ExperimentRunner``/the
parallel engine/the checker, named tests for each lowering rule, RNG
vectorization equivalence, and Hypothesis-generated random finite
automata pushed through lowering and both vector backends.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less host
    _np = None

from repro.checker.explorer import explore
from repro.checker.properties import verify_safety
from repro.checker.statespace import explore_fast
from repro.core.consensus import solve
from repro.core.n_process import NProcessProtocol
from repro.core.naive import NaiveProtocol
from repro.core.three_bounded import ThreeBoundedProtocol
from repro.core.three_unbounded import ThreeUnboundedProtocol
from repro.core.two_process import TwoProcessProtocol
from repro.ir import (
    IRCompileError,
    IRUnsupportedError,
    VectorKernel,
    compile_protocol,
    replay_run,
    vectorize_scheduler,
)
from repro.obs import JsonlJournal, MetricsRegistry
from repro.sched.adversary import SplitVoteAdversary
from repro.sched.simple import (
    FixedScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.sim.config import Configuration, RegisterLayout
from repro.sim.kernel import Simulation
from repro.sim.ops import BOTTOM, ReadOp, WriteOp
from repro.sim.process import Automaton, Branch, RegisterSpec
from repro.sim.rng import ReplayableRng

needs_numpy = pytest.mark.skipif(_np is None, reason="numpy not installed")

BACKENDS = ("python",) if _np is None else ("numpy", "python")


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

def run_interp(protocol_factory, inputs, scheduler_factory, seed, *,
               engine="fast", max_steps=3_000, record_trace=False,
               sinks=None):
    """One interpreted-kernel run with the runner's seed chain."""
    rng = ReplayableRng(seed)
    scheduler = scheduler_factory(rng.child("sched"))
    sim = Simulation(
        protocol_factory(), inputs, scheduler, rng.child("kernel"),
        record_trace=record_trace, engine=engine, sinks=sinks,
    )
    return sim.run(max_steps)


def run_vector(protocol_factory, inputs, scheduler_factory, seed, *,
               backend=None, max_steps=3_000, record_trace=False,
               sinks=None, run_index=0):
    """The same run through the vector engine (batch of one).

    ``run_batch`` derives the streams of run ``i`` as
    ``root.child("run", i)...``; the runner harness above seeds the
    interpreted kernel from ``root`` directly, so the vector twin of a
    ``run_interp(..., seed=s)`` call is ``run_single`` — this helper
    instead mirrors the *runner* chain and is compared against
    ``ExperimentRunner``-style derivation (see ``matrix_pair``).
    """
    probe = scheduler_factory(ReplayableRng(seed).child("sched-probe"))
    vk = VectorKernel(compile_protocol(protocol_factory()),
                      vectorize_scheduler(probe), backend=backend)
    batch = vk.run_batch(seed, [run_index], [tuple(inputs)],
                         max_steps=max_steps, record=bool(sinks),
                         record_trace=record_trace)
    result = batch.results[0]
    if sinks:
        replay_run(vk.compiled, result, batch.records[0], sinks,
                   seed, run_index)
    return result


def run_interp_as_runner(protocol_factory, inputs, scheduler_factory,
                         seed, run_index=0, *, max_steps=3_000,
                         record_trace=False, sinks=None):
    """Interpreted run seeded exactly as ``ExperimentRunner.run_one``."""
    rng = ReplayableRng(seed).child("run", run_index)
    scheduler = scheduler_factory(rng.child("sched"))
    sim = Simulation(
        protocol_factory(), inputs, scheduler, rng.child("kernel"),
        record_trace=record_trace, engine="fast", sinks=sinks,
    )
    if sinks:
        for sink in sinks:
            run_key = getattr(sink, "on_run_key", None)
            if run_key is not None:
                run_key(seed, run_index)
    return sim.run(max_steps)


def assert_identical(res_vec, res_ref):
    """Every observable field of two RunResults must match exactly."""
    assert res_vec.protocol_name == res_ref.protocol_name
    assert res_vec.inputs == res_ref.inputs
    assert res_vec.decisions == res_ref.decisions
    assert res_vec.activations == res_ref.activations
    assert res_vec.decision_activation == res_ref.decision_activation
    assert res_vec.coin_flips == res_ref.coin_flips
    assert res_vec.total_steps == res_ref.total_steps
    assert res_vec.crashed == res_ref.crashed
    assert res_vec.completed == res_ref.completed
    assert res_vec.sched_consults == res_ref.sched_consults
    assert res_vec.final_configuration == res_ref.final_configuration


PROTOCOLS = {
    "two_process": (lambda: TwoProcessProtocol(values=("a", "b")),
                    ("a", "b")),
    "three_bounded": (lambda: ThreeBoundedProtocol(), ("a", "b", "b")),
    "n_process_4": (lambda: NProcessProtocol(4), ("a", "b", "b", "a")),
    "naive_3": (lambda: NaiveProtocol(3), ("a", "a", "b")),
    "naive_5_3v": (lambda: NaiveProtocol(5, values=("a", "b", "c")),
                   ("a", "b", "c", "a", "b")),
}

SCHEDULERS = {
    "random": lambda rng: RandomScheduler(rng),
    "round_robin": lambda rng: RoundRobinScheduler(),
    "round_robin_offset": lambda rng: RoundRobinScheduler(start=1),
}

SEEDS = (1, 7, 42)


# ----------------------------------------------------------------------
# The supported matrix must be bit-identical
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
def test_vector_bit_identical(protocol_name, scheduler_name, backend):
    protocol_factory, inputs = PROTOCOLS[protocol_name]
    scheduler_factory = SCHEDULERS[scheduler_name]
    for seed in SEEDS:
        res_vec = run_vector(protocol_factory, inputs, scheduler_factory,
                             seed, backend=backend)
        res_ref = run_interp_as_runner(protocol_factory, inputs,
                                       scheduler_factory, seed)
        assert_identical(res_vec, res_ref)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_equals_singles(backend):
    """One 40-run batch == forty 1-run batches (lockstep is invisible)."""
    protocol_factory, inputs = PROTOCOLS["naive_3"]
    probe = RandomScheduler(ReplayableRng(0))
    vk = VectorKernel(compile_protocol(protocol_factory()),
                      vectorize_scheduler(probe), backend=backend)
    indices = list(range(40))
    batch = vk.run_batch(99, indices, [tuple(inputs)] * 40, max_steps=3_000)
    for i in indices:
        single = vk.run_batch(99, [i], [tuple(inputs)], max_steps=3_000)
        assert_identical(batch.results[i], single.results[0])


@needs_numpy
def test_numpy_equals_python_backend():
    for protocol_name in ("two_process", "naive_5_3v"):
        protocol_factory, inputs = PROTOCOLS[protocol_name]
        for scheduler_name in ("random", "round_robin"):
            a = run_vector(protocol_factory, inputs,
                           SCHEDULERS[scheduler_name], 13, backend="numpy")
            b = run_vector(protocol_factory, inputs,
                           SCHEDULERS[scheduler_name], 13, backend="python")
            assert_identical(a, b)


@needs_numpy
def test_straggler_handoff_long_tail():
    """Runs that outlive the lockstep majority finish scalar, identically.

    A 90-run batch under the random scheduler leaves a straggler tail
    below ``SCALAR_CUTOFF`` that the numpy backend hands off to scalar
    CPython ``random.Random`` mid-stream (``MtRuns.handoff``) — every
    run must still match its interpreted twin exactly.
    """
    protocol_factory, inputs = PROTOCOLS["three_bounded"]
    probe = RandomScheduler(ReplayableRng(0))
    vk = VectorKernel(compile_protocol(protocol_factory()),
                      vectorize_scheduler(probe), backend="numpy")
    indices = list(range(90))
    batch = vk.run_batch(7, indices, [tuple(inputs)] * 90, max_steps=5_000)
    for i in (0, 17, 55, 89):
        ref = run_interp_as_runner(protocol_factory, inputs,
                                   SCHEDULERS["random"], 7, run_index=i,
                                   max_steps=5_000)
        assert_identical(batch.results[i], ref)


@pytest.mark.parametrize("backend", BACKENDS)
def test_traces_identical_when_recorded(backend):
    protocol_factory, inputs = PROTOCOLS["three_bounded"]
    for seed in SEEDS:
        res_vec = run_vector(protocol_factory, inputs, SCHEDULERS["random"],
                             seed, backend=backend, record_trace=True)
        res_ref = run_interp_as_runner(protocol_factory, inputs,
                                       SCHEDULERS["random"], seed,
                                       record_trace=True)
        assert len(res_vec.trace) == len(res_ref.trace)
        for a, b in zip(res_vec.trace, res_ref.trace):
            assert (a.index, a.pid, a.op, a.result, a.decided) \
                == (b.index, b.pid, b.op, b.result, b.decided)


def test_max_consults_budget_matches_kernel():
    """The collapsed single budget must cut off exactly where dual does."""
    protocol_factory, inputs = PROTOCOLS["naive_3"]
    probe = RandomScheduler(ReplayableRng(0))
    vk = VectorKernel(compile_protocol(protocol_factory()),
                      vectorize_scheduler(probe))
    for max_steps, max_consults in ((25, None), (3_000, 25), (25, 10)):
        batch = vk.run_batch(3, [0], [tuple(inputs)], max_steps=max_steps,
                             max_consults=max_consults)
        rng = ReplayableRng(3).child("run", 0)
        sim = Simulation(protocol_factory(), inputs,
                         RandomScheduler(rng.child("sched")),
                         rng.child("kernel"))
        assert_identical(batch.results[0],
                         sim.run(max_steps, max_consults=max_consults))


# ----------------------------------------------------------------------
# Observability parity: journal bytes and metrics must not change
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_journal_bytes_identical(tmp_path, backend):
    protocol_factory, inputs = PROTOCOLS["two_process"]
    payloads = {}
    for engine in ("vector", "interp"):
        path = tmp_path / f"journal_{engine}_{backend}.jsonl"
        journal = JsonlJournal(str(path))
        if engine == "vector":
            run_vector(protocol_factory, inputs, SCHEDULERS["random"], 11,
                       backend=backend, sinks=(journal,))
        else:
            run_interp_as_runner(protocol_factory, inputs,
                                 SCHEDULERS["random"], 11,
                                 sinks=(journal,))
        journal.close()
        payloads[engine] = path.read_bytes()
    assert payloads["vector"] == payloads["interp"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_metrics_identical(backend):
    protocol_factory, inputs = PROTOCOLS["three_bounded"]
    registries = {}
    for engine in ("vector", "interp"):
        reg = MetricsRegistry()
        if engine == "vector":
            run_vector(protocol_factory, inputs, SCHEDULERS["random"], 23,
                       backend=backend, sinks=(reg,))
        else:
            run_interp_as_runner(protocol_factory, inputs,
                                 SCHEDULERS["random"], 23, sinks=(reg,))
        registries[engine] = reg.to_dict()
    assert registries["vector"] == registries["interp"]


# ----------------------------------------------------------------------
# Engine wiring: solve / runner / parallel engine / CLI surface
# ----------------------------------------------------------------------

def _outcome_key(outcome):
    trace = outcome.trace
    trace_key = None if trace is None else \
        [(s.index, s.pid, s.op, s.result, s.decided) for s in trace]
    return (dataclasses.replace(outcome, trace=None), trace_key)


def test_solve_engine_vector_matches_fast():
    for seed in SEEDS:
        a = solve(TwoProcessProtocol(), ("a", "b"), seed=seed,
                  record_trace=True, engine="vector")
        b = solve(TwoProcessProtocol(), ("a", "b"), seed=seed,
                  record_trace=True, engine="fast")
        assert _outcome_key(a) == _outcome_key(b)


def test_solve_engine_vector_with_sinks():
    regs = {}
    for engine in ("vector", "fast"):
        reg = MetricsRegistry()
        solve(NaiveProtocol(3), ("a", "b", "a"), seed=5, sinks=(reg,),
              engine=engine)
        regs[engine] = reg.to_dict()
    assert regs["vector"] == regs["fast"]


def test_solve_rejects_unknown_engine():
    with pytest.raises(ValueError):
        solve(TwoProcessProtocol(), ("a", "b"), engine="warp")


def _make_runner(engine, sinks=()):
    from repro.parallel.tasks import (ConstantInputs, ProtocolSpec,
                                      SchedulerSpec)
    from repro.sim.runner import ExperimentRunner

    return ExperimentRunner(
        protocol_factory=ProtocolSpec("naive", 3),
        scheduler_factory=SchedulerSpec("random"),
        inputs_factory=ConstantInputs(("a", "b", "a")),
        seed=2_025,
        sinks=sinks,
        engine=engine,
    )


def test_runner_engine_vector_run_one():
    vec, fast = _make_runner("vector"), _make_runner("fast")
    for idx in (0, 3, 17):
        assert_identical(vec.run_one(idx, 3_000), fast.run_one(idx, 3_000))


def test_runner_engine_vector_run_many_serial():
    vec = _make_runner("vector").run_many(200, max_steps=3_000)
    fast = _make_runner("fast").run_many(200, max_steps=3_000)
    assert vec.runs == fast.runs


def test_runner_engine_vector_run_many_parallel():
    serial = _make_runner("vector").run_many(120, max_steps=3_000)
    sharded = _make_runner("vector").run_many(
        120, max_steps=3_000, workers=2, mp_context="fork")
    assert serial.runs == sharded.runs


def test_runner_engine_vector_journal_and_metrics(tmp_path):
    outputs = {}
    for engine in ("vector", "fast"):
        reg = MetricsRegistry()
        path = tmp_path / f"batch_{engine}.jsonl"
        stats = _make_runner(engine, sinks=(reg,)).run_many(
            60, max_steps=3_000, journal_path=str(path))
        outputs[engine] = (stats.runs, reg.to_dict(), path.read_bytes())
    assert outputs["vector"] == outputs["fast"]


def test_runner_rejects_unknown_engine():
    with pytest.raises(ValueError):
        _make_runner("warp")


def test_runner_vector_rejects_unsupported_scheduler():
    from repro.parallel.tasks import (ConstantInputs, ProtocolSpec,
                                      SchedulerSpec)
    from repro.sim.runner import ExperimentRunner

    runner = ExperimentRunner(
        protocol_factory=ProtocolSpec("naive", 3),
        scheduler_factory=SchedulerSpec("split-vote"),
        inputs_factory=ConstantInputs(("a", "b", "a")),
        seed=1,
        engine="vector",
    )
    with pytest.raises(IRUnsupportedError):
        runner.run_one(0, 100)


# ----------------------------------------------------------------------
# Checker: the fingerprinted search over the compiled tables
# ----------------------------------------------------------------------

def test_verify_safety_fingerprints_engine():
    for engine in (None, "fingerprints"):
        report = verify_safety(NaiveProtocol(3), ("a", "a", "b"),
                               engine=engine)
        assert report.ok and report.complete


# ----------------------------------------------------------------------
# Lowering rules, named per docs/IR.md §3
# ----------------------------------------------------------------------

class TestLoweringRules:
    def test_initial_configuration_round_trips(self):
        """§3: initial sids + init_regs decode to Configuration.initial."""
        for protocol_factory, inputs in PROTOCOLS.values():
            protocol = protocol_factory()
            cp = compile_protocol(protocol)
            layout = RegisterLayout.for_protocol(protocol)
            decoded = cp.decode_configuration(
                cp.initial_sids(tuple(inputs)), cp.init_regs)
            assert decoded == Configuration.initial(protocol, layout,
                                                    inputs)

    def test_branch_encoding_mirrors_protocol(self):
        """§3: each branch row encodes (is_read, slot, value, prob, op)."""
        protocol = TwoProcessProtocol(values=("a", "b"))
        cp = compile_protocol(protocol)
        layout = cp.layout
        for pid, value in ((0, "a"), (1, "b")):
            sid = cp.initial_sid(pid, value)
            cp.ensure_compiled(sid)
            branches = protocol.branches(pid, cp.state_of(sid))
            assert cp.state_nb[sid] == len(branches)
            base = cp.state_base[sid]
            for k, branch in enumerate(branches):
                b = base + k
                assert cp.br_prob[b] == branch.probability
                assert cp.br_op[b] == branch.op
                if isinstance(branch.op, ReadOp):
                    assert cp.br_is_read[b]
                    assert cp.br_slot[b] \
                        == layout.check_read(pid, branch.op.register)
                else:
                    assert not cp.br_is_read[b]
                    assert cp.br_slot[b] \
                        == layout.check_write(pid, branch.op.register)
                    assert cp.value_of(cp.br_write[b]) == branch.op.value

    def test_read_outcomes_memoize_observe(self):
        """§3: read_outcome(b, vid) == intern(observe(..., value))."""
        protocol = NaiveProtocol(3)
        cp = compile_protocol(protocol)
        sid = cp.initial_sid(0, "a")
        cp.ensure_compiled(sid)
        # Walk to the first read branch of pid 0's state graph.
        b = cp.state_base[sid]
        while not cp.br_is_read[b]:
            nxt = cp.br_write_next[b]
            cp.ensure_compiled(nxt)
            b = cp.state_base[nxt]
        owner = cp.br_state[b]
        pid, state = cp.state_pid[owner], cp.state_of(owner)
        for value in (BOTTOM, "a", "b"):
            vid = cp.intern_value(value)
            out_sid = cp.read_outcome(b, vid)
            expected = protocol.observe(pid, state, cp.br_op[b], value)
            assert cp.state_pid[out_sid] == pid
            assert cp.state_of(out_sid) == expected

    def test_decided_states_carry_output(self):
        """§3: state_out[sid] interns the decision value, -1 otherwise."""
        cp = compile_protocol(TwoProcessProtocol(values=("a", "b")))
        sid = cp.initial_sid(0, "a")
        assert cp.state_out[sid] == -1  # initial states are undecided
        run = run_vector(*PROTOCOLS["two_process"], SCHEDULERS["random"], 3)
        final_sids = [cp.intern_state(pid, s)
                      for pid, s in enumerate(
                          run.final_configuration.states)]
        for pid, sid in enumerate(final_sids):
            assert cp.value_of(cp.state_out[sid]) == run.decisions[pid]

    def test_lazy_compilation_grows_monotonically(self):
        """§3: states/branches appear in the compile log append-only."""
        cp = compile_protocol(NaiveProtocol(3))
        before = cp.describe()
        run_a = cp.initial_sids(("a", "a", "b"))
        cp.ensure_compiled(run_a[0])
        mid = cp.describe()
        cp.initial_sids(("b", "b", "b"))
        after = cp.describe()
        assert before["states"] <= mid["states"] <= after["states"]
        # The compile log records lowered states only (laziness): it
        # trails the intern table and never shrinks.
        assert 1 <= len(cp.compile_log) <= after["states"]

    def test_closed_compile_fixpoint(self):
        """§3: closed=True compiles every reachable state eagerly."""
        cp = compile_protocol(TwoProcessProtocol(values=("a", "b")),
                              [("a", "b")], closed=True)
        assert all(nb >= 0 for nb in cp.state_nb)
        graph = explore(TwoProcessProtocol(values=("a", "b")), ("a", "b"))
        reachable_states = {(pid, c.states[pid])
                            for c in graph.depth_of
                            for pid in range(2)}
        assert cp.n_states >= len(reachable_states)


# ----------------------------------------------------------------------
# Refusal cases (docs/IR.md §6): fail loudly, never approximate
# ----------------------------------------------------------------------

class TestRefusals:
    def test_unbounded_protocol_refuses_closed_compile(self):
        with pytest.raises(IRCompileError):
            compile_protocol(ThreeUnboundedProtocol(),
                             [("a", "b", "a")], closed=True,
                             max_states=2_000)

    def test_state_budget_overflow_refuses(self):
        with pytest.raises(IRCompileError):
            compile_protocol(NaiveProtocol(3), [("a", "a", "b")],
                             closed=True, max_states=4)

    def test_value_budget_overflow_refuses(self):
        with pytest.raises(IRCompileError):
            compile_protocol(NaiveProtocol(5, values=("a", "b", "c")),
                             [("a", "b", "c", "a", "b")], closed=True,
                             max_values=2)

    def test_adaptive_scheduler_refuses(self):
        with pytest.raises(IRUnsupportedError):
            vectorize_scheduler(SplitVoteAdversary())

    def test_fixed_scheduler_refuses(self):
        with pytest.raises(IRUnsupportedError):
            vectorize_scheduler(FixedScheduler([0, 1, 0]))

    def test_round_robin_subclass_refuses(self):
        class Sneaky(RoundRobinScheduler):
            pass

        with pytest.raises(IRUnsupportedError):
            vectorize_scheduler(Sneaky())

    def test_weak_memory_refuses(self):
        cp = compile_protocol(TwoProcessProtocol())
        for memory in ("regular", "safe"):
            with pytest.raises(IRUnsupportedError):
                VectorKernel(cp, ("random",), memory=memory)

    def test_unknown_backend_rejected(self):
        cp = compile_protocol(TwoProcessProtocol())
        with pytest.raises(ValueError):
            VectorKernel(cp, ("random",), backend="fortran")

    @pytest.mark.skipif(_np is not None, reason="numpy installed")
    def test_numpy_backend_without_numpy_refuses(self):  # pragma: no cover
        cp = compile_protocol(TwoProcessProtocol())
        with pytest.raises(IRUnsupportedError):
            VectorKernel(cp, ("random",), backend="numpy")


# ----------------------------------------------------------------------
# RNG vectorization (docs/IR.md §4): MtRuns is CPython's MT19937
# ----------------------------------------------------------------------

@needs_numpy
class TestMtEquivalence:
    def _seeds(self):
        return [3, 2 ** 33 + 17, 0xDEADBEEF, 0xDEADBEF0]

    def test_words_match_cpython_getrandbits(self):
        import random

        from repro.ir.mt import MtRuns

        seeds = self._seeds()
        mt = MtRuns(seeds)
        refs = [random.Random(s) for s in seeds]
        rows = _np.arange(len(seeds))
        for _ in range(700):  # crosses the 624-word block boundary
            words = mt.take_words(rows)
            for row, word in enumerate(words):
                assert int(word) == refs[row].getrandbits(32)

    def test_pairs_match_cpython_random(self):
        import random

        from repro.ir.mt import MtRuns

        seeds = self._seeds()
        mt = MtRuns(seeds)
        refs = [random.Random(s) for s in seeds]
        rows = _np.arange(len(seeds))
        for _ in range(400):
            w0, w1 = mt.take_pairs(rows)
            got = ((w0 >> _np.uint32(5)).astype(_np.float64)
                   * 67108864.0
                   + (w1 >> _np.uint32(6)).astype(_np.float64)) \
                * (1.0 / 9007199254740992.0)
            for row in range(len(seeds)):
                assert got[row] == refs[row].random()

    def test_handoff_continues_stream_exactly(self):
        import random

        from repro.ir.mt import MtRuns

        seeds = self._seeds()
        for consumed in (0, 1, 623, 624, 1000):
            mt = MtRuns(seeds)
            ref = random.Random(seeds[1])
            for _ in range(consumed):
                mt.take_word_one(1)
                ref.getrandbits(32)
            live = mt.handoff(1)
            assert [live.getrandbits(32) for _ in range(10)] \
                == [ref.getrandbits(32) for _ in range(10)]

    def test_seed_derivation_matches_scalar_chain(self):
        from repro.ir.mt import derive_run_streams

        root, n = 2_024, 3
        seeds = derive_run_streams(root, [0, 5, 123], n)
        for r, idx in enumerate((0, 5, 123)):
            run = ReplayableRng(root).child("run", idx)
            procs = run.child("kernel").children("proc", n)
            for pid in range(n):
                assert int(seeds[r, pid]) == procs[pid].seed
            assert int(seeds[r, n]) == run.child("sched").seed


# ----------------------------------------------------------------------
# Hypothesis: random finite automata through lowering + both backends
# ----------------------------------------------------------------------

class TableAutomaton(Automaton):
    """A random table-driven automaton (see test_kernel_fastpath.py).

    The IR twin of the fast-path property test: the same drawn space of
    branch structures, register wirings, and transition tables, but
    checked through ``compile_protocol`` + ``VectorKernel`` instead of
    the TransitionCache — every lowering rule is exercised on automata
    nobody hand-wrote.
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


@settings(max_examples=40, deadline=None)
@given(spec=automaton_specs(), seed=st.integers(0, 2 ** 32),
       inputs_bits=st.lists(st.integers(0, 1), min_size=3, max_size=3))
def test_random_automata_vector_equals_kernel(spec, seed, inputs_bits):
    protocol = TableAutomaton(spec)
    inputs = tuple(inputs_bits[: protocol.n_processes])
    rng = ReplayableRng(seed).child("run", 0)
    sim = Simulation(protocol, inputs,
                     RandomScheduler(rng.child("sched")),
                     rng.child("kernel"))
    ref = sim.run(300)
    cp = compile_protocol(protocol, strict=False)
    for backend in BACKENDS:
        vk = VectorKernel(cp, ("random",), backend=backend)
        batch = vk.run_batch(seed, [0], [inputs], max_steps=300)
        assert_identical(batch.results[0], ref)


@settings(max_examples=15, deadline=None)
@given(spec=automaton_specs(), seed=st.integers(0, 2 ** 32))
def test_random_automata_tables_explore(spec, seed):
    # The fingerprinted search over the lowered tables visits exactly
    # the configurations the objects BFS visits, in the same order: it
    # stops at the first violation, so it must see the objects BFS's
    # visit order up to and including the same witness.
    protocol = TableAutomaton(spec)
    inputs = tuple((seed >> pid) & 1 for pid in range(protocol.n_processes))
    kwargs = {"max_depth": 4, "max_states": 2_000}
    order = []
    graph = explore(protocol, inputs,
                    on_node=lambda config, depth: order.append(config),
                    **kwargs)
    ref = verify_safety(protocol, inputs, **kwargs)
    report = explore_fast(protocol, inputs, keep_fingerprints=True,
                          **kwargs)
    assert report.ok == ref.ok
    assert report.violation == ref.violation
    assert report.witness == ref.witness
    if report.ok:
        assert report.exhausted == graph.complete
    else:
        order = order[:order.index(ref.witness) + 1]
    assert {report.fingerprint_of(c) for c in order} \
        == report.fingerprints
