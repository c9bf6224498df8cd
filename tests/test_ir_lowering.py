"""Table-IR unit tests: lowering rules, refusals, backends and the RNG.

``engine="vector"`` (``repro.ir``) compiles a finite protocol to dense
integer tables and steps whole batches in lockstep.  That it is
bit-identical to ``reference`` on every supported cell, and refuses
(``IRUnsupportedError``) the rest, is the differential harness's job
(``tests/test_differential.py``).  This suite tests the layers under
it: named tests for each lowering rule (docs/IR.md §3), the refusal
cases (§6), the numpy and python backends against each other, batching
and budgets, and the RNG vectorization (§4).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less host
    _np = None

from differential import (CELLS, PROTOCOLS, SCHEDULERS, SEEDS,
                          TableAutomaton, assert_identical, automaton_specs,
                          refuses, run_cell)
from repro.checker.explorer import explore
from repro.core.naive import NaiveProtocol
from repro.core.three_unbounded import ThreeUnboundedProtocol
from repro.core.two_process import TwoProcessProtocol
from repro.ir import (
    IRCompileError,
    IRUnsupportedError,
    VectorKernel,
    compile_protocol,
    vectorize_scheduler,
)
from repro.sched.adversary import SplitVoteAdversary
from repro.sched.simple import (
    FixedScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.sim.config import Configuration, RegisterLayout
from repro.sim.kernel import Simulation
from repro.sim.ops import BOTTOM, ReadOp
from repro.sim.rng import ReplayableRng

needs_numpy = pytest.mark.skipif(_np is None, reason="numpy not installed")

BACKENDS = ("python",) if _np is None else ("numpy", "python")

#: The zoo cells the vector engine runs (the rest it refuses).
VECTOR_CELLS = [cell for cell in CELLS if not refuses("vector", *cell[1:])]


def run_vector(protocol_factory, inputs, scheduler_factory, seed, *,
               backend=None, max_steps=3_000, record_trace=False):
    """Run 0 of root ``seed`` through a one-run vector batch."""
    probe = scheduler_factory(ReplayableRng(seed).child("sched-probe"))
    vk = VectorKernel(compile_protocol(protocol_factory()),
                      vectorize_scheduler(probe), backend=backend)
    return vk.run_batch(seed, [0], [tuple(inputs)], max_steps=max_steps,
                        record_trace=record_trace).results[0]


# ----------------------------------------------------------------------
# Backends and batching: invisible in the results
# ----------------------------------------------------------------------

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
@pytest.mark.parametrize("cell", VECTOR_CELLS, ids="-".join)
def test_numpy_equals_python_backend(cell):
    protocol_name, scheduler_name, _ = cell
    protocol_factory, inputs = PROTOCOLS[protocol_name]
    for seed in SEEDS:
        a, b = (run_vector(protocol_factory, inputs,
                           SCHEDULERS[scheduler_name], seed,
                           backend=backend, record_trace=True)
                for backend in ("numpy", "python"))
        assert_identical(a, b)


@needs_numpy
@settings(max_examples=40, deadline=None)
@given(spec=automaton_specs(), seed=st.integers(0, 2 ** 32),
       inputs_bits=st.lists(st.integers(0, 1), min_size=3, max_size=3))
def test_random_automata_backends_agree(spec, seed, inputs_bits):
    protocol = TableAutomaton(spec)
    inputs = tuple(inputs_bits[: protocol.n_processes])
    cp = compile_protocol(protocol, strict=False)
    a, b = (VectorKernel(cp, ("random",), backend=backend).run_batch(
        seed, [0], [inputs], max_steps=300).results[0]
        for backend in ("numpy", "python"))
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
        ref, _ = run_cell("reference", protocol_factory, inputs,
                          SCHEDULERS["random"], 7, run_index=i,
                          max_steps=5_000)
        assert_identical(batch.results[i], ref)


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
