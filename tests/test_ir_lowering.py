"""Table-IR unit tests: lowering rules, refusals and run budgets.

``engine="vector"`` (``repro.ir``) compiles a finite protocol to dense
integer tables and steps runs over them.  That it is bit-identical to
``reference`` on every supported cell, and refuses
(``IRUnsupportedError``) the rest, is the differential harness's job
(``tests/test_differential.py``).  This suite tests the layers under
it: named tests for each lowering rule (docs/IR.md §3), the refusal
cases (§6), tables shared across runs, and budgets.
"""

from __future__ import annotations

import pytest

from differential import (CELLS, PROTOCOLS, SCHEDULERS, SEEDS,
                          assert_identical, refuses)
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

#: The zoo cells the vector engine runs (the rest it refuses).
VECTOR_CELLS = [cell for cell in CELLS if not refuses("vector", *cell[1:])]


def run_vector(protocol_factory, inputs, scheduler_factory, seed, *,
               run_index=0, max_steps=3_000, record_trace=False):
    """Run ``run_index`` of root ``seed`` on a fresh vector kernel."""
    probe = scheduler_factory(ReplayableRng(seed).child("sched-probe"))
    vk = VectorKernel(compile_protocol(protocol_factory()),
                      vectorize_scheduler(probe))
    rng = ReplayableRng(seed).child("run", run_index)
    return vk.run(inputs, rng.child("sched"), rng.child("kernel"),
                  max_steps, record_trace=record_trace)[0]


# ----------------------------------------------------------------------
# Shared tables and budgets: invisible in the results
# ----------------------------------------------------------------------

@pytest.mark.parametrize("cell", VECTOR_CELLS, ids="-".join)
def test_shared_kernel_equals_fresh_kernels(cell):
    """Runs on one kernel == the same runs on fresh kernels, traces
    included: tables that earlier runs grew lazily do not change later
    runs."""
    protocol_name, scheduler_name, _ = cell
    protocol_factory, inputs = PROTOCOLS[protocol_name]
    scheduler_factory = SCHEDULERS[scheduler_name]
    for seed in SEEDS:
        probe = scheduler_factory(ReplayableRng(seed).child("sched-probe"))
        vk = VectorKernel(compile_protocol(protocol_factory()),
                          vectorize_scheduler(probe))
        for i in range(5):
            rng = ReplayableRng(seed).child("run", i)
            shared, _ = vk.run(inputs, rng.child("sched"),
                               rng.child("kernel"), 3_000,
                               record_trace=True)
            assert_identical(shared, run_vector(
                protocol_factory, inputs, scheduler_factory, seed,
                run_index=i, record_trace=True))


def test_max_consults_budget_matches_kernel():
    """The collapsed single budget must cut off exactly where dual does."""
    protocol_factory, inputs = PROTOCOLS["naive_3"]
    vk = VectorKernel(compile_protocol(protocol_factory()), ("random",))
    for max_steps, max_consults in ((25, None), (3_000, 25), (25, 10)):
        rng = ReplayableRng(3).child("run", 0)
        result, _ = vk.run(inputs, rng.child("sched"), rng.child("kernel"),
                           max_steps, max_consults=max_consults)
        sim = Simulation(protocol_factory(), inputs,
                         RandomScheduler(rng.child("sched")),
                         rng.child("kernel"))
        assert_identical(result,
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
        """§3: the tables grow append-only, and lowering stays lazy."""
        cp = compile_protocol(NaiveProtocol(3))
        before = cp.describe()
        run_a = cp.initial_sids(("a", "a", "b"))
        cp.ensure_compiled(run_a[0])
        mid = cp.describe()
        cp.initial_sids(("b", "b", "b"))
        after = cp.describe()
        assert before["states"] <= mid["states"] <= after["states"]
        # Lowering is lazy: only the state stepped from has branch
        # rows, so lowered states trail the intern table.
        lowered = sum(1 for nb in cp.state_nb if nb > 0)
        assert lowered == 1 < after["states"]

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

    def test_backend_option_is_gone(self):
        """One interpreter: there is no backend to choose."""
        cp = compile_protocol(TwoProcessProtocol())
        with pytest.raises(TypeError):
            VectorKernel(cp, ("random",), backend="python")
