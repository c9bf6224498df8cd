"""Shared helpers of the engine differential harness.

Every registered engine owes its kind's oracle bit-identical results:
each sim engine must reproduce ``reference`` (the seed kernel
verbatim) and each checker engine must visit exactly what ``objects``
(the materialized-graph BFS) visits.  ``tests/test_differential.py``
holds them to that over the zoo below; the engine lists come from the
registry (:mod:`repro.engines`), so registering or deleting an engine
changes no test.

The zoo is every core protocol, every scheduler family (benign,
oblivious, crashing, adaptive, read-value choosing) and every register
semantics.  Every sim engine runs a cell through the
:class:`~repro.sim.runner.ExperimentRunner` seed chain, run ``i`` of
root seed ``s`` drawing from ``ReplayableRng(s).child("run", i)``.
"""

from __future__ import annotations

import dataclasses
import functools

from hypothesis import strategies as st

from repro.core.n_process import NProcessProtocol
from repro.core.naive import NaiveProtocol
from repro.core.three_bounded import ThreeBoundedProtocol
from repro.core.three_unbounded import ThreeUnboundedProtocol
from repro.core.two_process import TwoProcessProtocol
from repro.engines import engine_names, resolve_engine
from repro.sched.adversary import (DisagreementAdversary,
                                   NaiveKillerAdversary, ReadValueAdversary,
                                   SplitVoteAdversary)
from repro.sched.crash import CrashingScheduler, CrashPlan
from repro.sched.lookahead import LookaheadAdversary
from repro.sched.optimal import OptimalAdversary, solve_game
from repro.sched.simple import (BlockScheduler, FixedScheduler,
                                ObliviousScheduler, RandomScheduler,
                                RoundRobinScheduler)
from repro.sim.kernel import Activate, Simulation
from repro.sim.ops import BOTTOM, ReadOp, WriteOp
from repro.sim.process import Automaton, Branch, RegisterSpec
from repro.sim.rng import ReplayableRng
from repro.sim.runner import ExperimentRunner

#: The oracles, and every other registered engine of their kind.
ORACLE_SIM = "reference"
ORACLE_CHECKER = "objects"
SIM_ENGINES = tuple(e for e in engine_names("sim") if e != ORACLE_SIM)
CHECKER_ENGINES = tuple(e for e in engine_names("checker")
                        if e != ORACLE_CHECKER)
STANDALONE_ENGINES = tuple(e for e in engine_names("sim")
                           if resolve_engine("sim", e).standalone)

SEEDS = (1, 7, 42)
MAX_STEPS = 3_000
MEMORIES = ("atomic", "regular", "safe")


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


#: name -> (protocol factory, inputs)
PROTOCOLS = {
    "two_process": (lambda: TwoProcessProtocol(values=("a", "b")),
                    ("a", "b")),
    "three_unbounded": (lambda: ThreeUnboundedProtocol(), ("a", "b", "a")),
    "three_bounded": (lambda: ThreeBoundedProtocol(), ("a", "b", "b")),
    "n_process_4": (lambda: NProcessProtocol(4), ("a", "b", "b", "a")),
    "naive_3": (lambda: NaiveProtocol(3), ("a", "a", "b")),
    "naive_5_3v": (lambda: NaiveProtocol(5, values=("a", "b", "c")),
                   ("a", "b", "c", "a", "b")),
}

@functools.lru_cache(maxsize=None)
def _two_process_game():
    """The solved two-processor game on the zoo's inputs."""
    protocol_factory, inputs = PROTOCOLS["two_process"]
    return solve_game(protocol_factory(), inputs)


#: name -> factory of a fresh scheduler from the run's "sched" stream.
SCHEDULERS = {
    "random": lambda rng: RandomScheduler(rng),
    "round_robin": lambda rng: RoundRobinScheduler(),
    "round_robin_1": lambda rng: RoundRobinScheduler(start=1),
    "fixed": lambda rng: FixedScheduler([0, 0, 1, 0, 1, 1, 0]),
    "oblivious": lambda rng: ObliviousScheduler(rng),
    "block": lambda rng: BlockScheduler(3),
    "crashing": lambda rng: CrashingScheduler(
        RandomScheduler(rng), CrashPlan(at_step={3: (1,)})),
    "disagreement": lambda rng: DisagreementAdversary(),
    "split_vote": lambda rng: SplitVoteAdversary(),
    "lookahead": lambda rng: LookaheadAdversary(2),
    "optimal": lambda rng: OptimalAdversary(_two_process_game()),
    "naive_killer": lambda rng: NaiveKillerAdversary(),
    "read_adversary": lambda rng: ReadValueAdversary(
        ForcedReadScheduler(rng), policy="adversarial"),
    "rv_commit": lambda rng: ReadValueAdversary(RandomScheduler(rng),
                                                policy="commit"),
    "rv_adversarial": lambda rng: ReadValueAdversary(RandomScheduler(rng),
                                                     policy="adversarial"),
    "rv_random": lambda rng: ReadValueAdversary(
        RandomScheduler(rng), policy="random", rng=rng.child("rv")),
}

#: The paper's consensus protocols (§4–§6); the naive ones are the
#: strawmen it measures them against.
CONSENSUS = ("two_process", "three_unbounded", "three_bounded",
             "n_process_4")

#: Read-value policies: they choose among contended read values, which
#: atomic registers never have, so under atomic semantics each would
#: repeat the ``random`` cell run for run.
RV_POLICIES = ("rv_commit", "rv_adversarial", "rv_random")

#: Adaptive adversaries: they keep a strawman from ever deciding, so
#: they run the consensus protocols only.
ADVERSARIES = ("disagreement", "split_vote")

#: The other pure adversaries (``pure_choice``) and the consensus
#: protocols each runs: the optimal policy is the solved two-processor
#: game's, and the killer needs a victim besides its frozen pair.
PURE_ADVERSARIES = {
    "lookahead": CONSENSUS,
    "optimal": ("two_process",),
    "naive_killer": ("three_unbounded", "three_bounded", "n_process_4"),
}

#: (protocol, scheduler, memory): every protocol under every scheduler
#: but the read-value policies (and every consensus protocol under the
#: adversaries) with atomic registers, and every consensus protocol
#: under the read-value choosers (and the default committed-value
#: resolution of ``random``) with weak ones.
CELLS = [(p, s, "atomic") for p in PROTOCOLS for s in SCHEDULERS
         if s not in RV_POLICIES
         and (p in CONSENSUS or s not in ADVERSARIES)
         and p in PURE_ADVERSARIES.get(s, (p,))] + [
    (p, s, m) for p in CONSENSUS
    for s in ("random", "read_adversary") + RV_POLICIES
    for m in MEMORIES[1:]]

#: The cells whose scheduler the vector engine can step: state-blind
#: and crash-free.
STATE_BLIND = ("random", "round_robin", "round_robin_1")


def refuses(engine, scheduler, memory):
    """Must ``engine`` raise IRUnsupportedError on this cell?

    Only ``vector`` refuses: adaptive, crashing or fixed schedulers
    and weak registers are outside its tables (docs/IR.md §6).
    """
    return engine == "vector" and (scheduler not in STATE_BLIND
                                   or memory != "atomic")


def make_runner(engine, protocol_factory, inputs, scheduler_factory, seed,
                memory=None, sinks=()):
    return ExperimentRunner(
        protocol_factory=protocol_factory,
        scheduler_factory=scheduler_factory,
        inputs_factory=lambda i, rng: inputs,
        seed=seed, memory=memory, sinks=sinks, engine=engine)


def run_cell(engine, protocol_factory, inputs, scheduler_factory, seed, *,
             memory=None, sinks=(), record_trace=False, run_index=0,
             max_steps=MAX_STEPS):
    """Run ``run_index`` of root ``seed`` on ``engine``.

    Returns ``(result, draws)``: ``draws`` holds the per-processor RNG
    draw counts of a standalone engine, whose ``Simulation`` is built
    here exactly as ``ExperimentRunner.run_one`` builds it, and is
    ``None`` for a batch engine, which runs through the runner itself.
    """
    if engine not in STANDALONE_ENGINES:
        runner = make_runner(engine, protocol_factory, inputs,
                             scheduler_factory, seed, memory, sinks)
        return runner.run_one(run_index, max_steps,
                              record_trace=record_trace), None
    for sink in sinks:
        run_key = getattr(sink, "on_run_key", None)
        if run_key is not None:
            run_key(seed, run_index)
    rng = ReplayableRng(seed).child("run", run_index)
    sim = Simulation(protocol_factory(), inputs,
                     scheduler_factory(rng.child("sched")),
                     rng.child("kernel"), record_trace=record_trace,
                     engine=engine, sinks=sinks, memory=memory)
    result = sim.run(max_steps)
    return result, tuple(r.draws for r in sim._proc_rngs)


def run_zoo(engine, cell, seed, **kw):
    """:func:`run_cell` on a zoo cell ``(protocol, scheduler, memory)``."""
    protocol_name, scheduler_name, memory = cell
    protocol_factory, inputs = PROTOCOLS[protocol_name]
    return run_cell(engine, protocol_factory, inputs,
                    SCHEDULERS[scheduler_name], seed, memory=memory, **kw)


def assert_identical(got, want):
    """Every field of two RunResults matches; traces step for step."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "trace" and a is not None and b is not None:
            a, b = (a.steps, a.crashes), (b.steps, b.crashes)
        assert a == b, field.name


# ----------------------------------------------------------------------
# Automata built for the harness
# ----------------------------------------------------------------------

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


class TableAutomaton(Automaton):
    """An automaton whose entire behavior is a drawn lookup table.

    States are small ints; every register is readable and writable by
    every processor; ``observe`` maps ``(pid, state, op, result)``
    through index arithmetic into a drawn transition list.  Everything
    is pure and transition-stable, but the branch structure, weights,
    register wiring, and state graph are arbitrary — exactly the space
    the TransitionCache contract and the table IR's lowering rules
    quantify over.
    """

    name = "table"
    _WRITE_VALUES = (0, 1, 2)
    _RESULT_INDEX = {BOTTOM: 0, 0: 1, 1: 2, 2: 3, None: 4}

    def __init__(self, spec):
        self.n_processes = spec["n"]
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
        "n": n, "n_regs": n_regs,
        "decide_states": frozenset(decide_states),
        "branch_table": branch_table, "init": init, "trans": trans,
    }
