"""Hypothesis properties for the memory-semantics layer.

The refactor's no-behavior-change invariant, checked independently of
the fast-vs-reference differential suite: under :class:`AtomicMemory`
the legal-read-value set is *always* a singleton equal to the last
written value — first as a direct property of the model driven by
arbitrary operation sequences, then end-to-end through the kernel on
randomly generated table-driven automata.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from differential import TableAutomaton, automaton_specs

from repro.obs.hooks import BaseSink
from repro.sched.simple import RandomScheduler
from repro.sim.config import RegisterLayout
from repro.sim.kernel import Simulation
from repro.sim.memory import AtomicMemory, RegularMemory
from repro.sim.ops import BOTTOM
from repro.sim.process import RegisterSpec
from repro.sim.rng import ReplayableRng

N_PIDS = 3


@st.composite
def memory_scripts(draw):
    """A register layout plus an arbitrary activate/write/read script."""
    n_regs = draw(st.integers(1, 4))
    values = st.sampled_from(["a", "b", 0, 1, BOTTOM])
    events = draw(st.lists(
        st.one_of(
            st.tuples(st.just("activate"), st.integers(0, N_PIDS - 1)),
            st.tuples(st.just("write"), st.integers(0, N_PIDS - 1),
                      st.integers(0, n_regs - 1), values),
            st.tuples(st.just("read"), st.integers(0, n_regs - 1)),
        ),
        max_size=60,
    ))
    return n_regs, events


def _build_layout(n_regs):
    everyone = tuple(range(N_PIDS))
    return RegisterLayout([
        RegisterSpec(name=f"r{i}", writers=everyone, readers=everyone,
                     initial=BOTTOM)
        for i in range(n_regs)
    ])


@settings(max_examples=100, deadline=None)
@given(script=memory_scripts())
def test_atomic_choices_are_singleton_last_write(script):
    n_regs, events = script
    mem = AtomicMemory(_build_layout(n_regs))
    shadow = [BOTTOM] * n_regs
    for event in events:
        if event[0] == "activate":
            mem.on_activate(event[1])
        elif event[0] == "write":
            _, pid, slot, value = event
            mem.write(pid, slot, value)
            shadow[slot] = value
        else:
            slot = event[1]
            assert mem.read_choices(slot) == (shadow[slot],)
    assert mem.values == shadow


@settings(max_examples=100, deadline=None)
@given(script=memory_scripts())
def test_regular_choices_contain_committed_first(script):
    """Sanity counterpart: weak sets lead with the committed value and
    only ever extend it with currently-pending writes on that slot."""
    n_regs, events = script
    mem = RegularMemory(_build_layout(n_regs))
    pending = {}  # writer pid -> (slot, value), mirror bookkeeping
    committed = [BOTTOM] * n_regs
    for event in events:
        if event[0] == "activate":
            pid = event[1]
            if pid in pending:
                slot, value = pending.pop(pid)
                committed[slot] = value
            mem.on_activate(pid)
        elif event[0] == "write":
            _, pid, slot, value = event
            # The kernel always activates before writing; mirror that
            # so the model's one-pending-per-writer invariant holds.
            if pid in pending:
                s, v = pending.pop(pid)
                committed[s] = v
            mem.on_activate(pid)
            mem.write(pid, slot, value)
            pending[pid] = (slot, value)
        else:
            slot = event[1]
            choices = mem.read_choices(slot)
            assert choices[0] == committed[slot]
            legal = {committed[slot]} | {
                v for (s, v) in pending.values() if s == slot
            }
            assert set(choices) == legal


class _ShadowSink(BaseSink):
    """Tracks last-written values and checks every read against them."""

    def __init__(self):
        self.shadow = {}
        self.mismatches = []

    def on_write(self, pid, register, value):
        self.shadow[register] = value

    def on_read(self, pid, register, value):
        expected = self.shadow.get(register, BOTTOM)
        if value != expected:
            self.mismatches.append((register, value, expected))


@settings(max_examples=60, deadline=None)
@given(spec=automaton_specs(), seed=st.integers(0, 2 ** 32))
def test_random_automata_atomic_reads_return_last_write(spec, seed):
    protocol = TableAutomaton(spec)
    inputs = tuple(i % 2 for i in range(protocol.n_processes))
    sink = _ShadowSink()
    rng = ReplayableRng(seed)
    sim = Simulation(protocol, inputs,
                     RandomScheduler(rng.child("sched")),
                     rng.child("kernel"), sinks=(sink,), memory="atomic")
    result = sim.run(300)
    assert sink.mismatches == []
    assert result.read_resolutions == 0
    assert result.memory == "atomic"
