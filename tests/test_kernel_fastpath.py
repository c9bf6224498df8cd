"""Fast-kernel plumbing: engine selection and the transition cache.

The fast path (``Simulation(..., engine="fast")``, the default) steps
through a shared :class:`~repro.sim.transitions.TransitionCache`.
These are its unit tests: which engine a ``Simulation`` gets, how the
cache memoizes and bounds entries, and that the explorer's cached
successor expansion equals the uncached one.  That the fast engine is
bit-identical to ``reference`` is the differential harness's job
(``tests/test_differential.py``).
"""

from __future__ import annotations

import pytest

from differential import PROTOCOLS, SEEDS, assert_identical
from repro.core.two_process import TwoProcessProtocol
from repro.checker.explorer import explore, successors
from repro.errors import SimulationError
from repro.sched.simple import RandomScheduler, RoundRobinScheduler
from repro.sim.config import Configuration, RegisterLayout
from repro.sim.kernel import Simulation
from repro.sim.process import Branch
from repro.sim.rng import ReplayableRng
from repro.sim.transitions import TransitionCache


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
            runs = []
            for shared in (cache, None):
                rng = ReplayableRng(seed)
                runs.append(Simulation(
                    protocol, ("a", "b"), RandomScheduler(rng.child("sched")),
                    rng.child("kernel"), cache=shared).run(3_000))
            assert_identical(*runs)
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
