"""Budget-truncation semantics across both verification engines.

A truncated exploration must never masquerade as a full verification:
``SafetyReport.complete`` (and ``ExploreReport.exhausted``) may only be
true when the entire reachable space was enumerated.  These tests pin
the exact boundary — a budget of ``|reachable|`` states is enough, a
budget of ``|reachable| - 1`` is not — for the objects and
fingerprints engines alike, plus the depth-cutoff boundary and the
fingerprints engine's ``truncated_by`` attribution.
"""

from __future__ import annotations

import pytest

from repro.checker import explore_fast, verify_safety
from repro.core.deterministic import TwoProcessDeterministic
from repro.core.naive import NaiveProtocol
from repro.core.two_process import TwoProcessProtocol

ENGINES = ("objects", "fingerprints")


class TestMaxStatesBoundary:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_exact_budget_is_exhaustive_one_less_is_not(self, engine):
        full = verify_safety(TwoProcessProtocol(), ("a", "b"),
                             engine=engine)
        assert full.ok and full.complete
        n = full.states_explored

        at_budget = verify_safety(TwoProcessProtocol(), ("a", "b"),
                                  max_states=n, engine=engine)
        assert at_budget.complete
        assert at_budget.states_explored == n

        truncated = verify_safety(TwoProcessProtocol(), ("a", "b"),
                                  max_states=n - 1, engine=engine)
        assert not truncated.complete
        assert truncated.states_explored < n
        # A truncated run never claims the full space.
        assert "full reachable" not in truncated.guarantee()
        assert "up to depth" in truncated.guarantee()

    def test_fingerprints_truncation_attribution(self):
        full = explore_fast(NaiveProtocol(3), ("a", "b", "a"))
        assert full.exhausted and full.truncated_by is None

        at_budget = explore_fast(NaiveProtocol(3), ("a", "b", "a"),
                                 max_states=full.visited)
        assert at_budget.exhausted
        assert at_budget.truncated_by is None
        assert at_budget.frontier == 0

        truncated = explore_fast(NaiveProtocol(3), ("a", "b", "a"),
                                 max_states=full.visited - 1)
        assert not truncated.exhausted
        assert truncated.truncated_by == "states"
        # The unexpanded work is reported, not silently dropped.
        assert truncated.frontier > 0


class TestMaxDepthBoundary:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_depth_cutoff_never_reports_complete(self, engine):
        report = verify_safety(TwoProcessProtocol(), ("a", "b"),
                               max_depth=3, engine=engine)
        assert report.ok
        assert not report.complete
        assert report.max_depth_reached <= 3

    def test_fingerprints_depth_boundary(self):
        full = explore_fast(TwoProcessProtocol(), ("a", "b"))
        d = full.depth

        # A horizon one past the true depth lets the search terminate
        # naturally (empty next level) and prove exhaustion.
        past_depth = explore_fast(TwoProcessProtocol(), ("a", "b"),
                                  max_depth=d + 1)
        assert past_depth.exhausted
        assert past_depth.truncated_by is None
        assert past_depth.visited == full.visited

        # A horizon exactly at the true depth sees every configuration
        # but must stay conservative: the randomized protocol's
        # frontier still has enabled (cycle) edges the search did not
        # expand, so no exhaustion claim is made.
        at_depth = explore_fast(TwoProcessProtocol(), ("a", "b"),
                                max_depth=d)
        assert at_depth.visited == full.visited
        assert not at_depth.exhausted
        assert at_depth.truncated_by == "depth"

        # One level short, strictly fewer configurations.
        short = explore_fast(TwoProcessProtocol(), ("a", "b"),
                             max_depth=d - 1)
        assert not short.exhausted
        assert short.truncated_by == "depth"
        assert short.frontier > 0
        assert short.visited < full.visited

    def test_depth_cutoff_with_terminal_frontier_proves_exhaustion(self):
        # When every frontier configuration at the horizon is fully
        # decided (no enabled steps), the depth budget did not actually
        # truncate anything and the report says so.
        def eager(pid, pref, read):
            return ("decide", pref)

        def proto():
            return TwoProcessDeterministic(eager, "eager")

        full = explore_fast(proto(), ("a", "a"))
        assert full.ok
        at_depth = explore_fast(proto(), ("a", "a"),
                                max_depth=full.depth)
        assert at_depth.exhausted
        assert at_depth.truncated_by is None
        assert at_depth.visited == full.visited


class TestTruncatedNeverFullyVerified:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_tiny_budgets_yield_partial_verdicts(self, engine):
        for kwargs in ({"max_states": 5}, {"max_depth": 1}):
            report = verify_safety(NaiveProtocol(3), ("a", "b", "a"),
                                   engine=engine, **kwargs)
            assert report.ok  # nothing bad inside the horizon...
            assert not report.complete  # ...but no totality claim
            assert "up to depth" in report.guarantee()

    def test_explore_fast_budget_interplay(self):
        # Both budgets at once: whichever trips first is reported.
        report = explore_fast(NaiveProtocol(3), ("a", "b", "a"),
                              max_depth=2, max_states=10 ** 6)
        assert report.truncated_by == "depth"
        report = explore_fast(NaiveProtocol(3), ("a", "b", "a"),
                              max_depth=10 ** 6, max_states=5)
        assert report.truncated_by == "states"
        assert not report.exhausted
