"""Symmetry and partial-order reduction: verdicts, sets, and honesty.

Two families of guarantees (docs/CHECKER.md §3-§4):

* **Symmetry** is *verified, never assumed*: a processor permutation
  joins the canonicalization group only with a machine-checked
  automorphism certificate against the closed tables.  two_process
  admits the swap (order 2); the n ≥ 3 paper protocols — which read
  their peers in sorted-pid order — refute every candidate, and the
  report says so rather than silently exploring an unsound quotient.
* **POR (sleep sets)** prunes edges only, so the visited-state set is
  *identical* with the reduction on or off — asserted literally below,
  not just verdict equality.  The combinations where the argument
  breaks (weak memory, depth budgets, symmetry quotients) are
  auto-disabled with a note.
"""

from __future__ import annotations

import pytest

from repro.checker import explore, explore_fast, verify_safety
from repro.core.naive import NaiveProtocol
from repro.core.three_bounded import ThreeBoundedProtocol
from repro.core.three_unbounded import ThreeUnboundedProtocol
from repro.core.two_process import TwoProcessProtocol


class TestSymmetry:
    def test_two_process_swap_is_verified_order_two(self):
        base = explore_fast(TwoProcessProtocol(), ("a", "b"),
                            keep_fingerprints=True)
        sym = explore_fast(TwoProcessProtocol(), ("a", "b"),
                           symmetry=True, keep_fingerprints=True)
        assert sym.symmetry_order == 2
        assert sym.exhausted and sym.ok
        # The quotient is a strict compression of the full space...
        assert sym.visited < base.visited
        # ...and canonicalizing the objects BFS's configurations lands
        # exactly on the quotient's fingerprint set.  The orbit must be
        # closed over the input assignment, so the union of both input
        # orders maps onto the one symmetric exploration.
        mapped = set()
        for inputs in (("a", "b"), ("b", "a")):
            graph = explore(TwoProcessProtocol(), inputs)
            mapped |= {sym.fingerprint_of(c) for c in graph.depth_of}
        assert mapped == sym.fingerprints

    def test_symmetric_inputs_verdict_equality(self):
        base = verify_safety(TwoProcessProtocol(), ("a", "a"),
                             engine="fingerprints")
        sym = verify_safety(TwoProcessProtocol(), ("a", "a"),
                            engine="fingerprints", symmetry=True)
        assert base.ok == sym.ok
        assert base.complete and sym.complete
        assert sym.states_explored < base.states_explored

    def test_sorted_pid_reads_refute_all_candidates(self):
        # The naive three-processor protocol reads its peers in
        # sorted-pid order: no nontrivial automorphism exists, and the
        # checker discovers that (refuting all 5 candidates) rather
        # than trusting a symmetry annotation.  Its two-processor
        # sibling is genuinely symmetric, so the refutation is about
        # the step relation, not an artifact of the machinery.
        report = explore_fast(NaiveProtocol(3), ("a", "b", "a"),
                              symmetry=True)
        assert report.symmetry_order == 1
        assert report.symmetry_note is not None
        assert "refuted" in report.symmetry_note
        assert explore_fast(NaiveProtocol(2), ("a", "b"),
                            symmetry=True).symmetry_order == 2

    def test_interning_budget_overflow_disables_symmetry_with_note(self):
        # three_bounded is finite but its closed automaton exceeds the
        # compiler's interning budget; symmetry verification needs the
        # closed tables, so it is reported off, never silently wrong.
        report = explore_fast(ThreeBoundedProtocol(), ("a", "b", "a"),
                              max_depth=5, symmetry=True)
        assert report.symmetry_order == 1
        assert "closed compilation refused" in report.symmetry_note

    def test_unbounded_protocol_disables_symmetry_with_note(self):
        # Verification needs the closed tables; an unbounded state
        # space refuses closed compilation, so symmetry is reported
        # off, never silently wrong.
        report = explore_fast(ThreeUnboundedProtocol(), ("a", "b", "a"),
                              max_depth=4, symmetry=True)
        assert report.symmetry_order == 1
        assert "closed compilation refused" in report.symmetry_note

    def test_symmetry_candidates_hook_narrows_search(self):
        class NoHint(TwoProcessProtocol):
            def symmetry_candidates(self):
                return None  # default enumeration

        class Disabled(TwoProcessProtocol):
            def symmetry_candidates(self):
                return []  # protocol vouches for asymmetry: skip search

        class Narrowed(TwoProcessProtocol):
            def symmetry_candidates(self):
                return [(1, 0)]  # still verified, not trusted

        assert explore_fast(NoHint(), ("a", "b"),
                            symmetry=True).symmetry_order == 2
        assert explore_fast(Disabled(), ("a", "b"),
                            symmetry=True).symmetry_order == 1
        assert explore_fast(Narrowed(), ("a", "b"),
                            symmetry=True).symmetry_order == 2


class TestPartialOrder:
    @pytest.mark.parametrize("factory,inputs", [
        (TwoProcessProtocol, ("a", "b")),
        (lambda: NaiveProtocol(3), ("a", "b", "a")),
    ], ids=["two", "naive3"])
    def test_visited_set_identical_with_reduction(self, factory, inputs):
        base = explore_fast(factory(), inputs, keep_fingerprints=True)
        red = explore_fast(factory(), inputs, por=True,
                           keep_fingerprints=True)
        assert red.por and red.por_note is None
        # Edges are pruned, configurations are not: the sleep-set
        # variant guarantees set identity, not merely verdict identity.
        assert red.fingerprints == base.fingerprints
        assert red.visited == base.visited
        assert red.pruned > 0
        # (No edge arithmetic across runs: a sleep-mask shrink
        # re-enqueues an item, so expanded+pruned can exceed the
        # unreduced edge count.)
        assert red.exhausted and red.ok == base.ok

    def test_por_disabled_under_weak_memory(self):
        report = explore_fast(TwoProcessProtocol(), ("a", "b"),
                              memory="regular", por=True)
        assert not report.por
        assert "weak memory" in report.por_note
        assert report.pruned == 0

    def test_por_disabled_under_depth_budget(self):
        report = explore_fast(TwoProcessProtocol(), ("a", "b"),
                              max_depth=6, por=True)
        assert not report.por
        assert "depth budget" in report.por_note
        assert report.pruned == 0

    def test_por_disabled_when_combined_with_symmetry(self):
        report = explore_fast(TwoProcessProtocol(), ("a", "b"),
                              symmetry=True, por=True)
        assert not report.por
        assert "symmetry" in report.por_note
        assert report.symmetry_order == 2  # symmetry itself survives


class TestVerifySafetyPlumbing:
    def test_reduction_kwargs_require_fingerprints_engine(self):
        for kwargs in ({"symmetry": True}, {"por": True},
                       {"exact": True}):
            with pytest.raises(ValueError, match="fingerprints"):
                verify_safety(TwoProcessProtocol(), ("a", "b"),
                              engine="objects", **kwargs)
            with pytest.raises(ValueError, match="fingerprints"):
                verify_safety(TwoProcessProtocol(), ("a", "b"), **kwargs)

    def test_fingerprints_engine_with_reductions_verdict(self):
        plain = verify_safety(TwoProcessProtocol(), ("a", "b"))
        fast = verify_safety(TwoProcessProtocol(), ("a", "b"),
                             engine="fingerprints", por=True)
        assert fast.ok == plain.ok
        assert fast.complete == plain.complete
        assert fast.states_explored == plain.states_explored
