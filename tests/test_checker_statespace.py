"""Differential tests for the fingerprinted state-space engine.

The load-bearing guarantee of :mod:`repro.checker.statespace` is that
it explores *exactly* the reachable-configuration set of the reference
object-graph explorer — same quantification over schedulers, coins and
(under weak memory) adversary read values — only faster.  These tests
assert that literally: the objects BFS's configurations, mapped through
``ExploreReport.fingerprint_of``, must equal the fingerprint set the
fast search visited, cell by cell across protocols, memory models and
budgets, in fingerprint and exact modes.
"""

from __future__ import annotations

import json

import pytest

from repro.checker import explore, explore_fast, verify_safety
from repro.core.deterministic import TwoProcessDeterministic
from repro.core.naive import NaiveProtocol
from repro.core.three_bounded import ThreeBoundedProtocol
from repro.core.two_process import TwoProcessProtocol
from repro.obs.telemetry import read_telemetry, render_top
from repro.obs.tracing import Tracer

# (label, factory, inputs, memory, budget) — cells spanning the
# protocol zoo, all three register semantics and both budgets.  An
# empty budget means the cell is exhausted; the depth-9 weak-memory
# cells stop at a horizon where pending writes already fan reads out.
CELLS = [
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
]


def _object_fps(report, graph):
    """Map every object-level configuration through the search's own
    canonicalization + fingerprint function."""
    return {report.fingerprint_of(config) for config in graph.depth_of}


class TestDifferential:
    @pytest.mark.parametrize(
        "label,factory,inputs,memory,budget",
        CELLS, ids=[c[0] for c in CELLS])
    def test_visited_set_equals_objects_bfs(self, label, factory,
                                            inputs, memory, budget):
        graph = explore(factory(), inputs, memory=memory, **budget)
        assert graph.complete == (not budget)
        report = explore_fast(factory(), inputs, memory=memory,
                              keep_fingerprints=True, **budget)
        assert report.ok
        assert report.exhausted == graph.complete
        assert report.truncated_by == (
            None if graph.complete
            else "depth" if "max_depth" in budget else "states")
        assert report.visited == len(graph.depth_of)
        assert _object_fps(report, graph) == report.fingerprints
        if memory is not None:
            # Weak memory genuinely fans out: some node carries a
            # pending write.
            assert any(c.mem for c in graph.depth_of)

    @pytest.mark.parametrize(
        "label,factory,inputs,memory,budget",
        CELLS, ids=[c[0] for c in CELLS])
    def test_exact_mode_matches_fingerprint_mode(self, label, factory,
                                                 inputs, memory, budget):
        fp = explore_fast(factory(), inputs, memory=memory, **budget)
        ex = explore_fast(factory(), inputs, memory=memory, exact=True,
                          keep_fingerprints=True, **budget)
        assert ex.exact and not fp.exact
        assert ex.visited == fp.visited
        assert ex.edges == fp.edges
        assert ex.depth == fp.depth
        assert ex.exhausted == fp.exhausted == (not budget)
        # Exact keys decode back through fingerprint_of too: the
        # objects graph maps onto them just as onto fingerprints.
        graph = explore(factory(), inputs, memory=memory, **budget)
        assert _object_fps(ex, graph) == ex.fingerprints

    def test_depth_limited_differential(self):
        # three_bounded's full space is ~17M configurations; the
        # depth-limited slice must still match the objects BFS exactly.
        graph = explore(ThreeBoundedProtocol(), ("a", "b", "a"),
                        max_depth=7)
        report = explore_fast(ThreeBoundedProtocol(), ("a", "b", "a"),
                              max_depth=7, keep_fingerprints=True)
        assert not report.exhausted
        assert report.truncated_by == "depth"
        assert report.visited == len(graph.depth_of)
        assert _object_fps(report, graph) == report.fingerprints

    def test_fingerprint_seed_changes_keys_not_counts(self):
        a = explore_fast(TwoProcessProtocol(), ("a", "b"),
                         keep_fingerprints=True)
        b = explore_fast(TwoProcessProtocol(), ("a", "b"),
                         fingerprint_seed=1, keep_fingerprints=True)
        assert a.visited == b.visited
        assert a.fingerprints != b.fingerprints


class TestViolationParity:
    def test_violation_message_and_witness_match_objects_engine(self):
        def selfish(pid, pref, read):
            return ("decide", pref)

        broken = TwoProcessDeterministic(selfish, "selfish")
        ref = verify_safety(broken, ("a", "b"))
        report = explore_fast(broken, ("a", "b"))
        assert not report.ok
        assert not report.exhausted
        assert report.truncated_by == "violation"
        assert report.violation == ref.violation
        assert report.witness is not None
        assert (report.witness.decisions(broken)
                == ref.witness.decisions(broken))
        assert "VIOLATION" in report.guarantee()

    def test_verify_safety_fingerprints_engine_flags_broken(self):
        def selfish(pid, pref, read):
            return ("decide", pref)

        broken = TwoProcessDeterministic(selfish, "selfish")
        report = verify_safety(broken, ("a", "b"), engine="fingerprints")
        assert not report.ok
        assert "consistency" in report.violation
        assert report.witness is not None


class TestTelemetry:
    def test_heartbeats_stream_progress_and_final_done(self):
        beats = []
        report = explore_fast(TwoProcessProtocol(), ("a", "b"),
                              heartbeat_sink=beats.append,
                              heartbeat_every=10)
        assert beats
        assert beats[-1]["done"] is True
        assert beats[-1]["runs_done"] == report.visited
        assert all(b["tail"]["depth"] <= report.depth for b in beats)
        done_counts = [b["runs_done"] for b in beats]
        assert done_counts == sorted(done_counts)

    def test_telemetry_file_renders_in_top(self, tmp_path):
        path = tmp_path / "beats.jsonl"
        explore_fast(TwoProcessProtocol(), ("a", "b"),
                     telemetry_path=str(path), heartbeat_every=10)
        with open(path) as fh:
            for line in fh:
                json.loads(line)
        beats = read_telemetry(str(path))
        assert beats and beats[-1].done
        rendered = render_top(beats)
        assert "states" in rendered or "shard" in rendered or rendered

    def test_explore_span_has_visited_and_frontier_attrs(self):
        tracer = Tracer()
        explore_fast(TwoProcessProtocol(), ("a", "b"), tracer=tracer)
        spans = [s for s in tracer.spans if s.name == "checker.explore"]
        assert len(spans) == 1
        attrs = spans[0].attrs
        assert attrs["visited"] > 0
        assert attrs["frontier"] == 0
        assert attrs["complete"] is True


class TestReportShape:
    def test_guarantee_strings_mirror_safety_report(self):
        full = explore_fast(TwoProcessProtocol(), ("a", "b"))
        assert "full reachable" in full.guarantee()
        partial = explore_fast(TwoProcessProtocol(), ("a", "b"),
                               max_depth=3)
        assert "up to depth" in partial.guarantee()

    def test_report_metadata_fields(self):
        report = explore_fast(TwoProcessProtocol(), ("a", "b"),
                              memory="regular")
        assert report.protocol == TwoProcessProtocol().name
        assert report.inputs == ("a", "b")
        assert report.memory == "regular"
        assert report.states_per_sec > 0
        assert report.frontier == 0
        # fingerprints only materialize on request
        assert report.fingerprints is None
