"""Fingerprinted state-space engine: keys, telemetry and report shape.

The load-bearing guarantee of :mod:`repro.checker.statespace` — it
explores *exactly* the reachable-configuration set of the objects BFS,
reaching its verdicts, violation messages and witnesses — is the
differential harness's job (``tests/test_differential.py``).  These
are the engine's own unit tests.
"""

from __future__ import annotations

import json

from repro.checker import explore_fast
from repro.core.two_process import TwoProcessProtocol
from repro.obs.telemetry import read_telemetry, render_top
from repro.obs.tracing import Tracer


def test_fingerprint_seed_changes_keys_not_counts():
    a = explore_fast(TwoProcessProtocol(), ("a", "b"),
                     keep_fingerprints=True)
    b = explore_fast(TwoProcessProtocol(), ("a", "b"),
                     fingerprint_seed=1, keep_fingerprints=True)
    assert a.visited == b.visited
    assert a.fingerprints != b.fingerprints


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
