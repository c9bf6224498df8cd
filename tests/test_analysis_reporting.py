"""Tests for JSON experiment records."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

from repro.analysis.reporting import (
    batch_metrics,
    dump_records,
    environment_stamp,
    load_records,
    record_batch,
)
from repro.core.two_process import TwoProcessProtocol
from repro.sched.simple import RandomScheduler
from repro.sim.runner import ExperimentRunner


def make_stats(n_runs=40):
    runner = ExperimentRunner(
        protocol_factory=lambda: TwoProcessProtocol(),
        scheduler_factory=lambda rng: RandomScheduler(rng),
        inputs_factory=lambda i, rng: ("a", "b"),
        seed=7,
    )
    return runner.run_many(n_runs, max_steps=1000)


class TestReporting:
    def test_batch_metrics_fields(self):
        metrics = batch_metrics(make_stats())
        assert metrics["completion_rate"] == 1.0
        assert metrics["consistency_violations"] == 0
        assert metrics["mean_steps"] > 0
        assert metrics["p99_steps"] >= metrics["p50_steps"]
        assert "mean_coin_flips" in metrics

    def test_record_roundtrip(self, tmp_path):
        record = record_batch(
            experiment="E2", protocol="TwoProcessProtocol",
            scheduler="random", inputs="a,b", seed=7,
            stats=make_stats(),
        )
        path = str(tmp_path / "records.json")
        text = dump_records([record], path=path)
        # Valid JSON with environment stamp.
        doc = json.loads(text)
        assert "environment" in doc and "records" in doc
        assert doc["environment"]["library_version"]
        # Round-trips through the loader.
        loaded = load_records(path)
        assert len(loaded) == 1
        assert loaded[0].experiment == "E2"
        assert loaded[0].metrics["n_runs"] == 40

    def test_environment_stamp(self):
        stamp = environment_stamp()
        assert set(stamp) == {"library_version", "python", "platform"}

    def test_environment_stamp_starts_no_process(self):
        # In a fresh interpreter (the stdlib caches its uname answer),
        # the stamp is taken with every way of starting a process
        # refused, then compared with platform.platform()'s string.
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        script = (
            "import os, subprocess, platform\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('started a process')\n"
            "for name in ('Popen', 'run', 'call', 'check_call',\n"
            "             'check_output', 'getoutput', 'getstatusoutput'):\n"
            "    setattr(subprocess, name, refuse)\n"
            "saved = os.popen, os.system\n"
            "os.popen = os.system = refuse\n"
            "from repro.analysis.reporting import environment_stamp\n"
            "stamp = environment_stamp()\n"
            "os.popen, os.system = saved\n"
            "import importlib; importlib.reload(subprocess)\n"
            "assert stamp['platform'] == platform.platform(), "
            "(stamp['platform'], platform.platform())\n"
            "print(sorted(stamp))\n")
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [
            "['library_version',", "'platform',", "'python']"]

    def test_records_are_deterministic(self):
        a = record_batch("E2", "p", "s", "a,b", 7, make_stats())
        b = record_batch("E2", "p", "s", "a,b", 7, make_stats())
        assert a.to_dict() == b.to_dict()
