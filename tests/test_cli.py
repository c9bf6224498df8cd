"""Tests for the command-line interface."""

from __future__ import annotations

import hashlib
import sys

import pytest

from repro.cli import build_parser, main

#: SHA-256 prefixes of ``repro [COMMAND...] --help`` at 80 columns under
#: CPython 3.11, as printed when every command's parser was built for
#: every invocation.  Building only the invoked command's parser must
#: not change a byte of them.
HELP_DIGESTS = {
    (): "16fbe3e9b78c7b2e",
    ("solve",): "4635409e759067c3",
    ("verify",): "ce17ca69b1c98096",
    ("impossibility",): "f265b1719064f59e",
    ("game",): "72cba0087e6505b5",
    ("tower",): "e91ae9482955ffc4",
    ("report",): "7bbea49540c1dcab",
    ("trace",): "f67b9864a51ad8ec",
    ("top",): "12db7c36379352c2",
    ("journal",): "0c9d13a2d76e3129",
    ("journal", "verify"): "28bc990b1658c748",
    ("store",): "a4f397f213622d74",
    ("store", "ls"): "64fa09b0afedb383",
    ("store", "show"): "16b8a0e5e405a162",
    ("store", "verify"): "402e0226a3c52959",
    ("store", "gc"): "92c13b1bc6aade72",
}


def _help(parse, words, capsys) -> str:
    with pytest.raises(SystemExit) as exit_info:
        parse(list(words) + ["--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out


class TestHelp:
    """``repro --help`` lists every command, and each command's help is
    the one the full parser prints."""

    @pytest.mark.parametrize("words", sorted(HELP_DIGESTS), ids=" ".join)
    def test_help_bytes_are_unchanged(self, words, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        text = _help(main, words, capsys)
        assert text == _help(build_parser().parse_args, words, capsys)
        if sys.version_info[:2] == (3, 11):
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest[:16] == HELP_DIGESTS[words]

    def test_every_command_is_listed(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        text = _help(main, (), capsys)
        for words in HELP_DIGESTS:
            if len(words) == 1:
                assert f"    {words[0]} " in text


class TestSolve:
    def test_two_process(self, capsys):
        assert main(["solve", "--protocol", "two", "--inputs", "a,b",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "agreed on" in out and "consistent: True" in out

    def test_trace_output(self, capsys):
        assert main(["solve", "--inputs", "a,b", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "write" in out and "read" in out

    def test_all_protocols(self, capsys):
        cases = [
            ("two", "a,b"),
            ("three-unbounded", "a,b,a"),
            ("three-bounded", "a,b,b"),
            ("n", "a,b,a,b"),
            ("naive", "a,a,a"),
        ]
        for protocol, inputs in cases:
            assert main(["solve", "--protocol", protocol,
                         "--inputs", inputs]) == 0

    def test_wrong_arity_rejected(self):
        with pytest.raises(SystemExit):
            main(["solve", "--protocol", "two", "--inputs", "a,b,c"])

    def test_all_schedulers(self):
        for sched in ("random", "round-robin", "oblivious", "split-vote",
                      "laggard-freezer"):
            assert main(["solve", "--protocol", "three-unbounded",
                         "--inputs", "a,b,a", "--scheduler", sched]) == 0


class TestVerify:
    def test_full_verification(self, capsys):
        assert main(["verify", "--protocol", "two", "--inputs", "a,b"]) == 0
        assert "full reachable" in capsys.readouterr().out

    def test_depth_bounded(self, capsys):
        assert main(["verify", "--protocol", "three-bounded",
                     "--inputs", "a,b,a", "--depth", "8"]) == 0
        assert "up to depth" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ("objects", "fingerprints"))
    def test_budgeted_depth_same_under_both_engines(self, capsys, engine):
        """The budget cuts level 7 part-way: both engines claim the
        deepest level they visited completely."""
        assert main(["verify", "--protocol", "naive", "--inputs", "a,a,b",
                     "--max-states", "300", "--engine", engine]) == 0
        assert "up to depth 6 (300 configurations)" \
            in capsys.readouterr().out


class TestImpossibility:
    def test_whole_zoo(self, capsys):
        assert main(["impossibility"]) == 0
        out = capsys.readouterr().out
        assert out.count("admits an infinite non-deciding schedule") == 4

    def test_single_member(self, capsys):
        assert main(["impossibility", "--protocol", "greedy-min"]) == 0
        assert "greedy-min" in capsys.readouterr().out

    def test_unknown_member(self):
        with pytest.raises(SystemExit):
            main(["impossibility", "--protocol", "does-not-exist"])


class TestGameAndTower:
    def test_game(self, capsys):
        assert main(["game", "--cost", "processor:1"]) == 0
        assert "10.000000" in capsys.readouterr().out

    def test_tower(self, capsys):
        assert main(["tower", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "mrsw-atomic" in out and "atomic" in out


class TestSolveObservability:
    def test_metrics_flag_prints_registry(self, capsys):
        assert main(["solve", "--inputs", "a,b", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "steps_to_decide" in out and "p99" in out

    def test_journal_flag_writes_replayable_file(self, tmp_path, capsys):
        path = str(tmp_path / "solve.jsonl")
        assert main(["solve", "--inputs", "a,b", "--seed", "3",
                     "--journal", path]) == 0
        assert "journal:" in capsys.readouterr().out
        from repro.obs import replay_journal

        replayed = replay_journal(path)
        assert replayed.counters["runs"].value == 1
        assert replayed.counters["decisions"].value == 2


class TestReport:
    def test_report_prints_percentiles_and_histograms(self, capsys):
        assert main(["report", "--protocol", "two", "--runs", "50"]) == 0
        out = capsys.readouterr().out
        assert "steps_to_decide" in out
        assert "p50" in out and "p90" in out and "p99" in out
        assert "coin_flips_per_decision" in out
        assert "#" in out  # histogram bars

    def test_report_journal_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "batch.jsonl")
        assert main(["report", "--protocol", "three-unbounded",
                     "--inputs", "a,b,a", "--runs", "20",
                     "--journal", path]) == 0
        live_out = capsys.readouterr().out
        assert main(["report", "--from-journal", path]) == 0
        replay_out = capsys.readouterr().out
        # The metrics block must be identical live and replayed.
        live_metrics = live_out[live_out.index("counters:"):
                                live_out.index("\n\nsteps_to_decide")]
        replay_metrics = replay_out[replay_out.index("counters:"):
                                    replay_out.index("\n\nsteps_to_decide")]
        assert live_metrics == replay_metrics
        assert "num_depth" in live_out

    def test_report_timing(self, capsys):
        assert main(["report", "--runs", "50", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "time attribution:" in out
        assert "\n  setup " in out and "\n  loop " in out

    def test_report_json_record(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "report.json")
        assert main(["report", "--runs", "10", "--json", path]) == 0
        with open(path) as fh:
            doc = json.load(fh)
        record = doc["records"][0]
        assert record["experiment"] == "cli_report"
        obs = record["metrics"]["observability"]
        assert obs["counters"]["runs"] == 10
        assert obs["histograms"]["steps_to_decide"]["p99"] >= 1

    def test_report_all_schedulers(self):
        for sched in ("random", "round-robin", "oblivious", "split-vote",
                      "laggard-freezer"):
            assert main(["report", "--runs", "5",
                         "--scheduler", sched]) == 0

    def test_report_workers_matches_serial(self, tmp_path, capsys):
        import json

        ser, par = str(tmp_path / "ser.json"), str(tmp_path / "par.json")
        assert main(["report", "--runs", "40", "--seed", "7",
                     "--json", ser]) == 0
        assert main(["report", "--runs", "40", "--seed", "7",
                     "--workers", "2", "--shard-size", "9",
                     "--json", par]) == 0
        out = capsys.readouterr().out
        assert "2 workers" in out
        with open(ser) as fh:
            serial_metrics = json.load(fh)["records"][0]["metrics"]
        with open(par) as fh:
            parallel_metrics = json.load(fh)["records"][0]["metrics"]
        assert parallel_metrics == serial_metrics

    def test_report_workers_journal(self, tmp_path, capsys):
        path = str(tmp_path / "par.jsonl")
        assert main(["report", "--runs", "10", "--workers", "2",
                     "--journal", path]) == 0
        out = capsys.readouterr().out
        assert "journal:" in out and "events" in out
        from repro.obs import replay_journal

        assert replay_journal(path).counters["runs"].value == 10

    def test_report_store_hosts_timing(self, tmp_path, capsys):
        # In-process shards run on the caller's runner and sinks, so a
        # store-backed sweep can carry --profile; the stored sweep's
        # metrics match the plain command's.
        import json

        plain, stored = str(tmp_path / "plain.json"), \
            str(tmp_path / "stored.json")
        assert main(["report", "--runs", "40", "--profile",
                     "--json", plain]) == 0
        capsys.readouterr()
        assert main(["report", "--runs", "40", "--profile",
                     "--store", str(tmp_path / "runs.store"),
                     "--json", stored]) == 0
        out = capsys.readouterr().out
        assert "time attribution:" in out
        assert "store:" in out
        with open(plain) as fh:
            plain_metrics = json.load(fh)["records"][0]["metrics"]
        with open(stored) as fh:
            stored_metrics = json.load(fh)["records"][0]["metrics"]
        assert stored_metrics == plain_metrics

    def test_report_timing_rejected_with_workers(self):
        with pytest.raises(SystemExit, match="workers 1"):
            main(["report", "--runs", "5", "--workers", "2", "--profile"])

    def test_report_timing_rejected_with_vector_engine(self):
        with pytest.raises(SystemExit, match="only the replay"):
            main(["report", "--runs", "5", "--engine", "vector",
                  "--profile"])

    def test_report_bad_worker_count_rejected(self, capsys):
        with pytest.raises(SystemExit, match="workers"):
            main(["report", "--runs", "5", "--workers", "0"])
        # The checker searches in process: verify takes no --workers.
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
