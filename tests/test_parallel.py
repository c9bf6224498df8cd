"""Tests for the shard executor (`repro.parallel`).

The executor's contract is exact: a sharded batch must be
*bit-identical* to the serial batch with the same root seed — same
`RunStats` list, same merged metrics snapshot, same journal bytes — at
any worker count and shard size, and under every start method.  These
tests pay for a handful of real workers, under the default start method
and explicitly under both `fork` and the portable `spawn`, and assert
that equality end to end, plus the start-method rule, worker reuse, the
planner's partition properties and the descriptive failure modes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import threading

import pytest

from repro.faults import FaultAction, FaultPlan
from repro.obs import JsonlJournal, MetricsRegistry
from repro.obs.journal import adopt_journal, concatenate_journals
from repro.parallel import (
    BatchSpec,
    ConstantInputs,
    ProtocolSpec,
    SchedulerSpec,
    SupervisorError,
    SupervisorPolicy,
    default_start_method,
    plan_shards,
    run_parallel,
)
from repro.sim.runner import ExperimentRunner
from repro.store import RunStore

N_RUNS = 80
MAX_STEPS = 4000
SEED = 1234

#: The start methods this host offers, of the two the engine uses.
START_METHODS = [m for m in ("spawn", "fork")
                 if m in multiprocessing.get_all_start_methods()]


def make_two_process_protocol():
    """Module-level factory: picklable without the spec classes."""
    from repro.core import TwoProcessProtocol

    return TwoProcessProtocol()


def make_random_scheduler(rng):
    from repro.sched import RandomScheduler

    return RandomScheduler(rng)


def make_ab_inputs(run_index, rng):
    return ("a", "b")


def inputs_raising_at_run_13(run_index, rng):
    if run_index == 13:
        raise KeyError("no inputs for run 13")
    return ("a", "b")


def make_runner(registry=None, seed=SEED):
    sinks = (registry,) if registry is not None else ()
    return ExperimentRunner(
        protocol_factory=ProtocolSpec("two", 2),
        scheduler_factory=SchedulerSpec("random"),
        inputs_factory=ConstantInputs(("a", "b")),
        seed=seed,
        sinks=sinks,
    )


@pytest.fixture
def worker_starts(monkeypatch):
    """Every process the default start method starts, in start order."""
    process = multiprocessing.get_context(default_start_method()).Process
    started = []
    original = process.start

    def start(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(process, "start", start)
    return started


@pytest.fixture(scope="module")
def serial(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("serial") / "batch.jsonl")
    reg = MetricsRegistry()
    stats = make_runner(reg).run_many(N_RUNS, max_steps=MAX_STEPS,
                                      journal_path=path)
    return stats, reg


def sharded_batch(tmp_path_factory, mp_context=None):
    path = str(tmp_path_factory.mktemp("parallel") / "batch.jsonl")
    reg = MetricsRegistry()
    stats = make_runner(reg).run_many(N_RUNS, max_steps=MAX_STEPS,
                                      workers=2, journal_path=path,
                                      mp_context=mp_context)
    return stats, reg


@pytest.fixture(scope="module")
def parallel(tmp_path_factory):
    return sharded_batch(tmp_path_factory)


class TestPlanShards:
    def test_partitions_the_range(self):
        for n, workers, size in ((0, 4, None), (1, 4, None), (17, 4, None),
                                 (17, 4, 3), (100, 7, None), (5, 16, None)):
            shards = plan_shards(n, workers, size)
            covered = [i for lo, hi in shards for i in range(lo, hi)]
            assert covered == list(range(n))
            assert all(lo < hi for lo, hi in shards)

    def test_default_is_one_shard_per_worker(self):
        assert len(plan_shards(100, 4)) == 4
        assert plan_shards(100, 4) == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_shard_size_overrides(self):
        assert plan_shards(10, 2, shard_size=3) == [
            (0, 3), (3, 6), (6, 9), (9, 10)]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            plan_shards(-1, 2)
        with pytest.raises(ValueError):
            plan_shards(10, 2, shard_size=0)


class TestBitIdenticalMerge:
    def test_run_stats_identical(self, serial, parallel):
        s_stats, _ = serial
        p_stats, _ = parallel
        assert p_stats.runs == s_stats.runs
        assert [r.run_index for r in p_stats.runs] == list(range(N_RUNS))
        assert p_stats.max_steps == s_stats.max_steps

    def test_metrics_snapshot_identical(self, serial, parallel):
        _, s_reg = serial
        p_stats, p_reg = parallel
        assert p_reg.to_dict() == s_reg.to_dict()
        # The runner's attached registry is the merge target.
        assert p_stats.metrics is p_reg

    def test_journal_bytes_identical(self, serial, parallel):
        s_stats, _ = serial
        p_stats, _ = parallel
        with open(s_stats.journal_path, "rb") as fh:
            s_bytes = fh.read()
        with open(p_stats.journal_path, "rb") as fh:
            p_bytes = fh.read()
        assert p_bytes == s_bytes
        assert p_stats.journal_events == s_stats.journal_events

    def test_in_process_merge_equals_direct_observation(self, serial):
        # A workers=1 batch also runs as a shard whose private registry
        # is merged into the runner's; that must equal a registry that
        # watched the same runs directly.
        s_stats, s_reg = serial
        direct = MetricsRegistry()
        runs = make_runner(direct).run_range(0, N_RUNS, MAX_STEPS)
        assert runs == s_stats.runs
        assert direct.to_dict() == s_reg.to_dict()

    def test_shard_parts_cleaned_up(self, parallel, tmp_path):
        p_stats, _ = parallel
        import glob

        assert glob.glob(p_stats.journal_path + ".shard*") == []

    def test_shard_size_invariance(self, serial):
        s_stats, s_reg = serial
        reg = MetricsRegistry()
        stats = make_runner(reg).run_many(N_RUNS, max_steps=MAX_STEPS,
                                          workers=2, shard_size=7)
        assert stats.runs == s_stats.runs
        assert reg.to_dict() == s_reg.to_dict()

    def test_more_workers_than_runs(self):
        few_serial = make_runner().run_many(3, max_steps=MAX_STEPS)
        few_parallel = make_runner().run_many(3, max_steps=MAX_STEPS,
                                              workers=8)
        assert few_parallel.runs == few_serial.runs

    def test_module_level_function_factories(self):
        def runner(workers):
            return ExperimentRunner(
                protocol_factory=make_two_process_protocol,
                scheduler_factory=make_random_scheduler,
                inputs_factory=make_ab_inputs,
                seed=SEED,
            )

        assert (runner(2).run_many(6, max_steps=MAX_STEPS, workers=2).runs
                == runner(1).run_many(6, max_steps=MAX_STEPS).runs)


class TestStartMethods:
    """``fork`` where it is safe, ``spawn`` elsewhere; the same results
    under both."""

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or "fork" not in START_METHODS,
                        reason="fork is the default on Linux only")
    def test_single_threaded_linux_forks(self):
        assert threading.active_count() == 1
        assert default_start_method() == "fork"

    def test_a_second_thread_means_spawn(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert default_start_method() == "spawn"
        finally:
            release.set()
            thread.join()

    def test_no_fork_means_spawn(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "forkserver"])
        assert default_start_method() == "spawn"

    def test_macos_means_spawn(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "darwin")
        assert default_start_method() == "spawn"

    @pytest.mark.parametrize("method", START_METHODS)
    def test_bit_identical_to_serial(self, serial, method,
                                     tmp_path_factory):
        s_stats, s_reg = serial
        p_stats, p_reg = sharded_batch(tmp_path_factory, method)
        assert p_stats.runs == s_stats.runs
        assert p_reg.to_dict() == s_reg.to_dict()
        with open(s_stats.journal_path, "rb") as a, \
                open(p_stats.journal_path, "rb") as b:
            assert a.read() == b.read()

    def test_forked_workers_leave_inherited_state_alone(self, tmp_path):
        # A supervised sweep whose crash forks a replacement worker
        # mid-sweep, after the parent has written telemetry and
        # committed shards: every artifact must equal the spawn one's.
        if "fork" not in START_METHODS:
            pytest.skip("no fork on this host")

        def sweep(method):
            root = tmp_path / method
            reg = MetricsRegistry()
            stats = make_runner(reg).run_many(
                N_RUNS, max_steps=MAX_STEPS, workers=2, shard_size=10,
                journal_path=str(root / "batch.jsonl"),
                telemetry_path=str(root / "telemetry.jsonl"),
                store=RunStore(str(root / "store")), mp_context=method,
                policy=SupervisorPolicy(backoff_base=0.001,
                                        backoff_cap=0.002),
                fault_plan=FaultPlan.build({(4, 0): FaultAction("crash")}))
            with open(root / "telemetry.jsonl") as fh:
                lines = fh.read().splitlines(keepends=True)
            assert all(line.endswith("\n") for line in lines)
            wall_clock = ("elapsed_s", "steps_per_s", "eta_s")
            telemetry = sorted(
                json.dumps({k: v for k, v in json.loads(line).items()
                            if k not in wall_clock}, sort_keys=True)
                for line in lines)
            store = {}
            for dirpath, _, files in os.walk(root / "store"):
                for name in files:
                    path = os.path.join(dirpath, name)
                    with open(path, "rb") as fh:
                        store[os.path.relpath(path, root)] = fh.read()
            with open(stats.journal_path, "rb") as fh:
                journal = fh.read()
            return dict(runs=stats.runs, metrics=reg.to_dict(),
                        journal=journal, telemetry=telemetry, store=store,
                        faults=stats.faults.events)

        forked = sweep("fork")
        assert [e.kind for e in forked["faults"]] == ["crash"]
        assert forked == sweep("spawn")


class TestWorkerReuse:
    """Workers outlive their shards: at most ``workers`` processes run a
    sweep, and only a faulting one is replaced."""

    def test_fault_free_sweep_starts_one_process_per_worker(
            self, serial, worker_starts):
        s_stats, s_reg = serial
        reg = MetricsRegistry()
        stats = make_runner(reg).run_many(N_RUNS, max_steps=MAX_STEPS,
                                          workers=2, shard_size=5)
        assert len(plan_shards(N_RUNS, 2, 5)) == 16
        assert len(worker_starts) == 2
        assert stats.runs == s_stats.runs
        assert reg.to_dict() == s_reg.to_dict()

    def test_crash_starts_exactly_one_replacement(self, serial,
                                                  worker_starts, tmp_path):
        s_stats, s_reg = serial
        reg = MetricsRegistry()
        path = str(tmp_path / "crash.jsonl")
        stats = make_runner(reg).run_many(
            N_RUNS, max_steps=MAX_STEPS, workers=2, shard_size=5,
            journal_path=path,
            policy=SupervisorPolicy(backoff_base=0.001, backoff_cap=0.002),
            fault_plan=FaultPlan.build({(3, 0): FaultAction("crash")}))
        assert [(e.shard, e.attempt, e.kind) for e in stats.faults.events] \
            == [(3, 0, "crash")]
        assert len(worker_starts) == 3
        assert stats.runs == s_stats.runs
        assert reg.to_dict() == s_reg.to_dict()
        with open(s_stats.journal_path, "rb") as a, open(path, "rb") as b:
            assert a.read() == b.read()

    def test_unsupervised_shard_fault_names_range_and_cause(self):
        runner = ExperimentRunner(
            protocol_factory=ProtocolSpec("two", 2),
            scheduler_factory=SchedulerSpec("random"),
            inputs_factory=inputs_raising_at_run_13,
            seed=SEED,
        )
        with pytest.raises(SupervisorError,
                           match=r"runs \[0, 40\)\).*KeyError"):
            runner.run_many(N_RUNS, max_steps=MAX_STEPS, workers=2)


class TestEdgesAndErrors:
    def test_empty_batch(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        stats = make_runner().run_many(0, max_steps=MAX_STEPS, workers=4,
                                       journal_path=path)
        assert stats.runs == []
        assert stats.metrics is None
        # Journal still gets its header line, like a serial empty batch.
        assert stats.journal_events == 1
        serial = make_runner().run_many(0, max_steps=MAX_STEPS,
                                        journal_path=str(tmp_path / "s.jsonl"))
        with open(path) as a, open(serial.journal_path) as b:
            assert a.read() == b.read()

    def test_no_metrics_sink_means_no_metrics(self):
        stats = make_runner().run_many(4, max_steps=MAX_STEPS, workers=2)
        assert stats.metrics is None

    def test_lambda_factories_rejected_with_pointer(self):
        runner = ExperimentRunner(
            protocol_factory=lambda: None,
            scheduler_factory=lambda rng: None,
            inputs_factory=lambda i, rng: ("a", "b"),
            seed=0,
        )
        with pytest.raises(ValueError, match="repro.parallel.tasks"):
            runner.run_many(4, max_steps=100, workers=2)

    def test_journal_sink_rejected_in_parallel(self, tmp_path):
        journal = JsonlJournal(str(tmp_path / "j.jsonl"))
        runner = ExperimentRunner(
            protocol_factory=ProtocolSpec("two", 2),
            scheduler_factory=SchedulerSpec("random"),
            inputs_factory=ConstantInputs(("a", "b")),
            seed=0,
            sinks=(journal,),
        )
        with pytest.raises(ValueError, match="journal_path"):
            runner.run_many(4, max_steps=100, workers=2)
        journal.close()

    def test_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            run_parallel(
                BatchSpec(ProtocolSpec("two", 2), SchedulerSpec("random"),
                          ConstantInputs(("a", "b")), seed=0),
                4, 100, workers=0,
            )

    def test_concatenate_rejects_headerless_shard(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"t":"step","i":0}\n')
        with pytest.raises(ValueError, match="header"):
            concatenate_journals([str(bad)], str(tmp_path / "out.jsonl"))

    def test_concatenate_rejects_empty_shard(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            concatenate_journals([str(empty)], str(tmp_path / "out.jsonl"))
        with pytest.raises(ValueError, match="stored shard 0: empty"):
            concatenate_journals([b""], str(tmp_path / "out.jsonl"))

    def test_concatenate_stitches_stored_bytes_like_files(self, tmp_path,
                                                          serial):
        stats, _ = serial
        shard = open(stats.journal_path, "rb").read()
        from_files = tmp_path / "files.jsonl"
        from_bytes = tmp_path / "bytes.jsonl"
        n = concatenate_journals([stats.journal_path] * 2, str(from_files))
        assert concatenate_journals([shard, stats.journal_path],
                                    str(from_bytes)) == n
        assert from_bytes.read_bytes() == from_files.read_bytes()
        assert n == 2 * stats.journal_events - 1
        with pytest.raises(ValueError, match="stored shard 1: missing"):
            concatenate_journals([shard, b'{"t":"step","i":0}\n'],
                                 str(tmp_path / "out.jsonl"))

    def test_one_shard_journal_is_renamed_not_copied(self, tmp_path,
                                                     monkeypatch):
        import repro.obs.journal as journal

        one, two = str(tmp_path / "one.jsonl"), str(tmp_path / "two.jsonl")
        stitched = make_runner().run_many(
            N_RUNS, max_steps=MAX_STEPS, shard_size=N_RUNS // 2,
            journal_path=two)

        def no_copy(shards, out_path):
            raise AssertionError("a one-shard journal was copied")

        monkeypatch.setattr(journal, "concatenate_journals", no_copy)
        stats = make_runner().run_many(N_RUNS, max_steps=MAX_STEPS,
                                       journal_path=one)
        data = open(one, "rb").read()
        assert data == open(two, "rb").read()
        assert stats.journal_events == stitched.journal_events \
            == data.count(b"\n")
        assert sorted(os.listdir(tmp_path)) == ["one.jsonl", "two.jsonl"]

    def test_adopt_rejects_headerless_shard(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"t":"step","i":0}\n')
        with pytest.raises(ValueError, match="header"):
            adopt_journal(str(bad), str(tmp_path / "out.jsonl"))
        assert bad.exists() and not (tmp_path / "out.jsonl").exists()


class TestSpecs:
    def test_protocol_spec_names(self):
        assert ProtocolSpec("two", 2)().n_processes == 2
        assert ProtocolSpec("three-unbounded", 3)().n_processes == 3
        assert ProtocolSpec("n", 5)().n_processes == 5
        with pytest.raises(ValueError, match="unknown protocol"):
            ProtocolSpec("nope", 2)()

    def test_scheduler_spec_names(self):
        from repro.sim.rng import ReplayableRng

        rng = ReplayableRng(0)
        for name in ("random", "round-robin", "oblivious", "split-vote",
                     "laggard-freezer"):
            assert SchedulerSpec(name)(rng) is not None
        with pytest.raises(ValueError, match="unknown scheduler"):
            SchedulerSpec("nope")(rng)

    def test_constant_inputs(self):
        f = ConstantInputs(("x", "y"))
        assert f(0, None) == ("x", "y")
        assert f(99, None) == ("x", "y")
