"""Tests for the content-addressed run store (:mod:`repro.store`).

The contract under test is the determinism contract turned into
persistence: a committed shard is a *fact* keyed by ``(spec_hash,
root_seed, index_range)``, so

* a sweep killed between shard commits resumes from the last committed
  shard and merges to results **byte-identical** to an uninterrupted
  serial run (RunStats, metrics snapshot, and journal bytes alike);
* a second identical sweep executes **zero** kernel steps — every
  shard is answered from cache (``StoreStats.fully_cached``);
* commits are atomic (tmp + fsync + rename): a crash mid-write leaves
  only a ``.tmp`` orphan that loading ignores and ``gc`` sweeps.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.parallel.tasks import ConstantInputs, ProtocolSpec, SchedulerSpec
from repro.sim.runner import ExperimentRunner
from repro.spec import ObsOptions, RunSpec
from repro.store import RunStore, ShardPayload, StoreError, StoreStats

N_RUNS = 40
SHARD = 10
MAX_STEPS = 2_000
SEED = 7


def make_runner(with_metrics=True, engine=None):
    return ExperimentRunner(
        protocol_factory=ProtocolSpec("two", 2),
        scheduler_factory=SchedulerSpec("random"),
        inputs_factory=ConstantInputs(("a", "b")),
        seed=SEED,
        engine=engine,
        sinks=(MetricsRegistry(),) if with_metrics else (),
    )


def sweep(tmp_path, tag, store=None, workers=1, journal=True):
    """One full sweep; returns (stats, journal_bytes, metrics_dict)."""
    runner = make_runner()
    journal_path = str(tmp_path / f"{tag}.jsonl") if journal else None
    stats = runner.run_many(N_RUNS, max_steps=MAX_STEPS, workers=workers,
                            shard_size=SHARD, journal_path=journal_path,
                            store=store)
    payload = (open(journal_path, "rb").read()
               if journal_path is not None else None)
    return stats, payload, runner.metrics.to_dict()


class Fault(Exception):
    """Injected between shard commits: the sweep dies mid-batch."""


@pytest.fixture()
def baseline(tmp_path):
    """The uninterrupted serial sweep every store path must reproduce."""
    return sweep(tmp_path, "serial")


class TestColdWarm:
    def test_cold_sweep_matches_serial_and_fills_store(self, tmp_path,
                                                       baseline):
        base_stats, base_journal, base_metrics = baseline
        store = RunStore(str(tmp_path / "store"))
        stats, journal, metrics = sweep(tmp_path, "cold", store=store)
        assert stats.store.misses == N_RUNS // SHARD
        assert stats.store.hits == 0
        assert not stats.store.fully_cached
        assert stats.runs == base_stats.runs
        assert journal == base_journal
        assert metrics == base_metrics
        entry, = store.ls()
        assert entry.spec_hash == stats.store.spec_hash
        assert entry.n_runs == N_RUNS
        assert entry.seeds == (SEED,)

    def test_second_identical_sweep_runs_zero_kernel_steps(
            self, tmp_path, baseline):
        base_stats, base_journal, base_metrics = baseline
        store = RunStore(str(tmp_path / "store"))
        sweep(tmp_path, "cold", store=store)
        # Litter an interrupted sweep can leave where a shard journal
        # streamed; a loaded shard is stitched from its stored bytes.
        stale = tmp_path / "warm.jsonl.shard0000"
        stale.write_text("stale")
        stats, journal, metrics = sweep(tmp_path, "warm", store=store)
        assert not stale.exists()
        assert stats.store.fully_cached
        assert stats.store.runs_executed == 0
        assert stats.store.hits == N_RUNS // SHARD
        assert stats.store.runs_from_cache == N_RUNS
        # ...and "served from cache" still means bit-identical.
        assert stats.runs == base_stats.runs
        assert journal == base_journal
        assert metrics == base_metrics

    def test_different_spec_is_a_different_address(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        sweep(tmp_path, "cold", store=store)
        other = make_runner(engine="reference")
        stats = other.run_many(N_RUNS, max_steps=MAX_STEPS,
                               shard_size=SHARD, store=store)
        assert stats.store.hits == 0  # engine is part of the address
        assert len(store.ls()) == 2


class TestResume:
    @pytest.mark.parametrize("kill_after", [1, 2, 3])
    def test_killed_sweep_resumes_bit_identical(self, tmp_path, baseline,
                                                kill_after):
        base_stats, base_journal, base_metrics = baseline
        store = RunStore(str(tmp_path / "store"))
        committed = []

        def fault(spec_hash, seed, start, stop, path):
            committed.append((start, stop))
            if len(committed) == kill_after:
                raise Fault

        store.on_commit = fault
        with pytest.raises(Fault):
            sweep(tmp_path, "killed", store=store)
        # Everything committed before the fault is durable...
        store.on_commit = None
        assert len(committed) == kill_after
        # ...and the re-run loads exactly those shards, executes the
        # rest, and merges to the uninterrupted serial result.
        stats, journal, metrics = sweep(tmp_path, "resumed", store=store)
        assert stats.store.hits == kill_after
        assert stats.store.misses == N_RUNS // SHARD - kill_after
        assert stats.store.runs_from_cache == kill_after * SHARD
        assert stats.runs == base_stats.runs
        assert journal == base_journal
        assert metrics == base_metrics

    def test_resumed_store_serves_parallel_sweeps(self, tmp_path,
                                                  baseline):
        # Worker count is not part of the address: a store filled at
        # workers=1 answers a workers=2 sweep of the same spec, and
        # vice versa, byte-identically.
        base_stats, base_journal, base_metrics = baseline
        store = RunStore(str(tmp_path / "store"))
        sweep(tmp_path, "fill", store=store, workers=1)
        stats, journal, metrics = sweep(tmp_path, "pool", store=store,
                                        workers=2)
        assert stats.store.fully_cached
        assert stats.runs == base_stats.runs
        assert journal == base_journal
        assert metrics == base_metrics

    def test_parallel_cold_sweep_commits(self, tmp_path, baseline):
        base_stats, base_journal, base_metrics = baseline
        store = RunStore(str(tmp_path / "store"))
        stats, journal, metrics = sweep(tmp_path, "pool-cold",
                                        store=store, workers=2)
        assert stats.store.misses == N_RUNS // SHARD
        assert journal == base_journal and metrics == base_metrics
        follow, _, _ = sweep(tmp_path, "pool-warm", store=store,
                             workers=2)
        assert follow.store.fully_cached


class TestCrashSafetyAndGc:
    def test_tmp_orphan_is_invisible_and_swept(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        stats, _, _ = sweep(tmp_path, "cold", store=store)
        h = stats.store.spec_hash
        # Simulate a writer that died before the atomic rename.
        orphan = store.shard_path(h, SEED, 999, 1009) + ".tmp"
        with open(orphan, "wb") as fh:
            fh.write(b"partial")
        assert store.load_shard(h, SEED, 999, 1009) is None
        removed = store.gc()
        assert removed == [orphan]
        assert not os.path.exists(orphan)
        # Committed shards were not touched.
        assert store.ls()[0].n_runs == N_RUNS

    def test_gc_keep_removes_unkept_specs_only(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        stats, _, _ = sweep(tmp_path, "cold", store=store)
        other = make_runner(engine="reference")
        other_stats = other.run_many(N_RUNS, max_steps=MAX_STEPS,
                                     shard_size=SHARD, store=store)
        keep, drop = stats.store.spec_hash, other_stats.store.spec_hash
        would = store.gc(keep=[keep[:12]], dry_run=True)
        assert len(store.ls()) == 2  # dry run touched nothing
        removed = store.gc(keep=[keep[:12]])
        assert would == removed
        entry, = store.ls()
        assert entry.spec_hash == keep
        assert drop not in {e.spec_hash for e in store.ls()}

    def test_damaged_shard_raises_not_reexecutes(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        stats, _, _ = sweep(tmp_path, "cold", store=store)
        path = store.shard_path(stats.store.spec_hash, SEED, 0, SHARD)
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        with pytest.raises(StoreError, match="unreadable shard"):
            store.load_shard(stats.store.spec_hash, SEED, 0, SHARD)

    def test_mismatched_key_rejected(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        spec = RunSpec(protocol=ProtocolSpec("two", 2),
                       scheduler=SchedulerSpec("random"),
                       inputs=ConstantInputs(("a", "b")),
                       obs=ObsOptions(metrics=True, journal=True))
        store.commit_shard(spec, SEED,
                           ShardPayload(start=0, stop=10, runs=[]))
        good = store.shard_path(spec.spec_hash(), SEED, 0, 10)
        # File a copy under the wrong range name.
        bad = store.shard_path(spec.spec_hash(), SEED, 10, 20)
        with open(good, "rb") as src, open(bad, "wb") as dst:
            dst.write(src.read())
        with pytest.raises(StoreError, match="keyed"):
            store.load_shard(spec.spec_hash(), SEED, 10, 20)

    def test_format_marker_guards_the_root(self, tmp_path):
        root = tmp_path / "store"
        RunStore(str(root))
        import json

        with open(root / "store.json", "w") as fh:
            json.dump({"repro_store": 999}, fh)
        with pytest.raises(StoreError, match="format"):
            RunStore(str(root))

    def test_show_by_prefix(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        stats, _, _ = sweep(tmp_path, "cold", store=store)
        doc = store.show(stats.store.spec_hash[:10])
        assert doc["spec_hash"] == stats.store.spec_hash
        assert doc["seeds"][SEED] == [(i, i + SHARD)
                                      for i in range(0, N_RUNS, SHARD)]
        with pytest.raises(StoreError, match="no stored spec"):
            store.show("ffffffff")


class TestSelfHealing:
    """Format-2 checksums: damage is detected, quarantined, recomputed."""

    def _damaged(self, tmp_path, mode="bitflip"):
        from repro.faults import corrupt_file

        store = RunStore(str(tmp_path / "store"))
        stats, _, _ = sweep(tmp_path, "cold", store=store)
        path = store.shard_path(stats.store.spec_hash, SEED, 0, SHARD)
        corrupt_file(path, mode)
        return store, stats.store.spec_hash, path

    def test_checksum_catches_a_single_flipped_bit(self, tmp_path):
        store, h, _ = self._damaged(tmp_path, "bitflip")
        with pytest.raises(StoreError, match="checksum"):
            store.load_shard(h, SEED, 0, SHARD)

    def test_truncation_is_unreadable(self, tmp_path):
        store, h, _ = self._damaged(tmp_path, "truncate")
        with pytest.raises(StoreError, match="unreadable shard"):
            store.load_shard(h, SEED, 0, SHARD)

    def test_healing_load_quarantines_and_answers_none(self, tmp_path):
        store, h, path = self._damaged(tmp_path)
        assert store.load_shard(h, SEED, 0, SHARD, heal=True) is None
        assert store.healed == [path]
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        # The quarantined file is gone from the address space: a
        # fresh load sees a plain miss, not damage.
        assert store.load_shard(h, SEED, 0, SHARD) is None

    def test_healing_resume_is_bit_identical(self, tmp_path, baseline):
        base_stats, base_journal, base_metrics = baseline
        store, _, path = self._damaged(tmp_path)
        stats, journal, metrics = sweep(tmp_path, "healed", store=store)
        assert stats.runs == base_stats.runs
        assert journal == base_journal
        assert metrics == base_metrics
        # Exactly the damaged shard re-executed; the rest came cached.
        assert stats.store.misses == 1
        assert stats.store.hits == N_RUNS // SHARD - 1
        assert os.path.exists(path)  # recommitted whole

    def test_verify_reports_damage_without_modifying(self, tmp_path):
        store, h, path = self._damaged(tmp_path)
        verdicts = store.verify()
        assert len(verdicts) == N_RUNS // SHARD
        bad = [v for v in verdicts if not v.ok]
        assert [v.path for v in bad] == [path]
        assert "checksum" in bad[0].detail
        assert all(v.spec_hash == h for v in verdicts)
        assert os.path.exists(path)  # verify never touches files
        # Prefix filtering mirrors `show`.
        assert store.verify(h[:10]) == verdicts
        with pytest.raises(StoreError, match="no stored spec"):
            store.verify("ffffffff")

    def test_verify_clean_store_is_all_ok(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        sweep(tmp_path, "cold", store=store)
        verdicts = store.verify()
        assert len(verdicts) == N_RUNS // SHARD
        assert all(v.ok for v in verdicts)
        assert all("runs" in v.detail for v in verdicts)

    def test_gc_sweeps_quarantined_corpses(self, tmp_path):
        store, h, path = self._damaged(tmp_path)
        store.load_shard(h, SEED, 0, SHARD, heal=True)
        removed = store.gc()
        assert removed == [path + ".corrupt"]
        assert store.ls()[0].n_runs == N_RUNS - SHARD


class TestStoreRefusals:
    def test_arbitrary_factories_refused_up_front(self, tmp_path):
        from repro.spec import SpecError
        from test_spec import _module_level_protocol_factory

        store = RunStore(str(tmp_path / "store"))
        runner = ExperimentRunner(
            protocol_factory=_module_level_protocol_factory,
            scheduler_factory=SchedulerSpec("random"),
            inputs_factory=ConstantInputs(("a", "b")),
            seed=SEED)
        with pytest.raises(SpecError, match="store-backed sweeps"):
            runner.run_many(N_RUNS, max_steps=MAX_STEPS, store=store)

    def test_stats_pickle_round_trip(self):
        s = StoreStats(spec_hash="ab", hits=2, misses=1,
                       runs_from_cache=20, runs_executed=10)
        assert pickle.loads(pickle.dumps(s)) == s
        assert not s.fully_cached
