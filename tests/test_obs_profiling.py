"""Time-attribution profiler tests: run layers, merging, matrix sweeps."""

from __future__ import annotations

import pytest

from repro.core.three_bounded import ThreeBoundedProtocol
from repro.core.two_process import TwoProcessProtocol
from repro.obs.hooks import split_sinks
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import (
    COMPONENTS,
    TimeAttributionProfiler,
    matrix_stacks,
    profile_matrix,
)
from repro.sched.simple import RandomScheduler, RoundRobinScheduler
from repro.sim.kernel import Simulation
from repro.sim.rng import ReplayableRng
from repro.sim.runner import ExperimentRunner


def profiled_batch(frames=("two", "random", "atomic"), n_runs=5, seed=13):
    profiler = TimeAttributionProfiler(frames)
    runner = ExperimentRunner(
        protocol_factory=lambda: TwoProcessProtocol(),
        scheduler_factory=lambda rng: RandomScheduler(rng),
        inputs_factory=lambda i, rng: ("a", "b"),
        seed=seed,
        sinks=(profiler,),
    )
    runner.run_many(n_runs, max_steps=4000)
    return profiler


class TestAttribution:
    def test_components_tile_the_run(self):
        profiler = profiled_batch()
        comps = profiler.components()
        assert set(comps) == set(COMPONENTS) == {"setup", "loop"}
        # The runner delivers on_run_key, so both layers show up.
        assert comps["setup"] > 0
        assert comps["loop"] > 0
        assert comps["setup"] + comps["loop"] == profiler.run_seconds

    def test_stacks_prefix_frames_and_drop_zeros(self):
        profiler = profiled_batch()
        rows = profiler.stacks()
        names = set()
        for frames, seconds in rows:
            assert frames[:3] == ("two", "random", "atomic")
            assert seconds > 0.0
            names.add(frames[3])
        assert names == {"setup", "loop"}
        # A bare Simulation has no setup layer: its zero row is dropped.
        bare = TimeAttributionProfiler(("bare",))
        rng = ReplayableRng(3)
        Simulation(TwoProcessProtocol(), ("a", "b"),
                   RandomScheduler(rng.child("sched")), rng.child("kernel"),
                   sinks=(bare,)).run(4000)
        assert [frames for frames, _ in bare.stacks()] == [("bare", "loop")]

    def test_run_counting(self):
        profiler = profiled_batch(n_runs=4)
        assert profiler.n_runs == 4
        d = profiler.to_dict()
        assert d["runs"] == 4
        assert d["frames"] == ["two", "random", "atomic"]
        assert d["run_seconds"] == profiler.run_seconds
        assert d["components"] == profiler.components()

    def test_render_mentions_every_component(self):
        text = profiled_batch().render()
        assert text.startswith("two;random;atomic: 5 runs")
        for name in COMPONENTS:
            assert name in text


class TestProductionLoop:
    """The profiler rides the loop a bare sweep runs."""

    def test_no_step_hub_beside_a_registry(self):
        registry = MetricsRegistry()
        hub, step_hub, tallies, transitions = split_sinks(
            (registry, TimeAttributionProfiler()), True)
        assert step_hub is None
        assert tallies == (registry,)
        assert transitions is None
        # Alone, it leaves the loop nothing to fold either.
        assert split_sinks((TimeAttributionProfiler(),), True)[1:] == \
            (None, None, None)

    def test_profiled_sweep_matches_the_bare_one(self):
        bare = MetricsRegistry()
        profiled = MetricsRegistry()
        profiler = TimeAttributionProfiler()
        for sinks in ((bare,), (profiled, profiler)):
            ExperimentRunner(
                protocol_factory=lambda: TwoProcessProtocol(),
                scheduler_factory=lambda rng: RandomScheduler(rng),
                inputs_factory=lambda i, rng: ("a", "b"),
                seed=9, sinks=sinks,
            ).run_many(20, max_steps=4000)
        assert profiled.to_dict() == bare.to_dict()
        assert profiler.n_runs == 20


class TestMerge:
    def test_merge_adds_durations_and_counts(self):
        a = profiled_batch(seed=1)
        b = profiled_batch(seed=2)
        total_runs = a.n_runs + b.n_runs
        expected = {name: a.components()[name] + b.components()[name]
                    for name in COMPONENTS}
        a.merge(b)
        assert a.n_runs == total_runs
        assert a.components() == pytest.approx(expected)

    def test_merge_rejects_mismatched_frames(self):
        a = TimeAttributionProfiler(("two", "random", "atomic"))
        b = TimeAttributionProfiler(("three", "fixed", "safe"))
        with pytest.raises(ValueError, match="cannot merge"):
            a.merge(b)


class TestMatrix:
    def test_profile_matrix_names_cells_automatically(self):
        def random_sched(rng):
            return RandomScheduler(rng)

        profilers = profile_matrix(
            [
                {
                    "protocol_factory": lambda: TwoProcessProtocol(),
                    "scheduler_factory": random_sched,
                    "inputs_factory": lambda i, rng: ("a", "b"),
                },
                {
                    "protocol_factory": lambda: ThreeBoundedProtocol(),
                    "scheduler_factory": random_sched,
                    "inputs_factory": lambda i, rng: ("a", "b", "a"),
                    "memory": "safe",
                    "frames": ("cell2", "named"),
                },
            ],
            runs=3, max_steps=2000,
        )
        assert len(profilers) == 2
        assert profilers[0].frames[1] == "random_sched"
        assert profilers[0].frames[2] == "atomic"
        assert profilers[1].frames == ("cell2", "named")
        assert all(p.n_runs == 3 for p in profilers)

    def test_matrix_stacks_concatenates_cells(self):
        a = profiled_batch(frames=("a",), seed=1, n_runs=2)
        b = profiled_batch(frames=("b",), seed=2, n_runs=2)
        rows = matrix_stacks([a, b])
        heads = {frames[0] for frames, _ in rows}
        assert heads == {"a", "b"}
        assert len(rows) == len(a.stacks()) + len(b.stacks())
