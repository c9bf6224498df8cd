"""Span tracer tests: non-perturbation, determinism, v3 journals.

The tracer's contract has three legs:

1. **Non-perturbation** — attaching a tracer must not change a seeded
   run in any observable way: same RunResult fields, same per-processor
   RNG draw counts, same journal bytes.  Enforced differentially across
   the zoo of ``tests/differential.py`` (protocol × scheduler × memory).
2. **Deterministic identity** — trace and span ids are pure functions
   of the replay key ``(root_seed, run_index)``; replaying a run
   reproduces its byte-identical span tree.
3. **Journal schema v3** — spans round-trip through the journal's
   optional ``span`` lines without disturbing replay.
"""

from __future__ import annotations

import json
import time

import pytest

from differential import (CELLS, MEMORIES, PROTOCOLS, SCHEDULERS,
                          assert_identical, run_cell, run_zoo)
from repro.checker.explorer import explore
from repro.core.consensus import solve
from repro.core.two_process import TwoProcessProtocol
from repro.obs import JsonlJournal, replay_journal
from repro.obs.journal import iter_spans, verify_journal
from repro.obs.tracing import (Span, Tracer, render_span_tree, span_id_for,
                               trace_id_for)
from repro.sched.crash import CrashingScheduler, CrashPlan
from repro.sched.simple import RandomScheduler
from repro.sim.kernel import Simulation
from repro.sim.rng import ReplayableRng

SEED = 7


# ----------------------------------------------------------------------
# Leg 1: the tracer cannot perturb a run
# ----------------------------------------------------------------------

class TestTracerNonPerturbation:
    @pytest.mark.parametrize("cell", CELLS, ids="-".join)
    def test_results_identical_with_tracer(self, cell):
        bare, draws_bare = run_zoo("fast", cell, SEED)
        traced, draws_traced = run_zoo("fast", cell, SEED,
                                       sinks=(Tracer(),))
        assert_identical(bare, traced)
        assert draws_bare == draws_traced

    @pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("memory", MEMORIES)
    @pytest.mark.parametrize("engine", ("fast", "reference"))
    def test_memory_matrix_identical_with_tracer(self, protocol_name,
                                                 memory, engine):
        cell = (protocol_name, "random", memory)
        bare, draws_bare = run_zoo(engine, cell, SEED)
        traced, draws_traced = run_zoo(engine, cell, SEED,
                                       sinks=(Tracer(),))
        assert_identical(bare, traced)
        assert draws_bare == draws_traced

    @pytest.mark.parametrize("memory", MEMORIES)
    def test_journal_bytes_identical_with_tracer(self, tmp_path, memory):
        paths = []
        for label, extra in (("bare", ()), ("traced", (Tracer(),))):
            path = tmp_path / f"{label}.jsonl"
            journal = JsonlJournal(str(path), memory=memory)
            run_zoo("fast", ("three_bounded", "split_vote", memory), SEED,
                    sinks=(journal,) + extra)
            journal.close()
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


# ----------------------------------------------------------------------
# Leg 2: deterministic identity
# ----------------------------------------------------------------------

def traced_run(seed, index, clock=None, max_spans=4096, **runner_kw):
    """One runner-keyed run; returns the tracer."""
    from repro.parallel.tasks import (ConstantInputs, ProtocolSpec,
                                      SchedulerSpec)
    from repro.sim.runner import ExperimentRunner

    tracer = Tracer(clock=clock, max_spans=max_spans)
    runner = ExperimentRunner(
        protocol_factory=ProtocolSpec("two", 2),
        scheduler_factory=SchedulerSpec("random"),
        inputs_factory=ConstantInputs(("a", "b")),
        seed=seed,
        sinks=(tracer,),
        **runner_kw,
    )
    runner.run_one(index, 3_000)
    return tracer


class TestDeterministicIdentity:
    def test_id_functions_are_pure(self):
        assert trace_id_for(42, 3) == trace_id_for(42, 3)
        assert len(trace_id_for(42, 3)) == 32
        assert len(span_id_for(42, 3, 0)) == 16
        assert trace_id_for(42, 3) != trace_id_for(42, 4)
        assert trace_id_for(42, 3) != trace_id_for(43, 3)
        assert span_id_for(42, 3, 0) != span_id_for(42, 3, 1)

    def test_runner_key_pins_trace_id(self):
        tracer = traced_run(42, 5)
        spans = tracer.trace()
        assert spans
        assert all(s.trace_id == trace_id_for(42, 5) for s in spans)
        assert spans[0].span_id == span_id_for(42, 5, 0)

    def test_replay_produces_identical_trace(self):
        first = [s.to_dict() for s in traced_run(42, 5).trace()]
        second = [s.to_dict() for s in traced_run(42, 5).trace()]
        assert first == second

    def test_clock_adds_wall_us_but_keeps_ids(self):
        plain = traced_run(42, 5).trace()
        walled = traced_run(42, 5, clock=time.perf_counter).trace()
        assert [s.span_id for s in plain] == [s.span_id for s in walled]
        assert [(s.start, s.end) for s in plain] \
            == [(s.start, s.end) for s in walled]
        assert all("wall_us" not in s.attrs for s in plain)
        assert "wall_us" in walled[0].attrs

    def test_solve_keys_run_zero(self):
        tracer = Tracer()
        solve(TwoProcessProtocol(), ["a", "b"], seed=9,
              sinks=(tracer,))
        assert tracer.trace()[0].trace_id == trace_id_for(9, 0)

    def test_direct_simulation_synthesizes_keys(self):
        tracer = Tracer()
        for expected_index in (0, 1):
            rng = ReplayableRng(SEED)
            Simulation(TwoProcessProtocol(), ("a", "b"),
                       RandomScheduler(rng.child("sched")),
                       rng.child("kernel"), sinks=(tracer,)).run(3_000)
            assert tracer.trace()[0].trace_id \
                == trace_id_for(0, expected_index)


# ----------------------------------------------------------------------
# Span-tree structure
# ----------------------------------------------------------------------

class TestSpanTree:
    def test_tree_shape(self):
        tracer = traced_run(1, 0)
        spans = tracer.trace()
        run = spans[0]
        assert run.name == "run" and run.parent_id is None
        steps = [s for s in spans if s.name == "step"]
        scheds = [s for s in spans if s.name == "sched"]
        assert len(steps) == run.end  # one step span per kernel step
        assert all(s.parent_id == run.span_id for s in steps + scheds)
        assert [s.start for s in steps] == list(range(run.end))
        assert all(s.end == s.start + 1 for s in steps)
        assert run.attrs["completed"] is True
        assert run.attrs["run_index"] == 0 and run.attrs["root_seed"] == 1

    def test_memory_resolve_spans_nest_under_steps(self):
        tracer = Tracer()
        rng = ReplayableRng(SEED)
        Simulation(TwoProcessProtocol(), ("a", "b"),
                   SCHEDULERS["rv_adversarial"](rng.child("sched")),
                   rng.child("kernel"), sinks=(tracer,),
                   memory="safe").run(3_000)
        resolves = [s for s in tracer.trace()
                    if s.name == "memory.resolve"]
        assert resolves, "an adversarial safe run must resolve reads"
        steps = {s.span_id: s for s in tracer.trace() if s.name == "step"}
        for r in resolves:
            parent = steps[r.parent_id]
            assert parent.start == r.start
            assert r.attrs["choices"] >= 1

    def test_crash_span_recorded(self):
        factory, inputs = PROTOCOLS["three_bounded"]
        tracer = Tracer()
        result, _ = run_cell(
            "fast", factory, inputs,
            lambda rng: CrashingScheduler(RandomScheduler(rng),
                                          CrashPlan(at_step={3: 1})),
            SEED, sinks=(tracer,))
        assert result.crashed == frozenset({1})
        crashes = [s for s in tracer.trace() if s.name == "crash"]
        assert len(crashes) == 1
        assert crashes[0].attrs["pid"] == 1

    def test_max_spans_budget(self):
        tracer = traced_run(1, 0, max_spans=8)
        spans = tracer.trace()
        assert len(spans) <= 8
        run = spans[0]
        assert run.attrs["dropped"] > 0
        assert tracer.dropped == run.attrs["dropped"]
        # The run root and the earliest spans survive.
        assert run.name == "run"
        full = traced_run(1, 0).trace()
        assert [s.span_id for s in spans] \
            == [s.span_id for s in full[:len(spans)]]

    def test_render_span_tree(self):
        spans = traced_run(1, 0).trace()
        text = render_span_tree(spans)
        lines = text.splitlines()
        assert lines[0].startswith("run [0..")
        assert any(line.startswith("  step ") for line in lines)
        assert len(lines) == len(spans)
        assert render_span_tree([]) == "(no spans)"


# ----------------------------------------------------------------------
# Leg 3: journal schema v3 span round-trip
# ----------------------------------------------------------------------

class TestJournalV3Spans:
    def _journal_with_spans(self, tmp_path, n_runs=2):
        path = tmp_path / "traced.jsonl"
        journal = JsonlJournal(str(path))
        tracer = Tracer(journal=journal)
        from repro.parallel.tasks import (ConstantInputs, ProtocolSpec,
                                          SchedulerSpec)
        from repro.sim.runner import ExperimentRunner

        runner = ExperimentRunner(
            protocol_factory=ProtocolSpec("two", 2),
            scheduler_factory=SchedulerSpec("random"),
            inputs_factory=ConstantInputs(("a", "b")),
            seed=21,
            sinks=(journal, tracer),
        )
        for i in range(n_runs):
            runner.run_one(i, 3_000)
        journal.close()
        return path, tracer

    def test_spans_round_trip(self, tmp_path):
        path, tracer = self._journal_with_spans(tmp_path)
        read_back = [Span.from_dict(d) for d in iter_spans(str(path))]
        assert [s.to_dict() for s in read_back] \
            == [s.to_dict() for s in tracer.spans]

    def test_replay_ignores_spans(self, tmp_path):
        path, _ = self._journal_with_spans(tmp_path)
        metrics = replay_journal(str(path))
        assert metrics.counters["runs"].value == 2
        assert metrics.counters["runs_completed"].value == 2

    def test_verify_counts_spans(self, tmp_path):
        path, tracer = self._journal_with_spans(tmp_path)
        verdict = verify_journal(str(path))
        assert verdict.ok and verdict.version == 3
        assert verdict.runs == 2
        assert verdict.spans == len(tracer.spans)

    def test_span_lines_are_tagged(self, tmp_path):
        path, _ = self._journal_with_spans(tmp_path)
        kinds = [json.loads(l)["t"] for l in path.read_text().splitlines()]
        assert kinds.count("span") > 0
        # Spans land after their run's run_end record.
        assert kinds.index("span") > kinds.index("run_end")


# ----------------------------------------------------------------------
# Checker spans
# ----------------------------------------------------------------------

class TestCheckerSpans:
    def test_explore_records_span_and_is_unperturbed(self):
        protocol = TwoProcessProtocol()
        bare = explore(protocol, ("a", "b"))
        tracer = Tracer()
        traced = explore(protocol, ("a", "b"), tracer=tracer)
        assert traced.depth_of == bare.depth_of
        assert traced.edges == bare.edges
        spans = tracer.trace()
        assert len(spans) == 1
        span = spans[0]
        assert span.name == "checker.explore"
        assert span.attrs["configs"] == len(bare.depth_of)
        assert span.attrs["complete"] is True
        assert span.end == max(bare.depth_of.values())
        assert "wall_us" not in span.attrs  # no clock attached

    def test_explore_span_keyed_by_run_key(self):
        tracer = Tracer()
        tracer.on_run_key(5, 17)
        explore(TwoProcessProtocol(), ("a", "b"), tracer=tracer)
        assert tracer.trace()[0].trace_id == trace_id_for(5, 17)
