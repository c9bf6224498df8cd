"""Tests for the engine registry (:mod:`repro.engines`).

Before the registry, the runner, ``solve``, the explorer,
``verify_safety`` and the CLI each carried a hand-rolled
``if engine not in (...)`` block with its own error text, and each one
needed its own rejection test.  Now there is exactly one validation
point, so the vocabulary, the default resolution, and the did-you-mean
error are tested exactly once — here — while the call-site tests below
only check that each path *routes through* it.
"""

from __future__ import annotations

import pytest

from repro.engines import (
    CHECKER,
    SIM,
    EngineInfo,
    UnknownEngineError,
    default_engine,
    engine_names,
    register_engine,
    resolve_engine,
    resolve_sim_engine,
)


class TestRegistry:
    def test_builtin_vocabulary(self):
        assert engine_names(SIM) == ("reference", "fast", "vector")
        assert engine_names(CHECKER) == ("objects", "fingerprints")

    def test_defaults(self):
        assert default_engine(SIM).name == "fast"
        assert default_engine(CHECKER).name == "objects"
        assert resolve_engine(SIM, None).name == "fast"
        assert resolve_engine(CHECKER, None).name == "objects"

    def test_capability_flags(self):
        assert resolve_engine(SIM, "reference").standalone
        assert resolve_engine(SIM, "fast").standalone
        assert not resolve_engine(SIM, "vector").standalone
        assert resolve_engine(SIM, "vector").batch_shape == "lockstep"
        assert resolve_engine(CHECKER, "objects").batch_shape == "graph"
        fp = resolve_engine(CHECKER, "fingerprints")
        assert fp.batch_shape == "level" and fp.reductions
        assert not resolve_engine(CHECKER, "objects").reductions

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_engine(EngineInfo(name="fast", kind=SIM, summary="x"))

    def test_second_default_rejected(self):
        with pytest.raises(ValueError, match="already has a default"):
            register_engine(EngineInfo(name="novel", kind=SIM,
                                       summary="x", default=True))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown engine kind"):
            resolve_engine("solver", "fast")
        with pytest.raises(ValueError, match="unknown engine kind"):
            register_engine(EngineInfo(name="x", kind="solver",
                                       summary="x"))


class TestTheOneValidationError:
    """The consolidated error message, tested once instead of five times."""

    def test_unknown_is_a_value_error(self):
        # Legacy callers catch ValueError; the subclass keeps them alive.
        assert issubclass(UnknownEngineError, ValueError)
        with pytest.raises(ValueError):
            resolve_engine(SIM, "warp")

    def test_vocabulary_in_message(self):
        with pytest.raises(UnknownEngineError,
                           match="'reference', 'fast', 'vector'"):
            resolve_engine(SIM, "warp")
        with pytest.raises(UnknownEngineError,
                           match="'objects', 'fingerprints'"):
            resolve_engine(CHECKER, "warp")

    def test_did_you_mean(self):
        with pytest.raises(UnknownEngineError, match="did you mean 'fast'"):
            resolve_engine(SIM, "fsat")
        with pytest.raises(UnknownEngineError,
                           match="did you mean 'objects'"):
            resolve_engine(CHECKER, "objcts")

    def test_wrong_kind_hint(self):
        # A real engine of the other kind gets a cross-kind hint, not a
        # fuzzy suggestion.
        with pytest.raises(UnknownEngineError,
                           match="is a checker engine"):
            resolve_engine(SIM, "fingerprints")
        with pytest.raises(UnknownEngineError, match="is a sim engine"):
            resolve_engine(CHECKER, "vector")


class TestDeprecatedFastAlias:
    """The deprecated ``fast=`` alias is gone: every call site that
    once warned now rejects the keyword outright."""

    def test_fast_keyword_is_a_type_error(self):
        from repro.core.consensus import solve
        from repro.core.two_process import TwoProcessProtocol
        from repro.parallel.engine import BatchSpec
        from repro.parallel.tasks import (ConstantInputs, ProtocolSpec,
                                          SchedulerSpec)
        from repro.sched.simple import RoundRobinScheduler
        from repro.sim.kernel import Simulation
        from repro.sim.rng import ReplayableRng
        from repro.sim.runner import ExperimentRunner

        factories = dict(protocol_factory=ProtocolSpec("two", 2),
                         scheduler_factory=SchedulerSpec("random"),
                         inputs_factory=ConstantInputs(("a", "b")),
                         seed=0)
        calls = (
            lambda: resolve_sim_engine(None, fast=True),
            lambda: Simulation(TwoProcessProtocol(), ("a", "b"),
                               RoundRobinScheduler(), ReplayableRng(0),
                               fast=False),
            lambda: solve(TwoProcessProtocol(), ("a", "b"), fast=True),
            lambda: ExperimentRunner(**factories, fast=True),
            lambda: BatchSpec(**factories, fast=False),
        )
        for call in calls:
            with pytest.raises(TypeError, match="fast"):
                call()

    def test_no_alias_no_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_sim_engine("reference").name == "reference"
            assert resolve_sim_engine(None).name == "fast"


class TestCallSitesRouteThroughRegistry:
    """Every selection path rejects via the registry's single error."""

    def test_simulation(self):
        from repro.core.two_process import TwoProcessProtocol
        from repro.sched.simple import RoundRobinScheduler
        from repro.sim.kernel import Simulation
        from repro.sim.rng import ReplayableRng

        with pytest.raises(UnknownEngineError, match="did you mean"):
            Simulation(TwoProcessProtocol(), ("a", "b"),
                       RoundRobinScheduler(), ReplayableRng(0),
                       engine="fsat")

    def test_runner(self):
        from repro.parallel.tasks import (ConstantInputs, ProtocolSpec,
                                          SchedulerSpec)
        from repro.sim.runner import ExperimentRunner

        with pytest.raises(UnknownEngineError):
            ExperimentRunner(
                protocol_factory=ProtocolSpec("two", 2),
                scheduler_factory=SchedulerSpec("random"),
                inputs_factory=ConstantInputs(("a", "b")),
                seed=0, engine="vectr")

    def test_solve(self):
        from repro.core.consensus import solve
        from repro.core.two_process import TwoProcessProtocol

        with pytest.raises(UnknownEngineError):
            solve(TwoProcessProtocol(), ("a", "b"), seed=0,
                  engine="refrence")

    def test_batch_spec(self):
        from repro.parallel.engine import BatchSpec
        from repro.parallel.tasks import (ConstantInputs, ProtocolSpec,
                                          SchedulerSpec)

        with pytest.raises(UnknownEngineError):
            BatchSpec(protocol_factory=ProtocolSpec("two", 2),
                      scheduler_factory=SchedulerSpec("random"),
                      inputs_factory=ConstantInputs(("a", "b")),
                      seed=0, engine="fats")

    def test_verify_safety(self):
        from repro.checker import verify_safety
        from repro.core.two_process import TwoProcessProtocol

        with pytest.raises(UnknownEngineError):
            verify_safety(TwoProcessProtocol(), ("a", "b"),
                          engine="fingreprints")

    def test_cli_engine_flags(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (["solve", "--engine", "fsat"],
                     ["report", "--engine", "fsat"],
                     ["trace", "--engine", "fsat"],
                     ["verify", "--engine", "objcts"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            err = capsys.readouterr().err
            assert "did you mean" in err

    def test_vector_needs_batch_entry_points(self):
        # Capability check, not name check: "vector" is registered but
        # cannot back a standalone Simulation.
        from repro.core.two_process import TwoProcessProtocol
        from repro.errors import SimulationError
        from repro.sched.simple import RoundRobinScheduler
        from repro.sim.kernel import Simulation
        from repro.sim.rng import ReplayableRng

        with pytest.raises(SimulationError, match="lockstep"):
            Simulation(TwoProcessProtocol(), ("a", "b"),
                       RoundRobinScheduler(), ReplayableRng(0),
                       engine="vector")

    def test_reductions_need_capability(self):
        from repro.checker import verify_safety
        from repro.core.two_process import TwoProcessProtocol

        with pytest.raises(ValueError, match="fingerprints"):
            verify_safety(TwoProcessProtocol(), ("a", "b"),
                          engine="objects", symmetry=True)
        with pytest.raises(ValueError, match="no reduction support"):
            verify_safety(TwoProcessProtocol(), ("a", "b"),
                          engine="objects", exact=True)
