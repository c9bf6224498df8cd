"""High-level convenience API.

Most users of this library want one thing: "run protocol X on inputs Y
under scheduler Z and tell me what happened".  :func:`solve` does that
and packages the answer, with the paper's correctness properties
pre-checked on the resulting run.

For batch experiments use :class:`repro.sim.runner.ExperimentRunner`;
for exhaustive verification use :mod:`repro.checker`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, Optional, Sequence

from repro.core.protocol import ConsensusProtocol
from repro.sim.kernel import RunResult, Simulation
from repro.sim.rng import ReplayableRng
from repro.sim.trace import Trace


@dataclasses.dataclass(frozen=True)
class ConsensusOutcome:
    """What one consensus run produced.

    ``value`` is the agreed value if all live processors decided the
    same thing; ``None`` if the run was cut off by the step budget
    before everyone decided.
    """

    value: Optional[Hashable]
    decisions: Dict[int, Hashable]
    steps: int
    steps_per_processor: Dict[int, int]
    consistent: bool
    nontrivial: bool
    completed: bool
    trace: Optional[Trace]

    @classmethod
    def from_run(cls, result: RunResult) -> "ConsensusOutcome":
        values = result.decided_values
        agreed = next(iter(values)) if len(values) == 1 and result.all_decided else None
        return cls(
            value=agreed,
            decisions=dict(result.decisions),
            steps=result.total_steps,
            steps_per_processor=dict(result.activations),
            consistent=result.consistent,
            nontrivial=result.nontrivial,
            completed=result.completed,
            trace=result.trace,
        )


def solve(
    protocol: ConsensusProtocol,
    inputs: Sequence[Hashable],
    scheduler=None,
    seed: int = 0,
    max_steps: int = 100_000,
    record_trace: bool = False,
    sinks: Sequence = (),
    memory=None,
    engine: Optional[str] = None,
) -> ConsensusOutcome:
    """Run one consensus instance and return its outcome.

    Parameters
    ----------
    protocol:
        Any coordination protocol from :mod:`repro.core`.
    inputs:
        One input per processor.
    scheduler:
        Defaults to a fair random scheduler seeded from ``seed``.
    seed:
        Root seed; identical calls reproduce identical runs.
    max_steps:
        Step budget; generous by default (the paper's protocols decide
        in expected O(1) phases, so hitting this means trouble worth
        seeing).
    record_trace:
        Keep the full step trace on the outcome.
    sinks:
        Observability sinks (:mod:`repro.obs`) to attach to the run —
        e.g. a :class:`~repro.obs.metrics.MetricsRegistry` or a
        :class:`~repro.obs.journal.JsonlJournal`.
    memory:
        Register semantics: ``None`` (atomic, the default), a name in
        ``("atomic", "regular", "safe")``, or a
        :class:`~repro.sim.memory.MemorySpec` — see docs/MODEL.md.
    engine:
        Execution backend, resolved through the registry
        (:mod:`repro.engines`): ``"fast"`` (default), ``"reference"``,
        or ``"vector"`` (compiled table IR — bit-identical for the
        supported matrix, see docs/IR.md).

    Example
    -------
    >>> from repro.core import TwoProcessProtocol
    >>> outcome = solve(TwoProcessProtocol(), ["a", "b"], seed=7)
    >>> outcome.value in ("a", "b") and outcome.consistent
    True
    """
    from repro.engines import resolve_sim_engine

    engine = resolve_sim_engine(engine).name
    rng = ReplayableRng(seed)
    if scheduler is None:
        from repro.sched.simple import RandomScheduler

        scheduler = RandomScheduler(rng.child("sched"))
    if engine == "vector":
        from repro.ir import VectorKernel, compile_protocol, \
            replay_run, vectorize_scheduler

        vk = VectorKernel(compile_protocol(protocol),
                          vectorize_scheduler(scheduler), memory=memory)
        # A random scheduler's own stream is the one the interpreted
        # kernels would consult; round-robin consults none.
        sched_rng = scheduler._rng if vk.sched_spec[0] == "random" \
            else None
        result, rec = vk.run(
            inputs, sched_rng, rng.child("kernel"), max_steps,
            record=bool(sinks), record_trace=record_trace)
        if sinks:
            replay_run(vk.compiled, result, rec, sinks, seed, 0)
        return ConsensusOutcome.from_run(result)
    # Single-run convention: this run's replay key is (seed, 0), so a
    # span tracer attached here derives the same trace id every call.
    # It precedes construction, which a profiler times as setup.
    for sink in sinks:
        run_key = getattr(sink, "on_run_key", None)
        if run_key is not None:
            run_key(seed, 0)
    sim = Simulation(
        protocol,
        inputs,
        scheduler,
        rng.child("kernel"),
        record_trace=record_trace,
        sinks=sinks,
        engine=engine,
        memory=memory,
    )
    return ConsensusOutcome.from_run(sim.run(max_steps))
