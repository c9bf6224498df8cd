"""Per-phase and per-component time attribution — flamegraph fuel.

:class:`TimeAttributionProfiler` is the package's timing sink.  It
sets ``wants_timing``; the kernel reads ``perf_counter`` only when some
attached sink does, so metrics or journal sinks alone never pay for
clock reads.  It keeps the seconds and event count of every phase the
kernel emits:

``sched``       one scheduler consultation sequence (including any
                injected crashes) before a step
``step``        one processor step (a :meth:`Simulation.step_processor`
                execution, or one step of a run)
``transition``  the step's own work outside weak-memory resolution:
                branch sampling, register access, the automaton
                transition (``observe``) and decision tracking; a
                subset of ``step``
``memory``      weak-memory value resolution inside a step (pending-
                write commit, legal-set computation, adversary
                consultation, write installation); a subset of
                ``step``, disjoint from ``transition``, and never
                emitted under atomic semantics (atomic register access
                is transition work)

:meth:`~TimeAttributionProfiler.render_phases` prints that table.  The
profiler then answers the budgeting question behind it: *which
component owns each microsecond of a run* — the scheduler (the
adversary), the protocol transition function, the memory model, the
kernel's own bookkeeping, or the observability hooks themselves.  It
folds the phases into five disjoint components:

``scheduler``   the ``sched`` phase — adversary consultations, crash
                injection, liveness filtering
``transition``  the ``transition`` phase
``memory``      the ``memory`` phase (zero under atomic semantics)
``kernel``      the remainder of ``step`` — the per-step event
                emissions to per-step sinks
``hooks``       run wall time not inside ``sched`` or ``step`` — run-
                level hub fan-out, run-tally folds, loop overhead

The components tile the run: their sum equals measured wall time (up to
clock granularity; negative residuals clamp to zero).  Each profiler
carries a frame prefix like ``("two_process", "random", "atomic")`` so
:meth:`stacks` yields folded-stack rows
``protocol;scheduler_name;memory;component`` ready for
:func:`repro.obs.export.folded_stacks`, and :func:`profile_matrix`
sweeps a protocol × scheduler × memory grid into one flamegraph.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.obs.hooks import BaseSink

#: Attribution components, in render order.
COMPONENTS = ("scheduler", "transition", "memory", "kernel", "hooks")


class TimeAttributionProfiler(BaseSink):
    """Timing sink attributing run wall time to stack components.

    Attach one per configuration; the ``frames`` prefix names the
    configuration in folded-stack output.  Attribution is derived, not
    measured twice: ``kernel = step - transition - memory`` and
    ``hooks = run_wall - sched - step``, both clamped at zero (the
    phases nest, so residuals are non-negative up to clock jitter).
    """

    wants_timing = True

    def __init__(self, frames: Sequence[str] = ()) -> None:
        self.frames: Tuple[str, ...] = tuple(frames)
        self.phase_seconds: Dict[str, float] = {}
        self.phase_counts: Dict[str, int] = {}
        self.run_seconds = 0.0
        self.n_runs = 0
        self._run_t0: Optional[float] = None

    # -- sink protocol -------------------------------------------------

    def on_phase_time(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) \
            + seconds
        self.phase_counts[phase] = self.phase_counts.get(phase, 0) + 1

    def on_run_start(self, protocol_name: str, n_processes: int,
                     inputs: Tuple[Hashable, ...]) -> None:
        self._run_t0 = time.perf_counter()

    def on_run_end(self, result) -> None:
        if self._run_t0 is not None:
            self.run_seconds += time.perf_counter() - self._run_t0
            self._run_t0 = None
        self.n_runs += 1

    # -- attribution ---------------------------------------------------

    def components(self) -> Dict[str, float]:
        """Seconds per component; keys are :data:`COMPONENTS`."""
        sched = self.phase_seconds.get("sched", 0.0)
        step = self.phase_seconds.get("step", 0.0)
        transition = self.phase_seconds.get("transition", 0.0)
        memory = self.phase_seconds.get("memory", 0.0)
        return {
            "scheduler": sched,
            "transition": transition,
            "memory": memory,
            "kernel": max(0.0, step - transition - memory),
            "hooks": max(0.0, self.run_seconds - sched - step),
        }

    def stacks(self) -> List[Tuple[Tuple[str, ...], float]]:
        """Folded-stack rows: ``frames + (component,) -> seconds``."""
        return [(self.frames + (name,), seconds)
                for name, seconds in self.components().items()
                if seconds > 0.0]

    def merge(self, other: "TimeAttributionProfiler") -> None:
        """Fold another profiler (same frames) in; durations add."""
        if other.frames != self.frames:
            raise ValueError(
                f"cannot merge profiler for {other.frames} into "
                f"{self.frames}")
        for phase, seconds in other.phase_seconds.items():
            self.phase_seconds[phase] = \
                self.phase_seconds.get(phase, 0.0) + seconds
        for phase, count in other.phase_counts.items():
            self.phase_counts[phase] = \
                self.phase_counts.get(phase, 0) + count
        self.run_seconds += other.run_seconds
        self.n_runs += other.n_runs

    def to_dict(self) -> Dict[str, object]:
        return {
            "frames": list(self.frames),
            "runs": self.n_runs,
            "run_seconds": self.run_seconds,
            "components": self.components(),
        }

    def render_phases(self) -> str:
        """The phase table: seconds, event count and mean per phase."""
        width = max(map(len, self.phase_counts), default=0)
        lines = []
        for name, count in sorted(self.phase_counts.items()):
            seconds = self.phase_seconds[name]
            lines.append(f"  {name:<{width}}  {seconds:.4f}s over {count} "
                         f"events ({seconds * 1e6 / count:.2f}us mean)")
        return "\n".join(lines)

    def render(self) -> str:
        comps = self.components()
        total = sum(comps.values()) or 1.0
        head = ";".join(self.frames) if self.frames else "(all)"
        lines = [f"{head}: {self.n_runs} runs, "
                 f"{self.run_seconds * 1e3:.2f}ms wall"]
        for name in COMPONENTS:
            seconds = comps[name]
            lines.append(f"  {name:<10}  {seconds * 1e6:10.1f}us  "
                         f"{100.0 * seconds / total:5.1f}%")
        return "\n".join(lines)


def profile_matrix(configs: Iterable[Dict], runs: int = 20,
                   max_steps: int = 2000,
                   root_seed: int = 2026) -> List[TimeAttributionProfiler]:
    """Profile a grid of configurations, one profiler per cell.

    ``configs`` is an iterable of keyword dicts for
    :class:`repro.sim.runner.ExperimentRunner` — each must carry
    ``protocol_factory`` / ``scheduler_factory`` / ``inputs_factory``
    and may carry ``memory``, ``seed`` (default ``root_seed``), or a
    ``frames`` tuple naming the cell explicitly.  Without ``frames``
    the cell is named from the protocol's ``name`` attribute, the
    scheduler factory's name, and the memory spec, so the folded
    output distinguishes every cell.  Feed the concatenated
    :meth:`~TimeAttributionProfiler.stacks` to
    :func:`repro.obs.export.folded_stacks` for a flamegraph.
    """
    # Imported here: repro.obs must stay importable from the kernel
    # without dragging the runner (and the kernel itself) back in.
    from repro.sim.runner import ExperimentRunner

    profilers: List[TimeAttributionProfiler] = []
    for overrides in configs:
        kwargs = dict(overrides)
        frames = kwargs.pop("frames", None)
        kwargs.setdefault("seed", root_seed)
        if frames is None:
            protocol = kwargs["protocol_factory"]()
            sched_factory = kwargs["scheduler_factory"]
            frames = (
                getattr(protocol, "name", type(protocol).__name__),
                getattr(sched_factory, "__name__",
                        type(sched_factory).__name__),
                str(kwargs.get("memory") or "atomic"),
            )
        profiler = TimeAttributionProfiler(tuple(frames))
        runner = ExperimentRunner(sinks=[profiler], **kwargs)
        runner.run_many(runs, max_steps=max_steps)
        profilers.append(profiler)
    return profilers


def matrix_stacks(profilers: Iterable[TimeAttributionProfiler],
                  ) -> List[Tuple[Tuple[str, ...], float]]:
    """Concatenate every profiler's folded-stack rows."""
    out: List[Tuple[Tuple[str, ...], float]] = []
    for profiler in profilers:
        out.extend(profiler.stacks())
    return out
