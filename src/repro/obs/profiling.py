"""Per-run time attribution — flamegraph fuel.

:class:`TimeAttributionProfiler` times each run's layers from run-level
events, reading ``perf_counter`` once per event.  It declares
``per_step = False``, so under the fast engine it takes no per-step
event and a profiled sweep runs the same step loop as a bare one.  Two
layers tile a run:

``setup``  ``on_run_key`` to ``on_run_start``: the run's stream
           derivation, the protocol, scheduler and inputs factories,
           and :class:`~repro.sim.kernel.Simulation` construction
``loop``   ``on_run_start`` to ``on_run_end``: the step loop, the
           run-tally fold and the :class:`~repro.sim.kernel.RunResult`
           snapshot

Only the runner (and ``solve``) deliver ``on_run_key``, so a bare
:class:`~repro.sim.kernel.Simulation` run has ``setup`` 0.  For a split
inside the loop, use the span tracer's wall clock (``repro trace
--wall``).  Each profiler carries a frame prefix like
``("two_process", "random", "atomic")`` so :meth:`stacks` yields
folded-stack rows ``protocol;scheduler_name;memory;layer`` ready for
:func:`repro.obs.export.folded_stacks`, and :func:`profile_matrix`
sweeps a protocol × scheduler × memory grid into one flamegraph.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.obs.hooks import BaseSink

#: Attribution layers, in render order.
COMPONENTS = ("setup", "loop")


class TimeAttributionProfiler(BaseSink):
    """Run-level sink attributing run wall time to per-run layers.

    Attach one per configuration; the ``frames`` prefix names the
    configuration in folded-stack output.
    """

    per_step = False

    def __init__(self, frames: Sequence[str] = ()) -> None:
        self.frames: Tuple[str, ...] = tuple(frames)
        self.setup_seconds = 0.0
        self.loop_seconds = 0.0
        self.n_runs = 0
        # The clock at the current run's last run-level event, if any.
        self._mark: Optional[float] = None

    # -- sink protocol -------------------------------------------------

    def on_run_key(self, root_seed: int, run_index: int) -> None:
        self._mark = perf_counter()

    def on_run_start(self, protocol_name: str, n_processes: int,
                     inputs: Tuple[Hashable, ...]) -> None:
        now = perf_counter()
        if self._mark is not None:
            self.setup_seconds += now - self._mark
        self._mark = now

    def on_run_end(self, result) -> None:
        now = perf_counter()
        if self._mark is not None:
            self.loop_seconds += now - self._mark
            self._mark = None
        self.n_runs += 1

    # -- attribution ---------------------------------------------------

    @property
    def run_seconds(self) -> float:
        return self.setup_seconds + self.loop_seconds

    def components(self) -> Dict[str, float]:
        """Seconds per layer; keys are :data:`COMPONENTS`."""
        return {"setup": self.setup_seconds, "loop": self.loop_seconds}

    def stacks(self) -> List[Tuple[Tuple[str, ...], float]]:
        """Folded-stack rows: ``frames + (layer,) -> seconds``."""
        return [(self.frames + (name,), seconds)
                for name, seconds in self.components().items()
                if seconds > 0.0]

    def merge(self, other: "TimeAttributionProfiler") -> None:
        """Fold another profiler (same frames) in; durations add."""
        if other.frames != self.frames:
            raise ValueError(
                f"cannot merge profiler for {other.frames} into "
                f"{self.frames}")
        self.setup_seconds += other.setup_seconds
        self.loop_seconds += other.loop_seconds
        self.n_runs += other.n_runs

    def to_dict(self) -> Dict[str, object]:
        return {
            "frames": list(self.frames),
            "runs": self.n_runs,
            "run_seconds": self.run_seconds,
            "components": self.components(),
        }

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
