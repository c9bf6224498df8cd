"""The kernel's event-hook protocol and fan-out hub.

Design constraints, in order of priority:

1. **Zero cost when off.**  A :class:`~repro.sim.kernel.Simulation`
   built without sinks keeps ``_obs = None`` and every emission site in
   the hot path collapses to one attribute load and an ``is not None``
   test.  Monte-Carlo batches of millions of steps must not notice the
   instrumentation exists.
2. **Streaming, not retaining.**  Sinks see each event exactly once, in
   the global serialization order the kernel defines; nothing here
   stores events (that is what :class:`~repro.sim.trace.Trace` is for,
   and why it is memory-heavy).
3. **Open protocol.**  Any object implementing a subset of the
   :class:`BaseSink` methods can be attached; unimplemented events are
   inherited no-ops.

Event vocabulary (one method per event, mirroring the kernel):

``on_run_key``      the run's replay coordinates ``(root_seed,
                    run_index)``, delivered by the *runner* (the kernel
                    does not know them) just before ``on_run_start``
``on_run_start``    once per :meth:`Simulation.run` entry
``on_sched``        one scheduler consultation (cumulative count)
``on_coin_flip``    a probabilistic branch was sampled for ``pid``
``on_read_choices`` a weak-memory read had its value resolved from a
                    legal set (>1 choice, or a pre-committed value);
                    emitted just before the matching ``on_read``
``on_read``         a register read, with the value returned
``on_write``        a register write, with the value installed
``on_decision``     ``pid`` entered a decision state at ``activation``
``on_crash``        the scheduler fail-stopped ``pid`` before ``index``
``on_step``         end of one serialized kernel step
``on_run_end``      once per :meth:`Simulation.run` exit
``on_phase_time``   wall-clock span of one phase (timing sinks only)

``on_read_choices`` never fires under the default atomic semantics
(legal sets are singletons and no resolution happens), so pre-PR-4
sinks observe exactly the event streams they always did.

Timing is pull-based: the kernel only reaches for ``perf_counter`` when
some attached sink sets ``wants_timing = True`` (in this package, only
:class:`~repro.obs.profiling.TimeAttributionProfiler` does), so metric
and journal sinks never pay for clock reads.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence, Tuple


class BaseSink:
    """No-op implementation of every kernel event hook.

    Subclass and override the events you care about.  Sinks must not
    mutate anything they are handed (ops and values are the kernel's
    live objects).
    """

    #: Set to True to make the kernel measure phase wall-times and
    #: deliver them via :meth:`on_phase_time`.
    wants_timing: bool = False

    def on_run_key(self, root_seed: int, run_index: int) -> None:
        """The replay coordinates of the run about to start.

        Delivered by :meth:`ExperimentRunner.run_one` (and the
        ``solve`` entry point) before the kernel's ``on_run_start``,
        because only the runner knows which ``(root_seed, run_index)``
        pair seeded the streams.  Sinks that derive deterministic
        identifiers from the key (e.g. the span tracer's trace ids)
        override this; direct :class:`Simulation` users who bypass the
        runner simply never receive it.
        """

    def on_run_start(self, protocol_name: str, n_processes: int,
                     inputs: Tuple[Hashable, ...]) -> None:
        """A run is starting."""

    def on_sched(self, consults: int) -> None:
        """The scheduler was consulted (``consults`` is the running total)."""

    def on_coin_flip(self, pid: int, n_branches: int) -> None:
        """Processor ``pid`` resolved a coin among ``n_branches`` branches."""

    def on_read_choices(self, pid: int, register: str, n_choices: int,
                        chosen: Hashable) -> None:
        """A weak-memory read of ``register`` was resolved by the adversary.

        ``n_choices`` is the size of the legal value set and ``chosen``
        the value picked (also delivered by the following
        :meth:`on_read`).  Never emitted under atomic semantics.
        """

    def on_read(self, pid: int, register: str, value: Hashable) -> None:
        """Processor ``pid`` read ``value`` from ``register``."""

    def on_write(self, pid: int, register: str, value: Hashable) -> None:
        """Processor ``pid`` atomically wrote ``value`` to ``register``."""

    def on_decision(self, pid: int, value: Hashable, activation: int) -> None:
        """Processor ``pid`` decided ``value`` at its ``activation``-th step."""

    def on_crash(self, pid: int, index: int) -> None:
        """The scheduler fail-stopped ``pid`` before global step ``index``."""

    def on_step(self, index: int, pid: int, op, result: Hashable,
                decided: Optional[Hashable]) -> None:
        """One serialized kernel step finished."""

    def on_run_end(self, result) -> None:
        """The run finished; ``result`` is the :class:`RunResult`."""

    def on_phase_time(self, phase: str, seconds: float) -> None:
        """Wall-clock duration of one ``phase`` (timing sinks only)."""


class ObsHub:
    """Fans kernel events out to a tuple of sinks.

    The kernel holds either ``None`` (nothing attached — the fast path)
    or one hub.  Hub methods are plain loops: with one sink attached
    the cost is one extra call per event, and sinks are free to be as
    cheap or expensive as they like.
    """

    __slots__ = ("sinks", "timing")

    def __init__(self, sinks: Iterable[BaseSink]) -> None:
        self.sinks: Tuple[BaseSink, ...] = tuple(sinks)
        self.timing: bool = any(
            getattr(s, "wants_timing", False) for s in self.sinks
        )

    def __len__(self) -> int:
        return len(self.sinks)

    def run_key(self, root_seed: int, run_index: int) -> None:
        for s in self.sinks:
            s.on_run_key(root_seed, run_index)

    def run_start(self, protocol_name: str, n_processes: int,
                  inputs: Tuple[Hashable, ...]) -> None:
        for s in self.sinks:
            s.on_run_start(protocol_name, n_processes, inputs)

    def sched(self, consults: int) -> None:
        for s in self.sinks:
            s.on_sched(consults)

    def coin_flip(self, pid: int, n_branches: int) -> None:
        for s in self.sinks:
            s.on_coin_flip(pid, n_branches)

    def read_choices(self, pid: int, register: str, n_choices: int,
                     chosen: Hashable) -> None:
        for s in self.sinks:
            s.on_read_choices(pid, register, n_choices, chosen)

    def read(self, pid: int, register: str, value: Hashable) -> None:
        for s in self.sinks:
            s.on_read(pid, register, value)

    def write(self, pid: int, register: str, value: Hashable) -> None:
        for s in self.sinks:
            s.on_write(pid, register, value)

    def decision(self, pid: int, value: Hashable, activation: int) -> None:
        for s in self.sinks:
            s.on_decision(pid, value, activation)

    def crash(self, pid: int, index: int) -> None:
        for s in self.sinks:
            s.on_crash(pid, index)

    def step(self, index: int, pid: int, op, result: Hashable,
             decided: Optional[Hashable]) -> None:
        for s in self.sinks:
            s.on_step(index, pid, op, result, decided)

    def run_end(self, result) -> None:
        for s in self.sinks:
            s.on_run_end(result)

    def phase_time(self, phase: str, seconds: float) -> None:
        for s in self.sinks:
            if getattr(s, "wants_timing", False):
                s.on_phase_time(phase, seconds)


def make_hub(sinks: Optional[Sequence[BaseSink]]) -> Optional[ObsHub]:
    """Build a hub, or ``None`` when there is nothing to notify."""
    if not sinks:
        return None
    return ObsHub(sinks)
