"""Picklable factory specs for cross-process batch execution.

:class:`~repro.sim.runner.ExperimentRunner` takes *factories* for the
protocol, the scheduler, and the inputs.  In-process those are usually
lambdas; lambdas cannot cross a ``multiprocessing`` spawn boundary, so
sharded batches need factories that pickle by value.  The spec classes
here are frozen dataclasses that name what to build — they serialize as
a few strings and ints, and each worker process rebuilds the real
objects locally on first call.

The names accepted here are exactly the CLI vocabulary
(``repro report --protocol ... --scheduler ...``), so the CLI's serial
and parallel paths construct identical runs.

Custom factories work too: any module-level function (or picklable
callable class) is a valid factory for the parallel engine.  Only
closures and lambdas are rejected, at submission time, with a pointer
back to this module.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from typing import Hashable, Tuple

#: Protocol names understood by :class:`ProtocolSpec` (CLI vocabulary).
PROTOCOL_NAMES = ("two", "three-unbounded", "three-bounded", "n", "naive")

#: Scheduler names understood by :class:`SchedulerSpec` (CLI vocabulary).
SCHEDULER_NAMES = ("random", "round-robin", "oblivious", "split-vote",
                   "laggard-freezer", "read-adversary")


@functools.lru_cache(maxsize=None)
def _load(module: str, name: str):
    """``module.name``, imported on the first call in this process.

    The specs run once per run of a sweep; resolving each class once
    keeps the per-run cost a memo lookup and loads only the modules a
    sweep builds from.
    """
    return getattr(importlib.import_module(module), name)


@dataclasses.dataclass(frozen=True)
class ProtocolSpec:
    """A protocol factory that pickles as its name.

    ``n_processes`` is only consulted by the variable-width protocols
    (``"n"`` and ``"naive"``); the fixed-width paper protocols ignore
    it.
    """

    name: str
    n_processes: int = 2

    def __call__(self):
        name = self.name
        if name == "two":
            return _load("repro.core.two_process", "TwoProcessProtocol")()
        if name == "three-unbounded":
            return _load("repro.core.three_unbounded",
                         "ThreeUnboundedProtocol")()
        if name == "three-bounded":
            return _load("repro.core.three_bounded",
                         "ThreeBoundedProtocol")()
        if name == "n":
            return _load("repro.core.n_process",
                         "NProcessProtocol")(self.n_processes)
        if name == "naive":
            return _load("repro.core.naive",
                         "NaiveProtocol")(self.n_processes)
        raise ValueError(f"unknown protocol {self.name!r} "
                         f"(expected one of {PROTOCOL_NAMES})")


@dataclasses.dataclass(frozen=True)
class SchedulerSpec:
    """A scheduler factory that pickles as its name.

    Called per run with that run's ``rng.child("sched")`` stream, so
    stateful adversaries are fresh every run and random schedulers are
    seeded identically to the serial path.
    """

    name: str

    def __call__(self, rng):
        name = self.name
        if name == "random":
            return _load("repro.sched.simple", "RandomScheduler")(rng)
        if name == "round-robin":
            return _load("repro.sched.simple", "RoundRobinScheduler")()
        if name == "oblivious":
            return _load("repro.sched.simple", "ObliviousScheduler")(rng)
        if name == "split-vote":
            return _load("repro.sched.adversary", "SplitVoteAdversary")()
        if name == "laggard-freezer":
            return _load("repro.sched.adversary", "LaggardFreezer")()
        if name == "read-adversary":
            # Random activation order plus hostile weak-memory read
            # resolution (a no-op wrapper under atomic semantics).
            return _load("repro.sched.adversary", "ReadValueAdversary")(
                _load("repro.sched.simple", "RandomScheduler")(rng),
                policy="adversarial")
        raise ValueError(f"unknown scheduler {self.name!r} "
                         f"(expected one of {SCHEDULER_NAMES})")


@dataclasses.dataclass(frozen=True)
class ConstantInputs:
    """An inputs factory returning the same tuple for every run."""

    values: Tuple[Hashable, ...]

    def __call__(self, run_index: int, rng) -> Tuple[Hashable, ...]:
        return self.values
