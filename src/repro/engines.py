"""The engine registry: one canonical catalogue of execution backends.

The library grew three *simulation* engines (``reference``, ``fast``,
``vector``) and two *checker* engines (``objects``, ``fingerprints``),
and with them five divergent hand-rolled
``if engine not in (...)`` blocks scattered over the runner, ``solve``,
the explorer and the CLI.  This module replaces that plumbing with a
single registry: engines register themselves once, with capability
flags, and every selection path — :class:`~repro.sim.kernel.Simulation`,
:class:`~repro.sim.runner.ExperimentRunner`,
:class:`~repro.parallel.engine.BatchSpec`,
:func:`~repro.checker.properties.verify_safety` and all CLI
``--engine`` flags — resolves and validates through
:func:`resolve_engine`.

Engines are namespaced by *kind*:

* ``"sim"`` — executes seeded runs; one result per ``(root_seed,
  run_index)``, bit-identical across engines for the supported matrix
  (docs/PERFORMANCE.md, docs/IR.md).
* ``"checker"`` — explores the reachable configuration space; identical
  verdicts across engines (docs/CHECKER.md).  ``objects`` is the only
  engine that materializes a ``ConfigGraph``; ``fingerprints`` is the
  only scalable search.

Capability flags describe what each backend supports so callers can
validate a request (e.g. ``symmetry=True`` needs a checker engine with
``reductions``) instead of hard-coding engine names.  Unknown names
raise :class:`UnknownEngineError` — a ``ValueError`` carrying the valid
vocabulary and a did-you-mean suggestion — from exactly one place.

Third-party backends may call :func:`register_engine` at import time;
the built-in engines below use the same call, so an external
registration is indistinguishable from a built-in one.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

#: Engine kinds (registry namespaces).
SIM = "sim"
CHECKER = "checker"
_KINDS = (SIM, CHECKER)


class UnknownEngineError(ValueError):
    """An engine name that is not registered (for the requested kind).

    Subclasses :class:`ValueError` so legacy callers that caught the
    five hand-rolled validation errors keep working unchanged.
    """


@dataclasses.dataclass(frozen=True)
class EngineInfo:
    """One registered backend and what it can do."""

    name: str
    kind: str
    summary: str
    #: Checker only: supports the verified symmetry/POR reductions
    #: and the exact-visited-set toggle.
    reductions: bool = False
    #: Sim only: constructible as a standalone ``Simulation`` (the
    #: vector backend runs through ``solve`` and the runner instead).
    standalone: bool = False
    #: Resolved when the caller passes ``engine=None``.
    default: bool = False


_REGISTRY: Dict[Tuple[str, str], EngineInfo] = {}


def register_engine(info: EngineInfo) -> EngineInfo:
    """Register a backend; returns ``info``.  Duplicate names raise."""
    if info.kind not in _KINDS:
        raise ValueError(
            f"unknown engine kind {info.kind!r} (expected one of {_KINDS})")
    key = (info.kind, info.name)
    if key in _REGISTRY:
        raise ValueError(
            f"{info.kind} engine {info.name!r} is already registered")
    if info.default and any(e.default for e in _REGISTRY.values()
                            if e.kind == info.kind):
        raise ValueError(
            f"kind {info.kind!r} already has a default engine")
    _REGISTRY[key] = info
    return info


def engine_names(kind: str) -> Tuple[str, ...]:
    """Registered engine names of one kind, in registration order."""
    return tuple(name for (k, name) in _REGISTRY if k == kind)


def default_engine(kind: str) -> EngineInfo:
    """The engine ``engine=None`` resolves to for ``kind``."""
    for info in _REGISTRY.values():
        if info.kind == kind and info.default:
            return info
    raise LookupError(f"no default engine registered for kind {kind!r}")


def _unknown(kind: str, name: str) -> UnknownEngineError:
    """The one engine-validation error message (did-you-mean included)."""
    valid = engine_names(kind)
    msg = (f"unknown {kind} engine {name!r}: expected one of "
           f"{', '.join(repr(v) for v in valid)}")
    other = next(k for k in _KINDS if k != kind)
    if (other, name) in _REGISTRY:
        msg += (f" ({name!r} is a {other} engine — this selection "
                f"point takes {kind} engines)")
    else:
        import difflib

        close = difflib.get_close_matches(name, valid, n=1, cutoff=0.5)
        if close:
            msg += f" — did you mean {close[0]!r}?"
    return UnknownEngineError(msg)


def resolve_engine(kind: str, name: Optional[str] = None) -> EngineInfo:
    """Resolve ``name`` (or the kind's default for ``None``).

    Raises :class:`UnknownEngineError` with the full valid vocabulary
    and a did-you-mean suggestion for anything unregistered.  This is
    the single validation point behind every engine selection path.
    """
    if kind not in _KINDS:
        raise ValueError(
            f"unknown engine kind {kind!r} (expected one of {_KINDS})")
    if name is None:
        return default_engine(kind)
    if isinstance(name, EngineInfo):
        return name
    info = _REGISTRY.get((kind, name))
    if info is None:
        raise _unknown(kind, name)
    return info


def resolve_sim_engine(engine: Optional[str] = None) -> EngineInfo:
    """Resolve a sim engine name (``None`` → the registry default)."""
    return resolve_engine(SIM, engine)


# -- built-in engines --------------------------------------------------
#
# Registered through the public API so external backends look exactly
# like these.  Keep the registrations here (not in the implementing
# modules): the registry must be importable without dragging in the
# IR or the checker, and the implementing modules all import *us* for
# resolution.

register_engine(EngineInfo(
    name="reference", kind=SIM,
    summary=("seed kernel verbatim: immutable Configuration per step; "
             "the baseline every other engine is differential-tested "
             "against"),
    standalone=True))
register_engine(EngineInfo(
    name="fast", kind=SIM,
    summary=("interpreted kernel with mutable buffers and a shared "
             "TransitionCache (docs/PERFORMANCE.md)"),
    standalone=True, default=True))
register_engine(EngineInfo(
    name="vector", kind=SIM,
    summary=("steps each run over the compiled table IR "
             "(docs/IR.md); raises IRUnsupportedError outside the "
             "supported matrix")))

register_engine(EngineInfo(
    name="objects", kind=CHECKER,
    summary=("BFS over rich Configuration objects, materializing the "
             "ConfigGraph"),
    default=True))
register_engine(EngineInfo(
    name="fingerprints", kind=CHECKER,
    summary=("scalable fingerprinted state-space engine with verified "
             "symmetry/POR, run in process (docs/CHECKER.md)"),
    reductions=True))
