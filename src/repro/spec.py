"""The canonical run description: :class:`RunSpec` and its stable hash.

Every Monte-Carlo run in this library is a pure function of
``(spec, root_seed, run_index)`` — the determinism contract the
parallel engine (PR 2) established and every later backend preserved.
What was missing is the *spec* half of that triple as a first-class
value: the protocol / scheduler / inputs / memory / engine / budget
configuration used to travel as loose keyword arguments, duplicated
across :class:`~repro.sim.runner.ExperimentRunner`,
:class:`~repro.parallel.engine.BatchSpec` and the CLI.

:class:`RunSpec` is that value.  It composes the picklable spec classes
that already exist — :class:`~repro.parallel.tasks.ProtocolSpec`,
:class:`~repro.parallel.tasks.SchedulerSpec`,
:class:`~repro.parallel.tasks.ConstantInputs`,
:class:`~repro.sim.memory.MemorySpec` — plus the engine name (resolved
through :mod:`repro.engines`), the step budget, and the observation
options that shape recorded artifacts.

Canonical form (the rules docs/API.md documents):

1. :meth:`RunSpec.to_canonical` maps the spec to plain JSON data: every
   field name is fixed, aliases are resolved (``engine=None`` becomes
   the registry default), and only JSON-exact scalar types (``str``,
   ``int``, ``bool``, ``None``) may appear as input values — anything
   else raises :class:`SpecError` rather than hashing something
   representation-dependent.
2. :meth:`RunSpec.canonical_json` serializes that mapping with sorted
   keys, no whitespace, and ``ensure_ascii`` — one byte string per
   semantic spec, independent of dict insertion order, platform,
   interpreter, or worker start method (spawn and fork agree).
3. :meth:`RunSpec.spec_hash` is the SHA-256 hex digest of those bytes.
   Equal specs hash equal; semantically distinct specs (different
   memory model, budget, engine, …) hash differently because every
   field is in the canonical form.

The hash is the content address of the run store
(:mod:`repro.store`): results are filed under
``(spec_hash, root_seed, index_range)``, so a repeated sweep finds its
own shards and an interrupted one resumes from the last committed
shard.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Optional, Tuple

from repro.engines import resolve_engine
from repro.parallel.tasks import ConstantInputs, ProtocolSpec, SchedulerSpec
from repro.sim.memory import MemorySpec, memory_spec

#: Version stamp embedded in every canonical form; bump when the
#: canonical mapping itself changes shape (old hashes then miss, which
#: is the safe failure mode for a content-addressed store).
CANONICAL_VERSION = 1

#: Scalar types that serialize to exactly one JSON text.
_JSON_SCALARS = (str, int, float, bool, type(None))


class SpecError(ValueError):
    """A run description that cannot be canonicalized."""


@dataclasses.dataclass(frozen=True)
class ObsOptions:
    """Observation options that shape a run's recorded artifacts.

    Only options that change *what is recorded* belong here (they are
    part of the content address: a sweep recorded without a journal
    cannot serve a request that needs journal bytes).  Wall-clock-only
    observability — telemetry heartbeats, timing profilers, tracers — never
    affects results or stored artifacts and is deliberately absent.
    """

    #: Record a per-shard metrics registry snapshot.
    metrics: bool = False
    #: Record per-shard journal segments (JSONL event streams).
    journal: bool = False

    def to_canonical(self) -> Dict[str, bool]:
        return {"metrics": self.metrics, "journal": self.journal}


def _canonical_scalar(value: Any, where: str) -> Any:
    if isinstance(value, _JSON_SCALARS):
        return value
    raise SpecError(
        f"{where} value {value!r} ({type(value).__name__}) is not "
        f"canonically serializable; RunSpec inputs must be JSON-exact "
        f"scalars (str, int, float, bool, None) so the spec hash is "
        f"representation-independent (docs/API.md)")


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """A frozen, hashable, canonical description of a seeded run batch.

    Compose it from the CLI-vocabulary spec classes::

        RunSpec(protocol=ProtocolSpec("two", 2),
                scheduler=SchedulerSpec("random"),
                inputs=ConstantInputs(("a", "b")),
                memory=MemorySpec("regular"),
                engine="vector",
                max_steps=4000)

    ``protocol``/``scheduler``/``inputs`` are factories in the
    :class:`~repro.sim.runner.ExperimentRunner` sense — the spec *is*
    directly usable as that runner's three factories, and pickles
    across spawn/fork worker boundaries unchanged.  The root seed is
    deliberately **not** a field: the store keys runs by
    ``(spec_hash, root_seed, index_range)``, so one spec addresses
    every seed's results.
    """

    protocol: ProtocolSpec
    scheduler: SchedulerSpec
    inputs: ConstantInputs
    memory: MemorySpec = MemorySpec("atomic")
    engine: Optional[str] = None
    max_steps: int = 4000
    strict: bool = False
    obs: ObsOptions = ObsOptions()

    def __post_init__(self) -> None:
        if not isinstance(self.protocol, ProtocolSpec):
            raise SpecError(
                f"protocol must be a repro.parallel.tasks.ProtocolSpec "
                f"(a canonical name, not an arbitrary factory); got "
                f"{type(self.protocol).__name__}")
        if not isinstance(self.scheduler, SchedulerSpec):
            raise SpecError(
                f"scheduler must be a repro.parallel.tasks."
                f"SchedulerSpec; got {type(self.scheduler).__name__}")
        if not isinstance(self.inputs, ConstantInputs):
            raise SpecError(
                f"inputs must be a repro.parallel.tasks.ConstantInputs; "
                f"got {type(self.inputs).__name__}")
        # Normalize loose forms in place (frozen dataclass, hence
        # object.__setattr__): names/None become the canonical objects,
        # so equal specs compare and hash equal however they were
        # spelled.
        object.__setattr__(self, "memory", memory_spec(self.memory))
        object.__setattr__(
            self, "engine", resolve_engine("sim", self.engine).name)
        if not isinstance(self.obs, ObsOptions):
            raise SpecError(
                f"obs must be an ObsOptions; got "
                f"{type(self.obs).__name__}")
        if self.max_steps < 1:
            raise SpecError(
                f"max_steps must be >= 1, got {self.max_steps}")

    # -- canonical form ------------------------------------------------

    def to_canonical(self) -> Dict[str, Any]:
        """The canonical JSON-ready mapping (rule 1 of the module docs)."""
        return {
            "version": CANONICAL_VERSION,
            "protocol": {
                "name": self.protocol.name,
                "n_processes": self.protocol.n_processes,
            },
            "scheduler": {"name": self.scheduler.name},
            "inputs": [
                _canonical_scalar(v, "inputs")
                for v in self.inputs.values
            ],
            "memory": self.memory.name,
            "engine": self.engine,
            "budgets": {"max_steps": self.max_steps},
            "strict": self.strict,
            "obs": self.obs.to_canonical(),
        }

    def canonical_json(self) -> str:
        """One deterministic text per semantic spec (rule 2)."""
        return json.dumps(self.to_canonical(), sort_keys=True,
                          separators=(",", ":"), ensure_ascii=True)

    def spec_hash(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_json` (rule 3)."""
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")).hexdigest()

    # -- construction helpers ------------------------------------------

    @classmethod
    def from_batch(cls, spec, max_steps: int,
                   obs: ObsOptions = ObsOptions()) -> "RunSpec":
        """Lift a :class:`~repro.parallel.engine.BatchSpec` + budget.

        This is how ``run_many(..., store=...)`` derives the content
        address of a sweep.  The batch's factories must be the
        canonical spec classes — an arbitrary module-level factory
        executes fine in workers but has no canonical serialization, so
        a store-backed sweep refuses it up front.
        """
        try:
            return cls(
                protocol=spec.protocol_factory,
                scheduler=spec.scheduler_factory,
                inputs=spec.inputs_factory,
                memory=spec.memory,
                engine=spec.resolved_engine,
                max_steps=max_steps,
                strict=spec.strict,
                obs=obs,
            )
        except SpecError as exc:
            raise SpecError(
                f"store-backed sweeps need canonically hashable "
                f"factories (ProtocolSpec / SchedulerSpec / "
                f"ConstantInputs from repro.parallel.tasks): {exc}"
            ) from exc

    def factories(self) -> Tuple[ProtocolSpec, SchedulerSpec,
                                 ConstantInputs]:
        """The runner's ``(protocol, scheduler, inputs)`` factory triple."""
        return self.protocol, self.scheduler, self.inputs

    def describe(self) -> str:
        """One human line: the CLI vocabulary of this spec."""
        return (f"{self.protocol.name}({self.protocol.n_processes}) "
                f"inputs={','.join(map(str, self.inputs.values))} "
                f"sched={self.scheduler.name} mem={self.memory.name} "
                f"engine={self.engine} max_steps={self.max_steps}")
