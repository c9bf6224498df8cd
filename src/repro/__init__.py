"""repro — reproduction of Chor, Israeli & Li, PODC 1987.

*On Processor Coordination Using Asynchronous Hardware*: randomized
wait-free consensus for asynchronous processors that communicate only
through atomic read/write registers, plus the impossibility of solving
the same problem deterministically.

Package map
-----------

``repro.core``
    The paper's protocols: two-processor (Figure 1), three-processor
    unbounded (Figure 2), three-processor bounded (Figure 3 / Section
    6), the n-processor generalization, the Theorem 5 multivalued
    reduction, and baselines.
``repro.sim``
    The Section 2 machine: automaton processors, atomic registers with
    reader/writer sets, serialized steps, seeded randomness.
``repro.sched``
    Schedulers from benign round-robin to the full-knowledge adaptive
    adversaries of the termination proofs, plus fail-stop crashes.
``repro.checker``
    Exhaustive safety verification and the mechanized Section 3
    impossibility pipeline (bivalence, Lemma 3, non-deciding lassos).
``repro.registers``
    The Lamport register-construction substrate: safe → regular →
    atomic, bits → words, SRSW → MRSW, with a linearizability checker.
``repro.apps``
    The applications the paper motivates coordination with: mutual
    exclusion, leader election, choice coordination.
``repro.analysis``
    The paper's bounds as formulas and the statistics that compare
    measurements against them.
``repro.obs``
    Kernel observability: event hooks, streaming metrics (counters /
    gauges / percentile histograms), JSONL run journals, and the run-layer
    profiler — see ``docs/OBSERVABILITY.md``.
``repro.spec``
    The canonical :class:`~repro.spec.RunSpec`: one frozen, picklable
    description of a run with a stable content hash — see
    ``docs/API.md``.
``repro.engines``
    The engine registry: sim and checker engines with capability
    flags, the single validation point for every engine selection.
``repro.store``
    Content-addressed run store: crash-safe shard commits, resumable
    sweeps, warm-cache repeats, checksummed self-healing shards — see
    ``docs/STORE.md``.
``repro.parallel``
    Sharded multi-process sweeps, plus the fault-tolerant supervisor
    (watchdogs, deterministic retries, quarantine) — see
    ``docs/ROBUSTNESS.md``.
``repro.faults``
    Deterministic, replayable fault injection for the chaos suite.

Quickstart
----------

>>> from repro import solve, TwoProcessProtocol
>>> outcome = solve(TwoProcessProtocol(), ["a", "b"], seed=1)
>>> outcome.consistent and outcome.value in ("a", "b")
True
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.core": (
        "ConsensusOutcome",
        "ConsensusProtocol",
        "MultiValuedProtocol",
        "NaiveProtocol",
        "NProcessProtocol",
        "ThreeBoundedProtocol",
        "ThreeUnboundedProtocol",
        "TwoProcessProtocol",
        "solve",
    ),
    "repro.errors": (
        "AccessViolation",
        "ProtocolError",
        "ReproError",
        "SimulationError",
        "VerificationError",
    ),
    "repro.faults": ("FaultAction", "FaultPlan", "InjectedFault"),
    "repro.obs": ("JsonlJournal", "MetricsRegistry"),
    "repro.parallel.supervisor": ("FaultReport", "SupervisorError",
                                  "SupervisorPolicy", "run_supervised"),
    "repro.sim": ("BOTTOM", "ExperimentRunner", "ReplayableRng",
                  "Simulation"),
    "repro.spec": ("ObsOptions", "RunSpec", "SpecError"),
    "repro.store": ("RunStore", "ShardVerdict", "StoreError", "StoreStats"),
}

__version__ = "1.1.0"

__all__ = ["__version__"] + [name for names in _EXPORTS.values()
                             for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
