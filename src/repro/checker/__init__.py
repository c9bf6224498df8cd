"""Verification machinery.

Three layers, all operating on the explicit automaton formalism:

* :mod:`repro.checker.properties` — validate single runs (consistency,
  nontriviality, wait-free accounting) and exhaustively verify *safety*
  of randomized protocols over all schedules × all coin outcomes up to
  a state/depth budget.  Safety must hold with probability one, so
  enumerating coin outcomes is sound.
* :mod:`repro.checker.explorer` — the underlying explicit-state
  reachability engine (configuration graphs).
* :mod:`repro.checker.valency` + :mod:`repro.checker.flp` — mechanize
  Section 3: classify configurations as univalent/bivalent (Lemmas 1-2)
  and constructively extend bivalence into an explicit infinite
  non-deciding schedule (Lemma 3 / Theorem 4) for any deterministic
  protocol.
* :mod:`repro.checker.weakmem` — weak-memory anomaly search: exhibit
  replayable consistency-violating or garbage-read traces under
  ``regular``/``safe`` register semantics (the HHT-style separation).
* :mod:`repro.checker.statespace` (+ :mod:`~repro.checker.fingerprint`,
  :mod:`~repro.checker.reduction`) — the scalable engine: fingerprinted
  table-IR BFS with verified symmetry canonicalization and sleep-set
  partial-order reduction (docs/CHECKER.md).

Two checker engines, one job each: ``objects`` (:func:`explore`) is the
only path that materializes a :class:`ConfigGraph`, which valency/FLP,
``solve_game`` and the weak-memory witnesses consume; ``fingerprints``
(:func:`explore_fast`) is the only scalable search, and it always runs
in the calling process.
"""

from repro.checker.explorer import ConfigGraph, Successor, explore, successors
from repro.checker.fingerprint import ZobristTable, stable_token
from repro.checker.properties import (
    SafetyReport,
    validate_run,
    verify_safety,
)
from repro.checker.reduction import SymmetryGroup, discover_symmetry
from repro.checker.statespace import (
    ExploreReport,
    StateSpaceEngine,
    explore_fast,
)
from repro.checker.weakmem import (
    AnomalyWitness,
    WitnessStep,
    find_memory_anomaly,
    replay_witness,
)
from repro.checker.valency import Valency, classify, decision_values_of
from repro.checker.flp import (
    ImpossibilityReport,
    analyze_deterministic,
    find_bivalent_initial,
)

__all__ = [
    "ConfigGraph",
    "Successor",
    "explore",
    "successors",
    "ExploreReport",
    "StateSpaceEngine",
    "explore_fast",
    "ZobristTable",
    "stable_token",
    "SymmetryGroup",
    "discover_symmetry",
    "SafetyReport",
    "validate_run",
    "verify_safety",
    "AnomalyWitness",
    "WitnessStep",
    "find_memory_anomaly",
    "replay_witness",
    "Valency",
    "classify",
    "decision_values_of",
    "ImpossibilityReport",
    "analyze_deterministic",
    "find_bivalent_initial",
]
