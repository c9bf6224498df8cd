"""Correctness properties: per-run validation and exhaustive safety.

The paper's three requirements (Section 2):

* **Consistency** — no reachable configuration has two different
  decision values.  A *safety* property: it must hold on every path
  with probability 1, so it can be verified by enumerating all
  scheduler choices and coin outcomes (:func:`verify_safety`).
* **Nontriviality** — every decision value is the input of some
  processor activated in the run.  Also safety; checked the same way
  (our protocols only ever decide values traceable to inputs, so the
  stronger "decision ∈ inputs of *scheduled* processors" is checked on
  traces, and "decision ∈ inputs" on configurations).
* **Termination** — probabilistic; checked statistically by the
  benchmark harness (it is a claim about expectations, not about every
  path — indeed for every randomized protocol some measure-zero path
  never decides).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.checker.explorer import ConfigGraph, explore
from repro.errors import VerificationError
from repro.sim.config import Configuration
from repro.sim.kernel import RunResult
from repro.sim.process import Automaton


@dataclasses.dataclass(frozen=True)
class RunReport:
    """Validation summary of one run."""

    consistent: bool
    nontrivial: bool
    all_decided: bool
    decisions: Dict[int, Hashable]
    activations: Dict[int, int]


def validate_run(result: RunResult, require_decision: bool = False) -> RunReport:
    """Validate one finished run; raise :class:`VerificationError` on
    a consistency or nontriviality violation.

    ``require_decision`` additionally demands that every non-crashed
    processor decided (useful after runs with generous step budgets,
    where not deciding indicates a liveness bug, not bad luck).
    """
    if not result.consistent:
        raise VerificationError(
            f"consistency violated: decisions {result.decisions!r} "
            f"on inputs {result.inputs!r}"
        )
    if not result.nontrivial:
        raise VerificationError(
            f"nontriviality violated: decisions {result.decisions!r} "
            f"not among inputs {result.inputs!r}"
        )
    if require_decision and not result.all_decided:
        undecided = [
            pid for pid in range(len(result.inputs))
            if pid not in result.decisions and pid not in result.crashed
        ]
        raise VerificationError(
            f"processors {undecided} never decided within "
            f"{result.total_steps} steps"
        )
    return RunReport(
        consistent=result.consistent,
        nontrivial=result.nontrivial,
        all_decided=result.all_decided,
        decisions=dict(result.decisions),
        activations=dict(result.activations),
    )


@dataclasses.dataclass
class SafetyReport:
    """Outcome of exhaustive safety verification.

    ``ok`` means no violation was found; combined with ``complete``
    this distinguishes "verified on the full reachable space" from
    "verified up to the exploration budget".  ``max_depth_reached`` is
    the deepest level whose configurations were all visited, the same
    under every checker engine.
    """

    ok: bool
    complete: bool
    states_explored: int
    max_depth_reached: int
    violation: Optional[str] = None
    witness: Optional[Configuration] = None

    def guarantee(self) -> str:
        """Human-readable statement of what was proven."""
        if not self.ok:
            return f"VIOLATION: {self.violation}"
        scope = (
            "the full reachable configuration space"
            if self.complete
            else f"all runs up to depth {self.max_depth_reached} "
                 f"({self.states_explored} configurations)"
        )
        return f"safety (consistency + nontriviality) holds over {scope}"


def verify_safety(
    protocol: Automaton,
    inputs: Sequence[Hashable],
    max_depth: Optional[int] = None,
    max_states: int = 500_000,
    memory=None,
    engine: Optional[str] = None,
    symmetry: bool = False,
    por: bool = False,
    exact: bool = False,
) -> SafetyReport:
    """Exhaustively check consistency and nontriviality.

    Explores every configuration reachable under any scheduler and any
    coin outcome (bounded by the budgets) and checks on each:

    * all decided outputs agree,
    * every decided output is one of the run's inputs.

    Since safety must hold with probability one, a probability-weighted
    search adds nothing: plain reachability is the right notion.

    ``memory`` selects the register semantics (``None`` = atomic).
    Under ``"regular"``/``"safe"`` the explorer additionally branches
    contended reads over every legal return value, so a verified
    property holds against scheduling, coins *and* adversary read-value
    choices (see :mod:`repro.checker.weakmem` for witness extraction).

    ``engine`` selects the backend: ``"objects"`` walks the
    materialized graph (:func:`repro.checker.explorer.explore`), while
    ``"fingerprints"`` runs the scalable fingerprinted search
    (:func:`repro.checker.statespace.explore_fast`) with inline
    checking and no graph — the only engine that scales to the
    three-bounded protocol's full reachable space.  Both reach the
    same verdict.  ``symmetry``/``por``/``exact`` tune the fingerprints
    engine (see docs/CHECKER.md) and are rejected elsewhere.
    """
    from repro.engines import resolve_engine

    info = resolve_engine("checker", engine)
    engine = info.name
    if (symmetry or por or exact) and not info.reductions:
        raise ValueError(
            "symmetry/por/exact require engine='fingerprints' "
            f"(engine {engine!r} has no reduction support)")
    if engine == "fingerprints":
        from repro.checker.statespace import explore_fast

        rep = explore_fast(
            protocol, inputs, memory=memory, max_depth=max_depth,
            max_states=max_states, symmetry=symmetry, por=por,
            exact=exact,
        )
        return SafetyReport(
            ok=rep.ok,
            complete=rep.exhausted,
            states_explored=rep.visited,
            max_depth_reached=rep.depth,
            violation=rep.violation,
            witness=rep.witness,
        )
    input_set = set(inputs)
    state: Dict[str, object] = {"violation": None, "witness": None}

    def on_node(config: Configuration, depth: int) -> None:
        if state["violation"] is not None:
            return
        decided = config.decisions(protocol)
        values = set(decided.values())
        if len(values) > 1:
            state["violation"] = (
                f"consistency: decisions {decided!r} at depth {depth}"
            )
            state["witness"] = config
        elif any(v not in input_set for v in values):
            state["violation"] = (
                f"nontriviality: decisions {decided!r} outside inputs "
                f"{sorted(map(repr, input_set))} at depth {depth}"
            )
            state["witness"] = config

    graph = explore(
        protocol, inputs, max_depth=max_depth, max_states=max_states,
        on_node=on_node, memory=memory,
    )
    return SafetyReport(
        ok=state["violation"] is None,
        complete=graph.complete,
        states_explored=graph.n_states,
        max_depth_reached=graph.complete_depth,
        violation=state["violation"],
        witness=state["witness"],
    )


def verify_safety_all_inputs(
    protocol_factory,
    values: Sequence[Hashable],
    n: int,
    max_depth: Optional[int] = None,
    max_states: int = 500_000,
) -> List[Tuple[Tuple[Hashable, ...], SafetyReport]]:
    """Run :func:`verify_safety` for every input assignment in V^n."""
    import itertools

    reports = []
    for inputs in itertools.product(values, repeat=n):
        report = verify_safety(
            protocol_factory(), inputs,
            max_depth=max_depth, max_states=max_states,
        )
        reports.append((inputs, report))
    return reports
