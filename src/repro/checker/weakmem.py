"""Weak-memory anomaly search: machine-checked HHT-style claims.

Hadzilacos–Hu–Toueg (PAPERS.md) separate regular from safe registers
for randomized consensus: regularity is enough for consistency, safety
alone is not.  This module turns that claim into something the checker
can verify on our automata:

* :func:`find_memory_anomaly` BFS-walks the weak-memory configuration
  graph (every scheduling, every coin, every legal read value) looking
  for either a **consistency** violation (two processors decided
  different values) or a **garbage read** — a read edge whose returned
  value is outside what :class:`~repro.sim.weak.RegularMemory` would
  allow in the same configuration, i.e. a behavior only safe registers
  exhibit.  The shallowest anomaly is returned as an explicit
  step-by-step witness.
* :func:`replay_witness` re-executes a witness against the explorer's
  transition relation and returns the final configuration, proving the
  trace is a real run of the system (every step is a legal successor),
  not an artifact of the search.

Replaying through the *kernel* instead is impossible in general — a
witness pins coin outcomes, which the kernel deliberately samples
outside adversary control — so the replay walks the same successor
relation the safety checker quantifies over.  That is exactly the right
notion: the checker's guarantees are statements about this graph.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import VerificationError
from repro.sim.config import Configuration
from repro.sim.memory import memory_spec
from repro.sim.ops import ReadOp
from repro.sim.process import Automaton
from repro.sim.transitions import TransitionCache
from repro.sim.weak import RegularMemory
from repro.checker.explorer import successors


@dataclasses.dataclass(frozen=True)
class WitnessStep:
    """One step of an anomaly witness: who moved, what op, what value."""

    pid: int
    op: object
    result: Hashable

    def __repr__(self) -> str:
        return f"P{self.pid}: {self.op!r} -> {self.result!r}"


@dataclasses.dataclass(frozen=True)
class AnomalyWitness:
    """A replayable trace exhibiting a weak-memory anomaly.

    ``kind`` is ``"consistency"`` (two decision values in ``final``) or
    ``"garbage-read"`` (the last step's read value is infeasible under
    regular semantics — only safe registers return it).  ``steps`` lead
    from the initial configuration of ``inputs`` to ``final``;
    :func:`replay_witness` re-validates them.
    """

    kind: str
    memory: str
    inputs: Tuple[Hashable, ...]
    steps: Tuple[WitnessStep, ...]
    detail: str
    final: Configuration

    def describe(self) -> str:
        lines = [
            f"{self.kind} anomaly under {self.memory} registers "
            f"(inputs {self.inputs!r}):",
            f"  {self.detail}",
        ]
        for i, step in enumerate(self.steps):
            lines.append(f"  step {i}: {step!r}")
        return "\n".join(lines)


def _decision_values(protocol: Automaton,
                     config: Configuration) -> Dict[int, Hashable]:
    return config.decisions(protocol)


def find_memory_anomaly(
    protocol: Automaton,
    inputs: Sequence[Hashable],
    memory: str = "safe",
    max_depth: Optional[int] = None,
    max_states: int = 200_000,
) -> Optional[AnomalyWitness]:
    """Search for the shallowest weak-memory anomaly, if any.

    Explores the ``memory``-semantics configuration graph breadth-first
    with parent pointers; the first consistency violation *or* garbage
    read found is materialized into an :class:`AnomalyWitness` (BFS
    order makes it a shortest witness in steps).  Returns ``None`` when
    the budgets are exhausted without an anomaly — which, for
    ``memory="regular"``, is the HHT-style positive claim
    :func:`repro.checker.properties.verify_safety` also certifies.
    """
    spec = memory_spec(memory)
    cache = TransitionCache(protocol, strict=False)
    layout = cache.layout
    model = None if spec.atomic else spec.build(layout)
    # Regular-feasibility oracle for the garbage-read check: a read
    # value is "garbage" iff RegularMemory would not allow it in the
    # same configuration (committed value or overlapping write only).
    regular = RegularMemory(layout)

    root = Configuration.initial(protocol, layout, inputs)
    parents: Dict[Configuration, Optional[Tuple[Configuration, WitnessStep]]]
    parents = {root: None}
    depth_of = {root: 0}
    queue = collections.deque([root])

    def witness_of(config: Configuration, last: Optional[WitnessStep],
                   kind: str, detail: str) -> AnomalyWitness:
        steps: List[WitnessStep] = [last] if last is not None else []
        node = config
        while True:
            parent = parents[node]
            if parent is None:
                break
            node, step = parent
            steps.append(step)
        steps.reverse()
        final = config
        if last is not None:
            for succ in successors(protocol, layout, config, cache, model):
                if (succ.pid == last.pid and succ.op == last.op
                        and succ.result == last.result):
                    final = succ.config
                    break
        return AnomalyWitness(
            kind=kind, memory=spec.name, inputs=tuple(inputs),
            steps=tuple(steps), detail=detail, final=final,
        )

    while queue:
        config = queue.popleft()
        depth = depth_of[config]
        decided = _decision_values(protocol, config)
        if len(set(decided.values())) > 1:
            return witness_of(
                config, None, "consistency",
                f"decisions {decided!r} at depth {depth}",
            )
        if max_depth is not None and depth >= max_depth:
            continue
        for succ in successors(protocol, layout, config, cache, model):
            step = WitnessStep(pid=succ.pid, op=succ.op, result=succ.result)
            if isinstance(succ.op, ReadOp):
                regular.restore(config.registers, config.mem)
                regular.on_activate(succ.pid)
                feasible = regular.read_choices(
                    layout.index_of(succ.op.register))
                if succ.result not in feasible:
                    return witness_of(
                        config, step, "garbage-read",
                        f"P{succ.pid} read {succ.result!r} from "
                        f"{succ.op.register!r}; regular registers only "
                        f"allow one of {feasible!r}",
                    )
            nxt = succ.config
            if nxt not in depth_of:
                if len(depth_of) >= max_states:
                    return None
                depth_of[nxt] = depth + 1
                parents[nxt] = (config, step)
                queue.append(nxt)
    return None


def replay_witness(
    protocol: Automaton,
    inputs: Sequence[Hashable],
    memory: str,
    steps: Sequence[WitnessStep],
) -> Configuration:
    """Re-execute a witness step-by-step; return the final configuration.

    Each step must match an actual successor edge (same processor, same
    operation, same returned value) of the configuration reached so
    far; a mismatch raises :class:`~repro.errors.VerificationError`.
    A witness that replays is therefore a genuine run of the system
    under the claimed memory semantics.
    """
    spec = memory_spec(memory)
    cache = TransitionCache(protocol, strict=False)
    layout = cache.layout
    model = None if spec.atomic else spec.build(layout)
    config = Configuration.initial(protocol, layout, inputs)
    for i, step in enumerate(steps):
        for succ in successors(protocol, layout, config, cache, model):
            if (succ.pid == step.pid and succ.op == step.op
                    and succ.result == step.result):
                config = succ.config
                break
        else:
            raise VerificationError(
                f"witness step {i} ({step!r}) is not a legal successor "
                f"under {spec.name} semantics"
            )
    return config
