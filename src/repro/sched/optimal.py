"""Exact worst-case adversaries via game solving.

The scheduler-vs-coins interaction is a Markov decision process: in
each configuration the adversary picks which enabled processor moves
(maximizing expected cost), then nature samples the processor's branch.
For protocols with a *finite* reachable configuration space — the
two-processor protocol is one — the optimal adversary and the exact
game value can be computed by value iteration over the configuration
graph.

This turns Theorem 7's inequality into a computation: the corollary
says the expected decision cost is at most 10 against *every*
adversary; :func:`solve_game` produces the cost of the *best possible*
adversary, so `value ≤ 10` is a machine-checked (numerical) instance of
the theorem, and :class:`OptimalAdversary` replays the maximizing
policy so Monte-Carlo measurements can be taken at the true worst case
rather than at hand-designed heuristics.

Two cost models:

* ``cost="processor:<pid>"`` — count only that processor's steps until
  it decides (the paper's per-processor metric).  Steps of others are
  free for the adversary, which may therefore stage arbitrary mischief
  before letting the victim move.
* ``cost="total"`` — count every step until all processors have
  decided.

Value iteration converges because the protocols decide with probability
one from every reachable configuration (verified separately by valency
analysis: no nullvalent configurations), making the expected cost
finite and the Bellman operator a monotone map with a finite fixpoint.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Hashable, Optional, Sequence, Tuple

from repro.errors import ExplorationLimitError
from repro.sched.base import Scheduler
from repro.sim.config import Configuration
from repro.sim.kernel import Activate, SchedulerView

if TYPE_CHECKING:
    from repro.checker.explorer import ConfigGraph


@dataclasses.dataclass
class GameSolution:
    """The solved scheduling game."""

    value: float                      # expected cost at the root
    values: Dict[Configuration, float]
    policy: Dict[Configuration, int]  # adversary's maximizing choice
    iterations: int
    cost_model: str

    def policy_for(self, config: Configuration) -> Optional[int]:
        return self.policy.get(config)


def _step_cost(cost_model: str, pid: int) -> float:
    if cost_model == "total":
        return 1.0
    if cost_model.startswith("processor:"):
        victim = int(cost_model.split(":", 1)[1])
        return 1.0 if pid == victim else 0.0
    raise ValueError(f"unknown cost model {cost_model!r}")


def _is_terminal(graph: ConfigGraph, config: Configuration,
                 cost_model: str) -> bool:
    protocol = graph.protocol
    if cost_model == "total":
        return not graph.edges.get(config)
    victim = int(cost_model.split(":", 1)[1])
    return protocol.output(victim, config.states[victim]) is not None


def solve_game(
    protocol,
    inputs: Sequence[Hashable],
    cost_model: str = "processor:0",
    max_states: int = 500_000,
    tolerance: float = 1e-12,
    max_iterations: int = 100_000,
) -> GameSolution:
    """Solve the adversary-vs-coins game by value iteration.

    Requires the protocol's reachable configuration space to be finite
    within ``max_states`` (raises :class:`ExplorationLimitError`
    otherwise).  Returns the exact worst-case expected cost and the
    maximizing policy.
    """
    from repro.checker.explorer import explore

    graph = explore(protocol, inputs, max_states=max_states)
    if not graph.complete:
        raise ExplorationLimitError(
            "game solving needs the complete reachable graph",
            states_explored=graph.n_states,
        )
    _step_cost(cost_model, 0)  # validate the model string early

    values: Dict[Configuration, float] = {c: 0.0 for c in graph.depth_of}
    policy: Dict[Configuration, int] = {}

    for iteration in range(max_iterations):
        delta = 0.0
        for config in graph.depth_of:
            if _is_terminal(graph, config, cost_model):
                continue
            succ = graph.edges.get(config, ())
            if not succ:
                continue
            by_pid: Dict[int, float] = {}
            for s in succ:
                contrib = s.probability * values[s.config]
                by_pid[s.pid] = by_pid.get(
                    s.pid, _step_cost(cost_model, s.pid)
                ) + contrib
            best_pid, best_val = max(by_pid.items(), key=lambda kv: kv[1])
            delta = max(delta, abs(best_val - values[config]))
            values[config] = best_val
            policy[config] = best_pid
        if delta < tolerance:
            return GameSolution(
                value=values[graph.roots[0]],
                values=values,
                policy=policy,
                iterations=iteration + 1,
                cost_model=cost_model,
            )
    raise ExplorationLimitError(
        f"value iteration did not converge in {max_iterations} sweeps "
        "(is the protocol terminating from every configuration?)",
        states_explored=graph.n_states,
    )


def evaluate_policy(
    protocol,
    inputs: Sequence[Hashable],
    choose_pid,
    cost_model: str = "processor:0",
    max_states: int = 500_000,
    tolerance: float = 1e-12,
    max_iterations: int = 100_000,
) -> GameSolution:
    """Exact expected cost of a *fixed* deterministic scheduler policy.

    ``choose_pid(config, enabled)`` must return the processor the
    policy activates in ``config`` (e.g. round-robin keyed off a state
    component, or min-id).  The result is the exact expectation of the
    cost model under that scheduler — the Markov-chain counterpart of
    :func:`solve_game`'s Markov-game maximum, useful for putting exact
    numbers under the Monte-Carlo columns of benchmark E2.

    Restricted to *memoryless* policies (functions of the configuration
    only); stateful schedulers like round-robin need their counter
    encoded in the protocol state to be evaluable this way, so the
    simplest honest example is the min-enabled-id policy.
    """
    from repro.checker.explorer import explore

    graph = explore(protocol, inputs, max_states=max_states)
    if not graph.complete:
        raise ExplorationLimitError(
            "policy evaluation needs the complete reachable graph",
            states_explored=graph.n_states,
        )
    _step_cost(cost_model, 0)

    values: Dict[Configuration, float] = {c: 0.0 for c in graph.depth_of}
    for iteration in range(max_iterations):
        delta = 0.0
        for config in graph.depth_of:
            if _is_terminal(graph, config, cost_model):
                continue
            succ = graph.edges.get(config, ())
            if not succ:
                continue
            enabled = tuple(sorted({s.pid for s in succ}))
            pid = choose_pid(config, enabled)
            if pid is None:
                # Uniformly random scheduler: average over the enabled.
                val = sum(
                    (_step_cost(cost_model, p) + sum(
                        s.probability * values[s.config]
                        for s in succ if s.pid == p
                    )) for p in enabled
                ) / len(enabled)
            else:
                if pid not in enabled:
                    raise ValueError(
                        f"policy chose disabled processor {pid} in {config}"
                    )
                val = _step_cost(cost_model, pid) + sum(
                    s.probability * values[s.config]
                    for s in succ if s.pid == pid
                )
            delta = max(delta, abs(val - values[config]))
            values[config] = val
        if delta < tolerance:
            return GameSolution(
                value=values[graph.roots[0]],
                values=values,
                policy={},
                iterations=iteration + 1,
                cost_model=cost_model,
            )
    raise ExplorationLimitError(
        f"policy evaluation did not converge in {max_iterations} sweeps",
        states_explored=graph.n_states,
    )


class OptimalAdversary(Scheduler):
    """Replay a solved game's maximizing policy as a scheduler.

    Configurations outside the policy (which should not occur when the
    protocol and inputs match the solved game) fall back to the lowest
    enabled pid.
    """

    def __init__(self, solution: GameSolution) -> None:
        self._solution = solution

    @property
    def name(self) -> str:
        return f"OptimalAdversary({self._solution.cost_model})"

    def choose(self, view: SchedulerView) -> Activate:
        pid = self._solution.policy_for(view.configuration)
        if pid is None or pid not in view.enabled:
            pid = view.enabled[0]
        return Activate(pid)
