"""Bounded-horizon expectimax adversary.

:mod:`repro.sched.optimal` solves the scheduling game *exactly*, but
only for protocols whose reachable configuration space is finite.  The
three-processor protocols are not (or not tractably so).  This module
provides the strongest practical adversary for them: at every decision
point it expands the game tree *on the fly* to a bounded horizon —
adversary nodes maximize, coin nodes average — and picks the activation
that minimizes expected decision progress within the horizon.

The objective within the horizon is the expected number of processors
that reach a decision, discounted so that *earlier* decisions count
more (the adversary prefers delaying over merely reshuffling).  Leaves
are scored 0, so the adversary is optimistic about its own future play
— a standard admissible cut-off.

Cost: O((n·b)^h) per step with branching b ≤ 2, so horizons of 4-8 are
practical.  Against the two-processor protocol (where the exact game is
solvable) the lookahead adversary with a modest horizon already forces
costs close to the true game value, which is the calibration test in
``tests/test_sched_lookahead.py``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from repro.sched.base import Scheduler
from repro.sim.config import Configuration
from repro.sim.kernel import Activate, SchedulerView


class LookaheadAdversary(Scheduler):
    """Expectimax adversary with a bounded horizon.

    Parameters
    ----------
    horizon:
        Number of steps to look ahead (≥ 1).  Each additional step
        multiplies per-decision cost by roughly the branching factor.
    discount:
        Weight decay per step for decisions occurring deeper in the
        tree; values < 1 make the adversary prefer *delaying* decisions
        over pushing them just past the horizon.
    """

    def __init__(self, horizon: int = 4, discount: float = 0.9) -> None:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 < discount <= 1.0:
            raise ValueError("discount must be in (0, 1]")
        self._horizon = horizon
        self._discount = discount
        # Expansion memo shared by every decision point: the same
        # ``(pid, state)`` recurs across the whole game tree and run.
        self._cache = None

    @property
    def name(self) -> str:
        return f"LookaheadAdversary(h={self._horizon})"

    def choose(self, view: SchedulerView) -> Activate:
        from repro.checker.explorer import successors
        from repro.sim.transitions import TransitionCache

        protocol = view.protocol
        layout = view.layout
        cache = self._cache
        if cache is None or cache.protocol is not protocol:
            cache = self._cache = TransitionCache(protocol, layout,
                                                  strict=False)
        memo: Dict[Tuple[Configuration, int], float] = {}
        # A step moves only its processor, which was undecided, so it
        # adds a decision exactly when that processor's new state has
        # an output.
        output = cache.output

        def value(config: Configuration, depth: int) -> float:
            """Expected discounted decision mass from here (adversary
            minimizes it by choosing who moves)."""
            if depth == 0:
                return 0.0
            key = (config, depth)
            if key in memo:
                return memo[key]
            by_pid: Dict[int, float] = {}
            for s in successors(protocol, layout, config, cache):
                newly = output(s.pid, s.config.states[s.pid]) is not None
                contrib = s.probability * (
                    newly * (self._discount ** (self._horizon - depth))
                    + value(s.config, depth - 1)
                )
                by_pid[s.pid] = by_pid.get(s.pid, 0.0) + contrib
            if not by_pid:
                memo[key] = 0.0
                return 0.0
            best = min(by_pid.values())
            memo[key] = best
            return best

        config = view.configuration
        scores: Dict[int, float] = {}
        for s in successors(protocol, layout, config, cache):
            newly = output(s.pid, s.config.states[s.pid]) is not None
            contrib = s.probability * (
                newly + value(s.config, self._horizon - 1)
            )
            scores[s.pid] = scores.get(s.pid, 0.0) + contrib
        if not scores:
            return Activate(view.enabled[0])
        # Minimize expected decision mass; break ties toward low pid for
        # reproducibility.
        best_pid = min(sorted(scores), key=lambda pid: scores[pid])
        return Activate(best_pid)
