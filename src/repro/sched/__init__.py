"""Adversary scheduler framework.

Section 2 of the paper defines a scheduler as a mapping from
configurations to processors, best viewed as an adversary with complete
knowledge of processor states and register contents (but no foresight
into coin flips).  This subpackage provides:

* :mod:`repro.sched.base` — the :class:`Scheduler` ABC,
* :mod:`repro.sched.simple` — benign schedulers (round-robin, random,
  fixed sequences, oblivious interleavings),
* :mod:`repro.sched.adversary` — adaptive full-knowledge adversaries,
  including the Section 5 strategy that kills the naive protocol,
* :mod:`repro.sched.crash` — fail-stop crash injection (the paper's
  protocols tolerate up to n−1 crashes).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.sched.base": ("Scheduler",),
    "repro.sched.simple": (
        "FixedScheduler",
        "ObliviousScheduler",
        "RandomScheduler",
        "RoundRobinScheduler",
        "BlockScheduler",
    ),
    "repro.sched.adversary": (
        "AdaptiveAdversary",
        "DisagreementAdversary",
        "LaggardFreezer",
        "NaiveKillerAdversary",
        "ReadValueAdversary",
        "SplitVoteAdversary",
    ),
    "repro.sched.crash": ("CrashingScheduler", "CrashPlan"),
    "repro.sched.lookahead": ("LookaheadAdversary",),
    "repro.sched.optimal": (
        "GameSolution",
        "evaluate_policy",
        "OptimalAdversary",
        "solve_game",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
