"""Adaptive full-knowledge adversaries.

These schedulers exercise the strongest adversary the paper allows: a
mapping from full configurations (processor states + register contents)
to the next activated processor.  They may inspect everything *except*
future coin flips — the kernel samples probabilistic branches only after
the adversary has committed.

The library includes the concrete strategies the paper's analysis refers
to:

* :class:`DisagreementAdversary` — plays the Theorem 7 game against the
  two-processor protocol, trying to keep the two preference registers
  different for as long as possible.
* :class:`NaiveKillerAdversary` — the Section 5 strategy that defeats
  the naive "flip until everyone agrees" protocol: manufacture a frozen
  disagreement between two processors, then starve a third forever.
* :class:`LaggardFreezer` — withholds steps from the least-advanced
  processor, creating exactly the leader/laggard gaps the three-processor
  protocols must cope with.
* :class:`SplitVoteAdversary` — protocol-agnostic balance-keeper that
  tries to maintain an even split of preferences.

All of them are *fair-if-needed*: when their preferred victim set is
exhausted (processors decide or halt), they fall back to activating any
enabled processor, so runs always make progress.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional, Sequence

from repro.sched.base import Scheduler
from repro.sim.kernel import Activate, SchedulerView
from repro.sim.ops import BOTTOM


Strategy = Callable[[SchedulerView], Optional[int]]


class AdaptiveAdversary(Scheduler):
    """Generic adaptive adversary driven by a strategy function.

    The strategy receives the full :class:`SchedulerView` and returns a
    processor id, or ``None`` to mean "no preference" (the adversary
    then falls back to the lowest-id enabled processor).
    """

    def __init__(self, strategy: Strategy, label: str = "adaptive") -> None:
        self._strategy = strategy
        self._label = label

    @property
    def name(self) -> str:
        return f"AdaptiveAdversary({self._label})"

    def choose(self, view: SchedulerView) -> Activate:
        pid = self._strategy(view)
        if pid is None or pid not in view.enabled:
            pid = view.enabled[0]
        return Activate(pid)


def _pc_of(state: Hashable) -> Optional[str]:
    """Duck-typed program counter of a protocol state (``None`` if absent)."""
    return getattr(state, "pc", None)


def _pref_of(value: Hashable) -> Hashable:
    """Duck-typed preference field of a register value.

    Protocol register contents are either bare preference values (the
    two-processor protocol) or records with a ``pref`` field (the
    three-processor protocols).
    """
    return getattr(value, "pref", value)


class DisagreementAdversary(Scheduler):
    """The Theorem 7 adversary for the two-processor protocol.

    Strategy: keep the two shared registers holding different values for
    as long as possible.

    * If the registers currently *differ*, activating a reader is safe
      for the adversary (the reader will see disagreement and go flip a
      coin), so prefer processors about to read.
    * If the registers currently *agree*, a reader would decide — so
      activate a processor about to write and hope its coin makes it
      overwrite with the other value.

    Theorem 7 shows that no strategy (this one included) pushes the
    expected decision cost above 10 steps per processor: each
    write-pair still produces agreement with probability ≥ 1/4.
    """

    pure_choice = True

    def choose(self, view: SchedulerView) -> Activate:
        layout = view.layout
        regs = [view.configuration.registers[i] for i in range(len(layout))]
        prefs = [_pref_of(v) for v in regs]
        disagreement = len({p for p in prefs if p is not BOTTOM}) > 1

        readers = [
            pid for pid in view.enabled if _pc_of(view.state_of(pid)) == "read"
        ]
        writers = [
            pid for pid in view.enabled if _pc_of(view.state_of(pid)) == "write"
        ]
        if disagreement and readers:
            return Activate(readers[0])
        if not disagreement and writers:
            return Activate(writers[0])
        # No processor in the preferred phase: take any enabled one
        # (init-phase processors land here).
        return Activate(view.enabled[0])


class NaiveKillerAdversary(Scheduler):
    """The Section 5 counterexample strategy (requires n >= 3).

    Phase 1: run processor A until its register holds a value.
    Phase 2: run processor B until its register holds a value *different*
    from A's (each of B's phases rewrites a fresh coin flip, so this
    takes an expected O(1) phases).
    Phase 3: starve A and B forever and activate only the victim, which
    can never see unanimous registers and therefore never decides.

    Against the paper's protocols the same strategy is harmless — the
    victim eventually out-races the frozen pair by 2 and decides alone —
    which is exactly the comparison benchmark E4 draws.
    """

    def __init__(self, a: int = 0, b: int = 1, victim: int = 2,
                 register_of: Optional[Callable[[SchedulerView, int], Hashable]] = None) -> None:
        if len({a, b, victim}) != 3:
            raise ValueError("a, b, victim must be distinct")
        self._a = a
        self._b = b
        self._victim = victim
        self._register_of = register_of or self._default_register_of

    @staticmethod
    def _default_register_of(view: SchedulerView, pid: int) -> Hashable:
        """Value of the single register owned (written) by ``pid``."""
        for spec in view.layout.specs:
            if spec.writers == (pid,):
                return view.register(spec.name)
        raise ValueError(f"no single-writer register owned by processor {pid}")

    def choose(self, view: SchedulerView) -> Activate:
        enabled = set(view.enabled)
        val_a = _pref_of(self._register_of(view, self._a))
        val_b = _pref_of(self._register_of(view, self._b))
        if val_a is BOTTOM and self._a in enabled:
            return Activate(self._a)
        if (val_b is BOTTOM or val_b == val_a) and self._b in enabled:
            return Activate(self._b)
        if self._victim in enabled:
            return Activate(self._victim)
        return Activate(view.enabled[0])


class LaggardFreezer(Scheduler):
    """Starve the least-advanced processor; run the leaders.

    ``progress_of`` extracts a progress measure from a processor's
    state; the default uses the kernel's activation counts.  For the
    three-processor protocols this manufactures the "last processor two
    or more steps behind" situations that drive the bounded protocol's
    embedded two-processor phase.
    """

    def __init__(self, progress_of: Optional[Callable[[SchedulerView, int], float]] = None) -> None:
        self._progress_of = progress_of

    def choose(self, view: SchedulerView) -> Activate:
        def progress(pid: int) -> float:
            if self._progress_of is not None:
                return self._progress_of(view, pid)
            return float(view.activations(pid))

        enabled = list(view.enabled)
        if len(enabled) == 1:
            return Activate(enabled[0])
        laggard = min(enabled, key=progress)
        others = [pid for pid in enabled if pid != laggard]
        # Round-robin among the non-laggards to keep them both moving.
        leader = min(others, key=lambda pid: view.activations(pid))
        return Activate(leader)


class ReadValueAdversary(Scheduler):
    """Wrap any scheduler with a weak-memory read-value policy.

    Under ``regular``/``safe`` register semantics a contended read has
    several legal return values and the adversary picks one (see
    :mod:`repro.sim.memory`).  This wrapper delegates *who moves next*
    to an inner scheduler and adds the value-choosing half of the
    extended vocabulary:

    * ``"commit"`` — always return the committed value ``choices[0]``
      (the overlapping write never appears early; equivalent to not
      overriding ``resolve_read`` at all),
    * ``"adversarial"`` — prefer a value that *differs* from the
      reading processor's own preference, scanning the non-committed
      choices last-writer-first; this steers weak protocols toward
      manufactured disagreement, the HHT-style stress case,
    * ``"random"`` — draw uniformly from the legal set using the
      supplied :class:`~repro.sim.rng.ReplayableRng` stream (replayable
      like every other source of randomness).

    The wrapper never sees future coin flips: ``resolve_read`` runs
    after the scheduler committed to activating ``pid`` and before the
    kernel samples any further randomness for other processors, with
    only the current configuration in view.
    """

    POLICIES = ("commit", "adversarial", "random")

    def __init__(self, inner: Scheduler, policy: str = "adversarial",
                 rng=None) -> None:
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown read policy {policy!r} "
                f"(expected one of {self.POLICIES})"
            )
        if policy == "random" and rng is None:
            raise ValueError("policy 'random' needs an rng stream")
        self._inner = inner
        self._policy = policy
        self._rng = rng

    @property
    def name(self) -> str:
        return f"ReadValueAdversary({self._inner.name}, {self._policy})"

    def choose(self, view: SchedulerView):
        return self._inner.choose(view)

    def resolve_read(self, view: SchedulerView, pid: int, register: str,
                     choices) -> Hashable:
        if self._policy == "commit":
            return choices[0]
        if self._policy == "random":
            return self._rng.choice(choices)
        # "adversarial": the reader should see anything *but* what it
        # already believes — pending/garbage values first, newest last
        # write preferred.
        own = _pref_of(view.state_of(pid))
        for candidate in reversed(choices):
            if _pref_of(candidate) != own:
                return candidate
        return choices[0]


class SplitVoteAdversary(Scheduler):
    """Protocol-agnostic balance-keeping adversary.

    Tries to keep the multiset of register preferences split:

    * if preferences are split, activate a processor about to read
      (reads cannot create agreement in register contents),
    * if preferences are unanimous, activate a processor about to
      write whose *state* preference differs from the register
      consensus — or failing that, any writer, hoping the coin flips
      the value.

    Works against any protocol whose registers expose a ``pref`` field
    (or are bare values) and whose states expose ``pc``; degrades to
    lowest-id scheduling otherwise.

    Pure (``pure_choice``) with the default ``pref_extractor`` only: a
    caller's extractor may keep state.
    """

    pure_choice = True

    def __init__(self, pref_extractor: Callable[[Hashable], Hashable] = _pref_of) -> None:
        self._pref = pref_extractor
        if pref_extractor is not _pref_of:
            self.pure_choice = False

    def choose(self, view: SchedulerView) -> Activate:
        prefs = [
            self._pref(v) for v in view.configuration.registers
        ]
        real = [p for p in prefs if p is not BOTTOM and p is not None]
        split = len(set(real)) > 1

        readers = [
            pid for pid in view.enabled if _pc_of(view.state_of(pid)) == "read"
        ]
        writers = [
            pid for pid in view.enabled if _pc_of(view.state_of(pid)) == "write"
        ]
        if split and readers:
            return Activate(readers[0])
        if not split and writers:
            return Activate(writers[0])
        if writers:
            return Activate(writers[0])
        return Activate(view.enabled[0])
