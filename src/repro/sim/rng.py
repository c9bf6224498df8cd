"""Seeded, replayable randomness.

Every stochastic component in the library (protocol coin flips, random
schedulers, workload generators) draws from a :class:`ReplayableRng`
derived from a single experiment seed through a stable mixing function.
Re-running an experiment with the same seed reproduces the same runs,
bit for bit, on every Python version — the mixer is a hand-rolled
SplitMix64 rather than :mod:`random`'s version-dependent seeding.

The derivation is *hierarchical*: ``derive_seed(seed, "proc", 2)`` gives
the coin stream of processor 2, independent of how many coins other
components consume.  This matters for experiments: changing the
scheduler must not perturb the processors' coin sequences, otherwise
A/B comparisons between schedulers would be confounded.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence, TypeVar

from _random import Random as _CRandom

_MASK64 = (1 << 64) - 1

T = TypeVar("T")


def _splitmix64(state: int) -> int:
    """One step of the SplitMix64 generator; returns the mixed output."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix_bytes(acc: int, data: bytes) -> int:
    """:func:`_mix_str` of a token already encoded as UTF-8."""
    h = acc
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return _splitmix64(h)


def _mix_str(acc: int, token: str) -> int:
    """Fold a string token into an accumulator, FNV-then-splitmix style."""
    h = acc
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return _splitmix64(h)


def derive_seed(root_seed: int, *path: object) -> int:
    """Derive a child seed from ``root_seed`` and a path of tokens.

    Tokens may be strings or integers; they are folded into the seed one
    at a time, so ``derive_seed(s, "proc", 1)`` and
    ``derive_seed(s, "proc", 2)`` are (for all practical purposes)
    independent streams.
    """
    acc = _splitmix64(root_seed & _MASK64)
    for token in path:
        if isinstance(token, int):
            acc = _splitmix64(acc ^ (token & _MASK64))
        else:
            acc = _mix_str(acc, str(token))
    return acc


class ReplayableRng:
    """A :class:`random.Random` wrapper with counting and sub-streams.

    The counter lets experiments report how many coin flips a protocol
    consumed (one of the complexity measures the paper discusses), and
    :meth:`child` spawns independent named streams.

    The underlying :class:`random.Random` is constructed lazily, on the
    first draw: seeding the Mersenne twister costs microseconds, and
    short runs build whole stream trees (per-processor coin streams,
    scheduler stream, input stream) of which several never draw.  The
    draw *sequence* is unaffected — the generator's state depends only
    on the seed, never on when it is instantiated.
    """

    __slots__ = ("_seed", "_random", "_draws")

    def __init__(self, seed: int) -> None:
        self._seed = seed & _MASK64
        self._random: random.Random = None  # bound by _bind on first draw
        self._draws = 0

    def _bind(self) -> random.Random:
        # ``random.Random(seed)`` for an int seed only forwards to the C
        # generator's seed through a Python-level wrapper; seeding the
        # C generator directly gives the same state at a fraction of
        # the call cost, paid once per drawing stream.
        rnd = random.Random.__new__(random.Random)
        _CRandom.seed(rnd, self._seed)
        rnd.gauss_next = None
        self._random = rnd
        return rnd

    def prime(self) -> "ReplayableRng":
        """Force generator construction now (e.g. outside a timed region)."""
        if self._random is None:
            self._bind()
        return self

    @property
    def seed(self) -> int:
        """The seed this stream was created with."""
        return self._seed

    @property
    def draws(self) -> int:
        """Number of random draws made so far on this stream."""
        return self._draws

    def child(self, *path: object) -> "ReplayableRng":
        """Return an independent stream derived from this stream's seed."""
        return ReplayableRng(derive_seed(self._seed, *path))

    def children(self, prefix: str, count: int) -> list:
        """``[self.child(prefix, i) for i in range(count)]``, batched.

        Folds ``prefix`` into the seed once instead of once per child —
        the kernel derives one coin stream per processor on every run,
        so this shows up in per-run construction cost.
        """
        base = _mix_str(_splitmix64(self._seed), prefix)
        return [ReplayableRng(_splitmix64(base ^ i)) for i in range(count)]

    def coin(self, p_heads: float = 0.5) -> bool:
        """Flip a (possibly biased) coin; ``True`` means heads."""
        self._draws += 1
        rnd = self._random
        if rnd is None:
            rnd = self._bind()
        return rnd.random() < p_heads

    def choice_index(self, weights: Sequence[float],
                     total: Optional[float] = None) -> int:
        """Sample an index proportionally to ``weights`` (need not sum to 1).

        ``total`` may carry the precomputed ``float(sum(weights))`` (the
        kernel caches it per transition); the sampled index is identical
        either way.
        """
        if total is None:
            total = float(sum(weights))
        if total <= 0.0:
            raise ValueError("weights must have positive sum")
        self._draws += 1
        rnd = self._random
        if rnd is None:
            rnd = self._bind()
        x = rnd.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if x < acc:
                return i
        return len(weights) - 1

    def choice(self, items: Sequence[T]) -> T:
        """Pick one element uniformly at random.

        The rejection sampling below is :meth:`random.Random.choice`
        inlined (identical ``getrandbits`` consumption, so identical
        sequences) — this is the hottest draw in the library (one per
        kernel step under a random scheduler) and skipping the
        ``choice``/``_randbelow`` call pair is measurable there.
        """
        self._draws += 1
        rnd = self._random
        if rnd is None:
            rnd = self._bind()
        n = len(items)
        if not n:
            raise IndexError("Cannot choose from an empty sequence")
        getrandbits = rnd.getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return items[r]

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the closed interval [lo, hi]."""
        self._draws += 1
        rnd = self._random
        if rnd is None:
            rnd = self._bind()
        return rnd.randint(lo, hi)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        self._draws += 1
        rnd = self._random
        if rnd is None:
            rnd = self._bind()
        return rnd.random()

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._draws += 1
        rnd = self._random
        if rnd is None:
            rnd = self._bind()
        rnd.shuffle(items)

    def sample(self, items: Sequence[T], k: int) -> list:
        """Sample ``k`` distinct elements."""
        self._draws += 1
        rnd = self._random
        if rnd is None:
            rnd = self._bind()
        return rnd.sample(items, k)


class _DeferredRng(ReplayableRng):
    """A child stream whose label is folded into its seed on first use.

    ``ReplayableRng(_mix_bytes(acc, label))``, except that the fold
    waits until something draws from the stream or reads its seed: an
    inputs factory that ignores its stream costs a run no derivation.
    """

    __slots__ = ("_pending",)

    def __init__(self, acc: int, label: bytes) -> None:
        self._random = None
        self._draws = 0
        self._pending = (acc, label)

    def __getattr__(self, name: str):
        # Reached only while ``_seed`` is unset: fold it in now.
        if name != "_seed":
            raise AttributeError(name)
        seed = self._seed = _mix_bytes(*self._pending)
        return seed


class RunStreams:
    """The per-run streams of a batch under one root seed.

    ``streams(i)`` returns run ``i``'s ``(sched, inputs, kernel)``
    streams, seeded exactly as ``ReplayableRng(root_seed).child("run",
    i).child(label)``: the root and ``"run"`` folds are done once per
    batch, the run seed's first mix once per run instead of once per
    child, and the labels are pre-encoded.  The inputs stream is
    deferred (:class:`_DeferredRng`).
    """

    __slots__ = ("_base",)

    def __init__(self, root_seed: int) -> None:
        self._base = _mix_bytes(_splitmix64(root_seed & _MASK64), b"run")

    def run_seed(self, run_index: int) -> int:
        """``derive_seed(root_seed, "run", run_index)``."""
        return _splitmix64(self._base ^ (run_index & _MASK64))

    def streams(self, run_index: int) -> tuple:
        acc = _splitmix64(_splitmix64(self._base ^ (run_index & _MASK64)))
        return (ReplayableRng(_mix_bytes(acc, b"sched")),
                _DeferredRng(acc, b"inputs"),
                ReplayableRng(_mix_bytes(acc, b"kernel")))


def spawn_streams(root_seed: int, names: Iterable[object]) -> dict:
    """Create one independent :class:`ReplayableRng` per name."""
    return {name: ReplayableRng(derive_seed(root_seed, name)) for name in names}
