"""Zobrist fingerprints for packed table-IR configurations.

The scalable checker (:mod:`repro.checker.statespace`) keys its visited
set by 64-bit fingerprints of packed ``(state-ids, register-vids[,
pending-writes])`` integer vectors instead of storing the vectors
themselves.  The fingerprint is a Zobrist hash: every *component* a
configuration can contain — processor ``p`` being in state ``s``, slot
``k`` holding value ``v``, writer ``w`` having a write of ``v`` pending
on slot ``k`` — gets an independent pseudo-random 64-bit key, and a
configuration's fingerprint is the XOR of its components' keys.  XOR
composition is what makes the hash *incremental*: one BFS edge changes
one processor state and at most one register slot, so the successor
fingerprint is the parent's XOR'd with two (reads) or four (writes)
keys — O(1) per edge regardless of system width.

Determinism contract
--------------------

Fingerprints must be identical across processes and runs (a visited
set kept with ``keep_fingerprints`` must reproduce on any host, and two
engines compiled independently for the same search must agree), so
nothing here may depend on Python's per-process salted ``hash()``
or on interning order (two compilations that discover states in
different orders assign different state ids to the same state).  Keys
are therefore derived from *content*: a structural 64-bit token of the
state/value object (:func:`stable_token` — FNV/SplitMix over the
object's structure, the same mixers as :func:`repro.sim.rng.
derive_seed`) folded with the component's position.  Same object, same
position, same key — in every process, on every Python version.

Collision story (the math; measurements in docs/CHECKER.md §2)
--------------------------------------------------------------

Distinct configurations collide when their 64-bit fingerprints are
equal.  Modelling fingerprints as uniform, a visited set of ``N``
states has expected number of colliding pairs ``N·(N-1)/2^65``
(birthday bound) — about ``1.6e-6`` at ``N = 10^7`` and ``0.016`` at
``N = 10^9``: far below one expected collision for every state space
this repo can enumerate, but *not zero*, which is why a collision
erases a state from the search (its successors are never expanded) and
a "verified" verdict from the fingerprint engine is probabilistic with
error probability bounded by the birthday term.  Tokens are 64-bit
too, so token collisions add an identically-bounded term over the
(much smaller) set of distinct state/value objects.  ``exact=True``
switches the visited set to the packed key vectors themselves — no
collisions, same exploration order, ~2-3x the memory — and the
differential harness runs both modes against the objects BFS
(tests/test_differential.py).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.sim.rng import _mix_str, _splitmix64

_MASK64 = (1 << 64) - 1

#: Tags keeping differently-typed atoms with equal payloads apart
#: (``1`` vs ``True`` vs ``1.0`` vs ``"1"``).
_T_NONE = 0x9E97_0001
_T_TRUE = 0x9E97_0003
_T_FALSE = 0x9E97_0004
_T_INT = 0x9E97_0005
_T_FLOAT = 0x9E97_0006
_T_STR = 0x9E97_0007
_T_BYTES = 0x9E97_0008
_T_TUPLE = 0x9E97_0009
_T_FROZENSET = 0x9E97_000A
_T_DATACLASS = 0x9E97_000B
_T_OPAQUE = 0x9E97_000C


def _fold(acc: int, token: int) -> int:
    return _splitmix64(acc ^ (token & _MASK64))


def stable_token(obj: Hashable,
                 _memo: Optional[Dict[Hashable, int]] = None) -> int:
    """Deterministic structural 64-bit token of a state/value object.

    Covers the object vocabulary the paper protocols use for states and
    register values: ``None``, bools, ints, floats, strings, bytes,
    tuples, frozensets, and (possibly nested) frozen dataclasses.
    Frozensets fold order-free (XOR of member tokens) so iteration
    order — which *is* salted-hash order — cannot leak in.  Anything
    else falls back to ``class-qualname + repr``, which is stable for
    the repo's singletons (``BOTTOM``) and enums; objects whose repr
    embeds a memory address would silently fingerprint per-process, so
    the fallback requires a repr without ``0x`` addresses.
    """
    if _memo is not None:
        token = _memo.get(obj)
        if token is not None:
            return token
    token = _token_of(obj, _memo)
    if _memo is not None:
        _memo[obj] = token
    return token


def _token_of(obj: Hashable, memo: Optional[Dict[Hashable, int]]) -> int:
    if obj is None:
        return _splitmix64(_T_NONE)
    if obj is True:
        return _splitmix64(_T_TRUE)
    if obj is False:
        return _splitmix64(_T_FALSE)
    cls = type(obj)
    if cls is int:
        return _fold(_splitmix64(_T_INT), obj)
    if cls is float:
        # Exact bit pattern via the (sign, mantissa, exponent) triple;
        # integral floats hash like their repr, not their int value.
        return _fold(_mix_str(_splitmix64(_T_FLOAT), repr(obj)), 0)
    if cls is str:
        return _mix_str(_splitmix64(_T_STR), obj)
    if cls is bytes:
        acc = _splitmix64(_T_BYTES)
        for byte in obj:
            acc = ((acc ^ byte) * 0x100000001B3) & _MASK64
        return _splitmix64(acc)
    if cls is tuple:
        acc = _fold(_splitmix64(_T_TUPLE), len(obj))
        for item in obj:
            acc = _fold(acc, stable_token(item, memo))
        return acc
    if cls is frozenset:
        acc = 0
        for item in obj:
            acc ^= stable_token(item, memo)
        return _fold(_fold(_splitmix64(_T_FROZENSET), len(obj)), acc)
    if dataclasses.is_dataclass(obj):
        acc = _mix_str(_splitmix64(_T_DATACLASS),
                       f"{cls.__module__}.{cls.__qualname__}")
        for field in dataclasses.fields(obj):
            acc = _fold(acc, stable_token(getattr(obj, field.name), memo))
        return acc
    rendered = repr(obj)
    if "0x" in rendered:
        raise TypeError(
            f"cannot build a stable fingerprint token for {cls.__name__} "
            f"(repr {rendered!r} embeds a memory address — implement it "
            f"as a frozen dataclass or give it a stable repr)")
    return _mix_str(_mix_str(_splitmix64(_T_OPAQUE),
                             f"{cls.__module__}.{cls.__qualname__}"),
                    rendered)


class ZobristTable:
    """Per-component Zobrist keys over one :class:`CompiledProtocol`.

    Keys are memoized per state id / ``(slot, vid)`` / pending triple
    for hot-loop speed, but their *values* depend only on content (see
    module docstring), so two tables over independently-interned
    ``CompiledProtocol`` instances of the same protocol agree.

    ``seed`` offsets the whole key family — exploring with two seeds
    and comparing visited counts is a cheap collision probe (a
    collision is seed-specific, the state space is not).
    """

    def __init__(self, compiled, seed: int = 0) -> None:
        self.compiled = compiled
        self.seed = seed
        self._root = _splitmix64(seed & _MASK64)
        self._token_memo: Dict[Hashable, int] = {}
        #: sid -> key for "processor state_pid[sid] is in state_obj[sid]".
        self.sid_key: List[int] = []
        #: slot -> {vid -> key} for "slot holds value vid".
        self.reg_key: List[Dict[int, int]] = [
            {} for _ in range(compiled.n_slots)]
        #: (writer, slot, vid) -> key for one pending weak-memory write.
        self.pend_key: Dict[Tuple[int, int, int], int] = {}
        self.sync()

    def sync(self) -> None:
        """Extend ``sid_key`` to cover newly-interned states."""
        cp = self.compiled
        sid_key = self.sid_key
        for sid in range(len(sid_key), cp.n_states):
            acc = _fold(_mix_str(self._root, "st"), cp.state_pid[sid])
            sid_key.append(
                _fold(acc, stable_token(cp.state_obj[sid],
                                        self._token_memo)))

    def reg(self, slot: int, vid: int) -> int:
        """Key of "slot ``slot`` holds the value interned as ``vid``"."""
        table = self.reg_key[slot]
        key = table.get(vid)
        if key is None:
            acc = _fold(_mix_str(self._root, "rg"), slot)
            key = table[vid] = _fold(
                acc, stable_token(self.compiled.values[vid],
                                  self._token_memo))
        return key

    def pend(self, writer: int, slot: int, vid: int) -> int:
        """Key of one pending write ``(writer, slot, value)``."""
        key = self.pend_key.get((writer, slot, vid))
        if key is None:
            acc = _fold(_fold(_mix_str(self._root, "pd"), writer), slot)
            key = self.pend_key[(writer, slot, vid)] = _fold(
                acc, stable_token(self.compiled.values[vid],
                                  self._token_memo))
        return key

    def fingerprint(self, sids: Sequence[int], regs: Sequence[int],
                    pend: Sequence[Tuple[int, int, int]] = ()) -> int:
        """Full (non-incremental) fingerprint of one packed configuration."""
        self.sync()
        fp = 0
        sid_key = self.sid_key
        for sid in sids:
            fp ^= sid_key[sid]
        for slot, vid in enumerate(regs):
            fp ^= self.reg(slot, vid)
        for writer, slot, vid in pend:
            fp ^= self.pend(writer, slot, vid)
        return fp
