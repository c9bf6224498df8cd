"""The scalable state-space engine: fingerprinted table-IR BFS.

This is the checker's counterpart of the kernel's fast path: the same
reachable-configuration semantics as :func:`repro.checker.explorer.
explore`, executed over packed integer vectors instead of
:class:`~repro.sim.config.Configuration` objects.  A configuration is
``(state-ids, register-vids, pending-writes)`` — interned through one
:class:`~repro.ir.lower.CompiledProtocol` — and the visited set stores
64-bit Zobrist fingerprints (:mod:`repro.checker.fingerprint`), so one
BFS edge costs a couple of XORs and one set probe instead of tuple
hashing and object allocation.  Safety (consistency + nontriviality)
is checked inline on first visit, exactly as
:func:`~repro.checker.properties.verify_safety` checks it via
``on_node``.

What quantifies over what: the graph ranges over every scheduler
choice and every coin outcome, and — under ``regular``/``safe``
memory — every adversary read-value choice, by lowering the
per-value read-outcome cells of the compiled tables into the successor
expansion (the same fan-out as :func:`repro.checker.explorer.
_weak_successors`, in the same deterministic order).

Optional reductions (:mod:`repro.checker.reduction`):

* ``symmetry=True`` canonicalizes each configuration over the
  *machine-verified* automorphism group of the closed tables before
  fingerprinting.  Soundness is by construction; protocols whose step
  relation is asymmetric (sorted-pid peer reads) verify a trivial
  group and the report says so.
* ``por=True`` prunes commuting interleavings with sleep sets.  The
  variant used prunes edges only — the visited-state set is provably
  identical with the reduction on or off, which the differential suite
  asserts literally.  Auto-disabled (with a note) under weak memory,
  depth budgets, or combined with symmetry.

The search always runs in the calling process: fingerprints are
content-derived, so a report depends only on the protocol, inputs,
memory semantics, budgets and ``fingerprint_seed``.  See
docs/CHECKER.md for the collision math and the soundness arguments.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter as _perf_counter
from typing import (
    Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple,
)

from repro.checker.fingerprint import ZobristTable
from repro.checker.reduction import (
    PorFootprints,
    SymmetryGroup,
    candidate_permutations,
    discover_symmetry,
)
from repro.ir.lower import IRCompileError, compile_protocol
from repro.sim.config import Configuration
from repro.sim.memory import memory_spec
from repro.sim.process import Automaton

#: Default distinct-configuration budget — sized for the exhaustive
#: three_bounded cell (17.4M states), not for toy runs.
DEFAULT_MAX_STATES = 50_000_000


@dataclasses.dataclass
class ExploreReport:
    """Outcome of one fingerprinted exploration.

    ``exhausted`` is the load-bearing bit: ``True`` means the *entire*
    reachable space was enumerated and the inline safety verdict
    (``ok``) covers it; ``False`` means a budget (``truncated_by``:
    ``"depth"``/``"states"``) or an early violation stop cut the search
    short, and ``ok`` only covers what was visited.  ``fingerprints``
    is populated on request (``keep_fingerprints=True``) for
    differential suites; ``fingerprint_of`` maps an object-level
    :class:`Configuration` through the same canonicalization and
    fingerprint function the search used.
    """

    protocol: str
    inputs: Tuple[Hashable, ...]
    memory: str
    visited: int
    edges: int
    depth: int
    exhausted: bool
    truncated_by: Optional[str]
    seconds: float
    states_per_sec: float
    ok: bool
    violation: Optional[str]
    witness: Optional[Configuration]
    exact: bool
    symmetry_order: int
    symmetry_note: Optional[str]
    por: bool
    por_note: Optional[str]
    pruned: int
    frontier: int
    fingerprints: Optional[frozenset] = None
    fingerprint_of: Optional[Callable[[Configuration], Any]] = \
        dataclasses.field(default=None, repr=False, compare=False)

    def guarantee(self) -> str:
        """Human-readable statement of what was proven (cf. SafetyReport)."""
        if not self.ok:
            return f"VIOLATION: {self.violation}"
        scope = (
            "the full reachable configuration space"
            if self.exhausted
            else f"all runs up to depth {self.depth} "
                 f"({self.visited} configurations)"
        )
        return f"safety (consistency + nontriviality) holds over {scope}"


def _orbit_input_sets(protocol: Automaton,
                      inputs: Tuple[Hashable, ...]) -> List[Tuple]:
    """The input assignments symmetry canonicalization can reach.

    A verified permutation ``π`` maps the root of assignment ``v`` to
    the root of ``v ∘ π⁻¹`` (processor ``π(p)`` holds ``v[p]``), so the
    closed tables must cover the whole candidate orbit for the
    automorphism check to have a universe to quantify over.
    """
    n = protocol.n_processes
    orbit = {inputs}
    for perm in candidate_permutations(protocol) or []:
        image: List[Hashable] = [None] * n
        for p in range(n):
            image[perm[p]] = inputs[p]
        orbit.add(tuple(image))
    return sorted(orbit, key=repr)


#: :meth:`StateSpaceEngine._add_generic`'s answer when the state budget
#: refused a new state.
_FULL = ("state budget",)


class StateSpaceEngine:
    """Compiled tables + reductions + fingerprints for one exploration.

    The fingerprints are content-derived and the reduction tables
    canonical, so two engines built independently for the same search
    agree edge-for-edge.
    """

    def __init__(self, protocol: Automaton, inputs: Sequence[Hashable],
                 memory=None, *, exact: bool = False,
                 symmetry: bool = False, por: bool = False,
                 fingerprint_seed: int = 0) -> None:
        self.protocol = protocol
        self.inputs = tuple(inputs)
        self.spec = memory_spec(memory)
        self.weak = not self.spec.atomic
        self.safe_mem = self.spec.name == "safe"
        self.exact = exact
        self.fingerprint_seed = fingerprint_seed
        self.symmetry_note: Optional[str] = None
        self.por_note: Optional[str] = None
        self.group: Optional[SymmetryGroup] = None
        self.symmetry_order = 1

        use_por = por
        if por and symmetry:
            use_por = False
            self.por_note = ("disabled: combined with symmetry "
                             "(canonicalization relabels the pid-indexed "
                             "sleep masks; docs/CHECKER.md §4)")
        if use_por and self.weak:
            use_por = False
            self.por_note = ("disabled: weak memory (pending-write "
                             "commits make step independence "
                             "configuration-dependent; docs/CHECKER.md §4)")
        self.por = use_por

        cp = None
        if symmetry:
            try:
                cp = compile_protocol(
                    protocol, _orbit_input_sets(protocol, self.inputs),
                    strict=False, closed=True)
            except IRCompileError as exc:
                self.symmetry_note = (
                    f"disabled: closed compilation refused ({exc})")
                cp = None
            else:
                group = discover_symmetry(cp, protocol)
                self.symmetry_note = group.note
                self.symmetry_order = group.order
                if group.perms:
                    self.group = group
        if cp is None:
            cp = compile_protocol(protocol, [self.inputs], strict=False)
        self.cp = cp
        self.zob = None if exact else ZobristTable(cp, fingerprint_seed)
        self.foot = PorFootprints(cp) if self.por else None
        self.input_vids = frozenset(
            cp.intern_value(v) for v in self.inputs)

    # -- packing -------------------------------------------------------

    def root_item(self) -> Tuple:
        """The (canonical) packed root: ``(sids, regs, pend, key, mask)``."""
        sids = tuple(self.cp.initial_sids(self.inputs))
        regs = tuple(self.cp.init_regs)
        pend: Tuple = ()
        if self.group is not None:
            sids, regs, pend = self.group.canonical(sids, regs, pend)
        return (sids, regs, pend, self.key_of(sids, regs, pend), 0)

    def key_of(self, sids, regs, pend) -> Any:
        """Visited-set key: the packed vectors (exact) or their fingerprint."""
        if self.exact:
            return (sids, regs, pend)
        return self.zob.fingerprint(sids, regs, pend)

    def fingerprint_configuration(self, config: Configuration) -> Any:
        """Map an object-level configuration through the engine's lens.

        Encodes, canonicalizes (when symmetry is active) and keys the
        configuration exactly as the search would have — the
        differential suites compare ``{fingerprint_configuration(c)}``
        over an objects-BFS graph with the engine's visited set.
        """
        sids, regs, pend = self.cp.encode_configuration(config)
        if self.group is not None:
            sids, regs, pend = self.group.canonical(sids, regs, pend)
        return self.key_of(sids, regs, pend)

    def witness_of(self, sids, regs, pend) -> Configuration:
        return self.cp.decode_configuration(sids, regs, pend)

    def has_enabled(self, item: Tuple) -> bool:
        """Does any processor still have a step (frontier liveness)?"""
        cp = self.cp
        for sid in item[0]:
            if cp.state_nb[sid] < 0:
                cp.ensure_compiled(sid)
            if cp.state_nb[sid] != 0:
                return True
        return False

    # -- safety --------------------------------------------------------

    def check_state(self, sids: Tuple[int, ...], depth: int) \
            -> Optional[str]:
        """Inline safety check; returns the violation message, if any."""
        cp = self.cp
        state_out = cp.state_out
        decided = {pid: state_out[sid] for pid, sid in enumerate(sids)
                   if state_out[sid] >= 0}
        if not decided:
            return None
        values = set(decided.values())
        rendered = {pid: cp.values[vid] for pid, vid in decided.items()}
        if len(values) > 1:
            return f"consistency: decisions {rendered!r} at depth {depth}"
        if any(vid not in self.input_vids for vid in values):
            inputs = sorted(map(repr, set(self.inputs)))
            return (f"nontriviality: decisions {rendered!r} outside "
                    f"inputs {inputs} at depth {depth}")
        return None

    # -- expansion -----------------------------------------------------

    def expand_level(self, items: Sequence[Tuple], visited,
                     next_items: List[Tuple], depth: int,
                     max_states: int) -> Tuple:
        """Expand one BFS level against ``visited``, appending new items.

        ``visited`` is a set of keys (no POR) or a ``{key: sleep-mask}``
        dict (POR).  Returns ``(edges, pruned, violation, stopped_at)``
        where ``stopped_at`` is the index of the first unexpanded item
        when the state budget tripped or a violation stopped the level
        (else ``None``) and ``violation`` is the packed
        ``(message, sids, regs, pend)`` record of that violation (else
        ``None``).
        """
        cp = self.cp
        state_nb = cp.state_nb
        state_base = cp.state_base
        state_out = cp.state_out
        br_is_read = cp.br_is_read
        br_slot = cp.br_slot
        br_write = cp.br_write
        br_write_next = cp.br_write_next
        br_read_out = cp.br_read_out
        ensure = cp.ensure_compiled
        read_outcome = cp.read_outcome
        init_regs = cp.init_regs
        n = cp.n_processes
        ndepth = depth + 1

        exact = self.exact
        weak = self.weak
        safe_mem = self.safe_mem
        por = self.por
        group = self.group
        zob = self.zob
        if zob is not None:
            zob.sync()
            sid_key = zob.sid_key
            reg_rows = zob.reg_key
            reg_key = zob.reg
        indep = self.foot.independent if por else None
        input_vids = self.input_vids
        fast = not weak and group is None and not exact

        visited_get = visited.get if por else None
        append = next_items.append
        edges = 0
        pruned = 0

        for idx, item in enumerate(items):
            sids, regs, pend, fp, mask = item
            explored = 0
            for pid in range(n):
                sid = sids[pid]
                nb = state_nb[sid]
                if nb < 0:
                    ensure(sid)
                    if zob is not None:
                        zob.sync()
                    nb = state_nb[sid]
                if nb == 0:
                    continue
                if por and mask >> pid & 1:
                    pruned += 1
                    continue

                if por:
                    # Sleep mask every successor via this pid inherits:
                    # asleep-or-earlier pids whose current step is
                    # independent of pid's.
                    nmask = 0
                    cand = mask | explored
                    q = 0
                    c = cand
                    while c:
                        if c & 1 and indep(sids[q], sid):
                            nmask |= 1 << q
                        c >>= 1
                        q += 1
                    explored |= 1 << pid
                else:
                    nmask = 0

                if weak:
                    # Commit pid's pending write first (on_activate).
                    base_regs = regs
                    base_pend = pend
                    for i, entry in enumerate(pend):
                        if entry[0] == pid:
                            slot_c, vid_c = entry[1], entry[2]
                            base_regs = regs[:slot_c] + (vid_c,) \
                                + regs[slot_c + 1:]
                            base_pend = pend[:i] + pend[i + 1:]
                            break
                else:
                    base_regs = regs
                    base_pend = pend

                base = state_base[sid]
                if fast:
                    sk = sid_key[sid]
                for b in range(base, base + nb):
                    if br_is_read[b]:
                        slot = br_slot[b]
                        if weak:
                            # Adversary read fan-out: committed value
                            # first, then pending values in writer
                            # order (deduplicated), then — safe only,
                            # under contention — the initial value.
                            choice_vids = [base_regs[slot]]
                            contended = False
                            for w_, s_, v_ in base_pend:
                                if s_ == slot:
                                    contended = True
                                    if v_ not in choice_vids:
                                        choice_vids.append(v_)
                            if safe_mem and contended:
                                garbage = init_regs[slot]
                                if garbage not in choice_vids:
                                    choice_vids.append(garbage)
                        else:
                            choice_vids = (base_regs[slot],)
                        for vid in choice_vids:
                            nsid = br_read_out[b].get(vid)
                            if nsid is None:
                                nsid = read_outcome(b, vid)
                                if zob is not None:
                                    zob.sync()
                            edges += 1
                            if fast:
                                nfp = fp ^ sk ^ sid_key[nsid]
                                if por:
                                    old = visited_get(nfp)
                                    if old is None:
                                        if len(visited) >= max_states:
                                            return edges, pruned, None, idx
                                        visited[nfp] = nmask
                                    elif old & nmask != old:
                                        nmask_m = old & nmask
                                        visited[nfp] = nmask_m
                                        append((
                                            sids[:pid] + (nsid,)
                                            + sids[pid + 1:],
                                            regs, pend, nfp, nmask_m))
                                        continue
                                    else:
                                        continue
                                else:
                                    if nfp in visited:
                                        continue
                                    if len(visited) >= max_states:
                                        return edges, pruned, None, idx
                                    visited.add(nfp)
                                nsids = sids[:pid] + (nsid,) \
                                    + sids[pid + 1:]
                                if state_out[nsid] >= 0:
                                    msg = self.check_state(nsids, ndepth)
                                    if msg is not None:
                                        return (edges, pruned,
                                                (msg, nsids, regs, pend),
                                                idx)
                                append((nsids, regs, pend, nfp, nmask))
                            else:
                                nsids = sids[:pid] + (nsid,) \
                                    + sids[pid + 1:]
                                stop = self._add_generic(
                                    nsids, base_regs, base_pend, nmask,
                                    visited, append, ndepth, max_states)
                                if stop is not None:
                                    return (edges, pruned,
                                            None if stop is _FULL else stop,
                                            idx)
                    else:
                        slot = br_slot[b]
                        nsid = br_write_next[b]
                        wvid = br_write[b]
                        edges += 1
                        if fast:
                            old_vid = regs[slot]
                            row = reg_rows[slot]
                            ko = row.get(old_vid)
                            if ko is None:
                                ko = reg_key(slot, old_vid)
                            kn = row.get(wvid)
                            if kn is None:
                                kn = reg_key(slot, wvid)
                            nfp = fp ^ sk ^ sid_key[nsid] ^ ko ^ kn
                            if por:
                                old = visited_get(nfp)
                                if old is None:
                                    if len(visited) >= max_states:
                                        return edges, pruned, None, idx
                                    visited[nfp] = nmask
                                elif old & nmask != old:
                                    nmask_m = old & nmask
                                    visited[nfp] = nmask_m
                                    append((
                                        sids[:pid] + (nsid,)
                                        + sids[pid + 1:],
                                        regs[:slot] + (wvid,)
                                        + regs[slot + 1:],
                                        pend, nfp, nmask_m))
                                    continue
                                else:
                                    continue
                            else:
                                if nfp in visited:
                                    continue
                                if len(visited) >= max_states:
                                    return edges, pruned, None, idx
                                visited.add(nfp)
                            nsids = sids[:pid] + (nsid,) + sids[pid + 1:]
                            nregs = regs[:slot] + (wvid,) \
                                + regs[slot + 1:]
                            if state_out[nsid] >= 0:
                                msg = self.check_state(nsids, ndepth)
                                if msg is not None:
                                    return (edges, pruned,
                                            (msg, nsids, nregs, pend), idx)
                            append((nsids, nregs, pend, nfp, nmask))
                        else:
                            nsids = sids[:pid] + (nsid,) + sids[pid + 1:]
                            if weak:
                                # The write is pending, not committed.
                                npend = tuple(sorted(
                                    base_pend + ((pid, slot, wvid),)))
                                nregs = base_regs
                            else:
                                npend = base_pend
                                nregs = base_regs[:slot] + (wvid,) \
                                    + base_regs[slot + 1:]
                            stop = self._add_generic(
                                nsids, nregs, npend, nmask,
                                visited, append, ndepth, max_states)
                            if stop is not None:
                                return (edges, pruned,
                                        None if stop is _FULL else stop,
                                        idx)
        return edges, pruned, None, None

    def _add_generic(self, nsids, nregs, npend, nmask, visited, append,
                     ndepth, max_states) -> Optional[Tuple]:
        """Slow-path add: canonicalize, key, dedup, check.  Returns
        ``None`` to go on, :data:`_FULL` when the state budget refused
        the state, or the packed ``(message, sids, regs, pend)`` record
        of the violation it found."""
        if self.group is not None:
            nsids, nregs, npend = self.group.canonical(nsids, nregs, npend)
        key = self.key_of(nsids, nregs, npend)
        if self.por:
            old = visited.get(key)
            if old is None:
                if len(visited) >= max_states:
                    return _FULL
                visited[key] = nmask
            elif old & nmask != old:
                merged = old & nmask
                visited[key] = merged
                append((nsids, nregs, npend, key, merged))
                return None
            else:
                return None
        else:
            if key in visited:
                return None
            if len(visited) >= max_states:
                return _FULL
            visited.add(key)
        msg = self.check_state(nsids, ndepth)
        if msg is not None:
            return (msg, nsids, nregs, npend)
        append((nsids, nregs, npend, key, nmask))
        return None


def explore_fast(
    protocol: Automaton,
    inputs: Sequence[Hashable],
    *,
    memory=None,
    max_depth: Optional[int] = None,
    max_states: int = DEFAULT_MAX_STATES,
    exact: bool = False,
    symmetry: bool = False,
    por: bool = False,
    fingerprint_seed: int = 0,
    keep_fingerprints: bool = False,
    heartbeat_sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    heartbeat_every: int = 200_000,
    telemetry_path: Optional[str] = None,
    tracer=None,
) -> ExploreReport:
    """Level-synchronous fingerprinted BFS with inline safety checking.

    The scalable counterpart of :func:`repro.checker.explorer.explore`
    — same reachable set, same quantification, ~10-20x the visited
    states/sec (benchmarks/test_bench_checker.py) — that returns a
    summary :class:`ExploreReport` instead of materializing the graph.

    Parameters beyond the explorer's: ``exact`` stores packed vectors
    instead of fingerprints (no collision risk, more memory);
    ``symmetry``/``por`` enable the verified reductions;
    ``heartbeat_sink``/``telemetry_path`` stream
    :class:`~repro.obs.telemetry.Heartbeat` progress pulses (visited,
    states/sec, depth, frontier — ``repro top`` renders them);
    ``tracer`` records the whole search as one ``checker.explore`` span
    with ``visited``/``frontier`` attributes.
    """
    t0 = _perf_counter()
    engine = StateSpaceEngine(
        protocol, inputs, memory, exact=exact, symmetry=symmetry,
        por=por, fingerprint_seed=fingerprint_seed)
    if engine.por and max_depth is not None:
        engine.por = False
        engine.foot = None
        engine.por_note = ("disabled: depth budget (a pruned "
                           "interleaving's commuted path may cross the "
                           "horizon; docs/CHECKER.md §4)")

    telemetry_fh = None
    sinks: List[Callable[[Dict[str, Any]], None]] = []
    if heartbeat_sink is not None:
        sinks.append(heartbeat_sink)
    if telemetry_path is not None:
        from repro.obs.telemetry import file_sink

        telemetry_fh = open(telemetry_path, "w")
        sinks.append(file_sink(telemetry_fh))

    try:
        root = engine.root_item()
        visited: Any = {root[3]: 0} if engine.por else {root[3]}
        level: List[Tuple] = [root]
        depth = 0
        max_level = 0
        edges = 0
        pruned = 0
        frontier_items: List[Tuple] = []
        truncated_by: Optional[str] = None
        violation_rec: Optional[Tuple] = None
        last_beat = 0

        def emit(done: bool, frontier_size: int) -> None:
            nonlocal last_beat
            if not sinks:
                return
            from repro.obs.telemetry import Heartbeat

            elapsed = max(_perf_counter() - t0, 1e-9)
            count = len(visited)
            beat = Heartbeat(
                shard=0, runs_done=count, runs_total=max_states,
                steps=count, elapsed_s=elapsed,
                steps_per_s=count / elapsed, eta_s=None, done=done,
                tail={"p50": None, "p90": None, "p99": None,
                      "max": None, "new": count - last_beat,
                      "depth": max_level, "frontier": frontier_size},
            )
            last_beat = count
            payload = beat.to_dict()
            for sink in sinks:
                sink(payload)

        root_msg = engine.check_state(root[0], 0)
        if root_msg is not None:
            violation_rec = (root_msg,) + root[:3]
            level = []

        while level and violation_rec is None:
            if max_depth is not None and depth >= max_depth:
                frontier_items = level
                truncated_by = "depth"
                break
            next_items: List[Tuple] = []
            lv_edges, lv_pruned, violation_rec, stopped = \
                engine.expand_level(level, visited, next_items, depth,
                                    max_states)
            edges += lv_edges
            pruned += lv_pruned
            if violation_rec is not None:
                frontier_items = next_items
                break
            if stopped is not None:
                truncated_by = "states"
                frontier_items = level[stopped:] + next_items
                break
            depth += 1
            if next_items:
                max_level = depth
            level = next_items
            if len(visited) - last_beat >= heartbeat_every or not level:
                emit(False, len(level))

        if violation_rec is None and truncated_by is None:
            frontier_items = []
        exhausted = False
        if violation_rec is None:
            if truncated_by == "depth":
                exhausted = not any(
                    engine.has_enabled(item) for item in frontier_items)
                if exhausted:
                    truncated_by = None
            else:
                exhausted = truncated_by is None

        seconds = _perf_counter() - t0
        witness = None
        violation_msg = None
        if violation_rec is not None:
            violation_msg = violation_rec[0]
            witness = engine.witness_of(*violation_rec[1:])
        emit(True, len(frontier_items))

        if tracer is not None:
            tracer.record_explore(
                protocol_name=getattr(protocol, "name",
                                      type(protocol).__name__),
                n_configs=len(visited),
                n_edges=edges,
                depth=max_level,
                complete=exhausted,
                seconds=seconds,
                n_frontier=len(frontier_items),
            )

        report = ExploreReport(
            protocol=getattr(protocol, "name", type(protocol).__name__),
            inputs=tuple(inputs),
            memory=engine.spec.name,
            visited=len(visited),
            edges=edges,
            depth=max_level,
            exhausted=exhausted,
            truncated_by=("violation" if violation_rec is not None
                          else truncated_by),
            seconds=seconds,
            states_per_sec=len(visited) / max(seconds, 1e-9),
            ok=violation_rec is None,
            violation=violation_msg,
            witness=witness,
            exact=exact,
            symmetry_order=engine.symmetry_order,
            symmetry_note=engine.symmetry_note,
            por=engine.por,
            por_note=engine.por_note,
            pruned=pruned,
            frontier=len(frontier_items),
            fingerprints=(frozenset(visited) if keep_fingerprints
                          else None),
            fingerprint_of=engine.fingerprint_configuration,
        )
        return report
    finally:
        if telemetry_fh is not None:
            telemetry_fh.close()
