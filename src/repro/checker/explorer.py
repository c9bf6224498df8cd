"""Explicit-state exploration of protocol configuration graphs.

A configuration (processor states + register contents) is hashable, so
the set of configurations reachable under *every* scheduler choice and
*every* coin outcome can be enumerated by plain breadth-first search.
For the paper's protocols this is the ground truth the theorems talk
about: a safety property verified over this graph holds against the
strongest adaptive adversary, because the adversary can only pick paths
inside the graph.

The graph may be infinite (the unbounded protocol's num fields); the
explorer therefore takes depth and state budgets and reports whether it
exhausted the reachable space or was truncated.
"""

from __future__ import annotations

import collections
import dataclasses
from time import perf_counter as _perf_counter
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.sim.config import Configuration, RegisterLayout
from repro.sim.memory import MemoryModel, memory_spec
from repro.sim.ops import ReadOp, WriteOp
from repro.sim.process import Automaton
from repro.sim.transitions import TransitionCache


@dataclasses.dataclass(frozen=True)
class Successor:
    """One outgoing edge of the configuration graph.

    ``pid`` is the processor the scheduler activates, ``probability``
    the coin weight of the branch taken (1.0 for deterministic steps),
    ``op`` the register operation performed, ``result`` the value the
    operation returned (the read value — adversary-chosen under weak
    memory semantics, where one read may fan out into several edges —
    or ``None`` for writes).
    """

    pid: int
    probability: float
    op: object
    config: Configuration
    result: Hashable = None


def enabled_pids(protocol: Automaton, config: Configuration,
                 cache: Optional[TransitionCache] = None) -> Tuple[int, ...]:
    """Processors that may still take a step (undecided ones)."""
    if cache is not None:
        output = cache.output
        return tuple(
            pid for pid in range(protocol.n_processes)
            if output(pid, config.states[pid]) is None
        )
    return tuple(
        pid for pid in range(protocol.n_processes)
        if protocol.output(pid, config.states[pid]) is None
    )


def _weak_successors(
    protocol: Automaton,
    layout: RegisterLayout,
    config: Configuration,
    memory: MemoryModel,
    cache: Optional[TransitionCache],
) -> Iterator[Successor]:
    """Successors under a weak memory model: branch over legal reads.

    ``memory`` is a scratch model instance (reused across calls); each
    activation restores it to the node's ``(registers, mem)`` snapshot,
    commits the activated processor's pending write, and then fans a
    contended read out into one edge per legal return value — the
    explorer's counterpart of the kernel adversary's ``resolve_read``/
    ``Activate(read_value=...)`` vocabulary, so safety verdicts
    quantify over *every* value choice the adversary could make.
    """
    for pid in enabled_pids(protocol, config, cache):
        state = config.states[pid]
        # Re-enter the node's memory state and commit pid's pending
        # write — the same on_activate the kernel performs.
        memory.restore(config.registers, config.mem)
        memory.on_activate(pid)
        base_regs = tuple(memory.values)
        base_mem = memory.snapshot()
        if cache is not None:
            entry = cache.entry(pid, state)
            branches = entry.branches
        else:
            entry = None
            branches = protocol.branches(pid, state)
        for branch_index, branch in enumerate(branches):
            if entry is not None:
                op, is_read, slot, value = entry.execs[branch_index]
            else:
                op = branch.op
                is_read = isinstance(op, ReadOp)
                if is_read:
                    slot, value = layout.check_read(pid, op.register), None
                else:
                    slot, value = layout.check_write(pid, op.register), op.value
            if is_read:
                for choice in memory.read_choices(slot):
                    if entry is not None:
                        new_state = cache.outcome(
                            pid, state, entry, branch_index, choice).state
                    else:
                        new_state = protocol.observe(pid, state, op, choice)
                    yield Successor(
                        pid=pid, probability=branch.probability, op=op,
                        config=Configuration(
                            states=config.states[:pid] + (new_state,)
                            + config.states[pid + 1:],
                            registers=base_regs, mem=base_mem,
                        ),
                        result=choice,
                    )
            else:
                memory.write(pid, slot, value)
                regs = tuple(memory.values)
                mem = memory.snapshot()
                # Undo the write so sibling branches see the base state.
                memory.restore(base_regs, base_mem)
                if entry is not None:
                    new_state = cache.outcome(
                        pid, state, entry, branch_index, None).state
                else:
                    new_state = protocol.observe(pid, state, op, None)
                yield Successor(
                    pid=pid, probability=branch.probability, op=op,
                    config=Configuration(
                        states=config.states[:pid] + (new_state,)
                        + config.states[pid + 1:],
                        registers=regs, mem=mem,
                    ),
                    result=None,
                )


def successors(
    protocol: Automaton,
    layout: RegisterLayout,
    config: Configuration,
    cache: Optional[TransitionCache] = None,
    memory: Optional[MemoryModel] = None,
) -> Iterator[Successor]:
    """All one-step successors over scheduler choices × coin branches.

    Passing the same :class:`~repro.sim.transitions.TransitionCache`
    the kernel's fast path uses memoizes branch construction, slot
    resolution, and ``observe``/``output`` across the whole BFS — the
    same ``(pid, state)`` pair recurs in many configurations.

    ``memory`` selects the register semantics: ``None`` (or an
    :class:`~repro.sim.memory.AtomicMemory` scratch instance) keeps the
    historical atomic behavior; a weak model additionally branches
    contended reads over every legal return value (see
    :func:`_weak_successors`).
    """
    if memory is not None and not memory.atomic:
        yield from _weak_successors(protocol, layout, config, memory, cache)
        return
    if cache is not None:
        for pid in enabled_pids(protocol, config, cache):
            state = config.states[pid]
            entry = cache.entry(pid, state)
            for branch_index, branch in enumerate(entry.branches):
                op, is_read, slot, value = entry.execs[branch_index]
                if is_read:
                    result: Hashable = config.registers[slot]
                    next_config = config
                else:
                    result = None
                    next_config = config.with_register(slot, value)
                new_state = cache.outcome(
                    pid, state, entry, branch_index, result).state
                yield Successor(
                    pid=pid, probability=branch.probability, op=op,
                    config=next_config.with_state(pid, new_state),
                    result=result,
                )
        return
    for pid in enabled_pids(protocol, config):
        state = config.states[pid]
        for branch in protocol.branches(pid, state):
            op = branch.op
            if isinstance(op, ReadOp):
                slot = layout.check_read(pid, op.register)
                result = config.registers[slot]
                next_config = config
            else:
                assert isinstance(op, WriteOp)
                slot = layout.check_write(pid, op.register)
                result = None
                next_config = config.with_register(slot, op.value)
            new_state = protocol.observe(pid, state, op, result)
            next_config = next_config.with_state(pid, new_state)
            yield Successor(
                pid=pid, probability=branch.probability, op=op,
                config=next_config, result=result,
            )


@dataclasses.dataclass
class ConfigGraph:
    """The (possibly truncated) reachable configuration graph.

    ``edges[c]`` lists the successors of configuration ``c``;
    configurations in ``frontier`` were reached but not expanded
    (budget exhaustion), so the graph is complete iff ``complete``.
    ``complete_depth`` is the deepest BFS level whose configurations
    were all discovered: a state budget can stop the search part-way
    through discovering the level below it.
    """

    protocol: Automaton
    layout: RegisterLayout
    roots: Tuple[Configuration, ...]
    edges: Dict[Configuration, Tuple[Successor, ...]]
    depth_of: Dict[Configuration, int]
    frontier: Tuple[Configuration, ...]
    complete: bool
    complete_depth: int

    @property
    def n_states(self) -> int:
        return len(self.depth_of)

    def nodes(self) -> Iterator[Configuration]:
        return iter(self.depth_of)

    def terminal_nodes(self) -> Iterator[Configuration]:
        """Expanded configurations with no enabled processor."""
        for config, succ in self.edges.items():
            if not succ:
                yield config


def explore(
    protocol: Automaton,
    inputs: Sequence[Hashable],
    max_depth: Optional[int] = None,
    max_states: int = 1_000_000,
    on_node: Optional[Callable[[Configuration, int], None]] = None,
    memory=None,
    tracer=None,
) -> ConfigGraph:
    """Breadth-first exploration from the initial configuration.

    Parameters
    ----------
    protocol, inputs:
        The system to explore.
    max_depth:
        Expand configurations at depth < max_depth only (``None`` means
        unlimited — use for protocols known to be finite-state).
    max_states:
        Hard cap on distinct configurations; exceeding it truncates the
        graph (``complete=False``).
    on_node:
        Optional callback ``(config, depth)`` invoked on first visit —
        used by the safety checker to test invariants without a second
        pass.
    memory:
        Register semantics (``None``/name/:class:`~repro.sim.memory.
        MemorySpec`).  Weak semantics add value-choice branching: the
        graph then quantifies over adversary read-value choices as well
        as scheduling and coins.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`; the whole BFS is
        recorded as one ``checker.explore`` span (logical time = depth
        reached, attrs = configs/edges/completeness).  Purely
        observational — the graph is identical with or without it.

    For a summary report over a far larger space (fingerprinted visited
    set, no materialized graph), see
    :func:`repro.checker.statespace.explore_fast`.
    """
    t0 = _perf_counter() if tracer is not None else 0.0
    # One TransitionCache for the whole BFS: (pid, state) pairs recur
    # across configurations far more often than in a single run, so
    # branch/slot/observe resolution is paid once per distinct pair.
    # strict=False preserves the explorer's historical behavior of not
    # validating branch distributions.
    cache = TransitionCache(protocol, strict=False)
    layout = cache.layout
    spec = memory_spec(memory)
    # One scratch model for the whole BFS (restored per expansion);
    # None under atomic keeps the historical fast successor path.
    model = None if spec.atomic else spec.build(layout)
    root = Configuration.initial(protocol, layout, inputs)
    depth_of: Dict[Configuration, int] = {root: 0}
    edges: Dict[Configuration, Tuple[Successor, ...]] = {}
    frontier: List[Configuration] = []
    complete = True
    # The level being expanded when the state budget ran out; its own
    # configurations were all discovered, the next level's were not.
    budget_depth: Optional[int] = None
    queue = collections.deque([root])

    if on_node is not None:
        on_node(root, 0)

    while queue:
        config = queue.popleft()
        depth = depth_of[config]
        if max_depth is not None and depth >= max_depth:
            # Depth budget: do not expand, but only a config that
            # actually has successors makes the graph incomplete.
            if tuple(successors(protocol, layout, config, cache, model)):
                frontier.append(config)
                complete = False
            else:
                edges[config] = ()
            continue
        succ = tuple(successors(protocol, layout, config, cache, model))
        edges[config] = succ
        for i, s in enumerate(succ):
            if s.config not in depth_of:
                if len(depth_of) >= max_states:
                    complete = False
                    budget_depth = depth
                    frontier.append(config)
                    # Keep the edges up to the one the budget refused,
                    # where the fingerprint search stops too.
                    edges[config] = succ[:i + 1]
                    break
                depth_of[s.config] = depth + 1
                if on_node is not None:
                    on_node(s.config, depth + 1)
                queue.append(s.config)
        else:
            continue
        break  # state budget exhausted: stop expanding

    # Anything left unexpanded in the queue is frontier too.
    for config in queue:
        if config not in edges:
            frontier.append(config)
            if tuple(successors(protocol, layout, config, cache, model)):
                complete = False

    graph = ConfigGraph(
        protocol=protocol,
        layout=layout,
        roots=(root,),
        edges=edges,
        depth_of=depth_of,
        frontier=tuple(frontier),
        complete=complete,
        # BFS discovers levels in order, so the last discovered
        # configuration is the deepest.
        complete_depth=(next(reversed(depth_of.values()))
                        if budget_depth is None else budget_depth),
    )
    if tracer is not None:
        tracer.record_explore(
            protocol_name=getattr(protocol, "name",
                                  type(protocol).__name__),
            n_configs=len(depth_of),
            n_edges=sum(len(e) for e in edges.values()),
            depth=max(depth_of.values()) if depth_of else 0,
            complete=complete,
            seconds=_perf_counter() - t0,
            n_frontier=len(frontier),
        )
    return graph
