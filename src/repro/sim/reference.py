"""The reference engine's step body: the seed kernel, kept as the oracle.

``Simulation(..., engine="reference")`` steps through :func:`step`: an
immutable configuration rebuilt every step, ``branches()`` validated
and access checked every step, and register access routed through the
memory model.  The engine differential harness
(``tests/test_differential.py``) and the kernel benchmark hold the
fast engine's loop (:meth:`repro.sim.kernel.Simulation._run_fast`) to
it, and its hook emissions follow that loop's order and meaning.  It
lives apart from the kernel so that runs on the fast engine never
compile it.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.errors import ProtocolError
from repro.sim.config import Configuration
from repro.sim.ops import ReadOp, WriteOp
from repro.sim.trace import StepRecord


def step(sim, pid: int, forced: Optional[Hashable] = None) -> StepRecord:
    """One reference-path step of ``sim``'s processor ``pid``;
    ``forced`` is the scheduler's pre-committed read value, if any."""
    obs = sim._obs
    config = sim._config_cache
    state = config.states[pid]
    memory = sim._memory
    memory.on_activate(pid)
    branches = sim.protocol.branches(pid, state)
    if sim._strict:
        sim.protocol.validate_branches(branches)
    if len(branches) == 1:
        branch = branches[0]
    else:
        weights = [b.probability for b in branches]
        branch = branches[sim._proc_rngs[pid].choice_index(weights)]
        sim.coin_flips[pid] += 1
        if obs is not None:
            obs.coin_flip(pid, len(branches))
    op = branch.op

    if isinstance(op, ReadOp):
        slot = sim.layout.check_read(pid, op.register)
        choices = memory.read_choices(slot)
        if len(choices) == 1 and forced is None:
            result: Hashable = choices[0]
        else:
            result = sim._resolve_read(pid, op.register, choices, forced)
    elif isinstance(op, WriteOp):
        slot = sim.layout.check_write(pid, op.register)
        sim._check_forced(forced, False, None)
        memory.write(pid, slot, op.value)
        result = None
    else:
        raise ProtocolError(f"unknown operation {op!r}")
    if obs is not None:
        if isinstance(op, ReadOp):
            obs.read(pid, op.register, result)
        else:
            obs.write(pid, op.register, op.value)

    new_state = sim.protocol.observe(pid, state, op, result)
    sim._config_cache = Configuration(
        states=config.states[:pid] + (new_state,)
        + config.states[pid + 1:],
        registers=tuple(memory.values),
        mem=None if sim._mem_atomic else memory.snapshot(),
    )
    sim.activations[pid] += 1

    decided = sim.protocol.output(pid, new_state)
    if decided is not None:
        sim._record_decision(pid, decided)
        if obs is not None:
            obs.decision(pid, decided, sim.activations[pid])

    record = StepRecord(index=sim.step_index, pid=pid, op=op,
                        result=result, decided=decided)
    sim.step_index += 1
    if obs is not None:
        obs.step(record.index, pid, op, result, decided)
    if sim.trace is not None:
        sim.trace.append(record)
    return record
