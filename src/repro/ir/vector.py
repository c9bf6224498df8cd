"""The table-IR engine (``engine="vector"``).

A :class:`VectorKernel` steps one run at a time over a compiled
protocol's integer tables (:mod:`repro.ir.lower`) instead of its
automaton objects.  Results are **bit-identical** to the reference and
fast interpreted kernels — same decisions, coin-flip counts, scheduler
consults, final configurations, journal bytes — for the supported
matrix (docs/IR.md §5):

* protocols: anything :func:`repro.ir.lower.compile_protocol` accepts
  (finite shared-register automata; the n-process protocol compiles
  lazily and stays exact for any bounded run),
* schedulers: :class:`~repro.sched.simple.RandomScheduler` and
  :class:`~repro.sched.simple.RoundRobinScheduler` (state-blind, no
  crash injection) — :func:`vectorize_scheduler` refuses the rest,
* memory: atomic registers only (weak semantics hand read resolution
  to the adversary, which the tables do not model).

Determinism comes from consuming the caller's
:class:`~repro.sim.rng.ReplayableRng` streams draw for draw as the
interpreted kernels do (docs/IR.md §4).
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.obs.hooks import BaseSink, make_hub
from repro.sim.kernel import RunResult
from repro.sim.memory import MemorySpec, memory_spec
from repro.sim.ops import ReadOp
from repro.sim.rng import ReplayableRng
from repro.sim.trace import StepRecord, Trace

from repro.ir.lower import CompiledProtocol, IRUnsupportedError

#: Scheduler specs the vector engine implements; see
#: :func:`vectorize_scheduler`.
SUPPORTED_SCHEDULERS = ("random", "round_robin")


def vectorize_scheduler(scheduler) -> Tuple:
    """Lower a scheduler instance to a table-engine spec tuple.

    Returns ``("random",)`` or ``("round_robin", start)``.  Only exact
    types are accepted (a subclass may override ``choose`` arbitrarily)
    and only state-blind schedulers are supported at all — adaptive
    adversaries inspect live configurations and crash schedulers
    mutate the live set, neither of which the tables model.
    Everything else raises
    :class:`~repro.ir.lower.IRUnsupportedError` (docs/IR.md §6).
    """
    from repro.sched.simple import RandomScheduler, RoundRobinScheduler

    if type(scheduler) is RandomScheduler:
        return ("random",)
    if type(scheduler) is RoundRobinScheduler:
        return ("round_robin", scheduler._next)
    raise IRUnsupportedError(
        f"scheduler {type(scheduler).__name__} is not vectorizable — "
        f"the vector engine supports {SUPPORTED_SCHEDULERS} "
        f"(state-blind, crash-free); use the fast/reference engines "
        f"for adaptive, crash, or custom schedulers (docs/IR.md §6)")


@dataclasses.dataclass
class RunRecord:
    """Step log of one run, for journal/metrics/trace reconstruction.

    One ``(pid, flat_branch, decided_vid)`` tuple per executed step:
    ``decided_vid`` is the decision the step produced (-1 for none).
    Together with the compiled tables this is enough to re-emit the
    full kernel event stream in the exact hook order
    (:func:`replay_run`).
    """

    steps: List[Tuple[int, int, int]] = dataclasses.field(
        default_factory=list)


class VectorKernel:
    """Table-IR executor for one compiled protocol + scheduler spec.

    Parameters
    ----------
    compiled:
        The protocol's :class:`~repro.ir.lower.CompiledProtocol`
        (shared across runs; it keeps growing lazily).
    sched_spec:
        A spec from :func:`vectorize_scheduler`.
    memory:
        Must resolve to atomic semantics; weak registers refuse.
    """

    def __init__(self, compiled: CompiledProtocol, sched_spec: Tuple,
                 memory=None) -> None:
        self.compiled = compiled
        if sched_spec[0] not in SUPPORTED_SCHEDULERS:
            raise IRUnsupportedError(
                f"unknown scheduler spec {sched_spec!r}")
        self.sched_spec = tuple(sched_spec)
        spec: MemorySpec = memory_spec(memory)
        if spec.name != "atomic":
            raise IRUnsupportedError(
                f"memory semantics {spec.name!r} are not vectorizable — "
                f"weak-register read resolution consults the adversary "
                f"per run; use the interpreted engines (docs/IR.md §6)")
        self.memory_name = spec.name

    def run(self, inputs: Sequence[Hashable],
            sched_rng: Optional[ReplayableRng],
            kernel_rng: ReplayableRng, max_steps: int,
            max_consults: Optional[int] = None,
            record: bool = False,
            record_trace: bool = False) \
            -> Tuple[RunResult, Optional[RunRecord]]:
        """One run over the compiled tables with the caller's streams.

        ``sched_rng`` is the stream a random scheduler consults (unused
        under round-robin) and ``kernel_rng`` the stream the processor
        coin streams derive from — the same two streams the
        interpreted kernels would be handed.  Returns
        ``(RunResult, RunRecord | None)`` bit-identical to
        ``Simulation(...).run(max_steps, max_consults)``.  ``record``
        keeps the per-step log for sink replay; ``record_trace``
        additionally materializes the result's
        :class:`~repro.sim.trace.Trace`.
        """
        cp = self.compiled
        n = cp.n_processes
        inputs = tuple(inputs)
        proc_rngs = kernel_rng.children("proc", n)
        if max_consults is not None:
            # Supported schedulers consume exactly one consult per
            # step (no crash injection), so the kernel's dual budget
            # collapses to the tighter of the two.
            max_steps = min(max_steps, max_consults)
        log: Optional[list] = [] if record or record_trace else None
        sids = list(cp.initial_sids(inputs))
        regs = list(cp.init_regs)
        activations = [0] * n
        coin_flips = [0] * n
        dec_vid = [-1] * n
        dec_act = [-1] * n
        dec_order: List[int] = []
        # Initial decisions (degenerate protocols): recorded at
        # activation 0, exactly as the kernel constructor does.
        for pid in range(n):
            out = cp.state_out[sids[pid]]
            if out >= 0:
                dec_vid[pid] = out
                dec_act[pid] = 0
                dec_order.append(pid)
        enabled = tuple(p for p in range(n) if dec_vid[p] < 0)
        random_sched = self.sched_spec[0] == "random"
        rr_next = 0 if random_sched else self.sched_spec[1]
        # The tables are append-only lists grown in place, so these
        # bindings stay valid while lazy compilation extends them.
        state_nb, state_base, state_out = (cp.state_nb, cp.state_base,
                                           cp.state_out)
        state_total, br_prob, br_is_read = (cp.state_total, cp.br_prob,
                                            cp.br_is_read)
        br_slot, br_read_out = cp.br_slot, cp.br_read_out
        br_write, br_write_next = cp.br_write, cp.br_write_next
        steps = 0
        while enabled and steps < max_steps:
            if random_sched:
                pid = sched_rng.choice(enabled)
            else:
                pid = rr_next
                while pid not in enabled:
                    pid = (pid + 1) % n
                rr_next = (pid + 1) % n
            sid = sids[pid]
            nb = state_nb[sid]
            if nb < 0:
                cp.ensure_compiled(sid)
                nb = state_nb[sid]
            b = state_base[sid]
            if nb > 1:
                b += proc_rngs[pid].choice_index(br_prob[b:b + nb],
                                                 state_total[sid])
                coin_flips[pid] += 1
            slot = br_slot[b]
            if br_is_read[b]:
                nxt = br_read_out[b].get(regs[slot])
                if nxt is None:
                    nxt = cp.read_outcome(b, regs[slot])
            else:
                regs[slot] = br_write[b]
                nxt = br_write_next[b]
            sids[pid] = nxt
            activations[pid] += 1
            steps += 1
            out = state_out[nxt]
            if out >= 0:
                dec_vid[pid] = out
                dec_act[pid] = activations[pid]
                dec_order.append(pid)
                enabled = tuple(p for p in enabled if p != pid)
            if log is not None:
                log.append((pid, b, out))
        rec = RunRecord(log) if log is not None else None
        result = RunResult(
            protocol_name=cp.protocol.name,
            inputs=inputs,
            decisions={p: cp.values[dec_vid[p]] for p in dec_order},
            activations=dict(enumerate(activations)),
            decision_activation={p: dec_act[p] for p in dec_order},
            coin_flips=dict(enumerate(coin_flips)),
            total_steps=steps,
            crashed=frozenset(),
            completed=not enabled,
            trace=_build_trace(cp, rec) if record_trace else None,
            final_configuration=cp.decode_configuration(sids, regs),
            sched_consults=steps,
            memory=self.memory_name,
            read_resolutions=0,
        )
        return result, rec


# ----------------------------------------------------------------------
# Event replay (journals, metrics, traces)
# ----------------------------------------------------------------------


def _decode_steps(cp: CompiledProtocol, rec: RunRecord):
    """Yield ``(pid, op, nb, result, decided)`` per recorded step.

    A read returns what the slot's last write wrote, as written: its
    interned value compares equal but may differ in type (``1`` for
    ``True``, ``0.0`` for ``-0.0``), which a journal would show.
    """
    slots = list(cp.layout.initial_values())
    for pid, b, dv in rec.steps:
        op = cp.br_op[b]
        slot = cp.br_slot[b]
        if cp.br_is_read[b]:
            result = slots[slot]
        else:
            result = None
            slots[slot] = op.value
        decided = cp.values[dv] if dv >= 0 else None
        yield pid, op, cp.state_nb[cp.br_state[b]], result, decided


def _build_trace(cp: CompiledProtocol, rec: RunRecord) -> Trace:
    trace = Trace()
    for index, (pid, op, _, result, decided) in enumerate(
            _decode_steps(cp, rec)):
        trace.append(StepRecord(index=index, pid=pid, op=op,
                                result=result, decided=decided))
    return trace


def replay_run(cp: CompiledProtocol, result: RunResult, rec: RunRecord,
               sinks: Sequence[BaseSink],
               root_seed: Optional[int] = None,
               run_index: Optional[int] = None) -> None:
    """Re-emit one recorded run's kernel event stream into ``sinks``.

    Event order per step is the kernel's emission contract
    (sched → coin-flip → read/write → decision → step; see
    ``Simulation._run_fast``), so journals and metrics replayed from a
    vector run are byte-identical to a serial observed batch of the
    same seeds.
    """
    hub = make_hub(sinks)
    if hub is None:
        return
    if root_seed is not None and run_index is not None:
        hub.run_key(root_seed, run_index)
    protocol = cp.protocol
    hub.run_start(protocol.name, cp.n_processes, result.inputs)
    activations = dict.fromkeys(range(cp.n_processes), 0)
    for index, (pid, op, nb, res, decided) in enumerate(
            _decode_steps(cp, rec)):
        hub.sched(index + 1)
        if nb > 1:
            hub.coin_flip(pid, nb)
        if isinstance(op, ReadOp):
            hub.read(pid, op.register, res)
        else:
            hub.write(pid, op.register, op.value)
        activations[pid] += 1
        if decided is not None:
            hub.decision(pid, decided, activations[pid])
        hub.step(index, pid, op, res, decided)
    hub.run_end(result)
