"""The vectorized mega-batch backend (``engine="vector"``).

A :class:`VectorKernel` steps N independent Monte-Carlo runs of one
compiled protocol (:mod:`repro.ir.lower`) in lockstep: each tick
advances every still-active run by exactly one kernel step using a
handful of NumPy array operations, so thousands of runs progress per
Python-level operation.  Results are **bit-identical** to the
reference and fast interpreted kernels — same decisions, coin-flip
counts, scheduler consults, final configurations, journal bytes — for
the supported matrix (docs/IR.md §5):

* protocols: anything :func:`repro.ir.lower.compile_protocol` accepts
  (finite shared-register automata; the n-process protocol compiles
  lazily and stays exact for any bounded batch),
* schedulers: :class:`~repro.sched.simple.RandomScheduler` and
  :class:`~repro.sched.simple.RoundRobinScheduler` (state-blind, no
  crash injection) — :func:`vectorize_scheduler` refuses the rest,
* memory: atomic registers only (weak semantics hand read resolution
  to the adversary, which is inherently per-run sequential).

Determinism is anchored in :mod:`repro.ir.mt`: every run keeps the
exact per-stream MT19937 word sequences of the interpreted kernels'
:class:`~repro.sim.rng.ReplayableRng` trees, vectorized across the
batch.  When the active set shrinks below :data:`SCALAR_CUTOFF` the
engine hands each straggler's streams off to a scalar table-stepper
mid-sequence (``MtRuns.handoff``) so the lockstep loop never pays
full-batch array overhead for a handful of long-tail runs.

Without NumPy the same class runs a pure-Python table interpreter over
the identical IR (``backend="python"``), keeping ``engine="vector"``
available — and differential-testable — everywhere.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.obs.hooks import BaseSink, make_hub
from repro.sim.config import Configuration
from repro.sim.kernel import RunResult
from repro.sim.memory import MemorySpec, memory_spec
from repro.sim.ops import ReadOp
from repro.sim.rng import ReplayableRng
from repro.sim.trace import StepRecord, Trace

from repro.ir.lower import CompiledProtocol, IRUnsupportedError

try:  # NumPy is optional: the python backend interprets the same IR.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via backend="python"
    _np = None

#: Below this many active runs the lockstep loop hands stragglers to
#: the scalar path: per-tick array overhead is constant in batch size,
#: so a long tail of a few runs is cheaper stepped one by one.
SCALAR_CUTOFF = 64

#: Scheduler specs the vector engine implements; see
#: :func:`vectorize_scheduler`.
SUPPORTED_SCHEDULERS = ("random", "round_robin")

#: Runs per lockstep mega-batch when a caller streams an index range
#: through the vector engine (``ExperimentRunner.run_range``).  Caps
#: the resident working set (RNG blocks are ~5 KB per stream) while
#: keeping batches large enough to amortize per-tick dispatch.
BATCH_CHUNK = 4096


def vectorize_scheduler(scheduler) -> Tuple:
    """Lower a scheduler instance to a vectorizable spec tuple.

    Returns ``("random",)`` or ``("round_robin", start)``.  Only exact
    types are accepted (a subclass may override ``choose`` arbitrarily)
    and only state-blind schedulers are vectorizable at all — adaptive
    adversaries inspect per-run configurations mid-flight, crash
    schedulers mutate the live set, and both orders of inspection are
    inherently sequential.  Everything else raises
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

    One ``(pid, flat_branch, result_vid, decided_vid)`` tuple per
    executed step: ``result_vid`` is the value id a read returned (-1
    for writes) and ``decided_vid`` the decision the step produced (-1
    for none).  Together with the compiled tables this is enough to
    re-emit the full kernel event stream in the exact hook order
    (:func:`replay_run`).
    """

    steps: List[Tuple[int, int, int, int]] = dataclasses.field(
        default_factory=list)


@dataclasses.dataclass
class VectorBatch:
    """Output of :meth:`VectorKernel.run_batch`."""

    results: List[RunResult]
    records: Optional[List[RunRecord]] = None


class VectorKernel:
    """Batched executor for one compiled protocol + scheduler spec.

    Parameters
    ----------
    compiled:
        The protocol's :class:`~repro.ir.lower.CompiledProtocol`
        (shared across batches; it keeps growing lazily).
    sched_spec:
        A spec from :func:`vectorize_scheduler`.
    memory:
        Must resolve to atomic semantics; weak registers refuse.
    backend:
        ``"numpy"``, ``"python"``, or ``None`` to pick NumPy when
        available.  Both backends are bit-identical by construction
        and differentially tested.
    """

    def __init__(self, compiled: CompiledProtocol, sched_spec: Tuple,
                 memory=None, backend: Optional[str] = None) -> None:
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
        if backend is None:
            backend = "numpy" if _np is not None else "python"
        if backend == "numpy" and _np is None:
            raise IRUnsupportedError(
                "backend='numpy' requested but numpy is not installed")
        if backend not in ("numpy", "python"):
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self._tables: Optional["_Tables"] = None

    def tables(self) -> "_Tables":
        """The (cached) dense table mirror; numpy backend only."""
        if self._tables is None:
            self._tables = _Tables(self.compiled)
        return self._tables

    # ------------------------------------------------------------------

    def run_batch(self, root_seed: int, run_indices: Sequence[int],
                  inputs_by_run: Sequence[Sequence[Hashable]],
                  max_steps: int,
                  max_consults: Optional[int] = None,
                  record: bool = False,
                  record_trace: bool = False) -> VectorBatch:
        """Execute one run per index; bit-identical to the kernels.

        ``inputs_by_run[i]`` is the input assignment of run
        ``run_indices[i]`` (the runner evaluates its inputs factory —
        including any per-run randomization — before calling here).
        ``record`` keeps per-step logs for sink replay;
        ``record_trace`` additionally materializes each result's
        :class:`~repro.sim.trace.Trace` exactly as
        ``Simulation(record_trace=True)`` would.
        """
        if len(run_indices) != len(inputs_by_run):
            raise ValueError("one inputs tuple per run index required")
        record = record or record_trace
        if max_consults is None:
            eff_max = max_steps
        else:
            # Supported schedulers consume exactly one consult per
            # step (no crash injection), so the kernel's dual budget
            # collapses to the tighter of the two.
            eff_max = min(max_steps, max_consults)
        if self.backend == "numpy" and len(run_indices) > 0:
            state = _NumpyBatch(self, root_seed, list(run_indices),
                                [tuple(i) for i in inputs_by_run],
                                eff_max, record)
            state.run()
            results, records = state.finish(record_trace)
        else:
            results, records = self._run_python(
                root_seed, list(run_indices),
                [tuple(i) for i in inputs_by_run], eff_max, record,
                record_trace)
        return VectorBatch(results=results,
                           records=records if record else None)

    def run_single(self, scheduler, kernel_rng: ReplayableRng,
                   inputs: Sequence[Hashable], max_steps: int,
                   max_consults: Optional[int] = None,
                   record: bool = False,
                   record_trace: bool = False):
        """One run over the compiled tables with caller-supplied streams.

        This is the ``solve()`` entry point: unlike :meth:`run_batch`,
        which derives every stream from the *runner's* seed chain
        (``root.child("run", i)``), the caller hands in the scheduler
        instance (whose own rng, for a random scheduler, is the stream
        the interpreted kernels would consult) and the ``kernel`` rng
        the processor coin streams derive from.  Returns
        ``(RunResult, RunRecord | None)`` bit-identical to
        ``Simulation(...).run(max_steps)`` with the same streams.
        """
        spec = vectorize_scheduler(scheduler)
        sched_rng = scheduler._rng if spec[0] == "random" else None
        proc_rngs = kernel_rng.children("proc", self.compiled.n_processes)
        record = record or record_trace
        if max_consults is None:
            eff_max = max_steps
        else:
            eff_max = min(max_steps, max_consults)
        run = _ScalarRun(self.compiled, spec, tuple(inputs), sched_rng,
                         proc_rngs, record=record)
        run.run(eff_max)
        rec = RunRecord(run.rec_steps) if record else None
        return run.result(self.memory_name, record_trace, rec), rec

    # ------------------------------------------------------------------
    # Pure-Python backend
    # ------------------------------------------------------------------

    def _run_python(self, root_seed, run_indices, inputs_by_run,
                    eff_max, record, record_trace):
        root = ReplayableRng(root_seed)
        results: List[RunResult] = []
        records: List[RunRecord] = []
        for idx, inputs in zip(run_indices, inputs_by_run):
            rng = root.child("run", idx)
            sched_rng = rng.child("sched")
            proc_rngs = rng.child("kernel").children(
                "proc", self.compiled.n_processes)
            run = _ScalarRun(self.compiled, self.sched_spec, inputs,
                             sched_rng, proc_rngs,
                             record=record)
            run.run(eff_max)
            rec = RunRecord(run.rec_steps) if record else None
            results.append(run.result(self.memory_name, record_trace,
                                      rec))
            records.append(rec)
        return results, records


# ----------------------------------------------------------------------
# Scalar table interpreter (python backend + numpy straggler finisher)
# ----------------------------------------------------------------------


class _ScalarRun:
    """One run stepped scalar over the compiled tables.

    Used for the whole run by the python backend, and to finish
    straggler runs mid-flight by the numpy backend (which hands in
    live RNG streams plus the counters accumulated so far).
    """

    def __init__(self, cp: CompiledProtocol, sched_spec, inputs,
                 sched_rng: ReplayableRng,
                 proc_rngs: Sequence[ReplayableRng],
                 record: bool = False) -> None:
        n = cp.n_processes
        self.cp = cp
        self.sched_spec = sched_spec
        self.inputs = tuple(inputs)
        self.sched_rng = sched_rng
        self.proc_rngs = list(proc_rngs)
        self.sids: List[int] = list(cp.initial_sids(self.inputs))
        self.regs: List[int] = list(cp.init_regs)
        self.steps = 0
        self.activations = [0] * n
        self.coin_flips = [0] * n
        self.decisions_vid = [-1] * n
        self.decision_act = [-1] * n
        self.dec_order: List[int] = []
        self.rr_next = sched_spec[1] if sched_spec[0] == "round_robin" else 0
        self.record = record
        self.rec_steps: List[Tuple[int, int, int, int]] = []
        self.enabled: Tuple[int, ...] = tuple(range(n))
        for pid in range(n):
            out = cp.state_out[self.sids[pid]]
            if out >= 0:
                self.decisions_vid[pid] = out
                self.decision_act[pid] = 0
                self.dec_order.append(pid)
        if self.dec_order:
            self.enabled = tuple(p for p in self.enabled
                                 if self.decisions_vid[p] < 0)

    def run(self, eff_max: int) -> None:
        cp = self.cp
        random_sched = self.sched_spec[0] == "random"
        n = cp.n_processes
        while self.enabled and self.steps < eff_max:
            enabled = self.enabled
            if random_sched:
                pid = self.sched_rng.choice(enabled)
            else:
                pid = self.rr_next
                while pid not in enabled:
                    pid = (pid + 1) % n
                self.rr_next = (pid + 1) % n
            sid = self.sids[pid]
            if cp.state_nb[sid] < 0:
                cp.ensure_compiled(sid)
            nb = cp.state_nb[sid]
            base = cp.state_base[sid]
            if nb > 1:
                bi = self.proc_rngs[pid].choice_index(
                    cp.br_prob[base:base + nb], cp.state_total[sid])
                self.coin_flips[pid] += 1
            else:
                bi = 0
            b = base + bi
            if cp.br_is_read[b]:
                rv = self.regs[cp.br_slot[b]]
                nxt = cp.br_read_out[b].get(rv)
                if nxt is None:
                    nxt = cp.read_outcome(b, rv)
            else:
                rv = -1
                self.regs[cp.br_slot[b]] = cp.br_write[b]
                nxt = cp.br_write_next[b]
            self.sids[pid] = nxt
            self.activations[pid] += 1
            self.steps += 1
            out = cp.state_out[nxt]
            if out >= 0:
                self.decisions_vid[pid] = out
                self.decision_act[pid] = self.activations[pid]
                self.dec_order.append(pid)
                self.enabled = tuple(p for p in enabled if p != pid)
            if self.record:
                self.rec_steps.append((pid, b, rv, out))

    def result(self, memory_name: str, record_trace: bool,
               rec: Optional[RunRecord]) -> RunResult:
        cp = self.cp
        n = cp.n_processes
        trace = None
        if record_trace and rec is not None:
            trace = _build_trace(cp, rec)
        return RunResult(
            protocol_name=cp.protocol.name,
            inputs=self.inputs,
            decisions={p: cp.values[self.decisions_vid[p]]
                       for p in self.dec_order},
            activations={p: self.activations[p] for p in range(n)},
            decision_activation={p: self.decision_act[p]
                                 for p in self.dec_order},
            coin_flips={p: self.coin_flips[p] for p in range(n)},
            total_steps=self.steps,
            crashed=frozenset(),
            completed=not self.enabled,
            trace=trace,
            final_configuration=cp.decode_configuration(
                self.sids, self.regs),
            sched_consults=self.steps,
            memory=memory_name,
            read_resolutions=0,
        )


# ----------------------------------------------------------------------
# NumPy backend
# ----------------------------------------------------------------------


class _Tables:
    """Dense NumPy mirrors of a :class:`CompiledProtocol`'s tables.

    All compiler tables are append-only (and read-outcome cell fills
    are journaled in ``read_log``), so the mirror syncs incrementally:
    capacity-doubled arrays absorb new states/branches/values and a
    drain cursor applies new read cells — no full rebuilds on the
    growth path, which matters for lazily-compiled protocols that keep
    discovering states mid-batch.
    """

    #: Ceiling on the dense read-outcome matrix (rows × value ids).
    #: ~256 MB of int32 at the default; a protocol whose lazily grown
    #: tables exceed it refuses rather than swapping the host.
    MAX_READ_CELLS = 1 << 26

    def __init__(self, cp: CompiledProtocol) -> None:
        self.cp = cp
        self.n_states = 0
        self.n_branches = 0
        self.n_read_rows = 0
        self.n_values = 0
        self._read_cursor = 0
        self._compile_cursor = 0
        self.cum_width = 1
        S, B, V = 64, 64, 64
        self.state_nb = _np.full(S, -1, dtype=_np.int64)
        self.state_base = _np.full(S, -1, dtype=_np.int64)
        self.state_out = _np.full(S, -1, dtype=_np.int64)
        self.state_total = _np.zeros(S, dtype=_np.float64)
        self.state_cum = _np.full((S, self.cum_width), _np.inf,
                                  dtype=_np.float64)
        self.br_is_read = _np.zeros(B, dtype=bool)
        self.br_slot = _np.zeros(B, dtype=_np.int64)
        self.br_write = _np.full(B, -1, dtype=_np.int64)
        self.br_write_next = _np.full(B, -1, dtype=_np.int64)
        #: read-branch-local row index (-1 for writes): the dense
        #: outcome matrix only carries rows for read branches.
        self.br_read_row = _np.full(B, -1, dtype=_np.int64)
        self.read_next = _np.full((B, V), -1, dtype=_np.int32)
        self.sync()

    @staticmethod
    def _grow1(arr, need, fill):
        cap = arr.shape[0]
        if need <= cap:
            return arr
        new_cap = max(need, cap * 2)
        out = _np.full((new_cap,) + arr.shape[1:], fill, dtype=arr.dtype)
        out[:cap] = arr
        return out

    def sync(self) -> None:
        """Absorb everything the compiler interned since the last sync.

        Incremental by construction: new state/branch/value rows are
        slice-copied, and rows that *changed in place* (a state's
        ``nb`` flipping -1 → k on lazy compile, a read-outcome cell
        filling) arrive through the compiler's ``compile_log`` /
        ``read_log`` journals, drained from per-mirror cursors.
        """
        cp = self.cp
        S, B, V = cp.n_states, cp.n_branches, cp.n_values
        if S > self.n_states:
            self.state_nb = self._grow1(self.state_nb, S, -1)
            self.state_base = self._grow1(self.state_base, S, -1)
            self.state_out = self._grow1(self.state_out, S, -1)
            self.state_total = self._grow1(self.state_total, S, 0.0)
            lo = self.n_states
            self.state_nb[lo:S] = cp.state_nb[lo:]
            self.state_base[lo:S] = cp.state_base[lo:]
            self.state_out[lo:S] = cp.state_out[lo:]
            self.state_total[lo:S] = cp.state_total[lo:]
            self.n_states = S
        clog = cp.compile_log
        if self._compile_cursor < len(clog):
            new_sids = clog[self._compile_cursor:]
            width = max((cp.state_nb[s] for s in new_sids), default=1)
            if width > self.cum_width or S > self.state_cum.shape[0]:
                cap = max(S, self.state_cum.shape[0] * 2)
                w = max(width, self.cum_width)
                grown = _np.full((cap, w), _np.inf, dtype=_np.float64)
                old = self.state_cum
                grown[:old.shape[0], :old.shape[1]] = old
                self.state_cum = grown
                self.cum_width = w
            for sid in new_sids:
                self.state_nb[sid] = cp.state_nb[sid]
                self.state_base[sid] = cp.state_base[sid]
                self.state_total[sid] = cp.state_total[sid]
                cum = cp.state_cum[sid]
                if cum is not None:
                    self.state_cum[sid, :len(cum)] = cum
            self._compile_cursor = len(clog)
        if B > self.n_branches:
            self.br_is_read = self._grow1(self.br_is_read, B, False)
            self.br_slot = self._grow1(self.br_slot, B, 0)
            self.br_write = self._grow1(self.br_write, B, -1)
            self.br_write_next = self._grow1(self.br_write_next, B, -1)
            self.br_read_row = self._grow1(self.br_read_row, B, -1)
            lo = self.n_branches
            self.br_is_read[lo:B] = cp.br_is_read[lo:]
            self.br_slot[lo:B] = cp.br_slot[lo:]
            self.br_write[lo:B] = cp.br_write[lo:]
            self.br_write_next[lo:B] = cp.br_write_next[lo:]
            for b in range(lo, B):
                if cp.br_is_read[b]:
                    self.br_read_row[b] = self.n_read_rows
                    self.n_read_rows += 1
            self.n_branches = B
        rows_need = max(self.n_read_rows, 1)
        if (rows_need > self.read_next.shape[0]
                or V > self.read_next.shape[1]):
            # Grow only the dimension that overflowed — doubling both
            # unconditionally squares the matrix for nothing.
            rcap, vcap = self.read_next.shape
            if rows_need > rcap:
                rcap = max(rows_need, rcap * 2)
            if V > vcap:
                vcap = max(V, vcap * 2)
            if rcap * vcap > self.MAX_READ_CELLS:
                from repro.ir.lower import IRCompileError
                raise IRCompileError(
                    f"{cp.protocol.name}: dense read-outcome table "
                    f"would exceed {self.MAX_READ_CELLS} cells "
                    f"({rows_need} read branches × {V} values) — the "
                    f"lazily grown state space is too large for the "
                    f"vector engine; use the interpreted engines")
            grown = _np.full((rcap, vcap), -1, dtype=_np.int32)
            old = self.read_next
            grown[:old.shape[0], :old.shape[1]] = old
            self.read_next = grown
        self.n_values = V
        log = cp.read_log
        if self._read_cursor < len(log):
            for b, vid, sid in log[self._read_cursor:]:
                self.read_next[self.br_read_row[b], vid] = sid
            self._read_cursor = len(log)


class _NumpyBatch:
    """State of one vectorized batch execution."""

    def __init__(self, kernel: VectorKernel, root_seed: int,
                 run_indices: List[int],
                 inputs_by_run: List[Tuple[Hashable, ...]],
                 eff_max: int, record: bool) -> None:
        from repro.ir import mt

        cp = kernel.compiled
        n = cp.n_processes
        R = len(run_indices)
        self.kernel = kernel
        self.cp = cp
        self.n = n
        self.R = R
        self.eff_max = eff_max
        self.record = record
        self.run_indices = run_indices
        self.inputs_by_run = inputs_by_run
        self.tables = kernel.tables()
        self.stride = n + 1
        seeds = mt.derive_run_streams(root_seed, run_indices, n)
        self.mt = mt.MtRuns(seeds.reshape(-1))
        self.sid_mat = _np.array(
            [cp.initial_sids(inp) for inp in inputs_by_run],
            dtype=_np.int64).reshape(R, n)
        self.regs = _np.tile(
            _np.array(cp.init_regs, dtype=_np.int64), (R, 1))
        self.steps = _np.zeros(R, dtype=_np.int64)
        self.activations = _np.zeros((R, n), dtype=_np.int64)
        self.coin_flips = _np.zeros((R, n), dtype=_np.int64)
        self.dec_vid = _np.full((R, n), -1, dtype=_np.int64)
        self.dec_act = _np.full((R, n), -1, dtype=_np.int64)
        self.dec_order: List[List[int]] = [[] for _ in range(R)]
        self.enabled = _np.ones((R, n), dtype=bool)
        self.tick_log: List[tuple] = []
        self.scalar_recs: Dict[int, List[tuple]] = {}
        spec = kernel.sched_spec
        self.random_sched = spec[0] == "random"
        self.rr_next = _np.full(
            R, spec[1] if not self.random_sched else 0, dtype=_np.int64)
        # getrandbits(k) for k = n.bit_length(): precomputed shifts.
        self._bitlen = _np.array(
            [0] + [int(c).bit_length() for c in range(1, n + 1)],
            dtype=_np.int64)
        # One big up-front block generation: under a random scheduler
        # every run draws from its scheduler stream on tick one and
        # (for the paper's protocols) from each coin stream shortly
        # after, so seeding them all in one call is strictly cheaper
        # than letting first-use refills trickle in.  Round-robin
        # never touches scheduler streams — leave those unseeded.
        if self.random_sched:
            self.mt.prefill(_np.arange(R * self.stride))
        else:
            cols = _np.arange(R)[:, None] * self.stride + _np.arange(n)
            self.mt.prefill(cols.reshape(-1))
        # Initial decisions (degenerate protocols): recorded at
        # activation 0, exactly as the kernel constructor does.
        self.tables.sync()
        out0 = self.tables.state_out[self.sid_mat]
        if (out0 >= 0).any():
            for r, p in zip(*_np.nonzero(out0 >= 0)):
                r, p = int(r), int(p)
                self.dec_vid[r, p] = int(out0[r, p])
                self.dec_act[r, p] = 0
                self.dec_order[r].append(p)
                self.enabled[r, p] = False
        self.en_count = self.enabled.sum(axis=1)

    # -- vectorized schedulers ----------------------------------------

    def _sched_random(self, act: "_np.ndarray") -> "_np.ndarray":
        """``ReplayableRng.choice(enabled)``, batched.

        One ``getrandbits(k)`` word per rejection round with
        ``k = len(enabled).bit_length()`` — the exact inlined
        rejection loop of the scalar RNG, so word consumption per
        scheduler stream matches draw for draw.
        """
        cnt = self.en_count[act]
        k = self._bitlen[cnt]
        res = _np.empty(len(act), dtype=_np.int64)
        all_rows = act * self.stride + self.n
        pend = _np.arange(len(act))
        while pend.size:
            if pend.size < SCALAR_CUTOFF:
                # Rejection tail: the geometric trickle of still-
                # rejecting streams is cheaper to drain per-row than
                # with more batched gather/scatter rounds.
                take = self.mt.take_word_one
                for j in pend:
                    j = int(j)
                    kk = int(k[j])
                    cc = int(cnt[j])
                    row = int(all_rows[j])
                    while True:
                        r1 = take(row) >> (32 - kk)
                        if r1 < cc:
                            res[j] = r1
                            break
                break
            rows = all_rows[pend]
            words = self.mt.take_words(rows).astype(_np.int64)
            r = words >> (32 - k[pend])
            ok = r < cnt[pend]
            res[pend[ok]] = r[ok]
            pend = pend[~ok]
        # index-among-enabled -> pid (enabled pids ascend, like the
        # kernel's `enabled` tuple).  Runs with every processor still
        # enabled (the common case until a run's closing steps) map
        # index -> pid directly.
        mixed = self.en_count[act] < self.n
        if not mixed.any():
            return res
        csum = _np.cumsum(self.enabled[act[mixed]], axis=1)
        res[mixed] = _np.argmax(
            csum == (res[mixed] + 1)[:, None], axis=1)
        return res

    def _sched_round_robin(self, act: "_np.ndarray") -> "_np.ndarray":
        n = self.n
        pid = self.rr_next[act]
        # With every processor enabled the cursor itself is the next
        # pid; only runs with a decided (disabled) processor need the
        # ring walk.
        mixed = _np.nonzero(self.en_count[act] < n)[0]
        if mixed.size:
            sub = act[mixed]
            offs = (pid[mixed][:, None]
                    + _np.arange(n, dtype=_np.int64)[None, :]) % n
            mask = self.enabled[sub[:, None], offs]
            first = _np.argmax(mask, axis=1)
            pid[mixed] = offs[_np.arange(len(sub)), first]
        self.rr_next[act] = (pid + 1) % n
        return pid

    # -- main loop -----------------------------------------------------

    def run(self) -> None:
        t = self.tables
        cp = self.cp
        act = _np.nonzero((self.en_count > 0) & (self.steps < self.eff_max)
                          )[0]
        while act.size:
            if act.size < SCALAR_CUTOFF:
                self._finish_scalar(act)
                return
            pid = (self._sched_random(act) if self.random_sched
                   else self._sched_round_robin(act))
            sid = self.sid_mat[act, pid]
            nb = t.state_nb[sid]
            if (nb < 0).any():
                for s in _np.unique(sid[nb < 0]):
                    cp.ensure_compiled(int(s))
                t.sync()
                nb = t.state_nb[sid]
            bl = _np.zeros(len(act), dtype=_np.int64)
            multi = nb > 1
            if multi.any():
                rows = act[multi] * self.stride + pid[multi]
                w0, w1 = self.mt.take_pairs(rows)
                w0 = w0.astype(_np.float64)
                w1 = w1.astype(_np.float64)
                # CPython random_random(): 53-bit double from 2 words.
                u = ((_np.floor(w0 / 32.0) * 67108864.0
                      + _np.floor(w1 / 64.0))
                     * (1.0 / 9007199254740992.0))
                sm = sid[multi]
                x = u * t.state_total[sm]
                idx = (t.state_cum[sm] <= x[:, None]).sum(axis=1)
                bl[multi] = _np.minimum(idx, nb[multi] - 1)
                self.coin_flips[act[multi], pid[multi]] += 1
            b = t.state_base[sid] + bl
            isr = t.br_is_read[b]
            nxt = _np.empty(len(act), dtype=_np.int64)
            resv = (_np.full(len(act), -1, dtype=_np.int64)
                    if self.record else None)
            if isr.any():
                ridx = _np.nonzero(isr)[0]
                rb = b[ridx]
                rv = self.regs[act[ridx], t.br_slot[rb]]
                nx = t.read_next[t.br_read_row[rb], rv].astype(_np.int64)
                miss = nx < 0
                if miss.any():
                    for j in _np.nonzero(miss)[0]:
                        cp.read_outcome(int(rb[j]), int(rv[j]))
                    t.sync()
                    nx = t.read_next[t.br_read_row[rb], rv].astype(
                        _np.int64)
                nxt[ridx] = nx
                if resv is not None:
                    resv[ridx] = rv
            wr = ~isr
            if wr.any():
                widx = _np.nonzero(wr)[0]
                wb = b[widx]
                self.regs[act[widx], t.br_slot[wb]] = t.br_write[wb]
                nxt[widx] = t.br_write_next[wb]
            self.sid_mat[act, pid] = nxt
            self.activations[act, pid] += 1
            self.steps[act] += 1
            out = t.state_out[nxt]
            dec = out >= 0
            if self.record:
                decv = _np.where(dec, out, -1)
                self.tick_log.append((act.copy(), pid.copy(), b.copy(),
                                      resv, decv))
            if dec.any():
                for j in _np.nonzero(dec)[0]:
                    r, p = int(act[j]), int(pid[j])
                    self.dec_vid[r, p] = int(out[j])
                    self.dec_act[r, p] = int(self.activations[r, p])
                    self.dec_order[r].append(p)
                    self.enabled[r, p] = False
                    self.en_count[r] -= 1
            live = (self.en_count[act] > 0) & (self.steps[act]
                                               < self.eff_max)
            if not live.all():
                act = act[live]

    def _finish_scalar(self, act: "_np.ndarray") -> None:
        """Step the straggler tail one run at a time.

        Each remaining run's streams continue *mid-sequence* through
        ``MtRuns.handoff`` — the scalar stepper consumes the exact
        words the lockstep loop would have, so the cutover is
        invisible in the results.
        """
        cp = self.cp
        n = self.n
        for r in (int(x) for x in act):
            sched_rng = _rng_from(self.mt.handoff(r * self.stride + n))
            proc_rngs = [_rng_from(self.mt.handoff(r * self.stride + p))
                         for p in range(n)]
            run = _ScalarRun.__new__(_ScalarRun)
            run.cp = cp
            run.sched_spec = self.kernel.sched_spec
            run.inputs = self.inputs_by_run[r]
            run.sched_rng = sched_rng
            run.proc_rngs = proc_rngs
            run.sids = [int(s) for s in self.sid_mat[r]]
            run.regs = [int(v) for v in self.regs[r]]
            run.steps = int(self.steps[r])
            run.activations = [int(a) for a in self.activations[r]]
            run.coin_flips = [int(c) for c in self.coin_flips[r]]
            run.decisions_vid = [int(d) for d in self.dec_vid[r]]
            run.decision_act = [int(d) for d in self.dec_act[r]]
            run.dec_order = self.dec_order[r]
            run.rr_next = int(self.rr_next[r])
            run.record = self.record
            run.rec_steps = []
            run.enabled = tuple(p for p in range(n)
                                if self.enabled[r, p])
            run.run(self.eff_max)
            self.sid_mat[r] = run.sids
            self.regs[r] = run.regs
            self.steps[r] = run.steps
            self.activations[r] = run.activations
            self.coin_flips[r] = run.coin_flips
            self.dec_vid[r] = run.decisions_vid
            self.dec_act[r] = run.decision_act
            self.dec_order[r] = run.dec_order
            self.enabled[r] = [p in run.enabled for p in range(n)]
            self.en_count[r] = len(run.enabled)
            if self.record:
                self.scalar_recs[r] = run.rec_steps

    # -- results -------------------------------------------------------

    def finish(self, record_trace: bool):
        cp = self.cp
        n = self.n
        records: Optional[List[RunRecord]] = None
        if self.record:
            records = [RunRecord() for _ in range(self.R)]
            for a, p, b, rv, dv in self.tick_log:
                for j in range(len(a)):
                    records[int(a[j])].steps.append(
                        (int(p[j]), int(b[j]), int(rv[j]), int(dv[j])))
            for r, tail in self.scalar_recs.items():
                records[r].steps.extend(tail)
        results: List[RunResult] = []
        for r in range(self.R):
            trace = None
            if record_trace and records is not None:
                trace = _build_trace(cp, records[r])
            results.append(RunResult(
                protocol_name=cp.protocol.name,
                inputs=self.inputs_by_run[r],
                decisions={p: cp.values[self.dec_vid[r, p]]
                           for p in self.dec_order[r]},
                activations={p: int(self.activations[r, p])
                             for p in range(n)},
                decision_activation={p: int(self.dec_act[r, p])
                                     for p in self.dec_order[r]},
                coin_flips={p: int(self.coin_flips[r, p])
                            for p in range(n)},
                total_steps=int(self.steps[r]),
                crashed=frozenset(),
                completed=bool(self.en_count[r] == 0),
                trace=trace,
                final_configuration=cp.decode_configuration(
                    [int(s) for s in self.sid_mat[r]],
                    [int(v) for v in self.regs[r]]),
                sched_consults=int(self.steps[r]),
                memory=self.kernel.memory_name,
                read_resolutions=0,
            ))
        return results, records


def _rng_from(rnd) -> ReplayableRng:
    """Wrap a positioned ``random.Random`` as a ReplayableRng stream."""
    rng = ReplayableRng(0)
    rng._random = rnd
    return rng


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
    for pid, b, _, dv in rec.steps:
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
    vector batch are byte-identical to a serial observed batch of the
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
