"""Streaming metrics: counters, gauges, histograms, and the registry sink.

The quantities the paper reasons about are distributions over a run's
event stream — steps a processor needs to decide (Theorem 7), coin
flips per decision, the ``num``-field depth in the three-processor
protocol's registers (Theorem 9).  A Monte-Carlo batch observes those
distributions over millions of steps, so the instruments here are
streaming: a histogram is a dict of exact-value counts (the domains are
small integers), a counter is one int, and nothing retains per-event
records.

:class:`MetricsRegistry` is both a generic metrics container (create
your own instruments with :meth:`counter` / :meth:`gauge` /
:meth:`histogram`) and a kernel sink that populates a standard set of
well-known metrics from the hook stream.  One registry may be attached
across an entire batch of runs; everything aggregates.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.obs.hooks import BaseSink, RunTally


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def merge(self, other: "Counter") -> None:
        """Fold ``other`` in: counts add (associative and commutative)."""
        self.value += other.value

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A last-value instrument that also tracks its extremes."""

    __slots__ = ("value", "minimum", "maximum")

    def __init__(self) -> None:
        self.value: Optional[float] = None
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def set(self, x: float) -> None:
        self.value = x
        if self.minimum is None or x < self.minimum:
            self.minimum = x
        if self.maximum is None or x > self.maximum:
            self.maximum = x

    def merge(self, other: "Gauge") -> None:
        """Fold ``other`` in, treating it as the *later* shard.

        ``minimum``/``maximum`` become the unions (associative and
        commutative); ``value`` is last-writer-wins in merge order —
        ``other``'s value if it ever set one, else unchanged.  Merging
        shards in run-index order therefore reproduces exactly the
        final value a serial pass would have left.  An ``other`` that
        never observed anything is a no-op.
        """
        for x in (other.minimum, other.maximum, other.value):
            if x is not None:
                self.set(x)

    def __repr__(self) -> str:
        return f"Gauge({self.value}, min={self.minimum}, max={self.maximum})"


class Histogram:
    """Exact-count histogram over an integer-valued sample.

    Stores ``value -> count``; the event domains here (steps, flips,
    ``num`` depths) are small non-negative integers, so exact counts
    are cheaper and more faithful than bucketed approximations.
    Percentiles interpolate linearly between the closest order
    statistics (the ``h = (n-1)q`` convention), which is deterministic
    and well-defined at every sample size — p99 of three samples is a
    clamped interpolation toward the maximum, not a KeyError and not
    silently the maximum itself.  (The batch-statistics helper
    :func:`repro.analysis.stats.percentile` keeps its nearest-rank
    convention; the two agree at large N and on exact ranks.)
    """

    __slots__ = ("counts", "total", "_sum")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.total = 0
        self._sum = 0

    def observe(self, x: int, n: int = 1) -> None:
        self.counts[x] = self.counts.get(x, 0) + n
        self.total += n
        self._sum += x * n

    @property
    def mean(self) -> Optional[float]:
        return self._sum / self.total if self.total else None

    @property
    def minimum(self) -> Optional[int]:
        return min(self.counts) if self.counts else None

    @property
    def maximum(self) -> Optional[int]:
        return max(self.counts) if self.counts else None

    def percentile(self, q: float) -> Optional[float]:
        """Linearly interpolated percentile, ``0 <= q <= 1``.

        The fractional rank ``h = (total - 1) * q`` (clamped into the
        sample) sits between order statistics ``x[floor(h)]`` and
        ``x[ceil(h)]``; the result interpolates between them and
        collapses to a plain int when the interpolation is exact (the
        common case for repeated small-integer samples).  N=1 returns
        the sample; every q is total-order deterministic.
        """
        total = self.total
        if not total:
            return None
        h = (total - 1) * min(1.0, max(0.0, q))
        lo_rank = math.floor(h)
        frac = h - lo_rank
        # Cumulative walk to the order statistics at lo_rank and
        # lo_rank + 1 (0-indexed ranks over the sorted pooled sample).
        lo_val: Optional[int] = None
        hi_val: Optional[int] = None
        seen = 0
        for value in sorted(self.counts):
            seen += self.counts[value]
            if lo_val is None and seen >= lo_rank + 1:
                lo_val = value
            if seen >= lo_rank + 2 or (frac == 0.0 and lo_val is not None):
                hi_val = value if frac else lo_val
                break
        if lo_val is None:  # pragma: no cover - defensive
            lo_val = max(self.counts)
        if hi_val is None:
            hi_val = max(self.counts)
        if frac == 0.0 or hi_val == lo_val:
            return lo_val
        x = lo_val + (hi_val - lo_val) * frac
        return int(x) if x == int(x) else x

    @property
    def p50(self) -> Optional[float]:
        return self.percentile(0.50)

    @property
    def p90(self) -> Optional[float]:
        return self.percentile(0.90)

    @property
    def p99(self) -> Optional[float]:
        return self.percentile(0.99)

    def tail_probability(self, k: int) -> Optional[float]:
        """Empirical P(X > k) — comparable to the paper's tail bounds."""
        if not self.total:
            return None
        above = sum(c for v, c in self.counts.items() if v > k)
        return above / self.total

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` in: exact counts union key-wise (counts for
        shared values add, disjoint values are inserted), so the merge
        is associative, commutative, and lossless — percentiles of the
        merged histogram equal percentiles of the pooled sample.
        """
        for value, count in other.counts.items():
            self.observe(value, count)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
        }

    def __repr__(self) -> str:
        return (f"Histogram(n={self.total}, mean={self.mean}, "
                f"p50={self.p50}, p99={self.p99})")


def num_depth_of(value: Hashable) -> Optional[int]:
    """Duck-typed ``num`` field of a register value.

    The three-processor protocols write ``[pref, num]`` records
    (:class:`repro.core.rules.PrefNum`); journal replay sees the same
    records as plain dicts.  Anything else yields ``None``.
    """
    num = getattr(value, "num", None)
    if num is None and isinstance(value, dict):
        num = value.get("num")
    return num if isinstance(num, int) else None


def _add(counters: Dict[str, Counter], name: str, n: int) -> None:
    """Add ``n`` to counter ``name`` of ``counters``, creating it."""
    c = counters.get(name)
    if c is None:
        c = counters[name] = Counter()
    c.value += n


class MetricsRegistry(BaseSink):
    """Named instruments plus the standard kernel metric set.

    Well-known metrics populated from the hook stream:

    counters
        ``runs``, ``runs_completed``, ``steps``, ``reads``, ``writes``,
        ``coin_flips``, ``crashes``, ``sched_consults``,
        ``decisions``, ``register_contention`` (writes that overwrote a
        value no processor ever read), ``read_choice_points`` (weak-
        memory reads the adversary resolved from >1 legal value — see
        docs/MODEL.md; never incremented under atomic semantics).
    gauges
        ``max_num_depth`` — deepest ``num`` field ever written (the
        quantity Theorem 9 bounds by a (3/4)^k envelope).
    histograms
        ``steps_to_decide`` (per processor per run — Theorem 7's
        variable), ``coin_flips_per_decision``, ``num_depth`` (one
        sample per write carrying a ``num`` field), ``run_steps`` and
        ``run_sched_consults`` (one sample per run),
        ``read_choice_fanout`` (legal-set size, one sample per resolved
        weak-memory read).

    Under the fast engine the registry is a run-tally sink
    (``per_step = False``, see :mod:`repro.obs.hooks`): the step loop
    counts in locals and :meth:`on_run_tally` folds the counts in.  The
    ``on_*`` step events stay the path of the reference engine, vector
    replay and :func:`~repro.obs.journal.replay_journal`, and a fold
    leaves the registry exactly as those events would.
    """

    per_step = False

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        # Per-run scratch, reset at each run_start.
        self._run_flips: Dict[int, int] = {}
        self._unread_write: Dict[str, bool] = {}

    # -- instrument factories -----------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create a counter."""
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        """Get or create a gauge."""
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        """Get or create a histogram."""
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram()
        return h

    # -- kernel sink protocol -----------------------------------------

    def on_run_start(self, protocol_name: str, n_processes: int,
                     inputs: Tuple[Hashable, ...]) -> None:
        _add(self.counters, "runs", 1)
        self._run_flips = {}
        self._unread_write = {}

    def on_sched(self, consults: int) -> None:
        self.counter("sched_consults").inc()

    def on_coin_flip(self, pid: int, n_branches: int) -> None:
        self.counter("coin_flips").inc()
        self._run_flips[pid] = self._run_flips.get(pid, 0) + 1

    def on_read_choices(self, pid: int, register: str, n_choices: int,
                        chosen: Hashable) -> None:
        self.counter("read_choice_points").inc()
        self.histogram("read_choice_fanout").observe(n_choices)

    def on_read(self, pid: int, register: str, value: Hashable) -> None:
        self.counter("reads").inc()
        self._unread_write[register] = False

    def on_write(self, pid: int, register: str, value: Hashable) -> None:
        self.counter("writes").inc()
        if self._unread_write.get(register, False):
            self.counter("register_contention").inc()
        self._unread_write[register] = True
        depth = num_depth_of(value)
        if depth is not None:
            self.gauge("max_num_depth").set(depth)
            self.histogram("num_depth").observe(depth)

    def on_decision(self, pid: int, value: Hashable, activation: int) -> None:
        self.counter("decisions").inc()
        self.histogram("steps_to_decide").observe(activation)
        self.histogram("coin_flips_per_decision").observe(
            self._run_flips.get(pid, 0)
        )

    def on_crash(self, pid: int, index: int) -> None:
        self.counter("crashes").inc()

    def on_step(self, index: int, pid: int, op, result: Hashable,
                decided: Optional[Hashable]) -> None:
        self.counter("steps").inc()

    def on_run_tally(self, tally: RunTally) -> None:
        counters = self.counters
        if tally.sched_consults:
            _add(counters, "sched_consults", tally.sched_consults)
        run_flips = self._run_flips
        if tally.coin_flips:
            total = 0
            for pid, flips in tally.coin_flips.items():
                run_flips[pid] = run_flips.get(pid, 0) + flips
                total += flips
            _add(counters, "coin_flips", total)
        writes = tally.writes
        if tally.reads:
            _add(counters, "reads", tally.reads)
        unread = self._unread_write
        if writes:
            _add(counters, "writes", writes)
            contention = tally.contention
            if unread:
                for register in tally.opened:
                    if unread.get(register):
                        contention += 1
            if contention:
                _add(counters, "register_contention", contention)
        unread.update(tally.unread)
        num_depths = tally.num_depths
        if num_depths:
            gauge = self.gauge("max_num_depth")
            gauge.set(min(num_depths))
            gauge.set(max(num_depths))
            gauge.set(tally.last_num_depth)
            histogram = self.histogram("num_depth")
            for depth, count in num_depths.items():
                histogram.observe(depth, count)
        decisions = tally.decisions
        if decisions:
            _add(counters, "decisions", len(decisions))
            steps_to_decide = self.histogram("steps_to_decide")
            flips_per_decision = self.histogram("coin_flips_per_decision")
            for pid, activation in decisions:
                steps_to_decide.observe(activation)
                flips_per_decision.observe(run_flips.get(pid, 0))
        if tally.steps:
            _add(counters, "steps", tally.steps)

    def on_run_end(self, result) -> None:
        if getattr(result, "completed", False):
            _add(self.counters, "runs_completed", 1)
        self.histogram("run_steps").observe(result.total_steps)
        consults = getattr(result, "sched_consults", None)
        if consults is not None:
            self.histogram("run_sched_consults").observe(consults)

    # -- aggregation and output ---------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (for sharded batches).

        Instruments are matched by name; ones existing only in
        ``other`` are created here (so merging into a fresh registry
        copies ``other``'s aggregates).  Semantics per kind: counters
        add, histograms union their exact counts, gauges union min/max
        with a last-writer-wins value — so merging shard registries in
        run-index order (what :func:`repro.parallel.run_parallel` does)
        yields a registry whose :meth:`to_dict` snapshot is
        bit-identical to observing the whole batch serially.  The merge
        is associative; only the gauge ``value`` field makes it
        non-commutative.  Per-run scratch state (coin-flip attribution,
        unread-write tracking) is *not* merged: merge between runs, not
        mid-run.  ``other`` is read, never mutated.
        """
        for name, c in other.counters.items():
            self.counter(name).merge(c)
        for name, g in other.gauges.items():
            self.gauge(name).merge(g)
        for name, h in other.histograms.items():
            self.histogram(name).merge(h)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (the ``observability`` metrics block)."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "gauges": {
                k: {"value": g.value, "min": g.minimum, "max": g.maximum}
                for k, g in sorted(self.gauges.items())
            },
            "histograms": {
                k: h.to_dict() for k, h in sorted(self.histograms.items())
            },
        }

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines: List[str] = []
        if self.counters:
            lines.append("counters:")
            width = max(len(k) for k in self.counters)
            for name in sorted(self.counters):
                lines.append(f"  {name:<{width}}  "
                             f"{self.counters[name].value}")
        if self.gauges:
            lines.append("gauges:")
            width = max(len(k) for k in self.gauges)
            for name in sorted(self.gauges):
                g = self.gauges[name]
                lines.append(f"  {name:<{width}}  {g.value} "
                             f"(min {g.minimum}, max {g.maximum})")
        if self.histograms:
            lines.append("histograms:")
            width = max(len(k) for k in self.histograms)
            for name in sorted(self.histograms):
                h = self.histograms[name]
                if not h.total:
                    lines.append(f"  {name:<{width}}  (empty)")
                    continue
                lines.append(
                    f"  {name:<{width}}  n={h.total} "
                    f"mean={h.mean:.2f} p50={h.p50} p90={h.p90} "
                    f"p99={h.p99} max={h.maximum}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"
