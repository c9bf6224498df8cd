"""Dependency-free statistics for Monte-Carlo batches.

Deliberately small: means, standard deviations, normal-approximation
confidence intervals, empirical tail curves, and a least-squares fit of
a geometric decay rate (used to compare measured tails against the
paper's (1/4)^(k/2) and (3/4)^k envelopes).  Plain Python suffices at
these data sizes, and keeping the arithmetic explicit makes the
benchmark output auditable.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Sequence, Tuple


@dataclasses.dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    n: int
    mean: float
    stdev: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float

    def render(self, label: str = "", fmt: str = "{:.2f}") -> str:
        head = f"{label}: " if label else ""
        return (
            head
            + f"n={self.n} mean={fmt.format(self.mean)} "
            + f"sd={fmt.format(self.stdev)} min={fmt.format(self.minimum)} "
            + f"p50={fmt.format(self.p50)} p90={fmt.format(self.p90)} "
            + f"p99={fmt.format(self.p99)} max={fmt.format(self.maximum)}"
        )


def percentile(sorted_xs: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not sorted_xs:
        raise ValueError("empty sample")
    idx = min(len(sorted_xs) - 1, max(0, math.ceil(q * len(sorted_xs)) - 1))
    return sorted_xs[idx]


def summarize(xs: Sequence[float]) -> Summary:
    """Compute a :class:`Summary` of a non-empty sample."""
    if not xs:
        raise ValueError("empty sample")
    data = sorted(float(x) for x in xs)
    n = len(data)
    mean = sum(data) / n
    var = sum((x - mean) ** 2 for x in data) / n if n > 1 else 0.0
    return Summary(
        n=n,
        mean=mean,
        stdev=math.sqrt(var),
        minimum=data[0],
        maximum=data[-1],
        p50=percentile(data, 0.50),
        p90=percentile(data, 0.90),
        p99=percentile(data, 0.99),
    )


def mean_confidence_interval(
    xs: Sequence[float], z: float = 1.96
) -> Tuple[float, float, float]:
    """(mean, lo, hi) normal-approximation confidence interval."""
    s = summarize(xs)
    half = z * s.stdev / math.sqrt(s.n) if s.n > 1 else 0.0
    return s.mean, s.mean - half, s.mean + half


def empirical_tail(xs: Sequence[float], ks: Sequence[float]) -> List[float]:
    """P̂(X > k) for each k, from the sample."""
    if not xs:
        raise ValueError("empty sample")
    data = sorted(xs)
    n = len(data)
    out = []
    import bisect

    for k in ks:
        idx = bisect.bisect_right(data, k)
        out.append((n - idx) / n)
    return out


def histogram(xs: Sequence[int]) -> Dict[int, int]:
    """Integer-valued histogram (value -> count)."""
    counts: Dict[int, int] = {}
    for x in xs:
        counts[x] = counts.get(x, 0) + 1
    return dict(sorted(counts.items()))


def fit_geometric_rate(ks: Sequence[float], tails: Sequence[float]) -> float:
    """Least-squares fit of ``rate`` in ``tail(k) ≈ rate^k``.

    Works in log space over the strictly positive tail points; returns
    the fitted per-unit decay rate.  Used to compare measured tails
    against the paper's geometric envelopes: the fit should come out at
    or below the envelope's rate.
    """
    points = [
        (k, math.log(t)) for k, t in zip(ks, tails) if t > 0.0
    ]
    if len(points) < 2:
        raise ValueError("need at least two positive tail points")
    n = len(points)
    sx = sum(k for k, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(k * k for k, _ in points)
    sxy = sum(k * y for k, y in points)
    denom = n * sxx - sx * sx
    if denom == 0:
        raise ValueError("degenerate abscissae")
    slope = (n * sxy - sx * sy) / denom
    return math.exp(slope)
