"""Run metrics: counters, gauges, and fixed-bucket histograms.

Zero-dependency by design (no numpy): the registry is written into by
the runtime executor and the governors on the simulation hot path, and
is importable from anywhere in the package without creating cycles.

The histogram uses a fixed geometric bucket ladder, so feeding it is
O(log buckets) per observation and its memory is bounded regardless of
run length.  Percentiles are recovered by linear interpolation inside
the bucket that crosses the requested rank — the same convention
:func:`percentile` applies to exact value lists, so histogram quantiles
and :meth:`~repro.runtime.records.RunResult.slack_percentile` agree up
to bucket resolution.
"""

from __future__ import annotations

import math
from bisect import bisect_left

__all__ = [
    "percentile",
    "geometric_buckets",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


def percentile(values, pct: float) -> float:
    """The ``pct``-th percentile of ``values`` (linear interpolation).

    Matches numpy's default (``method='linear'``) so results line up
    with the analysis helpers, but without requiring numpy.

    Raises:
        ValueError: On an empty input or a ``pct`` outside [0, 100].
    """
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("cannot take a percentile of no values")
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def geometric_buckets(
    lo: float = 1e-6, hi: float = 1e3, per_decade: int = 6
) -> list[float]:
    """Geometric bucket upper bounds covering [lo, hi].

    The default ladder spans microseconds to kiloseconds at six buckets
    per decade (~47% relative resolution), which is plenty for p50/p95
    comparisons of slice, switch, and job times alike.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got {lo}/{hi}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    n = math.ceil(per_decade * math.log10(hi / lo))
    ratio = 10.0 ** (1.0 / per_decade)
    return [lo * ratio**i for i in range(n + 1)]


#: The default ladder, computed once: every traced run makes several
#: histograms with it.
_DEFAULT_BOUNDS = tuple(geometric_buckets())


class Counter:
    """A monotonically increasing value (events, seconds of residency)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def as_dict(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A last-write-wins instantaneous value (margin, mode, queue depth)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = float("nan")

    def set(self, value: float) -> None:
        self.value = float(value)

    def as_dict(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Fixed-bucket distribution with p50/p95/p99 summaries.

    Args:
        bounds: Ascending bucket upper bounds.  Observations above the
            last bound land in an unbounded overflow bucket whose
            percentile estimate is clamped to the observed maximum.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: list[float] | None = None):
        if bounds is None:
            self.bounds = list(_DEFAULT_BOUNDS)  # increasing by construction
        else:
            self.bounds = list(bounds)
            if any(
                nxt <= prev for prev, nxt in zip(self.bounds, self.bounds[1:])
            ):
                raise ValueError(
                    "histogram bounds must be strictly increasing"
                )
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, pct: float) -> float:
        """Bucket-interpolated percentile, clamped to the observed range."""
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        if self.count == 0:
            return float("nan")
        rank = (pct / 100.0) * self.count
        seen = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                lower = self.bounds[i - 1] if i > 0 else self.min
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                frac = (rank - seen) / bucket_count
                estimate = lower + frac * (upper - lower)
                return min(max(estimate, self.min), self.max)
            seen += bucket_count
        return self.max

    def as_dict(self) -> dict:
        empty = self.count == 0
        return {
            "count": self.count,
            "sum": self.total,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "mean": None if empty else self.mean,
            "p50": None if empty else self.quantile(50),
            "p95": None if empty else self.quantile(95),
            "p99": None if empty else self.quantile(99),
        }


class MetricsRegistry:
    """Name-keyed metric store, created on first touch.

    Naming convention: dotted scopes with an optional bracketed label,
    e.g. ``executor.residency_s[600]`` for per-frequency residency or
    ``adaptive.transitions[predict->fallback]``.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(
        self, name: str, bounds: list[float] | None = None
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(bounds)
        return metric

    @property
    def counters(self) -> dict[str, Counter]:
        return dict(self._counters)

    @property
    def gauges(self) -> dict[str, Gauge]:
        return dict(self._gauges)

    @property
    def histograms(self) -> dict[str, Histogram]:
        return dict(self._histograms)

    def as_dict(self) -> dict:
        """JSON-ready dump (NaN-free: unset gauges report None)."""
        gauges = {}
        for name, gauge in sorted(self._gauges.items()):
            value = gauge.value
            gauges[name] = None if math.isnan(value) else value
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": gauges,
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self._histograms.items())
            },
        }
