"""DVFS switch latency model and microbenchmark.

Changing DVFS level is not free: the voltage regulator must slew to the new
voltage and the kernel cpufreq path adds overhead.  The paper measures this
with a microbenchmark and uses the **95th-percentile** switch time per
(start, end) frequency pair when budgeting (Fig. 11), "to be conservative
... while omitting rare outliers".

The model here produces latencies with the same structure as Fig. 11:

- zero for a no-op switch (same level);
- a fixed kernel/PLL overhead for any real switch;
- a regulator-settle term proportional to the voltage delta
  (bigger swings between the table corners take the longest);
- long-tailed multiplicative noise, so the 95th percentile is meaningfully
  above the median, as on the real board.
"""

from __future__ import annotations

import math
import random

from repro.platform.opp import OperatingPoint, OppTable

__all__ = ["SwitchLatencyModel", "SwitchTimeTable"]


class SwitchTimeTable:
    """95th-percentile switch times for every (start, end) OPP pair.

    This is the artifact the predictive controller consumes when shrinking
    the effective budget (paper §3.4 / Fig. 10): the switch has not happened
    yet when the frequency decision is made, so a conservative estimate is
    required.
    """

    def __init__(self, opps: OppTable, times_s: dict[tuple[int, int], float]):
        expected = {(a, b) for a in range(len(opps)) for b in range(len(opps))}
        if set(times_s) != expected:
            missing = expected - set(times_s)
            raise ValueError(f"switch table incomplete; missing pairs: {missing}")
        for pair, t in times_s.items():
            if t < 0:
                raise ValueError(f"negative switch time {t} for pair {pair}")
        self._opps = opps
        self._times = dict(times_s)

    @property
    def opps(self) -> OppTable:
        return self._opps

    def time_s(self, start: OperatingPoint, end: OperatingPoint) -> float:
        """Conservative (95th-pct) switch time from ``start`` to ``end``."""
        return self._times[(start.index, end.index)]

    def worst_case_s(self) -> float:
        """The largest entry in the table."""
        return max(self._times.values())

    def as_matrix(self) -> list[list[float]]:
        """Row-major matrix ``[start][end]`` of times in seconds (Fig. 11)."""
        n = len(self._opps)
        return [[self._times[(a, b)] for b in range(n)] for a in range(n)]


class SwitchLatencyModel:
    """Samples individual DVFS switch latencies.

    Attributes:
        kernel_overhead_s: Fixed cost of the cpufreq transition path plus
            PLL relock, paid on every real switch.
        settle_s_per_volt: Regulator slew cost per volt of delta.
        noise_sigma: Log-normal sigma of the multiplicative noise (the
            long tail that separates the 95th percentile from the median).
    """

    def __init__(
        self,
        opps: OppTable,
        kernel_overhead_s: float = 150e-6,
        settle_s_per_volt: float = 2.5e-3,
        noise_sigma: float = 0.35,
        seed: int = 0,
    ):
        if kernel_overhead_s < 0 or settle_s_per_volt < 0 or noise_sigma < 0:
            raise ValueError("switch latency parameters must be non-negative")
        self.opps = opps
        self.kernel_overhead_s = kernel_overhead_s
        self.settle_s_per_volt = settle_s_per_volt
        self.noise_sigma = noise_sigma
        # Seeded on the first draw: seeding costs microseconds, and many
        # short runs never switch.
        self._seed = seed
        self._rng: random.Random | None = None

    def nominal_s(self, start: OperatingPoint, end: OperatingPoint) -> float:
        """Median (noise-free) switch latency."""
        if start.index == end.index:
            return 0.0
        dv = abs(end.voltage_v - start.voltage_v)
        return self.kernel_overhead_s + self.settle_s_per_volt * dv

    def sample_s(self, start: OperatingPoint, end: OperatingPoint) -> float:
        """One noisy switch latency draw, in seconds."""
        nominal = self.nominal_s(start, end)
        if nominal == 0.0:
            return 0.0
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._seed)
        return nominal * math.exp(rng.gauss(0.0, self.noise_sigma))

    def percentile_s(
        self, start: OperatingPoint, end: OperatingPoint, pct: float
    ) -> float:
        """Closed-form percentile of the log-normal latency distribution."""
        if not 0 < pct < 100:
            raise ValueError(f"percentile must be in (0, 100), got {pct}")
        nominal = self.nominal_s(start, end)
        if nominal == 0.0:
            return 0.0
        z = _normal_quantile(pct / 100.0)
        return nominal * math.exp(z * self.noise_sigma)

    def microbenchmark(
        self, samples_per_pair: int = 200, pct: float = 95.0
    ) -> SwitchTimeTable:
        """Empirically build the percentile switch-time table (Fig. 11).

        Mirrors the paper's procedure: repeatedly perform each possible
        (start, end) transition, record latencies, report the ``pct``-th
        percentile per pair.
        """
        if samples_per_pair < 1:
            raise ValueError("samples_per_pair must be at least 1")
        times: dict[tuple[int, int], float] = {}
        for start in self.opps:
            for end in self.opps:
                draws = sorted(
                    self.sample_s(start, end) for _ in range(samples_per_pair)
                )
                rank = min(
                    len(draws) - 1, max(0, math.ceil(pct / 100.0 * len(draws)) - 1)
                )
                times[(start.index, end.index)] = draws[rank]
        return SwitchTimeTable(self.opps, times)


def _normal_quantile(p: float) -> float:
    """Acklam's rational approximation to the standard normal quantile.

    Accurate to ~1e-9 over (0, 1); avoids a scipy dependency in the core.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    a = (
        -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
        1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
    )
    b = (
        -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
        6.680131188771972e01, -1.328068155288572e01,
    )
    c = (
        -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
        -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
    )
    d = (
        7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
        3.754408661907416e00,
    )
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > 1 - p_low:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (
        ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
    ) * q / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)
