"""Arrival processes: schedule shape, determinism, JSON round-trip."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.arrivals import (
    ARRIVAL_KINDS,
    BurstyArrivals,
    DiurnalArrivals,
    PeriodicArrivals,
    PoissonArrivals,
    arrival_from_dict,
)

ALL_PROCESSES = [
    PeriodicArrivals(),
    PoissonArrivals(rate=1.3),
    BurstyArrivals(burst_factor=3.0, calm_rate=0.9, dwell=5.0),
    DiurnalArrivals(amplitude=0.6, cycle_jobs=16),
]


class TestScheduleContract:
    @pytest.mark.parametrize(
        "process", ALL_PROCESSES, ids=lambda p: p.kind
    )
    def test_non_decreasing_from_zero(self, process):
        times = process.arrivals(50, 0.05, random.Random(3))
        assert times[0] == 0.0
        assert len(times) == 50
        assert all(b >= a for a, b in zip(times, times[1:]))
        assert all(t >= 0.0 for t in times)

    @pytest.mark.parametrize(
        "process", ALL_PROCESSES, ids=lambda p: p.kind
    )
    def test_deterministic_given_seed(self, process):
        assert process.arrivals(30, 0.05, random.Random(9)) == (
            process.arrivals(30, 0.05, random.Random(9))
        )

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=80),
        period=st.floats(min_value=1e-3, max_value=10.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_every_kind_satisfies_contract(self, n, period, seed):
        for process in ALL_PROCESSES:
            times = process.arrivals(n, period, random.Random(seed))
            assert len(times) == n
            assert times[0] == 0.0
            assert all(b >= a for a, b in zip(times, times[1:]))

    def test_periodic_matches_executor_default(self):
        assert PeriodicArrivals().arrivals(4, 0.05, random.Random(0)) == [
            0.0, 0.05, 0.1, pytest.approx(0.15)
        ]

    def test_only_periodic_releases_draw_nothing(self):
        assert [p.draws for p in ALL_PROCESSES] == [False, True, True, True]
        assert PeriodicArrivals().arrivals(3, 0.05, None) == (
            PeriodicArrivals().arrivals(3, 0.05, random.Random(0))
        )

    def test_poisson_rate_scales_throughput(self):
        rng = random.Random(11)
        slow = PoissonArrivals(rate=1.0).arrivals(400, 0.05, rng)
        rng = random.Random(11)
        fast = PoissonArrivals(rate=2.0).arrivals(400, 0.05, rng)
        # Twice the rate finishes in about half the time.
        assert fast[-1] < 0.7 * slow[-1]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one job"):
            PeriodicArrivals().arrivals(0, 0.05, random.Random(0))
        with pytest.raises(ValueError, match="period"):
            PeriodicArrivals().arrivals(5, 0.0, random.Random(0))
        with pytest.raises(ValueError, match="rate"):
            PoissonArrivals(rate=0.0)
        with pytest.raises(ValueError, match="burst_factor"):
            BurstyArrivals(burst_factor=1.0)
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalArrivals(amplitude=1.0)


class TestSerialization:
    @pytest.mark.parametrize(
        "process", ALL_PROCESSES, ids=lambda p: p.kind
    )
    def test_round_trip(self, process):
        restored = arrival_from_dict(process.as_dict())
        assert restored == process
        assert restored.arrivals(20, 0.05, random.Random(5)) == (
            process.arrivals(20, 0.05, random.Random(5))
        )

    def test_registry_covers_every_kind(self):
        assert set(ARRIVAL_KINDS) == {
            "periodic", "poisson", "bursty", "diurnal"
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            arrival_from_dict({"kind": "fractal"})
