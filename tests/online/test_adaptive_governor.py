"""Integration tests for the adaptive governor's feedback loop."""

import pytest

from tests.online.conftest import make_predictive, run_toy

from repro.governors.adaptive import AdaptiveGovernor, AdaptiveMode
from repro.online.drift import CusumDetector


def make_adaptive(toy_stack) -> AdaptiveGovernor:
    return AdaptiveGovernor(make_predictive(toy_stack))


def window_miss(jobs, start, stop):
    window = jobs[start:stop]
    return sum(1 for j in window if j.missed) / len(window)


class TestConstruction:
    def test_starts_predicting(self, toy_stack):
        gov = make_adaptive(toy_stack)
        assert gov.name == "adaptive"
        assert gov.mode is AdaptiveMode.PREDICT
        assert gov.predicting
        assert gov.drift_events == 0

    def test_custom_detector_accepted(self, toy_stack):
        detector = CusumDetector(target=0.0, slack=0.1, threshold=0.5)
        gov = AdaptiveGovernor(make_predictive(toy_stack), detector=detector)
        assert gov.detector is detector

    def test_timer_period_mirrors_fallback(self, toy_stack):
        gov = make_adaptive(toy_stack)
        assert gov.timer_period_s == gov.fallback.timer_period_s


class TestStationaryBehaviour:
    def test_no_alarms_without_drift(self, toy_stack):
        gov = make_adaptive(toy_stack)
        result = run_toy(toy_stack, gov, n_jobs=120)
        assert gov.drift_events == 0
        assert gov.mode is AdaptiveMode.PREDICT
        assert result.miss_rate < 0.1

    def test_saves_energy_like_the_frozen_governor(self, toy_stack):
        adaptive = run_toy(toy_stack, make_adaptive(toy_stack), n_jobs=120)
        frozen = run_toy(toy_stack, make_predictive(toy_stack), n_jobs=120)
        assert adaptive.energy_j < 1.3 * frozen.energy_j

    def test_adaptation_time_recorded_and_small(self, toy_stack):
        # The toy slice is nearly free, so the fig17-envelope comparison
        # lives in the real-app experiment; here we pin that the feedback
        # bill exists and is negligible against the job budget.
        result = run_toy(toy_stack, make_adaptive(toy_stack), n_jobs=60)
        assert result.mean_adaptation_time_s > 0.0
        assert result.mean_adaptation_time_s < 0.01 * result.budget_s
        frozen = run_toy(toy_stack, make_predictive(toy_stack), n_jobs=60)
        assert frozen.mean_adaptation_time_s == 0.0


class TestDriftRecovery:
    N_JOBS = 200
    SHIFT = 100

    @pytest.fixture(scope="class")
    def drifted(self, toy_stack):
        gov = make_adaptive(toy_stack)
        result = run_toy(
            toy_stack, gov, n_jobs=self.N_JOBS, shift_job=self.SHIFT
        )
        return gov, result

    def test_drift_is_detected(self, drifted):
        gov, _ = drifted
        assert gov.drift_events >= 1

    def test_reengages_after_recalibration(self, drifted):
        gov, _ = drifted
        assert gov.mode is AdaptiveMode.PREDICT

    def test_recovers_miss_rate(self, drifted):
        _, result = drifted
        pre = window_miss(result.jobs, self.SHIFT - 30, self.SHIFT)
        final = window_miss(result.jobs, self.N_JOBS - 30, self.N_JOBS)
        assert final <= max(2 * pre, 0.05)

    def test_frozen_governor_stays_broken(self, toy_stack, drifted):
        frozen = run_toy(
            toy_stack,
            make_predictive(toy_stack),
            n_jobs=self.N_JOBS,
            shift_job=self.SHIFT,
        )
        _, adaptive = drifted
        frozen_final = window_miss(
            frozen.jobs, self.N_JOBS - 30, self.N_JOBS
        )
        adaptive_final = window_miss(
            adaptive.jobs, self.N_JOBS - 30, self.N_JOBS
        )
        assert frozen_final > 0.2
        assert adaptive_final < frozen_final

    def test_monitor_saw_every_job(self, drifted):
        gov, result = drifted
        assert gov.residuals().n_samples == result.n_jobs


class TestStatePersistence:
    def test_round_trip_preserves_loop_state(self, toy_stack):
        gov = make_adaptive(toy_stack)
        run_toy(toy_stack, gov, n_jobs=80, shift_job=40)
        restored = make_adaptive(toy_stack)
        restored.load_state_dict(gov.state_dict())
        assert restored.mode is gov.mode
        assert restored.drift_events == gov.drift_events
        assert restored.residuals() == gov.residuals()
        assert restored.detector.statistic == pytest.approx(
            gov.detector.statistic
        )
