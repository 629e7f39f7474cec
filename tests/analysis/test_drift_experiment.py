"""Smoke + shape tests for the drift-adaptation experiment module."""

import pytest

from repro.analysis.experiments import drift_adaptation
from repro.analysis.harness import Lab


@pytest.fixture(scope="module")
def lab():
    return Lab(switch_samples=30)


@pytest.fixture(scope="module")
def result(lab):
    return drift_adaptation.run(
        lab, app_name="sha", n_jobs=80, window=15, slowdown=1.35
    )


class TestRunShape:
    def test_one_row_per_governor(self, result):
        assert [r.governor for r in result.rows] == list(
            drift_adaptation.DRIFT_GOVERNORS
        )

    def test_shift_and_window_recorded(self, result):
        assert result.shift_job == 40
        assert result.window == 15
        assert result.app == "sha"

    def test_unknown_row_rejected(self, result):
        with pytest.raises(KeyError):
            result.row("turbo")

    def test_performance_reference_is_one(self, result):
        assert result.row("performance").energy_vs_performance == 1.0

    def test_shift_must_be_inside_run(self, lab):
        with pytest.raises(ValueError, match="inside the run"):
            drift_adaptation.run(lab, n_jobs=40, shift_fraction=1.0)


class TestAdaptationOutcome:
    def test_drift_breaks_frozen_not_adaptive(self, result):
        frozen = result.row("prediction")
        adaptive = result.row("adaptive")
        assert frozen.final_miss_rate > adaptive.final_miss_rate
        assert adaptive.drift_events >= 1
        # Recovery target: back within 2x pre-shift, never held below
        # what fmax itself achieves post-shift (the feasibility floor).
        floor = result.row("performance").final_miss_rate
        assert adaptive.final_miss_rate <= max(
            2 * adaptive.pre_miss_rate, floor, 0.1
        )

    def test_adaptive_cheaper_than_performance(self, result):
        assert result.row("adaptive").energy_vs_performance <= 1.0

    def test_adaptation_cost_inside_predictor_envelope(self, result):
        adaptive = result.row("adaptive")
        assert 0.0 < adaptive.mean_adaptation_ms <= adaptive.mean_predictor_ms


class TestRender:
    def test_render_mentions_governors_and_shift(self, result):
        text = drift_adaptation.render(result)
        assert "adaptive" in text
        assert "prediction" in text
        assert "x1.35" in text
        assert "job 40/80" in text
