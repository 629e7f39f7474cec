"""Tests for adaptive-state persistence (save/load_adaptive_state)."""

import json
from pathlib import Path

import pytest

from tests.online.conftest import make_predictive, run_toy, toy_stack

from repro.governors.adaptive import AdaptiveGovernor
from repro.pipeline.persist import load_adaptive_state, save_adaptive_state

# Re-export so pytest resolves the fixture in this directory too.
__all__ = ["toy_stack"]


@pytest.fixture(scope="module")
def trained_governor(toy_stack):
    gov = AdaptiveGovernor(make_predictive(toy_stack))
    run_toy(toy_stack, gov, n_jobs=80, shift_job=40)
    return gov


class TestAdaptiveStateFile:
    def test_round_trip_restores_learned_state(
        self, toy_stack, trained_governor, tmp_path
    ):
        path = tmp_path / "adaptive.json"
        save_adaptive_state(trained_governor, path)
        restored = AdaptiveGovernor(make_predictive(toy_stack))
        load_adaptive_state(restored, path)
        assert restored.mode is trained_governor.mode
        assert restored.drift_events == trained_governor.drift_events
        assert restored.residuals() == trained_governor.residuals()

    def test_restored_governor_predicts_identically(
        self, toy_stack, trained_governor, tmp_path
    ):
        path = tmp_path / "adaptive.json"
        save_adaptive_state(trained_governor, path)
        restored = AdaptiveGovernor(make_predictive(toy_stack))
        load_adaptive_state(restored, path)
        a = run_toy(toy_stack, trained_governor, n_jobs=20, seed=123)
        b = run_toy(toy_stack, restored, n_jobs=20, seed=123)
        assert a.energy_j == pytest.approx(b.energy_j)
        assert [j.opp_mhz for j in a.jobs] == [j.opp_mhz for j in b.jobs]

    def test_payload_is_versioned_json(self, trained_governor, tmp_path):
        path = tmp_path / "adaptive.json"
        save_adaptive_state(trained_governor, path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 2
        assert "predictor" in payload["state"]

    def test_unknown_version_rejected(
        self, toy_stack, trained_governor, tmp_path
    ):
        path = tmp_path / "adaptive.json"
        save_adaptive_state(trained_governor, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        fresh = AdaptiveGovernor(make_predictive(toy_stack))
        with pytest.raises(ValueError, match="format version"):
            load_adaptive_state(fresh, path)

    def test_version_1_file_rejected(self, toy_stack):
        """A version-1 file (written when the predictor state still held
        an adaptive-margin entry) fails the version check, not a lookup
        of a key that no longer exists."""
        path = Path(__file__).parent / "data" / "adaptive_state_v1.json"
        assert "margin" in json.loads(path.read_text())["state"]["predictor"]
        fresh = AdaptiveGovernor(make_predictive(toy_stack))
        with pytest.raises(ValueError, match="format version 1"):
            load_adaptive_state(fresh, path)
