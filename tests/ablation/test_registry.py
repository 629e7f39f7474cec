"""The component registry: off-state semantics declared exactly once."""

import pytest

from repro.ablation.registry import (
    COMPONENTS,
    PLATFORMS,
    baseline_pipeline,
    batch_governor,
    component_names,
    configs_without,
    get_component,
)
from repro.governors.adaptive import AdaptiveConfig


class TestRegistryShape:
    def test_names_are_unique_and_ordered(self):
        names = component_names()
        assert len(names) == len(set(names))
        assert names == tuple(c.name for c in COMPONENTS)

    def test_every_component_documents_itself(self):
        for component in COMPONENTS:
            assert component.title
            assert component.summary.endswith((".", ")"))

    def test_every_component_actually_disables_something(self):
        for component in COMPONENTS:
            assert (
                component.pipeline_off or component.adaptive_off
            ), component.name

    def test_unknown_component_lists_valid_names(self):
        with pytest.raises(KeyError, match="asymmetric_loss"):
            get_component("nonesuch")


class TestConfigsWithout:
    def test_nothing_disabled_is_the_baseline(self):
        pipeline, adaptive = configs_without(())
        assert pipeline == baseline_pipeline()
        assert adaptive == AdaptiveConfig()

    def test_asymmetric_loss_off_is_symmetric_everywhere(self):
        pipeline, adaptive = configs_without(("asymmetric_loss",))
        assert pipeline.alpha == 1.0
        assert adaptive.under_weight == 1.0

    def test_safety_margin_off_is_one_offline_knob(self):
        """The online predictor inherits the offline margin, so zeroing
        the pipeline's is the whole off-state."""
        pipeline, adaptive = configs_without(("safety_margin",))
        assert pipeline.margin == 0.0
        assert adaptive == AdaptiveConfig()

    def test_slicing_off_runs_the_full_program(self):
        pipeline, _ = configs_without(("slicing",))
        assert pipeline.slice_mode == "full"
        assert pipeline.certify == "warn"

    def test_merge_order_is_caller_independent(self):
        ab = configs_without(("fallback", "recalibration"))
        ba = configs_without(("recalibration", "fallback"))
        assert ab == ba

    def test_unknown_name_rejected_before_merging(self):
        with pytest.raises(KeyError):
            configs_without(("asymmetric_loss", "nonesuch"))


class TestBenchmarkSharedEnumerations:
    def test_batch_governor_name(self):
        assert batch_governor(8) == "prediction-batch8"

    def test_batch_governor_validates(self):
        with pytest.raises(ValueError):
            batch_governor(0)

    def test_platforms_construct_real_models(self):
        for name, platform in PLATFORMS.items():
            assert platform.name == name
            table = platform.opps()
            assert table.fmax.freq_hz > table.fmin.freq_hz
            assert platform.power().power(table.fmax) > 0
