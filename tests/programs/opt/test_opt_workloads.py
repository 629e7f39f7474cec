"""Optimizer x certifier interplay over the shipped workloads.

Satellite guarantee: an optimized slice must still pass the full slice
certifier, and the certified worst-case cost bound must never regress —
the optimizer may only tighten (or match) what the governor schedules
against.
"""

import dataclasses

import pytest

from repro.pipeline.config import PipelineConfig
from repro.pipeline.offline import build_controller, profiled_input_ranges
from repro.programs.analysis import certify_slice
from repro.programs.instrument import Instrumenter
from repro.programs.opt import optimize_program
from repro.programs.slicer import Slicer
from repro.workloads.registry import app_names, get_app

N_JOBS = 60


def sliced_app(name):
    app = get_app(name)
    inst = Instrumenter().instrument(app.task.program)
    sl = Slicer().slice(inst)
    inputs = app.inputs(N_JOBS, seed=3)
    names = frozenset().union(*(frozenset(job) for job in inputs))
    ranges = profiled_input_ranges(inputs, widen=0.5)
    return app, inst, sl, names, ranges


@pytest.mark.parametrize("name", app_names())
class TestOptimizedSlicesStillCertify:
    def test_certifies_and_bound_never_regresses(self, name):
        app, inst, sl, names, ranges = sliced_app(name)
        base_cert = certify_slice(
            inst,
            sl,
            input_names=names,
            input_ranges=ranges,
            waivers=app.certifier_waivers,
        )
        assert base_cert.certified

        result = optimize_program(sl.program, input_ranges=ranges)
        assert result.validated
        opt_slice = dataclasses.replace(sl, program=result.program)
        opt_cert = certify_slice(
            inst,
            opt_slice,
            input_names=names,
            input_ranges=ranges,
            waivers=app.certifier_waivers,
        )
        assert opt_cert.certified, [d.format() for d in opt_cert.blocking]
        slack = 1e-9 * abs(base_cert.cost_bound_instructions) + 1e-6
        assert (
            opt_cert.cost_bound_instructions
            <= base_cert.cost_bound_instructions + slack
        )
        assert (
            opt_cert.cost_bound_mem_refs
            <= base_cert.cost_bound_mem_refs
            + 1e-9 * abs(base_cert.cost_bound_mem_refs)
            + 1e-6
        )


class TestTrainedSliceOptimization:
    """The optimizer over a trained controller's slice (sha)."""

    @pytest.fixture(scope="class")
    def trained(self):
        app = get_app("sha")
        controller = build_controller(
            app, config=PipelineConfig(n_profile_jobs=40, switch_samples=2)
        )
        config = controller.config
        profile_inputs = app.inputs(
            config.n_profile_jobs, seed=config.profile_seed
        )
        ranges = profiled_input_ranges(
            profile_inputs, widen=config.certify_input_widen
        )
        result = optimize_program(
            controller.slice.program, input_ranges=ranges
        )
        return app, controller, profile_inputs, ranges, result

    def test_optimized_slice_still_certifies(self, trained):
        app, controller, profile_inputs, ranges, result = trained
        assert result.validated
        cert = certify_slice(
            controller.instrumented,
            dataclasses.replace(controller.slice, program=result.program),
            needed_sites=frozenset(controller.predictor.needed_sites),
            input_names=frozenset().union(
                *(frozenset(job) for job in profile_inputs)
            ),
            input_ranges=ranges,
            waivers=app.certifier_waivers,
        )
        assert cert.certified, [d.format() for d in cert.blocking]

    def test_optimized_slice_is_bit_exact(self, trained):
        # The optimizer flattens the slicer's Seq nesting (fewer host
        # dispatches) but the optimized slice must stay bit-exact:
        # same features, same cycle accumulators, over the same inputs.
        from repro.programs.opt import node_count

        from tests.programs.opt.helpers import assert_equivalent

        app, controller, _, _, result = trained
        assert node_count(result.program) <= node_count(
            controller.slice.program
        )
        assert_equivalent(
            controller.slice.program,
            result.program,
            app.inputs(20, seed=7),
            isolated=True,
        )
