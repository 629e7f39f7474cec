"""The shared budget-and-choose path of the predictive governor.

Every predictive decision (sequential, pipelined, parallel, batch and
adaptive) goes through the same three steps: ``charge_slice`` puts the
slice's cost on the timeline, ``budget_and_choose`` turns the time left
into an effective budget, picks the frequency and files the audit
record.  These tests pin each step on its own, and check that
``decide`` is exactly their composition.
"""

import math

import pytest

from repro.governors.base import JobContext
from repro.governors.predictive import PredictiveGovernor, SliceOutcome
from repro.platform.board import Board
from repro.telemetry import Telemetry

INPUTS = {"width": 12, "height": 9, "kind": 1}


def make_governor(trained_stack, telemetry=None):
    _, slice_, predictor, dvfs, table = trained_stack
    governor = PredictiveGovernor(slice_, predictor, dvfs, table)
    if telemetry is not None:
        governor.bind_telemetry(telemetry)
    return governor


def make_ctx(board, budget_s=0.050, charge_overheads=True):
    return JobContext(
        index=3,
        inputs=dict(INPUTS),
        task_globals={},
        budget_s=budget_s,
        deadline_s=board.now + budget_s,
        board=board,
        charge_overheads=charge_overheads,
    )


class TestChargeSlice:
    def test_uncharged_run_leaves_the_timeline_alone(self, trained_stack):
        governor = make_governor(trained_stack)
        board = Board()
        ctx = make_ctx(board, charge_overheads=False)
        outcome = governor.analyze(ctx)
        assert governor.charge_slice(ctx, outcome) == 0.0
        assert board.now == 0.0
        assert board.energy_j() == 0.0

    def test_charges_slice_time_at_current_opp_as_predictor(
        self, trained_stack
    ):
        telemetry = Telemetry()
        governor = make_governor(trained_stack, telemetry)
        board = Board()
        ctx = make_ctx(board)
        outcome = governor.analyze(ctx)
        expected = board.cpu.execution_time(
            outcome.slice_work, board.current_opp
        )
        slice_time = governor.charge_slice(ctx, outcome, placement="test")
        assert slice_time == pytest.approx(expected, rel=1e-12)
        assert board.now == pytest.approx(expected, rel=1e-12)
        assert board.energy_j("predictor") == pytest.approx(
            board.energy_j(), rel=1e-12
        )
        (span,) = [e for e in telemetry.events if e.name == "predict.slice"]
        assert span.dur_s == pytest.approx(expected, rel=1e-12)
        assert span.args == {"job": 3, "placement": "test"}


class TestBudgetAndChoose:
    def test_effective_budget_subtracts_elapsed_and_switch_estimate(
        self, trained_stack
    ):
        telemetry = Telemetry()
        governor = make_governor(trained_stack, telemetry)
        board = Board()
        ctx = make_ctx(board)
        outcome = governor.analyze(ctx)
        slice_time = governor.charge_slice(ctx, outcome)
        decision = governor.budget_and_choose(
            ctx, outcome, slice_time=slice_time, mode="probe"
        )
        (record,) = telemetry.decisions
        expected = ctx.deadline_s - board.now - governor.switch_estimate_s(ctx)
        assert record.effective_budget_s == pytest.approx(expected, rel=1e-12)
        # Only the time already spent counts: slice_time without a
        # certified bound reserves nothing further.
        assert record.effective_budget_s == pytest.approx(
            ctx.budget_s - slice_time - governor.switch_estimate_s(ctx),
            rel=1e-12,
        )
        assert decision == governor.choose(outcome, record.effective_budget_s)
        assert record.mode == "probe"
        assert record.opp_mhz == decision.opp.freq_mhz

    def test_uncharged_run_decides_against_bare_time_to_deadline(
        self, trained_stack
    ):
        telemetry = Telemetry()
        governor = make_governor(trained_stack, telemetry)
        board = Board()
        ctx = make_ctx(board, charge_overheads=False)
        outcome = governor.analyze(ctx)
        governor.budget_and_choose(ctx, outcome)
        (record,) = telemetry.decisions
        assert record.effective_budget_s == ctx.deadline_s - board.now
        assert board.now == 0.0

    def test_margin_is_the_offline_predictors_float(self, trained_stack):
        telemetry = Telemetry()
        governor = make_governor(trained_stack, telemetry)
        ctx = make_ctx(Board())
        governor.budget_and_choose(ctx, governor.analyze(ctx))
        (record,) = telemetry.decisions
        assert isinstance(governor.predictor.margin, float)
        assert record.margin == governor.predictor.margin == 0.10

    def test_record_is_filed_under_the_auditor(self, trained_stack):
        telemetry = Telemetry()
        governor = make_governor(trained_stack, telemetry)
        ctx = make_ctx(Board())

        # A composing governor (adaptive, batch) passes itself, so the
        # record carries its name, not the inner predictive governor's.
        class Composer(PredictiveGovernor):
            @property
            def name(self):
                return "composer"

        _, slice_, predictor, dvfs, table = trained_stack
        composer = Composer(slice_, predictor, dvfs, table)
        composer.bind_telemetry(telemetry)
        governor.budget_and_choose(
            ctx, governor.analyze(ctx), mode="batch", auditor=composer
        )
        (record,) = telemetry.decisions
        assert record.governor == "composer"
        assert record.mode == "batch"

    def test_outcome_without_raw_features_has_no_provenance(
        self, trained_stack
    ):
        telemetry = Telemetry()
        governor = make_governor(trained_stack, telemetry)
        ctx = make_ctx(Board())
        full = governor.analyze(ctx)
        governor.budget_and_choose(ctx, full)
        bare = SliceOutcome(slice_work=full.slice_work, prediction=full.prediction)
        governor.budget_and_choose(ctx, bare)
        with_raw, without_raw = telemetry.decisions
        assert with_raw.attribution is not None
        assert without_raw.attribution is None
        assert without_raw.features == {}
        assert without_raw.opp_mhz == with_raw.opp_mhz
        assert without_raw.beta_generation == -1

    def test_without_telemetry_nothing_is_recorded(self, trained_stack):
        governor = make_governor(trained_stack)
        ctx = make_ctx(Board())
        decision = governor.budget_and_choose(ctx, governor.analyze(ctx))
        assert decision.opp in governor.dvfs.opps
        assert not math.isnan(decision.predicted_time_s)


class TestDecideIsTheComposition:
    @pytest.mark.parametrize("charge_overheads", [True, False])
    @pytest.mark.parametrize("budget_s", [0.004, 0.020, 0.200])
    def test_decide_equals_charge_then_budget_and_choose(
        self, trained_stack, charge_overheads, budget_s
    ):
        by_decide, by_steps = Telemetry(), Telemetry()
        board_a, board_b = Board(), Board()
        ctx_a = make_ctx(board_a, budget_s, charge_overheads)
        ctx_b = make_ctx(board_b, budget_s, charge_overheads)

        decided = make_governor(trained_stack, by_decide).decide(ctx_a)

        governor = make_governor(trained_stack, by_steps)
        outcome = governor.analyze(ctx_b)
        slice_time = governor.charge_slice(ctx_b, outcome)
        composed = governor.budget_and_choose(
            ctx_b, outcome, slice_time=slice_time
        )

        assert decided == composed
        assert board_a.now == board_b.now
        assert board_a.energy_j() == board_b.energy_j()
        (a,), (b,) = by_decide.decisions, by_steps.decisions
        assert a.effective_budget_s == b.effective_budget_s
        assert a.attribution == b.attribution
