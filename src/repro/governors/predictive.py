"""The paper's prediction-based DVFS controller.

Per job (Fig. 6 / §3): run the prediction slice on the job's inputs and
live program state to obtain control-flow features; map features to
execution-time predictions at the anchor frequencies with the trained
asymmetric-Lasso models; fit the per-job DVFS components; pick the lowest
discrete frequency whose predicted time fits the *effective* budget —
the budget minus the slice time already spent and a conservative
(95th-percentile) estimate of the upcoming switch time (Fig. 10).

When the offline pipeline attached a :class:`~repro.programs.analysis.
SliceCertificate` with a tight static cost bound, the governor also uses
it in the effective-budget computation: before the slice runs, the
certified worst case tells the governor whether slicing is affordable at
all (if bound + switch time already exceed the remaining budget, it
skips the slice and pins fmax — the slice would only make a doomed job
later), and while choosing it keeps the not-yet-spent remainder of the
bound reserved, so a fast slice execution cannot talk the governor into
headroom the certificate does not guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.governors.base import Decision, Governor, JobContext
from repro.models.dvfs import DvfsModel
from repro.models.timing import ExecutionTimePredictor, TimePrediction
from repro.platform.cpu import Work
from repro.platform.switching import SwitchTimeTable
from repro.programs.analysis import SliceCertificate
from repro.programs.interpreter import Interpreter, RawFeatures
from repro.programs.slicer import PredictionSlice
from repro.telemetry.provenance import build_provenance

__all__ = ["SliceOutcome", "PredictiveGovernor"]


@dataclass(frozen=True)
class SliceOutcome:
    """Result of running the prediction slice for one job.

    Attributes:
        slice_work: What the slice itself cost to run.
        prediction: Margin-inflated anchor-time predictions.
        features: The slice's feature counters (site label -> value);
            kept for the decision audit log.
        raw: The full slice feature object (counters + call addresses);
            decision provenance re-encodes it into model space.
    """

    slice_work: Work
    prediction: TimePrediction
    features: dict[str, float] | None = None
    raw: RawFeatures | None = None


class PredictiveGovernor(Governor):
    """Slice -> execution-time model -> frequency (paper §3).

    Attributes:
        slice: The prediction slice extracted by the offline pipeline.
        predictor: Trained execution-time predictor (both anchors).
        dvfs: DVFS frequency-performance model.
        switch_table: 95th-percentile switch times from the
            microbenchmark; used to shrink the effective budget.
        interpreter: Executes the slice (isolated) at run time.
        certificate: The slice certifier's verdict from the offline
            pipeline; a tight certificate's cost bound feeds the
            effective-budget computation (None disables that).
    """

    def __init__(
        self,
        slice: PredictionSlice,
        predictor: ExecutionTimePredictor,
        dvfs: DvfsModel,
        switch_table: SwitchTimeTable,
        interpreter: Interpreter | None = None,
        certificate: SliceCertificate | None = None,
    ):
        self.slice = slice
        self.predictor = predictor
        self.dvfs = dvfs
        self.switch_table = switch_table
        self.interpreter = interpreter if interpreter is not None else Interpreter()
        self.certificate = certificate

    @property
    def name(self) -> str:
        return "prediction"

    def slice_bound_work(self) -> Work | None:
        """The certified worst-case slice cost as schedulable work.

        None when there is no certificate or its bound is not tight
        (a max_trips-clamped bound is sound but orders of magnitude
        above reality — scheduling against it would pin fmax forever).
        """
        cert = self.certificate
        if cert is None or not cert.cost_bound_tight:
            return None
        return Work(
            cycles=cert.cost_bound_instructions
            * self.interpreter.cycles_per_instruction,
            mem_time_s=cert.cost_bound_mem_refs
            * self.interpreter.mem_seconds_per_ref,
        )

    def analyze(self, ctx: JobContext) -> SliceOutcome:
        """Run the prediction slice (pure: charges nothing on the board).

        The slice executes with isolated globals so its writes cannot
        corrupt task state (paper §3.2).  The executor decides where the
        slice's cost lands — sequential, pipelined, or parallel placement
        (paper §4.3, Fig. 14).
        """
        hp = self.hostprof
        if hp.enabled:
            t0 = hp.clock()
        slice_result = self.interpreter.execute_isolated(
            self.slice.program, ctx.inputs, ctx.task_globals
        )
        if hp.enabled:
            hp.add("features", hp.clock() - t0)
            t0 = hp.clock()
        prediction = self.predictor.predict(slice_result.features)
        if hp.enabled:
            hp.add("predict", hp.clock() - t0)
        return SliceOutcome(
            slice_work=slice_result.work,
            prediction=prediction,
            features=dict(slice_result.features.counters),
            raw=slice_result.features,
        )

    def switch_estimate_s(self, ctx: JobContext) -> float:
        """Conservative estimate of the upcoming DVFS switch (Fig. 10).

        The target level is unknown until after the decision, so take the
        95th-percentile time of the worst switch out of the current level.
        """
        current = ctx.board.current_opp
        return max(
            self.switch_table.time_s(current, end) for end in self.dvfs.opps
        )

    def choose(
        self, outcome: SliceOutcome, effective_budget_s: float
    ) -> Decision:
        """Lowest discrete frequency whose predicted time fits the budget."""
        hp = self.hostprof
        if hp.enabled:
            t0 = hp.clock()
        prediction = outcome.prediction
        opp = self.dvfs.choose_opp(
            prediction.t_fmin_s, prediction.t_fmax_s, effective_budget_s
        )
        components = self.dvfs.components(
            prediction.t_fmin_s, prediction.t_fmax_s
        )
        decision = Decision(opp, predicted_time_s=components.time_at(opp.freq_hz))
        if hp.enabled:
            hp.add("ladder", hp.clock() - t0)
        return decision

    def bind_telemetry(self, telemetry) -> None:
        super().bind_telemetry(telemetry)
        cert = self.certificate
        if cert is None or not telemetry.enabled:
            return
        metrics = telemetry.metrics
        for diagnostic in cert.diagnostics:
            metrics.counter(
                f"certifier.diagnostics[{diagnostic.severity}]"
            ).inc()
        metrics.gauge("certifier.certified").set(float(cert.certified))
        metrics.gauge("certifier.cost_bound_tight").set(
            float(cert.cost_bound_tight)
        )
        metrics.gauge("certifier.cost_bound_instructions").set(
            cert.cost_bound_instructions
        )

    def preflight(
        self,
        ctx: JobContext,
        bound_work: Work | None,
        auditor: Governor | None = None,
    ) -> Decision | None:
        """Pin fmax without slicing when the certified worst case cannot fit.

        If paying the slice's bound plus a switch cannot fit the
        remaining budget, the slice is pure overhead on an already-doomed
        job; the certificate makes this call possible *before* spending
        the slice time.  Returns None when the slice should run.
        ``auditor`` is the governor the audit record is filed under (a
        composing governor passes itself).
        """
        if bound_work is None or not ctx.charge_overheads:
            return None
        board = ctx.board
        bound_time = board.cpu.execution_time(bound_work, board.current_opp)
        headroom = (
            ctx.deadline_s - board.now - bound_time - self.switch_estimate_s(ctx)
        )
        if headroom > 0:
            return None
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("predict.bound_skips").inc()
        decision = Decision(self.dvfs.opps.fmax)
        (auditor or self).audit_decision(
            ctx,
            decision,
            effective_budget_s=headroom,
            margin=self.predictor.margin,
            mode="bound-skip",
        )
        return decision

    def charge_slice(
        self, ctx: JobContext, outcome: SliceOutcome, **span_args
    ) -> float:
        """Sequential placement: run the slice's cost on the timeline
        before the job; returns the slice time (0 when uncharged)."""
        if not ctx.charge_overheads:
            return 0.0
        board = ctx.board
        slice_from = board.now
        slice_time = board.cpu.execution_time(
            outcome.slice_work, board.current_opp
        )
        board.busy_run(slice_time, tag="predictor")
        if self.telemetry.enabled:
            self.telemetry.span(
                "predict.slice",
                slice_from,
                board.now,
                category="predictor",
                args={"job": ctx.index, **span_args},
            )
        return slice_time

    def budget_and_choose(
        self,
        ctx: JobContext,
        outcome: SliceOutcome,
        *,
        slice_time: float = 0.0,
        bound_work: Work | None = None,
        mode: str = "",
        auditor: Governor | None = None,
    ) -> Decision:
        """Effective budget -> frequency -> provenance and audit record.

        The effective budget is the time to the deadline minus the p95
        switch estimate (Fig. 10).  With ``bound_work`` (a tight slice
        certificate), the unspent remainder of the certified bound stays
        reserved too: a lucky fast slice run must not unlock headroom
        the static analysis does not guarantee.  Uncharged runs (the
        Fig. 18 limit study) decide against the bare time to deadline.
        Every placement and every predictive governor decides here; the
        caller has already charged the slice wherever its placement puts
        it.  An outcome without raw features (a batch extrapolation, not
        a model output) is audited without a provenance payload.
        """
        board = ctx.board
        telemetry = self.telemetry
        if ctx.charge_overheads:
            switch_estimate = self.switch_estimate_s(ctx)
            budget = ctx.deadline_s - board.now - switch_estimate
            if bound_work is not None:
                bound_time = board.cpu.execution_time(
                    bound_work, board.current_opp
                )
                budget -= max(0.0, bound_time - slice_time)
                if slice_time > bound_time and telemetry.enabled:
                    telemetry.metrics.counter("certifier.bound_exceeded").inc()
        else:
            budget = ctx.deadline_s - board.now
            switch_estimate = (
                self.switch_estimate_s(ctx) if telemetry.enabled else float("nan")
            )
        decision = self.choose(outcome, budget)
        attribution, ladder, generation = None, (), -1
        if telemetry.enabled and outcome.raw is not None:
            attribution, ladder, generation = build_provenance(
                predictor=self.predictor,
                dvfs=self.dvfs,
                raw_features=outcome.raw,
                prediction=outcome.prediction,
                margin=self.predictor.margin,
                effective_budget_s=budget,
                switch_estimate_s=switch_estimate,
                opp=decision.opp,
                budget_s=ctx.budget_s,
                deadline_s=ctx.deadline_s,
            )
        (auditor or self).audit_decision(
            ctx,
            decision,
            effective_budget_s=budget,
            margin=self.predictor.margin,
            mode=mode,
            features=outcome.features,
            attribution=attribution,
            ladder=ladder,
            beta_generation=generation,
        )
        return decision

    def decide(self, ctx: JobContext) -> Decision | None:
        """Sequential placement: slice, charge its time, then choose."""
        bound_work = self.slice_bound_work()
        skipped = self.preflight(ctx, bound_work)
        if skipped is not None:
            return skipped
        outcome = self.analyze(ctx)
        slice_time = self.charge_slice(ctx, outcome)
        certified = bound_work is not None and ctx.charge_overheads
        return self.budget_and_choose(
            ctx,
            outcome,
            slice_time=slice_time,
            bound_work=bound_work,
            mode="certified" if certified else "",
        )
