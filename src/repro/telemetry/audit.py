"""The governor decision audit log.

Every frequency decision the control loop takes is worth being able to
replay: what the predictor saw (features), what it believed (predicted
time, margin), what it had to work with (effective budget), and what it
chose (the OPP).  :class:`DecisionRecord` is the schema; the log itself
is the ordered list a :class:`~repro.telemetry.events.Telemetry`
accumulates, one entry per job.

Instrumented governors (prediction, adaptive) report rich records via
the :meth:`~repro.governors.base.Governor.audit_decision` hook; for
everything else the executor appends a bare record so the log covers
*every* decision, not just the predictive ones.

Schema version 2 adds full decision *provenance* so a record is
self-explanatory and offline-replayable (see
``repro.telemetry.provenance`` and ``docs/decision_provenance.md``):

- :class:`DecisionAttribution` — the model-space feature vector, the
  active anchor-model coefficients (:class:`AnchorSnapshot`), and
  per-feature contributions that sum exactly to the predicted time;
- :class:`LadderRung` — the per-OPP accept/reject verdicts the
  frequency selection walked over;
- ``beta_generation`` — how many online-recalibration updates the
  anchor models had absorbed when the decision was taken.

Parsing is forward/backward tolerant: :func:`DecisionRecord.from_dict`
accepts version-1 records (provenance fields default to empty), ignores
unknown keys, and :func:`read_decisions_jsonl` reports — rather than
raises on — malformed lines and newer-than-known schema versions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "SCHEMA_VERSION",
    "AnchorSnapshot",
    "DecisionAttribution",
    "LadderRung",
    "DecisionRecord",
    "read_decisions_jsonl",
]

#: Current on-disk schema of :meth:`DecisionRecord.as_dict`.  Version 1
#: (PR 2) had no ``version`` key; version 2 added the provenance fields.
SCHEMA_VERSION = 2


def _clean(value: float | None) -> float | None:
    """NaN -> None for JSON friendliness (None round-trips to NaN)."""
    if value is None:
        return None
    return None if math.isnan(value) else value


def _nan(value: Any, default: float = float("nan")) -> float:
    return default if value is None else float(value)


@dataclass(frozen=True)
class AnchorSnapshot:
    """The exact coefficients one anchor model used for one prediction.

    Three kinds, matching the three live prediction code paths (the
    split matters because replay must reproduce the *same floating
    point expression*, not just the same algebra):

    - ``"offline"`` — a trained asymmetric-Lasso anchor
      (:class:`~repro.models.asymmetric.AsymmetricLassoModel`):
      ``coef`` and ``intercept`` are in model space.
    - ``"online-pre"`` — an :class:`~repro.online.recalibrate.OnlineAnchorModel`
      that has not absorbed an update yet: same payload, but the live
      path evaluates a 1-D dot product rather than a (1, n) matmul.
    - ``"online"`` — RLS-recalibrated: ``coef`` is the design-space
      ``theta`` (feature weights then intercept), ``scales`` the frozen
      per-feature normalization.
    """

    kind: str
    coef: tuple[float, ...]
    intercept: float = 0.0
    scales: tuple[float, ...] | None = None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "coef": list(self.coef),
            "intercept": self.intercept,
            "scales": None if self.scales is None else list(self.scales),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AnchorSnapshot":
        scales = payload.get("scales")
        return cls(
            kind=str(payload.get("kind", "offline")),
            coef=tuple(float(c) for c in payload.get("coef", ())),
            intercept=float(payload.get("intercept", 0.0)),
            scales=None if scales is None else tuple(float(s) for s in scales),
        )


@dataclass(frozen=True)
class LadderRung:
    """One OPP's verdict in the frequency-selection walk.

    Attributes:
        freq_mhz: The rung's frequency.
        predicted_time_s: Margined predicted execution time at this
            frequency under the fitted DVFS model.
        margin_s: Slack against the effective budget
            (``effective_budget_s - predicted_time_s``); negative means
            the rung would miss.
        fits: Whether the selection rule accepts this rung (frequency at
            or above the ideal frequency for the budget).
        chosen: Whether this rung is the one the governor picked.
    """

    freq_mhz: float
    predicted_time_s: float
    margin_s: float
    fits: bool
    chosen: bool

    def as_dict(self) -> dict:
        return {
            "freq_mhz": self.freq_mhz,
            "predicted_time_s": self.predicted_time_s,
            "margin_s": _clean(self.margin_s),
            "fits": self.fits,
            "chosen": self.chosen,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LadderRung":
        return cls(
            freq_mhz=float(payload.get("freq_mhz", 0.0)),
            predicted_time_s=float(payload.get("predicted_time_s", 0.0)),
            margin_s=_nan(payload.get("margin_s")),
            fits=bool(payload.get("fits", False)),
            chosen=bool(payload.get("chosen", False)),
        )


@dataclass(frozen=True)
class DecisionAttribution:
    """Why the prediction came out the way it did.

    ``contributions_s[i]`` is feature ``columns[i]``'s share of the
    margined predicted time at the chosen frequency; the identity

    ``predicted_time_s == sum(contributions_s) + intercept_s + adjustment_s``

    holds *exactly* (``adjustment_s`` absorbs the DVFS-model clamp
    branches and accumulated float rounding, and is tiny whenever no
    clamp fired).

    Attributes:
        columns: Model-space feature labels (post one-hot encoding and
            polynomial expansion) — ``a*b`` marks an interaction term.
        x: The model-space feature vector the anchors consumed.
        contributions_s: Per-feature share of the predicted time.
        intercept_s: The anchors' intercept share of the predicted time.
        adjustment_s: Exact remainder (clamps + rounding).
        tmem_s: Fitted memory-bound term of ``t(f) = T_mem + N_dep/f``.
        ndep_cycles: Fitted frequency-dependent cycle count.
        t_fmax_raw_s: Raw (unmargined, unclamped) f_max anchor output.
        t_fmin_raw_s: Raw f_min anchor output.
        anchor_fmax: Coefficients behind ``t_fmax_raw_s``.
        anchor_fmin: Coefficients behind ``t_fmin_raw_s``.
        switch_estimate_s: Conservative DVFS-transition estimate charged
            against the budget.
        budget_s: The job's full deadline budget.
        deadline_s: Absolute deadline on the simulated clock.
    """

    columns: tuple[str, ...]
    x: tuple[float, ...]
    contributions_s: tuple[float, ...]
    intercept_s: float
    adjustment_s: float
    tmem_s: float
    ndep_cycles: float
    t_fmax_raw_s: float
    t_fmin_raw_s: float
    anchor_fmax: AnchorSnapshot
    anchor_fmin: AnchorSnapshot
    switch_estimate_s: float = float("nan")
    budget_s: float = float("nan")
    deadline_s: float = float("nan")

    def as_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "x": list(self.x),
            "contributions_s": list(self.contributions_s),
            "intercept_s": self.intercept_s,
            "adjustment_s": self.adjustment_s,
            "tmem_s": self.tmem_s,
            "ndep_cycles": self.ndep_cycles,
            "t_fmax_raw_s": self.t_fmax_raw_s,
            "t_fmin_raw_s": self.t_fmin_raw_s,
            "anchor_fmax": self.anchor_fmax.as_dict(),
            "anchor_fmin": self.anchor_fmin.as_dict(),
            "switch_estimate_s": _clean(self.switch_estimate_s),
            "budget_s": _clean(self.budget_s),
            "deadline_s": _clean(self.deadline_s),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DecisionAttribution":
        return cls(
            columns=tuple(str(c) for c in payload.get("columns", ())),
            x=tuple(float(v) for v in payload.get("x", ())),
            contributions_s=tuple(
                float(v) for v in payload.get("contributions_s", ())
            ),
            intercept_s=float(payload.get("intercept_s", 0.0)),
            adjustment_s=float(payload.get("adjustment_s", 0.0)),
            tmem_s=float(payload.get("tmem_s", 0.0)),
            ndep_cycles=float(payload.get("ndep_cycles", 0.0)),
            t_fmax_raw_s=float(payload.get("t_fmax_raw_s", 0.0)),
            t_fmin_raw_s=float(payload.get("t_fmin_raw_s", 0.0)),
            anchor_fmax=AnchorSnapshot.from_dict(
                payload.get("anchor_fmax", {})
            ),
            anchor_fmin=AnchorSnapshot.from_dict(
                payload.get("anchor_fmin", {})
            ),
            switch_estimate_s=_nan(payload.get("switch_estimate_s")),
            budget_s=_nan(payload.get("budget_s")),
            deadline_s=_nan(payload.get("deadline_s")),
        )


@dataclass(frozen=True)
class DecisionRecord:
    """One governor decision with the inputs that produced it.

    Attributes:
        job_index: Which job the decision was for.
        t_s: Simulated time the decision was taken at.
        governor: Name of the deciding governor.
        opp_mhz: Chosen frequency in MHz; None when the governor had no
            opinion (utilization-driven policies between timer fires).
        predicted_time_s: Predicted execution time at the chosen level
            (NaN for non-predictive policies).
        effective_budget_s: Budget after slice time and the conservative
            switch estimate were subtracted (NaN when not applicable).
        margin: Safety margin in force when the prediction was made.
        mode: Decision path for mode machines (``predict``/``fallback``);
            empty for single-mode governors.
        features: Slice feature counters the prediction consumed
            (site label -> value); empty for non-predictive policies.
        beta_generation: Online-recalibration update count of the anchor
            models at decision time (0 = offline coefficients; -1 = not
            a model-driven decision).
        energy_j: Cumulative board energy at decision time (joules), so
            an audit log doubles as an energy trajectory — deltas
            between consecutive records bound each job's spend.  NaN on
            records from before this field existed.
        attribution: Full provenance payload, or None for bare records.
        ladder: Per-OPP accept/reject verdicts, empty for bare records.
    """

    job_index: int
    t_s: float
    governor: str
    opp_mhz: float | None
    predicted_time_s: float = float("nan")
    effective_budget_s: float = float("nan")
    margin: float = float("nan")
    mode: str = ""
    features: Mapping[str, float] = field(default_factory=dict)
    beta_generation: int = -1
    energy_j: float = float("nan")
    attribution: DecisionAttribution | None = None
    ladder: tuple[LadderRung, ...] = ()

    def summary_dict(self) -> dict:
        """JSON-safe scalar summary (no attribution/ladder payloads).

        This is what gets mirrored onto the trace as an instant event —
        compact enough to embed per job without bloating the Chrome
        trace.  The full record, provenance included, goes to the
        ``*.decisions.jsonl`` audit log via :meth:`as_dict`.
        """
        # ``x != x`` is _clean's NaN test, inlined: this runs per job.
        predicted = self.predicted_time_s
        budget = self.effective_budget_s
        margin = self.margin
        energy = self.energy_j
        return {
            "version": SCHEMA_VERSION,
            "job_index": self.job_index,
            "t_s": self.t_s,
            "governor": self.governor,
            "opp_mhz": self.opp_mhz,
            "predicted_time_s": None if predicted != predicted else predicted,
            "effective_budget_s": None if budget != budget else budget,
            "margin": None if margin != margin else margin,
            "mode": self.mode,
            "features": dict(self.features),
            "beta_generation": self.beta_generation,
            "energy_j": None if energy != energy else energy,
            "attributed": self.attribution is not None,
        }

    def as_dict(self) -> dict:
        """JSON-safe dict (NaN becomes None, features copied)."""
        payload = self.summary_dict()
        del payload["attributed"]
        payload["attribution"] = (
            None if self.attribution is None else self.attribution.as_dict()
        )
        payload["ladder"] = [rung.as_dict() for rung in self.ladder]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DecisionRecord":
        """Parse a record dict from any known schema version.

        Version-1 records (no ``version`` key) load with provenance
        fields at their defaults; unknown keys are ignored so records
        written by a *newer* minor revision still parse.
        """
        opp_mhz = payload.get("opp_mhz")
        attribution = payload.get("attribution")
        return cls(
            job_index=int(payload.get("job_index", -1)),
            t_s=float(payload.get("t_s", 0.0)),
            governor=str(payload.get("governor", "")),
            opp_mhz=None if opp_mhz is None else float(opp_mhz),
            predicted_time_s=_nan(payload.get("predicted_time_s")),
            effective_budget_s=_nan(payload.get("effective_budget_s")),
            margin=_nan(payload.get("margin")),
            mode=str(payload.get("mode", "")),
            features={
                str(k): float(v)
                for k, v in dict(payload.get("features", {})).items()
            },
            beta_generation=int(payload.get("beta_generation", -1)),
            energy_j=_nan(payload.get("energy_j")),
            attribution=(
                None
                if attribution is None
                else DecisionAttribution.from_dict(attribution)
            ),
            ladder=tuple(
                LadderRung.from_dict(rung)
                for rung in payload.get("ladder", ())
            ),
        )


def read_decisions_jsonl(
    path: str | Path,
) -> tuple[list[DecisionRecord], list[str]]:
    """Load a ``*.decisions.jsonl`` audit log, tolerantly.

    Returns ``(records, warnings)``.  Missing file, malformed lines and
    unknown future schema versions become warnings, never exceptions —
    report tooling must degrade gracefully on old or partial traces.
    """
    path = Path(path)
    records: list[DecisionRecord] = []
    warnings: list[str] = []
    if not path.exists():
        warnings.append(f"no audit log at {path.name} (older trace?)")
        return records, warnings
    newer = 0
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            version = int(payload.get("version", 1))
            if version > SCHEMA_VERSION:
                newer += 1
            records.append(DecisionRecord.from_dict(payload))
        except (ValueError, TypeError, AttributeError) as error:
            warnings.append(
                f"{path.name}:{lineno}: unreadable record ({error})"
            )
    if newer:
        warnings.append(
            f"{path.name}: {newer} record(s) use a schema newer than "
            f"v{SCHEMA_VERSION}; unknown fields were ignored"
        )
    return records, warnings
