"""Online adaptation: keep the deployed predictive governor honest.

The offline pipeline (paper Fig. 13) trains once; this package closes
the loop at run time — streaming residual statistics, drift detection,
and incremental recalibration of the execution-time model.  The
:class:`~repro.governors.adaptive.AdaptiveGovernor` composes these
pieces over the frozen predictive governor.
"""

from repro.online.drift import (
    CusumDetector,
    DriftDetector,
    PageHinkleyDetector,
    detector_from_state,
)
from repro.online.inject import StepDriftJitter, scale_inputs
from repro.online.predictor import OnlineTimePredictor
from repro.online.recalibrate import OnlineAnchorModel, RecursiveLeastSquares
from repro.online.residuals import (
    Ewma,
    P2Quantile,
    ResidualMonitor,
    ResidualSnapshot,
)

__all__ = [
    "CusumDetector",
    "DriftDetector",
    "PageHinkleyDetector",
    "detector_from_state",
    "StepDriftJitter",
    "scale_inputs",
    "OnlineTimePredictor",
    "OnlineAnchorModel",
    "RecursiveLeastSquares",
    "Ewma",
    "P2Quantile",
    "ResidualMonitor",
    "ResidualSnapshot",
]
