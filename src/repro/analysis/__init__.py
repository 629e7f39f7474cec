"""Analysis: the experiment workbench, renderers, and figure modules."""

from repro.analysis.harness import GOVERNOR_NAMES, Lab, default_n_jobs
from repro.analysis.render import format_bar, format_heatmap, format_table
from repro.analysis.stats import geometric_mean, normalize_to
from repro.telemetry.metrics import percentile

__all__ = [
    "GOVERNOR_NAMES",
    "Lab",
    "default_n_jobs",
    "format_bar",
    "format_heatmap",
    "format_table",
    "geometric_mean",
    "normalize_to",
    "percentile",
]
