"""Analysis-guided IR optimizer with translation validation.

``optimize_program`` rewrites a task/slice program into an equivalent
one that is cheaper for the *host* interpreter to execute — fewer node
dispatches and fewer expression evaluations — while leaving everything
the simulation observes bit-identical: final globals, feature records,
and the instruction/memory cycle accumulators.  Each pass logs its
rewrites into a :class:`RewriteCertificate`, and a translation
validator re-checks every candidate against the program it replaced;
rewrites that fail any check are discarded, never applied.

Passes: normalization, constant folding + sparse constant propagation,
dead-code elimination, common-subexpression elimination, and
loop-invariant code motion — all built on the PR 3 dataflow engine
(:mod:`repro.programs.analysis`).
"""

from repro.programs.opt.certificate import (
    OptimizationResult,
    RewriteCertificate,
    program_digest,
)
from repro.programs.opt.cse import cse
from repro.programs.opt.dce import dce
from repro.programs.opt.driver import (
    MAX_ROUNDS,
    PASS_FUNCTIONS,
    optimize_program,
)
from repro.programs.opt.fold import fold
from repro.programs.opt.licm import licm
from repro.programs.opt.normalize import normalize
from repro.programs.opt.rewrite import (
    EXACT_SUM_LIMIT,
    OPT_TEMP_PREFIX,
    Exactness,
    FreshNames,
    OptContext,
    RewriteStep,
    exactness,
    node_count,
    opt_interval_engine,
    sound_cost_bound,
)
from repro.programs.opt.verify import (
    CheckResult,
    counted_signature,
    rewrite_diagnostics,
    validate_rewrite,
)

__all__ = [
    "EXACT_SUM_LIMIT",
    "MAX_ROUNDS",
    "OPT_TEMP_PREFIX",
    "CheckResult",
    "Exactness",
    "FreshNames",
    "OptContext",
    "OptimizationResult",
    "PASS_FUNCTIONS",
    "RewriteCertificate",
    "RewriteStep",
    "counted_signature",
    "cse",
    "dce",
    "exactness",
    "fold",
    "licm",
    "node_count",
    "normalize",
    "opt_interval_engine",
    "optimize_program",
    "program_digest",
    "rewrite_diagnostics",
    "sound_cost_bound",
    "validate_rewrite",
]
