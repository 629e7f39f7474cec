"""The optimizer driver: pass scheduling + translation validation.

:func:`optimize_program` runs the passes in order (normalize, fold,
dce, cse, licm, then a normalize cleanup to flatten the wrappers the
later passes introduce), repeating the whole sequence until a round
changes nothing (at most :data:`MAX_ROUNDS` times).  After every pass
that reports rewrites, the translation validator re-checks the
candidate; a failing candidate is *discarded* — the driver keeps the
predecessor program and records the failure as an error diagnostic —
so optimize_program never returns a program that failed validation.
"""

from __future__ import annotations

from repro.programs.ir import Program
from repro.programs.opt.certificate import (
    OptimizationResult,
    RewriteCertificate,
    program_digest,
)
from repro.programs.opt.cse import cse
from repro.programs.opt.dce import dce
from repro.programs.opt.fold import fold
from repro.programs.opt.licm import licm
from repro.programs.opt.normalize import normalize
from repro.programs.opt.rewrite import (
    FreshNames,
    OptContext,
    program_names,
    sound_cost_bound,
)
from repro.programs.opt.verify import rewrite_diagnostics, validate_rewrite
from repro.programs.validate import free_variables

__all__ = ["MAX_ROUNDS", "optimize_program", "PASS_FUNCTIONS"]

#: Upper bound on full pass-sequence repetitions.
MAX_ROUNDS = 4

#: Pass registry, in execution order.  Module-level on purpose: tests
#: monkeypatch entries to prove the validator rejects a broken pass.
PASS_FUNCTIONS: list[tuple[str, object]] = [
    ("normalize", normalize),
    ("fold", fold),
    ("dce", dce),
    ("cse", cse),
    ("licm", licm),
    ("cleanup", normalize),
]


def optimize_program(
    program: Program,
    *,
    input_names=None,
    input_ranges=None,
) -> OptimizationResult:
    """Optimize ``program``; every kept rewrite is validator-approved.

    Args:
        program: The program to optimize (never mutated).
        input_names: Declared input variables.  Defaults to the
            program's free variables — names bound by the runtime.
        input_ranges: Optional ``{name: (lo, hi)}`` ranges, used only
            for cost-bound *comparison*: a rewrite decision never
            assumes them, so every kept rewrite holds for all inputs.
    """
    from repro.programs.opt.rewrite import node_count

    if input_names is None:
        input_names = free_variables(program)
    ctx = OptContext(
        input_names=frozenset(input_names),
        input_ranges=dict(input_ranges) if input_ranges else None,
        fresh=FreshNames(program_names(program)),
    )

    current = program
    certificates: list[RewriteCertificate] = []
    diagnostics = []
    for _ in range(MAX_ROUNDS):
        round_changed = False
        for pass_name, pass_fn in PASS_FUNCTIONS:
            candidate, steps = pass_fn(current, ctx)
            if not steps:
                continue
            checks = validate_rewrite(current, candidate, ctx, pass_name)
            accepted = all(check.ok for check in checks)
            cost_before = sound_cost_bound(current, ctx.input_ranges)
            cost_after = sound_cost_bound(candidate, ctx.input_ranges)
            certificates.append(
                RewriteCertificate(
                    pass_name=pass_name,
                    program=program.name,
                    before_digest=program_digest(current),
                    after_digest=program_digest(candidate),
                    accepted=accepted,
                    rewrites=tuple(steps),
                    checks=tuple(checks),
                    cost_before=(
                        cost_before.instructions,
                        cost_before.mem_refs,
                    ),
                    cost_after=(cost_after.instructions, cost_after.mem_refs),
                )
            )
            if accepted:
                current = candidate
                round_changed = True
            else:
                diagnostics.extend(
                    rewrite_diagnostics(pass_name, program, checks)
                )
        if not round_changed:
            break
    return OptimizationResult(
        original=program,
        program=current,
        certificates=tuple(certificates),
        diagnostics=tuple(diagnostics),
        nodes_before=node_count(program),
        nodes_after=node_count(current),
    )
