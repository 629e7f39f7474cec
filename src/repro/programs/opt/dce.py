"""Dead-code elimination: liveness- and effects-guided removal.

Removal in this IR never means deleting *cost* — the simulated cycle
model charges per node executed, so a dead statement is replaced by a
``Block`` carrying exactly the cost the interpreter would have added
(or by an empty ``Seq`` when the cost is zero).  What DCE removes is
the host-side work: the expression evaluation and the environment
write.  That is precisely the work the profiler showed dominating the
interpreted hot path.

Rules (iterated to a fixpoint, since removing one dead store can make
an earlier one dead):

- an ``Assign`` whose target is not live afterwards becomes a ``Block``
  of its cost — sound even for globals, because liveness seeds the exit
  with all task globals, so a non-live global is provably overwritten
  on every path before it could be observed;
- an uncounted ``Hint`` becomes a ``Block`` of its cost — the
  interpreter never evaluates an uncounted hint's expression, so no
  guard is needed;
- an uncounted ``If`` whose branches are both empty becomes a ``Block``
  of the branch cost;
- an uncounted ``IndirectCall`` whose callees are all empty becomes a
  ``Block`` of the dispatch cost — additionally requiring a finite
  interval for the target, because the interpreter's ``int()`` address
  clamp faults on non-finite values.

Counted nodes are never removed (their feature observations are part of
program behaviour), and every rewrite that deletes an expression
evaluation is guarded by must-defined + :func:`eval_cannot_raise`.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.programs.analysis.intervals import eval_interval
from repro.programs.analysis.reaching import live_variables, must_defined
from repro.programs.ir import (
    BRANCH_COST,
    CALL_DISPATCH_COST,
    Assign,
    Block,
    Hint,
    If,
    IndirectCall,
    Loop,
    Program,
    Seq,
    Stmt,
    While,
)
from repro.programs.opt.rewrite import (
    OptContext,
    RewriteStep,
    eval_cannot_raise,
    is_empty,
    opt_interval_engine,
)

__all__ = ["dce"]

_MAX_ROUNDS = 8


def dce(program: Program, ctx: OptContext) -> tuple[Program, list[RewriteStep]]:
    """Iterate DCE rounds to a fixpoint (each round re-analyzes)."""
    steps: list[RewriteStep] = []
    current = program
    for _ in range(_MAX_ROUNDS):
        current, round_steps = _dce_round(current, ctx)
        if not round_steps:
            break
        steps.extend(round_steps)
    return current, steps


def _dce_round(
    program: Program, ctx: OptContext
) -> tuple[Program, list[RewriteStep]]:
    liveness = live_variables(program)
    defined = must_defined(program, ctx.input_names)
    intervals = opt_interval_engine(program)
    steps: list[RewriteStep] = []

    def cost_block(cost: float, label: str) -> Stmt:
        if cost == 0.0:
            return Seq(())
        return Block(cost, name=label)

    def removable_eval(expr, node: Stmt) -> bool:
        mdef = defined.state_at(node)
        return (
            mdef is not None
            and expr.variables() <= mdef
            and eval_cannot_raise(expr)
        )

    def rebuild(stmt: Stmt) -> Stmt:
        if defined.state_at(stmt) is None:
            # Unreachable for the analyses (an elided loop body).
            return stmt
        if isinstance(stmt, Assign):
            live_after = liveness.live_after(stmt)
            if (
                live_after is not None
                and stmt.target not in live_after
                and removable_eval(stmt.expr, stmt)
            ):
                steps.append(
                    RewriteStep(
                        "dead-store",
                        site=stmt.target,
                        detail="target never read afterwards; cost kept",
                    )
                )
                return cost_block(stmt.cost, f"dce:{stmt.target}")
            return stmt
        if isinstance(stmt, Hint):
            if not stmt.counted:
                steps.append(
                    RewriteStep(
                        "dead-hint",
                        site=stmt.site,
                        detail="uncounted hint records nothing; cost kept",
                    )
                )
                return cost_block(stmt.cost, f"dce:{stmt.site}")
            return stmt
        if isinstance(stmt, Seq):
            children = [rebuild(child) for child in stmt.stmts]
            if all(a is b for a, b in zip(children, stmt.stmts)):
                return stmt
            return Seq(children)
        if isinstance(stmt, If):
            then = rebuild(stmt.then)
            orelse = (
                rebuild(stmt.orelse) if stmt.orelse is not None else None
            )
            if (
                not stmt.counted
                and is_empty(then)
                and is_empty(orelse)
                and removable_eval(stmt.cond, stmt)
            ):
                steps.append(
                    RewriteStep(
                        "dead-branch",
                        site=stmt.site,
                        detail="both arms empty; branch cost kept",
                    )
                )
                return Block(BRANCH_COST, name=f"dce:{stmt.site}")
            if then is stmt.then and orelse is stmt.orelse:
                return stmt
            return replace(stmt, then=then, orelse=orelse)
        if isinstance(stmt, Loop):
            body = rebuild(stmt.body)
            return stmt if body is stmt.body else replace(stmt, body=body)
        if isinstance(stmt, While):
            body = rebuild(stmt.body)
            return stmt if body is stmt.body else replace(stmt, body=body)
        if isinstance(stmt, IndirectCall):
            table = {
                address: rebuild(callee)
                for address, callee in stmt.table.items()
            }
            default = (
                rebuild(stmt.default) if stmt.default is not None else None
            )
            if (
                not stmt.counted
                and all(is_empty(callee) for callee in table.values())
                and is_empty(default)
                and removable_eval(stmt.target, stmt)
            ):
                env = intervals.state_at(stmt)
                span = (
                    eval_interval(stmt.target, env)
                    if env is not None
                    else None
                )
                if (
                    span is not None
                    and math.isfinite(span.lo)
                    and math.isfinite(span.hi)
                ):
                    steps.append(
                        RewriteStep(
                            "dead-call",
                            site=stmt.site,
                            detail="all callees empty; dispatch cost kept",
                        )
                    )
                    return Block(
                        CALL_DISPATCH_COST, name=f"dce:{stmt.site}"
                    )
            if default is stmt.default and all(
                table[a] is stmt.table[a] for a in table
            ):
                return stmt
            return replace(stmt, table=table, default=default)
        return stmt  # Block

    new_body = rebuild(program.body)
    if not steps:
        return program, []
    return replace(program, body=new_body), steps
