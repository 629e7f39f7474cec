"""Constant folding, sparse constant propagation, and control folding.

Three cooperating rewrite families, iterated to a fixpoint:

- **Closed-expression folding** — a subexpression with no variables
  evaluates now, through the language's own operator tables, to the
  exact value the interpreter would produce (including the div-by-zero
  → 0 convention and int/float typing).
- **Sparse constant propagation** — a variable read whose reaching
  definitions (PR 3's may-analysis) are all ``Assign``s of one constant
  value substitutes that constant.  Values come from actual ``Const``
  nodes, so they are exact, type and all.  Globals the program never
  writes keep their ``globals_init`` value across every job and
  propagate the same way.
- **Control folding** — branch/loop/call decisions proved constant by
  the interval analysis fold away.  Decisions are *typing-insensitive*
  (truthiness, ``int()`` coercion), so an interval verdict suffices
  where expression substitution would not: an interval point ``5.0``
  cannot distinguish runtime ``5`` from ``5.0``, but both take the same
  branch.  Counted nodes are never folded — their feature observations
  are part of the program's meaning.

Every rewrite that *removes* an expression evaluation is guarded by the
must-defined analysis: ``Var.evaluate`` raises ``KeyError`` on unbound
names, and "crashes exactly when the original crashes" is part of
bit-identical behaviour.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.programs.analysis.dataflow import DataflowEngine
from repro.programs.analysis.hazards import assigned_names
from repro.programs.analysis.intervals import eval_interval
from repro.programs.analysis.reaching import (
    GLOBAL_DEF,
    INPUT_DEF,
    LOOP_VAR_DEF,
    ReachingDefinitions,
    must_defined,
)
from repro.programs.expr import (
    BinOp,
    BoolOp,
    Compare,
    Const,
    Expr,
    IfExpr,
    UnaryOp,
    Var,
)
from repro.programs.ir import (
    BRANCH_COST,
    CALL_DISPATCH_COST,
    LOOP_ITER_COST,
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
    opt_interval_engine,
)

__all__ = ["fold"]

_MAX_ROUNDS = 6
_MISSING = object()


def fold(
    program: Program, ctx: OptContext
) -> tuple[Program, list[RewriteStep]]:
    """Iterate fold rounds to a fixpoint (each round re-analyzes)."""
    steps: list[RewriteStep] = []
    current = program
    for _ in range(_MAX_ROUNDS):
        current, round_steps = _fold_round(current, ctx)
        if not round_steps:
            break
        steps.extend(round_steps)
    return current, steps


def _fold_round(
    program: Program, ctx: OptContext
) -> tuple[Program, list[RewriteStep]]:
    intervals = opt_interval_engine(program)
    defined = must_defined(program, ctx.input_names)
    reach_pass = ReachingDefinitions(program.body)
    reach = DataflowEngine(reach_pass)
    reach.run(program.body, reach_pass.boundary(program, ctx.input_names))

    written = assigned_names(program)
    global_consts = {
        name: value
        for name, value in program.globals_init.items()
        if name not in written and isinstance(value, (bool, int, float))
    }
    const_defs: dict[str, object] = {}
    for node in _walk(program.body):
        if isinstance(node, Assign) and isinstance(node.expr, Const):
            token = f"{node.target}@{reach_pass.label(node)}"
            const_defs[token] = node.expr.value

    steps: list[RewriteStep] = []

    def const_of(name: str, rstate) -> object:
        """The single constant value every reaching def assigns, else
        ``_MISSING``.  Values are exact runtime values (from Const
        nodes / never-written globals), so substitution is bit-exact."""
        if rstate is None:
            return _MISSING
        defs = dict(rstate).get(name)
        if not defs:
            return _MISSING
        value = _MISSING
        for token in defs:
            if token == GLOBAL_DEF:
                candidate = global_consts.get(name, _MISSING)
            elif token in (INPUT_DEF, LOOP_VAR_DEF):
                candidate = _MISSING
            else:
                candidate = const_defs.get(token, _MISSING)
            if candidate is _MISSING:
                return _MISSING
            if value is _MISSING:
                value = candidate
            elif not (
                type(candidate) is type(value) and candidate == value
            ):
                return _MISSING
        return value

    def fold_expr(expr: Expr, mdef, rstate) -> Expr:
        if isinstance(expr, Const):
            return expr
        if isinstance(expr, Var):
            # Substituting an equal value does not remove the read's
            # KeyError, it removes the read itself — guard it.
            if mdef is None or expr.name not in mdef:
                return expr
            value = const_of(expr.name, rstate)
            if value is not _MISSING:
                steps.append(
                    RewriteStep(
                        "const-prop",
                        site=expr.name,
                        detail=f"all reaching defs assign {value!r}",
                    )
                )
                return Const(value)
            return expr
        rebuilt = _rebuild_expr(expr, lambda e: fold_expr(e, mdef, rstate))
        if rebuilt.variables():
            return rebuilt
        try:
            value = rebuilt.evaluate({})
        except (OverflowError, ValueError, ZeroDivisionError):
            # The interpreter would raise the same way; keep the node.
            return rebuilt
        if not isinstance(value, (bool, int, float)):
            return rebuilt
        steps.append(
            RewriteStep("const-fold", detail=f"closed expr -> {value!r}")
        )
        return Const(value)

    def fold_slot(expr: Expr, node: Stmt) -> Expr:
        return fold_expr(
            expr, defined.state_at(node), reach.state_at(node)
        )

    def decide(expr: Expr, node: Stmt) -> bool | None:
        """Constant truth verdict for a control decision, or None.

        A Const decides outright.  Otherwise the interval verdict
        decides, but only if the expression's reads are must-defined:
        folding the control node away deletes the evaluation."""
        if isinstance(expr, Const):
            return bool(expr.value)
        env = intervals.state_at(node)
        mdef = defined.state_at(node)
        if env is None or mdef is None:
            return None
        if not expr.variables() <= mdef or not eval_cannot_raise(expr):
            return None
        verdict = eval_interval(expr, env)
        if verdict.definitely_true:
            return True
        if verdict.definitely_false:
            return False
        return None

    def point(expr: Expr, node: Stmt) -> float | None:
        """Exact numeric verdict for a control decision, or None."""
        if isinstance(expr, Const):
            return float(expr.value)
        env = intervals.state_at(node)
        mdef = defined.state_at(node)
        if env is None or mdef is None:
            return None
        if not expr.variables() <= mdef or not eval_cannot_raise(expr):
            return None
        verdict = eval_interval(expr, env)
        if verdict.lo == verdict.hi and math.isfinite(verdict.lo):
            return verdict.lo
        return None

    def rebuild(stmt: Stmt) -> Stmt:
        if defined.state_at(stmt) is None:
            # Unreachable for the analyses (an elided loop body):
            # nothing here executes, so leave it untouched.
            return stmt
        if isinstance(stmt, (Block,)):
            return stmt
        if isinstance(stmt, Assign):
            expr = fold_slot(stmt.expr, stmt)
            return stmt if expr is stmt.expr else replace(stmt, expr=expr)
        if isinstance(stmt, Hint):
            if not stmt.counted:
                return stmt  # uncounted hints never evaluate their expr
            expr = fold_slot(stmt.expr, stmt)
            return stmt if expr is stmt.expr else replace(stmt, expr=expr)
        if isinstance(stmt, Seq):
            children = [rebuild(child) for child in stmt.stmts]
            if all(a is b for a, b in zip(children, stmt.stmts)):
                return stmt
            return Seq(children)
        if isinstance(stmt, If):
            cond = fold_slot(stmt.cond, stmt)
            then = rebuild(stmt.then)
            orelse = (
                rebuild(stmt.orelse) if stmt.orelse is not None else None
            )
            if not stmt.counted:
                verdict = decide(cond, stmt)
                if verdict is True:
                    steps.append(
                        RewriteStep(
                            "fold-branch-true",
                            stmt.site,
                            "condition proved true; branch cost kept",
                        )
                    )
                    return Seq(
                        [Block(BRANCH_COST, name=f"fold:{stmt.site}"), then]
                    )
                if verdict is False:
                    steps.append(
                        RewriteStep(
                            "fold-branch-false",
                            stmt.site,
                            "condition proved false; branch cost kept",
                        )
                    )
                    taken = [] if orelse is None else [orelse]
                    return Seq(
                        [Block(BRANCH_COST, name=f"fold:{stmt.site}")]
                        + taken
                    )
            if (
                cond is stmt.cond
                and then is stmt.then
                and orelse is stmt.orelse
            ):
                return stmt
            return replace(stmt, cond=cond, then=then, orelse=orelse)
        if isinstance(stmt, Loop):
            count = fold_slot(stmt.count, stmt)
            body = rebuild(stmt.body)
            if not stmt.counted:
                if stmt.elide_body:
                    # The node evaluates its count (including the int()
                    # trip clamp, which faults on non-finite values),
                    # runs nothing, counts nothing.  Removable only when
                    # that evaluation provably cannot fault.
                    env = intervals.state_at(stmt)
                    mdef = defined.state_at(stmt)
                    if (
                        env is not None
                        and mdef is not None
                        and count.variables() <= mdef
                        and eval_cannot_raise(count)
                    ):
                        span = eval_interval(count, env)
                        if math.isfinite(span.lo) and math.isfinite(span.hi):
                            steps.append(
                                RewriteStep(
                                    "fold-elided-loop",
                                    stmt.site,
                                    "uncounted elided loop is a no-op",
                                )
                            )
                            return Seq(())
                else:
                    verdict = point(count, stmt)
                    if verdict is not None:
                        trips = max(0, min(int(verdict), stmt.max_trips))
                        if trips == 0:
                            steps.append(
                                RewriteStep(
                                    "fold-loop-zero",
                                    stmt.site,
                                    "trip count proved 0",
                                )
                            )
                            return Seq(())
                        if trips == 1:
                            steps.append(
                                RewriteStep(
                                    "fold-loop-single",
                                    stmt.site,
                                    "trip count proved 1; loop unrolled",
                                )
                            )
                            prologue: list[Stmt] = [
                                Block(
                                    LOOP_ITER_COST,
                                    name=f"fold:{stmt.site}",
                                )
                            ]
                            if stmt.loop_var is not None:
                                prologue.append(
                                    Assign(
                                        stmt.loop_var, Const(0), cost=0.0
                                    )
                                )
                            return Seq(prologue + [body])
            if count is stmt.count and body is stmt.body:
                return stmt
            return replace(stmt, count=count, body=body)
        if isinstance(stmt, While):
            # The condition re-evaluates before EVERY iteration, and the
            # engine's state at the While node is the loop-entry state —
            # substituting entry-state constants into the condition would
            # freeze a counter the body updates (an infinite loop up to
            # max_trips).  Only closed subexpressions — iteration-
            # independent by construction — may fold here.
            cond = fold_expr(stmt.cond, None, None)
            body = rebuild(stmt.body)
            # With max_trips == 0 the interpreter exits before even the
            # first condition check, so there is no cost (and no
            # evaluation) to preserve.
            if not stmt.counted and stmt.max_trips >= 1:
                verdict = decide(cond, stmt)
                if verdict is False:
                    steps.append(
                        RewriteStep(
                            "fold-while-false",
                            stmt.site,
                            "condition proved false; one check cost kept",
                        )
                    )
                    return Block(BRANCH_COST, name=f"fold:{stmt.site}")
            if cond is stmt.cond and body is stmt.body:
                return stmt
            return replace(stmt, cond=cond, body=body)
        if isinstance(stmt, IndirectCall):
            target = fold_slot(stmt.target, stmt)
            table = {
                address: rebuild(callee)
                for address, callee in stmt.table.items()
            }
            default = (
                rebuild(stmt.default) if stmt.default is not None else None
            )
            if not stmt.counted:
                verdict = point(target, stmt)
                if verdict is not None:
                    address = int(verdict)
                    callee = table.get(address, default)
                    steps.append(
                        RewriteStep(
                            "devirtualize",
                            stmt.site,
                            f"target proved {address}; dispatch cost kept",
                        )
                    )
                    dispatch = Block(
                        CALL_DISPATCH_COST, name=f"fold:{stmt.site}"
                    )
                    if callee is None:
                        return dispatch
                    return Seq([dispatch, callee])
            if (
                target is stmt.target
                and default is stmt.default
                and all(table[a] is stmt.table[a] for a in table)
            ):
                return stmt
            return replace(stmt, target=target, table=table, default=default)
        raise TypeError(f"unknown statement type {type(stmt).__name__}")

    new_body = rebuild(program.body)
    if not steps:
        return program, []
    return replace(program, body=new_body), steps


def _rebuild_expr(expr: Expr, fn) -> Expr:
    """Rebuild one expression node with ``fn`` applied to each child."""
    if isinstance(expr, BinOp):
        left, right = fn(expr.left), fn(expr.right)
        if left is expr.left and right is expr.right:
            return expr
        return BinOp(expr.op, left, right)
    if isinstance(expr, Compare):
        left, right = fn(expr.left), fn(expr.right)
        if left is expr.left and right is expr.right:
            return expr
        return Compare(expr.op, left, right)
    if isinstance(expr, UnaryOp):
        operand = fn(expr.operand)
        if operand is expr.operand:
            return expr
        return UnaryOp(expr.op, operand)
    if isinstance(expr, BoolOp):
        operands = [fn(o) for o in expr.operands]
        if all(a is b for a, b in zip(operands, expr.operands)):
            return expr
        return BoolOp(expr.op, operands)
    if isinstance(expr, IfExpr):
        cond, then, orelse = fn(expr.cond), fn(expr.then), fn(expr.orelse)
        if (
            cond is expr.cond
            and then is expr.then
            and orelse is expr.orelse
        ):
            return expr
        return IfExpr(cond, then, orelse)
    return expr


def _walk(stmt: Stmt):
    from repro.programs.ir import walk

    return walk(stmt)
