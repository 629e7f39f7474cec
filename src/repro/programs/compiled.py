"""Compiled execution: a program turned into nested Python closures.

:class:`~repro.programs.interpreter.Interpreter` runs every program
through this module.  Each IR node compiles once into a closure; the
statement closures share a flat scope dict and a :class:`Frame` of
per-execution state, so running a job is a chain of plain calls with no
per-node dispatch and no layered name lookup.

The closures perform exactly the operations of the tree-walking
:class:`~repro.programs.interpreter.ReferenceInterpreter`, in the same
order: the same float additions into the instruction and memory tallies,
the same expression arithmetic, the same feature-counter updates.  Work,
features and final state are therefore bit-identical to the reference,
which the tests check on random programs and every shipped workload.

Name resolution:

- Reads go through one flat scope dict, seeded with the inputs and then
  the globals (globals shadow inputs, as in :class:`Environment`).
- A write goes to the scope and to the global of that name if there is
  one, else to the locals.  Globals never gain names during a run, so a
  global name can never become a local.

The compiled form is cached on the :class:`~repro.programs.ir.Program`
object it came from and shared by every interpreter;
``Program.__getstate__`` keeps it out of pickles.
"""

from __future__ import annotations

from typing import Callable

from repro.programs.env import Environment
from repro.programs.expr import (
    _BIN_OPS,
    _CMP_OPS,
    _UNARY_OPS,
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
    COUNTER_COST,
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

__all__ = [
    "Frame",
    "compile_expr",
    "compile_program",
    "compile_stmt",
    "run_compiled",
]

#: Attribute under which a Program caches its compiled body.
_CACHE_ATTR = "_compiled_body"


def _cost(value):
    """A cost as the float the tallies add.

    The tallies are floats from the start, and ``tally + n`` converts an
    int ``n`` exactly as ``float(n)`` does, so converting once here
    leaves every sum bit-identical while taking CPython's float-only
    fast path.
    """
    return float(value) if isinstance(value, int) else value


_BRANCH = _cost(BRANCH_COST)
_CALL_DISPATCH = _cost(CALL_DISPATCH_COST)
_COUNTER = _cost(COUNTER_COST)
_LOOP_ITER = _cost(LOOP_ITER_COST)


class Frame:
    """Mutable state of one execution, shared by the statement closures.

    Attributes:
        instructions: Running instruction tally.
        mem_refs: Running memory-reference tally.
        globals: The execution's global namespace (written through).
        locals: Names the execution created.
        counters: Feature counters (``RawFeatures.counters``).
        call_addresses: Call-site records (``RawFeatures.call_addresses``).
    """

    __slots__ = (
        "instructions",
        "mem_refs",
        "globals",
        "locals",
        "counters",
        "call_addresses",
    )

    def __init__(self, globals_, locals_, counters, call_addresses):
        self.instructions = 0.0
        self.mem_refs = 0.0
        self.globals = globals_
        self.locals = locals_
        self.counters = counters
        self.call_addresses = call_addresses


ExprFn = Callable[[dict], object]
StmtFn = Callable[[dict, Frame], None]


def compile_program(program: Program) -> StmtFn:
    """The compiled body of ``program``, built on first use and cached."""
    body = program.__dict__.get(_CACHE_ATTR)
    if body is None:
        body = compile_stmt(program.body)
        object.__setattr__(program, _CACHE_ATTR, body)
    return body


def run_compiled(program: Program, env: Environment, features) -> tuple:
    """Run ``program`` against ``env``; returns (instructions, mem_refs).

    Writes land in ``env``'s globals and locals as they happen, and
    counted sites record into ``features``.
    """
    inputs, globals_, locals_ = env.layers()
    scope = {**inputs, **globals_}
    frame = Frame(
        globals_, locals_, features.counters, features.call_addresses
    )
    compile_program(program)(scope, frame)
    return frame.instructions, frame.mem_refs


# -- expressions ---------------------------------------------------------------
def compile_expr(expr: Expr) -> ExprFn:
    """A closure ``scope -> value`` equal to ``expr.evaluate``.

    Dispatch is on the exact class: a subclass may override ``evaluate``,
    so it runs its own method against the flat scope (a Mapping).
    """
    factory = _EXPR_FACTORIES.get(expr.__class__)
    if factory is None:
        return expr.evaluate
    return factory(expr)


def _compile_Const(expr: Const) -> ExprFn:
    value = expr.value

    def const(scope):
        return value

    return const


def _compile_Var(expr: Var) -> ExprFn:
    name = expr.name

    def var(scope):
        try:
            return scope[name]
        except KeyError:
            raise KeyError(f"undefined variable {name!r}") from None

    return var


def _compile_BinOp(expr: BinOp) -> ExprFn:
    fn = _BIN_OPS[expr.op]
    left = compile_expr(expr.left)
    right = compile_expr(expr.right)

    def binary(scope):
        return fn(left(scope), right(scope))

    return binary


def _compile_Compare(expr: Compare) -> ExprFn:
    fn = _CMP_OPS[expr.op]
    left = compile_expr(expr.left)
    right = compile_expr(expr.right)

    def compare(scope):
        return fn(left(scope), right(scope))

    return compare


def _compile_UnaryOp(expr: UnaryOp) -> ExprFn:
    operand = compile_expr(expr.operand)
    fn = _UNARY_OPS[expr.op]

    def unary(scope):
        return fn(operand(scope))

    return unary


def _compile_BoolOp(expr: BoolOp) -> ExprFn:
    operands = tuple(compile_expr(o) for o in expr.operands)
    if expr.op == "and":
        def all_of(scope):
            for operand in operands:
                if not operand(scope):
                    return False
            return True

        return all_of

    def any_of(scope):
        for operand in operands:
            if operand(scope):
                return True
        return False

    return any_of


def _compile_IfExpr(expr: IfExpr) -> ExprFn:
    cond = compile_expr(expr.cond)
    then = compile_expr(expr.then)
    orelse = compile_expr(expr.orelse)

    def choose(scope):
        if cond(scope):
            return then(scope)
        return orelse(scope)

    return choose


_EXPR_FACTORIES: dict[type, Callable[[Expr], ExprFn]] = {
    Const: _compile_Const,
    Var: _compile_Var,
    BinOp: _compile_BinOp,
    Compare: _compile_Compare,
    UnaryOp: _compile_UnaryOp,
    BoolOp: _compile_BoolOp,
    IfExpr: _compile_IfExpr,
}


# -- statements ----------------------------------------------------------------
def compile_stmt(stmt: Stmt) -> StmtFn:
    """A closure ``(scope, frame) -> None`` executing ``stmt``.

    Subclasses of IR nodes compile as their nearest IR base class, as
    the reference dispatches them; an unknown statement type raises
    ``TypeError`` when it runs, not when it compiles.
    """
    for cls in stmt.__class__.__mro__:
        factory = _STMT_FACTORIES.get(cls)
        if factory is not None:
            return factory(stmt)
    name = stmt.__class__.__name__

    def unknown(scope, frame):
        raise TypeError(f"unknown statement type {name}")

    return unknown


def _compile_Block(stmt: Block) -> StmtFn:
    instructions = _cost(stmt.instructions)
    mem_refs = _cost(stmt.mem_refs)

    def block(scope, frame):
        frame.instructions += instructions
        frame.mem_refs += mem_refs

    return block


def _compile_Seq(stmt: Seq) -> StmtFn:
    steps = tuple(compile_stmt(child) for child in stmt.stmts)

    def seq(scope, frame):
        for step in steps:
            step(scope, frame)

    return seq


def _compile_Assign(stmt: Assign) -> StmtFn:
    cost = _cost(stmt.cost)
    value = compile_expr(stmt.expr)
    target = stmt.target

    def assign(scope, frame):
        frame.instructions += cost
        result = value(scope)
        scope[target] = result
        globals_ = frame.globals
        if target in globals_:
            globals_[target] = result
        else:
            frame.locals[target] = result

    return assign


def _compile_If(stmt: If) -> StmtFn:
    cond = compile_expr(stmt.cond)
    then = compile_stmt(stmt.then)
    orelse = compile_stmt(stmt.orelse) if stmt.orelse is not None else None
    site = stmt.site
    counted = stmt.counted

    def branch(scope, frame):
        frame.instructions += _BRANCH
        if cond(scope):
            if counted:
                frame.instructions += _COUNTER
                counters = frame.counters
                counters[site] = counters.get(site, 0.0) + 1.0
            then(scope, frame)
        elif orelse is not None:
            orelse(scope, frame)

    return branch


def _compile_Loop(stmt: Loop) -> StmtFn:
    count = compile_expr(stmt.count)
    max_trips = stmt.max_trips
    site = stmt.site
    counted = stmt.counted
    elide = stmt.elide_body
    body = None if elide else compile_stmt(stmt.body)
    loop_var = stmt.loop_var

    def loop(scope, frame):
        trips = int(count(scope))
        trips = max(0, min(trips, max_trips))
        if counted:
            frame.instructions += _COUNTER
            counters = frame.counters
            counters[site] = counters.get(site, 0.0) + trips
        if elide:
            return
        if loop_var is None:
            for _ in range(trips):
                frame.instructions += _LOOP_ITER
                body(scope, frame)
            return
        # Whether the name is a global cannot change during a run.
        globals_ = frame.globals
        target = globals_ if loop_var in globals_ else frame.locals
        for i in range(trips):
            frame.instructions += _LOOP_ITER
            scope[loop_var] = i
            target[loop_var] = i
            body(scope, frame)

    return loop


def _compile_While(stmt: While) -> StmtFn:
    cond = compile_expr(stmt.cond)
    body = compile_stmt(stmt.body)
    max_trips = stmt.max_trips
    site = stmt.site
    counted = stmt.counted

    def while_loop(scope, frame):
        trips = 0
        while trips < max_trips:
            frame.instructions += _BRANCH  # the condition check
            if not cond(scope):
                break
            frame.instructions += _LOOP_ITER
            body(scope, frame)
            trips += 1
        if counted:
            frame.instructions += _COUNTER
            counters = frame.counters
            counters[site] = counters.get(site, 0.0) + trips

    return while_loop


def _compile_Hint(stmt: Hint) -> StmtFn:
    cost = _cost(stmt.cost)
    value = compile_expr(stmt.expr)
    site = stmt.site
    counted = stmt.counted

    def hint(scope, frame):
        frame.instructions += cost
        if counted:
            frame.instructions += _COUNTER
            frame.counters[site] = float(value(scope))

    return hint


def _compile_IndirectCall(stmt: IndirectCall) -> StmtFn:
    target = compile_expr(stmt.target)
    table = {
        address: compile_stmt(callee) if callee is not None else None
        for address, callee in stmt.table.items()
    }
    default = compile_stmt(stmt.default) if stmt.default is not None else None
    site = stmt.site
    counted = stmt.counted

    def call(scope, frame):
        frame.instructions += _CALL_DISPATCH
        address = int(target(scope))
        if counted:
            frame.instructions += _COUNTER
            frame.call_addresses.setdefault(site, []).append(address)
        callee = table.get(address, default)
        if callee is not None:
            callee(scope, frame)

    return call


_STMT_FACTORIES: dict[type, Callable[[Stmt], StmtFn]] = {
    Block: _compile_Block,
    Assign: _compile_Assign,
    Seq: _compile_Seq,
    If: _compile_If,
    Loop: _compile_Loop,
    While: _compile_While,
    Hint: _compile_Hint,
    IndirectCall: _compile_IndirectCall,
}
