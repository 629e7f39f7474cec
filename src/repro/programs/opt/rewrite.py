"""Shared machinery for IR rewrite passes.

Every optimization pass in :mod:`repro.programs.opt` is a pure
IR-to-IR function constrained by one contract: the optimized program
must be *bit-identical* to the original through the interpreter — same
final globals, same feature records, same instruction/memory
accumulator values.  Two pieces of machinery make that contract
checkable rather than hoped-for:

- :func:`exactness` — the float-reassociation precondition.  The
  interpreter tallies cost in a float accumulator, and float addition
  is not associative, so a rewrite that *regroups* cost additions
  (merging adjacent Blocks, unrolling a one-trip loop) is only exact
  when every contribution is an integer-valued float and the total
  stays below 2**52: then every partial sum is an exactly-representable
  integer and associativity holds.  Sequence-preserving rewrites
  (flattening, substituting an equal-valued expression, replacing an
  Assign by a Block of the same cost) need no precondition.

- :func:`opt_interval_engine` / :func:`sound_cost_bound` — interval
  analysis with a *cross-job-sound* entry state.  The certifier's
  :func:`~repro.programs.analysis.intervals.analyze_intervals` seeds
  every global at its ``globals_init`` value, which describes job 1
  from a fresh state; a global the program writes can arrive at job N
  holding anything the program ever stored there.  Rewrites must hold
  for every job of a persistent run, so here written globals enter TOP
  and only never-written globals keep their initial value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.programs.analysis.dataflow import DataflowEngine
from repro.programs.analysis.hazards import assigned_names
from repro.programs.analysis.intervals import (
    CostBound,
    CostBoundAnalyzer,
    Interval,
    IntervalAnalysis,
    IntervalEnv,
)
from repro.programs.ir import (
    Assign,
    Block,
    Hint,
    Loop,
    Program,
    Seq,
    Stmt,
    walk,
)

__all__ = [
    "EXACT_SUM_LIMIT",
    "OPT_TEMP_PREFIX",
    "RewriteStep",
    "FreshNames",
    "OptContext",
    "Exactness",
    "exactness",
    "eval_cannot_raise",
    "opt_interval_engine",
    "sound_cost_bound",
    "program_names",
    "subtree_writes",
    "is_empty",
    "node_count",
]

#: Reserved prefix for optimizer-introduced temporaries.  Temps are
#: always locals (never in ``globals_init``), assigned with cost 0.0
#: (``x + 0.0 == x`` exactly for the non-negative accumulator), and
#: excluded from the validator's free-variable comparison.
OPT_TEMP_PREFIX = "__opt_"

#: Integer float sums stay exact strictly below 2**53; one spare bit
#: keeps every *intermediate* regrouped sum safely representable.
EXACT_SUM_LIMIT = float(2**52)


@dataclass(frozen=True)
class RewriteStep:
    """One applied rewrite, recorded for the pass certificate.

    Attributes:
        rule: Rewrite rule identifier (e.g. ``"fold-branch-true"``).
        site: Site label or variable name the rewrite anchors to.
        detail: Human-readable description of what changed.
    """

    rule: str
    site: str = ""
    detail: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {"rule": self.rule, "site": self.site, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RewriteStep":
        return cls(
            rule=data["rule"],
            site=data.get("site", ""),
            detail=data.get("detail", ""),
        )


class FreshNames:
    """Allocates temp names guaranteed not to collide with the program."""

    def __init__(self, taken):
        self._taken = set(taken)
        self._n = 0

    def fresh(self, tag: str = "t") -> str:
        while True:
            self._n += 1
            name = f"{OPT_TEMP_PREFIX}{tag}{self._n}"
            if name not in self._taken:
                self._taken.add(name)
                return name


@dataclass
class OptContext:
    """State shared across the passes of one ``optimize_program`` run.

    Attributes:
        input_names: The program's declared inputs (entry-bound names).
        input_ranges: Input ranges for cost-bound *comparison* (always
            sound to use: both sides of a rewrite are bounded under the
            same assumption).  Rewrite decisions never assume them.
        fresh: Temp-name allocator shared by all passes.
    """

    input_names: frozenset[str]
    input_ranges: dict | None = None
    fresh: FreshNames = field(default_factory=lambda: FreshNames(()))


@dataclass(frozen=True)
class Exactness:
    """Which accumulators tolerate regrouped additions (see module doc)."""

    instructions: bool
    mem_refs: bool


def _cost_values(program: Program) -> Iterator[tuple[float, float]]:
    """(instructions, mem_refs) contribution of every cost-bearing node."""
    for node in walk(program.body):
        if isinstance(node, Block):
            yield node.instructions, node.mem_refs
        elif isinstance(node, (Assign, Hint)):
            yield node.cost, 0.0


def exactness(program: Program, input_ranges=None) -> Exactness:
    """Decide whether regrouping cost additions is bit-exact here.

    Both conditions must hold per accumulator: every static
    contribution is an integer-valued float, and the worst-case dynamic
    total (cross-job-sound bound) stays below :data:`EXACT_SUM_LIMIT`.
    """
    instr_integral = True
    mem_integral = True
    for instructions, mem_refs in _cost_values(program):
        if not float(instructions).is_integer():
            instr_integral = False
        if not float(mem_refs).is_integer():
            mem_integral = False
        if not instr_integral and not mem_integral:
            break
    if not instr_integral and not mem_integral:
        return Exactness(False, False)
    bound = sound_cost_bound(program, input_ranges)
    return Exactness(
        instructions=instr_integral
        and math.isfinite(bound.instructions)
        and bound.instructions < EXACT_SUM_LIMIT,
        mem_refs=mem_integral
        and math.isfinite(bound.mem_refs)
        and bound.mem_refs < EXACT_SUM_LIMIT,
    )


def eval_cannot_raise(expr) -> bool:
    """True when evaluating ``expr`` cannot raise, given bound variables.

    Removing an expression evaluation is only behaviour-preserving if
    the evaluation could not have crashed.  With every read guarded by
    the must-defined analysis (no ``KeyError``), the expression language
    has exactly one remaining partial operator: unary ``int`` raises
    ``OverflowError``/``ValueError`` on a non-finite float.  Division by
    zero yields 0 by convention and Python integers never overflow, so
    everything else is total.  Conservatively reject any expression
    containing unary ``int``.
    """
    from repro.programs.expr import BinOp, BoolOp, Compare, IfExpr, UnaryOp

    if isinstance(expr, UnaryOp):
        if expr.op == "int":
            return False
        return eval_cannot_raise(expr.operand)
    if isinstance(expr, (BinOp, Compare)):
        return eval_cannot_raise(expr.left) and eval_cannot_raise(expr.right)
    if isinstance(expr, BoolOp):
        return all(eval_cannot_raise(o) for o in expr.operands)
    if isinstance(expr, IfExpr):
        return (
            eval_cannot_raise(expr.cond)
            and eval_cannot_raise(expr.then)
            and eval_cannot_raise(expr.orelse)
        )
    return True  # Const / Var


def opt_interval_engine(
    program: Program, input_ranges=None
) -> DataflowEngine[IntervalEnv]:
    """Interval analysis whose entry state is sound for *every* job.

    Written globals enter TOP (a persistent run can reach job N with
    any value the program ever stored); never-written globals keep
    their ``globals_init`` value forever, so they stay constants.
    """
    written = assigned_names(program)
    entry: IntervalEnv = {}
    for name, value in program.globals_init.items():
        if name not in written and isinstance(value, (bool, int, float)):
            entry[name] = Interval.const(value)
    for name, (lo, hi) in (input_ranges or {}).items():
        interval = Interval(float(lo), float(hi))
        if not interval.is_top:
            entry[name] = interval
    engine = DataflowEngine(IntervalAnalysis())
    engine.run(program.body, entry)
    return engine


def sound_cost_bound(program: Program, input_ranges=None) -> CostBound:
    """Worst-case cost under the cross-job-sound entry state."""
    engine = opt_interval_engine(program, input_ranges)
    analyzer = CostBoundAnalyzer(engine, program.name)
    return analyzer.bound(program.body)


def program_names(program: Program) -> set[str]:
    """Every name the program mentions (reads, writes, globals, inputs).

    Used to seed :class:`FreshNames` so optimizer temps cannot collide.
    """
    from repro.programs.analysis.reaching import read_variables

    names: set[str] = set(program.globals_init)
    for node in walk(program.body):
        names |= read_variables(node)
        if isinstance(node, Assign):
            names.add(node.target)
        elif isinstance(node, Loop) and node.loop_var is not None:
            names.add(node.loop_var)
    return names


def subtree_writes(stmt: Stmt) -> frozenset[str]:
    """Names any execution of ``stmt`` may write (Assigns + loop vars)."""
    out: set[str] = set()
    for node in walk(stmt):
        if isinstance(node, Assign):
            out.add(node.target)
        elif isinstance(node, Loop) and node.loop_var is not None:
            out.add(node.loop_var)
    return frozenset(out)


def is_empty(stmt: Stmt | None) -> bool:
    """True for statements that execute as a no-op (None / empty Seq)."""
    if stmt is None:
        return True
    return isinstance(stmt, Seq) and not stmt.stmts


def node_count(program: Program) -> int:
    """Statement-node count — the interpreter dispatches once per node
    executed, so fewer nodes means fewer host-side dispatches."""
    return sum(1 for _ in walk(program.body))
