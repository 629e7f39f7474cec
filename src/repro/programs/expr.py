"""Expression AST for the mini task language.

Expressions are pure: evaluating one never mutates the environment.  Each
expression knows the set of variable names it reads (:meth:`Expr.variables`),
which is exactly the information the approximate, name-based program slicer
uses for its dependence analysis (paper §3.2: "our tool tracks dependences
based only on variable names").
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from typing import Callable, Mapping

__all__ = [
    "Expr",
    "Const",
    "Var",
    "BinOp",
    "UnaryOp",
    "Compare",
    "BoolOp",
    "IfExpr",
    "as_expr",
]

Value = int | float | bool

_BIN_OPS: dict[str, Callable[[Value, Value], Value]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "//": lambda a, b: a // b if b != 0 else 0,
    "/": lambda a, b: a / b if b != 0 else 0.0,
    "%": lambda a, b: a % b if b != 0 else 0,
    "min": min,
    "max": max,
}

_CMP_OPS: dict[str, Callable[[Value, Value], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_UNARY_OPS: dict[str, Callable[[Value], Value]] = {
    "-": operator.neg,
    "not": operator.not_,
    "abs": abs,
    "int": int,
}


class Expr(ABC):
    """Base class for all expressions.

    Expressions compare structurally (same shape, same operators, same
    leaves), which makes IR round-trip tests and program transformations
    straightforward to verify.
    """

    @abstractmethod
    def evaluate(self, env: Mapping[str, Value]) -> Value:
        """Value of this expression under the variable binding ``env``."""

    @abstractmethod
    def variables(self) -> frozenset[str]:
        """Names of all variables this expression reads."""

    @abstractmethod
    def _key(self) -> tuple:
        """Structural identity of this node (children included)."""

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    # Operator sugar keeps workload definitions readable.
    def __add__(self, other) -> "BinOp":
        return BinOp("+", self, as_expr(other))

    def __sub__(self, other) -> "BinOp":
        return BinOp("-", self, as_expr(other))

    def __mul__(self, other) -> "BinOp":
        return BinOp("*", self, as_expr(other))

    def __floordiv__(self, other) -> "BinOp":
        return BinOp("//", self, as_expr(other))

    def __mod__(self, other) -> "BinOp":
        return BinOp("%", self, as_expr(other))


class Const(Expr):
    """A literal value."""

    def __init__(self, value: Value):
        if not isinstance(value, (int, float, bool)):
            raise TypeError(f"Const requires a scalar, got {type(value).__name__}")
        self.value = value

    def evaluate(self, env: Mapping[str, Value]) -> Value:
        return self.value

    def variables(self) -> frozenset[str]:
        return frozenset()

    def _key(self) -> tuple:
        return (self.value,)

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Var(Expr):
    """A variable reference, resolved against the environment at run time."""

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ValueError(f"variable name must be a non-empty string: {name!r}")
        self.name = name

    def evaluate(self, env: Mapping[str, Value]) -> Value:
        if self.name not in env:
            raise KeyError(f"undefined variable {self.name!r}")
        return env[self.name]

    def variables(self) -> frozenset[str]:
        return frozenset({self.name})

    def _key(self) -> tuple:
        return (self.name,)

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class BinOp(Expr):
    """Arithmetic binary operation.

    Division and modulo by zero evaluate to 0 rather than raising: task
    code guarded by data-dependent divisors should not crash the predictor
    slice, mirroring how a C slice would simply produce a garbage-but-
    harmless feature value.
    """

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _BIN_OPS:
            raise ValueError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, env: Mapping[str, Value]) -> Value:
        return _BIN_OPS[self.op](self.left.evaluate(env), self.right.evaluate(env))

    def variables(self) -> frozenset[str]:
        return self.left.variables() | self.right.variables()

    def _key(self) -> tuple:
        return (self.op, self.left, self.right)

    def __repr__(self) -> str:
        return f"BinOp({self.op!r}, {self.left!r}, {self.right!r})"


class UnaryOp(Expr):
    """Unary operation: negation, logical not, abs, int truncation."""

    def __init__(self, op: str, operand: Expr):
        if op not in _UNARY_OPS:
            raise ValueError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def evaluate(self, env: Mapping[str, Value]) -> Value:
        return _UNARY_OPS[self.op](self.operand.evaluate(env))

    def variables(self) -> frozenset[str]:
        return self.operand.variables()

    def _key(self) -> tuple:
        return (self.op, self.operand)

    def __repr__(self) -> str:
        return f"UnaryOp({self.op!r}, {self.operand!r})"


class Compare(Expr):
    """Comparison producing a bool (used as branch conditions)."""

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _CMP_OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, env: Mapping[str, Value]) -> bool:
        return _CMP_OPS[self.op](self.left.evaluate(env), self.right.evaluate(env))

    def variables(self) -> frozenset[str]:
        return self.left.variables() | self.right.variables()

    def _key(self) -> tuple:
        return (self.op, self.left, self.right)

    def __repr__(self) -> str:
        return f"Compare({self.op!r}, {self.left!r}, {self.right!r})"


class BoolOp(Expr):
    """Short-circuiting ``and`` / ``or`` over two or more operands."""

    def __init__(self, op: str, operands: list[Expr]):
        if op not in ("and", "or"):
            raise ValueError(f"unknown boolean operator {op!r}")
        if len(operands) < 2:
            raise ValueError("BoolOp requires at least two operands")
        self.op = op
        self.operands = list(operands)

    def evaluate(self, env: Mapping[str, Value]) -> bool:
        if self.op == "and":
            return all(bool(o.evaluate(env)) for o in self.operands)
        return any(bool(o.evaluate(env)) for o in self.operands)

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for operand in self.operands:
            out |= operand.variables()
        return out

    def _key(self) -> tuple:
        return (self.op, tuple(self.operands))

    def __repr__(self) -> str:
        return f"BoolOp({self.op!r}, {self.operands!r})"


class IfExpr(Expr):
    """Ternary conditional expression ``then if cond else orelse``."""

    def __init__(self, cond: Expr, then: Expr, orelse: Expr):
        self.cond = cond
        self.then = then
        self.orelse = orelse

    def evaluate(self, env: Mapping[str, Value]) -> Value:
        if self.cond.evaluate(env):
            return self.then.evaluate(env)
        return self.orelse.evaluate(env)

    def variables(self) -> frozenset[str]:
        return self.cond.variables() | self.then.variables() | self.orelse.variables()

    def _key(self) -> tuple:
        return (self.cond, self.then, self.orelse)

    def __repr__(self) -> str:
        return f"IfExpr({self.cond!r}, {self.then!r}, {self.orelse!r})"


def as_expr(value: Expr | Value | str) -> Expr:
    """Coerce a Python scalar (to Const) or name (to Var) into an Expr."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return Var(value)
    return Const(value)
