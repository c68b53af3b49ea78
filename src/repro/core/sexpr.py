"""Scalar expression AST shared by the plan language and code generators.

A scalar expression (``SExpr``) references bound variables' attributes
(``Col(var, attr)``) and composes them with the paper's ``PrimOp`` /
``RelOp`` / ``BoolOp`` operators plus a scalar conditional.  It compiles
to three targets:

* a Spark SQL expression (Dataset backend; see :func:`to_sql`),
* a Python callable over ``{colname: value}`` rows (RDD backend),
* a Python callable over ``{var: {attr: value}}`` environments
  (NRC interpreter).

Columns produced by the compiler follow the naming convention
``<var>__<attr>`` so that independently-bound variables never collide
after joins/unnests.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable

from pyspark.sql import Row


def cname(var: str, attr: str) -> str:
    """Flat column name for attribute ``attr`` of bound variable ``var``."""
    return f"{var}__{attr}"


@dataclass(frozen=True)
class SExpr:
    """Base class for scalar expressions."""


@dataclass(frozen=True)
class Col(SExpr):
    """Reference to attribute ``attr`` of bound variable ``var``."""

    var: str
    attr: str

    @property
    def colname(self) -> str:
        return cname(self.var, self.attr)


@dataclass(frozen=True)
class RawCol(SExpr):
    """Reference to an already-flat column by its exact name."""

    name: str


@dataclass(frozen=True)
class Lit(SExpr):
    """A scalar constant."""

    value: Any


@dataclass(frozen=True)
class BinOp(SExpr):
    """Arithmetic/comparison/boolean binary operator."""

    op: str  # + - * / == != < <= > >= && ||
    left: SExpr
    right: SExpr


@dataclass(frozen=True)
class Not(SExpr):
    """Boolean negation."""

    expr: SExpr


@dataclass(frozen=True)
class IfScalar(SExpr):
    """Scalar conditional: ``if cond then then_ else else_``."""

    cond: SExpr
    then_: SExpr
    else_: SExpr


@dataclass(frozen=True)
class IsNotNull(SExpr):
    """NULL test — witnesses of outer-operator matches (§2.2 Γ casts)."""

    expr: SExpr


@dataclass(frozen=True)
class MkStruct(SExpr):
    """Named struct constructor — composite labels (NewLabel with >1 var)."""

    items: tuple[tuple[str, SExpr], ...]


@dataclass(frozen=True)
class GetField(SExpr):
    """Field access into a struct value (label deconstruction / match)."""

    expr: SExpr
    name: str


_PY_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "&&": lambda a, b: bool(a) and bool(b),
    "||": lambda a, b: bool(a) or bool(b),
}


_SQL_OPS = {
    "+": "+", "-": "-", "*": "*", "/": "/",
    "==": "=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "&&": "AND", "||": "OR",
}
_INT32 = range(-(1 << 31), 1 << 31)


def quote(name: str) -> str:
    """A column, field or view name as a back-quoted SQL identifier."""
    return "`" + name.replace("`", "``") + "`"


def sql_literal(v: Any) -> str:
    """A Python scalar, or a ``Row`` as a struct, as a Spark SQL literal.

    Scalars get the type ``F.lit`` gives them: a bare ``1.5`` would be
    DECIMAL in SQL, so floats carry the DOUBLE suffix, and integers
    outside the int32 range are BIGINT.
    """
    if v is None:
        return "NULL"
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, int):
        return f"{v}" if v in _INT32 else f"{v}L"
    if isinstance(v, float):
        if math.isfinite(v):
            return f"{v!r}D"
        return f"CAST('{v}' AS DOUBLE)"
    if isinstance(v, str):
        return "'" + v.replace("\\", "\\\\").replace("'", "\\'") + "'"
    if isinstance(v, Row):  # e.g. a composite label as a heavy key
        fields = ", ".join(
            f"{sql_literal(n)}, {sql_literal(x)}" for n, x in v.asDict().items()
        )
        return f"named_struct({fields})"
    raise TypeError(f"no SQL literal for {v!r}")


def to_sql(e: SExpr) -> str:
    """Compile an SExpr to a Spark SQL expression over ``var__attr`` columns."""
    if isinstance(e, Col):
        return quote(e.colname)
    if isinstance(e, RawCol):
        return quote(e.name)
    if isinstance(e, Lit):
        lit = sql_literal(e.value)
        return f"({lit})" if lit.startswith("-") else lit
    if isinstance(e, BinOp):
        return f"({to_sql(e.left)} {_SQL_OPS[e.op]} {to_sql(e.right)})"
    if isinstance(e, Not):
        return f"(NOT {to_sql(e.expr)})"
    if isinstance(e, IfScalar):
        return (
            f"CASE WHEN {to_sql(e.cond)} THEN {to_sql(e.then_)} "
            f"ELSE {to_sql(e.else_)} END"
        )
    if isinstance(e, MkStruct):
        args = ", ".join(f"{sql_literal(n)}, {to_sql(x)}" for n, x in e.items)
        return f"named_struct({args})"
    if isinstance(e, GetField):
        return f"({to_sql(e.expr)}).{quote(e.name)}"
    if isinstance(e, IsNotNull):
        return f"({to_sql(e.expr)} IS NOT NULL)"
    raise TypeError(f"unknown SExpr {e!r}")


def eval_row(e: SExpr, row: dict[str, Any]) -> Any:
    """Evaluate an SExpr over a flat row ``{colname: value}`` (RDD backend)."""
    if isinstance(e, Col):
        return row.get(e.colname)
    if isinstance(e, RawCol):
        return row.get(e.name)
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, BinOp):
        l, r = eval_row(e.left, row), eval_row(e.right, row)
        if e.op in ("&&", "||"):
            return _PY_OPS[e.op](l, r)
        if l is None or r is None:
            return None
        return _PY_OPS[e.op](l, r)
    if isinstance(e, Not):
        v = eval_row(e.expr, row)
        return None if v is None else not v
    if isinstance(e, IfScalar):
        return (
            eval_row(e.then_, row)
            if eval_row(e.cond, row)
            else eval_row(e.else_, row)
        )
    if isinstance(e, MkStruct):
        return {n: eval_row(x, row) for n, x in e.items}
    if isinstance(e, GetField):
        v = eval_row(e.expr, row)
        return None if v is None else v[e.name]
    if isinstance(e, IsNotNull):
        return eval_row(e.expr, row) is not None
    raise TypeError(f"unknown SExpr {e!r}")


def columns_of(e: SExpr) -> set[str]:
    """The set of flat column names referenced by ``e``."""
    if isinstance(e, Col):
        return {e.colname}
    if isinstance(e, RawCol):
        return {e.name}
    if isinstance(e, Lit):
        return set()
    if isinstance(e, BinOp):
        return columns_of(e.left) | columns_of(e.right)
    if isinstance(e, Not):
        return columns_of(e.expr)
    if isinstance(e, IfScalar):
        return columns_of(e.cond) | columns_of(e.then_) | columns_of(e.else_)
    if isinstance(e, MkStruct):
        return set().union(*(columns_of(x) for _, x in e.items)) if e.items else set()
    if isinstance(e, GetField):
        return columns_of(e.expr)
    if isinstance(e, IsNotNull):
        return columns_of(e.expr)
    raise TypeError(f"unknown SExpr {e!r}")
