"""Dataset backend: compile a plan tree into one Spark SQL statement.

This is the code-generation stage of §3.2 (Fig. 10).  The emitter
turns a whole plan into one SQL text over the catalog's inputs, bound
as temporary views, and runs it with one ``spark.sql`` call.  Catalyst
sees every operator (the paper's reason for choosing Datasets over
RDDs: operator metadata reaches the Spark optimizer), and building the
DataFrame costs a few py4j calls per plan instead of several per
column reference.

The same emitter runs the skew-aware route (§5).  Every operator maps
a :class:`~repro.core.skew.SkewTriple` of SQL texts to another: joins
and ``Repartition`` (BagToDict) follow Fig. 6, Γ operators and dedup
merge the components and run standard.  Without skew handling nothing
is ever split, so the heavy component stays empty and the statement is
the standard one.  A DataFrame is made before the final statement only
where a Spark action needs one: the heavy-key sample of a Fig. 6
operator's input, and the row counts of an enabled
:class:`~repro.core.metrics.MetricsCollector` (simulated shuffle).
"""
from __future__ import annotations

import re
import uuid
from typing import Callable, Optional

from pyspark.errors import PySparkException
from pyspark.sql import DataFrame, SparkSession

from ..core import plan_ops as P
from ..core import skew as SK
from ..core.metrics import NO_METRICS, MetricsCollector
from ..core.sexpr import Col, RawCol, SExpr, quote, sql_literal, to_sql
from .catalog import Catalog

# Heavy-part row ids start here; light-part ids stay below, since
# monotonically_increasing_id puts the partition index above bit 33.
_HEAVY_ID_OFFSET = 1 << 61
_JOIN = {"inner": "JOIN", "left_outer": "LEFT OUTER JOIN", "cross": "CROSS JOIN"}
_UNARY = (
    P.Select, P.Project, P.Extend, P.AddId, P.Unnest, P.WithEmptyArray,
    P.NestBag, P.NestSum, P.Distinct, P.Repartition,
)
_Rel = tuple[SK.SkewTriple, list[str]]  # components and output columns


def run(
    plan: P.Plan,
    catalog: Catalog,
    skew: bool = False,
    metrics: MetricsCollector = NO_METRICS,
) -> DataFrame:
    """Execute a plan; in skew mode, returns the merged components."""
    with _Emitter(catalog, skew, metrics) as em:
        return em.sql(em.statement(plan))


def execute(
    plan: P.Plan, catalog: Catalog, metrics: MetricsCollector = NO_METRICS
) -> DataFrame:
    """Execute a plan without skew handling."""
    return run(plan, catalog, metrics=metrics)


def explain_sql(plan: P.Plan, catalog: Catalog, skew: bool = False) -> str:
    """The SQL statement :func:`run` emits for ``plan``.

    Its view names are bound for one call only.  In skew mode, emitting
    the statement samples heavy keys, which runs Spark jobs.
    """
    with _Emitter(catalog, skew, NO_METRICS) as em:
        return em.statement(plan)


class _Emitter:
    """Emits plans as SQL over catalog inputs bound as temporary views.

    Each input is bound under a fresh name on first use and unbound on
    exit through the session catalog's ``dropTempView``, which leaves a
    cached input cached.  ``spark.catalog.dropTempView``, and
    ``spark.sql(text, name=df)`` which calls it, uncache the DataFrame
    behind the view, so the next plan would recompute a cached input
    from its base tables.
    """

    def __init__(
        self, catalog: Catalog, skew: bool, metrics: MetricsCollector
    ):
        self.catalog = catalog
        self.skew = skew
        self.metrics = metrics
        self.token = uuid.uuid4().hex[:8]
        self.views: dict[str, tuple[str, list[str]]] = {}  # table -> (view, columns)
        self.spark: Optional[SparkSession] = None

    def __enter__(self) -> "_Emitter":
        return self

    def __exit__(self, *exc) -> None:
        if self.views:
            session_catalog = self.spark._jsparkSession.sessionState().catalog()
            for view, _ in self.views.values():
                session_catalog.dropTempView(view)

    def view(self, table: str) -> tuple[str, list[str]]:
        if table not in self.views:
            df = self.catalog.get(table)
            safe = re.sub(r"\W", "_", table)
            name = f"{safe}__v{len(self.views)}_{self.token}"
            cols = df.columns
            df.createOrReplaceTempView(name)
            self.spark = df.sparkSession
            self.views[table] = (name, cols)
        return self.views[table]

    def sql(self, text: str) -> DataFrame:
        try:
            return self.spark.sql(text)
        except PySparkException as e:
            e.add_note(f"emitted SQL:\n{text}")
            raise

    def record(self, label: str, query: str, kind: str = "shuffle") -> None:
        if self.metrics.enabled:
            self.metrics.record(label, self.sql(query), kind=kind)

    def statement(self, plan: P.Plan) -> str:
        return self.emit(plan)[0].union()

    def emit(self, plan: P.Plan) -> _Rel:
        if isinstance(plan, P.Scan):
            view, cols = self.view(plan.table)
            out = [f"{plan.var}__{c}" for c in cols]
            sel = ", ".join(f"{quote(c)} AS {quote(o)}" for c, o in zip(cols, out))
            return _one(f"SELECT {sel} FROM {quote(view)}"), out
        if isinstance(plan, P.ScanRaw):
            view, cols = self.view(plan.table)
            return _one(f"SELECT * FROM {quote(view)}"), list(cols)
        if isinstance(plan, P.Join):
            return self.join(plan)
        if not isinstance(plan, _UNARY):
            raise TypeError(f"unknown plan node {plan!r}")
        t, cols = self.emit(plan.child)
        if isinstance(plan, P.Select):
            pred = to_sql(plan.pred)
            return _each(t, lambda q: f"SELECT * FROM ({q})\nWHERE {pred}"), cols
        if isinstance(plan, P.Project):
            sel = ", ".join(f"{to_sql(sx)} AS {quote(n)}" for n, sx in plan.cols)
            return (
                _each(t, lambda q: f"SELECT {sel} FROM ({q})"),
                [n for n, _ in plan.cols],
            )
        if isinstance(plan, P.Extend):
            new = {n: to_sql(sx) for n, sx in plan.cols}
            return (
                _each(t, lambda q: _with_columns(q, cols, new)),
                cols + [n for n in new if n not in cols],
            )
        if isinstance(plan, P.AddId):
            ids = "monotonically_increasing_id()"
            heavy_ids = f"{ids} + {sql_literal(_HEAVY_ID_OFFSET)}"
            light = _with_columns(t.light, cols, {plan.out: ids})
            heavy = (
                None
                if t.heavy is None
                else _with_columns(t.heavy, cols, {plan.out: heavy_ids})
            )
            return SK.SkewTriple(light, heavy, t.keys), cols + [plan.out]
        if isinstance(plan, P.Unnest):
            keep = [c for c in cols if c != plan.src_col]
            out = [f"{plan.var}__{f}" for f, _ in plan.elem_fields]
            return (
                _each(t, lambda q: _unnest(q, keep, out, plan)),
                keep + out,
            )
        if isinstance(plan, P.WithEmptyArray):
            c = quote(plan.col)
            new = {plan.col: f"coalesce({c}, array())"}
            return _each(t, lambda q: _with_columns(q, cols, new)), cols
        if isinstance(plan, P.Repartition):
            return self.repartition(plan, t), cols
        # Γ⊎, Γ⁺ and dedup merge the components and run standard (Fig. 6).
        q = t.union()
        if isinstance(plan, P.NestBag):
            self.record(f"nestbag:{plan.out}", q)
            return _one(_nest_bag(q, plan)), [*plan.keys, plan.out]
        if isinstance(plan, P.NestSum):
            self.record(f"nestsum:{','.join(n for n, _ in plan.values)}", q)
            aggs = [f"sum({to_sql(sx)}) AS {quote(n)}" for n, sx in plan.values]
            return (
                _one(_group_by(q, plan.keys, aggs)),
                [*plan.keys, *(n for n, _ in plan.values)],
            )
        self.record("distinct", q)
        return _one(f"SELECT DISTINCT * FROM ({q})"), cols

    def join(self, plan: P.Join) -> _Rel:
        x, lcols = self.emit(plan.left)
        y, rcols = self.emit(plan.right)
        cols = lcols + rcols
        xq, yq = x.union(), y.union()
        keyed = plan.how != "cross" and bool(plan.conds)
        hk = None
        if self.skew and keyed:
            # Fig. 6 skew join: light⋈light shuffled, heavy⋈broadcast(heavy).
            lkey, rkey = (_key_name(sx) for sx in plan.conds[0])
            hk = x.keys
            if hk is None:
                hk = SK.heavy_keys(self.sql(xq), lkey)
            if hk:
                xs, ys = SK.split(xq, lkey, hk), SK.split(yq, rkey, hk)
                self.record("join:left(light)", xs.light)
                self.record("join:right(light)", ys.light)
                self.record("join:right(heavy)", ys.heavy, kind="broadcast")
                light = _join(xs.light, ys.light, plan, plan.broadcast_right)
                heavy = _join(xs.heavy, ys.heavy, plan, broadcast=True)
                return SK.SkewTriple(light, heavy, hk), cols
        if not keyed:
            self.record("join:left", xq)
            self.record("join:right(cross)", yq, kind="broadcast")
        elif plan.broadcast_right:
            self.record("join:right", yq, kind="broadcast")
        else:
            self.record("join:left", xq)
            self.record("join:right", yq)
        joined = _join(xq, yq, plan, plan.broadcast_right)
        return SK.SkewTriple(joined, None, hk), cols

    def repartition(self, plan: P.Repartition, t: SK.SkewTriple) -> SK.SkewTriple:
        label = f"repartition:{','.join(plan.cols)}"
        q = t.union()
        if not self.skew:
            self.record(label, q)
            return _one(_repartition(q, plan.cols))
        # Skew-aware BagToDict: repartition light labels only.
        hk = SK.heavy_keys(self.sql(q), plan.cols[0])
        s = SK.split(q, plan.cols[0], hk)
        self.record(label, s.light)
        return SK.SkewTriple(_repartition(s.light, plan.cols), s.heavy, hk)


def _one(query: str) -> SK.SkewTriple:
    return SK.SkewTriple(query, None, None)


def _each(t: SK.SkewTriple, f: Callable[[str], str]) -> SK.SkewTriple:
    heavy = None if t.heavy is None else f(t.heavy)
    return SK.SkewTriple(f(t.light), heavy, t.keys)


def _key_name(sx: SExpr) -> str:
    if isinstance(sx, Col):
        return sx.colname
    if isinstance(sx, RawCol):
        return sx.name
    raise TypeError(f"skew join key must be a column, got {sx!r}")


def _with_columns(query: str, cols: list[str], new: dict[str, str]) -> str:
    """``withColumns``: a new column with an existing name replaces it."""
    if not any(n in cols for n in new):
        sel = ["*"]
    else:
        sel = [f"{new[c]} AS {quote(c)}" if c in new else quote(c) for c in cols]
    sel += [f"{x} AS {quote(n)}" for n, x in new.items() if n not in cols]
    return f"SELECT {', '.join(sel)} FROM ({query})"


def _join(left: str, right: str, plan: P.Join, broadcast: bool) -> str:
    hint = "/*+ BROADCAST(r) */ " if broadcast else ""
    text = f"SELECT {hint}* FROM ({left}) AS l\n{_JOIN[plan.how]} ({right}) AS r"
    if plan.how != "cross" and plan.conds:
        text += "\nON " + " AND ".join(
            f"({to_sql(a)} = {to_sql(b)})" for a, b in plan.conds
        )
    return text


def _unnest(query: str, keep: list[str], out: list[str], plan: P.Unnest) -> str:
    gen = "explode_outer" if plan.outer else "explode"
    kept = [quote(c) for c in keep]
    exploded = ", ".join(
        [*kept, f"{gen}({quote(plan.src_col)}) AS `__elem`"]
    )
    fields = [
        f"`__elem`.{quote(f)} AS {quote(o)}"
        for (f, _), o in zip(plan.elem_fields, out)
    ]
    return (
        f"SELECT {', '.join(kept + fields)} FROM "
        f"(SELECT {exploded} FROM ({query}))"
    )


def _group_by(query: str, keys: tuple[str, ...], aggs: list[str]) -> str:
    keyq = [quote(k) for k in keys]
    text = f"SELECT {', '.join(keyq + aggs)} FROM ({query})"
    return text + (f"\nGROUP BY {', '.join(keyq)}" if keys else "")


def _nest_bag(query: str, plan: P.NestBag) -> str:
    fields = ", ".join(
        f"{sql_literal(n)}, {quote(c)}" for n, c in plan.struct_fields
    )
    agg = (
        f"collect_list(CASE WHEN {quote(plan.marker)} IS NOT NULL "
        f"THEN named_struct({fields}) END) AS {quote(plan.out)}"
    )
    return _group_by(query, plan.keys, [agg])


def _repartition(query: str, cols: tuple[str, ...]) -> str:
    by = ", ".join(quote(c) for c in cols)
    return f"SELECT /*+ REPARTITION({by}) */ * FROM ({query})"
