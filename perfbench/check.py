"""Output checks against references that do not use the NRC compiler.

Rows are reduced to an order-insensitive canonical form: a row becomes
its sorted (field, value) pairs, a bag becomes the sorted list of its
elements' forms, and a float is kept to 9 significant digits.  Sums
taken in another order can still round to neighbouring 9-digit values
when the exact result ends in a 5, so rows left unmatched are paired up
by their non-float content and compared with a relative tolerance.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Any

import duckdb
from pyspark.sql import DataFrame, Row

from repro.spark_backend.catalog import Catalog


def canon(v: Any) -> Any:
    if isinstance(v, Row):
        v = v.asDict(recursive=False)
    if isinstance(v, dict):
        return tuple(sorted((k, canon(x)) for k, x in v.items()))
    if isinstance(v, (list, tuple)):
        return tuple(sorted((canon(x) for x in v), key=repr))
    if isinstance(v, float):
        return float(f"{v:.9g}")
    return v


def digest(rows: list) -> Counter:
    """Multiset of canonical rows."""
    return Counter(canon(r) for r in rows)


def rows_of(df: DataFrame) -> Counter:
    return digest(df.collect())


def duckdb_rows(cat: Catalog, sql: str, tables: list[str]) -> Counter:
    """Run ``sql`` in DuckDB over the named catalog tables."""
    con = duckdb.connect()
    try:
        for t in tables:
            con.register(t, cat.get(t).toPandas())
        res = con.execute(sql)
        names = [d[0] for d in res.description]
        return digest([dict(zip(names, r)) for r in res.fetchall()])
    finally:
        con.close()


def _shape(v: Any) -> Any:
    if isinstance(v, tuple):
        return tuple(_shape(x) for x in v)
    return None if isinstance(v, float) else v


def _close(a: Any, b: Any) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-12)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_close, a, b))
    return a == b


def mismatch(got: Counter, want: Counter) -> str:
    """Empty when equal, else a one-line description of the difference."""
    extra = sorted((got - want).elements(), key=lambda r: repr(_shape(r)))
    missing = sorted((want - got).elements(), key=lambda r: repr(_shape(r)))
    if len(extra) == len(missing) and all(map(_close, extra, missing)):
        return ""
    return (
        f"{sum(got.values())} rows vs {sum(want.values())} expected: "
        f"{len(extra)} unexpected, {len(missing)} missing"
    )


# Nested-to-flat over the base tables: the nesting only groups rows, so
# the query is a join of the flat inputs along the nesting path,
# aggregated by the top level's attributes (all of Nation's, as L3-wide).
N2F_L3_WIDE_DUCKDB = """
SELECT n.n_nationkey, n.n_name, n.n_regionkey, n.n_comment,
       p.p_name AS pname, sum(l.l_quantity * p.p_retailprice) AS total
FROM Nation n
JOIN Customer c ON c.c_nationkey = n.n_nationkey
JOIN Orders o ON o.o_custkey = c.c_custkey
JOIN Lineitem l ON l.l_orderkey = o.o_orderkey
JOIN Part p ON p.p_partkey = l.l_partkey
GROUP BY n.n_nationkey, n.n_name, n.n_regionkey, n.n_comment, p.p_name
"""
TPCH_TABLES = ["Nation", "Customer", "Orders", "Lineitem", "Part"]
