"""The workloads: inputs made from a seed, cells, and references.

A *cell* is one (query, route) pair.  Its ``run`` is the timed body: it
calls the program's public routes and hands every output DataFrame to
``sink``.  Its ``comparable`` turns what ``run`` returned into the
DataFrame the output check collects (shredded results are unshredded
first, because labels are arbitrary ids).

A set-up generates and caches the inputs, materializes the nested input
through the standard route, and shreds and registers it.  After each
pass, everything the cells added to the catalog is unpersisted and
removed, so the next pass starts from the state the set-up left.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

from pyspark.sql import DataFrame, SparkSession

from repro.bench import tpch_queries as TQ
from repro.core import api
from repro.core import nrc as N
from repro.spark_backend import sparksql_competitor as SQL
from repro.spark_backend.catalog import Catalog

import check

Sink = Callable[[DataFrame], None]

# Input size.  It is kept small so that every run fits its time limit;
# at this size Spark's per-job and per-stage overhead is a large share
# of each cell.
TPCH_SF = 0.003
SKEW_ZIPF = 3.0


@dataclass
class Cell:
    query: str
    route: str  # standard | shred | unshred | standard_skew | shred_skew
    run: Callable[[Sink], Any]
    comparable: Callable[[Any], DataFrame]
    reference: Callable[[], Counter]

    @property
    def name(self) -> str:
        return f"{self.query}/{self.route}"


@dataclass
class Setup:
    """A cached catalog, the cells that run on it, and set-up timings."""

    catalog: Catalog
    cells: list[Cell]
    phases: dict[str, float]
    cached: list[DataFrame]
    base: dict[str, DataFrame] = field(default_factory=dict)

    def snapshot(self) -> None:
        self.base = dict(self.catalog.tables)

    def added(self) -> dict[str, DataFrame]:
        return {
            n: df
            for n, df in self.catalog.tables.items()
            if self.base.get(n) is not df
        }

    def reset(self) -> None:
        """Unpersist and drop what the cells added since the snapshot."""
        for df in self.added().values():
            df.unpersist(blocking=True)
        self.catalog.tables.clear()
        self.catalog.tables.update(self.base)

    def release(self) -> None:
        self.reset()
        for df in self.cached:
            df.unpersist(blocking=True)


def _cache(df: DataFrame, keep: list[DataFrame]) -> DataFrame:
    df = df.cache()
    df.count()
    keep.append(df)
    return df


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------


def standard_cell(query, route, e, types, cat, reference, **kw) -> Cell:
    def run(sink: Sink) -> DataFrame:
        df = api.standard_route(e, types, cat, opt="full", **kw)
        sink(df)
        return df

    return Cell(query, route, run, lambda df: df, reference)


def shred_cell(query, route, e, types, cat, qname, reference, **kw) -> Cell:
    unshred = route == "unshred"

    def run(sink: Sink) -> api.ShreddedRun:
        res = api.shredded_route(e, types, qname, cat, **kw)
        sink(res.shredded.top)
        for d in res.shredded.dicts.values():
            sink(d)
        if unshred:
            sink(api.unshred_result(res))
        return res

    def comparable(res: api.ShreddedRun) -> DataFrame:
        return api.unshred_result(res) if res.shredded.dicts else res.flat

    return Cell(query, route, run, comparable, reference)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def _tpch_setup(
    spark: SparkSession, seed: int, skew: float, level: int, wide: bool
) -> tuple[Catalog, dict[str, float], list[DataFrame]]:
    """TPC-H-lite inputs plus one nested input, shredded and registered."""
    keep: list[DataFrame] = []
    phases: dict[str, float] = {}

    @contextmanager
    def phase(name: str):
        t0 = time.perf_counter()
        yield
        phases[name] = time.perf_counter() - t0

    with phase("generate"):
        cat = TQ.load_tpch(spark, sf=TPCH_SF, skew=skew, seed=seed)
        for name in list(cat.tables):
            cat.tables[name] = _cache(cat.tables[name], keep)
    name = TQ.input_bag_name(level, wide)
    with phase("nested_input"):
        df = api.standard_route(TQ.flat_to_nested(level, wide), TQ.BASE_TYPES, cat)
        cat.add(name, _cache(df, keep))
    with phase("shred_input"):
        s = api.shred_df(cat.get(name))
        s.top = _cache(s.top, keep)
        s.dicts = {p: _cache(d, keep) for p, d in s.dicts.items()}
        api.register_shredded(cat, name, s)
    return cat, phases, keep


def _types(level: int, wide: bool) -> dict[str, N.Type]:
    name = TQ.input_bag_name(level, wide)
    return {**TQ.BASE_TYPES, name: TQ.flat_to_nested_type(level, wide)}


def _sql_reference(spark, cat, sql) -> Callable[[], Counter]:
    return functools.cache(lambda: check.rows_of(SQL.run_sql(spark, cat, sql)))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def tpch_nested(spark: SparkSession, seed: int) -> Setup:
    """Uniform data; nested-to-nested and nested-to-flat on L3-wide."""
    level, wide = 3, True
    cat, phases, keep = _tpch_setup(spark, seed, 0.0, level, wide)
    t = _types(level, wide)
    n2n = TQ.nested_to_nested(level, wide)
    n2n_ref = _sql_reference(
        spark, cat,
        SQL.nested_to_nested_sql(level, wide, TQ.input_bag_name(level, wide)),
    )
    n2f = TQ.nested_to_flat(level, wide)
    n2f_ref = functools.cache(
        lambda: check.duckdb_rows(cat, check.N2F_L3_WIDE_DUCKDB, check.TPCH_TABLES)
    )
    q, f = "n2n-L3-wide", "n2f-L3-wide"
    cells = [
        standard_cell(q, "standard", n2n, t, cat, n2n_ref),
        shred_cell(q, "shred", n2n, t, cat, "n2n3s", n2n_ref),
        shred_cell(q, "unshred", n2n, t, cat, "n2n3u", n2n_ref),
        standard_cell(f, "standard", n2f, t, cat, n2f_ref),
        shred_cell(f, "shred", n2f, t, cat, "n2f3s", n2f_ref),
    ]
    return Setup(cat, cells, phases, keep)


def tpch_skew(spark: SparkSession, seed: int) -> Setup:
    """Zipf-skewed data; the routes of Fig. 8 on n2n-L1-narrow.

    One level of nesting, not Fig. 8's two: at two levels the share of
    lineitems under the heaviest customer depends on whether the
    heaviest orders fall to one customer, which changes from seed to
    seed by up to 1.8x and moves the run time with it.  The heaviest
    order and part hold a share of lineitems that does not.
    """
    level, wide = 1, False
    cat, phases, keep = _tpch_setup(spark, seed, SKEW_ZIPF, level, wide)
    e = TQ.nested_to_nested(level, wide)
    t = _types(level, wide)
    ref = _sql_reference(
        spark, cat,
        SQL.nested_to_nested_sql(level, wide, TQ.input_bag_name(level, wide)),
    )
    # The configuration of Fig. 8: skew-unaware routes push aggregation,
    # skew-aware routes do not.
    q = "n2n-L1-narrow"
    cells = [
        standard_cell(q, "standard", e, t, cat, ref, push_agg=True),
        standard_cell(q, "standard_skew", e, t, cat, ref, push_agg=False, skew=True),
        shred_cell(q, "shred", e, t, cat, "n2n1s", ref),
        shred_cell(q, "shred_skew", e, t, cat, "n2n1k", ref, skew=True),
    ]
    return Setup(cat, cells, phases, keep)


WORKLOADS: dict[str, Callable[[SparkSession, int], Setup]] = {
    "tpch-nested": tpch_nested,
    "tpch-skew": tpch_skew,
}

SCALE = {
    "tpch-nested": {"tpch_sf": TPCH_SF, "zipf": 0.0},
    "tpch-skew": {"tpch_sf": TPCH_SF, "zipf": SKEW_ZIPF},
}
