"""Dataset backend's SQL emitter: input binding, caching and explain_sql."""
import pytest
from pyspark.errors import AnalysisException
from pyspark.storagelevel import StorageLevel

from repro.bench import tpch_queries as TQ
from repro.core import api
from repro.core import plan_ops as P
from repro.core.sexpr import BinOp, Col, Lit
from repro.spark_backend import dataset as DS
from repro.spark_backend.catalog import Catalog

from tests.conftest import ensure_nested_input


def _cached(df) -> bool:
    # storageLevel asks Spark's cache manager; df.is_cached is only a
    # flag PySpark sets when .cache() is called.
    return df.storageLevel != StorageLevel.NONE


def _views(spark) -> set[str]:
    return {t.name for t in spark.catalog.listTables()}


def _reads_cache(df) -> bool:
    return "InMemoryRelation" in df._jdf.queryExecution().optimizedPlan().toString()


@pytest.mark.parametrize("skew", [False, True])
def test_run_keeps_inputs_cached(spark, tpch, skew):
    cat = tpch["cat"]
    name = ensure_nested_input(tpch, 2, False)
    types = {**TQ.BASE_TYPES, name: TQ.flat_to_nested_type(2, False)}
    cached = [n for n, df in cat.tables.items() if _cached(df)]
    assert name in cached
    views = _views(spark)
    e = TQ.nested_to_nested(2, False)
    run = api.shredded_route(e, types, f"cache_skew{int(skew)}", cat, skew=skew)
    assigned = [n for n, _ in run.compiled.assignments]
    try:
        # later assignments scan earlier ones, which stay persisted
        assert all(_cached(cat.get(n)) for n in assigned)
        outs = [
            api.standard_route(e, types, cat, skew=skew),
            DS.run(P.ScanRaw(run.compiled.top_name), cat, skew=skew),
        ]
        for out in outs:
            assert _reads_cache(out)
            out.count()
        assert [n for n in cached if not _cached(cat.get(n))] == []
        assert _views(spark) == views
    finally:
        for n in assigned:
            cat.get(n).unpersist()
            del cat.tables[n]


@pytest.fixture(scope="module")
def rs(spark):
    return Catalog().add(
        "R",
        spark.createDataFrame([(1, "it's"), (2, "b")], "k int, s string"),
    )


def test_explain_sql_is_the_statement_run(spark, rs):
    views = _views(spark)
    plan = P.Select(P.Scan("R", "r"), BinOp("==", Col("r", "s"), Lit("it's")))
    text = DS.explain_sql(plan, rs)
    assert text.startswith("SELECT") and "`r__s`" in text
    assert [r["r__k"] for r in DS.run(plan, rs).collect()] == [1]
    assert _views(spark) == views


def test_failing_statement_carries_its_sql(spark, rs):
    views = _views(spark)
    plan = P.Project(P.Scan("R", "r"), (("v", Col("r", "missing")),))
    with pytest.raises(AnalysisException) as exc:
        DS.run(plan, rs)
    notes = getattr(exc.value, "__notes__", [])
    assert any("SELECT `r__missing` AS `v` FROM" in n for n in notes)
    assert _views(spark) == views
