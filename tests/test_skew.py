"""Skew-resilient processing (§5, Fig. 6)."""
import pytest
from pyspark.sql import functions as F

from repro.bench import tpch_queries as TQ
from repro.core import api
from repro.core import nrc_interp as I
from repro.core import plan_ops as P
from repro.core import skew as SK
from repro.core.sexpr import RawCol
from repro.core.unnest import compile_standard
from repro.spark_backend import dataset as DS
from repro.spark_backend.catalog import Catalog

from tests.utils import check, env_of, rows_of

SKEW_SF = 0.002
SKEW_Z = 3.0


@pytest.fixture(scope="module")
def skcat(spark):
    cat = TQ.load_tpch(spark, sf=SKEW_SF, skew=SKEW_Z)
    for name in list(cat.tables):
        cat.tables[name] = cat.tables[name].cache()
    env = env_of(cat)
    name = TQ.input_bag_name(2, False)
    c = compile_standard(
        TQ.hierarchy_for(TQ.flat_to_nested(2, False)), opt="full"
    )
    df = DS.run(c.plan, cat).cache()
    cat.add(name, df)
    env[name] = rows_of(df)
    api.register_shredded(cat, name, api.shred_df(df).cache())
    return {"cat": cat, "env": env, "input": name}


def test_zipf_generator_is_skewed(skcat):
    """Skewed l_orderkey: the top key should hold far more than its
    uniform share of lineitems."""
    li = skcat["cat"].get("Lineitem")
    top = (
        li.groupBy("l_orderkey").count().orderBy(F.desc("count")).first()
    )
    n, n_orders = li.count(), skcat["cat"].get("Orders").count()
    assert top["count"] > 20 * (n / n_orders)


def test_heavy_keys_found_on_skewed_data(skcat):
    hk = SK.heavy_keys(
        skcat["cat"].get("Lineitem"), "l_orderkey", sample_fraction=0.5
    )
    assert 1 in hk  # Zipf rank-1 key must be detected
    assert len(hk) <= 40 * 64  # threshold bound per partition


def test_heavy_keys_empty_on_uniform_data(spark):
    cat = TQ.load_tpch(spark, sf=SKEW_SF, skew=0.0)
    hk = SK.heavy_keys(cat.get("Lineitem"), "l_orderkey", sample_fraction=0.3)
    # uniform keys: nothing should clear the 2.5 % per-partition bar
    assert len(hk) <= 5


@pytest.fixture
def lineitem_query(skcat):
    """Lineitem bound as a temporary view, as a query text."""
    li = skcat["cat"].get("Lineitem")
    li.createOrReplaceTempView("skew_test_lineitem")
    yield "SELECT * FROM skew_test_lineitem"
    # The session catalog's drop leaves the cached Lineitem cached.
    li.sparkSession._jsparkSession.sessionState().catalog().dropTempView(
        "skew_test_lineitem"
    )


def test_split_partitions_rows(spark, skcat, lineitem_query):
    li = skcat["cat"].get("Lineitem")
    t = SK.split(lineitem_query, "l_orderkey", [1, 2])
    light, heavy = spark.sql(t.light), spark.sql(t.heavy)
    assert light.count() + heavy.count() == li.count()
    assert heavy.where(~F.col("l_orderkey").isin([1, 2])).count() == 0


def test_split_no_keys_is_all_light(spark, skcat, lineitem_query):
    li = skcat["cat"].get("Lineitem")
    t = SK.split(lineitem_query, "l_orderkey", [])
    assert t.heavy is None and spark.sql(t.light).count() == li.count()


def _count_heavy_key_calls(monkeypatch) -> list:
    calls: list = []
    sample = SK.heavy_keys

    def counted(df, key_col, *args, **kwargs):
        keys = sample(df, key_col, *args, **kwargs)
        calls.append(keys)
        return keys

    monkeypatch.setattr(SK, "heavy_keys", counted)
    return calls


def test_skew_join_matches_plain_join(skcat, monkeypatch):
    cat = skcat["cat"]
    join = P.Join(
        P.ScanRaw("Lineitem"), P.ScanRaw("Part"),
        ((RawCol("l_partkey"), RawCol("p_partkey")),), "inner",
    )
    plain = DS.run(join, cat).count()
    calls = _count_heavy_key_calls(monkeypatch)
    assert DS.run(join, cat, skew=True).count() == plain
    assert len(calls) == 1 and calls[0]  # heavy keys found and split on
    # heavy keys propagate through the join: a second join on the same
    # key reuses them instead of sampling again
    calls.clear()
    twice = P.Join(
        join, P.Project(P.ScanRaw("Part"), (("p2", RawCol("p_partkey")),)),
        ((RawCol("l_partkey"), RawCol("p2")),), "inner",
    )
    assert DS.run(twice, cat, skew=True).count() == plain
    assert len(calls) == 1


def test_skew_bag_to_dict_preserves_rows(skcat):
    name = f"{skcat['input']}__dict__corders__oparts"
    d = skcat["cat"].get(name)
    plan = P.Repartition(P.ScanRaw(name), ("label",))
    assert DS.run(plan, skcat["cat"], skew=True).count() == d.count()


def test_skew_bag_to_dict_struct_labels(spark):
    """Composite (struct-valued) labels can be heavy keys too."""
    rows = [((1, "x") if i % 10 else (i, "y"), i) for i in range(2000)]
    d = spark.createDataFrame(rows, "label struct<k:int, s:string>, v int")
    cat = Catalog().add("D", d.coalesce(1))
    plan = P.Repartition(P.ScanRaw("D"), ("label",))
    assert "UNION ALL" in DS.explain_sql(plan, cat, skew=True)  # split
    assert DS.run(plan, cat, skew=True).count() == len(rows)


def test_add_id_unique_across_skew_parts(skcat):
    """AddId over a split input: the heavy part's ids are offset, so
    they never meet the light part's (both start at partition 0)."""
    cat = skcat["cat"]
    plan = P.AddId(
        P.Join(
            P.ScanRaw("Lineitem"), P.ScanRaw("Part"),
            ((RawCol("l_partkey"), RawCol("p_partkey")),), "inner",
        ),
        "the_id",
    )
    assert "UNION ALL" in DS.explain_sql(plan, cat, skew=True)  # split
    got = (
        DS.run(plan, cat, skew=True)
        .agg(F.count("*").alias("n"), F.countDistinct("the_id").alias("ids"))
        .first()
    )
    assert got["n"] > 0 and got["ids"] == got["n"]


def test_standard_skew_route_correct(skcat):
    e = TQ.nested_to_nested(2, False)
    types = {
        **TQ.BASE_TYPES,
        skcat["input"]: TQ.flat_to_nested_type(2, False),
    }
    expected = I.evaluate(e, skcat["env"])
    df = api.standard_route(e, types, skcat["cat"], opt="full", skew=True)
    check(df, expected, "standard skew-aware")


def test_standard_skew_with_push_agg_correct(skcat):
    e = TQ.nested_to_nested(2, False)
    types = {
        **TQ.BASE_TYPES,
        skcat["input"]: TQ.flat_to_nested_type(2, False),
    }
    expected = I.evaluate(e, skcat["env"])
    df = api.standard_route(
        e, types, skcat["cat"], opt="full", skew=True, push_agg=True
    )
    check(df, expected, "standard skew-aware + pushed aggregation")


def test_shredded_skew_route_correct(skcat):
    e = TQ.nested_to_nested(2, False)
    types = {
        **TQ.BASE_TYPES,
        skcat["input"]: TQ.flat_to_nested_type(2, False),
    }
    expected = I.evaluate(e, skcat["env"])
    run = api.shredded_route(e, types, "sk_n2n", skcat["cat"], skew=True)
    check(api.unshred_result(run), expected, "shredded skew-aware")


def test_skew_flat_output_correct(skcat):
    e = TQ.nested_to_flat(2, False)
    types = {
        **TQ.BASE_TYPES,
        skcat["input"]: TQ.flat_to_nested_type(2, False),
    }
    expected = I.evaluate(e, skcat["env"])
    df = api.standard_route(e, types, skcat["cat"], opt="full", skew=True)
    check(df, expected, "nested-to-flat skew-aware")
    run = api.shredded_route(e, types, "sk_n2f", skcat["cat"], skew=True)
    check(run.flat, expected, "shredded nested-to-flat skew-aware")
