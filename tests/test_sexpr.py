"""Scalar expression AST: Python evaluation, Spark SQL compilation, columns."""
import pytest
from pyspark.sql import types as T

from repro.core.sexpr import (
    BinOp,
    Col,
    GetField,
    IfScalar,
    IsNotNull,
    Lit,
    MkStruct,
    Not,
    RawCol,
    cname,
    columns_of,
    eval_row,
    to_sql,
)

ROW = {"x__a": 3, "x__b": 2.0, "y__c": 7, "raw": "s", "n": None}


@pytest.mark.parametrize(
    "op,l,r,expected",
    [
        ("+", 3, 4, 7),
        ("-", 3, 4, -1),
        ("*", 3, 4, 12),
        ("/", 8, 4, 2.0),
        ("==", 3, 3, True),
        ("==", 3, 4, False),
        ("!=", 3, 4, True),
        ("<", 3, 4, True),
        ("<=", 4, 4, True),
        (">", 5, 4, True),
        (">=", 3, 4, False),
        ("&&", True, False, False),
        ("&&", True, True, True),
        ("||", False, True, True),
        ("||", False, False, False),
    ],
)
def test_binop_eval(op, l, r, expected):
    assert eval_row(BinOp(op, Lit(l), Lit(r)), {}) == expected


@pytest.mark.parametrize("op", ["+", "-", "*", "/", "==", "<", ">="])
def test_binop_null_propagates(op):
    assert eval_row(BinOp(op, Lit(1), RawCol("n")), ROW) is None


def test_col_naming_convention():
    assert cname("x", "a") == "x__a"
    assert Col("x", "a").colname == "x__a"


def test_col_eval():
    assert eval_row(Col("x", "a"), ROW) == 3
    assert eval_row(RawCol("raw"), ROW) == "s"


def test_missing_col_is_null():
    assert eval_row(Col("z", "zz"), ROW) is None


def test_not_eval():
    assert eval_row(Not(Lit(True)), {}) is False
    assert eval_row(Not(RawCol("n")), ROW) is None


def test_if_scalar():
    e = IfScalar(BinOp(">", Col("x", "a"), Lit(1)), Lit("big"), Lit("small"))
    assert eval_row(e, ROW) == "big"
    assert eval_row(e, {"x__a": 0}) == "small"


def test_is_not_null():
    assert eval_row(IsNotNull(Col("x", "a")), ROW) is True
    assert eval_row(IsNotNull(RawCol("n")), ROW) is False


def test_mkstruct_getfield_eval():
    s = MkStruct((("p", Col("x", "a")), ("q", Col("y", "c"))))
    assert eval_row(s, ROW) == {"p": 3, "q": 7}
    assert eval_row(GetField(s, "q"), ROW) == 7
    assert eval_row(GetField(RawCol("n"), "q"), ROW) is None


def test_columns_of():
    e = BinOp(
        "+",
        IfScalar(IsNotNull(Col("x", "a")), Col("x", "b"), Lit(0)),
        GetField(MkStruct((("p", RawCol("raw")),)), "p"),
    )
    assert columns_of(e) == {"x__a", "x__b", "raw"}


def test_columns_of_literal_empty():
    assert columns_of(Lit(5)) == set()


@pytest.mark.parametrize(
    "expr,expected",
    [
        (BinOp("*", Col("x", "a"), Lit(2)), 6),
        (BinOp("&&", BinOp(">", Col("x", "a"), Lit(0)), Lit(True)), True),
        (IfScalar(Lit(False), Lit(1), Lit(2)), 2),
    ],
)
def test_spark_eval_matches_python(spark, expr, expected):
    df = spark.createDataFrame(
        [{k: v for k, v in ROW.items() if v is not None}]
    )
    got = df.selectExpr(f"{to_sql(expr)} AS v").collect()[0]["v"]
    assert got == expected


def test_spark_struct_and_getfield(spark):
    df = spark.createDataFrame([{"x__a": 3, "y__c": 7}])
    e = GetField(MkStruct((("p", Col("x", "a")), ("q", Col("y", "c")))), "q")
    assert df.selectExpr(f"{to_sql(e)} AS v").collect()[0]["v"] == 7


def test_spark_is_not_null(spark):
    df = spark.createDataFrame([{"a": 1, "b": None}], "a int, b int")
    e = IsNotNull(RawCol("b"))
    assert df.selectExpr(f"{to_sql(e)} AS v").collect()[0]["v"] is False


def _typed(spark, e):
    """(Spark type, value) of ``e`` evaluated by Spark SQL."""
    df = spark.range(1).selectExpr(f"{to_sql(e)} AS v")
    return df.schema["v"].dataType, df.collect()[0]["v"]


def test_sql_real_literal_is_double(spark):
    for v in (1.5, -2.5, 1e-05, 1e20):
        dt, got = _typed(spark, Lit(v))
        assert isinstance(dt, T.DoubleType) and got == v
    dt, got = _typed(spark, BinOp("+", Lit(1), Lit(-0.5)))
    assert isinstance(dt, T.DoubleType) and got == 0.5


def test_sql_big_int_literal_is_long(spark):
    dt, got = _typed(spark, Lit(1 << 31))
    assert isinstance(dt, T.LongType) and got == 1 << 31
    dt, got = _typed(spark, Lit((1 << 31) - 1))
    assert isinstance(dt, T.IntegerType) and got == (1 << 31) - 1


def test_sql_string_literal_escaped(spark):
    s = "it's a \\path\\ -- not a comment"
    dt, got = _typed(spark, Lit(s))
    assert isinstance(dt, T.StringType) and got == s


def test_sql_null_literal_as_if_branch(spark):
    e = IfScalar(Lit(True), Lit(None), Lit(2))
    dt, got = _typed(spark, e)
    assert isinstance(dt, T.IntegerType) and got is None
    assert _typed(spark, IfScalar(Lit(False), Lit(None), Lit(2)))[1] == 2


def test_unknown_sexpr_raises():
    class Weird:  # not an SExpr
        pass

    with pytest.raises(TypeError):
        eval_row(Weird(), {})  # type: ignore[arg-type]
