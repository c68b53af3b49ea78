"""Skew-resilient processing (§5, Fig. 6).

* :func:`heavy_keys` — lightweight per-partition sampling: a key is
  *heavy* when at least ``threshold`` (default 2.5 %) of the sampled
  tuples of some partition carry it.  The threshold bounds the number
  of heavy keys (≤ 100/2.5 = 40 per partition's sample), which keeps
  broadcasting them cheap.
* :class:`SkewTriple` — (light bag, heavy bag, heavy-key set), each bag
  a Spark SQL query text.
* :func:`split` — split a bag into a triple on known heavy keys.

The Dataset backend (:mod:`repro.spark_backend.dataset`) emits the
Fig. 6 operators over triples: the skew join runs light⋈light with the
standard shuffle join and heavy⋈broadcast(heavy side of the smaller
relation), so values of heavy keys in the big relation stay where they
are; BagToDict repartitions only the light labels; nest operators
merge the two components and run the standard implementation,
returning a triple with an empty heavy part.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from .sexpr import quote, sql_literal

DEFAULT_THRESHOLD = 0.025
DEFAULT_SAMPLE_FRACTION = 0.1
MIN_SAMPLE_PER_PARTITION = 20


@dataclass
class SkewTriple:
    """Light query, heavy query (None = empty), heavy keys (None = unknown).

    Both queries have the same output columns in the same order.
    """

    light: str
    heavy: Optional[str]
    keys: Optional[list]

    def union(self) -> str:
        if self.heavy is None:
            return self.light
        return f"({self.light})\nUNION ALL\n({self.heavy})"


def heavy_keys(
    df: DataFrame,
    key_col: str,
    threshold: float = DEFAULT_THRESHOLD,
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
) -> list:
    """Heavy key values of ``df[key_col]`` via per-partition sampling.

    Mirrors the paper's procedure: sample each partition, mark a key
    heavy when its share of that partition's sample reaches the
    threshold.  Null keys are never heavy.
    """
    sample = df.select(
        F.spark_partition_id().alias("__pid"), F.col(key_col).alias("__k")
    ).sample(fraction=sample_fraction, seed=7)
    counts = (
        sample.groupBy("__pid", "__k")
        .count()
        .withColumn(
            "__total", F.sum("count").over(Window.partitionBy("__pid"))
        )
    )
    rows = (
        counts.where(
            (F.col("count") >= threshold * F.col("__total"))
            & (F.col("__total") >= MIN_SAMPLE_PER_PARTITION)
            & F.col("__k").isNotNull()
        )
        .select("__k")
        .distinct()
        .collect()
    )
    return [r["__k"] for r in rows]


def split(query: str, key_col: str, keys: Optional[list]) -> SkewTriple:
    """Split the bag ``query`` into a skew-triple on known heavy keys.

    Rows with a NULL key are light.
    """
    if not keys:
        return SkewTriple(light=query, heavy=None, keys=keys or [])
    k = quote(key_col)
    is_heavy = f"{k} IN ({', '.join(sql_literal(v) for v in keys)})"
    return SkewTriple(
        light=f"SELECT * FROM ({query})\nWHERE (NOT {is_heavy}) OR ({k} IS NULL)",
        heavy=f"SELECT * FROM ({query})\nWHERE {is_heavy}",
        keys=keys,
    )
