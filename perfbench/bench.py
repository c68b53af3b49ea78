"""One workload in one process: set-up, output check, timed passes.

The load is a closed loop: one client runs one cell at a time, and a
*pass* runs every cell of the workload once.  Passes repeat until the
measuring time is used up; every metric is the median over passes.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

import check
from sparkstats import GroupStats, cached_rdds, group_stats, job_group
from spans import Tracer
from workloads import WORKLOADS, Cell, Setup

SETUP_REPS = 3
CELL_BUDGET_S = 60.0
# The host's speed drifts while a run lasts: one pass in a few is much
# slower than the others.  The median of three passes sets it aside.
MIN_PASSES = 3
ROUTE_METRIC = {
    "standard": "standard_s",
    "shred": "shred_s",
    "unshred": "unshred_s",
    "standard_skew": "standard_skew_s",
    "shred_skew": "shred_skew_s",
}
MB = 1e6


_T0 = time.perf_counter()


def log(msg: str) -> None:
    t = time.perf_counter() - _T0
    print(f"[perfbench {t:7.2f}] {msg}", file=sys.stderr, flush=True)


@dataclass
class PassResult:
    traced: bool
    pass_s: float
    cell_s: dict[str, float]
    route_s: dict[str, float]
    shuffle_bytes: dict[str, int]
    failed: list[str]
    held_bytes: int
    persisted: int
    layers: dict[str, float] = field(default_factory=dict)


class Bench:
    def __init__(self, spark: SparkSession, workload: str, seed: int):
        self.spark = spark
        self.sc = spark.sparkContext
        self.workload = workload
        self.seed = seed
        self.tracer = Tracer(self.sc, enabled=False)
        self.setup_s: list[float] = []
        self.setup_phases: list[dict[str, float]] = []
        self.first_bytes: dict[str, int] = {}
        self.mismatched: dict[str, str] = {}
        self.passes: list[PassResult] = []

    # -- set-up -------------------------------------------------------------

    def set_up(self, traced: bool) -> Setup:
        """Set up SETUP_REPS times; keep the last set-up for the passes."""
        st = None
        for i in range(SETUP_REPS):
            if st is not None:
                st.release()
            self.tracer.enabled = traced
            with self.tracer:
                t0 = time.perf_counter()
                st = WORKLOADS[self.workload](self.spark, self.seed)
                self.setup_s.append(time.perf_counter() - t0)
            self.setup_phases.append(st.phases)
            log(
                f"set-up {i + 1}/{SETUP_REPS}: {self.setup_s[-1]:.3f} s "
                + " ".join(f"{k}={v:.3f}" for k, v in st.phases.items())
            )
        st.snapshot()
        self.baseline_rdds = set(cached_rdds(self.sc))
        return st

    # -- output check -------------------------------------------------------

    def check_outputs(self, st: Setup) -> None:
        """Run every cell once, untimed, and compare it to its reference.

        The cell writes its outputs to the sink first, exactly as in a
        timed pass, so this pass also warms up the timed code path and
        gives the shuffle bytes every timed repetition must repeat.
        """
        self.tracer.enabled = False
        for ci, cell in enumerate(st.cells):
            group = f"perfbench-check-{ci}"
            with job_group(self.sc, group, CELL_BUDGET_S) as res:
                out = cell.run(self._sink)
            stats = group_stats(self.sc, group)
            self.first_bytes[cell.name] = stats.shuffle_write_bytes
            diff = res.error
            if not diff:
                with job_group(self.sc, f"{group}-collect", CELL_BUDGET_S) as res:
                    got = check.rows_of(cell.comparable(out))
                    diff = check.mismatch(got, cell.reference())
                diff = res.error or diff
            if diff:
                self.mismatched[cell.name] = diff
                log(f"CHECK FAILED {cell.name}: {diff}")
            else:
                log(f"check ok {cell.name}: {sum(got.values())} rows")
        st.reset()

    # -- timed passes -------------------------------------------------------

    def _sink(self, df: DataFrame) -> None:
        with self.tracer.span("spark.sink"):
            df.write.format("noop").mode("overwrite").save()

    def run_pass(self, st: Setup, traced: bool) -> PassResult:
        n = len(self.passes)
        self.tracer.enabled = traced
        first_span = len(self.tracer.spans)
        cell_s: dict[str, float] = {}
        route_s: dict[str, float] = defaultdict(float)
        shuffle: dict[str, int] = {}
        failed: list[str] = []
        total = GroupStats()
        t_stats = 0.0
        with self.tracer:
            for ci, cell in enumerate(st.cells):
                group = f"perfbench-p{n}-{ci}"
                self.tracer.cell = cell.name
                with job_group(self.sc, group, CELL_BUDGET_S) as res:
                    with self.tracer.span("cell"):
                        cell.run(self._sink)
                t0 = time.perf_counter()
                stats = group_stats(self.sc, group)
                t_stats += time.perf_counter() - t0
                total.add(stats)
                cell_s[cell.name] = res.seconds
                route_s[ROUTE_METRIC[cell.route]] += res.seconds
                shuffle[cell.name] = stats.shuffle_write_bytes
                err = res.error or self._shuffle_changed(cell, stats)
                if err or cell.name in self.mismatched:
                    failed.append(cell.name)
                if err:
                    log(f"CELL FAILED {cell.name} (pass {n}): {err}")
        pass_s = sum(cell_s.values())
        held = sum(
            b for rid, b in cached_rdds(self.sc).items()
            if rid not in self.baseline_rdds
        )
        persisted = sum(1 for df in st.added().values() if df.is_cached)
        st.reset()
        pr = PassResult(
            traced, pass_s, cell_s, dict(route_s), shuffle, failed, held,
            persisted,
        )
        if traced:
            pr.layers = self._layers(first_span, total)
        self.passes.append(pr)
        log(
            f"pass {n}{' traced' if traced else ''}: {pass_s:.3f} s, "
            f"shuffle {sum(shuffle.values()) / MB:.3f} MB, "
            f"held {held / MB:.3f} MB, failed {len(failed)}, "
            f"stats read in {t_stats:.3f} s; "
            + " ".join(f"{c}={t:.3f}" for c, t in cell_s.items())
        )
        return pr

    def _shuffle_changed(self, cell: Cell, stats: GroupStats) -> str:
        """A repetition must move the same shuffle bytes as the checked
        one; a cell served from Spark's cache would read 0 bytes."""
        first = self.first_bytes[cell.name]
        if stats.shuffle_write_bytes != first:
            return (
                f"shuffle write bytes {stats.shuffle_write_bytes} differ from "
                f"the first repetition's {first}"
            )
        return ""

    def _layers(self, first_span: int, total: GroupStats) -> dict[str, float]:
        spans = self.tracer.spans[first_span:]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, float] = defaultdict(float)
        useful = 0
        for sp in spans:
            self_s[sp.name] += sp.self_s
            calls[sp.name] += 1
            for k, v in sp.counts.items():
                counts[f"{sp.name}.{k}"] += v
            if sp.name == "skew.heavy_keys" and sp.counts.get("found", 0) > 0:
                useful += 1
        jobs: dict[str, int] = defaultdict(int)
        for desc, k in total.jobs_by_description.items():
            sp = self.tracer.span_of_job(desc)
            jobs[sp.name if sp else ""] += k
        hk_calls = calls["skew.heavy_keys"]
        return {
            "hierarchy.self_s": self_s["hierarchy"],
            "unnest.self_s": self_s["unnest"],
            "unnest.plan_nodes": counts["unnest.plan_nodes"],
            "shred_materialize.self_s": self_s["shred_materialize"],
            "shred_materialize.assignments": counts["shred_materialize.assignments"],
            "shred_materialize.plan_nodes": counts["shred_materialize.plan_nodes"],
            "dataset.calls": calls["dataset"],
            "dataset.self_s": self_s["dataset"],
            "skew.heavy_keys_calls": hk_calls,
            "skew.heavy_keys_self_s": self_s["skew.heavy_keys"],
            "skew.heavy_keys_found": counts["skew.heavy_keys.found"],
            "skew.useful_frac": useful / hk_calls if hk_calls else 0.0,
            "skew.jobs": jobs["skew.heavy_keys"],
            "shred_repr.unshred_self_s": self_s["shred_repr.unshred"],
            "spark.sink_s": self_s["spark.sink"],
            "spark.jobs": total.jobs,
            "spark.stages": total.stages,
            "spark.skipped_stages": total.skipped_stages,
            "spark.tasks": total.tasks,
            "spark.failed_tasks": total.failed_tasks,
            "spark.executor_run_s": total.executor_run_ms / 1e3,
            "spark.executor_cpu_s": total.executor_cpu_ns / 1e9,
            "spark.gc_s": total.gc_ms / 1e3,
            "spark.spill_mb": total.spill_bytes / MB,
            "spark.shuffle_write_mb": total.shuffle_write_bytes / MB,
            "spark.shuffle_read_mb": total.shuffle_read_bytes / MB,
            "spark.shuffle_records": total.shuffle_records,
        }

    def measure(self, st: Setup, seconds: float, traced: bool) -> None:
        """Timed passes until ``seconds`` have passed, at least MIN_PASSES
        (four, two of them traced, in a traced run).

        A traced run alternates untraced and traced passes, so that the
        tracing overhead is measured in the same process.
        """
        t0 = time.perf_counter()
        i = 0
        n = 4 if traced else MIN_PASSES
        while i < n or time.perf_counter() - t0 < seconds:
            self.run_pass(st, traced=traced and i % 2 == 1)
            i += 1

    # -- results ------------------------------------------------------------

    def attempted_failed(self) -> tuple[int, int]:
        attempted = sum(len(p.cell_s) for p in self.passes)
        return attempted, sum(len(p.failed) for p in self.passes)

    def end_to_end(self) -> dict[str, float]:
        ps = [p for p in self.passes if not p.traced]
        attempted, failed = self.attempted_failed()
        med = statistics.median
        return {
            "setup_s": med(self.setup_s),
            "pass_s": med(p.pass_s for p in ps),
            "standard_s": med(p.route_s.get("standard_s", 0.0) for p in ps),
            "shred_s": med(p.route_s.get("shred_s", 0.0) for p in ps),
            "shuffle_mb": med(sum(p.shuffle_bytes.values()) for p in ps) / MB,
            "held_mb": med(p.held_bytes for p in ps) / MB,
            "ok_frac": 1.0 - failed / attempted,
        }

    def per_layer(self) -> dict[str, float]:
        med = statistics.median
        traced = [p for p in self.passes if p.traced]
        plain = [p for p in self.passes if not p.traced]
        out = {k: med(p.layers[k] for p in traced) for k in traced[0].layers}
        out["api.persisted"] = med(p.persisted for p in traced)
        for phase in ("generate", "nested_input", "shred_input"):
            out[f"setup.{phase}_s"] = med(
                ph.get(phase, 0.0) for ph in self.setup_phases
            )
        for route in ("unshred_s", "standard_skew_s", "shred_skew_s"):
            out[f"route.{route}"] = med(p.route_s.get(route, 0.0) for p in plain)
        out["trace.overhead_s"] = med(p.pass_s for p in traced) - med(
            p.pass_s for p in plain
        )
        attempted, failed = self.attempted_failed()
        out["cells.fail_frac"] = failed / attempted
        return out

    def cell_medians(self) -> dict[str, float]:
        ps = [p for p in self.passes if not p.traced]
        return {
            c: statistics.median(p.cell_s[c] for p in ps) for c in ps[0].cell_s
        }
