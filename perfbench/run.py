"""Benchmark of the standard, shredded and skew-aware routes.

Run from the root of the repository::

    python3 perfbench/run.py --workload tpch-nested --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload, each in its own process.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it records the context of the run (source revision,
cores, Spark version and confs, scale, seed, per-cell medians).  Spark
writes its scratch files under ``.bench_build/`` in the repository.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
CORES = 4
DRIVER_MEMORY = "2g"
# Few shuffle partitions and no adaptive re-planning: on inputs this
# small, 64 partitions or AQE's extra jobs per query made every cell
# about twice as slow without changing what the routes do.
SQL_CONFS = {
    "spark.sql.shuffle.partitions": "4",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.adaptive.enabled": "false",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def source_revision() -> dict[str, str]:
    """The git sha when run from a clone, else a digest of ``src``."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
        return {"git_sha": sha}
    except (OSError, subprocess.SubprocessError):
        h = hashlib.sha256()
        for p in sorted(SRC.rglob("*.py")):
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
        return {"src_sha256": h.hexdigest()}


def start_spark(work: Path):
    """A ``local[4]`` session configured like the test suite's."""
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{CORES}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            # The whole heap from the start: no run pays for growing it.
            f"--conf spark.driver.extraJavaOptions=-Xms{DRIVER_MEMORY}",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={work / 'local'}",
            f"--conf spark.sql.warehouse.dir={work / 'warehouse'}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench")
    for k, v in SQL_CONFS.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM process to end."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)


def run_one(args: argparse.Namespace) -> int:
    work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    for d in ("local", "warehouse", "tmp"):
        (work / d).mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "local")
    # Both JVMs (the launcher and the driver) keep their files in ``work``.
    os.environ["JAVA_TOOL_OPTIONS"] = (
        f"-Djava.io.tmpdir={work / 'tmp'} -XX:-UsePerfData"
    )
    from bench import log

    log("starting Spark")
    spark = start_spark(work)
    log("Spark started")
    try:
        from bench import Bench
        from workloads import SCALE

        b = Bench(spark, args.workload, args.seed)
        st = b.set_up(traced=bool(args.trace))
        b.check_outputs(st)
        b.measure(st, args.seconds, traced=bool(args.trace))
        st.release()
        log("measured")
        attempted, failed = b.attempted_failed()
        metrics = b.per_layer() if args.trace else b.end_to_end()
        units = {
            m["name"]: m["unit"]
            for key in ("end_to_end", "per_layer")
            for m in json.loads(BENCHMARK.read_text())[key]
        }
        context = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            **source_revision(),
            "nproc": os.cpu_count(),
            "spark_version": spark.version,
            "confs": {
                "master": spark.sparkContext.master,
                "spark.driver.memory": DRIVER_MEMORY,
                "spark.driver.extraJavaOptions": spark.sparkContext.getConf().get(
                    "spark.driver.extraJavaOptions"
                ),
                **{k: spark.conf.get(k) for k in SQL_CONFS},
            },
            "scale": SCALE[args.workload],
            "setup_reps_s": b.setup_s,
            "passes": len(b.passes),
            "cell_median_s": b.cell_medians(),
            "check_failures": b.mismatched,
        }
        for name, v in metrics.items():
            log(f"{name:34s} {v:14.6f} {units[name]}")
        result = {
            "correct": not b.mismatched and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                k: {"value": v, "unit": units[k]} for k, v in metrics.items()
            },
        }
        print(json.dumps({"context": context}))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        stop_spark(spark)
        log("stopped")
        shutil.rmtree(work, ignore_errors=True)


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload in its own process, one after the other."""
    code = 0
    for w in names:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", w,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {w}: exit {proc.returncode}")
        if lines:
            print(lines[-1])
        code = code or proc.returncode
    return code


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "core" / "api.py").is_file():
        print(
            f"perfbench: the program's sources are missing under {SRC}; "
            "run from the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in [*WORKLOADS, "all"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
