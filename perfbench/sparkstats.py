"""Real Spark metrics, read from Spark's own status store.

Every timed cell-repetition runs under its own job group, and its
numbers are read from the stages of that group's jobs only.  Totals are
never diffed across the whole store: the store drops old stages once it
holds ``spark.ui.retainedStages`` of them, which would make a diff go
negative in a long run.
"""
from __future__ import annotations

import threading
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

from pyspark import SparkContext

DESCRIPTION = "spark.job.description"


@dataclass
class GroupStats:
    """Spark work done by the jobs of one job group."""

    jobs: int = 0
    stages: int = 0
    skipped_stages: int = 0
    tasks: int = 0
    failed_tasks: int = 0
    executor_run_ms: int = 0
    executor_cpu_ns: int = 0
    gc_ms: int = 0
    spill_bytes: int = 0
    shuffle_write_bytes: int = 0
    shuffle_read_bytes: int = 0
    shuffle_records: int = 0
    # job description -> number of jobs carrying it (span attribution)
    jobs_by_description: Counter = field(default_factory=Counter)

    def add(self, other: "GroupStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def group_stats(sc: SparkContext, group: str) -> GroupStats:
    """Aggregate the stages of every job that ran under ``group``."""
    jsc = sc._jsc.sc()
    # Status events are delivered asynchronously; drain them first.
    jsc.listenerBus().waitUntilEmpty()
    store = jsc.statusStore()
    tracker = sc.statusTracker()
    out = GroupStats()
    stage_ids: set[int] = set()
    for jid in tracker.getJobIdsForGroup(group):
        info = tracker.getJobInfo(jid)
        if info is None:
            continue
        out.jobs += 1
        stage_ids.update(int(s) for s in info.stageIds)
        desc = store.job(jid).description()
        key = desc.get() if desc.isDefined() else ""
        out.jobs_by_description[key] += 1
    for sid in stage_ids:
        sd = store.lastStageAttempt(sid)
        out.stages += 1
        if sd.status().toString() == "SKIPPED":
            out.skipped_stages += 1
            continue
        out.tasks += sd.numCompleteTasks() + sd.numFailedTasks()
        out.failed_tasks += sd.numFailedTasks()
        out.executor_run_ms += sd.executorRunTime()
        out.executor_cpu_ns += sd.executorCpuTime()
        out.gc_ms += sd.jvmGcTime()
        out.spill_bytes += sd.memoryBytesSpilled() + sd.diskBytesSpilled()
        out.shuffle_write_bytes += sd.shuffleWriteBytes()
        out.shuffle_read_bytes += sd.shuffleReadBytes()
        out.shuffle_records += sd.shuffleWriteRecords()
    return out


def cached_rdds(sc: SparkContext) -> dict[int, int]:
    """RDD id -> bytes held in memory plus on disk, for cached RDDs."""
    out: dict[int, int] = {}
    for info in sc._jsc.sc().getRDDStorageInfo():
        if info.numCachedPartitions() > 0:
            out[info.id()] = info.memSize() + info.diskSize()
    return out


@dataclass
class Budgeted:
    """Outcome of one call run under :func:`job_group`."""

    seconds: float = 0.0
    error: str = ""


@contextmanager
def job_group(sc: SparkContext, group: str, budget_s: float):
    """Run the body under job group ``group``; cancel it after ``budget_s``.

    Yields a :class:`Budgeted` whose ``seconds`` is the wall time of the
    body.  An exception from the body, or a cancelled group, is recorded
    in ``error`` rather than raised, so the session stays usable for the
    next cell.
    """
    res = Budgeted()
    over = threading.Event()

    def cancel() -> None:
        over.set()
        sc.cancelJobGroup(group)

    sc.setJobGroup(group, group, interruptOnCancel=True)
    timer = threading.Timer(budget_s, cancel)
    timer.daemon = True
    timer.start()
    t0 = time.perf_counter()
    try:
        yield res
    except Exception as ex:  # a failed cell is a result, not a crash
        traceback.print_exc()
        first_line = (str(ex).splitlines() or [""])[0]
        res.error = f"{type(ex).__name__}: {first_line[:200]}"
    finally:
        res.seconds = time.perf_counter() - t0
        timer.cancel()
        timer.join()
        if over.is_set():
            res.error = f"over budget ({budget_s:.0f} s)"
        sc.setJobGroup("", "")
        sc.setLocalProperty(DESCRIPTION, None)
