"""Spans around the program's public calls, recorded from outside ``src``.

:class:`Tracer` replaces a fixed set of module attributes with wrappers
for the duration of a traced run and puts the originals back on exit.
Each wrapper records a span (name, start, end, parent, cell) and sets
the Spark job description to the span's id, so every Spark job is
attributed to the innermost span open when it was submitted.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from pyspark import SparkContext

from repro.core.plan_ops import Plan
from sparkstats import DESCRIPTION


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    cell: str
    end: float = 0.0
    children_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


def plan_nodes(plan: Plan) -> int:
    """Operators in a plan tree (plans are frozen dataclasses)."""
    n = 1
    for f in dataclasses.fields(plan):
        v = getattr(plan, f.name)
        for c in v if isinstance(v, tuple) else (v,):
            if isinstance(c, Plan):
                n += plan_nodes(c)
    return n


def _unnest_counts(res: Any) -> dict[str, float]:
    return {"plan_nodes": plan_nodes(res.plan)}


def _shred_counts(res: Any) -> dict[str, float]:
    return {
        "assignments": len(res.assignments),
        "plan_nodes": sum(plan_nodes(p) for _, p in res.assignments),
    }


def _heavy_counts(res: Any) -> dict[str, float]:
    return {"found": len(res)}


# (module, attribute, span name, counts taken from the return value)
TARGETS: list[tuple[str, str, str, Optional[Callable[[Any], dict]]]] = [
    ("repro.core.api", "to_hierarchy", "hierarchy", None),
    ("repro.core.api", "compile_standard", "unnest", _unnest_counts),
    ("repro.core.api", "compile_shredded", "shred_materialize", _shred_counts),
    ("repro.spark_backend.dataset", "run", "dataset", None),
    ("repro.core.skew", "heavy_keys", "skew.heavy_keys", _heavy_counts),
    ("repro.core.api", "shred_df", "shred_repr.shred_df", None),
    ("repro.core.api", "unshred", "shred_repr.unshred", None),
    ("repro.core.api", "register_shredded", "api.register_shredded", None),
]


class Tracer:
    """In-memory span recorder; a no-op when ``enabled`` is false."""

    def __init__(self, sc: SparkContext, enabled: bool):
        self.sc = sc
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self.cell = ""

    def __enter__(self) -> "Tracer":
        if self.enabled:
            for mod_name, attr, name, counts in TARGETS:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(orig, name, counts))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                res = fn(*args, **kwargs)
                if counts is not None:
                    sp.counts.update(counts(res))
                return res

        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        if not self.enabled:
            yield Span(-1, name, 0.0, None, "")
            return
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            parent=parent.id if parent else None,
            cell=self.cell,
        )
        self.spans.append(sp)
        self._stack.append(sp)
        self.sc.setLocalProperty(DESCRIPTION, f"span:{sp.id}")
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent.children_s += sp.end - sp.start
            self.sc.setLocalProperty(DESCRIPTION, f"span:{parent.id}")
        else:
            self.sc.setLocalProperty(DESCRIPTION, None)

    def span_of_job(self, description: str) -> Optional[Span]:
        if description.startswith("span:"):
            return self.spans[int(description[len("span:"):])]
        return None

