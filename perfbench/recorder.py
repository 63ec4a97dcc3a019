"""Traced-run recorder: spans around the calls into each ldme layer.

The package source is left untouched. Callers inside ldme import functions
by name (``from .wdata import approx_top_eigenpair``), so a wrapper is
installed in the module where the name is *looked up*, not where it is
defined. Every wrapped call becomes a span with its parent span; spans stay
in memory until ``dump``. Branch outcome counts come from the driver's
``observer=`` callback, which the ``list_decode_mean`` wrapper supplies.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module the name is looked up in, attribute, span name). A span name is
# "<layer>.<what>"; "driver" and "cli" are whole layers.
TARGETS = (
    ("ldme.cli", "main", "cli"),
    ("ldme.cli", "run_sweep", "experiment.sweep"),
    ("ldme.experiment", "run_experiment", "experiment.run"),
    ("ldme.experiment", "gen_instance", "instances.gen"),
    ("ldme.instances", "gen_instance", "instances.gen"),
    ("ldme.instances", "load_points", "dataio.load"),
    ("ldme.experiment", "save_hypotheses_json", "dataio.save"),
    ("ldme.experiment", "list_decode_mean", "driver"),
    ("ldme.driver", "list_decode_mean", "driver"),
    ("ldme.driver", "approx_top_eigenpair", "wdata.eig"),
    ("ldme.driver", "weighted_mean", "wdata.mean"),
    ("ldme.driver", "basic_multifilter", "multifilter.filter"),
    ("ldme.multifilter", "project", "wdata.project"),
    ("ldme.multifilter", "weighted_variance", "wdata.variance"),
    ("ldme.multifilter", "quantile_interval", "multifilter.quantile"),
    ("ldme.multifilter", "truncated_variance", "multifilter.truncvar"),
    ("ldme.multifilter", "soft_downweight", "multifilter.downweight"),
    ("ldme.multifilter", "find_split", "multifilter.find_split"),
    ("ldme.experiment", "reduce_list", "listreduce.reduce"),
    ("ldme.listreduce", "reduce_list", "listreduce.reduce"),
    ("ldme.experiment", "evaluate", "report.evaluate"),
    ("ldme.experiment", "write_trace_csv", "report.trace_csv"),
)


@dataclass(frozen=True)
class Span:
    """One timed call; ``parent`` is the id of the enclosing span or None."""

    id: int
    parent: int | None
    name: str
    op: int | None
    start: float
    end: float
    thread: int
    nbytes: int = 0


@dataclass
class LayerTime:
    """Seconds in all spans of one name within an operation."""

    total: float = 0.0
    self_: float = 0.0
    calls: int = 0
    nbytes: int = 0


def _union_length(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, end)
        if hi > lo:
            covered += hi - lo
            end = hi
    return covered


class Recorder:
    """Collects spans and driver counts, keyed by operation index."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op: int | None = None
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, nbytes: int = 0):
        """Time the body as a span; worker threads hang off the op thread."""
        stack = self._stack()
        parents = stack or self._op_stack
        parent = parents[-1] if parents else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, parent, name, self._op, start, end, threading.get_ident(), nbytes)
            )

    def _observe(self, step) -> None:
        with self._lock:
            c = self.counts[self._op]
            c["passes"] += 1
            c[step.result.outcome.tag] += 1
            c["pruned"] += len(step.pruned_ids)
            c["max_depth"] = max(c["max_depth"], step.branch.depth)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "driver":
                outer = kwargs.get("observer")

                def observer(step):
                    self._observe(step)
                    if outer is not None:
                        outer(step)

                kwargs["observer"] = observer
            nbytes = os.path.getsize(args[0]) if name == "dataio.load" else 0
            with self.span(name, nbytes):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def tracing(self, op: int):
        """Install every wrapper for the body; spans are filed under ``op``."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            self._op = op
            self._op_stack = self._stack()
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._op = None
            self._op_stack = []

    def layer_times(self, op: int) -> dict[str, LayerTime]:
        """Total and self seconds per span name for one operation.

        Self time is a span's duration minus the part of it covered by its
        child spans; children may run on other threads and overlap.
        """
        spans = [s for s in self.spans if s.op == op]
        children: dict[int | None, list[Span]] = defaultdict(list)
        for s in spans:
            children[s.parent].append(s)
        out: dict[str, LayerTime] = defaultdict(LayerTime)
        for s in spans:
            kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
            lt = out[s.name]
            lt.total += s.end - s.start
            lt.self_ += s.end - s.start - _union_length(kids)
            lt.calls += 1
            lt.nbytes += s.nbytes
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line, times relative to the first."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "parent": s.parent,
                            "name": s.name,
                            "op": s.op,
                            "start": s.start - origin,
                            "end": s.end - origin,
                            "thread": s.thread,
                            "bytes": s.nbytes,
                        }
                    )
                    + "\n"
                )
