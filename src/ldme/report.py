"""Experiment reports: accuracy metrics, search-tree counts, serialization."""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter

import numpy as np

from .driver import DriverStep, HypothesisList, TraceEvent

TRACE_COLUMNS = (
    "branch_id",
    "parent_id",
    "depth",
    "tag",
    "lambda_star",
    "wT_before",
    "wT_after",
    "wS_before",
    "wS_after",
)
# A TraceEvent's fields as a plain tuple, in TRACE_COLUMNS order; unlike
# dataclasses.astuple it copies nothing.
_event_row = attrgetter(*(f.name for f in fields(TraceEvent)))


def evaluate(hyps: HypothesisList, true_mean) -> dict:
    """Distance of the best hypothesis to the true mean.

    Returns a dict with min_error and the argmin index.
    """
    if len(hyps) == 0:
        raise ValueError("cannot evaluate an empty hypothesis list")
    mu = np.asarray(true_mean, dtype=np.float64)
    dists = np.linalg.norm(hyps.vectors - mu, axis=1)
    best = int(np.argmin(dists))
    return {"min_error": float(dists[best]), "best_index": best}


class TreeCounts:
    """Observer of the driver's steps that counts the search tree.

    passes counts processed branches, branches the root plus every child
    created, by_tag the trace events the steps stand for, and max_depth is
    the deepest processed branch. None of them needs a recorded trace.
    """

    def __init__(self) -> None:
        self.passes, self.branches, self.max_depth = 0, 1, 0
        self.by_tag: Counter[str] = Counter()

    def __call__(self, step: DriverStep) -> None:
        tag = step.result.outcome.tag
        self.passes += 1
        self.branches += len(step.child_ids) + len(step.pruned_ids)
        self.max_depth = max(self.max_depth, step.branch.depth)
        if tag == "certified":
            self.by_tag[tag] += 1
        else:
            self.by_tag[tag] += len(step.child_ids)
            self.by_tag["pruned"] += len(step.pruned_ids)

    def summary(self) -> dict:
        by_tag = {tag: count for tag, count in self.by_tag.items() if count}
        events = sum(by_tag.values())
        return {"events": events, "by_tag": by_tag, "max_depth": self.max_depth}


def write_trace_csv(path, events: list[TraceEvent]) -> None:
    """One row per event in TRACE_COLUMNS order; floats are written at full
    precision, and inlier masses that were not recorded as empty cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(map(_event_row, events))


@dataclass
class Report:
    """Final summary of one end-to-end run.

    iterations, branches and trace_summary are the TreeCounts of the run,
    so they read the same whether or not the trace was recorded.
    wall_time_s covers generation, estimation, reduction and evaluation. In
    a seed sweep it leaves out the outlier file read, which the seeds share.
    """

    config: dict
    list_size: int
    reduced_list_size: int
    iterations: int
    branches: int
    min_error: float | None = None
    best_index: int | None = None
    reduced_min_error: float | None = None
    reduction_radius: float | None = None
    wall_time_s: float = 0.0
    trace_summary: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)
