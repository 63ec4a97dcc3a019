"""Experiment reports: accuracy metrics, trace summaries, serialization."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .driver import HypothesisList, TraceEvent

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


def summarize_trace(events: list[TraceEvent]) -> dict:
    counts: dict[str, int] = {}
    max_depth = 0
    for ev in events:
        counts[ev.tag] = counts.get(ev.tag, 0) + 1
        max_depth = max(max_depth, ev.depth)
    return {"events": len(events), "by_tag": counts, "max_depth": max_depth}


def write_trace_csv(path, events: list[TraceEvent]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for ev in events:
            writer.writerow(
                [
                    ev.branch_id,
                    ev.parent_id,
                    ev.depth,
                    ev.tag,
                    repr(ev.lambda_star),
                    repr(ev.wt_before),
                    repr(ev.wt_after),
                    "" if ev.ws_before is None else repr(ev.ws_before),
                    "" if ev.ws_after is None else repr(ev.ws_after),
                ]
            )


@dataclass
class Report:
    """Final summary of one end-to-end run.

    wall_time_s covers generation, estimation, reduction and evaluation. In
    a seed sweep it leaves out the outlier file read, which the seeds share.
    """

    config: dict
    list_size: int
    reduced_list_size: int
    iterations: int | None
    branches: int | None
    min_error: float | None = None
    best_index: int | None = None
    reduced_min_error: float | None = None
    reduction_radius: float | None = None
    wall_time_s: float = 0.0
    trace_summary: dict = field(default_factory=dict)

    def to_dict(self, include_wall_time: bool = True) -> dict:
        out = {
            "config": self.config,
            "list_size": self.list_size,
            "reduced_list_size": self.reduced_list_size,
            "iterations": self.iterations,
            "branches": self.branches,
            "min_error": self.min_error,
            "best_index": self.best_index,
            "reduced_min_error": self.reduced_min_error,
            "reduction_radius": self.reduction_radius,
            "trace_summary": self.trace_summary,
        }
        if include_wall_time:
            out["wall_time_s"] = self.wall_time_s
        return out

    def to_json(self, include_wall_time: bool = True) -> str:
        return json.dumps(self.to_dict(include_wall_time), indent=2, sort_keys=True)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")
