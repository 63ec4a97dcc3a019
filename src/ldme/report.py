"""Experiment reports: accuracy metrics, the goodness check, the trace."""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .config import RunConfig
from .driver import BranchState, DriverStep, HypothesisList
from .wdata import PointSet


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


def alpha_good(points, inlier_mask, cfg: RunConfig) -> bool:
    """Check the verifiable part of alpha-goodness: the mask marks at least
    alpha*n rows, whose covariance is at most 1 in the driver's units (the
    points centered and divided by cfg.rescale_factor). On such an input
    the estimator must return a hypothesis."""
    mask = np.asarray(inlier_mask, dtype=bool)
    if mask.sum() < cfg.alpha * len(mask) - 1e-9:
        return False
    sub = PointSet._centered(points, cfg.rescale_factor).points[mask]
    top_sv = float(np.linalg.svd(sub - sub.mean(axis=0), compute_uv=False)[0])
    return top_sv * top_sv / len(sub) <= 1.0


class TraceEvent(NamedTuple):
    """One row of the trace CSV, its fields the columns, from a DriverStep.

    One event per certified exit and one per produced child (including
    pruned ones). branch_id names the resulting branch; for certified exits
    it names the branch itself. wT_* is the branch's total weight and wS_*
    its weight on the inliers, None when no inlier mask was supplied.
    """

    branch_id: int
    parent_id: int
    depth: int
    tag: str
    lambda_star: float
    wT_before: float
    wT_after: float
    wS_before: float | None = None
    wS_after: float | None = None


def in_row_order(points, per_row: np.ndarray) -> np.ndarray:
    """per_row, one entry per input row, in the row order of
    preprocess_rescale's set: a stable argsort of a 1-D column, else the
    input's order.

    Centering and rescaling are monotone, so the set's sorted column is in
    this order up to equal values, and rows of equal values carry equal
    weights in every branch: a sum over rows gives the same bits either way.
    """
    pts = np.asarray(points)
    if per_row.shape[:1] != (len(pts),):
        raise ValueError(f"inlier mask has shape {per_row.shape}, expected ({len(pts)},)")
    return per_row[np.argsort(pts[:, 0], kind="stable")] if pts.shape[1] == 1 else per_row


def _inlier_mass(branch: BranchState, mask: np.ndarray | None) -> float | None:
    if mask is None:
        return None
    w = branch.weights.weights
    return float((w[mask] if branch.rows is None else w[mask[branch.rows]]).sum())


def _trace_events(step: DriverStep, mask: np.ndarray | None) -> list[TraceEvent]:
    """The trace rows of one processed branch.

    A certified branch gives one event under its own id; any other pass
    gives one event per child, kept ones under the pass's tag and pruned
    ones under "pruned", each named by the child's id.
    """
    res, parent = step.result, step.branch
    lam, wS_before = res.eigenpair.value, _inlier_mass(parent, mask)
    # Each event: its branch id, its parent id, tag, the branch after.
    if res.hypothesis is not None:
        events = [(step.branch_id, step.parent_id, "certified", parent)]
    else:
        tags = (res.outcome.tag,) * len(res.children) + ("pruned",) * len(res.pruned)
        ids = step.child_ids + step.pruned_ids
        events = zip(ids, repeat(step.branch_id), tags, res.children + res.pruned)
    return [
        TraceEvent(bid, pid, parent.depth, tag, lam, parent.weights.total,
                   after.weights.total, wS_before, _inlier_mass(after, mask))
        for bid, pid, tag, after in events
    ]


class TraceRecorder:
    """Observer of the driver's steps that records the trace of a run on
    points: its events, in processing order, in the list events.

    inlier_mask, one entry per input row, fills the wS_* columns with each
    branch's weight on the inliers; without it they are None.
    """

    def __init__(self, points, inlier_mask=None) -> None:
        self.events: list[TraceEvent] = []
        mask = None if inlier_mask is None else np.asarray(inlier_mask, dtype=bool)
        self._mask = None if mask is None else in_row_order(points, mask)

    def __call__(self, step: DriverStep) -> None:
        self.events.extend(_trace_events(step, self._mask))


def write_trace_csv(path, events: list[TraceEvent]) -> None:
    """One row per event, columns as TraceEvent's fields; floats are written at full
    precision, and inlier masses that were not recorded as empty cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TraceEvent._fields)
        writer.writerows(events)


@dataclass
class Report:
    """Final summary of one end-to-end run.

    iterations, branches and trace_summary are the run's RunStats: passes,
    branches and summary(), so they read the same whether or not a trace
    is recorded. wall_time_s covers generation, estimation, reduction and
    evaluation. In a seed sweep it leaves out the outlier file read, which
    the seeds share.
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
