"""Worklist driver: center and rescale, filter branches to exhaustion, collect means.

Branches carry positive weights on their support, a set of rows of one
shared immutable point set. Each branch is processed by one spectral
filtering pass on its support, along the top eigendirection of its weighted
covariance; certified branches contribute their weighted mean to the
hypothesis list, reweighted and split branches re-enter the FIFO worklist
unless their total mass falls below alpha*n/2.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable

import numpy as np

from .config import RunConfig
from .multifilter import InfeasibleSplit, MultifilterOutcome, basic_multifilter
from .wdata import EigenPair, PointSet, WeightFn, approx_top_eigenpair, weighted_mean

@dataclass(frozen=True)
class BranchState:
    """One live node of the search tree: positive weights on its support.

    rows holds the support's rows of the centered, rescaled PointSet and
    weights one positive weight per row; rows=None stands for every row, as
    at the root. Past the root the rows ascend along the parent's direction:
    a slice, a run read as a view, below every pass that did not sort (so
    always in 1-D, where the column ascends), else an index array. lineage
    holds the tags of the passes from the root down; depth is its length.
    """

    weights: WeightFn
    lineage: tuple[str, ...]
    rows: np.ndarray | slice | None = None

    @property
    def depth(self) -> int:
        return len(self.lineage)


class HypothesisList:
    """Candidate means in the original input coordinates."""

    __slots__ = ("vectors",)

    def __init__(self, vectors) -> None:
        arr = np.array(vectors, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1) if arr.size else arr.reshape(0, 0)
        if arr.ndim != 2:
            raise ValueError(f"hypotheses must form a 2-D array, got {arr.shape}")
        arr.flags.writeable = False
        self.vectors = arr

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.vectors[i]

    def __repr__(self) -> str:
        return f"HypothesisList(size={len(self)}, d={self.vectors.shape[1]})"


@dataclass(frozen=True)
class SubroutineResult:
    """Outcome of processing one branch."""

    hypothesis: np.ndarray | None
    children: tuple[BranchState, ...]
    pruned: tuple[BranchState, ...]
    outcome: MultifilterOutcome
    eigenpair: EigenPair


@dataclass(frozen=True)
class DriverStep:
    """The one record of a processed branch, handed to the observer.

    Kept children are numbered child_ids and pruned ones pruned_ids, both
    in the order of result.children and result.pruned.
    """

    branch_id: int
    parent_id: int
    child_ids: tuple[int, ...]
    pruned_ids: tuple[int, ...]
    branch: BranchState
    result: SubroutineResult


@dataclass
class RunStats:
    """Counts of a run's search tree, taken by the driver pass by pass.

    passes counts processed branches, branches the root plus every child
    created, by_tag the trace events the passes stand for (one per
    certified pass, else one per kept child under the pass's tag and one
    per pruned child under "pruned"), and max_depth is the deepest
    processed branch.
    """

    passes: int = 0
    branches: int = 1
    max_depth: int = 0
    by_tag: Counter[str] = field(default_factory=Counter)

    def record(self, step: DriverStep) -> None:
        tag = step.result.outcome.tag
        self.passes += 1
        self.branches += len(step.child_ids) + len(step.pruned_ids)
        self.max_depth = max(self.max_depth, step.branch.depth)
        self.by_tag[tag] += 1 if tag == "certified" else len(step.child_ids)
        self.by_tag["pruned"] += len(step.pruned_ids)

    def summary(self) -> dict:
        by_tag = {tag: count for tag, count in self.by_tag.items() if count}
        return {"events": sum(by_tag.values()), "by_tag": by_tag, "max_depth": self.max_depth}


def preprocess_rescale(points, cfg: RunConfig) -> PointSet:
    """The points centered on their column mean, then divided by
    SCALE_C * sigma (RunConfig checks sigma > 0).

    The set's center holds that mean, in the input's coordinates. Working
    relative to it keeps later rounding at the scale of the sample's spread,
    not of its offset from the origin. A 1-D column is then sorted ascending.
    """
    ps = PointSet._centered(points, cfg.rescale_factor)
    if ps.d > 1 or (ps.points[1:, 0] >= ps.points[:-1, 0]).all():
        return ps
    return PointSet._over(np.sort(ps.points, axis=0), ps.center)


def postprocess_unscale(
    hyps: HypothesisList, cfg: RunConfig, center: np.ndarray
) -> HypothesisList:
    """Multiply hypotheses back by SCALE_C * sigma and add the center back."""
    return HypothesisList(hyps.vectors * cfg.rescale_factor + center)


def main_subroutine(ps: PointSet, branch: BranchState, cfg: RunConfig) -> SubroutineResult:
    """Process one branch: eigendirection, filtering pass, prune children.

    The pass runs on the rows of ps at branch.rows: a view of a run, else
    gathered (the root, with rows=None, uses ps as it is), so it scales with
    |supp|, not n. A zero weight (the driver builds none) goes to the pass
    like an underflowed one. The filter sorts the projections unless they
    ascend (always so in 1-D), and the children keep that order: each
    carries its own support's rows and weights, as the filter found them.

    On a certified pass the weighted mean of the branch's support (in the
    rescaled coordinates of ps; for d > 1 the eigenpair's) is returned as
    the hypothesis. Otherwise the surviving children are those with total
    mass >= alpha*n/2.
    """
    rows, w = branch.rows, branch.weights
    if isinstance(rows, slice):
        sub_ps = PointSet._over(ps.points[rows])
    else:
        sub_ps = ps if rows is None else ps.restrict(rows)
    eig = approx_top_eigenpair(sub_ps, w)
    try:
        outcome = basic_multifilter(sub_ps, w, eig.direction, cfg, _eigenvalue=eig.value)
    except InfeasibleSplit as err:
        err.details["lineage"] = branch.lineage
        err.details["depth"] = branch.depth
        raise
    if outcome.tag == "certified":
        mean = weighted_mean(sub_ps, w) if eig.mean is None else eig.mean
        return SubroutineResult(mean, (), (), outcome, eig)
    floor = cfg.alpha * ps.n / 2.0
    lineage = branch.lineage + (outcome.tag,)
    children = [
        BranchState(wf, lineage, _child_rows(rows, at))
        for wf, at in zip(outcome.children, outcome.rows)
    ]
    kept = tuple(child for child in children if child.weights.total >= floor)
    pruned = tuple(child for child in children if not child.weights.total >= floor)
    return SubroutineResult(None, kept, pruned, outcome, eig)


def _child_rows(rows: np.ndarray | slice | None, at: np.ndarray | slice):
    """A child's rows of ps, from its rows ``at`` of the pass's point set: an
    index array, or a slice when the pass did not sort. rows=None stands for
    every row in order. A run of a run is a run; an index array is fresh."""
    if isinstance(rows, np.ndarray):
        return rows[at].copy() if isinstance(at, slice) else rows[at]
    base = 0 if rows is None else rows.start
    if isinstance(at, slice):
        return slice(base + at.start, base + at.stop)
    return at + base if base else at


def list_decode_mean(
    points,
    cfg: RunConfig,
    observer: Callable[[DriverStep], None] | None = None,
) -> tuple[HypothesisList, RunStats]:
    """Estimate candidate means from a sample with a majority of outliers.

    Centers the input on its column mean and rescales it by SCALE_C *
    sigma, runs the FIFO worklist to exhaustion starting from all-ones
    weights, and returns every certified weighted mean mapped back to the
    input coordinates. The output list has at most 4/alpha^2 entries.
    Deterministic for a fixed (points, cfg).

    Args:
        points: (n, d) array of samples.
        cfg: run configuration; cfg.alpha is the assumed inlier fraction.
        observer: optional callback invoked with the DriverStep of each
            processed branch, in processing order; it must not mutate
            anything. The trace is one such observer (report.TraceRecorder).

    Returns:
        (HypothesisList, RunStats).
    """
    ps = preprocess_rescale(points, cfg)
    n = ps.n

    hypotheses: list[np.ndarray] = []
    stats = RunStats()

    root = BranchState(weights=WeightFn._ones(n), lineage=())
    queue: deque[tuple[int, int, BranchState]] = deque([(0, -1, root)])
    next_id = 1
    # Worst-case tree size is n splits deep over at most ceil(4/alpha^2)
    # simultaneous branches; anything past that indicates a broken invariant.
    step_guard = 10 * n * (math.ceil(4.0 / cfg.alpha**2) + 1) + 16

    while queue:
        if stats.passes >= step_guard:
            raise RuntimeError("worklist failed to terminate within the step bound")
        branch_id, parent_id, branch = queue.popleft()

        result = main_subroutine(ps, branch, cfg)
        # Kept children take the next ids, then pruned ones, in pass order.
        ids = tuple(range(next_id, next_id + len(result.children) + len(result.pruned)))
        next_id += len(ids)
        kept = len(result.children)
        step = DriverStep(branch_id, parent_id, ids[:kept], ids[kept:], branch, result)
        if result.hypothesis is not None:
            hypotheses.append(result.hypothesis)
        queue.extend(zip(step.child_ids, repeat(branch_id), result.children))
        stats.record(step)
        if observer is not None:
            observer(step)

    list_cap = int(4.0 / cfg.alpha**2 + 1e-9)
    if len(hypotheses) > list_cap:
        raise RuntimeError(
            f"hypothesis list of size {len(hypotheses)} exceeds the 4/alpha^2 "
            f"bound of {list_cap}"
        )

    raw = HypothesisList(np.reshape(hypotheses, (-1, ps.d)))
    return postprocess_unscale(raw, cfg, ps.center), stats
