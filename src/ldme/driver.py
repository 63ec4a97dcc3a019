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
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple

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
        return f"HypothesisList(size={len(self)}, d={self.vectors.shape[1] if len(self) else '?'})"


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
    """The one record of a processed branch.

    The driver builds one per pass, whether or not a trace is recorded,
    hands it to the observer and derives the pass's trace events from it.
    Kept children are numbered child_ids and pruned ones pruned_ids, both
    in the order of result.children and result.pruned.
    """

    branch_id: int
    parent_id: int
    child_ids: tuple[int, ...]
    pruned_ids: tuple[int, ...]
    branch: BranchState
    result: SubroutineResult


def preprocess_rescale(points, cfg: RunConfig) -> PointSet:
    """The points centered on their column mean, then divided by
    SCALE_C * sigma (RunConfig checks sigma > 0).

    The set's center holds that mean, in the input's coordinates. Working
    relative to it keeps later rounding at the scale of the sample's spread,
    not of its offset from the origin. A 1-D column is then sorted ascending.
    """
    return _rescaled(points, cfg)[0]


def _rescaled(points, cfg: RunConfig, inlier_mask=None) -> tuple[PointSet, np.ndarray | None]:
    """preprocess_rescale's set, and the inlier mask (None if not given),
    checked and permuted as the 1-D sort moved its rows."""
    ps = PointSet._centered(points, cfg.rescale_factor)
    mask = None if inlier_mask is None else np.asarray(inlier_mask, dtype=bool)
    if mask is not None and mask.shape != (ps.n,):
        raise ValueError(f"inlier mask has shape {mask.shape}, expected ({ps.n},)")
    if ps.d > 1 or (ps.points[1:, 0] >= ps.points[:-1, 0]).all():
        return ps, mask
    if mask is None:  # sorting the values alone is several times faster
        return PointSet._over(np.sort(ps.points, axis=0), ps.center), None
    order = np.argsort(ps.points[:, 0])
    return PointSet._over(ps.points[order], ps.center), mask[order]


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


def _alpha_good(ps: PointSet, mask: np.ndarray, alpha: float) -> bool:
    """Check the verifiable part of alpha-goodness on rescaled points."""
    size = int(mask.sum())
    if size < alpha * ps.n - 1e-9:
        return False
    sub = ps.points[mask]
    if sub.shape[0] < 2:
        return True
    centered = sub - sub.mean(axis=0)
    top_sv = float(np.linalg.svd(centered, compute_uv=False)[0])
    return top_sv * top_sv / sub.shape[0] <= 1.0


def list_decode_mean(
    points,
    cfg: RunConfig,
    inlier_mask=None,
    observer: Callable[[DriverStep], None] | None = None,
) -> tuple[HypothesisList, list[TraceEvent]]:
    """Estimate candidate means from a sample with a majority of outliers.

    Centers the input on its column mean and rescales it by SCALE_C *
    sigma, runs the FIFO worklist to exhaustion starting from all-ones
    weights, and returns every certified weighted mean mapped back to the
    input coordinates. The output list has at most 4/alpha^2 entries.
    Deterministic for a fixed (points, cfg).

    Args:
        points: (n, d) array of samples.
        cfg: run configuration; cfg.alpha is the assumed inlier fraction.
        inlier_mask: optional boolean array marking planted inliers. When
            given, trace events carry the weight mass on the inliers, and a
            post-run check requires at least one hypothesis whenever the
            mask passes the verifiable goodness test.
        observer: optional callback invoked with the DriverStep of each
            processed branch, in processing order, whether or not the trace
            is recorded; it must not mutate anything.

    Returns:
        (HypothesisList, trace events). The trace is empty when cfg.trace
        is false.
    """
    ps, mask = _rescaled(points, cfg, inlier_mask)
    n = ps.n

    trace: list[TraceEvent] = []
    hypotheses: list[np.ndarray] = []

    root = BranchState(weights=WeightFn(np.ones(n)), lineage=())
    queue: deque[tuple[int, int, BranchState]] = deque([(0, -1, root)])
    next_id = 1
    passes = 0
    # Worst-case tree size is n splits deep over at most ceil(4/alpha^2)
    # simultaneous branches; anything past that indicates a broken invariant.
    step_guard = 10 * n * (math.ceil(4.0 / cfg.alpha**2) + 1) + 16

    while queue:
        branch_id, parent_id, branch = queue.popleft()
        passes += 1
        if passes > step_guard:
            raise RuntimeError("worklist failed to terminate within the step bound")

        result = main_subroutine(ps, branch, cfg)
        # Kept children take the next ids, then pruned ones, in pass order.
        ids = tuple(range(next_id, next_id + len(result.children) + len(result.pruned)))
        next_id += len(ids)
        kept = len(result.children)
        step = DriverStep(branch_id, parent_id, ids[:kept], ids[kept:], branch, result)
        if result.hypothesis is not None:
            hypotheses.append(result.hypothesis)
        queue.extend(zip(step.child_ids, repeat(branch_id), result.children))
        if cfg.trace:
            trace.extend(_trace_events(step, mask))
        if observer is not None:
            observer(step)

    list_cap = int(4.0 / cfg.alpha**2 + 1e-9)
    if len(hypotheses) > list_cap:
        raise RuntimeError(
            f"hypothesis list of size {len(hypotheses)} exceeds the 4/alpha^2 "
            f"bound of {list_cap}"
        )

    if hypotheses:
        raw = HypothesisList(np.vstack(hypotheses))
    else:
        raw = HypothesisList(np.zeros((0, ps.d)))
    out = postprocess_unscale(raw, cfg, ps.center)

    if mask is not None and _alpha_good(ps, mask, cfg.alpha) and len(out) == 0:
        raise RuntimeError("no hypothesis produced on a verified good input")
    return out, trace
