"""Worklist driver: rescale, filter branches to exhaustion, collect means.

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
from typing import Callable

import numpy as np

from .config import RunConfig
from .multifilter import InfeasibleSplit, MultifilterOutcome, basic_multifilter
from .wdata import EigenPair, PointSet, WeightFn, approx_top_eigenpair, weighted_mean

@dataclass(frozen=True)
class BranchState:
    """One live node of the search tree: positive weights on its support.

    rows holds the row indices of the support into the rescaled PointSet
    and weights one positive weight per row; rows=None stands for every row
    in input order, as at the root. sorted_along is the direction along
    which the rows' projections ascend, or None. A pass along that same
    direction, bit for bit, needs no sort.
    """

    weights: WeightFn
    depth: int
    lineage: tuple[str, ...]
    rows: np.ndarray | None = None
    sorted_along: np.ndarray | None = None


@dataclass(frozen=True)
class TraceEvent:
    """One row of the trace, derived from a DriverStep.

    One event per certified exit and one per produced child (including
    pruned ones). branch_id names the resulting branch; for certified exits
    it names the branch itself. The inlier-mass columns ws_before/ws_after
    are None when no inlier mask was supplied.
    """

    branch_id: int
    parent_id: int
    depth: int
    tag: str
    lambda_star: float
    wt_before: float
    wt_after: float
    ws_before: float | None = None
    ws_after: float | None = None


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
    """Divide every coordinate by scale_c * sigma (RunConfig checks sigma > 0)."""
    return PointSet(points, scale=cfg.rescale_factor)


def postprocess_unscale(hyps: HypothesisList, cfg: RunConfig) -> HypothesisList:
    """Multiply hypotheses back by scale_c * sigma."""
    return HypothesisList(hyps.vectors * cfg.rescale_factor)


def main_subroutine(ps: PointSet, branch: BranchState, cfg: RunConfig) -> SubroutineResult:
    """Process one branch: eigendirection, filtering pass, prune children.

    The pass runs on the branch's support: it gathers the rows of ps at
    branch.rows (the root, with rows=None, uses ps as it is), so the
    eigensolve and the filtering pass scale with |supp|, not n. A branch
    built by a caller with rows=None and some zero weights first drops those
    rows. The filter sorts the projections unless the top direction is the
    one the rows already ascend along (always so in 1-D after the root), and
    the children keep that ascending order: each carries the rows and
    weights of its own support, as the filter found them, and the direction.

    On a certified pass the weighted mean of the branch's support (in the
    rescaled coordinates of ps) is returned as the hypothesis. Otherwise the
    surviving children are those with total mass >= alpha*n/2.
    """
    rows, w = branch.rows, branch.weights
    if rows is None and not w.weights.min() > 0.0:
        rows = np.flatnonzero(w.weights > 0.0)
        w = WeightFn._own(w.weights[rows])
    sub_ps = ps if rows is None else ps.restrict(rows)
    eig = approx_top_eigenpair(sub_ps, w)
    try:
        outcome = basic_multifilter(
            sub_ps, w, eig.direction, cfg.alpha, cfg, branch.sorted_along
        )
    except InfeasibleSplit as err:
        err.details["lineage"] = branch.lineage
        err.details["depth"] = branch.depth
        raise
    if outcome.tag == "certified":
        return SubroutineResult(weighted_mean(sub_ps, w), (), (), outcome, eig)
    floor = cfg.alpha * ps.n / 2.0
    lineage = branch.lineage + (outcome.tag,)
    children = [
        BranchState(wf, branch.depth + 1, lineage,
                    rows=_child_rows(rows, at, sub_ps.n), sorted_along=eig.direction)
        for wf, at in zip(outcome.children, outcome.rows)
    ]
    kept = tuple(child for child in children if child.weights.total >= floor)
    pruned = tuple(child for child in children if not child.weights.total >= floor)
    return SubroutineResult(None, kept, pruned, outcome, eig)


def _child_rows(rows: np.ndarray | None, at: np.ndarray | slice, n: int) -> np.ndarray:
    """A child's rows of ps as a fresh array, from its rows ``at`` of the
    pass's n-row point set: an index array, or a slice when the pass did
    not sort. rows=None stands for every row in order."""
    if isinstance(at, slice):
        return np.arange(*at.indices(n)) if rows is None else rows[at].copy()
    return at if rows is None else rows[at]


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
    lam, ws_before = res.eigenpair.value, _inlier_mass(parent, mask)
    # Each event: its branch id, its parent id, tag, the branch after.
    if res.hypothesis is not None:
        events = [(step.branch_id, step.parent_id, "certified", parent)]
    else:
        tags = (res.outcome.tag,) * len(res.children) + ("pruned",) * len(res.pruned)
        ids = step.child_ids + step.pruned_ids
        events = zip(ids, repeat(step.branch_id), tags, res.children + res.pruned)
    return [
        TraceEvent(bid, pid, parent.depth, tag, lam, parent.weights.total,
                   after.weights.total, ws_before, _inlier_mass(after, mask))
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

    Rescales the input by scale_c * sigma, runs the FIFO worklist to
    exhaustion starting from all-ones weights, and returns every certified
    weighted mean scaled back to the input coordinates. The output list has
    at most 4/alpha^2 entries. Deterministic for a fixed (points, cfg).

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
    ps = preprocess_rescale(points, cfg)
    n = ps.n

    mask = None
    if inlier_mask is not None:
        mask = np.asarray(inlier_mask, dtype=bool)
        if mask.shape != (n,):
            raise ValueError(f"inlier mask has shape {mask.shape}, expected ({n},)")

    trace: list[TraceEvent] = []
    hypotheses: list[np.ndarray] = []

    root = BranchState(weights=WeightFn(np.ones(n)), depth=0, lineage=())
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
    out = postprocess_unscale(raw, cfg)

    if mask is not None and _alpha_good(ps, mask, cfg.alpha) and len(out) == 0:
        raise RuntimeError("no hypothesis produced on a verified good input")
    return out, trace
