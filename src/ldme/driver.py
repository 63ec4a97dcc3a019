"""Worklist driver: rescale, filter branches to exhaustion, collect means.

Branches carry weight functions over one shared immutable point set. Each
branch is processed by one spectral filtering pass on its support, along the
top eigendirection of its weighted covariance; certified branches contribute
their weighted mean to the hypothesis list, reweighted and split branches
re-enter the FIFO worklist unless their total mass falls below alpha*n/2.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .config import ConfigError, RunConfig
from .multifilter import InfeasibleSplit, MultifilterOutcome, basic_multifilter
from .wdata import EigenPair, PointSet, WeightFn, approx_top_eigenpair, weighted_mean

__all__ = [
    "RunConfig",
    "BranchState",
    "TraceEvent",
    "HypothesisList",
    "SubroutineResult",
    "DriverStep",
    "preprocess_rescale",
    "postprocess_unscale",
    "main_subroutine",
    "list_decode_mean",
]


@dataclass(frozen=True)
class BranchState:
    """One live node of the search tree."""

    weights: WeightFn
    depth: int
    lineage: tuple[str, ...]


@dataclass(frozen=True)
class TraceEvent:
    """Per-outcome instrumentation record.

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
    """What an observer callback sees after each processed branch."""

    branch_id: int
    parent_id: int
    child_ids: tuple[int, ...]
    pruned_ids: tuple[int, ...]
    branch: BranchState
    result: SubroutineResult


def preprocess_rescale(points, cfg: RunConfig) -> PointSet:
    """Divide every coordinate by scale_c * sigma."""
    if not cfg.sigma > 0.0:
        raise ConfigError(f"sigma: must be positive, got {cfg.sigma}")
    return PointSet(points, scale=cfg.rescale_factor)


def postprocess_unscale(hyps: HypothesisList, cfg: RunConfig) -> HypothesisList:
    """Multiply hypotheses back by scale_c * sigma."""
    return HypothesisList(hyps.vectors * cfg.rescale_factor)


def main_subroutine(ps: PointSet, branch: BranchState, cfg: RunConfig) -> SubroutineResult:
    """Process one branch: eigendirection, filtering pass, prune children.

    The pass runs on the branch's support. The indices of the rows with
    positive weight are found once per pass; they gather those rows and
    their weights (not at all when every row has positive weight), so the
    eigensolve and the filtering pass scale with |supp|, not n, and they
    scatter the children's weights back to full length over ps. Gathered
    and scattered weights are fresh arrays that their WeightFn takes over
    without a further copy.

    On a certified pass the weighted mean of the branch (in the rescaled
    coordinates of ps) is returned as the hypothesis. Otherwise the
    surviving children are those with total mass >= alpha*n/2.
    """
    rows = np.flatnonzero(branch.weights.weights > 0.0)
    local = len(rows) < ps.n
    sub_ps = ps.restrict(rows) if local else ps
    sub_w = WeightFn._own(branch.weights.weights[rows]) if local else branch.weights
    eig = approx_top_eigenpair(sub_ps, sub_w)
    try:
        outcome = basic_multifilter(sub_ps, sub_w, eig.direction, cfg.alpha, cfg)
    except InfeasibleSplit as err:
        err.details["lineage"] = branch.lineage
        err.details["depth"] = branch.depth
        raise
    if outcome.tag == "certified":
        return SubroutineResult(
            hypothesis=weighted_mean(ps, branch.weights),
            children=(),
            pruned=(),
            outcome=outcome,
            eigenpair=eig,
        )
    if local:
        outcome = replace(
            outcome, children=tuple(_scatter(wf, rows, ps.n) for wf in outcome.children)
        )
    floor = cfg.alpha * ps.n / 2.0
    kept: list[BranchState] = []
    pruned: list[BranchState] = []
    for wf in outcome.children:
        child = BranchState(
            weights=wf,
            depth=branch.depth + 1,
            lineage=branch.lineage + (outcome.tag,),
        )
        (kept if wf.total >= floor else pruned).append(child)
    return SubroutineResult(
        hypothesis=None,
        children=tuple(kept),
        pruned=tuple(pruned),
        outcome=outcome,
        eigenpair=eig,
    )


def _scatter(wf: WeightFn, rows: np.ndarray, n: int) -> WeightFn:
    """Length-n weights that are wf at the given rows and zero elsewhere."""
    full = np.zeros(n)
    full[rows] = wf.weights
    return WeightFn._own(full)


def _inlier_mass(wf: WeightFn, mask: np.ndarray | None) -> float | None:
    if mask is None:
        return None
    return float(wf.weights[mask].sum())


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
        observer: optional callback invoked after each processed branch,
            for instrumentation; it must not mutate anything.

    Returns:
        (HypothesisList, trace events). The trace is empty when cfg.trace
        is false.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    ps = preprocess_rescale(pts, cfg)
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
    iterations = 0
    # Worst-case tree size is n splits deep over at most ceil(4/alpha^2)
    # simultaneous branches; anything past that indicates a broken invariant.
    step_guard = 10 * n * (math.ceil(4.0 / cfg.alpha**2) + 1) + 16

    while queue:
        branch_id, parent_id, branch = queue.popleft()
        iterations += 1
        if iterations > step_guard:
            raise RuntimeError("worklist failed to terminate within the step bound")

        result = main_subroutine(ps, branch, cfg)
        wt_before = branch.weights.total
        ws_before = _inlier_mass(branch.weights, mask) if cfg.trace else None

        child_ids: list[int] = []
        pruned_ids: list[int] = []
        if result.hypothesis is not None:
            hypotheses.append(result.hypothesis)
            if cfg.trace:
                trace.append(
                    TraceEvent(
                        branch_id=branch_id,
                        parent_id=parent_id,
                        depth=branch.depth,
                        tag="certified",
                        lambda_star=result.eigenpair.value,
                        wt_before=wt_before,
                        wt_after=wt_before,
                        ws_before=ws_before,
                        ws_after=ws_before,
                    )
                )
        else:
            for child in result.children:
                cid = next_id
                next_id += 1
                child_ids.append(cid)
                queue.append((cid, branch_id, child))
                if cfg.trace:
                    trace.append(
                        TraceEvent(
                            branch_id=cid,
                            parent_id=branch_id,
                            depth=branch.depth,
                            tag=result.outcome.tag,
                            lambda_star=result.eigenpair.value,
                            wt_before=wt_before,
                            wt_after=child.weights.total,
                            ws_before=ws_before,
                            ws_after=_inlier_mass(child.weights, mask),
                        )
                    )
            for child in result.pruned:
                cid = next_id
                next_id += 1
                pruned_ids.append(cid)
                if cfg.trace:
                    trace.append(
                        TraceEvent(
                            branch_id=cid,
                            parent_id=branch_id,
                            depth=branch.depth,
                            tag="pruned",
                            lambda_star=result.eigenpair.value,
                            wt_before=wt_before,
                            wt_after=child.weights.total,
                            ws_before=ws_before,
                            ws_after=_inlier_mass(child.weights, mask),
                        )
                    )
        if observer is not None:
            observer(
                DriverStep(
                    branch_id=branch_id,
                    parent_id=parent_id,
                    child_ids=tuple(child_ids),
                    pruned_ids=tuple(pruned_ids),
                    branch=branch,
                    result=result,
                )
            )

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
