"""One soft-filtering pass along a fixed direction.

Given the projections of a weighted point set onto a unit vector, the pass
either certifies that the weighted variance is already small, softly
downweights points by squared distance from a central quantile interval, or
splits the weights into two overlapping halves that both shed a guaranteed
fraction of their mass. Thresholds use base-2 logarithms throughout so that
all the constants of the rule are mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig, check_alpha
from .wdata import PointSet, WeightFn, _variance, project, weighted_variance

# Candidates per block of the split search: every temporary of the search is
# this long, whatever the support's size.
SPLIT_BLOCK = 1 << 12
# Relative margin of the eigenvalue certificate, for rounding.
EIGEN_SLACK = 1.0 - 1e-9


class InfeasibleSplit(RuntimeError):
    """Raised when no feasible split exists where one is required.

    Carries a ``details`` dict with the state that produced the failure.
    """

    def __init__(self, message: str, details: dict | None = None) -> None:
        super().__init__(message)
        self.details = details or {}


@dataclass(frozen=True)
class SplitParams:
    """Threshold center t and half-overlap R of a two-sided split.

    The induced halves are kept-right = {v.x >= t - R} (closed) and
    kept-left = {v.x < t + R} (open); they overlap on [t - R, t + R).
    """

    t: float
    R: float

    def __post_init__(self) -> None:
        if not self.R > 0.0:
            raise ValueError(f"split needs R > 0, got {self.R}")


@dataclass(frozen=True)
class MultifilterOutcome:
    """Tagged result of one filtering pass.

    tag is "certified" (no children), "reweighted" (one child weight
    function) or "split" (two children plus the split parameters used).
    Children are support-local: children[i] weights the points at the rows
    rows[i] of the pass's point set, listed in ascending order of their
    projections. rows[i] is a fresh index array when the pass sorted, and a
    slice of the rows' own order when they already ascended; numpy indexes
    with either alike.
    """

    tag: str
    children: tuple[WeightFn, ...] = ()
    split_params: SplitParams | None = None
    rows: tuple[np.ndarray, ...] = ()


def _ascending(projections, w: WeightFn, order, alpha: float | None = None) -> tuple:
    """The checked projections and their weights in ascending order, and
    that order: ``order`` as given, or an argsort when it is None."""
    p = np.asarray(projections, dtype=np.float64)
    if p.ndim != 1 or p.shape != w.weights.shape:
        raise ValueError("projections and weights must have matching length")
    if w.total <= 0.0:
        raise ValueError("weight function has zero total mass")
    if alpha is not None:
        check_alpha(alpha)
    if order is None:
        order = np.argsort(p)
    return p[order], w.weights[order], order


def _rows(order: np.ndarray | slice, at: slice) -> np.ndarray | slice:
    """The rows of the input at positions ``at`` of its ascending order: a
    fresh index array when ``order`` is an argsort, else the slice itself."""
    return order[at].copy() if isinstance(order, np.ndarray) else at


def quantile_interval(
    projections: np.ndarray, w: WeightFn, alpha: float, order: np.ndarray | None = None
) -> tuple[float, float]:
    """Central interval (a, b) trimming alpha*w(T)/8 of weight per side.

    a is the largest sample value whose strictly-smaller weight is at most
    the trim threshold; b symmetrically from above. Both endpoints are
    attained at sample values. Over the sorted values, the weight before a
    position and the weight after it are monotone, so each endpoint is a
    count of running sums within the threshold: prefix sums from the lowest
    value for a, suffix sums from the highest for b. Ties share their value,
    so any position of a tied value gives the same endpoint, and the sort
    need not be stable.

    Only the ends are summed (see _within): the trim takes a fraction
    alpha/8 of the weight, so on a presorted support the function reads
    about that fraction of each end, not the whole support. cumsum adds left
    to right, so a's prefix sums are those of the full support bit for bit.
    b's suffix sums are exact at the last position and do not cancel; they
    can differ from total - prefix only in the last bits.

    ``order`` puts the projections in ascending order: an argsort that the
    caller already holds, or ``slice(None)`` when they already ascend;
    without it the function sorts for itself. The same holds for every
    function of this module that takes ``order``.
    """
    vals, wts, _ = _ascending(projections, w, order, alpha)
    tau = alpha * w.total / 8.0
    # Twice the rows the trim takes at equal weights, to start.
    start = 16 + int(len(wts) * alpha / 4.0)
    ja = _within(wts, tau, start)
    jb = len(wts) - 1 - _within(wts[::-1], tau, start)
    return float(vals[ja]), float(vals[jb])


def _within(wts: np.ndarray, tau: float, k: int) -> int:
    """How many leading running sums of wts are at most tau: the position
    of the endpoint, counted from the end that wts starts at.

    Sums a prefix of k entries, doubling k until its last running sum
    passes tau or it covers wts, so it reads little more than twice the
    entries it counts. cumsum adds left to right, so every running sum is
    the full array's, bit for bit; the weights are non-negative, so the sums
    do not fall and one binary search counts them. The whole sum, w(T),
    exceeds tau = alpha*w(T)/8, so the count is below len(wts).
    """
    while True:
        cum = np.cumsum(wts[:k])
        if k >= len(wts) or cum[-1] > tau:
            return int(np.searchsorted(cum, tau, side="right"))
        k *= 2


def _doubled(interval: tuple[float, float]) -> tuple[float, float]:
    """The window with the center of (a, b) and twice its half-width,
    widened to contain (a, b) where halving rounds (subnormal widths)."""
    a, b = interval
    t, r = 0.5 * (a + b), 0.5 * (b - a)
    return min(t - 2.0 * r, a), max(t + 2.0 * r, b)


def truncated_variance(
    projections: np.ndarray, w: WeightFn, window: tuple[float, float],
    order: np.ndarray | None = None,
) -> float:
    """Weighted variance of the projections restricted to the window (a, b).

    In ascending order the window [a, b] is one run of positions, found by
    one binary search per end; only that run is read, and under unit
    weights its total is its length. ``order`` is as for quantile_interval.
    """
    vals, wts, _ = _ascending(projections, w, order)
    i0 = int(np.searchsorted(vals, window[0], side="left"))
    i1 = int(np.searchsorted(vals, window[1], side="right"))
    vals, wts = vals[i0:i1], wts[i0:i1]
    total = float(i1 - i0) if w.unit else float(wts.sum())
    if total <= 0.0:
        raise ValueError("no weight inside the window")
    return _variance(vals, wts, total)


def soft_downweight(
    projections: np.ndarray, w: WeightFn, interval: tuple[float, float],
    order: np.ndarray | None = None,
) -> tuple[WeightFn, np.ndarray | slice]:
    """Downweight each point by its squared distance from the interval.

    f(x) is zero inside [a, b] and the squared distance to the nearest
    endpoint outside; new weights are max(1 - f/f_max, 0) * w with f_max
    taken over supported points only, so the supported argmax lands exactly
    at 0.

    In ascending order (``order`` as for quantile_interval) the rows outside
    [a, b] are the two tails, and only they are computed: the rows inside
    keep their weights bit for bit. f falls along the lower tail and rises
    along the upper one, and correctly rounded arithmetic keeps the factor
    1 - f/f_max monotone, so the rows it zeroes are a prefix and a suffix of
    the order. Those are dropped.

    Returns:
        (new weights, rows): the new weights of the kept rows in ascending
        order of their projections, checked once, and those rows as indices
        into ``projections`` (a slice when ``order`` is ``slice(None)``).
        A row whose weight was already zero keeps a zero weight unless it
        lies in a dropped end.

    Raises:
        ValueError: a > b, or every supported point lies inside [a, b],
            where 1 - f/f_max would be 0/0.
    """
    vals, wts, order = _ascending(projections, w, order)
    a, b = interval
    if not a <= b:
        raise ValueError(f"interval needs a <= b, got [{a}, {b}]")
    ia = int(np.searchsorted(vals, a, side="left"))
    ib = int(np.searchsorted(vals, b, side="right"))
    below = a - vals[:ia]
    above = vals[ib:] - b
    below *= below
    above *= above
    fmax = max(
        float(np.max(below, where=wts[:ia] > 0.0, initial=0.0)),
        float(np.max(above, where=wts[ib:] > 0.0, initial=0.0)),
    )
    if fmax <= 0.0:
        raise ValueError("all supported projections lie inside the interval")
    for f in (below, above):
        f /= fmax
        np.subtract(1.0, f, out=f)
        np.maximum(f, 0.0, out=f)
    k0 = ia - int(np.count_nonzero(below))  # the zeroed prefix
    k1 = ib + int(np.count_nonzero(above))  # the kept rows end here
    new = np.empty(k1 - k0)
    np.multiply(below[k0:], wts[k0:ia], out=new[: ia - k0])
    new[ia - k0 : ib - k0] = wts[ia:ib]
    np.multiply(above[: k1 - ib], wts[ib:k1], out=new[ib - k0 :])
    return WeightFn._own(new), _rows(order, slice(k0, k1))


def find_split(
    projections: np.ndarray, w: WeightFn, alpha: float, order: np.ndarray | None = None
) -> SplitParams | None:
    """Return the most balanced feasible overlapping split (t, R), or None.

    A split is feasible when the two halves, kept-right = {x >= t - R} and
    kept-left = {x < t + R}, satisfy both
        w(right)^2 + w(left)^2 <= w(T)^2            (squared-mass condition)
        min of the two lost fractions >= 48*lg(2/alpha) / R^2
    and the most balanced is the one with the smallest squared-mass sum.

    Over the sorted supported values u, the lower cut t - R in (u[i], u[i+1]]
    loses the fraction g1[i] below it and the upper cut t + R in
    (u[j], u[j+1]] loses g2[j] above it. Each cut keeps the same clearance,
    min(gap/4, 8 ulp(max |u|)), from the sample values on both sides of its
    gap; eight ulps of the largest magnitude cover the rounding of
    rebuilding t - R and t + R from (t, R). So the lower cut lies in
    [lo[i], hi[i]] = [u[i] + clearance, u[i+1] - clearance], and the upper
    cut is put at the highest usable hi[j], which leaves R the most room.
    Both lo and hi increase, g1 rises with i, g2 falls with j, and the
    squared-mass sum (1 - g1)^2 + (1 - g2)^2 falls with i and rises with j.
    When g1[i] is the smaller lost fraction it fixes the least usable R, so
    the best partner of i is the smallest j whose hi[j] clears lo[i] by 2R
    (family 1); symmetrically, when g2[j] is smaller, the best partner of j
    is the largest i (family 2). One binary search per family therefore
    yields a candidate set that contains an optimal split, O(n log n) in
    total.

    Only half of each family can win. The lower cut of a feasible split lies
    below its upper cut, so i <= j and g1[i] + g2[j] <= 1. A family-1
    candidate with g1[i] > 1/2 thus has g2[j] < 1/2 as its smaller lost
    fraction, and family 2 at the same j pairs j with the largest usable
    i' >= i, which scores no worse. So family 1 is searched over the prefix
    of i with g1 <= 1/2 and family 2 over the suffix of j with g2 <= 1/2.

    The candidates are scored SPLIT_BLOCK at a time, g1 and g2 formed per
    block from the prefix sums, so beside the grid of _cut_grid the search
    holds only block-sized temporaries. Blocks go in ascending order of a
    lower bound on their scores (_score_floor), which also bounds where each
    candidate's partner cut can fall; a block where no cut has a partner is
    not scored at all, and the search stops at the first block whose bound
    exceeds the best score found. The first minimum wins:
    within a family the lowest index, and on equal scores family 1 over
    family 2, as in a scan of family 1 and then family 2.

    ``order`` is as for quantile_interval; basic_multifilter passes
    ``slice(None)``, since its projections ascend. The chosen split is
    re-checked on the realized halves, each a run of the ascending order.
    """
    vals, wts, _ = _ascending(projections, w, order, alpha)
    grid = _cut_grid(vals, wts, w.unit)
    if grid is None:
        return None
    prefix, lo, hi = grid
    total = float(prefix[-1])
    l48 = 48.0 * np.log2(2.0 / alpha)

    m = len(lo)
    n1 = _first(lambda i: prefix[i] / total > 0.5, m)  # g1 <= 1/2 on [0, n1)
    j0 = _first(lambda j: (total - prefix[j]) / total <= 0.5, m)  # g2 <= 1/2 on [j0, m)
    blocks = [(1, s, min(s + SPLIT_BLOCK, n1)) for s in range(0, n1, SPLIT_BLOCK)]
    blocks += [(2, s, min(s + SPLIT_BLOCK, m)) for s in range(j0, m, SPLIT_BLOCK)]
    grid = (prefix, total, lo, hi, l48)
    best = (np.inf, 0, 0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        floors = [(_score_floor(*grid, *b), *b) for b in blocks]
        # An inf floor (no partner) is dropped: it is not > inf + 1e-9.
        for floor, *block in sorted(f for f in floors if f[0] < np.inf):
            if floor > best[0] + 1e-9:
                break
            found = _block_best(*grid, *block)
            if found is not None and found[:3] < best[:3]:
                best = found
    sp = best[3]
    if sp is None or not _split_holds(vals, wts, w.total, sp, l48, w.unit):
        return None
    return sp


def _score_floor(
    prefix: np.ndarray, total: float, lo: np.ndarray, hi: np.ndarray, l48: float,
    family: int, start: int, stop: int,
) -> float:
    """A lower bound on the score of every feasible candidate of a block,
    or inf when the block has none.

    Two bounds, of which the larger is returned. First, the lower cut of a
    candidate lies below its upper cut, so its lost fractions add up to at
    most 1: a block whose own lost fractions (g1 for family 1, g2 for family
    2) lie in [a, b] scores at least (1 - b)^2 + a^2; the caller allows 1e-9
    for rounding. Second, the partner cut: in family 1 every i of the block
    has lo[i] >= lo[start] and g1[i] <= b, so its upper cut j lies at or
    right of j* = searchsorted(hi, lo[start] + 2 sqrt(l48/b), "right"), and
    g2[j] <= g2[j*]; in family 2 every j has hi[j] <= hi[stop-1] and
    g2[j] <= b, so its lower cut lies at or left of i* = searchsorted(lo,
    hi[stop-1] - 2 sqrt(l48/b), "left") - 1, and g1[i] <= g1[i*]. Correctly
    rounded +, -, / and sqrt are monotone, as is searchsorted, so the
    partner's (1 - g)^2 at j* or i* bounds the block's scores as _block_best
    computes them, bit for bit. Past the last cut (j* = m, or i* = -1) no
    candidate of the block has a partner, and the block is skipped.
    """
    if family == 1:
        a, b = prefix[start] / total, prefix[stop - 1] / total
        j = int(np.searchsorted(hi, lo[start] + 2.0 * np.sqrt(l48 / b), side="right"))
        if j >= len(lo):
            return np.inf
        partner = (total - prefix[j]) / total
    else:
        a, b = (total - prefix[stop - 1]) / total, (total - prefix[start]) / total
        i = int(np.searchsorted(lo, hi[stop - 1] - 2.0 * np.sqrt(l48 / b), side="left")) - 1
        if i < 0:
            return np.inf
        partner = prefix[i] / total
    # Products, not **: numpy's scalar power can round a square differently
    # from the array square that _block_best takes.
    own, partner = 1.0 - b, 1.0 - partner
    return float(own * own + max(a * a, partner * partner))


def _block_best(
    prefix: np.ndarray, total: float, lo: np.ndarray, hi: np.ndarray, l48: float,
    family: int, start: int, stop: int,
) -> tuple | None:
    """The first best feasible candidate of one block of a family, as
    (score, family, index, SplitParams), or None.

    Family 1 pairs each lower cut i in [start, stop) with its smallest usable
    upper cut j; family 2 each upper cut j with its largest usable lower cut
    i. index is i in family 1 and j in family 2, so comparing these tuples
    keeps the first minimum of a family and prefers family 1 on equal scores.
    """
    m = len(lo)
    if family == 1:
        i = np.arange(start, stop)
        g1 = prefix[start:stop] / total
        j = np.searchsorted(hi, lo[start:stop] + 2.0 * np.sqrt(l48 / g1), side="right")
    else:
        j = np.arange(start, stop)
        g2 = (total - prefix[start:stop]) / total
        i = np.searchsorted(lo, hi[start:stop] - 2.0 * np.sqrt(l48 / g2), side="left") - 1
    keep = (i >= 0) & (j < m)
    i, j = i[keep], j[keep]
    g1, g2 = prefix[i] / total, (total - prefix[j]) / total
    score = (1.0 - g1) ** 2 + (1.0 - g2) ** 2
    keep = score <= 1.0
    i, j, score = i[keep], j[keep], score[keep]
    gmin = np.minimum(g1[keep], g2[keep])
    # hi[i] is the highest usable lower cut in box i.
    r_lo = np.maximum(np.sqrt(l48 / gmin), 0.5 * (hi[j] - hi[i]))
    r_hi = 0.5 * (hi[j] - lo[i])
    R = 0.5 * (r_lo + r_hi)
    ok = (gmin > 0.0) & (r_lo < r_hi) & (gmin >= l48 / (R * R))
    if not ok.any():
        return None
    k = int(np.argmin(np.where(ok, score, np.inf)))
    index = int(i[k] if family == 1 else j[k])
    return float(score[k]), family, index, SplitParams(t=float(hi[j[k]] - R[k]), R=float(R[k]))


def _first(holds, m: int) -> int:
    """The first k in [0, m) at which the monotone predicate holds, or m."""
    lo, hi = 0, m
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _cut_grid(vals: np.ndarray, wts: np.ndarray, unit: bool) -> tuple[np.ndarray, ...] | None:
    """The arrays find_split searches, or None below two supported values.

    Takes the values in ascending order with their weights and drops
    zero-weight entries. Over the sorted unique supported values u it
    returns the prefix sums of their weights (the last entry is the total)
    and, over the gaps between them, the usable cuts lo and hi; find_split
    forms the lost fractions g1 = prefix/total and g2 = (total - prefix)/total
    per block. Without ties u is the input itself and its weights need no
    grouping; under unit weights (``unit``) the prefix sums are then the
    counts 1, 2, ..., the same bits as cumsum. lo and hi are built in
    place, so the grid is three arrays of the support's size.
    """
    if not (unit or wts.min() > 0.0):
        supported = wts > 0.0
        vals, wts = vals[supported], wts[supported]
    fresh = vals[1:] != vals[:-1]
    if fresh.all():
        u, prefix = vals, np.arange(1.0, len(vals) + 1.0) if unit else np.cumsum(wts)
    else:
        starts = np.flatnonzero(np.r_[True, fresh])
        u, prefix = vals[starts], np.add.reduceat(wts, starts)
        np.cumsum(prefix, out=prefix)
    if len(u) < 2:
        return None
    clear = np.diff(u)
    clear *= 0.25
    np.minimum(clear, 8.0 * np.spacing(max(-u[0], u[-1])), out=clear)
    lo = u[:-1] + clear
    return prefix, lo, np.subtract(u[1:], clear, out=clear)


def _split_holds(
    vals: np.ndarray, wts: np.ndarray, total: float, sp: SplitParams, l48: float,
    unit: bool,
) -> bool:
    """Re-check both conditions on the realized halves of a candidate.

    vals ascend, so kept-right {x >= t - R} is a suffix and kept-left
    {x < t + R} a prefix, each found by one binary search; under unit
    weights (``unit``) each half's mass is its length.
    """
    k_right = int(np.searchsorted(vals, sp.t - sp.R, side="left"))
    k_left = int(np.searchsorted(vals, sp.t + sp.R, side="left"))
    if unit:
        w1, w2 = float(len(vals) - k_right), float(k_left)
    else:
        w1, w2 = float(wts[k_right:].sum()), float(wts[:k_left].sum())
    if not w1 * w1 + w2 * w2 <= total * total:
        return False
    return min(1.0 - w1 / total, 1.0 - w2 / total) >= l48 / (sp.R * sp.R)


def basic_multifilter(
    ps: PointSet,
    w: WeightFn,
    v: np.ndarray,
    cfg: RunConfig,
    *, _eigenvalue: float | None = None,
) -> MultifilterOutcome:
    """Run one filtering pass along the unit direction v, at alpha = cfg.alpha.

    Computes the central quantile interval I; when the variance truncated to
    the doubled interval is at most gate = big_c * lg(2/alpha)^2, either
    certifies (full weighted variance at most twice that) or softly
    downweights by distance from I. Otherwise splits the weights via
    find_split. The driver passes the variance along v, its eigenvalue
    lambda, as ``_eigenvalue`` (in 1-D the full variance); lambda <=
    (1 - alpha/4) * gate * EIGEN_SLACK certifies at once, since I holds at
    least (1 - alpha/4) * w(T), so the truncated variance is at most
    lambda / (1 - alpha/4) <= gate and the full pass would certify too.

    The pass works in ascending order of the projections. When they
    already ascend as given (in 1-D, where the driver sorts its column
    once), the pass neither sorts nor builds an order;
    otherwise it sorts them once. Every set the pass reads is then a run of
    that order: the doubled window, the tails outside I, the halves of a
    split. The children keep the order (see MultifilterOutcome): a split
    child is the prefix {x < t + R} or the suffix {x >= t - R}, and the
    reweighted child drops the prefix and suffix that soft_downweight
    zeroes.

    Raises:
        InfeasibleSplit: the variance gate tripped but no feasible split
            exists. This can happen when big_c sits below the constant the
            feasibility argument needs and the data has groups at
            just-the-wrong separations; the branch must be aborted rather
            than silently degrade the guarantees.
    """
    alpha = cfg.alpha
    lg = np.log2(2.0 / alpha)
    gate = cfg.big_c * lg * lg
    if _eigenvalue is not None and _eigenvalue <= (1.0 - alpha / 4.0) * EIGEN_SLACK * gate:
        return MultifilterOutcome("certified")
    proj = project(ps, v)
    ascending = slice(None)  # handed to every step below
    if (proj[1:] >= proj[:-1]).all():
        order = ascending
    else:
        order = np.argsort(proj)
        proj = proj[order]
        w = WeightFn._ones(len(w)) if w.unit else WeightFn._own(w.weights[order])
    interval = quantile_interval(proj, w, alpha, ascending)
    if truncated_variance(proj, w, _doubled(interval), ascending) <= gate:
        if (_eigenvalue if ps.d == 1 and _eigenvalue is not None
                else weighted_variance(proj, w)) <= 2.0 * gate:
            return MultifilterOutcome("certified")
        new, kept = soft_downweight(proj, w, interval, ascending)
        return MultifilterOutcome("reweighted", (new,), rows=(_rows(order, kept),))
    sp = find_split(proj, w, alpha, ascending)
    if sp is None:
        raise InfeasibleSplit(
            "no feasible split at a point where one is required",
            details={
                "alpha": alpha,
                "total_weight": w.total,
                "supported": int((w.weights > 0).sum()),
                "interval": interval,
                "variance_gate": gate,
            },
        )
    # Ascending projections make {x >= t - R} a suffix and {x < t + R} a prefix.
    lo, hi = np.searchsorted(proj, (sp.t - sp.R, sp.t + sp.R)).tolist()
    if w.unit:
        right, left = WeightFn._ones(len(proj) - lo), WeightFn._ones(hi)
    else:
        right = WeightFn._own(w.weights[lo:].copy())
        left = WeightFn._own(w.weights[:hi].copy())
    rows = (_rows(order, slice(lo, len(proj))), _rows(order, slice(0, hi)))
    return MultifilterOutcome("split", (right, left), sp, rows)
