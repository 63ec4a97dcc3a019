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
from .wdata import PointSet, WeightFn, _mean_variance, project, weighted_variance

# Candidates per block of the split search: every temporary of the search is
# this long or as long as a block's partner window, whatever the support's size.
SPLIT_BLOCK = 1 << 7
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
    return _mean_variance(vals, wts, total)[1]


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

    Candidates are scored SPLIT_BLOCK at a time, best bound first: one
    vectorized pass per family bounds every block's scores (_block_floors),
    a block whose cuts have no partner is never scored, and the search stops
    at the first block whose bound exceeds the best score. A scored block
    forms its own cuts and those of the window its partners fall in
    (_partners), never lo and hi over the whole support. The first minimum
    wins: within a family the lowest index, and on equal scores family 1
    over family 2, as in a scan of family 1 and then family 2.

    ``order`` is as for quantile_interval; basic_multifilter passes
    ``slice(None)``, since its projections ascend. The chosen split is
    re-checked on the realized halves, each a run of the ascending order.
    """
    vals, wts, _ = _ascending(projections, w, order, alpha)
    grid = _cut_grid(vals, wts, w.unit)
    if grid is None:
        return None
    u, prefix = grid
    total = float(prefix[-1])
    l48 = 48.0 * np.log2(2.0 / alpha)

    m = len(u) - 1
    n1 = _first(lambda i: prefix[i] / total > 0.5, m)  # g1 <= 1/2 on [0, n1)
    j0 = _first(lambda j: (total - prefix[j]) / total <= 0.5, m)  # g2 <= 1/2 on [j0, m)
    blocks = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for family, first, end in ((1, 0, n1), (2, j0, m)):
            start = np.arange(first, end, SPLIT_BLOCK)
            stop = np.minimum(start + SPLIT_BLOCK, end)
            floor = _block_floors(u, prefix, total, l48, family, start, stop)
            blocks.append((floor, np.full(len(start), family), start, stop))
        floor, family, start, stop = (np.concatenate(x) for x in zip(*blocks))
        grid = (u, prefix, total, 8.0 * np.spacing(max(-u[0], u[-1])), l48)
        best = (np.inf, 0, 0, None)
        for k in np.lexsort((start, family, floor)):
            # An inf floor (no partner) ends the search as a high one does.
            if floor[k] == np.inf or floor[k] > best[0] + 1e-9:
                break
            found = _block_best(*grid, *(int(x[k]) for x in (family, start, stop)))
            if found is not None and found[:3] < best[:3]:
                best = found
    sp = best[3]
    if sp is None or not _split_holds(vals, wts, w.total, sp, l48, w.unit):
        return None
    return sp


def _block_floors(
    u: np.ndarray, prefix: np.ndarray, total: float, l48: float,
    family: int, start: np.ndarray, stop: np.ndarray,
) -> np.ndarray:
    """Lower bounds on the scores of the feasible candidates of the blocks
    [start, stop) of a family, inf where a block has none.

    The larger of two bounds. A candidate's lost fractions add up to at most
    1, so a block whose own fractions (g1 in family 1, g2 in family 2) lie
    in [a, b] scores at least (1 - b)^2 + a^2; the caller allows 1e-9 for
    rounding. And the partner, through u alone (see _partners): in family 1
    every key of the block is at least u[start] + 2 sqrt(l48/b), so every
    partner j is at least p - 1, p = searchsorted(u, key, "right"), and
    g2[j] <= g2[p - 1]; in family 2 every key is at most u[stop] - 2
    sqrt(l48/b), so every partner i is at most q - 1, q = searchsorted(u,
    key, "left"), and g1[i] <= g1[q - 1]. Rounding and searchsorted are
    monotone, so this bound holds on the scores as _block_best rounds them.
    With no cut there (p - 1 = m, or q - 1 = -1) no candidate has a partner.
    """
    if family == 1:
        a, b = prefix[start] / total, prefix[stop - 1] / total
        j = np.searchsorted(u, u[start] + 2.0 * np.sqrt(l48 / b), side="right") - 1
        none, partner = j >= len(u) - 1, (total - prefix[j]) / total
    else:
        a, b = (total - prefix[stop - 1]) / total, (total - prefix[start]) / total
        i = np.searchsorted(u, u[stop] - 2.0 * np.sqrt(l48 / b), side="left") - 1
        # prefix[-1] reads the total where i = -1; that floor is inf anyway.
        none, partner = i < 0, prefix[i] / total
    own, partner = 1.0 - b, 1.0 - partner
    floor = own * own + np.maximum(a * a, partner * partner)
    floor[none] = np.inf
    return floor


def _block_best(
    u: np.ndarray, prefix: np.ndarray, total: float, cap: float, l48: float,
    family: int, start: int, stop: int,
) -> tuple | None:
    """The first best feasible candidate of one block of a family, as
    (score, family, index, SplitParams), or None.

    Family 1 pairs each lower cut i in [start, stop) with its smallest usable
    upper cut j; family 2 each upper cut j with its largest usable lower cut
    i. index is i in family 1 and j in family 2, so comparing these tuples
    keeps the first minimum of a family and prefers family 1 on equal scores.
    """
    lo, hi = _cuts(u, cap, start, stop)
    if family == 1:
        key = lo + 2.0 * np.sqrt(l48 / (prefix[start:stop] / total))
    else:
        key = hi - 2.0 * np.sqrt(l48 / ((total - prefix[start:stop]) / total))
    partner, at, wlo, whi = _partners(u, cap, family, key)
    own = np.arange(start, stop)
    i, j = (own, partner) if family == 1 else (partner, own)
    keep = (i >= 0) & (j < len(u) - 1)
    i, j = i[keep], j[keep]
    if family == 1:
        lo_i, hi_i, hi_j = lo[keep], hi[keep], whi[j - at]
    else:
        lo_i, hi_i, hi_j = wlo[i - at], whi[i - at], hi[keep]
    g1, g2 = prefix[i] / total, (total - prefix[j]) / total
    score = (1.0 - g1) ** 2 + (1.0 - g2) ** 2
    gmin = np.minimum(g1, g2)
    # hi[i] is the highest usable lower cut in box i.
    r_lo = np.maximum(np.sqrt(l48 / gmin), 0.5 * (hi_j - hi_i))
    r_hi = 0.5 * (hi_j - lo_i)
    R = 0.5 * (r_lo + r_hi)
    ok = (score <= 1.0) & (gmin > 0.0) & (r_lo < r_hi) & (gmin >= l48 / (R * R))
    if not ok.any():
        return None
    k = int(np.argmin(np.where(ok, score, np.inf)))
    index = int(i[k] if family == 1 else j[k])
    return float(score[k]), family, index, SplitParams(t=float(hi_j[k] - R[k]), R=float(R[k]))


def _partners(u: np.ndarray, cap: float, family: int, key: np.ndarray) -> tuple:
    """The partner cut of each key and the window of cuts it was searched
    in, as (partner, at, lo, hi) with lo, hi the cuts of the gaps from at.

    The partner is searchsorted's over the full cuts: in family 1 the count
    of hi <= key, in family 2 the count of lo < key less one. As u[k] <=
    lo[k] and hi[k] <= u[k+1], a key at p = searchsorted(u, key) (side
    "right" in family 1, "left" in 2) has its partner at p - 1 or p (family
    1), p - 2 or p - 1 (family 2). The window spans those gaps from the
    lowest key to the highest, so its count plus ``at`` is the full one.
    """
    side = "right" if family == 1 else "left"
    p0, p1 = np.searchsorted(u, (key.min(), key.max()), side=side).tolist()
    at = max(p0 - family, 0)
    lo, hi = _cuts(u, cap, at, min(p1 + 2 - family, len(u) - 1))
    if family == 1:
        return np.searchsorted(hi, key, side="right") + at, at, lo, hi
    return np.searchsorted(lo, key, side="left") + (at - 1), at, lo, hi


def _cuts(u: np.ndarray, cap: float, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The usable cuts lo, hi of the gaps [start, stop) of u, each clear of
    the values on both sides of its gap by min(gap/4, cap)."""
    v = u[start : stop + 1]
    clear = np.diff(v)
    clear *= 0.25
    np.minimum(clear, cap, out=clear)
    return v[:-1] + clear, np.subtract(v[1:], clear, out=clear)


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
    """The sorted unique supported values u and the prefix sums of their
    weights (the last entry is the total), or None below two such values.

    Takes the values in ascending order with their weights and drops
    zero-weight entries. Without ties u is the input itself and its weights
    need no grouping; under unit weights (``unit``) the prefix sums are then
    the counts 1, 2, ..., the same bits as cumsum, and the grid is one array
    of the support's size.
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
    return None if len(u) < 2 else (u, prefix)


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
