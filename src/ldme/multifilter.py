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

from .config import RunConfig
from .wdata import PointSet, WeightFn, project, weighted_variance

class DegenerateDownweight(RuntimeError):
    """Raised when every supported point already sits inside the interval."""


class InfeasibleSplit(RuntimeError):
    """Raised when no feasible split exists where one is required.

    Carries a ``details`` dict with the state that produced the failure.
    """

    def __init__(self, message: str, details: dict | None = None) -> None:
        super().__init__(message)
        self.details = details or {}


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with center t and half-width R."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.a <= self.b:
            raise ValueError(f"interval needs a <= b, got [{self.a}, {self.b}]")

    @property
    def center(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def half_width(self) -> float:
        return 0.5 * (self.b - self.a)

    def doubled(self) -> "Interval":
        """The interval with the same center and twice the half-width."""
        t, r = self.center, self.half_width
        return Interval(t - 2.0 * r, t + 2.0 * r)

    def contains(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        return (values >= self.a) & (values <= self.b)


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
    Children are support-local: children[i] weights the points at the row
    indices rows[i] of the pass's point set, listed in ascending order of
    their projections.
    """

    tag: str
    children: tuple[WeightFn, ...] = ()
    split_params: SplitParams | None = None
    rows: tuple[np.ndarray, ...] = ()

    @classmethod
    def certified(cls) -> "MultifilterOutcome":
        return cls(tag="certified")

    @classmethod
    def reweighted(cls, new_weights: WeightFn, rows: np.ndarray) -> "MultifilterOutcome":
        return cls(tag="reweighted", children=(new_weights,), rows=(rows,))

    @classmethod
    def split(
        cls, left: WeightFn, right: WeightFn, params: SplitParams, rows: tuple
    ) -> "MultifilterOutcome":
        return cls(tag="split", children=(left, right), split_params=params, rows=rows)


def _check_inputs(projections: np.ndarray, w: WeightFn, alpha: float) -> np.ndarray:
    p = np.asarray(projections, dtype=np.float64)
    if p.ndim != 1 or p.shape != w.weights.shape:
        raise ValueError("projections and weights must have matching length")
    if w.total <= 0.0:
        raise ValueError("weight function has zero total mass")
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    return p


def quantile_interval(
    projections: np.ndarray, w: WeightFn, alpha: float, order: np.ndarray | None = None
) -> Interval:
    """Central interval [a, b] trimming alpha*w(T)/8 of weight per side.

    a is the largest sample value whose strictly-smaller weight is at most
    the trim threshold; b symmetrically from above. Both endpoints are
    attained at sample values. Over the sorted values, the weight before a
    position and the weight after it are monotone, so one binary search per
    side finds the endpoint; ties share their value, so any position of a
    tied value gives the same endpoint, and the sort need not be stable.
    Sort plus prefix sums, O(n log n).

    ``order`` puts the projections in ascending order: an argsort that the
    caller already holds, or ``slice(None)`` when they already ascend;
    without it the function sorts for itself.
    """
    p = _check_inputs(projections, w, alpha)
    tau = alpha * w.total / 8.0

    if order is None:
        order = np.argsort(p)
    vals = p[order]
    cum = np.cumsum(w.weights[order])
    ja = int(np.searchsorted(cum[:-1], tau, side="right"))
    above = w.total - cum
    above[-1] = 0.0  # exact by definition; shields cumsum round-off
    jb = int(np.argmax(above <= tau))
    return Interval(float(vals[ja]), float(vals[jb]))


def truncated_variance(projections: np.ndarray, w: WeightFn, window: Interval) -> float:
    """Weighted variance of the projections restricted to the window."""
    p = np.asarray(projections, dtype=np.float64)
    if p.shape != w.weights.shape:
        raise ValueError("projections and weights must have matching length")
    mask = window.contains(p)
    win_w = w.weights[mask]
    total = float(win_w.sum())
    if total <= 0.0:
        raise ValueError("no weight inside the window")
    vals = p[mask]
    mean = float(win_w @ vals) / total
    dev = vals - mean
    return float(win_w @ (dev * dev)) / total


def soft_downweight(projections: np.ndarray, w: WeightFn, interval: Interval) -> WeightFn:
    """Downweight each point by its squared distance from the interval.

    f(x) is zero inside [a, b] and the squared distance to the nearest
    endpoint outside; new weights are (1 - f/f_max) * w with f_max taken
    over supported points only, so the supported argmax lands exactly at 0.
    """
    p = np.asarray(projections, dtype=np.float64)
    if p.shape != w.weights.shape:
        raise ValueError("projections and weights must have matching length")
    if w.total <= 0.0:
        raise ValueError("weight function has zero total mass")
    # One length-n buffer goes from the gap to the new weights in place.
    f = np.maximum(interval.a - p, 0.0)
    f += np.maximum(p - interval.b, 0.0)
    f *= f
    fmax = float(np.max(f, where=w.weights > 0.0, initial=0.0))
    if fmax <= 0.0:
        raise DegenerateDownweight(
            "all supported projections lie inside the interval"
        )
    f /= fmax
    np.subtract(1.0, f, out=f)
    np.maximum(f, 0.0, out=f)
    f *= w.weights
    return WeightFn._own(f)


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
    On equal scores family 1 wins.

    ``order`` puts the projections in ascending order, as for
    quantile_interval: an argsort that the caller already holds, or
    ``slice(None)`` when they already ascend (as in basic_multifilter);
    without it the function sorts for itself.
    """
    p = _check_inputs(projections, w, alpha)
    if order is None:
        order = np.argsort(p)
    grid = _cut_grid(p, w.weights, order)
    if grid is None:
        return None
    g1, g2, lo, hi = grid
    l48 = 48.0 * np.log2(2.0 / alpha)

    m = len(lo)
    n1 = int(np.searchsorted(g1, 0.5, side="right"))  # g1 <= 1/2 on [0, n1)
    j0 = m - int(np.searchsorted(g2[::-1], 0.5, side="right"))  # g2 <= 1/2 on [j0, m)
    best_score, sp = np.inf, None
    with np.errstate(divide="ignore", invalid="ignore"):
        j_of_i = np.searchsorted(hi, lo[:n1] + 2.0 * np.sqrt(l48 / g1[:n1]), side="right")
        i_of_j = (
            np.searchsorted(lo, hi[j0:] - 2.0 * np.sqrt(l48 / g2[j0:]), side="left") - 1
        )
        # One family at a time keeps the temporaries at one slice's length.
        for i, j in ((np.arange(n1), j_of_i), (i_of_j, np.arange(j0, m))):
            keep = (i >= 0) & (j < m)
            i, j = i[keep], j[keep]
            score = (1.0 - g1[i]) ** 2 + (1.0 - g2[j]) ** 2
            keep = score <= 1.0
            i, j, score = i[keep], j[keep], score[keep]
            gmin = np.minimum(g1[i], g2[j])
            # hi[i] is the highest usable lower cut in box i.
            r_lo = np.maximum(np.sqrt(l48 / gmin), 0.5 * (hi[j] - hi[i]))
            r_hi = 0.5 * (hi[j] - lo[i])
            R = 0.5 * (r_lo + r_hi)
            ok = (gmin > 0.0) & (r_lo < r_hi) & (gmin >= l48 / (R * R))
            if ok.any():
                k = int(np.argmin(np.where(ok, score, np.inf)))
                if score[k] < best_score:
                    best_score = score[k]
                    sp = SplitParams(t=float(hi[j[k]] - R[k]), R=float(R[k]))
    if sp is None or not _split_holds(p, w.weights, w.total, sp, l48):
        return None
    return sp


def _cut_grid(
    p: np.ndarray, weights: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, ...] | None:
    """The arrays find_split searches, or None below two supported values.

    Takes the values and weights in the sort order ``order`` and drops
    zero-weight entries, then returns, over the gaps between the sorted
    unique supported values u, the lost fractions g1 and g2 and the usable
    cuts lo and hi. The gathered arrays, group starts and prefix sums die
    here, so a split search holds few arrays of the support's size at once.
    """
    vals = p[order]
    wts = weights[order]
    supported = wts > 0.0
    if not supported.all():
        vals, wts = vals[supported], wts[supported]
    starts = np.flatnonzero(np.r_[True, vals[1:] != vals[:-1]])
    if len(starts) < 2:
        return None
    u = vals[starts]
    prefix = np.cumsum(np.add.reduceat(wts, starts))
    total = float(prefix[-1])
    g1 = prefix[:-1] / total
    g2 = (total - prefix[:-1]) / total

    clear = np.minimum(0.25 * np.diff(u), 8.0 * np.spacing(max(-u[0], u[-1])))
    return g1, g2, u[:-1] + clear, u[1:] - clear


def _split_holds(
    proj: np.ndarray, weights: np.ndarray, total: float, sp: SplitParams, l48: float
) -> bool:
    """Re-check both conditions on the realized halves of a candidate."""
    w1 = float(weights[proj >= sp.t - sp.R].sum())
    w2 = float(weights[proj < sp.t + sp.R].sum())
    if not w1 * w1 + w2 * w2 <= total * total:
        return False
    return min(1.0 - w1 / total, 1.0 - w2 / total) >= l48 / (sp.R * sp.R)


def basic_multifilter(
    ps: PointSet,
    w: WeightFn,
    v: np.ndarray,
    alpha: float,
    cfg: RunConfig,
    sorted_along: np.ndarray | None = None,
) -> MultifilterOutcome:
    """Run one filtering pass along the unit direction v.

    Computes the central quantile interval I; when the variance truncated to
    the doubled interval is at most big_c * lg(2/alpha)^2, either certifies
    (full weighted variance at most twice that) or softly downweights by
    distance from I. Otherwise splits the weights via find_split.

    The pass works in ascending order of the projections. ``sorted_along``
    is the direction the rows of ps already ascend along, if the caller
    knows one. When v equals it bit for bit, the projections ascend as
    given, since each row is projected on its own, and the pass does not
    sort; otherwise it sorts them once. The children keep that order (see
    MultifilterOutcome): a split child is the prefix {x < t + R} or the
    suffix {x >= t - R}, and the reweighted child drops the rows it zeroes.

    Raises:
        InfeasibleSplit: the variance gate tripped but no feasible split
            exists. This can happen when big_c sits below the constant the
            feasibility argument needs and the data has groups at
            just-the-wrong separations; the branch must be aborted rather
            than silently degrade the guarantees.
    """
    proj = project(ps, v)
    if w.total <= 0.0:
        raise ValueError("weight function has zero total mass")
    if sorted_along is not None and np.array_equal(v, sorted_along):
        order = np.arange(ps.n)
    else:
        order = np.argsort(proj)
        proj, w = proj[order], WeightFn._own(w.weights[order])
    ascending = slice(None)  # shared by the quantile interval and the split search
    interval = quantile_interval(proj, w, alpha, ascending)
    lg = np.log2(2.0 / alpha)
    gate = cfg.big_c * lg * lg
    if truncated_variance(proj, w, interval.doubled()) <= gate:
        if weighted_variance(proj, w) <= 2.0 * gate:
            return MultifilterOutcome.certified()
        new = soft_downweight(proj, w, interval).weights
        keep = new > 0.0
        return MultifilterOutcome.reweighted(WeightFn._own(new[keep]), order[keep])
    sp = find_split(proj, w, alpha, ascending)
    if sp is None:
        raise InfeasibleSplit(
            "no feasible split at a point where one is required",
            details={
                "alpha": alpha,
                "total_weight": w.total,
                "supported": int((w.weights > 0).sum()),
                "interval": (interval.a, interval.b),
                "variance_gate": gate,
            },
        )
    # Ascending projections make {x >= t - R} a suffix and {x < t + R} a prefix.
    lo, hi = np.searchsorted(proj, (sp.t - sp.R, sp.t + sp.R))
    right = WeightFn._own(w.weights[lo:].copy())
    left = WeightFn._own(w.weights[:hi].copy())
    return MultifilterOutcome.split(right, left, sp, (order[lo:].copy(), order[:hi].copy()))
