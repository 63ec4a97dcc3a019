"""Weighted point sets and the spectral kernel built on them.

A PointSet is an immutable n x d sample matrix; every soft-filtering state
lives in a WeightFn attached to it. Means, variances and projections cost
O(n*d). The top eigenpair is exact: the d x d weighted covariance is
formed in O(n d^2), as one product on the driver's centered set under
all-ones weights and block by block otherwise, and handed to a dense
symmetric eigensolver, O(d^3); in 1-D it is the weighted variance. The
pair keeps the mean the covariance was centered on, for reuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-9
# Entries per block of centering and of the covariance accumulation (512 KiB).
BLOCK_ELEMENTS = 1 << 16


def _rows(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A float64 array as n x d rows, with its column mean.

    A NaN or +-inf entry makes its column's mean NaN or +-inf, so the mean
    doubles as the finite-value check. Each row is weighted by 1/n before
    the sum, so the mean of finite rows does not overflow.
    """
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2:
        raise ValueError(f"points must form a 2-D array, got shape {pts.shape}")
    n, d = pts.shape
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got shape {pts.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf: refused just below
        mean = np.full(n, 1.0 / n) @ pts
    if not np.isfinite(mean).all():
        raise ValueError("points must have finite coordinates")
    return pts, mean


class PointSet:
    """Immutable set of n points in R^d, stored row-major.

    Building a set copies the points once to float64 in row-major order,
    whatever the input's layout, so it holds only the input and that copy.

    ``center`` is None, or the point, in the input's coordinates, that was
    subtracted from every row before scaling: the driver's set, built by
    ``_centered``, has its column mean there, so its rows' mean is zero up
    to rounding. A proper subset from ``restrict`` has None.
    """

    __slots__ = ("points", "n", "d", "center")

    def __init__(self, points) -> None:
        self._adopt(_rows(np.array(points, dtype=np.float64, order="C"))[0], None)

    @classmethod
    def _centered(cls, points, scale: float) -> "PointSet":
        """The points minus their column mean, divided by scale, as a set
        whose center is that mean.

        A C-ordered float64 input is read as it is, any other converted
        once; after the mean (the gemv of _rows), (x - mean) * (1/scale) is
        written into the one fresh array, BLOCK_ELEMENTS entries at a time,
        so the set holds only the input and that array. 1/scale is exact
        for a power-of-two scale.
        """
        own = not (isinstance(points, np.ndarray) and points.dtype == np.float64
                   and points.flags.c_contiguous)
        src, mean = _rows(np.array(points, dtype=np.float64, order="C") if own else points)
        pts = src if own else np.empty_like(src)
        inv, step = 1.0 / scale, max(1, BLOCK_ELEMENTS // src.shape[1])
        for start in range(0, len(src), step):
            block = pts[start : start + step]
            np.subtract(src[start : start + step], mean, out=block)
            block *= inv
        return cls._over(pts, mean)

    @classmethod
    def _over(cls, pts: np.ndarray, center: np.ndarray | None = None) -> "PointSet":
        """A set over the float64 n x d array pts itself, made read-only."""
        ps = cls.__new__(cls)
        ps._adopt(pts, center)
        return ps

    def _adopt(self, pts: np.ndarray, center: np.ndarray | None) -> None:
        pts.flags.writeable = False
        self.points = pts
        self.n, self.d = pts.shape
        self.center = center

    def restrict(self, rows: np.ndarray | slice) -> "PointSet":
        """The rows at the given integer indices, in that order, or the run
        at a slice, as a PointSet: a run is a read-only view, and the run of
        every row the set itself. A boolean mask is refused, as ``np.take``
        would read it as indices 0 and 1.
        """
        if isinstance(rows, slice):
            whole = rows.indices(self.n) == (0, self.n, 1)
            return self if whole else PointSet._over(self.points[rows])
        rows = np.asarray(rows)
        if rows.dtype == bool:
            raise TypeError("restrict takes row indices, not a boolean mask")
        return PointSet._over(np.take(self.points, rows, axis=0))

    def __repr__(self) -> str:
        return f"PointSet(n={self.n}, d={self.d})"


class WeightFn:
    """Per-point weights in [0, 1] for a PointSet of matching length.

    The total mass is computed once at construction and cached, and so is
    ``unit``: whether every weight is exactly 1. Under unit weights a
    running sum of k weights is k, exact below 2**53, so the filter counts
    rows where it would sum weights, with the same bits. The public
    constructor copies its input; ``_own`` adopts a fresh array instead,
    and ``_ones`` builds unit weights without checking or summing them.
    """

    __slots__ = ("weights", "total", "unit")

    def __init__(self, weights) -> None:
        self._adopt(np.array(weights, dtype=np.float64))

    @classmethod
    def _own(cls, w: np.ndarray) -> "WeightFn":
        """Take ownership of a freshly built float64 array without copying.

        The caller must hold no other reference it writes through: the array
        is checked as by the public constructor and then made read-only.
        """
        if w.dtype != np.float64:
            raise TypeError(f"weights must be float64, got {w.dtype}")
        wf = cls.__new__(cls)
        wf._adopt(w)
        return wf

    @classmethod
    def _ones(cls, k: int) -> "WeightFn":
        """Unit weights on k rows: total k, ``unit`` True."""
        w = np.ones(k)
        w.flags.writeable = False
        wf = cls.__new__(cls)
        wf.weights, wf.total, wf.unit = w, float(k), True
        return wf

    def _adopt(self, w: np.ndarray) -> None:
        if w.ndim != 1:
            raise ValueError(f"weights must be 1-D, got shape {w.shape}")
        lo = 1.0
        if w.size:
            # min and max propagate NaN, so two reductions check every entry
            # without a length-n temporary.
            lo, hi = float(w.min()), float(w.max())
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError("weights must be finite")
            if lo < 0.0 or hi > 1.0:
                raise ValueError("weights must lie in [0, 1]")
        w.flags.writeable = False
        self.unit = lo == 1.0
        self.weights = w
        self.total = float(w.sum())

    def __len__(self) -> int:
        return self.weights.shape[0]

    def __repr__(self) -> str:
        return f"WeightFn(n={len(self)}, total={self.total:.6g})"


@dataclass(frozen=True)
class EigenPair:
    """Top eigenpair of a weighted covariance.

    ``value`` equals the Rayleigh quotient of ``direction`` against the
    weighted covariance, clipped at 0 from below. ``mean`` is the
    ``weighted_mean`` it was centered on, the same bits in every d.
    """

    value: float
    direction: np.ndarray
    mean: np.ndarray


def _check_unit(v: np.ndarray, d: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (d,):
        raise ValueError(f"direction has shape {v.shape}, expected ({d},)")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > UNIT_TOL:
        raise ValueError(f"direction must be a unit vector, got norm {norm}")
    return v


def project(ps: PointSet, v: np.ndarray) -> np.ndarray:
    """Project every point onto the unit vector v.

    Each row is reduced on its own, so a point's projection is the same
    bits whichever other rows share its set; BLAS gemv rounds a row
    differently depending on its position. In 1-D the projection is the
    column times v[0], the same values as the reduction (a zero's sign
    aside) in one multiply. For v = [1.0], the one direction the driver
    passes in 1-D, x * 1.0 is x, so the column itself is returned: a
    read-only view of the set's points, not a fresh array.
    """
    v = _check_unit(v, ps.d)
    if ps.d == 1:
        return ps.points[:, 0] if v[0] == 1.0 else ps.points[:, 0] * v[0]
    return np.einsum("ij,j->i", ps.points, v)


def _check_mass(ps: PointSet, w: WeightFn) -> None:
    if len(w) != ps.n:
        raise ValueError(f"weight length {len(w)} does not match n={ps.n}")
    if w.total <= 0.0:
        raise ValueError("weight function has zero total mass")


def weighted_mean(ps: PointSet, w: WeightFn) -> np.ndarray:
    """Mean of the points under w, (1/w(T)) * sum_x w(x) x."""
    _check_mass(ps, w)
    return (w.weights @ ps.points) / w.total


def weighted_variance(values: np.ndarray, w: WeightFn) -> float:
    """Weighted variance of a 1-D array of values (two-pass)."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != w.weights.shape:
        raise ValueError("values and weights must have matching length")
    if w.total <= 0.0:
        raise ValueError("weight function has zero total mass")
    return _mean_variance(values, w.weights, w.total)[1]


def _mean_variance(vals: np.ndarray, wts: np.ndarray, total: float) -> tuple[float, float]:
    """The weighted mean (the first pass, weighted_mean's bits) and the
    two-pass weighted variance of vals under wts, whose sum is total."""
    mean = float(wts @ vals) / total
    dev = vals - mean
    dev *= dev
    return mean, float(wts @ dev) / total


def _weighted_cov(ps: PointSet, w: WeightFn, mu: np.ndarray) -> np.ndarray:
    """The d x d weighted covariance, (1/w(T)) * sum_x w(x) (x - mu)(x - mu)'.

    On a centered set (ps.center is set) under all-ones weights, the
    driver's root, the mean mu is zero up to rounding, so the covariance
    is one product, X'X/n - mu mu', with no cancellation to fear. Any other
    set is centered on mu and scaled by sqrt(w) a block of about
    BLOCK_ELEMENTS entries at a time, so no n x d temporary is ever made;
    a zero-weight row adds exact zeros, and all-ones weights skip the
    scaling, which would multiply by 1. O(n d^2). mu is weighted_mean(ps, w).
    """
    if ps.center is not None and w.unit:
        cov = ps.points.T @ ps.points
        cov /= w.total
        cov -= np.outer(mu, mu)
        return cov
    cov = np.zeros((ps.d, ps.d))
    step = max(1, BLOCK_ELEMENTS // ps.d)
    for start in range(0, ps.n, step):
        y = ps.points[start : start + step] - mu
        if not w.unit:
            y *= np.sqrt(w.weights[start : start + step])[:, None]
        cov += y.T @ y
    return cov / w.total


def approx_top_eigenpair(ps: PointSet, w: WeightFn) -> EigenPair:
    """Top eigenpair of the weighted covariance, by a dense symmetric solve.

    Forms the d x d weighted covariance of the rows and calls
    ``np.linalg.eigh``, so the pair is exact up to rounding: the value is
    the top eigenvalue, which is also the Rayleigh quotient of the returned
    unit direction. The direction's sign is fixed by making its component of
    largest magnitude non-negative, so it does not depend on LAPACK's sign
    choice. Deterministic. O(n d^2 + d^3); the driver passes only a
    branch's supported rows.

    In 1-D there is nothing to solve: the direction is [1.0], the value
    the weighted variance of the one coordinate, a two-pass sum over the
    rows in their order, O(n), and the mean that sum's first pass. The
    value can differ from the 1 x 1 covariance's entry in the last bits.

    w must have positive total mass. The value is max(v'Cov v, 0); when the
    covariance is zero it is 0 and the direction arbitrary.
    """
    if ps.d == 1:
        _check_mass(ps, w)
        mean, value = _mean_variance(ps.points[:, 0], w.weights, w.total)
        return EigenPair(value=value, direction=np.ones(1), mean=np.array([mean]))
    mu = weighted_mean(ps, w)
    cov = _weighted_cov(ps, w, mu)
    v = np.linalg.eigh(cov)[1][:, -1].copy()
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    return EigenPair(value=max(float(v @ cov @ v), 0.0), direction=v, mean=mu)
