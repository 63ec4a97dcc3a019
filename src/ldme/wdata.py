"""Weighted point sets and the spectral kernel built on them.

A PointSet is an immutable n x d sample matrix; every soft-filtering state
lives in a WeightFn attached to it. Means, variances and projections cost
O(n*d). The top eigenpair is exact: the d x d weighted covariance is
formed block by block in O(n d^2) and handed to a dense symmetric
eigensolver, O(d^3); in 1-D it is the weighted variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-9
# Entries per centered block of the covariance accumulation (512 KiB).
BLOCK_ELEMENTS = 1 << 16


class PointSet:
    """Immutable set of n points in R^d, stored row-major.

    The float64 points, divided by ``scale`` unless it is 1, are written in
    one pass, so building a set holds only the input and one copy.
    """

    __slots__ = ("points", "n", "d")

    def __init__(self, points, scale: float = 1.0) -> None:
        if scale != 1.0:
            pts = np.divide(points, scale, dtype=np.float64)
        else:
            pts = np.array(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2:
            raise ValueError(f"points must form a 2-D array, got shape {pts.shape}")
        n, d = pts.shape
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {pts.shape}")
        # max and min propagate NaN and +-inf, so they double as the check.
        if not (np.isfinite(pts.max()) and np.isfinite(pts.min())):
            raise ValueError("points must have finite coordinates")
        pts.flags.writeable = False
        self.points = pts
        self.n = n
        self.d = d

    def restrict(self, rows: np.ndarray) -> "PointSet":
        """The rows at the given integer indices, in that order, as a PointSet.

        A boolean mask is refused: ``np.take`` would read it as indices 0 and 1.
        """
        rows = np.asarray(rows)
        if rows.dtype == bool:
            raise TypeError("restrict takes row indices, not a boolean mask")
        sub = PointSet.__new__(PointSet)
        sub.points = np.take(self.points, rows, axis=0)
        sub.points.flags.writeable = False
        sub.n, sub.d = sub.points.shape
        return sub

    def __repr__(self) -> str:
        return f"PointSet(n={self.n}, d={self.d})"


class WeightFn:
    """Per-point weights in [0, 1] for a PointSet of matching length.

    The total mass is computed once at construction and cached. The public
    constructor copies its input; ``_own`` adopts a fresh array instead.
    """

    __slots__ = ("weights", "total")

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

    def _adopt(self, w: np.ndarray) -> None:
        if w.ndim != 1:
            raise ValueError(f"weights must be 1-D, got shape {w.shape}")
        if w.size:
            # min and max propagate NaN, so two reductions check every entry
            # without a length-n temporary.
            lo, hi = float(w.min()), float(w.max())
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError("weights must be finite")
            if lo < 0.0 or hi > 1.0:
                raise ValueError("weights must lie in [0, 1]")
        w.flags.writeable = False
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
    weighted covariance, clipped at 0 from below.
    """

    value: float
    direction: np.ndarray


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
    differently depending on its position.
    """
    v = _check_unit(v, ps.d)
    return np.einsum("ij,j->i", ps.points, v)


def weighted_mean(ps: PointSet, w: WeightFn) -> np.ndarray:
    """Mean of the points under w, (1/w(T)) * sum_x w(x) x."""
    if len(w) != ps.n:
        raise ValueError(f"weight length {len(w)} does not match n={ps.n}")
    if w.total <= 0.0:
        raise ValueError("weight function has zero total mass")
    return (w.weights @ ps.points) / w.total


def weighted_variance(values: np.ndarray, w: WeightFn) -> float:
    """Weighted variance of a 1-D array of values (two-pass)."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != w.weights.shape:
        raise ValueError("values and weights must have matching length")
    if w.total <= 0.0:
        raise ValueError("weight function has zero total mass")
    return _variance(values, w.weights, w.total)


def _variance(vals: np.ndarray, wts: np.ndarray, total: float) -> float:
    """The two-pass weighted variance of vals under wts, whose sum is total."""
    mean = float(wts @ vals) / total
    dev = vals - mean
    dev *= dev
    return float(wts @ dev) / total


def _weighted_cov(ps: PointSet, w: WeightFn) -> np.ndarray:
    """The d x d weighted covariance, (1/w(T)) * sum_x w(x) (x - mu)(x - mu)'.

    The rows are centered and scaled by sqrt(w) a block of about
    BLOCK_ELEMENTS entries at a time, so no n x d temporary is ever made;
    a zero-weight row adds exact zeros. O(n d^2).
    """
    mu = weighted_mean(ps, w)
    cov = np.zeros((ps.d, ps.d))
    step = max(1, BLOCK_ELEMENTS // ps.d)
    for start in range(0, ps.n, step):
        y = ps.points[start : start + step] - mu
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

    In 1-D there is nothing to solve: the direction is [1.0] and the value
    the weighted variance of the one coordinate, a two-pass sum over the
    rows in their order, O(n). It can differ from the 1 x 1
    covariance's entry in the last bits.

    Args:
        ps: the point set.
        w: weights with positive total mass.

    Returns:
        EigenPair with value max(v'Cov v, 0). When the covariance is zero
        the value is 0 and the direction an arbitrary unit vector.
    """
    if ps.d == 1:
        return EigenPair(value=weighted_variance(ps.points[:, 0], w), direction=np.ones(1))
    cov = _weighted_cov(ps, w)
    v = np.linalg.eigh(cov)[1][:, -1].copy()
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    return EigenPair(value=max(float(v @ cov @ v), 0.0), direction=v)
