"""Weighted point sets and the spectral kernel built on them.

A PointSet is an immutable n x d sample matrix; every soft-filtering state
lives in a WeightFn attached to it. Means, variances and projections cost
O(n*d). The top eigenpair is exact: the d x d weighted covariance of the
supported rows is formed block by block in O(|supp| d^2) and handed to a
dense symmetric eigensolver, O(d^3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-9
DEGENERATE_COV_REL = 1e-12
# Entries per centered block of the covariance accumulation (512 KiB).
BLOCK_ELEMENTS = 1 << 16


class PointSet:
    """Immutable set of n points in R^d, stored row-major.

    The float64 points, divided by ``scale`` unless it is 1, are written in
    one pass, so building a set holds only the input and one copy.
    """

    __slots__ = ("points", "n", "d", "coord_scale")

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
        hi, lo = float(pts.max()), float(pts.min())
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("points must have finite coordinates")
        pts.flags.writeable = False
        self.points = pts
        self.n = n
        self.d = d
        self.coord_scale = max(hi, -lo)

    def restrict(self, rows: np.ndarray) -> "PointSet":
        """The rows at the given integer indices, in that order, as a PointSet
        that keeps this set's coord_scale.

        Degeneracy is then still judged against the scale of the full sample.
        A boolean mask is refused: ``np.take`` would read it as indices 0 and 1.
        """
        rows = np.asarray(rows)
        if rows.dtype == bool:
            raise TypeError("restrict takes row indices, not a boolean mask")
        sub = PointSet.__new__(PointSet)
        sub.points = np.take(self.points, rows, axis=0)
        sub.points.flags.writeable = False
        sub.n, sub.d = sub.points.shape
        sub.coord_scale = self.coord_scale
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
    weighted covariance, except in the degenerate zero-covariance case
    where it is exactly 0.
    """

    value: float
    direction: np.ndarray
    degenerate: bool = False


def _check_pair(ps: PointSet, w: WeightFn) -> None:
    if len(w) != ps.n:
        raise ValueError(f"weight length {len(w)} does not match n={ps.n}")


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
    _check_pair(ps, w)
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
    mean = float(w.weights @ values) / w.total
    dev = values - mean
    return float(w.weights @ (dev * dev)) / w.total


def weighted_variance_along(ps: PointSet, w: WeightFn, v: np.ndarray) -> float:
    """Weighted variance of the projections onto v; equals v' Cov_w v."""
    return weighted_variance(project(ps, v), w)


def cov_matvec(ps: PointSet, w: WeightFn, u: np.ndarray) -> np.ndarray:
    """Apply the weighted covariance to u in O(n*d) without forming it.

    Uses two centered passes: p_i = w_i * <x_i - mu, u>, then
    (1/w(T)) * sum_i p_i (x_i - mu).
    """
    _check_pair(ps, w)
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (ps.d,):
        raise ValueError(f"vector has shape {u.shape}, expected ({ps.d},)")
    if w.total <= 0.0:
        raise ValueError("weight function has zero total mass")
    mu = weighted_mean(ps, w)
    p = w.weights * (ps.points @ u - mu @ u)
    return (ps.points.T @ p - mu * p.sum()) / w.total


def _weighted_cov(ps: PointSet, w: WeightFn) -> np.ndarray:
    """The d x d weighted covariance, (1/w(T)) * sum_x w(x) (x - mu)(x - mu)'.

    Only rows with positive weight enter. They are centered and scaled by
    sqrt(w) a block of about BLOCK_ELEMENTS entries at a time, so no n x d
    temporary is ever made. O(n + |supp| d^2).
    """
    _check_pair(ps, w)
    if w.total <= 0.0:
        raise ValueError("weight function has zero total mass")
    mu = weighted_mean(ps, w)
    cov = np.zeros((ps.d, ps.d))
    step = max(1, BLOCK_ELEMENTS // ps.d)
    for start in range(0, ps.n, step):
        block = ps.points[start : start + step]
        wb = w.weights[start : start + step]
        keep = wb > 0.0
        if not keep.all():
            block, wb = block[keep], wb[keep]
        y = block - mu
        y *= np.sqrt(wb)[:, None]
        cov += y.T @ y
    return cov / w.total


def approx_top_eigenpair(ps: PointSet, w: WeightFn) -> EigenPair:
    """Top eigenpair of the weighted covariance, by a dense symmetric solve.

    Forms the d x d weighted covariance of the supported rows and calls
    ``np.linalg.eigh``, so the pair is exact up to rounding: the value is
    the top eigenvalue, which is also the Rayleigh quotient of the returned
    unit direction. The direction's sign is fixed by making its component of
    largest magnitude non-negative, so it does not depend on LAPACK's sign
    choice. Deterministic. O(|supp| d^2 + d^3).

    Args:
        ps: the point set.
        w: weights with positive total mass.

    Returns:
        EigenPair; ``degenerate`` is set when the covariance is numerically
        zero, in which case value is 0 and the direction is an arbitrary
        unit vector.
    """
    cov = _weighted_cov(ps, w)
    v = np.linalg.eigh(cov)[1][:, -1].copy()
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    value = max(float(v @ cov @ v), 0.0)
    if value <= DEGENERATE_COV_REL * ps.coord_scale**2:
        return EigenPair(value=0.0, direction=v, degenerate=True)
    return EigenPair(value=value, direction=v, degenerate=False)
