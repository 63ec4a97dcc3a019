"""Independent reference implementations used as test oracles.

Everything here is written as directly from the definitions as possible
(plain loops, no shared code with the package) so that agreement is
meaningful. ``tied_1d_instance`` draws inputs for the tie-order tests.
"""

from __future__ import annotations

import math

import numpy as np


def dot_naive(points: np.ndarray, v: np.ndarray) -> list[float]:
    out = []
    for row in points:
        acc = 0.0
        for a, b in zip(row, v):
            acc += float(a) * float(b)
        out.append(acc)
    return out


def weighted_mean_naive(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    total = 0.0
    acc = np.zeros(points.shape[1])
    for row, wt in zip(points, weights):
        acc = acc + wt * row
        total += float(wt)
    return acc / total


def weighted_variance_naive(values, weights) -> float:
    total = sum(float(w) for w in weights)
    mean = sum(float(w) * float(x) for w, x in zip(weights, values)) / total
    return sum(float(w) * (float(x) - mean) ** 2 for w, x in zip(weights, values)) / total


def weighted_variance_along(ps, w, v) -> float:
    """Weighted variance of the projections of a PointSet onto v, two-pass;
    equals v' Cov_w v."""
    proj = np.einsum("ij,j->i", ps.points, np.asarray(v, dtype=float))
    mean = float(w.weights @ proj) / w.total
    dev = proj - mean
    return float(w.weights @ (dev * dev)) / w.total


def cov_matvec(ps, w, u) -> np.ndarray:
    """The weighted covariance of a PointSet applied to u without forming
    it: p_i = w_i <x_i - mu, u>, then (1/w(T)) sum_i p_i (x_i - mu)."""
    u = np.asarray(u, dtype=float)
    mu = (w.weights @ ps.points) / w.total
    p = w.weights * (ps.points @ u - mu @ u)
    return (ps.points.T @ p - mu * p.sum()) / w.total


def dense_weighted_cov(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    mu = weighted_mean_naive(points, weights)
    d = points.shape[1]
    cov = np.zeros((d, d))
    for row, wt in zip(points, weights):
        dev = row - mu
        cov += wt * np.outer(dev, dev)
    return cov / sum(float(w) for w in weights)


def blocked_centered_cov(points: np.ndarray, weights: np.ndarray, block_rows: int) -> np.ndarray:
    """The weighted covariance as a blocked kernel forms it: each block of
    block_rows rows is centered on the weighted mean, scaled by sqrt(w) and
    its Gram matrix summed, then the sum divided by the total weight."""
    mu = (weights @ points) / weights.sum()
    cov = np.zeros((points.shape[1], points.shape[1]))
    for start in range(0, points.shape[0], block_rows):
        y = points[start : start + block_rows] - mu
        y *= np.sqrt(weights[start : start + block_rows])[:, None]
        cov += y.T @ y
    return cov / weights.sum()


def quantile_interval_naive(projections, weights, alpha) -> tuple[float, float]:
    """Linear scan straight off the definition: a is the largest sample
    value whose strictly-below weight is within the trim budget, b the
    smallest whose strictly-above weight is."""
    proj = [float(x) for x in projections]
    wts = [float(w) for w in weights]
    tau = alpha * sum(wts) / 8.0
    a_candidates = [
        x
        for x in proj
        if sum(w for y, w in zip(proj, wts) if y < x) <= tau
    ]
    b_candidates = [
        x
        for x in proj
        if sum(w for y, w in zip(proj, wts) if y > x) <= tau
    ]
    return max(a_candidates), min(b_candidates)


def truncated_variance_naive(projections, weights, lo, hi) -> float:
    vals = []
    wts = []
    for x, w in zip(projections, weights):
        if lo <= float(x) <= hi:
            vals.append(float(x))
            wts.append(float(w))
    return weighted_variance_naive(vals, wts)


def split_conditions_hold(projections, weights, alpha, t, R, rel_tol=1e-9) -> bool:
    """Check both split conditions for a concrete (t, R) from raw weights."""
    proj = np.asarray(projections, dtype=float)
    wts = np.asarray(weights, dtype=float)
    total = float(wts.sum())
    w1 = float(wts[proj >= t - R].sum())
    w2 = float(wts[proj < t + R].sum())
    need = 48.0 * math.log2(2.0 / alpha) / (R * R)
    cond_mass = w1 * w1 + w2 * w2 <= total * total * (1.0 + rel_tol)
    cond_loss = min(1.0 - w1 / total, 1.0 - w2 / total) >= need * (1.0 - rel_tol)
    return R > 0.0 and cond_mass and cond_loss


def split_feasible_bruteforce(projections, weights, alpha, slack=0.0) -> bool:
    """Exhaustive feasibility over ordered pairs of sample-value boundaries.

    For each pair of supported sample values (a = smallest value kept on the
    right, b = largest value kept on the left), the lost fractions are fixed
    and the largest usable half-overlap is half the gap between the extreme
    compatible cuts; the pair is feasible when the loss condition holds
    strictly below that supremum and the squared-mass condition holds.
    """
    proj = np.asarray(projections, dtype=float)
    wts = np.asarray(weights, dtype=float)
    sup = wts > 0.0
    u = np.unique(proj[sup])
    total = float(wts[sup].sum())
    l48 = 48.0 * math.log2(2.0 / alpha)
    m = len(u)
    for ia in range(1, m):
        g1 = float(wts[proj < u[ia]].sum()) / total
        for jb in range(0, m - 1):
            g2 = float(wts[proj > u[jb]].sum()) / total
            rsup = (float(u[jb + 1]) - float(u[ia - 1])) / 2.0
            if rsup <= 0.0:
                continue
            gmin = min(g1, g2)
            if gmin <= 0.0:
                continue
            if not gmin > l48 / (rsup * rsup):
                continue
            if (1.0 - g1) ** 2 + (1.0 - g2) ** 2 <= 1.0 + slack:
                return True
    return False


def split_best_score_bruteforce(projections, weights, alpha) -> float | None:
    """Smallest squared-mass sum (1 - g1)^2 + (1 - g2)^2 over feasible
    splits, or None.

    The lower cut lies between consecutive supported values u[i] < u[i+1]
    and loses the weight fraction g1 at or below u[i]; the upper cut lies
    between u[j] < u[j+1] and loses g2 above u[j]. No clearance is kept, so
    the supremum of the half-overlap is (u[j+1] - u[i]) / 2; the pair is
    feasible when the loss condition holds strictly below it and the
    squared-mass sum is at most 1.
    """
    proj = np.asarray(projections, dtype=float)
    wts = np.asarray(weights, dtype=float)
    sup = wts > 0.0
    u = [float(x) for x in np.unique(proj[sup])]
    total = float(wts[sup].sum())
    l48 = 48.0 * math.log2(2.0 / alpha)
    best = None
    for i in range(len(u) - 1):
        g1 = float(wts[proj <= u[i]].sum()) / total
        for j in range(len(u) - 1):
            g2 = float(wts[proj > u[j]].sum()) / total
            rsup = (u[j + 1] - u[i]) / 2.0
            gmin = min(g1, g2)
            if rsup <= 0.0 or gmin <= 0.0 or not gmin > l48 / (rsup * rsup):
                continue
            score = (1.0 - g1) ** 2 + (1.0 - g2) ** 2
            if score <= 1.0 and (best is None or score < best):
                best = score
    return best


def min_error_naive(vectors, target) -> float:
    best = math.inf
    for vec in vectors:
        dist = math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(vec, target)))
        best = min(best, dist)
    return best


def top_eigenpair_dense(points: np.ndarray, weights: np.ndarray) -> tuple[float, np.ndarray]:
    cov = dense_weighted_cov(points, weights)
    vals, vecs = np.linalg.eigh(cov)
    return float(vals[-1]), vecs[:, -1]


def separated_subset_props(kept: np.ndarray, original: np.ndarray, radius: float) -> bool:
    """kept must be pairwise > radius apart and cover original within radius."""
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            if np.linalg.norm(kept[i] - kept[j]) <= radius:
                return False
    for vec in original:
        if not any(np.linalg.norm(vec - k) <= radius for k in kept):
            return False
    return True


def tied_1d_instance(rng, n_max: int = 120):
    """Weighted 1-D values with heavy ties, for tie-order tests.

    Either rounded values with weights k/64, or a few distinct values each
    repeated with one shared weight (duplicate rows, as along a lineage).
    Both make the weight of every tied group the same bits in any summation
    order, so a sort that reorders ties must not change any result.
    """
    n = int(rng.integers(2, n_max + 1))
    centers = rng.normal(size=int(rng.integers(1, 5))) * rng.uniform(1, 300)
    if rng.integers(0, 2):
        vals = np.round(rng.choice(centers, n) + rng.normal(size=n) * rng.uniform(0, 3))
        wts = rng.integers(0, 65, n) / 64.0
    else:
        m = int(rng.integers(1, n + 1))
        base = rng.choice(centers, m) + rng.normal(size=m) * rng.uniform(0.5, 3)
        wbase = rng.uniform(0, 1, m)
        wbase[wbase < 0.1] = 0.0
        pick = rng.integers(0, m, n)
        vals, wts = base[pick], wbase[pick]
    if wts.max() <= 0:
        wts[rng.integers(0, n)] = 1.0
    return vals, wts, float(rng.uniform(0.02, 0.45))


def split_candidates(projections, weights, alpha):
    """The feasible candidates of the full two-family search over every cut
    position, as (g1, g2, candidates).

    Family 1 pairs every lower cut i with its smallest usable upper cut,
    family 2 every upper cut j with its largest usable lower cut. Both cuts
    of a gap keep the clearance min(gap/4, 8 ulp(max |u|)) from the values
    around it. g1[i] and g2[j] are the lost fractions of the cuts, and each
    candidate is (score, family, index, t, R) with index i in family 1 and j
    in family 2.
    """
    proj = np.asarray(projections, dtype=float)
    wts = np.asarray(weights, dtype=float)
    sup = wts > 0.0
    vals = proj[sup]
    order = np.argsort(vals)
    vals = vals[order]
    starts = np.flatnonzero(np.r_[True, vals[1:] != vals[:-1]])
    if len(starts) < 2:
        return np.zeros(0), np.zeros(0), []
    u = vals[starts]
    prefix = np.cumsum(np.add.reduceat(wts[sup][order], starts))
    total = float(prefix[-1])
    g1 = prefix[:-1] / total
    g2 = (total - prefix[:-1]) / total
    clear = np.minimum(0.25 * np.diff(u), 8.0 * np.spacing(np.abs(u).max()))
    lo = u[:-1] + clear
    hi = u[1:] - clear
    l48 = 48.0 * np.log2(2.0 / alpha)

    idx = np.arange(len(lo))
    cands = []
    with np.errstate(divide="ignore", invalid="ignore"):
        j_of_i = np.searchsorted(hi, lo + 2.0 * np.sqrt(l48 / g1), side="right")
        i_of_j = np.searchsorted(lo, hi - 2.0 * np.sqrt(l48 / g2), side="left") - 1
        for family, i, j in ((1, idx, j_of_i), (2, i_of_j, idx)):
            keep = (i >= 0) & (j < len(lo))
            i, j = i[keep], j[keep]
            score = (1.0 - g1[i]) ** 2 + (1.0 - g2[j]) ** 2
            keep = score <= 1.0
            i, j, score = i[keep], j[keep], score[keep]
            gmin = np.minimum(g1[i], g2[j])
            r_lo = np.maximum(np.sqrt(l48 / gmin), 0.5 * (hi[j] - hi[i]))
            r_hi = 0.5 * (hi[j] - lo[i])
            R = 0.5 * (r_lo + r_hi)
            ok = (gmin > 0.0) & (r_lo < r_hi) & (gmin >= l48 / (R * R))
            for k in np.flatnonzero(ok):
                index = int(i[k] if family == 1 else j[k])
                cands.append(
                    (float(score[k]), family, index, float(hi[j[k]] - R[k]), float(R[k]))
                )
    return g1, g2, cands


def find_split_both_families(projections, weights, alpha) -> tuple[float, float] | None:
    """(t, R) of the most balanced feasible split, or None, by the full
    two-family candidate search over every cut position.

    This is the search ``find_split`` narrows to the half of each family
    that can win. Family 1 wins on equal scores, and within a family the
    lowest index; the chosen split is re-checked on the realized halves.
    """
    proj = np.asarray(projections, dtype=float)
    wts = np.asarray(weights, dtype=float)
    _, _, cands = split_candidates(proj, wts, alpha)
    if not cands:
        return None
    _, _, _, t, R = min(cands)
    l48 = 48.0 * np.log2(2.0 / alpha)
    w1 = float(wts[proj >= t - R].sum())
    w2 = float(wts[proj < t + R].sum())
    wt = float(wts.sum())
    if not w1 * w1 + w2 * w2 <= wt * wt:
        return None
    if not min(1.0 - w1 / wt, 1.0 - w2 / wt) >= l48 / (R * R):
        return None
    return t, R


def soft_downweight_naive(projections, weights, a, b) -> list[float]:
    """New weights w * max(1 - f/f_max, 0) in input order, f the squared
    distance to [a, b] and f_max its largest value over supported points."""
    f = [max(a - float(x), 0.0) + max(float(x) - b, 0.0) for x in projections]
    f = [d * d for d in f]
    fmax = max((d for d, w in zip(f, weights) if w > 0.0), default=0.0)
    return [max(1.0 - d / fmax, 0.0) * float(w) for d, w in zip(f, weights)]
