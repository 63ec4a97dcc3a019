import math

import numpy as np
import pytest

from ldme import WeightFn, find_split
from oracles import (
    find_split_both_families,
    split_best_score_bruteforce,
    split_conditions_hold,
    split_feasible_bruteforce,
    tied_1d_instance,
)


def random_1d_instance(rng):
    """Weighted 1-D data mixing clusters, spread, ties, and zero weights."""
    n = int(rng.integers(2, 61))
    kind = rng.integers(0, 4)
    if kind == 0:
        vals = rng.normal(size=n) * rng.uniform(0.5, 50)
    elif kind == 1:
        centers = rng.normal(size=int(rng.integers(2, 5))) * rng.uniform(1, 200)
        vals = rng.choice(centers, size=n) + rng.normal(size=n) * rng.uniform(0, 2)
    elif kind == 2:
        vals = np.round(rng.uniform(-20, 20, n))  # heavy ties
    else:
        vals = np.concatenate(
            [np.zeros(n // 2), np.full(n - n // 2, rng.uniform(10, 500))]
        )
    wts = rng.uniform(0, 1, n)
    wts[wts < rng.uniform(0, 0.3)] = 0.0  # sprinkle hard zeros
    if wts.max() <= 0:
        wts[rng.integers(0, n)] = 1.0
    alpha = float(rng.uniform(0.02, 0.45))
    return vals, wts, alpha


class TestFindSplit:
    def test_two_far_clusters_feasible(self):
        vals = np.concatenate([np.zeros(50), np.full(50, 100.0)])
        wts = np.ones(100)
        sp = find_split(vals, WeightFn(wts), 0.2)
        assert sp is not None
        assert split_conditions_hold(vals, wts, 0.2, sp.t, sp.R)
        # both halves keep exactly one cluster here
        w1 = wts[vals >= sp.t - sp.R].sum()
        w2 = wts[vals < sp.t + sp.R].sum()
        assert w1 ** 2 + w2 ** 2 <= 100.0 ** 2
        need = 48 * math.log2(10) / sp.R ** 2
        assert min(1 - w1 / 100, 1 - w2 / 100) >= need * (1 - 1e-9)

    def test_single_supported_value_returns_none(self):
        vals = np.array([3.0, 3.0, 3.0, -50.0])
        wts = np.array([1.0, 0.5, 0.2, 0.0])  # far point unsupported
        assert find_split(vals, WeightFn(wts), 0.2) is None

    @pytest.mark.parametrize("off", [0.0, 1e6])
    def test_matches_bruteforce_oracle(self, off):
        rng = np.random.default_rng(31)
        feasible_seen = 0
        for _ in range(300):
            vals, wts, alpha = random_1d_instance(rng)
            vals = vals + off
            sp = find_split(vals, WeightFn(wts), alpha)
            expect = split_feasible_bruteforce(vals, wts, alpha)
            assert (sp is not None) == expect, (vals, wts, alpha)
            if sp is not None:
                feasible_seen += 1
                assert split_conditions_hold(vals, wts, alpha, sp.t, sp.R)
        assert feasible_seen >= 30  # the comparison must not be vacuous

    @pytest.mark.parametrize("off", [0.0, 1e6])
    def test_takes_most_balanced_split(self, off):
        # The tree shape depends on which feasible split is taken: the one
        # with the smallest squared-mass sum of the two halves.
        rng = np.random.default_rng(32)
        for _ in range(300):
            vals, wts, alpha = random_1d_instance(rng)
            vals = vals + off
            sp = find_split(vals, WeightFn(wts), alpha)
            best = split_best_score_bruteforce(vals, wts, alpha)
            assert (sp is None) == (best is None), (vals, wts, alpha)
            if sp is not None:
                total = wts.sum()
                w1 = wts[vals >= sp.t - sp.R].sum()
                w2 = wts[vals < sp.t + sp.R].sum()
                assert (w1 * w1 + w2 * w2) / total**2 == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("off", [1e9, 1e12])
    def test_splits_hold_exactly_at_large_offsets(self, off):
        rng = np.random.default_rng(33)
        feasible_seen = 0
        for _ in range(300):
            vals, wts, alpha = random_1d_instance(rng)
            vals = vals + off
            sp = find_split(vals, WeightFn(wts), alpha)
            if sp is not None:
                feasible_seen += 1
                assert split_conditions_hold(vals, wts, alpha, sp.t, sp.R, rel_tol=0.0)
        assert feasible_seen >= 30

    def test_tie_order_does_not_matter(self):
        rng = np.random.default_rng(48)
        feasible_seen = 0
        for _ in range(150):
            vals, wts, alpha = tied_1d_instance(rng, n_max=400)
            want = find_split(vals, WeightFn(wts), alpha)
            feasible_seen += want is not None
            for _ in range(3):
                perm = rng.permutation(len(vals))
                assert find_split(vals[perm], WeightFn(wts[perm]), alpha) == want
        assert feasible_seen >= 30


class TestHalfSearch:
    """find_split searches only the half of each candidate family that can
    win; the answer must be the full two-family search's, bit for bit."""

    @staticmethod
    def _params(sp):
        return None if sp is None else (sp.t, sp.R)

    @pytest.mark.parametrize("off", [0.0, 1e6])
    def test_matches_full_two_family_search(self, off):
        rng = np.random.default_rng(34)
        feasible_seen = 0
        for _ in range(10_000):
            vals, wts, alpha = random_1d_instance(rng)
            vals = vals + off
            want = find_split_both_families(vals, wts, alpha)
            got = self._params(find_split(vals, WeightFn(wts), alpha))
            assert got == want, (vals, wts, alpha)
            feasible_seen += want is not None
        assert feasible_seen >= 3_000

    def test_matches_full_two_family_search_on_ties(self):
        rng = np.random.default_rng(35)
        feasible_seen = 0
        for _ in range(4_000):
            vals, wts, alpha = tied_1d_instance(rng)
            want = find_split_both_families(vals, wts, alpha)
            got = self._params(find_split(vals, WeightFn(wts), alpha))
            assert got == want, (vals, wts, alpha)
            feasible_seen += want is not None
        assert feasible_seen >= 1_000
