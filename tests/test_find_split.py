import math

import numpy as np
import pytest

from ldme import WeightFn, find_split, multifilter
from oracles import (
    find_split_both_families,
    split_candidates,
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


def ulp_gap_instance(rng, off: float):
    """Unit weights on a few clusters far apart, each of values a whole
    number of ulps (0 to 30, so with ties) above the cluster's center."""
    centers = off + 400.0 * np.arange(int(rng.integers(2, 5)))
    pick = rng.choice(centers, int(rng.integers(4, 120)))
    vals = pick + np.spacing(pick) * rng.integers(0, 31, len(pick))
    return vals, np.ones(len(vals)), float(rng.uniform(0.02, 0.45))


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
            vals, drawn, alpha = random_1d_instance(rng)
            vals = vals + off
            for wts in (drawn, np.ones_like(drawn)):  # and under unit weights
                sp = find_split(vals, WeightFn(wts), alpha)
                expect = split_feasible_bruteforce(vals, wts, alpha)
                assert (sp is not None) == expect, (vals, wts, alpha)
                if sp is not None:
                    feasible_seen += 1
                    assert split_conditions_hold(vals, wts, alpha, sp.t, sp.R)
        assert feasible_seen >= 60  # the comparison must not be vacuous

    @pytest.mark.parametrize("off", [0.0, 1e6, 1e9])
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
            vals, drawn, alpha = random_1d_instance(rng)
            vals = vals + off
            for wts in (drawn, np.ones_like(drawn)):  # and under unit weights
                sp = find_split(vals, WeightFn(wts), alpha)
                if sp is not None:
                    feasible_seen += 1
                    assert split_conditions_hold(vals, wts, alpha, sp.t, sp.R, rel_tol=0.0)
        assert feasible_seen >= 60

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


class TestUnitWeights:
    """Under unit weights the split search, its re-check and the window's
    total count rows instead of summing weights; every answer must be the
    summing path's, bit for bit. The summing path is forced by clearing
    ``unit`` on all-ones weights."""

    @staticmethod
    def _instances(rng):
        for off in (0.0, 1e6, 1e12):
            for _ in range(100):
                vals, wts, alpha = random_1d_instance(rng)
                yield vals + off, np.ones_like(wts), alpha
                vals, wts, alpha = tied_1d_instance(rng)
                yield vals + off, np.ones_like(wts), alpha
                yield ulp_gap_instance(rng, max(off, 1.0))

    @staticmethod
    def _summed(n):
        w = WeightFn(np.ones(n))
        w.unit = False
        return w

    def test_find_split_matches_the_full_search_and_the_summing_path(self):
        rng = np.random.default_rng(40)
        feasible_seen = 0
        for vals, wts, alpha in self._instances(rng):
            sp = find_split(vals, WeightFn(wts), alpha)
            got = None if sp is None else (sp.t, sp.R)
            assert got == find_split_both_families(vals, wts, alpha), (vals, alpha)
            assert find_split(vals, self._summed(len(vals)), alpha) == sp
            feasible_seen += sp is not None
        assert feasible_seen >= 300

    def test_grid_and_recheck_take_the_same_bits(self):
        rng = np.random.default_rng(41)
        recheck_held = 0
        for vals, wts, alpha in self._instances(rng):
            vals = np.sort(vals)
            counted = multifilter._cut_grid(vals, wts, True)
            summed = multifilter._cut_grid(vals, wts, False)
            assert (counted is None) == (summed is None)
            for a, b in zip(counted or (), summed or ()):
                assert a.tobytes() == b.tobytes()
            l48 = 48.0 * np.log2(2.0 / alpha)
            span = vals[-1] - vals[0]
            for _ in range(5):
                t = float(rng.uniform(vals[0], vals[-1]))
                R = float(rng.uniform(1e-3, 1.0)) * span + 1.0
                sp = multifilter.SplitParams(t=t, R=R)
                held = multifilter._split_holds(vals, wts, float(len(vals)), sp, l48, True)
                assert held == multifilter._split_holds(
                    vals, wts, float(len(vals)), sp, l48, False)
                recheck_held += held
        assert recheck_held >= 20

    def test_window_total_takes_the_same_bits(self):
        rng = np.random.default_rng(42)
        for vals, wts, _ in self._instances(rng):
            vals = np.sort(vals)
            for _ in range(5):
                window = tuple(np.sort(rng.choice(vals, 2)))
                got = multifilter.truncated_variance(vals, WeightFn(wts), window, slice(None))
                want = multifilter.truncated_variance(
                    vals, self._summed(len(vals)), window, slice(None))
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestBlockedSearch:
    """find_split scores its candidates SPLIT_BLOCK at a time, best bound
    first; the answer must be the full two-family search's, bit for bit,
    wherever the block boundaries fall."""

    @staticmethod
    def _winner_facts(vals, wts, alpha, block):
        """Whether the winning candidate is the last of its block, and
        whether the best score recurs in another block of its family."""
        g1, g2, cands = split_candidates(vals, wts, alpha)
        m = len(g1)
        n1 = int((g1 <= 0.5).sum())
        j0 = m - int((g2 <= 0.5).sum())
        half = [c for c in cands if (c[2] < n1 if c[1] == 1 else c[2] >= j0)]
        if not half:
            return False, False
        score, family, index = min(half)[:3]
        first, stop = (0, n1) if family == 1 else (j0, m)
        last = (index - first + 1) % block == 0 or index == stop - 1
        blocks = {(c[2] - first) // block for c in half if c[:2] == (score, family)}
        return last, len(blocks) > 1

    def test_matches_full_search_across_block_boundaries(self, monkeypatch):
        rng = np.random.default_rng(36)
        feasible_seen = last_seen = 0
        for _ in range(1_500):
            vals, wts, alpha = tied_1d_instance(rng, n_max=300)
            unique = len(np.unique(vals[wts > 0]))
            # The gaps between supported values span 3 to 5 blocks.
            block = max(1, -(-unique // int(rng.integers(3, 6))))
            monkeypatch.setattr(multifilter, "SPLIT_BLOCK", block)
            want = find_split_both_families(vals, wts, alpha)
            sp = find_split(vals, WeightFn(wts), alpha)
            assert (None if sp is None else (sp.t, sp.R)) == want, (vals, wts, alpha, block)
            if want is not None:
                feasible_seen += 1
                last_seen += self._winner_facts(vals, wts, alpha, block)[0]
        assert feasible_seen >= 300 and last_seen >= 20

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 25, 49, 50, 51, 4096])
    def test_equal_scores_in_two_blocks(self, monkeypatch, block):
        # Clusters of 50 unit weights at 0..49 and 1000..1049, and a row of
        # weight 1e-300 at 60. The gaps after 49 and after 60 lose the same
        # rounded fraction 1/2 and pair with the same upper cut, so family 1
        # scores 1/2 at i = 49 and at i = 50; the lower index must win.
        vals = np.concatenate([np.arange(50.0), [60.0], 1000.0 + np.arange(50.0)])
        wts = np.concatenate([np.ones(50), [1e-300], np.ones(50)])
        monkeypatch.setattr(multifilter, "SPLIT_BLOCK", block)
        want = find_split_both_families(vals, wts, 0.2)
        sp = find_split(vals, WeightFn(wts), 0.2)
        assert want is not None and (sp.t, sp.R) == want
        g1, _, cands = split_candidates(vals, wts, 0.2)
        assert g1[49] == g1[50] == 0.5
        assert min(cands)[:3] == (0.5, 1, 49)
        assert (0.5, 1, 50) == min(c for c in cands if c[2] != 49)[:3]
        if block == 50:
            assert self._winner_facts(vals, wts, 0.2, block) == (True, True)

    def test_default_block_size_on_large_supports(self):
        # Several real blocks per family, with ties and zero weights.
        rng = np.random.default_rng(37)
        for _ in range(6):
            n = int(rng.integers(3, 6)) * multifilter.SPLIT_BLOCK * 2
            centers = rng.normal(size=5) * 200.0
            vals = np.round(rng.choice(centers, n) + rng.normal(size=n) * 20.0, 1)
            wts = rng.integers(0, 65, n) / 64.0
            alpha = float(rng.uniform(0.05, 0.3))
            sp = find_split(vals, WeightFn(wts), alpha)
            want = find_split_both_families(vals, wts, alpha)
            assert (None if sp is None else (sp.t, sp.R)) == want

    def test_working_set_is_a_few_support_lengths(self):
        # On ascending projections the grid holds three support-length
        # arrays (prefix sums, lo, hi); everything else is block-sized.
        import tracemalloc

        rng = np.random.default_rng(38)
        n = 100_000
        centers = np.arange(5) * 400.0
        vals = rng.choice(centers, n) + rng.normal(size=n) * 25.0
        vals[rng.choice(n, n // 100, replace=False)] = rng.uniform(-5000, 5000, n // 100)
        vals.sort()
        w = WeightFn(np.ones(n))
        find_split(vals, w, 0.2, slice(None))  # warm caches and imports
        tracemalloc.start()
        try:
            sp = find_split(vals, w, 0.2, slice(None))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sp is not None
        assert peak <= 4 * 8 * n, peak / (8 * n)


class TestScoreFloor:
    """Each block's floor bounds the score of every feasible candidate in
    it, also through the partner cut, so a block the search skips cannot
    hold the best split."""

    def test_floor_bounds_every_feasible_candidate(self, monkeypatch):
        rng = np.random.default_rng(39)
        floor_of = multifilter._score_floor
        floors = []

        def recorded(prefix, total, lo, hi, l48, family, start, stop):
            floor = floor_of(prefix, total, lo, hi, l48, family, start, stop)
            if family == 1:
                a, b = prefix[start] / total, prefix[stop - 1] / total
            else:
                a, b = (total - prefix[stop - 1]) / total, (total - prefix[start]) / total
            floors.append((family, start, stop, floor, (1.0 - b) * (1.0 - b) + a * a))
            return floor

        monkeypatch.setattr(multifilter, "_score_floor", recorded)
        blocks = candidates = raised = skipped = 0
        for _ in range(800):
            vals, wts, alpha = tied_1d_instance(rng, n_max=300)
            monkeypatch.setattr(multifilter, "SPLIT_BLOCK", int(rng.integers(1, 9)))
            floors.clear()
            find_split(vals, WeightFn(wts), alpha)
            _, _, cands = split_candidates(vals, wts, alpha)
            for family, start, stop, floor, own in floors:
                scores = [c[0] for c in cands if c[1] == family and start <= c[2] < stop]
                blocks += 1
                candidates += len(scores)
                skipped += floor == np.inf
                raised += own < floor < np.inf
                # The own-fraction bound allows 1e-9 for rounding; the
                # partner bound holds on the rounded scores as they are.
                for score in scores:
                    assert score >= floor or (floor == own and score + 1e-9 >= floor), (
                        vals, wts, alpha, family, start, stop)
        assert candidates >= 1_000 and skipped >= 500 and raised >= 500, (
            blocks, candidates, skipped, raised)

    def test_root_of_a_scalar_junk_shape_scores_two_blocks(self, monkeypatch):
        # The shape of the scalar_junk benchmark: 1-D, alpha = 0.2, five
        # clusters 400 apart, 1% of the outliers moved to far uniform junk.
        # Its root split lies in two blocks; the own-fraction bound alone
        # scored nine.
        from ldme import RunConfig, instances, preprocess_rescale
        from ldme.instances import InstanceSpec

        spec = InstanceSpec(n=100_000, d=1, alpha=0.2, adversary="line_clusters",
                            decoys=4, separation=400.0, mean_radius=25.0, seed=5)
        points, mask, _ = instances.gen_instance(spec)
        rng = np.random.default_rng(5)
        outliers = np.flatnonzero(~mask)
        junk = rng.choice(outliers, len(outliers) // 100, replace=False)
        points[junk] = rng.uniform(-5000.0, 5000.0, (len(junk), 1))
        proj = np.sort(preprocess_rescale(points, RunConfig(alpha=0.2)).points[:, 0])
        w = WeightFn(np.ones(len(proj)))

        block_best = multifilter._block_best
        scored = []
        monkeypatch.setattr(
            multifilter, "_block_best", lambda *a: scored.append(a[-3:]) or block_best(*a)
        )
        sp = find_split(proj, w, 0.2, slice(None))
        assert sp is not None and len(scored) <= 2, scored
        assert (sp.t, sp.R) == find_split_both_families(proj, w.weights, 0.2)
