import math

import numpy as np
import pytest

from ldme import ConfigError, HypothesisList, ReduceConfig, reduce_list
from oracles import min_error_naive, separated_subset_props


def make_rc(alpha=0.2, sep_const=8.0, sigma_scale=1.0):
    return ReduceConfig(alpha=alpha, sep_const=sep_const, sigma_scale=sigma_scale)


class TestReduceConfig:
    def test_radius_formula(self):
        rc = make_rc(alpha=0.2, sep_const=8.0, sigma_scale=2.0)
        want = 8.0 * math.log2(10.0) / math.sqrt(0.2) * 2.0
        assert rc.radius == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_rc(sep_const=0.0)
        with pytest.raises(ConfigError):
            make_rc(alpha=0.0)
        with pytest.raises(ConfigError, match=r"alpha: must be in \(0, 1/2\)"):
            make_rc(alpha=0.6)


class TestReduceList:
    def test_empty(self):
        out = reduce_list(HypothesisList(np.zeros((0, 3))), make_rc())
        assert len(out) == 0

    def test_identical_pair_keeps_one(self):
        out = reduce_list(HypothesisList([[1.0, 2.0], [1.0, 2.0]]), make_rc())
        assert len(out) == 1
        np.testing.assert_array_equal(out[0], [1.0, 2.0])

    def test_clusters_with_duplicates_keep_one_each(self):
        rng = np.random.default_rng(50)
        rc = make_rc(alpha=0.3, sep_const=2.0, sigma_scale=1.0)
        r = rc.radius
        k, dups, d = 5, 4, 6
        centers = rng.normal(size=(k, d))
        centers *= (3.0 * r) / np.linalg.norm(centers, axis=1, keepdims=True)
        centers *= np.arange(1, k + 1)[:, None]  # mutually > r apart
        rows = []
        for i in range(k):
            for _ in range(dups):
                rows.append(centers[i] + rng.normal(size=d) * (0.01 * r))
        rng.shuffle(rows)
        out = reduce_list(HypothesisList(np.array(rows)), rc)
        assert len(out) == k
        assert separated_subset_props(out.vectors, np.array(rows), r)

    def test_maximality_and_separation_random(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            rc = make_rc(alpha=float(rng.uniform(0.05, 0.45)))
            rows = rng.normal(size=(int(rng.integers(1, 60)), 4)) * rng.uniform(
                0.1, 3.0
            ) * rc.radius
            out = reduce_list(HypothesisList(rows), rc)
            assert separated_subset_props(out.vectors, rows, rc.radius)

    def test_error_grows_by_at_most_radius(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            rc = make_rc(alpha=float(rng.uniform(0.05, 0.45)))
            rows = rng.normal(size=(20, 3)) * rc.radius
            target = rng.normal(size=3) * rc.radius
            out = reduce_list(HypothesisList(rows), rc)
            before = min_error_naive(rows, target)
            after = min_error_naive(out.vectors, target)
            assert after <= before + rc.radius + 1e-9
