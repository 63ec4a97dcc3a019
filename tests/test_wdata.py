import numpy as np
import pytest

from ldme import (
    PointSet,
    WeightFn,
    approx_top_eigenpair,
    cov_matvec,
    project,
    weighted_mean,
    weighted_variance,
    weighted_variance_along,
)
from oracles import (
    dense_weighted_cov,
    dot_naive,
    top_eigenpair_dense,
    weighted_mean_naive,
    weighted_variance_naive,
)


class TestPointSet:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PointSet([[1.0, np.nan]])
        with pytest.raises(ValueError):
            PointSet([[np.inf, 0.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((0, 3)))

    def test_is_immutable(self):
        ps = PointSet([[1.0, 2.0]])
        with pytest.raises(ValueError):
            ps.points[0, 0] = 5.0

    def test_single_vector_promoted_to_row(self):
        ps = PointSet([1.0, 2.0, 3.0])
        assert ps.n == 1 and ps.d == 3

    @pytest.mark.parametrize("scale", [1.0, 3.7, np.float32(0.3)])
    @pytest.mark.parametrize(
        "points",
        [
            np.arange(-6, 6).reshape(4, 3),
            np.random.default_rng(8).normal(size=(5, 2)).astype(np.float32),
            [0.25, -7.5, 1e300],
            [[1, 2], [3.5, -4.0]],
        ],
        ids=["int", "float32", "1-D", "list"],
    )
    def test_same_bits_as_copy_then_divide(self, points, scale):
        # The one-pass construction stores what copying to float64 and then
        # dividing in place stored.
        want = np.array(points, dtype=np.float64)
        if scale != 1.0:
            want /= scale
        want = want.reshape(-1, want.shape[-1])
        ps = PointSet(points, scale)
        assert ps.points.dtype == np.float64 and ps.points.shape == want.shape
        assert ps.points.tobytes() == want.tobytes()
        assert ps.coord_scale == float(max(want.max(), -want.min()))
        assert not ps.points.flags.writeable

    @pytest.mark.parametrize("scale", [1.0, 2.5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_each_nonfinite_value(self, bad, scale):
        pts = np.random.default_rng(9).normal(size=(6, 3))
        pts[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            PointSet(pts, scale)
        with pytest.raises(ValueError, match="finite"):
            PointSet(pts[4], scale)


class TestWeightFn:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            WeightFn([0.5, 1.5])
        with pytest.raises(ValueError):
            WeightFn([-0.1])

    def test_total_matches_recomputed_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = WeightFn(rng.uniform(0, 1, rng.integers(1, 200)))
            recomputed = float(np.sum(w.weights))
            assert abs(w.total - recomputed) <= 1e-12 * max(recomputed, 1.0)

    def test_is_immutable(self):
        w = WeightFn([0.5])
        with pytest.raises(ValueError):
            w.weights[0] = 1.0

    def test_public_constructor_copies(self):
        x = np.array([0.25, 0.5, 1.0])
        w = WeightFn(x)
        assert not np.shares_memory(w.weights, x)
        x[0] = 0.75
        assert w.weights[0] == 0.25 and x.flags.writeable

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, -0.1, -1e-300, 1.0 + 1e-15, 2.0]
    )
    def test_owning_constructor_checks_as_public_one(self, bad):
        x = np.array([0.5, bad, 0.25])
        with pytest.raises(ValueError) as public:
            WeightFn(x)
        with pytest.raises(ValueError) as owning:
            WeightFn._own(x.copy())
        assert str(owning.value) == str(public.value)

    def test_owning_constructor_checks_shape_and_dtype(self):
        with pytest.raises(ValueError):
            WeightFn._own(np.ones((2, 2)))
        with pytest.raises(TypeError):
            WeightFn._own(np.ones(3, dtype=np.float32))

    def test_owning_constructor_adopts_without_copy(self):
        x = np.array([0.0, 0.5, 1.0])
        w = WeightFn._own(x)
        assert np.shares_memory(w.weights, x)
        assert w.total == 1.5 and len(w) == 3
        with pytest.raises(ValueError):
            w.weights[0] = 1.0


class TestProject:
    def test_axis_projection(self):
        ps = PointSet([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(project(ps, np.array([1.0, 0.0])), [1.0, 0.0])

    def test_dot_product_identity(self):
        ps = PointSet([[3.0, 4.0]])
        np.testing.assert_allclose(project(ps, np.array([0.6, 0.8])), [5.0])

    def test_matches_naive_dot(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(20, 7))
        v = rng.normal(size=7)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(
            project(PointSet(pts), v), dot_naive(pts, v), rtol=1e-9
        )

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            project(PointSet([[1.0, 2.0]]), np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("d", [8, 20, 200])
    def test_restricted_rows_project_to_the_same_bits(self, d):
        rng = np.random.default_rng(d)
        ps = PointSet(rng.normal(size=(3000, d)) * 100.0)
        for _ in range(5):
            v = rng.normal(size=d)
            v /= np.linalg.norm(v)
            mask = rng.uniform(size=ps.n) < rng.uniform(0.1, 0.9)
            np.testing.assert_array_equal(
                project(ps.restrict(np.flatnonzero(mask)), v), project(ps, v)[mask]
            )

    def test_restrict_refuses_a_boolean_mask(self):
        ps = PointSet(np.arange(10.0).reshape(5, 2))
        with pytest.raises(TypeError):
            ps.restrict(np.array([True, False, True, False, True]))
        np.testing.assert_array_equal(ps.restrict(np.array([4, 0])).points, [[8, 9], [0, 1]])

    def test_non_unit_raises(self):
        with pytest.raises(ValueError):
            project(PointSet([[1.0, 2.0]]), np.array([1.0, 1.0]))


class TestWeightedMean:
    def test_uniform_mean(self):
        ps = PointSet([[0.0, 0.0], [2.0, 2.0]])
        np.testing.assert_allclose(weighted_mean(ps, WeightFn([1, 1])), [1.0, 1.0])

    def test_single_supported_point(self):
        ps = PointSet([[0.0, 0.0], [2.0, 2.0]])
        np.testing.assert_allclose(weighted_mean(ps, WeightFn([1, 0])), [0.0, 0.0])

    def test_matches_naive(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        wts = np.array([0.5, 0.5, 1.0])
        np.testing.assert_allclose(
            weighted_mean(PointSet(pts), WeightFn(wts)),
            weighted_mean_naive(pts, wts),
            rtol=1e-12,
        )

    def test_random_matches_naive(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            pts = rng.normal(size=(rng.integers(1, 100), rng.integers(1, 30)))
            wts = rng.uniform(0, 1, pts.shape[0])
            wts[0] = 1.0  # keep total positive
            np.testing.assert_allclose(
                weighted_mean(PointSet(pts), WeightFn(wts)),
                weighted_mean_naive(pts, wts),
                rtol=1e-9,
                atol=1e-12,
            )

    def test_zero_total_raises(self):
        with pytest.raises(ValueError):
            weighted_mean(PointSet([[1.0]]), WeightFn([0.0]))


class TestWeightedVariance:
    def test_two_point_variance(self):
        ps = PointSet([[0.0], [2.0]])
        assert weighted_variance_along(ps, WeightFn([1, 1]), np.array([1.0])) == 1.0

    def test_single_supported_point_is_zero(self):
        ps = PointSet([[5.0, 1.0], [9.0, 3.0]])
        w = WeightFn([0.0, 0.7])
        v = np.array([1.0, 0.0])
        assert weighted_variance_along(ps, w, v) == 0.0

    def test_random_matches_two_pass_naive(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            vals = rng.normal(size=30) * rng.uniform(0.1, 10)
            wts = rng.uniform(0, 1, 30)
            wts[3] = 0.9
            got = weighted_variance(vals, WeightFn(wts))
            want = weighted_variance_naive(vals, wts)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_agrees_with_cov_matvec_quadratic_form(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n, d = rng.integers(2, 60), rng.integers(1, 12)
            pts = rng.normal(size=(n, d)) * 3.0
            wts = rng.uniform(0, 1, n)
            wts[0] = 1.0
            v = rng.normal(size=d)
            v /= np.linalg.norm(v)
            ps, w = PointSet(pts), WeightFn(wts)
            direct = weighted_variance_along(ps, w, v)
            quad = float(v @ cov_matvec(ps, w, v))
            np.testing.assert_allclose(direct, quad, rtol=1e-9, atol=1e-12)


class TestCovMatvec:
    def test_rank_one_covariance(self):
        ps = PointSet([[1.0, 0.0], [-1.0, 0.0]])
        out = cov_matvec(ps, WeightFn([1, 1]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_single_supported_point_gives_zero(self):
        ps = PointSet([[3.0, 1.0], [2.0, 2.0]])
        out = cov_matvec(ps, WeightFn([0.0, 1.0]), np.array([0.3, 0.7]))
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(40, 8)) * 2.0
        wts = rng.uniform(0, 1, 40)
        cov = dense_weighted_cov(pts, wts)
        ps, w = PointSet(pts), WeightFn(wts)
        for _ in range(10):
            u = rng.normal(size=8)
            np.testing.assert_allclose(
                cov_matvec(ps, w, u), cov @ u, rtol=1e-9, atol=1e-12
            )


class TestApproxTopEigenpair:
    def test_single_spread_axis(self):
        rng = np.random.default_rng(6)
        pts = np.tile(rng.normal(size=12), (40, 1))
        pts[:, 0] = rng.normal(size=40) * 4.0
        ps, w = PointSet(pts), WeightFn(np.ones(40))
        eig = approx_top_eigenpair(ps, w)
        axis = np.zeros(12)
        axis[0] = 1.0
        assert min(
            np.linalg.norm(eig.direction - axis), np.linalg.norm(eig.direction + axis)
        ) < 1e-6
        lam, _ = top_eigenpair_dense(pts, np.ones(40))
        np.testing.assert_allclose(eig.value, lam, rtol=1e-9)

    def test_identical_points_degenerate(self):
        ps = PointSet(np.tile([2.0, -1.0, 3.0], (7, 1)))
        eig = approx_top_eigenpair(ps, WeightFn(np.ones(7)))
        assert eig.degenerate
        assert eig.value == 0.0
        np.testing.assert_allclose(np.linalg.norm(eig.direction), 1.0, rtol=1e-9)

    def test_value_is_rayleigh_quotient(self):
        rng = np.random.default_rng(7)
        for seed in range(30):
            n, d = 50, 9
            pts = rng.normal(size=(n, d)) @ np.diag(rng.uniform(0.1, 5, d))
            wts = rng.uniform(0, 1, n)
            wts[0] = 1.0
            ps, w = PointSet(pts), WeightFn(wts)
            eig = approx_top_eigenpair(ps, w)
            ray = float(eig.direction @ cov_matvec(ps, w, eig.direction))
            np.testing.assert_allclose(eig.value, ray, rtol=1e-9, atol=1e-15)

    def test_half_top_eigenvalue_guarantee(self):
        rng = np.random.default_rng(8)
        n, d = 60, 20
        pts = rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
        wts = rng.uniform(0.2, 1, n)
        lam_max, _ = top_eigenpair_dense(pts, wts)
        ps, w = PointSet(pts), WeightFn(wts)
        hits = sum(
            approx_top_eigenpair(ps, w).value >= lam_max / 2.0
            for seed in range(1000)
        )
        assert hits >= 995

    def test_twice_value_dominates_all_directions(self):
        rng = np.random.default_rng(9)
        for trial in range(200):
            n, d = 30, 6
            pts = rng.normal(size=(n, d)) * rng.uniform(0.5, 4)
            wts = rng.uniform(0, 1, n)
            wts[0] = 1.0
            ps, w = PointSet(pts), WeightFn(wts)
            eig = approx_top_eigenpair(ps, w)
            lam_max, _ = top_eigenpair_dense(pts, wts)
            assert lam_max <= 2.0 * eig.value * (1.0 + 1e-9)

    def test_reproducible_given_seed(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(25, 5))
        ps, w = PointSet(pts), WeightFn(np.ones(25))
        a = approx_top_eigenpair(ps, w)
        b = approx_top_eigenpair(ps, w)
        assert a.value == b.value
        np.testing.assert_array_equal(a.direction, b.direction)


def assert_top_value_exact(pts, wts):
    eig = approx_top_eigenpair(PointSet(pts), WeightFn(wts))
    lam_max, _ = top_eigenpair_dense(pts, wts)
    np.testing.assert_allclose(eig.value, lam_max, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(np.linalg.norm(eig.direction), 1.0, rtol=1e-12)
    return eig


class TestExactTopEigenpair:
    def test_value_is_top_eigenvalue_on_random_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n, d = int(rng.integers(2, 80)), int(rng.integers(1, 25))
            pts = rng.normal(size=(n, d)) @ np.diag(rng.uniform(0.1, 5.0, d))
            wts = rng.uniform(0.0, 1.0, n)
            wts[0] = 1.0
            assert_top_value_exact(pts, wts)

    def test_zero_weight_rows_are_ignored(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n, d = int(rng.integers(4, 60)), int(rng.integers(1, 12))
            pts = rng.normal(size=(n, d)) * 3.0
            wts = rng.uniform(0.0, 1.0, n)
            wts[rng.uniform(size=n) < 0.5] = 0.0
            wts[0] = 1.0
            # zero-weight rows far away must not move the pair
            pts[wts == 0.0] += 1e4
            eig = assert_top_value_exact(pts, wts)
            sup = wts > 0.0
            alone = approx_top_eigenpair(PointSet(pts[sup]), WeightFn(wts[sup]))
            np.testing.assert_allclose(eig.value, alone.value, rtol=1e-9)

    def test_more_dimensions_than_points(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            d = int(rng.integers(n + 1, 60))
            pts = rng.normal(size=(n, d)) * rng.uniform(0.5, 4.0)
            assert_top_value_exact(pts, rng.uniform(0.1, 1.0, n))

    def test_duplicate_rows(self):
        rng = np.random.default_rng(14)
        base = rng.normal(size=(6, 5)) * 2.0
        pts = np.repeat(base, 7, axis=0)
        assert_top_value_exact(pts, rng.uniform(0.1, 1.0, len(pts)))

    def test_single_point_is_degenerate(self):
        eig = approx_top_eigenpair(PointSet([[3.0, -4.0, 1.0]]), WeightFn([1.0]))
        assert eig.degenerate
        assert eig.value == 0.0
        np.testing.assert_allclose(np.linalg.norm(eig.direction), 1.0, rtol=1e-12)

    def test_large_coordinate_offset(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n, d = int(rng.integers(10, 80)), int(rng.integers(1, 15))
            pts = 1e6 + rng.normal(size=(n, d)) @ np.diag(rng.uniform(0.5, 4.0, d))
            assert_top_value_exact(pts, rng.uniform(0.1, 1.0, n))

    def test_sign_makes_largest_component_non_negative(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            pts = rng.normal(size=(30, 6)) * rng.uniform(0.5, 4.0, 6)
            v = approx_top_eigenpair(PointSet(pts), WeightFn(np.ones(30))).direction
            assert v[np.argmax(np.abs(v))] >= 0.0
            flipped = approx_top_eigenpair(PointSet(-pts), WeightFn(np.ones(30)))
            np.testing.assert_allclose(flipped.direction, v, atol=1e-9)
