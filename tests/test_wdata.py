import tracemalloc

import numpy as np
import pytest

from ldme import (
    PointSet,
    RunConfig,
    WeightFn,
    approx_top_eigenpair,
    preprocess_rescale,
    project,
    weighted_mean,
    weighted_variance,
)
from ldme.wdata import BLOCK_ELEMENTS, _weighted_cov
from oracles import (
    blocked_centered_cov,
    cov_matvec,
    dense_weighted_cov,
    dot_naive,
    top_eigenpair_dense,
    weighted_mean_naive,
    weighted_variance_along,
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
        # PointSet (scale 1) stores what copying to float64 stored; the
        # driver's centered set what subtracting its center from that copy
        # and multiplying by 1/scale in place stored.
        want = np.array(points, dtype=np.float64)
        want = want.reshape(-1, want.shape[-1])
        if scale == 1.0:
            ps = PointSet(points)
        else:
            ps = PointSet._centered(points, scale)
            want -= ps.center
            want *= 1.0 / scale
        assert ps.points.dtype == np.float64 and ps.points.shape == want.shape
        assert ps.points.tobytes() == want.tobytes()
        assert not ps.points.flags.writeable

    @pytest.mark.parametrize(
        "shape",
        [
            (BLOCK_ELEMENTS // 7 + 1, 7),  # one row past the first block
            (3, BLOCK_ELEMENTS + 3),  # each block a single row
            (100_000, 1),  # the scalar_junk shape
        ],
        ids=["past-a-block", "wide-rows", "100k-by-1"],
    )
    @pytest.mark.parametrize("scale", [2.5, 8.0])
    def test_blocked_centering_has_the_whole_array_bits(self, shape, scale):
        # A C-ordered float64 input is centered block by block into the one
        # new array, with the bits of one whole-array subtract and multiply.
        pts = np.random.default_rng(11).normal(size=shape) * 100.0 + 1e4
        mean = np.full(shape[0], 1.0 / shape[0]) @ pts
        ps = PointSet._centered(pts, scale)
        assert ps.center.tobytes() == mean.tobytes()
        assert ps.points.tobytes() == ((pts - mean) * (1.0 / scale)).tobytes()
        assert not np.shares_memory(ps.points, pts)

    @pytest.mark.parametrize("scale", [1.0, 2.5])
    def test_fortran_ordered_input_is_stored_row_major(self, scale):
        # Row gathers and per-row reductions read the copy row by row.
        build = PointSet if scale == 1.0 else lambda p: PointSet._centered(p, scale)
        pts = np.random.default_rng(10).normal(size=(50, 4)) * 100.0
        f_pts = np.asfortranarray(pts)
        assert not f_pts.flags.c_contiguous
        ps = build(f_pts)
        assert ps.points.flags.c_contiguous
        assert ps.points.tobytes() == build(pts).points.tobytes()

    @pytest.mark.parametrize("scale", [1.0, 2.5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_each_nonfinite_value(self, bad, scale):
        # Scale 1 builds a PointSet, any other the driver's centered set.
        build = PointSet if scale == 1.0 else lambda p: PointSet._centered(p, scale)
        pts = np.random.default_rng(9).normal(size=(6, 3))
        pts[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            build(pts)
        with pytest.raises(ValueError, match="finite"):
            build(pts[4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_nonfinite_cell_is_refused(self, bad):
        # The check reads the column means: a NaN or +-inf anywhere makes
        # its column's mean non-finite, whichever builder makes the set.
        cfg = RunConfig(alpha=0.2)
        for i in range(4):
            for j in range(3):
                pts = np.arange(12.0).reshape(4, 3)
                pts[i, j] = bad
                for build in (PointSet, lambda p: preprocess_rescale(p, cfg)):
                    with pytest.raises(ValueError, match="^points must have finite coordinates$"):
                        build(pts)

    def test_opposite_infinities_in_one_column_are_refused(self):
        pts = np.zeros((3, 2))
        pts[0, 1], pts[2, 1] = np.inf, -np.inf
        with pytest.raises(ValueError, match="finite"):
            preprocess_rescale(pts, RunConfig(alpha=0.2))

    def test_huge_finite_coordinates_are_accepted(self):
        # The mean weights each row by 1/n before summing, so it does not
        # overflow where the plain column sum would.
        pts = np.full((4, 2), 1.5e308)
        ps = preprocess_rescale(pts, RunConfig(alpha=0.2, sigma=0.5))
        np.testing.assert_array_equal(ps.center, [1.5e308, 1.5e308])
        assert PointSet(pts).n == 4


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

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_dimension_is_the_scaled_column(self, sign):
        rng = np.random.default_rng(11)
        ps = PointSet(np.r_[rng.normal(size=200) * 1e6, 0.0, -0.0][:, None])
        v = np.array([sign])
        proj = project(ps, v)
        np.testing.assert_array_equal(proj, np.einsum("ij,j->i", ps.points, v))
        np.testing.assert_array_equal(proj, sign * ps.points[:, 0])
        if sign == 1.0:  # the column itself, read-only like the set
            assert not proj.flags.writeable
            with pytest.raises(ValueError):
                proj[0] = 1.0
        else:
            assert not np.shares_memory(proj, ps.points)

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

    def test_restrict_to_a_run_is_a_read_only_view(self):
        # A run gathers nothing: its points are the set's rows, in place.
        ps = preprocess_rescale(np.arange(30.0).reshape(10, 3), RunConfig(alpha=0.3))
        sub = ps.restrict(slice(2, 7))
        assert sub.n == 5 and sub.center is None
        assert np.shares_memory(sub.points, ps.points) and not sub.points.flags.writeable
        assert sub.points.__array_interface__["data"][0] == ps.points[2:].ctypes.data
        with pytest.raises(ValueError):
            sub.points[0, 0] = 1.0
        # The run of every row is the set itself, its center kept.
        assert ps.restrict(slice(0, ps.n)) is ps and ps.restrict(slice(None)) is ps
        assert ps.restrict(slice(0, ps.n - 1)) is not ps

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


def root_set(name: str) -> np.ndarray:
    """Inputs for the driver's root: random, d > n, repeated rows, n = 1."""
    rng = np.random.default_rng(17)
    base = rng.normal(size=(300, 12)) * rng.uniform(0.5, 4.0, 12) + 50.0
    return {
        "random": base,
        "wide": rng.normal(size=(6, 40)) - 3.0,
        "repeats": base[rng.integers(0, 20, 300)],
        "one_row": rng.normal(size=(1, 5)),
    }[name]


class TestWeightedCov:
    @pytest.mark.parametrize("name", ["random", "wide", "repeats", "one_row"])
    def test_root_product_matches_the_blocked_kernel(self, name):
        ps = preprocess_rescale(root_set(name), RunConfig(alpha=0.2))
        assert ps.center is not None
        ones = WeightFn(np.ones(ps.n))
        got = _weighted_cov(ps, ones, weighted_mean(ps, ones))
        ones = ones.weights
        want = blocked_centered_cov(ps.points, ones, BLOCK_ELEMENTS // ps.d)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        np.testing.assert_allclose(got, dense_weighted_cov(ps.points, ones), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("unit", [True, False])
    def test_other_branches_keep_the_blocked_bits(self, unit):
        # Uncentered sets, subsets and non-unit weights take the blocked
        # kernel; skipping the multiply by sqrt(1) moves no bit.
        rng = np.random.default_rng(18)
        pts = rng.normal(size=(5000, 30)) * 3.0 + 7.0
        wts = np.ones(5000) if unit else rng.uniform(0.1, 1.0, 5000)
        centered = preprocess_rescale(pts, RunConfig(alpha=0.2))
        cases = [(PointSet(pts), wts), (centered.restrict(np.arange(5000)), wts)]
        if not unit:
            cases.append((centered, wts))
        for ps, w in cases:
            got = _weighted_cov(ps, WeightFn(w), weighted_mean(ps, WeightFn(w)))
            want = blocked_centered_cov(ps.points, w, BLOCK_ELEMENTS // ps.d)
            assert got.tobytes() == want.tobytes()

    def test_root_eigenpair_allocates_no_block(self):
        # The root's covariance is one product: nothing n x d-sized, not
        # even one block of the blocked kernel, is allocated.
        rng = np.random.default_rng(19)
        ps = preprocess_rescale(rng.normal(size=(20_000, 40)) + 5.0, RunConfig(alpha=0.2))
        w = WeightFn(np.ones(ps.n))
        approx_top_eigenpair(ps, w)  # warm imports and caches
        tracemalloc.start()
        try:
            approx_top_eigenpair(ps, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * BLOCK_ELEMENTS / 2, peak


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

    def test_one_dimension_needs_no_eigensolve(self, monkeypatch):
        # In 1-D the pair is ([1.0], weighted variance), with no covariance
        # and no eigh; it agrees with the dense oracle to rounding.
        def refused(*args, **kwargs):
            raise AssertionError("a 1-D eigenpair needs no eigensolve")

        monkeypatch.setattr(np.linalg, "eigh", refused)
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 80))
            vals = rng.normal(size=n) * rng.uniform(0.1, 100) + rng.uniform(-1e3, 1e3)
            wts = rng.uniform(0, 1, n)
            wts[wts < 0.2] = 0.0
            wts[rng.integers(0, n)] = 1.0
            eig = approx_top_eigenpair(PointSet(vals[:, None]), WeightFn(wts))
            assert eig.direction.tolist() == [1.0]
            assert eig.value == weighted_variance(vals, WeightFn(wts))
            want = float(dense_weighted_cov(vals[:, None], wts)[0, 0])
            np.testing.assert_allclose(eig.value, want, rtol=1e-9, atol=1e-9 * want + 1e-12)

    @pytest.mark.parametrize("n", [1, 7, 1000, 100_000])
    def test_one_dimension_mean_is_weighted_means_bits(self, n):
        # The 1-D pair's mean is the first sum of its variance, with the
        # bits weighted_mean gives, on a set and on a run of a sorted column.
        rng = np.random.default_rng(n)
        col = np.sort(rng.standard_t(3, size=(n + 5, 1)) * 40.0 + 1e3, axis=0)
        for ps in (PointSet(col[:n]), PointSet(col).restrict(slice(3, n + 3))):
            for wts in (np.ones(n), rng.uniform(0.01, 1.0, n)):
                w = WeightFn(wts)
                eig = approx_top_eigenpair(ps, w)
                assert eig.mean.shape == (1,) and eig.mean.dtype == np.float64
                assert eig.mean.tobytes() == weighted_mean(ps, w).tobytes()

    def test_identical_points_degenerate(self):
        ps = PointSet(np.tile([2.0, -1.0, 3.0], (7, 1)))
        eig = approx_top_eigenpair(ps, WeightFn(np.ones(7)))
        assert 0.0 <= eig.value <= 1e-24
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
        assert 0.0 <= eig.value <= 1e-24
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
