import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ldme.multifilter
from ldme import (
    ConfigError,
    InfeasibleSplit,
    PointSet,
    RunConfig,
    WeightFn,
    approx_top_eigenpair,
    basic_multifilter,
    find_split,
    quantile_interval,
    soft_downweight,
    truncated_variance,
    weighted_variance,
)
from ldme.multifilter import EIGEN_SLACK, _doubled
from auditing import eigenvalue_bound, scatter
from oracles import (
    quantile_interval_naive,
    soft_downweight_naive,
    tied_1d_instance,
    split_conditions_hold,
    truncated_variance_naive,
)


def embed_1d(values):
    """Lift 1-D values to 2-D points whose first axis carries the data."""
    vals = np.asarray(values, dtype=float)
    return PointSet(np.column_stack([vals, np.zeros_like(vals)]))


E1 = np.array([1.0, 0.0])


# Zero or a magnitude up to 1e12, subnormals included. Below 1e-300 the
# halving in _doubled can round: (0, 5e-324) would double to (0, 0).
COORDS = st.floats(-1e12, 1e12)


@st.composite
def ordered_pairs(draw):
    """a <= b: up to four floats apart, a small width apart, or anywhere."""
    a = draw(COORDS)
    how = draw(st.integers(0, 2))
    if how == 0:
        b = a
        for _ in range(draw(st.integers(0, 4))):
            b = float(np.nextafter(b, np.inf))
    elif how == 1:
        b = a + draw(st.floats(0.0, 1e3))
    else:
        b = draw(COORDS)
    assume(abs(b) <= 1e12)
    return min(a, b), max(a, b)


class TestDoubledWindow:
    @settings(derandomize=True, deadline=None, max_examples=3000)
    @given(ordered_pairs())
    @example((0.0, 5e-324))
    @example((2.2250738585072014e-308, 2.225073858507202e-308))
    def test_contains_the_interval(self, pair):
        a, b = pair
        lo, hi = _doubled(pair)
        assert lo <= a and hi >= b

    def test_center_and_half_width(self):
        assert _doubled((-1.0, 5.0)) == (-4.0, 8.0)


@pytest.mark.parametrize("call", [quantile_interval, find_split])
def test_alpha_of_one_half_or_more_is_refused(call):
    # RunConfig's range, (0, 1/2), and its message.
    with pytest.raises(ConfigError, match=r"alpha: must be in \(0, 1/2\), got 0.6"):
        call(np.arange(20.0), WeightFn(np.ones(20)), 0.6)


class TestQuantileInterval:
    def test_unit_weights_integer_grid(self):
        iv = quantile_interval(np.arange(20.0), WeightFn(np.ones(20)), 0.4)
        assert iv == (1.0, 18.0)

    def test_single_supported_point(self):
        iv = quantile_interval(
            np.array([5.0, -3.0, 9.0]), WeightFn([0.0, 1.0, 0.0]), 0.3
        )
        assert iv == (-3.0, -3.0)

    def test_tiny_weight_above(self):
        iv = quantile_interval(np.array([0.0, 100.0]), WeightFn([1.0, 0.001]), 0.4)
        assert iv == (0.0, 0.0)

    def test_random_matches_naive_scan(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            n = int(rng.integers(1, 100))
            proj = np.round(rng.normal(size=n) * 5, 2)  # provoke ties
            wts = rng.uniform(0, 1, n)
            wts[rng.integers(0, n)] = 1.0
            alpha = float(rng.uniform(0.02, 0.49))
            iv = quantile_interval(proj, WeightFn(wts), alpha)
            assert iv == quantile_interval_naive(proj, wts, alpha)

    def test_zero_total_raises(self):
        with pytest.raises(ValueError):
            quantile_interval(np.array([1.0]), WeightFn([0.0]), 0.2)

    def test_tie_order_does_not_matter(self):
        # The sort need not be stable: permuting the rows reorders ties.
        rng = np.random.default_rng(47)
        reordered = 0
        for _ in range(150):
            proj, wts, alpha = tied_1d_instance(rng)
            want = quantile_interval(proj, WeightFn(wts), alpha)
            for _ in range(3):
                perm = rng.permutation(len(proj))
                p, w = proj[perm], wts[perm]
                reordered += not np.array_equal(np.argsort(p), np.argsort(p, kind="stable"))
                iv = quantile_interval(p, WeightFn(w), alpha)
                assert iv == want
                assert iv == quantile_interval_naive(p, w, alpha)
        assert reordered >= 100  # the default sort did reorder ties


def quantile_from_full_sums(vals, wts, alpha):
    """(a, b) over ascending vals from running sums of the whole support: a
    from the prefix sums, b from the suffix sums, cumsum of the reversed
    weights."""
    tau = alpha * WeightFn(wts).total / 8.0
    ja = int(np.searchsorted(np.cumsum(wts)[:-1], tau, side="right"))
    at_or_above = np.cumsum(wts[::-1])[::-1]  # weight at positions >= k
    above = np.r_[at_or_above[1:], 0.0]
    jb = int(np.flatnonzero(above <= tau)[0])
    return float(vals[ja]), float(vals[jb])


class TestQuantileEnds:
    """quantile_interval sums only as much of each end as the trim needs."""

    @staticmethod
    def _faint_edges(rng, n):
        """Ascending values whose lowest and highest rows weigh zero or
        almost nothing, so the sums of each end grow several times."""
        vals = np.sort(rng.normal(size=n) * rng.uniform(1.0, 1e3))
        wts = rng.uniform(0.0, 1.0, n)
        for edge in (slice(None, int(rng.integers(0, n // 3 + 1))),
                     slice(n - int(rng.integers(0, n // 3 + 1)), None)):
            wts[edge] = 0.0 if rng.integers(0, 2) else rng.uniform(0.0, 1e-12, len(wts[edge]))
        wts[rng.integers(n // 3, n - n // 3)] = 1.0
        return vals, wts

    def test_ends_match_sums_over_the_whole_support(self):
        rng = np.random.default_rng(49)
        for n in (1, 2, 3, 17, 500, 4_000, 30_000, 120_000, 200_000):
            for _ in range(3):
                vals, wts = self._faint_edges(rng, n)
                alpha = float(rng.uniform(0.02, 0.45))
                want = quantile_from_full_sums(vals, wts, alpha)
                got = quantile_interval(vals, WeightFn(wts), alpha, slice(None))
                assert got == want, (n, alpha)
                perm = rng.permutation(n)  # distinct values: one sorted order
                assert quantile_interval(vals[perm], WeightFn(wts[perm]), alpha) == want

    def test_presorted_call_sums_only_the_ends(self):
        import tracemalloc

        rng = np.random.default_rng(50)
        n = 100_000
        vals = np.sort(rng.normal(size=n))
        w = WeightFn(np.ones(n))
        quantile_interval(vals, w, 0.2, slice(None))  # warm caches and imports
        tracemalloc.start()
        try:
            got = quantile_interval(vals, w, 0.2, slice(None))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == quantile_from_full_sums(vals, w.weights, 0.2)
        assert peak <= 8 * n / 4, peak / (8 * n)


class TestTruncatedVariance:
    def test_constant_data(self):
        w = WeightFn([0.3, 0.7, 0.0])
        proj = np.array([4.0, 4.0, 9.0])
        assert truncated_variance(proj, w, (0.0, 5.0)) == 0.0

    def test_outside_point_excluded(self):
        proj = np.array([0.0, 2.0, 100.0])
        got = truncated_variance(proj, WeightFn(np.ones(3)), (-1.0, 3.0))
        assert got == pytest.approx(1.0)

    def test_random_matches_filtered_naive(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            proj = rng.normal(size=50) * 10
            wts = rng.uniform(0.01, 1, 50)
            lo = float(np.quantile(proj, 0.2))
            hi = float(np.quantile(proj, 0.9))
            got = truncated_variance(proj, WeightFn(wts), (lo, hi))
            want = truncated_variance_naive(proj, wts, lo, hi)
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_zero_weight_inside_raises(self):
        with pytest.raises(ValueError):
            truncated_variance(
                np.array([0.0, 10.0]), WeightFn([0.0, 1.0]), (-1.0, 1.0)
            )


def downweighted(proj, w, interval):
    """soft_downweight's new weights at full length, in the input's order."""
    new, rows = soft_downweight(proj, w, interval)
    return scatter(new, rows, len(proj))


class TestSoftDownweight:
    def test_argmax_zeroed_inside_untouched(self):
        w = downweighted(np.array([0.0, 10.0]), WeightFn([1.0, 1.0]), (0.0, 1.0))
        np.testing.assert_array_equal(w, [1.0, 0.0])

    def test_direct_formula(self):
        w = downweighted(
            np.array([0.0, 3.0, 6.0]), WeightFn(np.ones(3)), (0.0, 2.0)
        )
        np.testing.assert_allclose(w, [1.0, 15.0 / 16.0, 0.0])

    def test_max_over_supported_points_only(self):
        w = downweighted(
            np.array([-5.0, 0.0, 5.0]), WeightFn([1.0, 1.0, 0.0]), (-1.0, 1.0)
        )
        np.testing.assert_array_equal(w, [0.0, 1.0, 0.0])

    def test_unordered_interval_raises(self):
        with pytest.raises(ValueError, match="a <= b"):
            soft_downweight(np.array([0.0, 5.0]), WeightFn([1.0, 1.0]), (2.0, 1.0))

    def test_degenerate_raises(self):
        with pytest.raises(ValueError, match="inside the interval"):
            soft_downweight(np.array([0.0, 0.5]), WeightFn([1.0, 1.0]), (0.0, 1.0))

    def test_monotone_and_zeroes_argmax(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            proj = rng.normal(size=40) * 8
            wts = rng.uniform(0, 1, 40)
            wts[rng.integers(0, 40)] = 1.0
            lo, hi = np.sort(rng.normal(size=2) * 2)
            f = np.maximum(lo - proj, 0) + np.maximum(proj - hi, 0)
            if not (f[wts > 0] > 0).any():
                continue
            w_new = downweighted(proj, WeightFn(wts), (lo, hi))
            assert (w_new <= wts + 1e-15).all()
            assert ((wts > 0) & (w_new == 0.0)).any()


def run_multifilter_1d(values, weights, alpha, big_c=20.0):
    """One pass along e1, its support-local children scattered to full length."""
    ps = embed_1d(values)
    cfg = RunConfig(alpha=alpha, big_c=big_c)
    out = basic_multifilter(ps, WeightFn(weights), E1, cfg)
    children = tuple(
        WeightFn(scatter(wf, rows, ps.n)) for wf, rows in zip(out.children, out.rows)
    )
    return replace(out, children=children), ps


class TestBasicMultifilter:
    def test_small_variance_certifies(self):
        rng = np.random.default_rng(23)
        vals = rng.normal(size=300)
        out, _ = run_multifilter_1d(vals, np.ones(300), 0.2)
        assert out.tag == "certified"
        assert weighted_variance(vals, WeightFn(np.ones(300))) <= 2 * 20 * math.log2(10) ** 2

    def test_two_far_clusters_split(self):
        vals = np.concatenate([np.zeros(50), np.full(50, 100.0)])
        out, _ = run_multifilter_1d(vals, np.ones(100), 0.2)
        assert out.tag == "split"
        sp = out.split_params
        assert split_conditions_hold(vals, np.ones(100), 0.2, sp.t, sp.R)
        right, left = out.children
        assert right.total == 50.0 and left.total == 50.0

    def test_far_small_mass_reweighted(self):
        rng = np.random.default_rng(24)
        vals = np.concatenate([rng.uniform(-0.01, 0.01, 96), np.full(4, 1e4)])
        out, _ = run_multifilter_1d(vals, np.ones(100), 0.4)
        assert out.tag == "reweighted"
        (w_new,) = out.children
        far = w_new.weights[96:]
        assert (far <= 1e-6).all()
        assert far.min() == 0.0

    def test_certified_threshold_is_sharp(self):
        # A tight core plus a small far mass (below the per-side trim budget,
        # so the windowed gate stays quiet): certification flips exactly when
        # the far mass pushes the full variance over the gate.
        alpha, big_c = 0.2, 20.0
        gate = 2 * big_c * math.log2(2 / alpha) ** 2

        rng = np.random.default_rng(25)
        core = rng.normal(size=490)
        core = (core - core.mean()) / core.std()

        def instance(dist):
            return np.concatenate([core, np.full(10, dist)])

        # far mass fraction 10/500 = 0.02 < alpha/8 = 0.025
        var_of = lambda vals: weighted_variance(vals, WeightFn(np.ones(500)))

        low = instance(80.0)
        assert var_of(low) < gate
        out, _ = run_multifilter_1d(low, np.ones(500), alpha)
        assert out.tag == "certified"

        high = instance(200.0)
        assert var_of(high) > gate
        out, _ = run_multifilter_1d(high, np.ones(500), alpha)
        assert out.tag == "reweighted"

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(26)
        tags = set()
        for _ in range(120):
            n = int(rng.integers(20, 120))
            centers = rng.normal(size=rng.integers(1, 4)) * rng.uniform(0, 300)
            vals = rng.choice(centers, size=n) + rng.normal(size=n)
            wts = rng.uniform(0, 1, n)
            wts[rng.integers(0, n)] = 1.0
            alpha = float(rng.uniform(0.05, 0.45))
            try:
                out, _ = run_multifilter_1d(vals, wts, alpha)
            except Exception:
                continue
            tags.add(out.tag)
            w_before = float(wts.sum())
            for child in out.children:
                assert (child.weights <= wts + 1e-15).all()
                assert (child.weights >= 0.0).all()
                assert ((wts > 0) & (child.weights == 0.0)).any()
            if out.tag == "split":
                right, left = out.children
                assert (
                    right.total**2 + left.total**2
                    <= w_before**2 * (1 + 1e-9)
                )
                assert right.total < w_before and left.total < w_before
                # children are parent weights under indicators overlapping
                # exactly on [t - R, t + R)
                sp = out.split_params
                in_overlap = (vals >= sp.t - sp.R) & (vals < sp.t + sp.R)
                both = (right.weights > 0) & (left.weights > 0)
                np.testing.assert_array_equal(both, in_overlap & (wts > 0))
                np.testing.assert_allclose(
                    np.maximum(right.weights, left.weights)[in_overlap],
                    wts[in_overlap],
                )
        assert {"certified", "split"} <= tags

    def test_flat_spread_data_aborts_with_diagnostics(self):
        # Uniformly spread data with variance above the gate has tails too
        # thin for any feasible split at the default big_c; the pass must
        # abort loudly instead of weakening its certificate.
        from ldme import InfeasibleSplit
        from oracles import split_feasible_bruteforce

        vals = np.linspace(0.0, 90.0, 200)
        assert not split_feasible_bruteforce(vals, np.ones(200), 0.25)
        with pytest.raises(InfeasibleSplit) as exc:
            run_multifilter_1d(vals, np.ones(200), 0.25)
        assert "variance_gate" in exc.value.details

    def test_nice_iteration_property_on_planted_instances(self):
        # With a planted low-variance subset holding >= 3/4 of its mass, at
        # least one child loses inlier mass a 24*lg(2/alpha) factor slower
        # than total mass.
        rng = np.random.default_rng(27)
        checked = 0
        for trial in range(200):
            s_count = int(rng.integers(30, 80))
            n_junk = int(rng.integers(20, 100))
            alpha = float(rng.uniform(0.1, 0.45))
            if s_count < alpha * (s_count + n_junk):
                continue
            s_vals = rng.normal(size=s_count)
            s_vals = (s_vals - s_vals.mean()) / max(s_vals.std(), 1.0)
            junk = rng.choice([-1.0, 1.0], n_junk) * rng.uniform(5, 500, n_junk)
            vals = np.concatenate([s_vals, junk])
            wts = np.concatenate(
                [rng.uniform(0.85, 1.0, s_count), rng.uniform(0, 1, n_junk)]
            )
            w = WeightFn(wts)
            ws_before = float(wts[:s_count].sum())
            assert ws_before >= 0.75 * s_count
            try:
                out, _ = run_multifilter_1d(vals, wts, alpha)
            except Exception:
                continue
            if not out.children:
                continue
            checked += 1
            lg24 = 24.0 * math.log2(2.0 / alpha)
            nice = False
            for child in out.children:
                ds = ws_before - float(child.weights[:s_count].sum())
                dt = w.total - child.total
                if ds * w.total * lg24 <= dt * ws_before * (1 + 1e-9) + 1e-12:
                    nice = True
            assert nice, f"trial {trial}: no nice child"
        assert checked >= 50


class TestSharedSortOrder:
    """basic_multifilter sorts its projections once and hands the order to
    quantile_interval and find_split."""

    def test_given_order_gives_the_same_answer(self):
        # Any sort order of the projections will do, whatever it does with
        # ties, and zero weights may sit anywhere in it.
        rng = np.random.default_rng(49)
        zeros_seen = feasible_seen = 0
        for _ in range(300):
            proj, wts, alpha = tied_1d_instance(rng)
            w = WeightFn(wts)
            zeros_seen += bool((wts == 0.0).any())
            want_iv = quantile_interval(proj, w, alpha)
            want_sp = find_split(proj, w, alpha)
            feasible_seen += want_sp is not None
            for order in (
                np.argsort(proj),
                np.argsort(proj, kind="stable"),
                np.lexsort((rng.random(len(proj)), proj)),
            ):
                assert quantile_interval(proj, w, alpha, order) == want_iv
                assert find_split(proj, w, alpha, order) == want_sp
        assert zeros_seen >= 100 and feasible_seen >= 50

    @pytest.mark.parametrize("tag", ["split", "reweighted"])
    def test_one_sort_per_pass(self, monkeypatch, tag):
        rng = np.random.default_rng(50)
        if tag == "split":
            vals = np.concatenate([np.zeros(50), np.full(50, 100.0)]) + rng.normal(size=100)
            alpha = 0.2
        else:
            vals = np.concatenate([rng.uniform(-0.01, 0.01, 96), np.full(4, 1e4)])
            alpha = 0.4
        sorts = 0
        argsort = np.argsort

        def counted(*args, **kwargs):
            nonlocal sorts
            sorts += 1
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        out, _ = run_multifilter_1d(vals, np.ones(100), alpha)
        assert out.tag == tag
        assert sorts == 1


class TestSortedKernel:
    """A pass reads runs of its ascending order: the doubled window, the
    tails outside I, the halves of a split. The public functions take the
    same path on unsorted input, through an argsort."""

    @staticmethod
    def _reweight_instance(rng):
        # A tight core plus a few far rows on both sides, below the trim.
        n = int(rng.integers(100, 400))
        far = rng.uniform(200.0, 5000.0, n // 50) * rng.choice([-1.0, 1.0], n // 50)
        vals = np.concatenate([rng.normal(size=n), far])
        return vals, rng.uniform(0.05, 1.0, len(vals))

    def test_reweight_pass_keeps_the_inside_and_drops_ends(self):
        rng = np.random.default_rng(51)
        cfg = RunConfig(alpha=0.2)
        seen = {False: 0, True: 0}
        for _ in range(60):
            vals, wts = self._reweight_instance(rng)
            for presorted in (False, True):
                if presorted:
                    order = np.argsort(vals)
                    vals, wts = vals[order], wts[order]
                out = basic_multifilter(embed_1d(vals), WeightFn(wts), E1, cfg)
                assert out.tag == "reweighted"
                (new,), (rows,) = out.children, out.rows
                assert isinstance(rows, slice) == presorted
                asc = np.argsort(vals)
                at = np.arange(len(vals))[rows]
                k0 = int(np.flatnonzero(asc == at[0])[0])
                k1 = k0 + len(at)
                # The zeroed rows are a prefix and a suffix of the order.
                assert k0 + len(vals) - k1 >= 1
                np.testing.assert_array_equal(at, asc[k0:k1])
                assert (new.weights > 0.0).all()
                a, b = quantile_interval(vals, WeightFn(wts), 0.2)
                inside = (vals[at] >= a) & (vals[at] <= b)
                np.testing.assert_array_equal(new.weights[inside], wts[at][inside])
                naive = np.array(soft_downweight_naive(vals, wts, a, b))
                np.testing.assert_array_equal(new.weights, naive[at])
                assert not np.delete(naive, at).any()
                seen[presorted] += 1
        assert seen == {False: 60, True: 60}

    def test_presorted_reweight_pass_checks_one_weight_function(self, monkeypatch):
        # No sort, no order array, and the child's weights are checked once.
        vals, wts = self._reweight_instance(np.random.default_rng(52))
        order = np.argsort(vals)
        ps, w = embed_1d(vals[order]), WeightFn(wts[order])
        checks = 0
        adopt = WeightFn._adopt

        def counted(self, weights):
            nonlocal checks
            checks += 1
            return adopt(self, weights)

        def refused(*args, **kwargs):
            raise AssertionError("a presorted pass builds no order")

        monkeypatch.setattr(WeightFn, "_adopt", counted)
        monkeypatch.setattr(np, "argsort", refused)
        monkeypatch.setattr(np, "arange", refused)
        out = basic_multifilter(ps, w, E1, RunConfig(alpha=0.2))
        assert out.tag == "reweighted" and checks == 1

    @pytest.mark.parametrize("tag", ["reweighted", "split"])
    def test_collinear_rows_in_ascending_order_are_not_sorted(self, monkeypatch, tag):
        # Rows t*u with t ascending project onto u in ascending order, since
        # each rounded step is monotone in t; the pass then matches the one
        # on the same rows shuffled, which sorts.
        rng = np.random.default_rng(54)
        if tag == "split":
            t = np.concatenate([rng.normal(size=150), rng.normal(100.0, 1.0, 150)])
            wts = np.ones(300)
        else:
            t, wts = self._reweight_instance(rng)
        order = np.argsort(t)
        t, wts = t[order], wts[order]
        u = np.array([0.6, 0.8])
        ps = PointSet(np.outer(t, u))
        perm = rng.permutation(len(t))
        cfg = RunConfig(alpha=0.2)
        shuffled = basic_multifilter(PointSet(ps.points[perm]), WeightFn(wts[perm]), u, cfg)

        def refused(*args, **kwargs):
            raise AssertionError("ascending projections need no sort")

        monkeypatch.setattr(np, "argsort", refused)
        out = basic_multifilter(ps, WeightFn(wts), u, cfg)
        assert out.tag == shuffled.tag == tag
        assert len(out.children) == len(shuffled.children)
        for new, rows, new_s, rows_s in zip(
            out.children, out.rows, shuffled.children, shuffled.rows
        ):
            np.testing.assert_array_equal(np.arange(len(t))[rows], perm[rows_s])
            np.testing.assert_array_equal(new.weights, new_s.weights)

    def test_unsorted_input_matches_naive_and_sorted_calls(self):
        rng = np.random.default_rng(53)
        zeros_seen = 0
        for _ in range(200):
            proj, wts, alpha = tied_1d_instance(rng)
            zeros_seen += bool((wts == 0.0).any())
            order = np.argsort(proj)
            lo, hi = np.sort(rng.choice(proj, 2))
            w = WeightFn(wts)
            if wts[(proj >= lo) & (proj <= hi)].sum() > 0.0:
                got = truncated_variance(proj, w, (lo, hi))
                assert got == truncated_variance(proj, w, (lo, hi), order)
                assert got == truncated_variance(
                    proj[order], WeightFn(wts[order]), (lo, hi), slice(None)
                )
                want = truncated_variance_naive(proj, wts, lo, hi)
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
            outside = (proj < lo) | (proj > hi)
            if not (wts[outside] > 0.0).any():
                with pytest.raises(ValueError, match="inside the interval"):
                    soft_downweight(proj, w, (lo, hi))
                continue
            got = downweighted(proj, w, (lo, hi))
            np.testing.assert_array_equal(got, soft_downweight_naive(proj, wts, lo, hi))
            new, rows = soft_downweight(
                proj[order], WeightFn(wts[order]), (lo, hi), slice(None)
            )
            np.testing.assert_array_equal(scatter(new, order[rows], len(proj)), got)
        assert zeros_seen >= 50



@st.composite
def tailed_1d(draw):
    """Weighted values: a core, and a pile of mass at a point in each tail."""
    core = draw(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=40))
    tails = []
    for sign in (-1.0, 1.0):
        tails += [sign * draw(st.floats(100.0, 1e6))] * draw(st.integers(0, 12))
    vals = np.array(core + tails)
    wts = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(vals), max_size=len(vals))))
    assume(wts.sum() > 0.0)
    return vals, wts


def _near_bound_pass(rng, d, alpha, big_c):
    """A weighted set whose top eigenvalue lies within 2 % of the bound.

    Gaussian, uniform, two-cluster or heavy-tailed rows with random weights,
    a fifth of them zero, scaled so the eigenvalue hits a target drawn
    around the bound.
    """
    n = int(rng.integers(50, 400))
    kind = int(rng.integers(4))
    if kind == 0:
        x = rng.normal(size=(n, d))
    elif kind == 1:
        x = rng.uniform(-1.0, 1.0, (n, d))
    elif kind == 2:
        x = rng.normal(size=(n, d))
        x[:, 0] += 6.0 * (rng.random(n) < rng.uniform(0.05, 0.5))
    else:
        x = rng.standard_t(2.5, (n, d))
    wts = rng.uniform(0.0, 1.0, n)
    wts[rng.random(n) < 0.2] = 0.0
    wts[0] = 1.0
    w = WeightFn(wts)
    target = eigenvalue_bound(alpha, big_c) * (1.0 + rng.uniform(-0.02, 0.02))
    x *= np.sqrt(target / approx_top_eigenpair(PointSet(x), w).value)
    return PointSet(x + rng.uniform(-50.0, 50.0, d)), w


def _tag(call):
    try:
        return call().tag
    except InfeasibleSplit:
        return "infeasible"


class TestEigenvalueCertificate:
    """A pass handed its eigenvalue certifies at once when lambda <=
    (1 - alpha/4) * gate, which the full pass would certify too."""

    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(tailed_1d(), st.floats(1e-3, 0.5, exclude_max=True))
    def test_truncated_variance_is_bounded_by_the_full_one(self, inst, alpha):
        # The doubled window keeps at least (1 - alpha/4) of the weight.
        # A window mean off by a few ulps adds its square to the variance,
        # a rounding floor far below any gate: on equal values the full
        # variance can round to 0 and the window's to ulp(x)^2.
        vals, wts = inst
        w = WeightFn(wts)
        window = _doubled(quantile_interval(vals, w, alpha))
        bound = weighted_variance(vals, w) / ((1.0 - alpha / 4.0) * EIGEN_SLACK)
        floor = (8.0 * np.spacing(np.abs(vals).max())) ** 2
        assert truncated_variance(vals, w, window) <= bound + floor

    @pytest.mark.parametrize("d", [1, 2, 5, 12])
    def test_shortcut_fires_only_where_the_full_pass_certifies(self, d):
        rng = np.random.default_rng(60 + d)
        fired = full_path = 0
        for _ in range(300):
            alpha = float(rng.uniform(0.05, 0.49))
            cfg = RunConfig(alpha=alpha)
            ps, w = _near_bound_pass(rng, d, alpha, cfg.big_c)
            eig = approx_top_eigenpair(ps, w)
            full = _tag(lambda: basic_multifilter(ps, w, eig.direction, cfg))
            fast = _tag(lambda: basic_multifilter(
                ps, w, eig.direction, cfg, _eigenvalue=eig.value
            ))
            if eig.value <= eigenvalue_bound(alpha, cfg.big_c):
                fired += 1
                assert fast == full == "certified"
            else:
                full_path += 1
                assert fast == full
        assert fired >= 100 and full_path >= 100

    @pytest.mark.parametrize("d", [1, 4])
    def test_certifying_pass_neither_projects_nor_sorts(self, monkeypatch, d):
        ps = PointSet(np.random.default_rng(62).normal(size=(300, d)))
        w = WeightFn(np.ones(300))
        cfg = RunConfig(alpha=0.2)
        v = approx_top_eigenpair(ps, w).direction
        bound = eigenvalue_bound(0.2, cfg.big_c)
        calls = []
        project, argsort = ldme.multifilter.project, np.argsort
        monkeypatch.setattr(
            ldme.multifilter, "project", lambda *a: calls.append("project") or project(*a)
        )
        monkeypatch.setattr(
            np, "argsort", lambda *a, **k: calls.append("argsort") or argsort(*a, **k)
        )
        out = basic_multifilter(ps, w, v, cfg, _eigenvalue=bound)
        assert out.tag == "certified" and calls == []
        out = basic_multifilter(ps, w, v, cfg, _eigenvalue=float(np.nextafter(bound, 1.0e9)))
        assert out.tag == "certified" and calls == ["project", "argsort"]
