import math

import numpy as np
import pytest

import ldme.driver
from ldme import (
    BranchState,
    ConfigError,
    HypothesisList,
    InfeasibleSplit,
    PointSet,
    RunConfig,
    WeightFn,
    basic_multifilter,
    gen_instance,
    InstanceSpec,
    list_decode_mean,
    main_subroutine,
    postprocess_unscale,
    preprocess_rescale,
    quantile_interval,
    weighted_mean,
)
from auditing import run_audited, scatter
from oracles import min_error_naive


class TestRunConfig:
    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            RunConfig(alpha=0.6)
        with pytest.raises(ConfigError):
            RunConfig(alpha=0.0)

    def test_sigma_and_big_c(self):
        with pytest.raises(ConfigError):
            RunConfig(alpha=0.2, sigma=0.0)
        with pytest.raises(ConfigError):
            RunConfig(alpha=0.2, big_c=-1.0)


class TestRescale:
    def test_divides_by_scale(self):
        cfg = RunConfig(alpha=0.2, sigma=2.0, scale_c=2.0)
        ps = preprocess_rescale(np.array([[4.0, 8.0]]), cfg)
        np.testing.assert_allclose(ps.points, [[1.0, 2.0]])

    def test_unit_factor_is_identity(self):
        cfg = RunConfig(alpha=0.2, sigma=1.0, scale_c=1.0)
        pts = np.array([[1.5, -2.5], [0.0, 3.0]])
        np.testing.assert_array_equal(preprocess_rescale(pts, cfg).points, pts)

    def test_unscale_inverts_example(self):
        cfg = RunConfig(alpha=0.2, sigma=2.0, scale_c=2.0)
        out = postprocess_unscale(HypothesisList([[1.0, 2.0]]), cfg)
        np.testing.assert_allclose(out.vectors, [[4.0, 8.0]])

    def test_empty_list_stays_empty(self):
        cfg = RunConfig(alpha=0.2)
        out = postprocess_unscale(HypothesisList(np.zeros((0, 3))), cfg)
        assert len(out) == 0

    def test_round_trip(self):
        rng = np.random.default_rng(40)
        cfg = RunConfig(alpha=0.1, sigma=3.7, scale_c=2.0)
        pts = rng.normal(size=(20, 4)) * 10
        ps = preprocess_rescale(pts, cfg)
        back = postprocess_unscale(HypothesisList(ps.points), cfg)
        np.testing.assert_allclose(back.vectors, pts, rtol=1e-12)


def branch_of(n):
    return BranchState(weights=WeightFn(np.ones(n)), depth=0, lineage=())


class TestMainSubroutine:
    def test_tight_cloud_returns_weighted_mean(self):
        rng = np.random.default_rng(41)
        pts = rng.normal(size=(200, 4)) * 0.3 + 5.0
        cfg = RunConfig(alpha=0.3, scale_c=1.0)
        ps = preprocess_rescale(pts, cfg)
        res = main_subroutine(ps, branch_of(200), cfg)
        assert res.hypothesis is not None
        np.testing.assert_allclose(
            res.hypothesis, weighted_mean(ps, WeightFn(np.ones(200))), atol=1e-6
        )

    def test_two_far_clusters_give_two_children(self):
        rng = np.random.default_rng(42)
        pts = np.zeros((100, 3))
        pts[:50, 0] = rng.normal(size=50) * 0.01
        pts[50:, 0] = 100.0 + rng.normal(size=50) * 0.01
        cfg = RunConfig(alpha=0.2, scale_c=1.0)
        ps = preprocess_rescale(pts, cfg)
        res = main_subroutine(ps, branch_of(100), cfg)
        assert res.hypothesis is None
        assert len(res.children) == 2
        totals = sorted(child.weights.total for child in res.children)
        assert totals == [50.0, 50.0]

    def test_small_side_pruned(self):
        rng = np.random.default_rng(43)
        pts = np.zeros((100, 2))
        pts[:85, 0] = rng.uniform(0.0, 2.0, 85)
        pts[85:, 0] = rng.uniform(70.0, 72.0, 15)
        cfg = RunConfig(alpha=0.45, scale_c=1.0)
        ps = preprocess_rescale(pts, cfg)
        res = main_subroutine(ps, branch_of(100), cfg)
        assert res.hypothesis is None
        assert len(res.children) == 1
        assert len(res.pruned) == 1
        assert res.pruned[0].weights.total < 0.45 * 100 / 2.0
        assert res.children[0].weights.total >= 0.45 * 100 / 2.0


class TestListDecodeMean:
    def test_single_cluster_single_hypothesis(self):
        rng = np.random.default_rng(44)
        center = np.array([3.0, -1.0, 2.0, 0.5, 4.0])
        pts = center + rng.normal(size=(400, 5))
        cfg = RunConfig(alpha=0.3, seed=5)
        hyps, trace = list_decode_mean(pts, cfg)
        assert len(hyps) == 1
        sample_mean = pts.mean(axis=0)
        assert np.linalg.norm(hyps[0] - sample_mean) < 1e-9
        assert np.linalg.norm(hyps[0] - center) < 0.5

    def test_single_point(self):
        cfg = RunConfig(alpha=0.3, seed=0)
        hyps, _ = list_decode_mean(np.array([[7.0, -2.0]]), cfg)
        assert len(hyps) == 1
        np.testing.assert_allclose(hyps[0], [7.0, -2.0], rtol=1e-12)

    def test_decoy_clusters_all_recovered(self):
        alpha, d = 0.2, 10
        k = int(1 / alpha)
        spec = InstanceSpec(
            n=2000,
            d=d,
            alpha=alpha,
            adversary="line_clusters",
            decoys=k,
            separation=400.0,
            mean_radius=20.0,
            seed=9,
        )
        pts, mask, mu = gen_instance(spec)
        cfg = RunConfig(alpha=alpha, seed=9)
        hyps, trace = list_decode_mean(pts, cfg, inlier_mask=mask)
        assert 1 <= len(hyps) <= 4 / alpha**2
        # every planted center (true and decoys) is close to some hypothesis
        budget = 10 * math.log2(2 / alpha) / math.sqrt(alpha)
        axis_events = [ev for ev in trace if ev.tag == "certified"]
        assert axis_events
        inlier_pts = pts[mask]
        assert min_error_naive(hyps.vectors, inlier_pts.mean(axis=0)) <= budget

    def test_deterministic(self):
        spec = InstanceSpec(
            n=300, d=6, alpha=0.25, adversary="line_clusters", decoys=3,
            separation=250.0, seed=11,
        )
        pts, mask, _ = gen_instance(spec)
        cfg = RunConfig(alpha=0.25, seed=11)
        h1, t1 = list_decode_mean(pts, cfg, inlier_mask=mask)
        h2, t2 = list_decode_mean(pts, cfg, inlier_mask=mask)
        np.testing.assert_array_equal(h1.vectors, h2.vectors)
        assert t1 == t2

    def test_trace_disabled(self):
        cfg = RunConfig(alpha=0.3, seed=0, trace=False)
        rng = np.random.default_rng(0)
        _, trace = list_decode_mean(rng.normal(size=(50, 3)), cfg)
        assert trace == []

    def test_untraced_run_sums_no_inlier_mass(self, monkeypatch):
        # The inlier masses only feed trace events; with tracing off the
        # mask costs no per-pass sums and leaves the answer as it was.
        spec = InstanceSpec(
            n=400, d=5, alpha=0.3, adversary="line_clusters", decoys=2,
            separation=300.0, seed=13,
        )
        pts, mask, _ = gen_instance(spec)
        want, _ = list_decode_mean(pts, RunConfig(alpha=0.3, seed=13), inlier_mask=mask)
        sums = []
        inlier_mass = ldme.driver._inlier_mass
        monkeypatch.setattr(
            ldme.driver, "_inlier_mass", lambda *a: sums.append(a) or inlier_mass(*a)
        )
        cfg = RunConfig(alpha=0.3, seed=13, trace=False)
        hyps, trace = list_decode_mean(pts, cfg, inlier_mask=mask)
        assert trace == [] and sums == []
        np.testing.assert_array_equal(hyps.vectors, want.vectors)

    def test_inlier_mass_tracked(self):
        spec = InstanceSpec(
            n=400, d=5, alpha=0.3, adversary="line_clusters", decoys=2,
            separation=300.0, seed=13,
        )
        pts, mask, _ = gen_instance(spec)
        cfg = RunConfig(alpha=0.3, seed=13)
        _, trace = list_decode_mean(pts, cfg, inlier_mask=mask)
        assert trace
        for ev in trace:
            assert ev.ws_before is not None and ev.ws_after is not None
            assert ev.ws_before <= ev.wt_before + 1e-9
            assert ev.ws_after <= ev.wt_after + 1e-9

    def test_audited_invariants_hold(self):
        spec = InstanceSpec(
            n=1500, d=8, alpha=0.15, adversary="line_clusters", decoys=6,
            separation=500.0, mean_radius=10.0, seed=17,
        )
        pts, mask, _ = gen_instance(spec)
        cfg = RunConfig(alpha=0.15, seed=17)
        hyps, trace, audit = run_audited(pts, cfg, inlier_mask=mask)
        assert audit.violations == []
        assert audit.splits > 0
        assert audit.max_depth <= 1500
        assert len(hyps) <= 4 / 0.15**2

    def test_certified_lambda_star_survives_a_large_offset(self):
        # lambda_star is reported as computed, so a common offset of 1e9
        # moves the certified branches' top eigenvalues by rounding only.
        spec = InstanceSpec(
            n=4000, d=10, alpha=0.1, adversary="line_clusters", decoys=9,
            separation=600.0, seed=3,
        )
        pts, _, _ = gen_instance(spec)
        cfg = RunConfig(alpha=0.1, trace=False)

        def certified_lambdas(offset):
            steps = []
            list_decode_mean(pts + offset, cfg, observer=steps.append)
            return np.array([
                st.result.eigenpair.value for st in steps
                if st.result.outcome.tag == "certified"
            ])

        want = certified_lambdas(0.0)
        assert len(want) >= 2 and (want > 0.1).all()
        np.testing.assert_allclose(certified_lambdas(1e9), want, rtol=1e-6)

    def test_mask_shape_validated(self):
        cfg = RunConfig(alpha=0.3)
        with pytest.raises(ValueError):
            list_decode_mean(np.zeros((5, 2)), cfg, inlier_mask=np.ones(4, dtype=bool))

    def test_infeasible_split_carries_lineage(self):
        # Flat noise spread wide enough to trip the gate but too thin-tailed
        # to split: the abort must surface with the branch lineage attached.
        from ldme import InfeasibleSplit

        spec = InstanceSpec(
            n=400, d=8, alpha=0.25, adversary="uniform_noise",
            noise_radius=300.0, mean_radius=5.0, seed=2,
        )
        pts, mask, _ = gen_instance(spec)
        with pytest.raises(InfeasibleSplit) as exc:
            list_decode_mean(pts, RunConfig(alpha=0.25, seed=2), inlier_mask=mask)
        assert "lineage" in exc.value.details and "depth" in exc.value.details

    @pytest.mark.parametrize("alpha", [0.1, 0.3])
    def test_high_inlier_mass_certificates_are_accurate(self, alpha):
        # Certified exits whose branch kept >= 3/4 of the inlier mass must
        # land within kappa * lg(2/alpha) / sqrt(alpha) of the true mean in
        # rescaled units (kappa = 10).
        k = int(1 / alpha)
        spec = InstanceSpec(
            n=2000, d=10, alpha=alpha, adversary="line_clusters",
            decoys=k, separation=600.0, mean_radius=10.0, seed=29,
        )
        pts, mask, mu = gen_instance(spec)
        cfg = RunConfig(alpha=alpha, seed=29)
        hyps, trace = list_decode_mean(pts, cfg, inlier_mask=mask)
        s_size = int(mask.sum())
        budget = 10 * math.log2(2 / alpha) / math.sqrt(alpha)
        certified = [ev for ev in trace if ev.tag == "certified"]
        assert len(certified) == len(hyps)
        strong = [
            np.linalg.norm(hyps[i] - mu) / cfg.rescale_factor
            for i, ev in enumerate(certified)
            if ev.ws_before >= 0.75 * s_size
        ]
        assert strong, "no certified branch held 3/4 of the inlier mass"
        assert max(strong) <= budget


def sorted_rows(vectors):
    return vectors[np.lexsort(vectors.T[::-1])]


class TestSupportLocalPass:
    def test_children_match_full_pass_on_sparse_branches(self):
        # 1% of the outliers are far junk, so sparse branches reweight too.
        spec = InstanceSpec(
            n=3000, d=8, alpha=0.1, adversary="line_clusters", decoys=9,
            separation=400.0, mean_radius=25.0, seed=1,
        )
        pts, mask, _ = gen_instance(spec)
        rng = np.random.default_rng(31)
        junk = rng.choice(np.flatnonzero(~mask), 27, replace=False)
        pts[junk] = rng.uniform(-5000.0, 5000.0, (27, 8))
        cfg = RunConfig(alpha=0.1, trace=False)
        ps = preprocess_rescale(pts, cfg)
        steps = []
        list_decode_mean(pts, cfg, observer=steps.append)
        sparse = [
            st.branch for st in steps
            if len(st.branch.weights) <= ps.n / 2
            and st.result.outcome.tag != "certified"
        ]
        assert len(sparse) >= 5
        tags = set()
        for branch in sparse:
            res = main_subroutine(ps, branch, cfg)
            weights = scatter(branch.weights, branch.rows, ps.n)
            full = basic_multifilter(
                ps, WeightFn(weights), res.eigenpair.direction, cfg.alpha, cfg
            )
            tags.add(res.outcome.tag)
            assert res.outcome.tag == full.tag
            assert res.outcome.split_params == full.split_params
            # The branches in the filter's order of children.
            kids = {id(child.weights): child for child in res.children + res.pruned}
            kids = [kids[id(wf)] for wf in res.outcome.children]
            for child, want, at in zip(kids, full.children, full.rows, strict=True):
                assert len(child.weights) == len(child.rows)
                got = scatter(child.weights, child.rows, ps.n)
                assert not got[weights == 0.0].any()
                np.testing.assert_array_equal(got, scatter(want, at, ps.n))
                assert child.weights.total == pytest.approx(want.total, rel=1e-12)
        assert tags == {"reweighted", "split"}

    def test_children_share_no_memory_with_the_parent(self):
        spec = InstanceSpec(
            n=1500, d=4, alpha=0.1, adversary="line_clusters", decoys=9,
            separation=400.0, mean_radius=25.0, seed=3,
        )
        pts, mask, _ = gen_instance(spec)
        rng = np.random.default_rng(5)
        junk = rng.choice(np.flatnonzero(~mask), 14, replace=False)
        pts[junk] = rng.uniform(-5000.0, 5000.0, (14, 4))
        steps = []
        list_decode_mean(pts, RunConfig(alpha=0.1, trace=False), observer=steps.append)
        cases = [(st.branch, st.result) for st in steps]
        # A heavy-tailed cloud reweights on its full support.
        cloud = np.vstack([rng.normal(size=(200, 3)) * 0.3, [[500.0, 0.0, 0.0]]])
        root = branch_of(201)
        cfg = RunConfig(alpha=0.3, scale_c=1.0)
        cases.append((root, main_subroutine(PointSet(cloud), root, cfg)))
        seen = set()
        for branch, res in cases:
            full = branch.rows is None
            children = res.children + res.pruned
            if children:
                seen.add((res.outcome.tag, full))
            # The parent's arrays, then each child's rows and weights.
            arrays = [branch.weights.weights] + ([] if full else [branch.rows])
            for child in children:
                w, rows = child.weights.weights, child.rows
                assert w.shape == rows.shape and not w.flags.writeable
                assert not any(np.shares_memory(a, b) for a in (w, rows) for b in arrays)
                arrays += [w, rows]
        assert seen == {
            ("reweighted", True), ("reweighted", False), ("split", True), ("split", False)
        }

    def test_infeasible_split_counts_supported_rows(self):
        spec = InstanceSpec(
            n=400, d=8, alpha=0.25, adversary="uniform_noise",
            noise_radius=300.0, mean_radius=5.0, seed=2,
        )
        pts, _, _ = gen_instance(spec)
        cfg = RunConfig(alpha=0.25)
        ps = preprocess_rescale(np.vstack([pts, pts + 1e4]), cfg)
        branch = BranchState(
            weights=WeightFn(np.r_[np.ones(400), np.zeros(400)]), depth=0, lineage=()
        )
        with pytest.raises(InfeasibleSplit) as exc:
            main_subroutine(ps, branch, cfg)
        assert exc.value.details["supported"] == 400


def junk_instance(n, d, seed):
    """Line clusters with 1% of the outliers moved far out, so the tree
    reweights as well as splits."""
    spec = InstanceSpec(
        n=n, d=d, alpha=0.2, adversary="line_clusters", decoys=4,
        separation=400.0, mean_radius=25.0, seed=seed,
    )
    pts, mask, _ = gen_instance(spec)
    rng = np.random.default_rng(seed)
    junk = rng.choice(np.flatnonzero(~mask), n // 100, replace=False)
    pts[junk] = rng.uniform(-5000.0, 5000.0, (len(junk), d))
    return pts


class TestSortedBranches:
    """Branches past the root carry their support in ascending order of
    their parent's direction, so a pass along that direction sorts nothing."""

    @pytest.mark.parametrize("d", [1, 6])
    def test_one_sort_per_run_in_1d_and_per_pass_otherwise(self, monkeypatch, d):
        pts = junk_instance(4000, d, seed=51)
        sorts = 0
        argsort = np.argsort

        def counted(*args, **kwargs):
            nonlocal sorts
            sorts += 1
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        steps = []
        list_decode_mean(pts, RunConfig(alpha=0.2, trace=False), observer=steps.append)
        tags = {step.result.outcome.tag for step in steps}
        assert {"reweighted", "split"} <= tags and len(steps) >= 10
        assert sorts == (1 if d == 1 else len(steps))

    @pytest.mark.parametrize("d", [1, 6])
    def test_branches_past_the_root_hold_only_their_support(self, d):
        pts = junk_instance(4000, d, seed=52)
        steps = []
        list_decode_mean(pts, RunConfig(alpha=0.2, trace=False), observer=steps.append)
        assert steps[0].branch.rows is None and len(steps) >= 10
        children = [c for st in steps for c in st.result.children + st.result.pruned]
        for branch in [st.branch for st in steps[1:]] + children:
            w = branch.weights.weights
            assert len(w) == len(branch.rows) < len(pts)
            assert (w > 0.0).all()
            assert len(np.unique(branch.rows)) == len(branch.rows)

    def test_reweighted_children_drop_only_ends_of_the_order(self):
        pts = junk_instance(4000, 1, seed=53)
        cfg = RunConfig(alpha=0.2, trace=False)
        ps = preprocess_rescale(pts, cfg)
        steps = []
        list_decode_mean(pts, cfg, observer=steps.append)
        reweights = [st for st in steps if st.result.outcome.tag == "reweighted"]
        assert len(reweights) >= 5
        for st in reweights:
            branch = st.branch
            rows = np.arange(ps.n) if branch.rows is None else branch.rows
            x = ps.points[rows, 0]
            order = np.argsort(x) if branch.rows is None else np.arange(len(rows))
            x, rows, w = x[order], rows[order], branch.weights.weights[order]
            assert (np.diff(x) >= 0.0).all()
            (child,) = st.result.children + st.result.pruned
            k0 = int(np.flatnonzero(rows == child.rows[0])[0])
            k1 = k0 + len(child.rows)
            # A prefix and a suffix of the sorted rows are dropped, at least one row.
            assert k0 + len(rows) - k1 >= 1
            np.testing.assert_array_equal(child.rows, rows[k0:k1])
            # The rows inside the quantile interval keep their weights bit for bit.
            a, b = quantile_interval(x, WeightFn(w), cfg.alpha)
            inside = (x[k0:k1] >= a) & (x[k0:k1] <= b)
            assert inside.sum() >= 0.5 * len(rows)
            np.testing.assert_array_equal(child.weights.weights[inside], w[k0:k1][inside])


@pytest.mark.parametrize("adversary", ["line_clusters", "decoy_clusters"])
def test_row_permutation_keeps_hypothesis_set(adversary):
    spec = InstanceSpec(
        n=1500, d=8, alpha=0.15, adversary=adversary, decoys=6,
        separation=500.0, mean_radius=10.0, seed=37,
    )
    pts, _, _ = gen_instance(spec)
    cfg = RunConfig(alpha=0.15, trace=False)
    perm = np.random.default_rng(38).permutation(len(pts))
    want = sorted_rows(list_decode_mean(pts, cfg)[0].vectors)
    got = sorted_rows(list_decode_mean(pts[perm], cfg)[0].vectors)
    assert got.shape == want.shape and len(want) >= 1
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * np.abs(want).max())
