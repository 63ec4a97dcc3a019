import math

import numpy as np
import pytest

import ldme.driver
import ldme.report
import ldme.wdata
from ldme import (
    BranchState,
    ConfigError,
    HypothesisList,
    InfeasibleSplit,
    PointSet,
    RunConfig,
    RunStats,
    TraceRecorder,
    WeightFn,
    basic_multifilter,
    gen_instance,
    InstanceSpec,
    list_decode_mean,
    main_subroutine,
    postprocess_unscale,
    preprocess_rescale,
    quantile_interval,
    run_experiment,
    weighted_mean,
)
from auditing import eigenvalue_bound, run_audited, scatter
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
        # Centered on the column mean (6, 12), then divided by 2 * 2.
        cfg = RunConfig(alpha=0.2, sigma=2.0)
        ps = preprocess_rescale(np.array([[4.0, 8.0], [8.0, 16.0]]), cfg)
        np.testing.assert_array_equal(ps.center, [6.0, 12.0])
        np.testing.assert_array_equal(ps.points, [[-0.5, -1.0], [0.5, 1.0]])

    def test_unit_factor_is_identity(self):
        # With a unit factor the stored rows are the input minus its
        # center, bit for bit, and the center is the column mean.
        cfg = RunConfig(alpha=0.2, sigma=0.5)
        pts = np.array([[1.5, -2.5], [0.0, 3.0], [7.25, 1.0]])
        ps = preprocess_rescale(pts, cfg)
        np.testing.assert_allclose(ps.center, pts.mean(axis=0), rtol=1e-15)
        np.testing.assert_array_equal(ps.points, pts - ps.center)

    def test_center_is_the_column_mean(self):
        rng = np.random.default_rng(39)
        pts = rng.normal(size=(500, 6)) + 1e6
        ps = preprocess_rescale(pts, RunConfig(alpha=0.2))
        np.testing.assert_allclose(ps.center, pts.mean(axis=0), rtol=1e-14)
        assert np.abs(ps.points.mean(axis=0)).max() < 1e-9

    def test_restricted_subset_is_not_centered(self):
        ps = preprocess_rescale(np.arange(12.0).reshape(4, 3), RunConfig(alpha=0.2))
        assert ps.center is not None
        assert ps.restrict(np.array([0, 2])).center is None
        assert PointSet(np.ones((2, 2))).center is None

    def test_unscale_inverts_example(self):
        cfg = RunConfig(alpha=0.2, sigma=2.0)
        out = postprocess_unscale(HypothesisList([[1.0, 2.0]]), cfg, np.array([10.0, -10.0]))
        np.testing.assert_allclose(out.vectors, [[14.0, -2.0]])

    def test_empty_list_stays_empty(self):
        cfg = RunConfig(alpha=0.2)
        out = postprocess_unscale(HypothesisList(np.zeros((0, 3))), cfg, np.ones(3))
        assert len(out) == 0

    def test_empty_list_repr_gives_d(self):
        # Every empty answer of list_decode_mean has shape (0, d): here
        # every branch of a cloud far wider than sigma is pruned.
        pts = np.random.default_rng(0).normal(size=(1000, 3)) * 1e150
        hyps, stats = list_decode_mean(pts, RunConfig(alpha=0.1))
        assert len(hyps) == 0 and stats.by_tag["pruned"] >= 1
        assert repr(hyps) == "HypothesisList(size=0, d=3)"
        assert repr(HypothesisList([[1.0, 2.0]])) == "HypothesisList(size=1, d=2)"

    def test_round_trip(self):
        rng = np.random.default_rng(40)
        cfg = RunConfig(alpha=0.1, sigma=3.7)
        pts = rng.normal(size=(20, 4)) * 10
        ps = preprocess_rescale(pts, cfg)
        back = postprocess_unscale(HypothesisList(ps.points), cfg, ps.center)
        np.testing.assert_allclose(back.vectors, pts, rtol=1e-12)


def branch_of(n):
    return BranchState(weights=WeightFn(np.ones(n)), lineage=(), rows=slice(0, n))


class TestMainSubroutine:
    def test_tight_cloud_returns_weighted_mean(self):
        rng = np.random.default_rng(41)
        pts = rng.normal(size=(200, 4)) * 0.3 + 5.0
        cfg = RunConfig(alpha=0.3, sigma=0.5)
        ps = preprocess_rescale(pts, cfg)
        res = main_subroutine(ps, branch_of(200), cfg)
        assert res.outcome.tag == "certified" and res.children == res.pruned == ()
        np.testing.assert_allclose(
            res.eigenpair.mean, weighted_mean(ps, WeightFn(np.ones(200))), atol=1e-6
        )

    def test_two_far_clusters_give_two_children(self):
        rng = np.random.default_rng(42)
        pts = np.zeros((100, 3))
        pts[:50, 0] = rng.normal(size=50) * 0.01
        pts[50:, 0] = 100.0 + rng.normal(size=50) * 0.01
        cfg = RunConfig(alpha=0.2, sigma=0.5)
        ps = preprocess_rescale(pts, cfg)
        res = main_subroutine(ps, branch_of(100), cfg)
        assert res.outcome.tag == "split"
        assert len(res.children) == 2
        totals = sorted(child.weights.total for child in res.children)
        assert totals == [50.0, 50.0]

    def test_small_side_pruned(self):
        rng = np.random.default_rng(43)
        pts = np.zeros((100, 2))
        pts[:85, 0] = rng.uniform(0.0, 2.0, 85)
        pts[85:, 0] = rng.uniform(70.0, 72.0, 15)
        cfg = RunConfig(alpha=0.45, sigma=0.5)
        ps = preprocess_rescale(pts, cfg)
        res = main_subroutine(ps, branch_of(100), cfg)
        assert res.outcome.tag == "split"
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
        hyps, stats = list_decode_mean(pts, cfg)
        assert len(hyps) == 1 and stats.summary()["by_tag"] == {"certified": 1}
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
        trace = TraceRecorder(pts, mask)
        hyps, _ = list_decode_mean(pts, cfg, observer=trace)
        assert 1 <= len(hyps) <= 4 / alpha**2
        # every planted center (true and decoys) is close to some hypothesis
        budget = 10 * math.log2(2 / alpha) / math.sqrt(alpha)
        axis_events = [ev for ev in trace.events if ev.tag == "certified"]
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
        runs = []
        for _ in range(2):
            trace = TraceRecorder(pts, mask)
            runs.append(list_decode_mean(pts, cfg, observer=trace) + (trace.events,))
        (h1, s1, t1), (h2, s2, t2) = runs
        np.testing.assert_array_equal(h1.vectors, h2.vectors)
        assert s1 == s2 and t1 == t2

    def test_trace_disabled(self):
        # The estimator reads neither cfg.trace nor cfg.seed: the answer
        # and the run's counts are the same for any of their values.
        pts = np.random.default_rng(0).normal(size=(50, 3))
        want, stats = list_decode_mean(pts, RunConfig(alpha=0.3))
        assert isinstance(stats, RunStats) and stats.passes >= 1
        for seed, trace in [(0, True), (7, False), (7, True)]:
            got, got_stats = list_decode_mean(pts, RunConfig(alpha=0.3, seed=seed, trace=trace))
            np.testing.assert_array_equal(got.vectors, want.vectors)
            assert got_stats == stats

    def test_untraced_run_sums_no_inlier_mass(self, monkeypatch, tmp_path):
        # The inlier masses only feed trace events: an experiment that
        # writes no trace file records no trace and sums no inlier mass,
        # and its answer is the traced run's.
        config = {
            "instance": dict(n=400, d=5, alpha=0.3, adversary="line_clusters", decoys=2,
                             separation=300.0, seed=13),
            "output": {"hypotheses": str(tmp_path / "hyps.json")},
        }
        sums = []
        inlier_mass = ldme.report._inlier_mass
        monkeypatch.setattr(
            ldme.report, "_inlier_mass", lambda *a: sums.append(a) or inlier_mass(*a)
        )
        run_experiment(config)
        assert sums == []
        want = (tmp_path / "hyps.json").read_bytes()
        config["output"]["trace"] = str(tmp_path / "trace.csv")
        run_experiment(config)
        assert sums and (tmp_path / "hyps.json").read_bytes() == want

    def test_inlier_mass_tracked(self):
        spec = InstanceSpec(
            n=400, d=5, alpha=0.3, adversary="line_clusters", decoys=2,
            separation=300.0, seed=13,
        )
        pts, mask, _ = gen_instance(spec)
        cfg = RunConfig(alpha=0.3, seed=13)
        trace = TraceRecorder(pts, mask)
        list_decode_mean(pts, cfg, observer=trace)
        assert trace.events
        for ev in trace.events:
            assert ev.wS_before is not None and ev.wS_after is not None
            assert ev.wS_before <= ev.wT_before + 1e-9
            assert ev.wS_after <= ev.wT_after + 1e-9

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

    def test_audited_invariants_hold_in_1d(self):
        # 1-D branches are runs of the sorted column; the auditor's set,
        # rebuilt by preprocess_rescale, is that column, and the trace
        # reads the inlier mask in its order.
        spec = InstanceSpec(
            n=3000, d=1, alpha=0.2, adversary="line_clusters", decoys=4,
            separation=300.0, mean_radius=5.0, seed=19,
        )
        pts, mask, _ = gen_instance(spec)
        pts[np.flatnonzero(~mask)[:30]] = np.linspace(-5000.0, 5000.0, 30)[:, None]
        cfg = RunConfig(alpha=0.2, seed=19)
        hyps, trace, audit = run_audited(pts, cfg, inlier_mask=mask)
        assert audit.violations == []
        assert audit.splits > 0 and audit.reweighted > 0
        assert trace[0].wS_before == mask.sum()
        # Each row keeps its mask entry: shuffled rows give the same masses.
        perm = np.random.default_rng(20).permutation(len(pts))
        shuffled = run_audited(pts[perm], cfg, inlier_mask=mask[perm])[1]
        assert [ev.tag for ev in shuffled] == [ev.tag for ev in trace]
        np.testing.assert_allclose(
            [ev.wS_after for ev in shuffled], [ev.wS_after for ev in trace], rtol=1e-9
        )

    def test_certified_lambda_star_survives_a_large_offset(self):
        # lambda_star is reported as computed, so a common offset of 1e9
        # moves the certified branches' top eigenvalues by rounding only.
        spec = InstanceSpec(
            n=4000, d=10, alpha=0.1, adversary="line_clusters", decoys=9,
            separation=600.0, seed=3,
        )
        pts, _, _ = gen_instance(spec)
        cfg = RunConfig(alpha=0.1)

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

    @pytest.mark.parametrize("offset", [1e6, 1e9, 1e12])
    def test_common_offset_moves_answers_by_the_inputs_rounding(self, offset):
        # The driver works relative to the column mean, so shifting the
        # input moves each hypothesis by no more than twice the rounding
        # the shift itself makes, max|(x + off) - off - x|.
        pts, _, _ = gen_instance(
            InstanceSpec(n=4000, d=10, alpha=0.1, adversary="line_clusters", seed=3)
        )
        cfg = RunConfig(alpha=0.1)
        want, _ = list_decode_mean(pts, cfg)
        shifted = pts + offset
        own = float(np.abs(shifted - offset - pts).max())
        got, _ = list_decode_mean(shifted, cfg)
        assert got.vectors.shape == want.vectors.shape and len(want) >= 1
        assert float(np.abs(got.vectors - offset - want.vectors).max()) <= 2.0 * own

    def test_preprocess_holds_one_copy(self):
        # A float64 input is copied by the subtraction, a float32 one by
        # its conversion; either way one n x d float64 array is made.
        import tracemalloc

        cfg = RunConfig(alpha=0.2)
        for dtype in (np.float64, np.float32):
            pts = (np.random.default_rng(45).normal(size=(20_000, 40)) + 1e3).astype(dtype)
            preprocess_rescale(pts[:10], cfg)  # warm imports and caches
            tracemalloc.start()
            try:
                ps = preprocess_rescale(pts, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            copy = pts.size * 8
            assert ps.points.shape == pts.shape
            assert peak <= 1.1 * copy, (dtype, peak / copy)

    def test_mask_shape_validated(self):
        # The estimator takes no mask; the trace observer checks the one it reads.
        with pytest.raises(ValueError, match="inlier mask has shape"):
            TraceRecorder(np.zeros((5, 2)), np.ones(4, dtype=bool))

    def test_infeasible_split_carries_lineage(self):
        # Flat noise spread wide enough to trip the gate but too thin-tailed
        # to split: the abort must surface with the branch lineage attached.
        from ldme import InfeasibleSplit

        spec = InstanceSpec(
            n=400, d=8, alpha=0.25, adversary="uniform_noise",
            noise_radius=300.0, mean_radius=5.0, seed=2,
        )
        pts, _, _ = gen_instance(spec)
        with pytest.raises(InfeasibleSplit) as exc:
            list_decode_mean(pts, RunConfig(alpha=0.25, seed=2))
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
        hyps, trace, _ = run_audited(pts, cfg, inlier_mask=mask)
        s_size = int(mask.sum())
        budget = 10 * math.log2(2 / alpha) / math.sqrt(alpha)
        certified = [ev for ev in trace if ev.tag == "certified"]
        assert len(certified) == len(hyps)
        strong = [
            np.linalg.norm(hyps[i] - mu) / cfg.rescale_factor
            for i, ev in enumerate(certified)
            if ev.wS_before >= 0.75 * s_size
        ]
        assert strong, "no certified branch held 3/4 of the inlier mass"
        assert max(strong) <= budget


def sorted_rows(vectors):
    return vectors[np.lexsort(vectors.T[::-1])]


def row_indices(rows, n):
    """A branch's rows of the driver's n-row set as an index array, whether
    they are a slice (a run) or an index array."""
    return np.arange(n)[rows]


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
        cfg = RunConfig(alpha=0.1)
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
            full = basic_multifilter(ps, WeightFn(weights), res.eigenpair.direction, cfg)
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
        # Index-array rows (d = 4) and runs of the sorted column (d = 1).
        spec = InstanceSpec(
            n=1500, d=4, alpha=0.1, adversary="line_clusters", decoys=9,
            separation=400.0, mean_radius=25.0, seed=3,
        )
        pts, mask, _ = gen_instance(spec)
        rng = np.random.default_rng(5)
        junk = rng.choice(np.flatnonzero(~mask), 14, replace=False)
        pts[junk] = rng.uniform(-5000.0, 5000.0, (14, 4))
        steps = []
        list_decode_mean(pts, RunConfig(alpha=0.1), observer=steps.append)
        list_decode_mean(
            junk_instance(1500, 1, seed=3), RunConfig(alpha=0.2),
            observer=steps.append,
        )
        cases = [(st.branch, st.result) for st in steps]
        # A heavy-tailed cloud reweights on its full support.
        cloud = np.vstack([rng.normal(size=(200, 3)) * 0.3, [[500.0, 0.0, 0.0]]])
        root = branch_of(201)
        cfg = RunConfig(alpha=0.3, sigma=0.5)
        cases.append((root, main_subroutine(PointSet(cloud), root, cfg)))
        seen = set()
        for branch, res in cases:
            form = "all" if branch.depth == 0 else type(branch.rows).__name__
            children = res.children + res.pruned
            if children:
                seen.add((res.outcome.tag, form))
            # The parent's arrays, then each child's weights and index rows;
            # a run is a slice and holds no memory.
            arrays = [branch.weights.weights]
            arrays += [branch.rows] if form == "ndarray" else []
            for child in children:
                w, rows = child.weights.weights, child.rows
                if form != "all":  # a run's children are runs, and so on
                    assert type(rows).__name__ == form
                size = rows.stop - rows.start if isinstance(rows, slice) else len(rows)
                assert w.shape == (size,) and not w.flags.writeable
                own = [w] + ([] if isinstance(rows, slice) else [rows])
                assert not any(np.shares_memory(a, b) for a in own for b in arrays)
                arrays += own
        assert seen == {
            (tag, form) for tag in ("reweighted", "split") for form in ("all", "ndarray", "slice")
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
            weights=WeightFn(np.r_[np.ones(400), np.zeros(400)]), lineage=(), rows=slice(0, 800)
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


def certifies_from_eigenvalue(step, cfg: RunConfig) -> bool:
    return step.result.eigenpair.value <= eigenvalue_bound(cfg.alpha, cfg.big_c)


def counted_sorts(monkeypatch) -> list:
    """The names of the numpy sorts called from now on, in call order."""
    calls = []
    for name in ("sort", "argsort"):
        sort = getattr(np, name)
        monkeypatch.setattr(
            np, name, lambda *a, _sort=sort, _name=name, **k: calls.append(_name) or _sort(*a, **k)
        )
    return calls


class TestSortedBranches:
    """Branches past the root carry their support in ascending order of
    their parent's direction, so a pass whose projections already ascend
    sorts nothing. In 1-D the driver sorts its column once, so every pass
    ascends and every branch is a run of the column: a slice of rows."""

    @pytest.mark.parametrize("d", [1, 6])
    def test_one_sort_per_run_in_1d_and_per_pass_otherwise(self, monkeypatch, d):
        # In 1-D the one sort sorts the values; a trace with an inlier mask
        # argsorts the input column once to read the mask in that order.
        # Otherwise every pass that does not certify from its eigenvalue
        # sorts once, and one that does never sorts.
        pts = junk_instance(4000, d, seed=51)
        cfg = RunConfig(alpha=0.2)
        sorts = counted_sorts(monkeypatch)
        steps = []
        list_decode_mean(pts, cfg, observer=steps.append)
        tags = {step.result.outcome.tag for step in steps}
        assert {"reweighted", "split"} <= tags and len(steps) >= 10
        sorted_passes = [st for st in steps if not certifies_from_eigenvalue(st, cfg)]
        assert 0 < len(sorted_passes) < len(steps)
        assert sorts == (["sort"] if d == 1 else ["argsort"] * len(sorted_passes))
        if d == 1:
            sorts.clear()
            mask = np.zeros(len(pts), dtype=bool)
            list_decode_mean(pts, cfg, observer=TraceRecorder(pts, mask))
            assert sorts == ["argsort", "sort"]

    def test_1d_rows_in_ascending_order_are_never_sorted(self, monkeypatch):
        # The root's projections already ascend, so even its pass sorts
        # nothing. Rounding makes ties, which count as ascending.
        pts = np.round(junk_instance(4000, 1, seed=51), 1)
        assert len(np.unique(pts)) < 0.8 * len(pts)
        cfg = RunConfig(alpha=0.2)
        want = sorted_rows(list_decode_mean(pts, cfg)[0].vectors)
        ascending = pts[np.argsort(pts[:, 0])]
        sorts = counted_sorts(monkeypatch)
        steps = []
        got = list_decode_mean(ascending, cfg, observer=steps.append)[0]
        assert sorts == [] and len(steps) >= 10
        got = sorted_rows(got.vectors)
        assert got.shape == want.shape and len(want) >= 1
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * np.abs(want).max())

    @pytest.mark.parametrize("d", [1, 6])
    def test_branches_past_the_root_hold_only_their_support(self, d):
        pts = junk_instance(4000, d, seed=52)
        steps = []
        list_decode_mean(pts, RunConfig(alpha=0.2), observer=steps.append)
        assert steps[0].branch.rows == slice(0, len(pts)) and len(steps) >= 10
        children = [c for st in steps for c in st.result.children + st.result.pruned]
        for branch in [st.branch for st in steps[1:]] + children:
            w = branch.weights.weights
            rows = row_indices(branch.rows, len(pts))
            assert isinstance(branch.rows, slice if d == 1 else np.ndarray)
            assert len(w) == len(rows) < len(pts)
            assert (w > 0.0).all()
            assert len(np.unique(rows)) == len(rows)

    def test_reweighted_children_drop_only_ends_of_the_order(self):
        pts = junk_instance(4000, 1, seed=53)
        cfg = RunConfig(alpha=0.2)
        ps = preprocess_rescale(pts, cfg)
        steps = []
        list_decode_mean(pts, cfg, observer=steps.append)
        reweights = [st for st in steps if st.result.outcome.tag == "reweighted"]
        assert len(reweights) >= 5
        for st in reweights:
            # The column ascends, so every branch, the root too, reads its
            # rows in ascending order without a sort.
            branch = st.branch
            rows = row_indices(branch.rows, ps.n)
            x, w = ps.points[rows, 0], branch.weights.weights
            assert (np.diff(x) >= 0.0).all()
            (child,) = st.result.children + st.result.pruned
            assert isinstance(child.rows, slice)
            k0, k1 = child.rows.start - rows[0], child.rows.stop - rows[0]
            # A prefix and a suffix of the sorted rows are dropped, at least one row.
            assert 0 <= k0 <= k1 <= len(rows) and k0 + len(rows) - k1 >= 1
            assert len(child.weights) == k1 - k0
            # The rows inside the quantile interval keep their weights bit for bit.
            a, b = quantile_interval(x, WeightFn(w), cfg.alpha)
            inside = (x[k0:k1] >= a) & (x[k0:k1] <= b)
            assert inside.sum() >= 0.5 * len(rows)
            np.testing.assert_array_equal(child.weights.weights[inside], w[k0:k1][inside])

    def test_runs_below_a_root_that_did_not_sort(self):
        # Rows given in ascending order of the root's projections: its
        # pass sorts nothing, so its children are runs; their passes sort
        # along a new direction, and their children index the whole set.
        rng = np.random.default_rng(7)
        centers = np.array([[0.0, 0.0], [0.0, 300.0], [2000.0, 0.0], [2000.0, 300.0]])
        pts = np.vstack([c + rng.normal(size=(300, 2)) for c in centers])
        cfg = RunConfig(alpha=0.2)
        ps = preprocess_rescale(pts, cfg)
        v = ldme.driver.approx_top_eigenpair(ps, WeightFn(np.ones(ps.n))).direction
        ascending = pts[np.argsort(ps.points @ v)]
        steps = []
        got, _, audit = run_audited(ascending, cfg)
        list_decode_mean(ascending, cfg, observer=steps.append)
        assert audit.violations == [] and len(got) == 4
        assert all(isinstance(c.rows, slice) for c in steps[0].result.children)
        below = [c for st in steps[1:3] for c in st.result.children]
        assert below and all(isinstance(c.rows, np.ndarray) for c in below)
        want = sorted_rows(list_decode_mean(pts, cfg)[0].vectors)
        np.testing.assert_allclose(sorted_rows(got.vectors), want, rtol=0.0, atol=1e-9 * 2000)

    def test_1d_passes_read_views_of_the_root_column(self, monkeypatch):
        # Past the sort in preprocessing, a 1-D run gathers no rows: the
        # root's pass reads the root set itself, and every other pass a
        # read-only view of its column.
        pts = junk_instance(4000, 1, seed=54)
        gathers = []
        monkeypatch.setattr(np, "take", lambda *a, **k: gathers.append("take"))
        seen = []
        eigenpair = ldme.driver.approx_top_eigenpair
        monkeypatch.setattr(
            ldme.driver, "approx_top_eigenpair", lambda ps, w: seen.append(ps) or eigenpair(ps, w)
        )
        steps = []
        list_decode_mean(pts, RunConfig(alpha=0.2), observer=steps.append)
        assert gathers == [] and len(steps) == len(seen) >= 10
        root = seen[0].points
        assert seen[0].center is not None and steps[0].branch.rows == slice(0, len(pts))
        assert not root.flags.writeable and (np.diff(root[:, 0]) >= 0.0).all()
        for step, ps in zip(steps, seen):
            rows = step.branch.rows
            assert isinstance(rows, slice) and ps.n == rows.stop - rows.start
            assert np.shares_memory(ps.points, root) and not ps.points.flags.writeable
            assert ps.points.__array_interface__["data"] == root[rows].__array_interface__["data"]


class TestMeanReuse:
    """A pass takes its branch's weighted mean once: for d > 1 to center
    the covariance, in 1-D as the first sum of the two-pass variance. A
    certified branch's hypothesis is that mean, eigenpair.mean."""

    @pytest.mark.parametrize("d", [1, 6])
    def test_one_mean_per_pass_and_the_same_bits(self, monkeypatch, d):
        pts = junk_instance(4000, d, seed=51)
        cfg = RunConfig(alpha=0.2)
        ps = preprocess_rescale(pts, cfg)
        means = []
        for module in (ldme.wdata, ldme.driver):
            monkeypatch.setattr(
                module, "weighted_mean", lambda p, w: means.append(p) or weighted_mean(p, w)
            )
        steps = []
        hyps = list_decode_mean(pts, cfg, observer=steps.append)[0]
        certified = [st for st in steps if st.result.outcome.tag == "certified"]
        assert len(certified) >= 2 and len(steps) >= 10
        assert len(means) == (len(steps) if d > 1 else 0)
        for step in certified:
            want = weighted_mean(ps.restrict(step.branch.rows), step.branch.weights)
            assert step.result.eigenpair.mean.tobytes() == want.tobytes()
        # The hypotheses are those means, in processing order, mapped back.
        raw = HypothesisList([st.result.eigenpair.mean for st in certified])
        assert hyps.vectors.tobytes() == postprocess_unscale(raw, cfg, ps.center).vectors.tobytes()


@pytest.mark.parametrize("adversary", ["line_clusters", "decoy_clusters"])
def test_row_permutation_keeps_hypothesis_set(adversary):
    spec = InstanceSpec(
        n=1500, d=8, alpha=0.15, adversary=adversary, decoys=6,
        separation=500.0, mean_radius=10.0, seed=37,
    )
    pts, _, _ = gen_instance(spec)
    cfg = RunConfig(alpha=0.15)
    perm = np.random.default_rng(38).permutation(len(pts))
    want = sorted_rows(list_decode_mean(pts, cfg)[0].vectors)
    got = sorted_rows(list_decode_mean(pts[perm], cfg)[0].vectors)
    assert got.shape == want.shape and len(want) >= 1
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * np.abs(want).max())


@pytest.mark.parametrize("d", [1, 6])
def test_split_children_of_a_unit_branch_are_unit(d):
    # A split of unit weights keeps unit weights on both halves, built as
    # ones whose total is the half's length; the root is unit too.
    steps = []
    list_decode_mean(junk_instance(4000, d, seed=52), RunConfig(alpha=0.2),
                     observer=steps.append)
    assert steps[0].branch.weights.unit
    splits = [
        st for st in steps if st.branch.weights.unit and st.result.outcome.tag == "split"
    ]
    assert len(splits) >= 2
    for st in splits:
        for child in st.result.children + st.result.pruned:
            w = child.weights
            assert w.unit and w.total == float(len(w)) and (w.weights == 1.0).all()


def rotation_case(name):
    """Points and alpha of a pinned instance of tests/test_tree.py, or of a
    wider line_clusters instance."""
    from test_tree import PINNED, pinned_input

    if name in PINNED:
        instance, junk, _ = PINNED[name]
        return pinned_input(instance, junk)[0], instance["alpha"]
    spec = InstanceSpec(n=4000, d=10, alpha=0.1, adversary="line_clusters", decoys=9,
                        separation=300.0, mean_radius=5.0, seed=3)
    return gen_instance(spec)[0], spec.alpha


@pytest.mark.parametrize("name", ["line_clusters", "decoy_clusters", "line_clusters_d10"])
def test_rotated_input_gives_rotated_hypotheses(name):
    # For an orthogonal Q, the hypotheses of x Q' are those of x, times Q',
    # within 1e-12 max|x| (6e-16 max|x| at worst when measured). They are
    # compared as sorted rows, a set with repeats: the eigenvector's sign
    # rule (largest component non-negative) is not rotation-equivariant, so
    # the rotated run can process its branches, and list their means, in
    # another order.
    pts, alpha = rotation_case(name)
    cfg = RunConfig(alpha=alpha)
    want = list_decode_mean(pts, cfg)[0].vectors
    assert len(want) >= 2
    tol = 1e-12 * float(np.abs(pts).max())
    rng = np.random.default_rng(53)
    for _ in range(8):
        q, r = np.linalg.qr(rng.normal(size=(pts.shape[1],) * 2))
        q *= np.sign(np.diag(r))
        got = list_decode_mean(pts @ q.T, cfg)[0].vectors
        assert got.shape == want.shape
        np.testing.assert_allclose(
            sorted_rows(got), sorted_rows(want @ q.T), rtol=0.0, atol=tol
        )
