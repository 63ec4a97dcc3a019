"""Acceptance suite: the package's exit criteria at their stated tolerances.

Run with -s to see one pass/fail line per criterion:
    pytest tests/test_acceptance.py -v -s
Heavy driver batches are shared across criteria via module-scoped fixtures;
every driver run in this module is fully audited (certificates, split
conditions, progress, depth, frontier potential).
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from ldme import (
    HypothesisList,
    InfeasibleSplit,
    InstanceSpec,
    PointSet,
    ReduceConfig,
    RunConfig,
    WeightFn,
    alpha_good,
    approx_top_eigenpair,
    find_split,
    gen_instance,
    reduce_list,
)
from auditing import RunAudit, nice_path_exists, run_audited
from oracles import (
    cov_matvec,
    min_error_naive,
    separated_subset_props,
    split_conditions_hold,
    split_feasible_bruteforce,
    top_eigenpair_dense,
)
from test_find_split import random_1d_instance

D1 = 20
ALPHAS_1 = (0.05, 0.1, 0.2, 0.4)
SEEDS_1 = 20
SEPARATION_1 = {0.05: 1000.0, 0.1: 600.0, 0.2: 400.0, 0.4: 300.0}


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@dataclass
class DriverRun:
    alpha: float
    n: int
    seed: int
    hyps: HypothesisList
    trace: list
    audit: RunAudit
    true_mean: np.ndarray
    s_size: int
    alpha_good: bool
    errors: list = field(default_factory=list)


def _run(spec: InstanceSpec, cfg: RunConfig) -> DriverRun:
    pts, mask, mu = gen_instance(spec)
    errors = []
    try:
        hyps, trace, audit = run_audited(pts, cfg, inlier_mask=mask)
    except InfeasibleSplit as err:
        errors.append(err)
        hyps, trace, audit = HypothesisList(np.zeros((0, spec.d))), [], RunAudit()
    return DriverRun(
        alpha=spec.alpha,
        n=spec.n,
        seed=spec.seed,
        hyps=hyps,
        trace=trace,
        audit=audit,
        true_mean=mu,
        s_size=int(mask.sum()),
        alpha_good=alpha_good(pts, mask, cfg),
        errors=errors,
    )


@pytest.fixture(scope="module")
def batch1():
    """Criterion-1 batch: 20 adversarial seeds per alpha, n = 40*d/alpha."""
    runs = []
    start = time.perf_counter()
    for alpha in ALPHAS_1:
        n = int(40 * D1 / alpha)
        k = min(int(1 / alpha), D1)
        for seed in range(SEEDS_1):
            spec = InstanceSpec(
                n=n, d=D1, alpha=alpha,
                adversary="line_clusters", decoys=k,
                separation=SEPARATION_1[alpha], mean_radius=10.0, seed=seed,
            )
            runs.append(_run(spec, RunConfig(alpha=alpha, seed=seed)))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def batch2():
    """Criterion-2 batch: d=50, n=5000, alpha=0.1, 9 equidistant decoys.

    These inputs take the path where the root certifies: the list is the
    one sample mean, within the budget, so the batch cannot tell the
    estimator from returning points.mean(0).
    """
    alpha, d, n = 0.1, 50, 5000
    sep = 40.0 / math.sqrt(alpha)
    runs = []
    start = time.perf_counter()
    for seed in range(20):
        spec = InstanceSpec(
            n=n, d=d, alpha=alpha,
            adversary="decoy_clusters", decoys=9, separation=sep,
            mean_radius=10.0, seed=seed,
        )
        runs.append(_run(spec, RunConfig(alpha=alpha, seed=seed)))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def batch5():
    """Criterion-5 batch: planted good instances with inlier tracking."""
    runs = []
    for alpha, sep in ((0.1, 600.0), (0.3, 200.0)):
        k = int(1 / alpha)
        for seed in range(50):
            spec = InstanceSpec(
                n=2000, d=10, alpha=alpha,
                adversary="line_clusters", decoys=k, separation=sep,
                mean_radius=10.0, seed=seed,
            )
            runs.append(_run(spec, RunConfig(alpha=alpha, seed=seed)))
    return runs


def _all_runs(batch1, batch2, batch5):
    return batch1[0] + batch2[0] + batch5


def test_criterion_1_list_size_and_potential(batch1):
    runs, elapsed = batch1
    size_ok = all(len(r.hyps) <= 4.0 / r.alpha**2 for r in runs)
    potential_ok = all(
        not any("potential" in v for v in r.audit.violations) for r in runs
    )
    clean = all(not r.errors for r in runs)
    worst = max((len(r.hyps) * r.alpha**2 / 4.0 for r in runs), default=0.0)
    ok = size_ok and potential_ok and clean and elapsed < 120.0
    _report(
        1,
        ok,
        f"{len(runs)} runs, list size <= 4/alpha^2 (worst fill {worst:.1%}), "
        f"frontier potential <= n^2 throughout, runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_2_error_guarantee(batch2):
    runs, elapsed = batch2
    alpha = 0.1
    budget = 10.0 * math.log2(2.0 / alpha) / math.sqrt(alpha)
    hits = sum(
        1
        for r in runs
        if len(r.hyps) and min_error_naive(r.hyps.vectors, r.true_mean) <= budget
    )
    ok = hits >= 18 and elapsed < 300.0
    _report(
        2,
        ok,
        f"min error <= {budget:.1f} in {hits}/20 seeds (need >= 18), "
        f"runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_5_nice_path(batch5):
    bad = []
    for r in batch5:
        if not r.alpha_good:
            bad.append(f"seed {r.seed} alpha {r.alpha}: instance not good")
            continue
        if not nice_path_exists(r.trace, r.s_size, r.alpha):
            bad.append(f"seed {r.seed} alpha {r.alpha}: no nice certified path")
    ok = not bad
    _report(
        5,
        ok,
        f"nice root-to-certified path present in all {len(batch5)} planted runs"
        if ok
        else f"failures: {bad[:3]}",
    )


def test_criterion_6_split_search_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    mismatches = 0
    invalid = 0
    feasible = 0
    for _ in range(1000):
        vals, wts, alpha = random_1d_instance(rng)
        sp = find_split(vals, WeightFn(wts), alpha)
        expect = split_feasible_bruteforce(vals, wts, alpha)
        if (sp is not None) != expect:
            mismatches += 1
        if sp is not None:
            feasible += 1
            if not split_conditions_hold(vals, wts, alpha, sp.t, sp.R):
                invalid += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and invalid == 0 and elapsed < 30.0 and feasible >= 100
    _report(
        6,
        ok,
        f"1000 instances: 0 decision mismatches, {feasible} feasible all valid, "
        f"runtime {elapsed:.1f}s < 30s"
        if ok
        else f"mismatches={mismatches}, invalid={invalid}, t={elapsed:.1f}s",
    )


def test_criterion_7_eigensolver_contract():
    rng = np.random.default_rng(777)
    half_hits = 0
    rayleigh_ok = 0
    trials = 2000
    for trial in range(trials):
        n = int(rng.integers(10, 80))
        d = int(rng.integers(2, 31))
        pts = rng.normal(size=(n, d)) @ np.diag(rng.uniform(0.2, 4.0, d))
        wts = rng.uniform(0.0, 1.0, n)
        wts[int(rng.integers(0, n))] = 1.0
        ps, w = PointSet(pts), WeightFn(wts)
        eig = approx_top_eigenpair(ps, w)
        lam_max, _ = top_eigenpair_dense(pts, wts)
        if eig.value >= lam_max / 2.0:
            half_hits += 1
        ray = float(eig.direction @ cov_matvec(ps, w, eig.direction))
        if abs(eig.value - ray) <= 1e-9 * max(abs(ray), 1e-30):
            rayleigh_ok += 1
    ok = half_hits >= int(0.995 * trials) and rayleigh_ok == trials
    _report(
        7,
        ok,
        f"value >= lambda_max/2 in {half_hits}/{trials} trials (need 1990), "
        f"Rayleigh identity exact in {rayleigh_ok}/{trials}",
    )


def test_criterion_8_list_reduction(batch1):
    runs, _ = batch1
    bad = []
    for r in runs:
        rc = ReduceConfig(alpha=r.alpha, sep_const=8.0, sigma_scale=2.0)
        reduced = reduce_list(r.hyps, rc)
        if len(reduced) > 2.0 / r.alpha:
            bad.append(f"alpha {r.alpha} seed {r.seed}: size {len(reduced)}")
        if len(r.hyps) and not separated_subset_props(
            reduced.vectors, r.hyps.vectors, rc.radius
        ):
            bad.append(f"alpha {r.alpha} seed {r.seed}: separation/maximality")
        if len(r.hyps):
            before = min_error_naive(r.hyps.vectors, r.true_mean)
            after = min_error_naive(reduced.vectors, r.true_mean)
            if after > before + rc.radius + 1e-9:
                bad.append(f"alpha {r.alpha} seed {r.seed}: error grew past radius")

    # greedy output matches the maximal-separated-subset property on larger
    # synthetic inputs too (up to 200 entries)
    rng = np.random.default_rng(88)
    for _ in range(20):
        rc = ReduceConfig(alpha=0.2, sep_const=8.0, sigma_scale=1.0)
        rows = rng.normal(size=(int(rng.integers(1, 201)), 8)) * rc.radius
        reduced = reduce_list(HypothesisList(rows), rc)
        if not separated_subset_props(reduced.vectors, rows, rc.radius):
            bad.append("synthetic input: separation/maximality")
    ok = not bad
    _report(
        8,
        ok,
        f"reduced lists <= 2/alpha, pairwise > r, error growth <= r over "
        f"{len(runs)} runs + 20 synthetic inputs"
        if ok
        else f"failures: {bad[:3]}",
    )


def test_criterion_3_certificate_soundness(batch1, batch2, batch5):
    runs = _all_runs(batch1, batch2, batch5)
    violations = [
        v for r in runs for v in r.audit.violations if "certificate" in v
    ]
    total = sum(r.audit.certified for r in runs)
    ok = not violations and total > 0
    _report(
        3,
        ok,
        f"{total} certified exits across {len(runs)} runs, zero violations"
        if ok
        else f"violations: {violations[:3]}",
    )


def test_criterion_4_split_soundness(batch1, batch2, batch5):
    runs = _all_runs(batch1, batch2, batch5)
    violations = [
        v
        for r in runs
        for v in r.audit.violations
        if "squared-mass" in v or "loss condition" in v
    ]
    total = sum(r.audit.splits for r in runs)
    ok = not violations and total > 0
    _report(
        4,
        ok,
        f"{total} splits across {len(runs)} runs re-verified at 1e-9 relative"
        if ok
        else f"violations: {violations[:3]}",
    )


def test_criterion_9_progress_and_termination(batch1, batch2, batch5):
    runs = _all_runs(batch1, batch2, batch5)
    infeasible = [err for r in runs for err in r.errors]
    progress_violations = [
        v
        for r in runs
        for v in r.audit.violations
        if "zeroed no positive" in v or "did not lose" in v or "depth" in v
    ]
    depth_ok = all(r.audit.max_depth <= r.n for r in runs)
    ok = not infeasible and not progress_violations and depth_ok
    _report(
        9,
        ok,
        f"all {len(runs)} worklists terminated, every downweight zeroed a "
        f"positive weight, max depth within n, no infeasible splits"
        if ok
        else f"infeasible={len(infeasible)}, violations={progress_violations[:3]}",
    )
