"""The search tree as the driver's per-pass records describe it.

The trace, the observer's steps and the report's counts are three views of
one record per processed branch. These tests pin the trace and report
bytes, check that the counts do not depend on whether a trace is recorded,
and check the tree's shape on small drawn instances.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ldme import (
    InfeasibleSplit,
    InstanceSpec,
    RunConfig,
    TreeCounts,
    gen_instance,
    list_decode_mean,
    run_experiment,
    write_trace_csv,
)

# Three instances whose trees certify, reweight, split and prune, none with
# a zero lambda_star: each is generated, then ``junk`` of its outlier rows
# are moved far out. The digests were taken once branches carried only
# their support, in sorted order; the trace before that agreed with them on
# every id, depth and tag and within 4e-15 relative on every float. They
# hold for numpy 2.4 on x86-64, and another BLAS may round the eigensolve
# differently.
PINNED = {
    "line_clusters": (
        dict(n=1200, d=6, alpha=0.15, adversary="line_clusters", decoys=4,
             separation=300.0, mean_radius=5.0, seed=21),
        12,
        (
            "b9041a4c098a36eae2cdf8657168e5af009b94fc8e77607c95be0b42ab64b286",
            "264a24863b82c2d534e4689cde501994cb7c272c705347dc78762f636f71b349",
            "4eacc19df86a1cd5ed72f80bc69413b0acbb8f7e637187704bafb2a21d1a6c14",
        ),
    ),
    "decoy_clusters": (
        dict(n=900, d=8, alpha=0.2, adversary="decoy_clusters", decoys=4,
             separation=400.0, mean_radius=5.0, seed=22),
        9,
        (
            "e37dbfb3cbcbad5e87ba2e3f29d9cd62965ae6a983ff1cfa0d18b82ee9df1881",
            "d139f1ada6aa8f98eb8949b3a7e4080aaa6980495c6bf6751296fb4ceaaad43d",
            "c1df8ec66070d3f2700d0653b7a6be1725cc31380936f64487938351f5897e46",
        ),
    ),
    "uniform_noise": (
        dict(n=1000, d=2, alpha=0.2, adversary="uniform_noise",
             noise_radius=3000.0, seed=23),
        0,
        (
            "a77c9768983cfe3bbb48b8ac81fac8c6630d6008cc7e49536d64ed014ad99e54",
            "e91873aed9172e5d2c71632df1a9488800de57d12cd3282f0814bc51f4f84956",
            "fa41a705111e898ff09af4de43e78fa5b0230b42e83531b5239809fa06204886",
        ),
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned_input(instance: dict, junk: int):
    """Points, inlier mask and true mean of one pinned instance."""
    spec = InstanceSpec(**instance)
    points, mask, true_mean = gen_instance(spec)
    rng = np.random.default_rng(spec.seed)
    rows = rng.choice(np.flatnonzero(~mask), junk, replace=False)
    points[rows] = rng.uniform(-5000.0, 5000.0, (junk, spec.d))
    return points, mask, true_mean


def pinned_report(instance: dict, junk: int, trace: bool = True):
    """run_experiment on fresh inliers around the same mean beside the
    pinned instance's outlier rows, passed in as the file adversary's."""
    points, mask, true_mean = pinned_input(instance, junk)
    config = {
        "instance": dict(
            instance, adversary="file", outlier_file="outliers.csv",
            true_mean=true_mean.tolist(),
        ),
        "run": {"trace": trace},
    }
    return run_experiment(config, points[~mask])


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trace_and_report_bytes_are_pinned(name, tmp_path):
    instance, junk, want = PINNED[name]
    points, mask, _ = pinned_input(instance, junk)
    cfg = RunConfig(alpha=instance["alpha"], seed=instance["seed"])
    got = []
    for inlier_mask in (mask, None):
        _, trace = list_decode_mean(points, cfg, inlier_mask=inlier_mask)
        write_trace_csv(tmp_path / "trace.csv", trace)
        got.append(_sha((tmp_path / "trace.csv").read_bytes()))
    report = pinned_report(instance, junk)
    got.append(_sha(report.to_json(include_wall_time=False).encode()))
    assert tuple(got) == want


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_counts_do_not_need_the_trace(name):
    instance, junk, _ = PINNED[name]
    on = pinned_report(instance, junk, trace=True)
    off = pinned_report(instance, junk, trace=False)
    assert (off.iterations, off.branches) == (on.iterations, on.branches)
    assert off.trace_summary == on.trace_summary
    assert on.trace_summary["events"] >= on.iterations >= 1


@st.composite
def small_instances(draw):
    """A normal cluster with a share of rows moved 400 away, optionally
    resampled with repeats; d > n and n = 1 are in reach."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=(n, d))
    far = rng.random(n) < draw(st.floats(0.0, 0.8))
    pts[far] += rng.choice([-1.0, 1.0], size=(int(far.sum()), 1)) * 400.0
    if draw(st.booleans()):
        pts = pts[rng.integers(0, n, n)]  # duplicate rows
    return pts, draw(st.floats(0.1, 0.45))


@settings(
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(small_instances())
def test_tree_shape_matches_its_records(instance):
    pts, alpha = instance
    cfg = RunConfig(alpha=alpha, scale_c=1.0)
    steps = []
    counts = TreeCounts()

    def observer(step):
        steps.append(step)
        counts(step)

    try:
        hyps, trace = list_decode_mean(pts, cfg, observer=observer)
    except InfeasibleSplit:
        return
    processed = [step.branch_id for step in steps]
    assert len(set(processed)) == len(processed)
    created = [i for step in steps for i in step.child_ids + step.pruned_ids]
    assert len(set(created + [0])) == len(created) + 1
    assert {step.parent_id for step in steps} - {-1} <= set(processed)
    assert {ev.parent_id for ev in trace} - {-1} <= set(processed)
    assert sum(ev.tag == "certified" for ev in trace) == len(hyps)

    assert counts.passes == len(steps)
    assert counts.branches == 1 + len(created)
    assert counts.summary() == {
        "events": len(trace),
        "by_tag": dict(Counter(ev.tag for ev in trace)),
        "max_depth": max(ev.depth for ev in trace),
    }
