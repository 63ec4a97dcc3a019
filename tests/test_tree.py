"""The search tree as the driver's per-pass records describe it.

The trace, the observer's steps and the report's counts are three views of
one record per processed branch. These tests pin the trace and report
bytes, check that the counts do not depend on whether a trace is recorded,
and check the tree's shape on small drawn instances.
"""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

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
from auditing import report_bytes

# Four instances whose trees certify, reweight, split and prune, none with
# a zero lambda_star: each is generated, then ``junk`` of its outlier rows
# are moved far out. The digests were taken once the driver centered the
# sample on its column mean; the trace before that agreed with them on
# every id, parent, depth, tag, support size and mass, and within 4e-15
# relative on every lambda_star. The 1-D instance's were taken once the
# driver sorted its column: before that, only the root's lambda_star
# differed, by 2.2e-16 relative, as its variance summed in input order.
# They hold for numpy 2.4 on x86-64, and another BLAS may round the
# eigensolve differently.
PINNED = {
    "line_clusters": (
        dict(n=1200, d=6, alpha=0.15, adversary="line_clusters", decoys=4,
             separation=300.0, mean_radius=5.0, seed=21),
        12,
        (
            "f6132b614ed952f618dbef229cba73f55c24d02e6646d5a57a1b228df968633b",
            "b9005e611b28dc51a53f3ebd732bcc4eb1ad5597bf56340ca3a71b5fb66524ee",
            "b287c7fd2e577d823069950550055af5db4817480d9e2cafe61139a2b5ef7e26",
        ),
    ),
    "decoy_clusters": (
        dict(n=900, d=8, alpha=0.2, adversary="decoy_clusters", decoys=4,
             separation=400.0, mean_radius=5.0, seed=22),
        9,
        (
            "d2fafc0ab90708b29b2b5578fd959cce173604a298222463523db5dfa3bf874b",
            "ea8a0981feb37dff8a7a5b2517c70df9ad70719d823caafd05d26507c79d658a",
            "d185fd82ad7a1a3f45856a8bc2cd30cb84929aa51df95f4e5f41d72144dcdbc1",
        ),
    ),
    "line_clusters_1d": (
        dict(n=1500, d=1, alpha=0.2, adversary="line_clusters", decoys=4,
             separation=300.0, mean_radius=5.0, seed=24),
        20,
        (
            "efb61c1a09b359099ac1164e9fc9f787d20d5adb884e9c58235003a4c72188f6",
            "c36fe70535ff161bce1c7cd7833a9aca446d8b3eda0617039d811030d2b857dc",
            "2c80c69d1b06cbea8f21cb5f22215902a72a3e3bec919f9da47a73776b815419",
        ),
    ),
    "uniform_noise": (
        dict(n=1000, d=2, alpha=0.2, adversary="uniform_noise",
             noise_radius=3000.0, seed=23),
        0,
        (
            "dd23d895e93bd2a72d494397fa706f0d934d9dfa62c9f1af7eb21952fda74a49",
            "d531456a49ba4e0046ee641996221aa3f6f34350d8b3f9f7f4ccb84a34757cba",
            "dab9be3c8aaa3dca259568a190e24b770da61223425f072770e809e6f8d65679",
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
    got.append(_sha(report_bytes(report)))
    assert tuple(got) == want


# perfbench's library workloads at shrink=8, seed 6271, input 0: the sha256
# of each one's fingerprint, every bit of its hypotheses and reduced list.
# They run in a child with BLAS on one thread, as perfbench runs them: the
# 1-D weighted sums are BLAS dot products, which round differently when
# split over threads. Like the pins above, they hold for numpy 2.4 on x86-64.
WORKLOAD_DIGESTS = {
    "decoys_wide": "a68db9d0d845140292f1e7359b42041dd094202333c117b2bc094aa82e4b2d18",
    "line_deep": "eddd42c16317a9a014b173afca916c3b42d7792e3b963d7c75d8a9dcfd65b497",
    "scalar_junk": "a582fa82f283374f0459c7ad630d05be368c910681d4099023afe8bfe61e77e6",
}
ROOT = Path(__file__).resolve().parents[1]
FINGERPRINT = """
import hashlib, sys
from pathlib import Path
from perfbench.workloads import fingerprint, make_workload
wl = make_workload(sys.argv[1], shrink=8)
wl.prepare(6271, Path.cwd())
print(hashlib.sha256(fingerprint(wl.run(wl.make_input(0)))).hexdigest())
"""


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_benchmark_answers_are_pinned(name, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", FINGERPRINT, name],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == WORKLOAD_DIGESTS[name]


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
