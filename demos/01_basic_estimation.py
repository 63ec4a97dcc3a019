"""Estimating a mean when most of the sample is garbage.

Plants 30% clean Gaussian samples around a hidden center; the other 70%
sit in a single far decoy blob. The naive sample mean is dragged toward
the blob, while the candidate list contains one vector per plausible
cluster, and the one near the hidden center is accurate.
"""

import numpy as np

from ldme import InstanceSpec, RunConfig, evaluate, gen_instance, list_decode_mean

spec = InstanceSpec(
    n=2000,
    d=20,
    alpha=0.3,
    adversary="line_clusters",
    decoys=1,
    separation=400.0,
    mean_radius=8.0,
    seed=42,
)
points, inlier_mask, true_mean = gen_instance(spec)
print(f"n={spec.n}, d={spec.d}, inliers={inlier_mask.sum()} ({spec.alpha:.0%})")
print(f"decoy blob with {(~inlier_mask).sum()} points at distance {spec.separation}")

naive = points.mean(axis=0)
print(f"\nnaive sample mean error:  {np.linalg.norm(naive - true_mean):8.3f}")

cfg = RunConfig(alpha=0.3, sigma=1.0, seed=42)
hypotheses, _ = list_decode_mean(points, cfg)
result = evaluate(hypotheses, true_mean)
print(f"robust candidates: {len(hypotheses)}")
for i, h in enumerate(hypotheses):
    marker = " <- best" if i == result["best_index"] else ""
    print(f"  candidate {i}: error {np.linalg.norm(h - true_mean):8.3f}{marker}")
print(f"best candidate error:     {result['min_error']:8.3f}")
