"""The list-decoding regime: 10% inliers versus nine identical decoys.

With alpha < 1/2 no single estimate can work: the adversary plants decoy
clusters indistinguishable from the real one. The estimator returns a short
list instead; one entry lands near the true mean, and greedy reduction
prunes near-duplicates while preserving that guarantee.
"""

import math

import numpy as np

from ldme import (
    HypothesisList,
    ReduceConfig,
    RunConfig,
    evaluate,
    list_decode_mean,
    reduce_list,
)

rng = np.random.default_rng(1)
alpha, n, d = 0.1, 4000, 15
n_in = int(alpha * n)
true_mean = rng.normal(size=d)
true_mean *= 12.0 / np.linalg.norm(true_mean)

axis = rng.normal(size=d)
axis /= np.linalg.norm(axis)
centers = [true_mean + i * 600.0 * axis for i in range(10)]  # index 0 = real

chunks = [centers[0] + rng.normal(size=(n_in, d))]
per_decoy = (n - n_in) // 9
for c in centers[1:]:
    chunks.append(c + rng.normal(size=(per_decoy, d)))
points = np.vstack(chunks)[rng.permutation(n)]
print(f"{n_in} inliers vs {n - n_in} outliers in 9 identical decoys")

cfg = RunConfig(alpha=alpha, sigma=1.0, seed=1)
hypotheses, stats = list_decode_mean(points, cfg)
print(f"\nsearch tree outcomes: {stats.summary()['by_tag']}")
print(f"raw list size: {len(hypotheses)} (bound 4/alpha^2 = {int(4 / alpha**2)})")
print(f"best raw error: {evaluate(hypotheses, true_mean)['min_error']:.3f}")

rc = ReduceConfig(alpha=alpha, sep_const=8.0, sigma_scale=cfg.rescale_factor)
reduced = reduce_list(hypotheses, rc)
print(f"\nreduced list size: {len(reduced)} (bound 2/alpha = {int(2 / alpha)})")
print(f"separation radius: {rc.radius:.1f}")
print(f"best reduced error: {evaluate(reduced, true_mean)['min_error']:.3f}")
budget = 10 * math.log2(2 / alpha) / math.sqrt(alpha)
print(f"error budget 10*lg(2/alpha)/sqrt(alpha) = {budget:.1f}")

print("\nnearest candidate to every planted center (real and decoys):")
for i, center in enumerate(centers):
    label = "true mean" if i == 0 else f"decoy {i}"
    dist = evaluate(HypothesisList(reduced.vectors), center)["min_error"]
    print(f"  {label:>9}: {dist:8.3f}")
