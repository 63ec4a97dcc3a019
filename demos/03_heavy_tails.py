"""Heavy-tailed inliers: only a bounded covariance is assumed.

The filter never uses Gaussian concentration, so Student-t (dof=3) inliers
with unit covariance get the same guarantee. The data mixes a mirrored
decoy of the inlier cluster with a little scattered far junk; the junk is
removed by soft downweighting, the decoy by a split.
"""

import numpy as np

from ldme import RunConfig, evaluate, list_decode_mean


def student_t_unit(rng, size):
    return rng.standard_t(3.0, size=size) * np.sqrt(1.0 / 3.0)


d, n = 10, 3000
alpha = 0.25
n_in = int(alpha * n)
true_mean = np.full(d, 25.0)

for name, draw in (
    ("gaussian_identity", lambda rng, size: rng.standard_normal(size)),
    ("heavy_tail_student_t", student_t_unit),
):
    rng = np.random.default_rng(3)
    inliers = true_mean + draw(rng, (n_in, d))
    mirrored = -(true_mean + draw(rng, (n - n_in - 60, d)))
    junk = rng.uniform(-1.0, 1.0, size=(60, d)) * 3000.0
    points = np.vstack([inliers, mirrored, junk])[rng.permutation(n)]

    cfg = RunConfig(alpha=alpha, sigma=1.0, seed=3)
    hypotheses, stats = list_decode_mean(points, cfg)
    err = evaluate(hypotheses, true_mean)["min_error"]
    print(f"{name:>22}: {len(hypotheses)} candidates, best error {err:6.3f}, {stats.summary()['by_tag']}")
