"""One filtering pass, opened up.

Shows the three possible outcomes of a single pass along a direction:
certify when the weighted variance is small, softly downweight a far small
mass, and split two balanced far-apart groups into overlapping halves.
"""

import numpy as np

from ldme import (
    PointSet,
    RunConfig,
    WeightFn,
    basic_multifilter,
    quantile_interval,
    truncated_variance,
    weighted_variance,
)

rng = np.random.default_rng(0)
cfg = RunConfig(alpha=0.2, big_c=20.0)
e1 = np.array([1.0, 0.0])


def lift(values):
    return PointSet(np.column_stack([values, np.zeros_like(values)]))


def show(name, values):
    w = WeightFn(np.ones(len(values)))
    a, b = quantile_interval(values, w, cfg.alpha)
    # The gate reads the window with I's center and twice its half-width.
    t, r = 0.5 * (a + b), 0.5 * (b - a)
    tv = truncated_variance(values, w, (t - 2.0 * r, t + 2.0 * r))
    fv = weighted_variance(values, w)
    out = basic_multifilter(lift(values), w, e1, cfg)
    print(f"{name}:")
    print(f"  quantile interval [{a:8.2f}, {b:8.2f}]")
    print(f"  variance: windowed {tv:10.2f}   full {fv:10.2f}")
    print(f"  outcome: {out.tag}")
    for i, child in enumerate(out.children):
        kept = (child.weights > 0).sum()
        print(f"    child {i}: mass {child.total:8.2f}, {kept} supported points")
    if out.split_params:
        sp = out.split_params
        print(f"    overlap [{sp.t - sp.R:.2f}, {sp.t + sp.R:.2f})")
    print()


show("quiet cloud", rng.normal(size=500))
show(
    "far small mass",
    np.concatenate([rng.normal(size=490), 300.0 + rng.normal(size=10)]),
)
show(
    "two balanced groups",
    np.concatenate([rng.normal(size=250), 200.0 + rng.normal(size=250)]),
)
