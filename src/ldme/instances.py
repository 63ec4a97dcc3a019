"""Synthetic benchmark instances: planted inliers plus an adversary.

Inlier models all have covariance exactly sigma^2 I by construction:
independent standard normal coordinates, Student-t coordinates rescaled to
unit variance (dof > 2), or uniform coordinates on [-sqrt(3), sqrt(3)].
The adversary fills the remaining (1 - alpha) fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, check_alpha, check_int, check_positive, from_section
from .dataio import load_points

INLIER_MODELS = ("gaussian_identity", "heavy_tail_student_t", "bounded_uniform")
ADVERSARIES = ("decoy_clusters", "line_clusters", "uniform_noise", "mirror", "file")


@dataclass(frozen=True, eq=False)
class InstanceSpec:
    """Everything needed to generate one synthetic instance.

    Adversaries: decoy_clusters places k inlier-shaped decoys pairwise
    `separation` apart (and that far from the true mean, needs d >= k);
    line_clusters places them collinearly at 1..k times `separation` along
    a seeded random direction; uniform_noise fills a ball; mirror reflects
    fresh inlier-shaped samples through the origin; file reads the outliers
    verbatim. true_mean is either an explicit vector or, when None, drawn
    uniformly from the sphere of radius mean_radius (the origin for 0).
    """

    n: int
    d: int
    alpha: float
    sigma: float = 1.0
    inlier_model: str = "gaussian_identity"
    student_t_dof: float = 3.0
    adversary: str = "decoy_clusters"
    decoys: int = 1
    separation: float = 10.0
    noise_radius: float = 10.0
    outlier_file: str | None = None
    true_mean: np.ndarray | None = None
    mean_radius: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_int("n", self.n, low=1)
        check_int("d", self.d, low=1)
        check_int("seed", self.seed)
        check_alpha(self.alpha)
        check_positive("sigma", self.sigma)
        if self.inlier_model not in INLIER_MODELS:
            raise ConfigError(
                f"inlier_model: unknown model {self.inlier_model!r}, "
                f"expected one of {INLIER_MODELS}"
            )
        if self.inlier_model == "heavy_tail_student_t" and not self.student_t_dof > 2.0:
            raise ConfigError(
                f"student_t_dof: must be > 2 for finite covariance, "
                f"got {self.student_t_dof}"
            )
        if self.adversary not in ADVERSARIES:
            raise ConfigError(
                f"adversary: unknown adversary {self.adversary!r}, "
                f"expected one of {ADVERSARIES}"
            )
        if self.adversary in ("decoy_clusters", "line_clusters"):
            check_int("decoys", self.decoys, low=1)
            if self.adversary == "decoy_clusters" and self.decoys > self.d:
                raise ConfigError(
                    f"decoys: equidistant placement of {self.decoys} decoys "
                    f"needs d >= {self.decoys}, got d={self.d}"
                )
            check_positive("separation", self.separation)
        if self.adversary == "uniform_noise":
            check_positive("noise_radius", self.noise_radius)
        if self.adversary == "file" and not self.outlier_file:
            raise ConfigError("outlier_file: required for the file adversary")
        if self.true_mean is not None:
            try:
                tm = np.asarray(self.true_mean, dtype=np.float64)
            except ValueError as err:
                raise ConfigError(f"true_mean: not numbers: {self.true_mean!r}") from err
            if tm.shape != (self.d,):
                raise ConfigError(
                    f"true_mean: has shape {tm.shape}, expected ({self.d},)"
                )
            object.__setattr__(self, "true_mean", tm)
        elif self.mean_radius < 0.0:
            raise ConfigError(f"mean_radius: must be >= 0, got {self.mean_radius}")

    @property
    def n_inliers(self) -> int:
        return math.ceil(self.alpha * self.n)

    @classmethod
    def from_dict(cls, raw: dict) -> "InstanceSpec":
        """Build from a JSON-style dict. true_mean, if given, is a list of d
        numbers; a mean drawn on a sphere is asked for by mean_radius."""
        return from_section(cls, raw, "instance")


def _unit_shapes(model: str, dof: float, count: int, d: int, rng) -> np.ndarray:
    """Draw count x d deviations with identity covariance."""
    if model == "gaussian_identity":
        return rng.standard_normal((count, d))
    if model == "heavy_tail_student_t":
        return rng.standard_t(dof, size=(count, d)) * math.sqrt((dof - 2.0) / dof)
    half = math.sqrt(3.0)  # bounded_uniform; InstanceSpec checked the name
    return rng.uniform(-half, half, size=(count, d))


def _equidistant_centers(base: np.ndarray, k: int, sep: float, d: int) -> np.ndarray:
    """k decoy centers, pairwise sep apart and sep from base; needs d >= k."""
    m = k + 1
    corners = np.eye(m) * (sep / math.sqrt(2.0))
    corners -= corners.mean(axis=0)
    u, s, _ = np.linalg.svd(corners, full_matrices=False)
    coords = u[:, : m - 1] * s[: m - 1]
    embedded = np.zeros((m, d))
    embedded[:, : m - 1] = coords
    embedded -= embedded[0]
    return embedded[1:] + base


def load_outliers(spec: InstanceSpec) -> np.ndarray:
    """Read the file adversary's rows once, as a read-only array.

    A seed sweep shares the result across seeds and worker threads.
    """
    outliers = load_points(spec.outlier_file)
    outliers.setflags(write=False)
    return outliers


def gen_instance(
    spec: InstanceSpec, outliers: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate one instance. Deterministic for a fixed spec (incl. seed).

    Args:
        spec: the instance to draw.
        outliers: the file adversary's rows when already read (see
            load_outliers); read from spec.outlier_file when None. Ignored
            by the other adversaries.

    Returns:
        (points, inlier_mask, true_mean): an (n, d) array, a boolean mask of
        the ceil(alpha*n) planted inliers, and the inlier distribution mean.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.true_mean is not None:
        mean = np.array(spec.true_mean, dtype=np.float64)
    elif spec.mean_radius > 0.0:
        direction = rng.standard_normal(spec.d)
        direction /= np.linalg.norm(direction)
        mean = spec.mean_radius * direction
    else:
        mean = np.zeros(spec.d)

    n_in = spec.n_inliers
    n_out = spec.n - n_in
    # Each block is drawn, then written into its row slice of one buffer,
    # so at most one block's draw is alive beside the sample.
    points = np.empty((spec.n, spec.d))

    def draw_cloud(lo: int, hi: int, center: np.ndarray) -> np.ndarray:
        """Rows lo:hi become center + sigma * inlier-shaped deviations."""
        model, dof = spec.inlier_model, spec.student_t_dof
        shapes = _unit_shapes(model, dof, hi - lo, spec.d, rng)
        shapes *= spec.sigma
        return np.add(center, shapes, out=points[lo:hi])

    draw_cloud(0, n_in, mean)

    if n_out == 0:
        pass
    elif spec.adversary in ("decoy_clusters", "line_clusters"):
        if spec.adversary == "decoy_clusters":
            centers = _equidistant_centers(mean, spec.decoys, spec.separation, spec.d)
        else:
            axis = rng.standard_normal(spec.d)
            axis /= np.linalg.norm(axis)
            steps = spec.separation * np.arange(1, spec.decoys + 1)
            centers = mean + steps[:, None] * axis
        sizes = [n_out // spec.decoys] * spec.decoys
        for i in range(n_out % spec.decoys):
            sizes[i] += 1
        lo = n_in
        for center, size in zip(centers, sizes):
            draw_cloud(lo, lo + size, center)
            lo += size
    elif spec.adversary == "uniform_noise":
        directions = rng.standard_normal((n_out, spec.d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = spec.noise_radius * rng.uniform(0.0, 1.0, n_out) ** (1.0 / spec.d)
        directions *= radii[:, None]
        np.add(mean, directions, out=points[n_in:])
    elif spec.adversary == "mirror":
        np.negative(draw_cloud(n_in, spec.n, mean), out=points[n_in:])
    else:  # file
        if outliers is None:
            outliers = load_outliers(spec)
        if outliers.shape != (n_out, spec.d):
            raise ConfigError(
                f"outlier_file: contains shape {outliers.shape}, "
                f"expected ({n_out}, {spec.d})"
            )
        points[n_in:] = outliers

    mask = np.zeros(spec.n, dtype=bool)
    mask[:n_in] = True
    perm = rng.permutation(spec.n)
    return np.take(points, perm, axis=0), mask[perm], mean
