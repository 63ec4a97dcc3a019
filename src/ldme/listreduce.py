"""Greedy reduction of a hypothesis list to a pairwise-separated subset."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_alpha, check_positive
from .driver import HypothesisList


@dataclass(frozen=True)
class ReduceConfig:
    """Separation radius parameters for list reduction.

    The radius is sep_const * lg(2/alpha) / sqrt(alpha) * sigma_scale, with
    sigma_scale carrying the rescale factor so the radius lives in input
    coordinates.
    """

    alpha: float
    sep_const: float = 8.0
    sigma_scale: float = 1.0

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
        check_positive("sep_const", self.sep_const)
        check_positive("sigma_scale", self.sigma_scale)

    @property
    def radius(self) -> float:
        return (
            self.sep_const * np.log2(2.0 / self.alpha) / np.sqrt(self.alpha)
        ) * self.sigma_scale


def reduce_list(hyps: HypothesisList, rc: ReduceConfig) -> HypothesisList:
    """Keep a maximal subset of hypotheses pairwise separated by > radius.

    Single greedy pass in input order: a hypothesis is kept iff its distance
    to every previously kept one exceeds the radius. Every dropped
    hypothesis therefore lies within the radius of some kept one, so the
    best error grows by at most the radius. Cost O(d * len(in) * len(out)).
    """
    r = rc.radius
    kept: list[np.ndarray] = []
    for vec in hyps:
        if all(float(np.linalg.norm(vec - k)) > r for k in kept):
            kept.append(vec)
    if kept:
        return HypothesisList(np.vstack(kept))
    return HypothesisList(np.zeros((0, hyps.vectors.shape[1])))
