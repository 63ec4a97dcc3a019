"""Run-wide configuration and configuration errors."""

from __future__ import annotations

from dataclasses import dataclass


class ConfigError(ValueError):
    """Raised when a configuration value is missing or out of range."""


def from_section(cls, raw: dict, name: str):
    """cls built from one config section: an unknown field or a value of
    the wrong type is a ConfigError."""
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown {name} field")
    try:
        return cls(**raw)
    except TypeError as err:
        raise ConfigError(f"{name}: {err}") from err


@dataclass(frozen=True)
class RunConfig:
    """All universal constants of the estimator.

    Attributes:
        alpha: assumed inlier fraction, in (0, 1/2).
        sigma: known covariance scale of the inliers (Cov <= sigma^2 I).
        scale_c: extra rescale constant, >= 1; points are divided by
            scale_c * sigma before filtering.
        big_c: variance-threshold constant of the filtering rule.
        seed: seed of the run, recorded with it and passed on by experiment
            configs; the estimator draws no random numbers, so its answer
            does not depend on the seed.
        trace: whether list_decode_mean records per-iteration trace events.
    """

    alpha: float
    sigma: float = 1.0
    scale_c: float = 2.0
    big_c: float = 20.0
    seed: int = 0
    trace: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 0.5:
            raise ConfigError(f"alpha: must be in (0, 1/2), got {self.alpha}")
        if not self.sigma > 0.0:
            raise ConfigError(f"sigma: must be positive, got {self.sigma}")
        if not self.scale_c >= 1.0:
            raise ConfigError(f"scale_c: must be >= 1, got {self.scale_c}")
        if not self.big_c > 0.0:
            raise ConfigError(f"big_c: must be positive, got {self.big_c}")

    @property
    def rescale_factor(self) -> float:
        return self.scale_c * self.sigma
