"""Run-wide configuration, shared validity rules and configuration errors."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

SCALE_C = 2.0


class ConfigError(ValueError):
    """Raised when a configuration value is missing or out of range."""


def check_alpha(alpha: float) -> None:
    """Refuse an assumed inlier fraction outside (0, 1/2)."""
    if not 0.0 < alpha < 0.5:
        raise ConfigError(f"alpha: must be in (0, 1/2), got {alpha}")


def check_int(name: str, value, low: int = 0) -> None:
    """Refuse all but an integer >= low; numpy integers pass, bool does not."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        raise ConfigError(f"{name}: must be an integer >= {low}, got {value!r}")


def check_positive(name: str, value: float) -> None:
    """Refuse a value that is not > 0, such as nan."""
    if not value > 0.0:
        raise ConfigError(f"{name}: must be positive, got {value}")


def from_section(cls, raw: dict, name: str, fixed: tuple = (), **defaults):
    """cls built from one config section over defaults. A field named in
    fixed, whose default another section sets, or an unknown field in raw,
    or a value of the wrong type (a TypeError from cls), is a ConfigError."""
    for key in sorted(raw):
        if key in fixed:
            raise ConfigError(f"{key}: set by another section, not by {name}")
        if key not in cls.__dataclass_fields__:
            raise ConfigError(f"{key}: unknown {name} field")
    try:
        return cls(**{**defaults, **raw})
    except TypeError as err:
        raise ConfigError(f"{name}: {err}") from err


@dataclass(frozen=True)
class RunConfig:
    """All universal constants of the estimator.

    Attributes:
        alpha: assumed inlier fraction, in (0, 1/2).
        sigma: known covariance scale of the inliers (Cov <= sigma^2 I);
            points are divided by SCALE_C * sigma before filtering.
        big_c: variance-threshold constant of the filtering rule.
        seed: the instance's seed, echoed in an experiment's report.
        trace: whether an experiment writes a trace file, echoed likewise.

    The estimator reads neither: it draws no random numbers, and its trace
    is an observer (report.TraceRecorder). Both stay for the report's echo
    and for callers, the benchmark among them, that build RunConfig with them.
    """

    alpha: float
    sigma: float = 1.0
    big_c: float = 20.0
    seed: int = 0
    trace: bool = False

    def __post_init__(self) -> None:
        check_int("seed", self.seed)
        if not isinstance(self.trace, bool):
            raise TypeError(f"trace: must be true or false, got {self.trace!r}")
        check_alpha(self.alpha)
        check_positive("sigma", self.sigma)
        check_positive("big_c", self.big_c)

    @property
    def rescale_factor(self) -> float:
        return SCALE_C * self.sigma
