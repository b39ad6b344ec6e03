"""Behavioural parameters and the GDP covariates of the decision score.

A cohort's decision score combines its earnings surplus, the diaspora's
family proxy, the GDP gap between destination and origin, the origin's
normalized income level, and any active disaster effects. The score maps to
a monthly sending probability through a logistic; cohorts with no earnings
surplus never remit. :mod:`engine` evaluates the score and the logistic over
arrays; this module holds the parameters, the GDP covariates and the error
that a failed fit of the parameters raises.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

log = logging.getLogger(__name__)

DISASTER_WINDOW = 12  # months of effect, offset 0 = onset month


@dataclass(frozen=True)
class BehaviorParams:
    """The nine calibrated behavioural parameters."""

    alpha: float
    beta0: float  # earnings-surplus coefficient
    beta1: float  # family-probability coefficient
    beta2: float  # GDP-gap coefficient
    beta3: float  # origin-income coefficient
    height: float  # disaster kernel baseline
    shape: float  # disaster kernel amplitude
    shift: float  # disaster kernel phase, in months
    rho: float  # fraction of monthly income remitted

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if not math.isfinite(value):
                raise ValueError(f"BehaviorParams.{name} must be finite, got {value}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"BehaviorParams.rho must be in (0, 1), got {self.rho}")

    def as_dict(self) -> dict[str, float]:
        return dict(self.__dict__)


# Published point estimates; used as the generating values for synthetic fixtures.
REFERENCE_PARAMS = BehaviorParams(
    alpha=0.02, beta0=1.08, beta1=-4.65, beta2=2.83, beta3=-3.67,
    height=0.15, shape=0.19, shift=-0.98, rho=0.18,
)

PARAM_NAMES = ("alpha", "beta0", "beta1", "beta2", "beta3", "height", "shape", "shift", "rho")


class CalibrationError(RuntimeError):
    """All optimizer starts diverged or calibration could not run.

    It lives here, beside the parameters that calibration fits, so that the
    CLI can catch it without importing :mod:`calibration`.
    """


def delta_gdp(gdp_dest, gdp_origin, *, clamp: bool = False) -> np.ndarray:
    """Relative GDP-per-capita gap between destination and origin, elementwise.

    Piecewise normalization: the gap is divided by the smaller of the two
    values, giving an antisymmetric signed ratio. It is NOT bounded to
    [-1, 1]; ``clamp=True`` optionally restricts it to that range.
    """
    dest, origin = np.broadcast_arrays(np.asarray(gdp_dest, dtype=float),
                                       np.asarray(gdp_origin, dtype=float))
    bad = np.flatnonzero((dest <= 0) | (origin <= 0))
    if bad.size:
        raise ValueError(f"GDP per capita must be positive, got "
                         f"({dest.flat[bad[0]]}, {origin.flat[bad[0]]})")
    value = np.where(dest > origin, (dest - origin) / origin, -(origin - dest) / dest)
    return np.clip(value, -1.0, 1.0) if clamp else value


def gdp_norm(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Min-max normalize origin GDP levels over the whole simulation scope.

    All-identical inputs normalize to 0 with a warning.
    """
    arr = np.asarray(values, dtype=float)
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        log.warning("gdp_norm: all %d values identical (%s); normalizing to 0", arr.size, lo)
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)
