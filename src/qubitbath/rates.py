"""Time-dependent decay-rate models, their integrals and divisibility checks.

All times are dimensionless (t = omega_0 * t_phys).  The bath rate models:

* ``OhmicZeroTempRate``: zero-temperature dephasing rate of an exponentially
  cut-off power-law spectral density omega^s / omega_c^(s-1) * exp(-omega/omega_c);
  gamma(t) = omega_c * [1 + (omega_c t)^2]^(-s/2) * Gamma(s) * sin(s * arctan(omega_c t)).
  For s > 2 the rate goes negative on time windows, which is the memory effect
  the rest of the package is about.
* ``SinusoidalRate``: gamma(t) = alpha * sin(t).
* ``ConstantRate``: gamma(t) = gamma_0 >= 0.

Each model is a frozen dataclass whose ``kind`` field, which is not an argument,
tags its JSON record ``dataclasses.asdict(model)``.

The divisibility classifier decides, on a sampled time grid, whether the
three-axis local channel generated by (gamma_x, gamma_y, gamma_z) is
CP-divisible (all rates nonnegative), only P-divisible (all pairwise rate
sums nonnegative) or not even P-divisible.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

__all__ = [
    "ConstantRate",
    "SinusoidalRate",
    "OhmicZeroTempRate",
    "DecayRateModel",
    "ZERO_RATE",
    "DivisibilityClass",
    "DivisibilityVerdict",
    "classify_divisibility",
]

_SIGN_TOL = -1e-12


@dataclass(frozen=True)
class ConstantRate:
    """gamma(t) = gamma0 with gamma0 >= 0."""

    kind: str = field(default="constant", init=False)
    gamma0: float

    def __post_init__(self):
        if self.gamma0 < 0:
            raise ValueError("constant rate must be nonnegative")

    def rate(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, self.gamma0)
        return out if out.ndim else float(out)

    def integrated(self, t):
        t = np.asarray(t, dtype=float)
        out = self.gamma0 * t
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class SinusoidalRate:
    """gamma(t) = alpha * sin(t); sign changes are the point of this model."""

    kind: str = field(default="sinusoidal", init=False)
    alpha: float

    def rate(self, t):
        out = self.alpha * np.sin(np.asarray(t, dtype=float))
        return out if out.ndim else float(out)

    def integrated(self, t):
        t = np.asarray(t, dtype=float)
        out = self.alpha * (1.0 - np.cos(t))
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class OhmicZeroTempRate:
    """Zero-temperature rate of the exponentially cut-off omega^s bath."""

    kind: str = field(default="ohmic_t0", init=False)
    s: float
    omega_c: float = 1.0

    def __post_init__(self):
        if self.s <= 0 or self.omega_c <= 0:
            raise ValueError("OhmicZeroTempRate requires s > 0 and omega_c > 0")
        try:  # Gamma(s) overflows above s ~ 171.6
            finite = math.isfinite(math.gamma(self.s))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"OhmicZeroTempRate requires a finite Gamma(s), got s = {self.s}")
        # ``integrated`` takes Gamma(s - 1) for s != 1; below s ~ 1.1e-16, s - 1 rounds to -1.0
        if self.s - 1.0 == -1.0:
            raise ValueError(f"OhmicZeroTempRate requires a defined Gamma(s - 1), got s = {self.s}")

    def rate(self, t):
        """gamma(t); vanishes at t = 0 and is finite everywhere."""
        s, omega_c = self.s, self.omega_c
        x = omega_c * np.asarray(t, dtype=float)
        val = omega_c * (1.0 + x**2) ** (-s / 2.0) * math.gamma(s) * np.sin(s * np.arctan(x))
        return val if val.ndim else float(val)

    def integrated(self, t):
        """Closed form of integral_0^t gamma, valid for all s > 0."""
        x = self.omega_c * np.asarray(t, dtype=float)
        if self.s == 1.0:
            out = 0.5 * np.log1p(x**2)
            return out if out.ndim else float(out)
        e = self.s - 1.0
        half_log = 0.5 * np.log1p(x**2)
        # 1 - cos(e * arctan x) * (1+x^2)^(-e/2), written to avoid cancellation
        bracket = -np.expm1(-e * half_log) + np.exp(-e * half_log) * 2.0 * np.sin(
            e * np.arctan(x) / 2.0
        ) ** 2
        out = math.gamma(e) * bracket
        return out if out.ndim else float(out)

    def integrated_infinity(self) -> float:
        """Limit of the integral as t -> inf; finite only for s > 1."""
        if self.s <= 1.0:
            return math.inf
        return math.gamma(self.s - 1.0)


DecayRateModel = Union[ConstantRate, SinusoidalRate, OhmicZeroTempRate]

ZERO_RATE = ConstantRate(0.0)


class DivisibilityClass(enum.Enum):
    CP_DIVISIBLE = "CP-divisible"
    P_DIVISIBLE_ONLY = "P-divisible-only"
    NON_P_DIVISIBLE = "non-P-divisible"


@dataclass(frozen=True)
class DivisibilityVerdict:
    """Outcome of the grid-sampled divisibility test.

    ``violation_windows`` lists the (t_start, t_end) intervals on which the
    deciding inequality fails: the pairwise-sum conditions for a
    non-P-divisible channel, the single-rate conditions for a channel that
    is P-divisible but not CP-divisible.  ``min_margin`` is the smallest
    value attained by the tightest constraint of the deciding family.
    """

    classification: DivisibilityClass
    violation_windows: tuple
    min_margin: float


def _windows_below(grid: np.ndarray, values: np.ndarray, tol: float) -> tuple:
    """Contiguous grid intervals on which values < tol."""
    mask = values < tol
    windows = []
    start = None
    for i, bad in enumerate(mask):
        if bad and start is None:
            start = i
        elif not bad and start is not None:
            windows.append((float(grid[start]), float(grid[i - 1])))
            start = None
    if start is not None:
        windows.append((float(grid[start]), float(grid[-1])))
    return tuple(windows)


def classify_divisibility(
    rate_x: DecayRateModel,
    rate_y: DecayRateModel,
    rate_z: DecayRateModel,
    grid: Sequence[float],
) -> DivisibilityVerdict:
    """Classify the three-axis channel on a sampled time grid.

    CP-divisible iff all three rates stay >= 0 on the grid; P-divisible iff
    all three pairwise sums do.  Values above -1e-12 count as nonnegative so
    that roundoff does not flip the verdict.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise ValueError("divisibility grid needs at least 2 points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("divisibility grid must be strictly increasing")

    gx = np.asarray(rate_x.rate(grid), dtype=float)
    gy = np.asarray(rate_y.rate(grid), dtype=float)
    gz = np.asarray(rate_z.rate(grid), dtype=float)

    singles = np.stack([gx, gy, gz])
    pair_sums = np.stack([gx + gy, gy + gz, gz + gx])
    cp_margin = float(singles.min())
    p_margin = float(pair_sums.min())

    if cp_margin >= _SIGN_TOL:
        return DivisibilityVerdict(DivisibilityClass.CP_DIVISIBLE, (), cp_margin)
    if p_margin >= _SIGN_TOL:
        windows = _windows_below(grid, singles.min(axis=0), _SIGN_TOL)
        return DivisibilityVerdict(DivisibilityClass.P_DIVISIBLE_ONLY, windows, p_margin)
    windows = _windows_below(grid, pair_sums.min(axis=0), _SIGN_TOL)
    return DivisibilityVerdict(DivisibilityClass.NON_P_DIVISIBLE, windows, p_margin)
