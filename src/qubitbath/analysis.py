"""Trajectory post-processing: plateaus, revivals and qubit-count scaling fits.

Two fixed fit families describe how the saturated entanglement E_N changes
with the qubit count N:

* ``exp_decay_shift``:  E_N = a * exp(-c (N - 3)) + b^2
* ``reciprocal_exp``:   E_N = 1 / (a * exp(-c N) + b^2), asymptote 1/b^2

Both are solved by damped Gauss-Newton (Levenberg-Marquardt style) with a
finite-difference Jacobian and a small multi-start grid; the decay-shift
model is ill-conditioned when b is near 0, which the multi-start plus
damping handles deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "FitResult",
    "SaturationReport",
    "RevivalEvent",
    "RevivalReport",
    "detect_saturation",
    "detect_revival",
    "fit_exp_decay_shift",
    "fit_reciprocal_exp",
    "extrapolate",
    "vanishing_crossing",
]

EXP_DECAY_SHIFT = "exp_decay_shift"
RECIPROCAL_EXP = "reciprocal_exp"

MAX_FIT_ITERATIONS = 200
STEP_TOLERANCE = 1e-10
SETTLE_WINDOW = 10
SETTLED_COST = 1e-5


@dataclass(frozen=True)
class FitResult:
    """Converged parameters of one of the two scaling models; b is >= 0."""

    model: str
    a: float
    b: float
    c: float
    residual: float
    n_points: int
    converged: bool

    def asymptote(self) -> float:
        """Large-N limit of the fitted model."""
        if self.model == RECIPROCAL_EXP:
            return 1.0 / self.b**2
        return self.b**2


@dataclass(frozen=True)
class SaturationReport:
    saturated: bool
    value: float
    window: tuple
    slope_bound: float


@dataclass(frozen=True)
class RevivalEvent:
    t_collapse: float
    t_revival: float
    peak_value: float


@dataclass(frozen=True)
class RevivalReport:
    events: tuple
    threshold: float


def detect_saturation(
    times: Sequence[float],
    values: Sequence[float],
    window: float = 10.0,
    tol: float = 1e-4,
) -> SaturationReport:
    """Decide whether the trailing window of the samples is a plateau.

    Saturated when every finite-difference slope inside the trailing window
    of the given duration stays within ``tol`` in magnitude (which bounds the
    least-squares slope as well); the plateau value is the mean over that
    window.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape or t.size < 3:
        raise ValueError("need matching 1-d time/value arrays with >= 3 samples")
    span = t[-1] - t[0]
    if span < 2 * window:
        raise ValueError(f"samples span {span}, need at least twice the window {window}")
    mask = t >= t[-1] - window
    tw, vw = t[mask], v[mask]
    if tw.size < 2:
        raise ValueError("window contains fewer than 2 samples")
    slopes = np.diff(vw) / np.diff(tw)
    slope_bound = float(np.abs(slopes).max())
    saturated = slope_bound <= tol
    return SaturationReport(
        saturated=saturated,
        value=float(vw.mean()),
        window=(float(tw[0]), float(tw[-1])),
        slope_bound=slope_bound,
    )


def detect_revival(
    times: Sequence[float],
    values: Sequence[float],
    threshold: float = 1e-3,
) -> RevivalReport:
    """Find collapse-revival events in an entanglement time series.

    A collapse starts when the signal drops below ``threshold`` after having
    been above it, and the matching revival is the first later sample back
    at or above the threshold; ``peak_value`` is the largest value reached
    before the signal next collapses (or the series ends).
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size == 0 or t.shape != v.shape:
        raise ValueError("need matching non-empty time/value arrays")
    events = []
    above = v[0] >= threshold
    t_collapse = None
    peak = None
    for i in range(1, t.size):
        if above and v[i] < threshold:
            above = False
            t_collapse = float(t[i])
            if peak is not None:
                events[-1] = RevivalEvent(events[-1].t_collapse, events[-1].t_revival, peak)
                peak = None
        elif not above and v[i] >= threshold:
            above = True
            if t_collapse is not None:
                events.append(RevivalEvent(t_collapse, float(t[i]), float(v[i])))
                peak = float(v[i])
        elif above and peak is not None and v[i] > peak:
            peak = float(v[i])
    if peak is not None and events:
        events[-1] = RevivalEvent(events[-1].t_collapse, events[-1].t_revival, peak)
    return RevivalReport(events=tuple(events), threshold=threshold)


def _damped_gauss_newton(
    residual: Callable[[np.ndarray], np.ndarray],
    p0: np.ndarray,
) -> tuple:
    """Levenberg-Marquardt iteration with forward-difference Jacobian.

    Returns (params, rms, converged).  The iteration terminates when the
    parameter step falls below STEP_TOLERANCE, when the cost stagnates, when
    no damping level yields an improving step, or after MAX_FIT_ITERATIONS.
    The first two count as converged, and the cap only where the cost had
    settled: no step of the last SETTLE_WINDOW lowered it by more than
    SETTLED_COST of itself.  Along a valley with no minimum (a and c of the
    reciprocal model growing together) the cost keeps falling slowly while
    the parameters run off, and the cap stops them there.
    """
    p = np.asarray(p0, dtype=float).copy()
    r = residual(p)
    cost = float(r @ r)
    mu = 1e-3
    converged = True
    gains = []  # relative cost decrease of each accepted step
    for _ in range(MAX_FIT_ITERATIONS):
        jac = np.empty((r.size, p.size))
        for j in range(p.size):
            dp = 1e-7 * max(abs(p[j]), 1e-3)
            shifted = p.copy()
            shifted[j] += dp
            jac[:, j] = (residual(shifted) - r) / dp
        jtj = jac.T @ jac
        jtr = jac.T @ r

        done = False
        accepted = False
        for _ in range(60):
            damped = jtj + mu * np.diag(np.clip(np.diag(jtj), 1e-12, None))
            try:
                delta = np.linalg.solve(damped, -jtr)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            if float(np.linalg.norm(delta)) < STEP_TOLERANCE:
                done = True  # even the damped model wants to stand still
                break
            candidate = p + delta
            r_new = residual(candidate)
            with np.errstate(over="ignore", invalid="ignore"):
                cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                improvement = cost - cost_new
                p, r, cost = candidate, r_new, cost_new
                mu = max(mu * 0.3, 1e-12)
                accepted = True
                if improvement <= 1e-13 * max(cost, 1e-30):
                    done = True  # cost stagnated along a flat direction
                gains.append(improvement / max(cost, 1e-30))
                break
            mu *= 10.0
        if done:
            break
        if not accepted:
            # no damping level produced an improving step although the
            # proposed step was not negligible: the solver is stuck
            converged = False
            break
    else:
        converged = max(gains[-SETTLE_WINDOW:]) <= SETTLED_COST
    rms = math.sqrt(cost / r.size)
    return p, rms, converged


def _points_to_arrays(points) -> tuple:
    pts = sorted((float(n), float(e)) for n, e in points)
    n_vals = np.array([p[0] for p in pts])
    e_vals = np.array([p[1] for p in pts])
    if np.unique(n_vals).size != n_vals.size:
        raise ValueError("qubit counts must be distinct")
    if n_vals.size < 4:
        raise ValueError("need at least 4 points to fit the three-parameter model")
    return n_vals, e_vals


# E_N of each model at parameters (a, b, c), elementwise in N
_MODELS = {
    EXP_DECAY_SHIFT: lambda a, b, c, n: a * np.exp(np.clip(-c * (n - 3.0), -700.0, 700.0)) + b * b,
    RECIPROCAL_EXP: lambda a, b, c, n: 1.0 / (a * np.exp(np.clip(-c * n, -700.0, 700.0)) + b * b),
}


def _fit(model: str, n_vals: np.ndarray, e_vals: np.ndarray, starts) -> FitResult:
    """Damped Gauss-Newton from each start; the lowest residual wins and reports its flag.

    It wins even over a start that converged at a higher residual: where the
    lowest residual is only approached with the parameters running off, the
    model has no optimum, and the fit says so by being unconverged.
    """
    formula = _MODELS[model]
    best = None
    for p0 in starts:
        p, rms, ok = _damped_gauss_newton(lambda p: formula(*p, n_vals) - e_vals, np.array(p0))
        if best is None or rms < best[1]:
            best = (p, rms, ok)
    p, rms, ok = best
    return FitResult(
        model=model,
        a=float(p[0]),
        b=abs(float(p[1])),
        c=float(p[2]),
        residual=rms,
        n_points=n_vals.size,
        converged=ok,
    )


def fit_exp_decay_shift(points) -> FitResult:
    """Fit E_N = a exp(-c (N - 3)) + b^2 to (N, E_N) pairs.

    Multi-start over c in {0.1, 0.5, 1.0} and b in {0, 0.5}, with a seeded
    from the first data point.
    """
    n_vals, e_vals = _points_to_arrays(points)
    starts = [(e_vals[0], b0, c0) for c0 in (0.1, 0.5, 1.0) for b0 in (0.0, 0.5)]
    return _fit(EXP_DECAY_SHIFT, n_vals, e_vals, starts)


def fit_reciprocal_exp(points) -> FitResult:
    """Fit E_N = 1 / (a exp(-c N) + b^2); requires strictly positive E_N."""
    n_vals, e_vals = _points_to_arrays(points)
    if np.any(e_vals <= 0):
        raise ValueError("reciprocal model needs strictly positive values")
    # b seeded from the large-N samples (asymptote 1/b^2), a from the first point
    b_seed = 1.0 / math.sqrt(e_vals[-1])
    starts = [
        (max((1.0 / e_vals[0] - b0 * b0), 1e-3) * math.exp(c0 * n_vals[0]), b0, c0)
        for c0 in (0.1, 0.5, 1.0)
        for b0 in (b_seed, 0.5 * b_seed)
    ]
    return _fit(RECIPROCAL_EXP, n_vals, e_vals, starts)


def extrapolate(fit: FitResult, n: float) -> float:
    """Evaluate the fitted model at qubit count n."""
    if fit.model not in _MODELS:
        raise ValueError(f"unknown fit model {fit.model!r}")
    return float(_MODELS[fit.model](fit.a, fit.b, fit.c, n))


def vanishing_crossing(fit: FitResult, threshold: float = 1e-3) -> Optional[int]:
    """Smallest integer N >= 3 where the decaying model drops below threshold.

    Only meaningful for the exp_decay_shift model; returns None when the
    model never falls below the threshold (offset b^2 >= threshold or the
    model is not decaying).
    """
    if fit.model != EXP_DECAY_SHIFT:
        raise ValueError("vanishing_crossing applies to the exp_decay_shift model")
    if fit.b**2 >= threshold or fit.a <= 0 or fit.c <= 0:
        return None
    crossing = 3.0 + math.log(fit.a / (threshold - fit.b**2)) / fit.c
    return max(3, math.ceil(crossing))
