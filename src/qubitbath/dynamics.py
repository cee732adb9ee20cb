"""Time-local master-equation propagation for local dephasing and Pauli noise.

The generator acting on an n-qubit density matrix is

    d(rho)/dt = kappa * sum_sites sum_axes (gamma_axis(t) / omega_0)
                * (sigma_axis rho sigma_axis - rho),

with no Hamiltonian commutator (interaction picture).  ``kappa`` selects the
prefactor convention: 1 places the bare rate on every site, 1/4 places a
quarter of it there; both are supported and every output records the choice.

Propagation is classic fixed-step fourth-order Runge-Kutta with rates
evaluated at the stage times.  Both noise kinds have generators that are
diagonal in the Pauli-string basis: a string with letter counts (nx, ny, nz)
obeys the scalar ODE y' = -(2 kappa / omega_0) [gamma_x (ny + nz) +
gamma_y (nz + nx) + gamma_z (nx + ny)] y.  The one stepper therefore
advances one RK4 amplification factor per letter-count class (the Hamming
distance under pure dephasing) that rho0's pattern uses, with rates evaluated
a block of steps at a time (max(128, 15360 // classes) steps: 960 for fig5
GHZ n=7's 16 classes, 7680 for GHZ or W under dephasing).  A block's factor
table (steps x classes) holds the class factors after each of its steps: the
running product of its RK4 growth rows from the factors at its first step
(the carry, all ones for the first block).  It comes from a memo keyed by
(active rate models, h, first step, end step, class coefficient tuples: -2
kappa anti_a / omega_0 per active axis, carry), and each model's three
stage-rate rows from a memo keyed by (model, h, first step, end step); a
record reads its factors as one row of the table.  A class's factors depend
on n only through its coefficients, so a sweep's cells of one s evaluate the
rate only once, and W's cells of one s share one table at every n.  Both
memos hold 32 entries (15 MiB in all at worst up to 120 classes).  One
flip-and-sign transform per site puts the Pauli coefficients where popcounts
of each entry's row and column give its class, counted bit by bit on the
pattern's entries; it is skipped when z is the only active axis.  Full-matrix RK4 is
exactly RK4 on these factors; the test suite's dense RK4 stepper, which
materialises the right-hand side, is the independent reference
(``tests/reference.py``).

The stepper starts from a ``PureState`` psi, rho0 = |psi><psi|, and reads
rho(t)'s fixed pattern and rho0's values on it from psi's support, so no 4^n
array is built.  The pattern, rho0's values on it, the classes and one
``states.BlockPlan`` per cut (on the partial-transposed pattern) and for rho
itself (positivity) depend on psi and the active axes alone, not on the rates:
they are built once and reused by the next run with the same n, support,
values on it and axes, so a sweep's cells of one n share them.  A plan holds
the components of the nodes the pattern touches (any other node is an exact
zero eigenvalue), grouped by size, and where each value goes in its group's
stack.  A record costs one evaluation of rho(t) on the pattern plus one
stacked ``eigvalsh`` per size group of 2 x 2 blocks or larger (a 1 x 1 block
is its value's real part), and a positivity point reads |Tr rho - 1| off the
diagonal entries (``max_trace_drift``); the full matrix is rebuilt only for
states that ``record_states`` keeps.  The record at t = 0 is rho0's, the same
for every run with the pattern: the pattern holds it, by the cuts and whether
positivity is due, so a sweep's cells of one n solve rho0 once.

One exact channel, ``_exact_channel``, gives the state of either noise kind at
time t from the rate integrals, on values laid out offset by offset as the
pattern is; when Lambda_x = Lambda_y = 0, as under dephasing, it damps each
offset by its Hamming weight.  ``analytic_state_at`` applies it to every offset
of a full matrix, and the oracle for the integrator (``oracle_deviation``) to
rho0 on psi's offsets, so the oracle builds no 2^n x 2^n array either.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .entanglement import (
    Bipartition,
    log2_trace_norm,
    log_negativity,  # unused here; perfbench/tracing.py patches it (its traced selftest needs it)
    partial_transpose_indices,
)
from .errors import IntegrationError
from .rates import ZERO_RATE, ConstantRate, DecayRateModel
from .states import BlockPlan, DensityMatrix, PureState

__all__ = [
    "DEPHASING",
    "PAULI",
    "SUPPORTED_KAPPAS",
    "NoiseSpec",
    "IntegratorOptions",
    "Trajectory",
    "evolve",
    "analytic_state_at",
    "oracle_deviation",
]

DEPHASING = "dephasing"
PAULI = "pauli"
SUPPORTED_KAPPAS = (1.0, 0.25)

EIGENVALUE_ERROR_FLOOR = -1e-6


def _is_zero_rate(model: DecayRateModel) -> bool:
    return isinstance(model, ConstantRate) and model.gamma0 == 0.0


def _active_rates(spec: NoiseSpec) -> dict:
    """Rate model by axis 0, 1, 2 (x, y, z) if not identically zero; z's when none is."""
    models = (spec.rate_x, spec.rate_y, spec.rate_z)
    return {axis: m for axis, m in enumerate(models) if not _is_zero_rate(m)} or {2: models[2]}


@dataclass(frozen=True)
class NoiseSpec:
    """Channel kind plus per-axis rate models and prefactor conventions."""

    kind: str
    rate_z: DecayRateModel
    rate_x: DecayRateModel = ZERO_RATE
    rate_y: DecayRateModel = ZERO_RATE
    omega0: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        if self.kind not in (DEPHASING, PAULI):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == DEPHASING and not (
            _is_zero_rate(self.rate_x) and _is_zero_rate(self.rate_y)
        ):
            raise ValueError("dephasing noise must have identically zero x/y rates")
        if self.kappa not in SUPPORTED_KAPPAS:
            raise ValueError(f"kappa must be one of {SUPPORTED_KAPPAS}, got {self.kappa}")
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")


@dataclass(frozen=True)
class IntegratorOptions:
    """Fixed-step RK4 settings and recording cadence.

    ``observable_every`` defaults to every step when ``evolve`` has cuts, else
    to t_max; full states are recorded (and positivity is spot-checked) every
    ``sample_every`` time units.
    """

    step: float = 0.01
    observable_every: Optional[float] = None
    sample_every: float = 1.0
    record_states: bool = True

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.sample_every <= 0:
            raise ValueError("sample_every must be positive")
        if self.observable_every is not None and self.observable_every <= 0:
            raise ValueError("observable_every must be positive")


@dataclass
class Trajectory:
    """Recorded time grid, observables and (thinned) states of one run."""

    times: np.ndarray
    observables: dict
    state_times: np.ndarray
    states: list
    metadata: dict


def _axis_sign(axis: int, ndim: int) -> np.ndarray:
    """(1, -1) along one axis of an ndim-dimensional (2,) * ndim array, 1 along the others."""
    return np.array([1.0, -1.0]).reshape((1,) * axis + (2,) + (1,) * (ndim - 1 - axis))


def _popcount(index: np.ndarray, n: int) -> np.ndarray:
    """The number of set bits among the low n bits of each entry."""
    return sum((index >> bit) & 1 for bit in range(n))


def _site_transform(values: np.ndarray, signs: list, inverse: bool) -> np.ndarray:
    """Per site, t + s * f(t), or t - s * f(t) if ``inverse``, on values laid out offset by offset.

    Value o * 2^n + a stands for the matrix entry (a, a ^ o) of offset o.  f flips the
    site's bit of a, which flips that entry's row and column bits together, and s = (1, -1)
    on the row bit: ``signs[i]`` is ``_axis_sign(i, n)``.  Forward, a site's (row, column)
    bits 00, 01, 10, 11 then hold Tr(P rho) for P = I, X, Y, Z times the phase 1, 1, i, -1;
    the inverse gives 2^n times the inverse map.
    """
    stack = values.reshape((-1,) + (2,) * len(signs))
    for i, sign in enumerate(signs):
        flipped = sign * np.flip(stack, axis=i + 1)
        stack = stack - flipped if inverse else stack + flipped
    return stack.ravel()


# A rate block's growth rows come from one rate call per axis and RK4 stage.  Its table
# holds up to _BLOCK_ENTRIES entries (steps x classes), fig5 GHZ n=7's 960 x 16: 1024 x 120
# entries raised a run's peak RSS by 7%, 128 x 120 by under 1%.  A block never has fewer
# than _BLOCK_STEPS steps, so runs with more than 120 classes keep 128-step blocks.
_BLOCK_ENTRIES = 128 * 120
_BLOCK_STEPS = 128

# Stage rates and factor tables of the rate blocks that runs have stepped, by their
# arguments, each memo dropping its least recently used entry first.  The models are
# frozen dataclasses and a class's factors depend on n only through its coefficients and
# the carry, so every sweep cell of one s shares the block's stage rates, and cells whose
# classes have the same coefficients (W's at every n) share its table.  A table is the
# block's running product, so a record reads its factors as one row, and the next block's
# carry is the last row, which the stepper holds and passes on itself.
# Worst case: a block has at most _BLOCK_ENTRIES = 15360 steps (one class), so one model's
# stage rows are at most 3 x 15360 float64s = 360 KiB, and a table at most
# max(_BLOCK_ENTRIES, _BLOCK_STEPS x classes) float64s (and the carry row, which the
# table's base array holds above it): 120 KiB up to 120 classes, 1 KiB per class above.
# The memos hold at most 32 x (360 + 120) KiB = 15 MiB, plus 32 KiB per class above 120.
# A paper sweep needs 12 stage-row entries (one 3000-step block per s) of 70 KiB each and
# 3000 x 2 tables of 47 KiB: one per s for fig4's W, one per cell for fig3's GHZ (its
# d = n class).
_GROWTH_ENTRIES = 32


@functools.lru_cache(maxsize=_GROWTH_ENTRIES)
def _stage_rates(model: DecayRateModel, h: float, j: int, stop: int) -> tuple:
    """One model's read-only rates at the stage times t, t + h/2 and t + h of steps j..stop-1."""
    t = np.arange(j, stop) * h
    rows = (model.rate(t), model.rate(t + 0.5 * h), model.rate(t + h))
    for row in rows:
        row.setflags(write=False)
    return rows


@functools.lru_cache(maxsize=_GROWTH_ENTRIES)
def _factor_table(
    models: tuple, h: float, j: int, stop: int, coeffs: tuple, carry: tuple
) -> np.ndarray:
    """Read-only class factors after each of steps j..stop-1, from ``carry`` before step j.

    One row per step and one column per class: the running product of the block's RK4
    growth rows.  An accumulation down axis 0 multiplies row by row, as one step at a time
    does, so every row is bitwise the factors that stepping from ``carry`` gives.
    """
    growth = _rk4_growth([_stage_rates(model, h, j, stop) for model in models], h, coeffs)
    table = np.multiply.accumulate(np.vstack((carry, growth)), axis=0)[1:]
    table.setflags(write=False)
    return table


def _rk4_growth(stages: list, h: float, coeffs: tuple) -> np.ndarray:
    """Read-only one-step RK4 growth over a block, one column per coefficient tuple.

    ``stages`` holds each active model's rates at the stage times t, t + h/2 and t + h of
    the block's steps; a class with coefficients c_a decays at sum_a rate_a * c_a.  Each
    class's steps are computed as one contiguous row, then copied into a row per step.
    """
    neg = np.array(coeffs).T  # the classes' coefficients, one row per active axis
    a1, am, ah = (
        sum(terms[1:], terms[0])
        for terms in (
            [np.multiply.outer(c, rate) for c, rate in zip(neg, rates)] for rates in zip(*stages)
        )
    )
    a2 = am * (1.0 + 0.5 * h * a1)
    a3 = am * (1.0 + 0.5 * h * a2)
    a4 = ah * (1.0 + h * a3)
    growth = (1.0 + (h / 6.0) * (a1 + 2.0 * (a2 + a3) + a4)).T.copy()
    growth.setflags(write=False)
    return growth


# Peak bytes of a class-engine run, charged above what tracemalloc measured with numpy 2.4:
# per pattern entry for the stepper and one plan's build (92 at full support, n = 8), per
# entry and plan kept (16), per basis index (16.4 for a cold fig3 or fig4 cell at n = 20:
# psi, whose norm check allocates none) and per factor-table entry (66-76 for a cold block:
# the peak is in the RK4 stages, and the running product's stack and output stay below it).
_ENTRY_BYTES, _PLAN_ENTRY_BYTES, _INDEX_BYTES, _GROWTH_BYTES = 112, 16, 24, 128


class _ClassPattern:
    """What a class-engine run needs from psi and the active axes alone (``_ClassStepper``).

    It holds rho(t)'s pattern (``rows``, ``cols``), rho0's coefficients on it, whether the
    letter transform runs and its per-site signs, each coefficient's class, each class's
    anticommuting-letter counts per active axis, and the block plans by cut, each built on
    first use.  No rate model enters, so runs that differ only in their rates share one
    pattern (``_class_pattern``).  Nor does any enter rho0's record: at step 0 every class
    factor is 1, so ``initial`` holds that record (E per cut, the minimum eigenvalue and the
    trace drift) by the cuts and whether positivity is due, and a sweep's cells of one n
    solve rho0 once.
    """

    def __init__(self, psi: PureState, support: np.ndarray, axes: tuple):
        n, d, amplitudes = psi.n, psi.dim, psi.amplitudes
        self.transform = axes != (2,)
        self.signs = [_axis_sign(i, n) for i in range(n)] if self.transform else []
        rows, cols = np.repeat(support, len(support)), np.tile(support, len(support))
        if self.transform:  # pattern-ordered offset by offset
            offsets = np.unique(rows ^ cols)
            rows = np.tile(np.arange(d), len(offsets))
            cols = rows ^ np.repeat(offsets, d)
        # rho0 on the pattern; the product is np.outer's arithmetic
        coeffs = amplitudes[rows] * amplitudes[cols].conj()
        if self.transform:
            coeffs = 0.5**n * _site_transform(coeffs, self.signs, inverse=False)
        self.rows, self.cols, self.coeffs = rows, cols, coeffs

        letters = (rows, cols, rows ^ cols)  # anticommuting with sigma_x, sigma_y, sigma_z
        # equal counts on every active axis share a class
        code = sum((n + 1) ** j * _popcount(letters[axis], n) for j, axis in enumerate(axes))
        codes, self.coeff_class = np.unique(code, return_inverse=True)
        self.anti = [codes // (n + 1) ** j % (n + 1) for j in range(len(axes))]
        self.dim, self.classes, self.plans, self.initial = d, len(codes), {}, {}

    def plan(self, cut: Optional[Bipartition]) -> BlockPlan:
        """Block plan of rho (cut None) or of its partial transpose, built on first use."""
        if cut not in self.plans:
            rows, cols = self.rows, self.cols
            if cut is not None:
                rows, cols = partial_transpose_indices(rows, cols, cut)
            self.plans[cut] = BlockPlan(rows, cols, self.dim)
        return self.plans[cut]


# The previous run's pattern by its key, so at most one pattern is held
_last_pattern: dict = {}


def _class_pattern(psi: PureState, axes: tuple) -> _ClassPattern:
    """The previous run's pattern if n, psi's support and values there and the axes match."""
    support = np.flatnonzero(psi.amplitudes)
    key = (psi.n, support.tobytes(), psi.amplitudes[support].tobytes(), axes)
    if key not in _last_pattern:
        _last_pattern.clear()  # before the build, so two patterns are never held at once
        _last_pattern[key] = _ClassPattern(psi, support, axes)
    return _last_pattern[key]


class _ClassStepper:
    """One RK4 amplification factor per Pauli-string decay class (module docs).

    Only axes with a rate not identically zero are evaluated.  Letters anticommuting with
    sigma_x, sigma_y, sigma_z sit where the row bit is 1, the column bit is 1 and the bits
    differ, so an entry's counts are popcounts of its row, its column and their XOR.  The
    classes are the distinct count codes on the pattern, so a run steps only the classes
    psi's pattern uses.

    rho(t) is only ever nonzero on a fixed pattern (``rows``, ``cols``), where its values
    are linear in the class factors.  With z alone that is rho0's, psi's support times
    itself, and the letter transform is skipped: it keeps every entry's Hamming distance.
    Otherwise the inverse transform sends a coefficient at (a, b) to (a ^ m, b ^ m) with
    sign (-1)^|m & a|, for every site mask m; it keeps the offset a ^ b, so the pattern is
    every entry of each offset rho0 uses, and per offset both transforms are signed
    Walsh-Hadamard transforms of 2^n values.  rho0 on the pattern is
    psi[rows] * conj(psi[cols]), so no 2^n x 2^n array is built.

    All of that, and the block plans, is the ``_ClassPattern`` of psi and the active axes,
    reused from the previous run when both match; the stepper holds the run's own part:
    the active rate models, each class's coefficient tuple, the rate blocks and the
    factors.  Each block's factor table comes from the memo (``_factor_table``), shared
    by every run with the same rate models, time grid, class coefficients and carry.

    Hermiticity is not measured.  The generator maps Hermitian matrices to Hermitian ones
    and every class factor is real, so rho(t) is Hermitian up to the letter transform's
    roundoff, and exactly so under z alone, where the entries at (a, b) and (b, a) are
    conjugate products damped by one factor.  A kept state's ``DensityMatrix`` checks
    |rho - rho^dag| <= 1e-12 on construction.
    """

    engine = "rk4-pauli-classes"
    max_trace_drift = 0.0  # raised by ``observe``, which reads the trace

    def __init__(self, psi: PureState, spec: NoiseSpec, h: float, n_steps: int):
        self.h, self.n_steps = h, n_steps
        active = _active_rates(spec)
        self.pattern = _class_pattern(psi, tuple(active))
        self.classes = self.pattern.classes
        self.models = tuple(active.values())
        scale = 2.0 * spec.kappa / spec.omega0
        # each class's decay coefficients, -2 kappa anti_a / omega0 per active axis
        self.coeffs = tuple(zip(*((-(scale * row)).tolist() for row in self.pattern.anti)))
        self.block_steps = max(_BLOCK_STEPS, _BLOCK_ENTRIES // self.classes)
        self.step, self.factors = 0, np.ones(self.classes, dtype=float)

    def advance(self, k0: int, k: int) -> None:
        h, block = self.h, self.block_steps
        j = k0
        while j < k:
            start = j - j % block
            if j == start:  # the next block's factor rows, up to t_max, from the factors now
                end = min(j + block, self.n_steps)
                carry = tuple(self.factors.tolist())
                self.table = _factor_table(self.models, h, j, end, self.coeffs, carry)
            j = min(k, start + block)
            self.factors = self.table[j - start - 1]
        self.step = k

    def values(self) -> np.ndarray:
        """rho(t) at the pattern's (rows, cols)."""
        pattern = self.pattern
        coeffs = pattern.coeffs * self.factors[pattern.coeff_class]
        if pattern.transform:
            return _site_transform(coeffs, pattern.signs, inverse=True)
        return coeffs

    def current(self) -> np.ndarray:
        pattern = self.pattern
        mat = np.zeros((pattern.dim, pattern.dim), dtype=complex)
        mat[pattern.rows, pattern.cols] = self.values()
        return mat

    def observe(self, cuts, positivity: bool) -> tuple:
        """E per cut and, if asked, the minimum eigenvalue of rho, from one block plan each.

        At step 0 the record is rho0's, which the pattern holds once solved (``initial``).
        """
        if self.step == 0:
            key = (tuple(cuts), positivity)
            if key not in self.pattern.initial:
                self.pattern.initial[key] = self._record(cuts, positivity)
            values, lam_min, drift = self.pattern.initial[key]
        else:
            values, lam_min, drift = self._record(cuts, positivity)
        self.max_trace_drift = max(self.max_trace_drift, drift)
        return list(values), lam_min

    def _record(self, cuts, positivity: bool) -> tuple:
        """(E per cut, the minimum eigenvalue or None, |Tr rho - 1| or 0.0) of rho now."""
        pattern, values, lam_min, drift = self.pattern, self.values(), None, 0.0
        if positivity:  # an untouched node is an exact zero eigenvalue
            eigs = pattern.plan(None).eigvalsh(values)
            lam_min = float(min(eigs.min(), 0.0) if pattern.plan(None).untouched else eigs.min())
            drift = float(abs(values[pattern.rows == pattern.cols].sum() - 1.0))
        negativities = tuple(log2_trace_norm(pattern.plan(cut).eigvalsh(values)) for cut in cuts)
        return negativities, lam_min, drift

    def blocks(self, cuts) -> dict:
        """[size, count] of each plan's stacked groups, by cut label and "rho" (positivity)."""
        plans = {cut.label: self.pattern.plan(cut) for cut in cuts}
        plans["rho"] = self.pattern.plan(None)
        return {
            label: [[size, count] for size, count, *_ in plan.groups]
            for label, plan in plans.items()
        }


def class_engine_bytes(psi: PureState, spec: NoiseSpec, cuts: int) -> float:
    """Upper estimate of the peak bytes of a class-engine run from psi with ``cuts`` cuts.

    With S psi's support, ``_ClassStepper``'s pattern is S x S under z alone, its blocks
    within the at most min(2^n, |S|^2) indices it touches; otherwise every entry of at most
    min(|S|^2, 2^n) offsets, each block a coset of their span (at most min(n, |S| - 1)
    dimensions).  Stacked values count twice: ``eigvalsh`` copies them unseen by tracemalloc.
    This is a cold build; a run that reuses the previous run's pattern (same n, psi and
    axes) allocates no pattern or plan anew, and one whose factor tables the memo
    (``_factor_table``) holds computes none.  At most one pattern is held between runs, and
    it is dropped before the next one is built; the memos' own bound (at most 15 MiB up to
    120 classes) is not charged here.
    """
    n, d, support = psi.n, psi.dim, int(np.count_nonzero(psi.amplitudes))
    active = _active_rates(spec)
    if list(active) == [2]:
        entries, stacked = support**2, min(d, support**2) ** 2
    else:
        entries, stacked = d * min(support**2, d), d * 2 ** min(n, support - 1)
    classes = n + 1 if len(active) == 1 else math.comb(n + 3, 3)
    growth = max(_BLOCK_ENTRIES, _BLOCK_STEPS * classes)
    per_entry = _ENTRY_BYTES + (cuts + 1) * _PLAN_ENTRY_BYTES
    return float(entries * per_entry + 32 * stacked + d * _INDEX_BYTES + growth * _GROWTH_BYTES)


def _stride(name: str, interval: Optional[float], h: float, default: int) -> int:
    if interval is None:
        return default
    stride = int(round(interval / h))
    if stride < 1 or abs(stride * h - interval) > 1e-9:
        raise ValueError(f"{name}={interval} is not a positive multiple of step={h}")
    return stride


def _recording_points(stepper, n_steps: int, strides):
    """Run the stepper from one recording point to the next; yield (t, one flag per stride).

    The points are steps 0, n_steps and the multiples of each stride; ``advance(k0, k)``
    takes steps k0+1..k.
    """
    points = sorted({0, n_steps}.union(*(range(stride, n_steps, stride) for stride in strides)))
    for k0, k in zip([0] + points, points):
        stepper.advance(k0, k)
        yield k * stepper.h, [k % stride == 0 or k == n_steps for stride in strides]


def evolve(
    psi: PureState,
    spec: NoiseSpec,
    t_max: float,
    cuts: Sequence[Bipartition] = (),
    options: IntegratorOptions = IntegratorOptions(),
) -> Trajectory:
    """Propagate rho0 = |psi><psi| under the noise spec from t=0 to t_max.

    The stepper builds no 2^n x 2^n matrix but the states it keeps.
    Entanglement observables (log negativity per requested cut) are recorded
    every ``options.observable_every`` (default: every step, or only at both
    ends when there are no cuts); full states every ``options.sample_every``.
    Raises IntegrationError when the minimum eigenvalue at a sample point falls
    below ``EIGENVALUE_ERROR_FLOOR``, which indicates the step size is too
    large.  Trace drift is recorded in ``metadata["max_trace_drift"]`` and
    never raised.
    """
    h = options.step
    n_steps = _stride("t_max", t_max, h, None)
    obs_stride = _stride("observable_every", options.observable_every, h, 1 if cuts else n_steps)
    sample_stride = _stride("sample_every", options.sample_every, h, n_steps)

    for cut in cuts:
        if cut.n != psi.n:
            raise ValueError(f"cut {cut.label} is for {cut.n} qubits, state has {psi.n}")
    # one entry per label, e.g. highest-cut == 1-Rest at n = 3
    cuts = list({cut.label: cut for cut in cuts}.values())

    times, state_times, states, min_eigenvalues = [], [], [], []
    observables = {cut.label: [] for cut in cuts}

    stepper = _ClassStepper(psi, spec, h, n_steps)
    for t, (obs_due, state_due) in _recording_points(
        stepper, n_steps, (obs_stride, sample_stride)
    ):
        values, lam_min = stepper.observe(cuts if obs_due else (), state_due)
        if obs_due:
            times.append(t)
            for series, value in zip(observables.values(), values):
                series.append(value)
        if not state_due:
            continue
        min_eigenvalues.append(lam_min)
        if lam_min < EIGENVALUE_ERROR_FLOOR:
            raise IntegrationError(
                f"state lost positivity (min eigenvalue {lam_min:.3e}) at "
                f"t={t:.4f}; reduce the step size"
            )
        if options.record_states:  # steppers never write to a matrix they returned
            state_times.append(t)
            states.append(
                DensityMatrix(n=psi.n, elements=stepper.current(), check_positivity=False)
            )

    metadata = {
        "integrator": stepper.engine,
        "classes": stepper.classes,
        "block_steps": stepper.block_steps,
        "blocks": stepper.blocks(cuts),
        "step": h,
        "t_max": t_max,
        "cuts": list(observables),
        "max_trace_drift": stepper.max_trace_drift,
        "min_eigenvalue": min(min_eigenvalues),
    }
    return Trajectory(
        times=np.array(times),
        observables={label: np.array(vals) for label, vals in observables.items()},
        state_times=np.array(state_times),
        states=states,
        metadata=metadata,
    )


def _exact_channel(
    values: np.ndarray, offsets: np.ndarray, n: int, lam_integrals: Sequence[float], spec: NoiseSpec
) -> np.ndarray:
    """``analytic_state_at``'s channel at ``lam_integrals`` on values laid out offset by offset.

    Row j of ``values`` holds the entries (a, a ^ offsets[j]) for a = 0..2^n - 1, the layout
    of the engine's pattern.  A site's Pauli conjugations mix (a, b) only with
    (a ^ e_i, b ^ e_i), so each keeps the offset o = a ^ b, and the Z/Y sign is (-1)^(o_i),
    one per row.  Returns new values, unvalidated.  The Hamming route (one damping factor per
    row) runs whenever Lambda_x = Lambda_y = 0, the exact condition under which it is the
    channel, whatever the spec's kind.
    """
    lam_x_int, lam_y_int, lam_z_int = (float(v) for v in lam_integrals)
    if lam_x_int == lam_y_int == 0.0:
        log_damping = -2.0 * spec.kappa * lam_z_int / spec.omega0
        damping = np.exp(log_damping * np.arange(n + 1))  # by Hamming distance
        return values * damping[_popcount(offsets, n)][:, None]
    scale = 2.0 * spec.kappa / spec.omega0
    tx = np.exp(-scale * (lam_y_int + lam_z_int))
    ty = np.exp(-scale * (lam_z_int + lam_x_int))
    tz = np.exp(-scale * (lam_x_int + lam_y_int))
    # mixing weights of {identity, X, Y, Z} conjugations realising the
    # diagonal Pauli-transfer map (Walsh-Hadamard inversion)
    c_i = 0.25 * (1.0 + tx + ty + tz)
    c_x = 0.25 * (1.0 + tx - ty - tz)
    c_y = 0.25 * (1.0 - tx + ty - tz)
    c_z = 0.25 * (1.0 - tx - ty + tz)

    stack = values.reshape((len(offsets),) + (2,) * n)
    for i in range(n):  # site i is bit n - 1 - i, axis i + 1 of the stack
        sign = (1.0 - 2.0 * (offsets >> (n - 1 - i) & 1)).reshape((-1,) + (1,) * n)
        flip = np.flip(stack, axis=i + 1)
        stack = c_i * stack + c_x * flip + c_y * (sign * flip) + c_z * (sign * stack)
    return stack.reshape(values.shape)


def _integrals(spec: NoiseSpec, t: float) -> list:
    """(Lambda_x, Lambda_y, Lambda_z) at time t."""
    return [float(m.integrated(t)) for m in (spec.rate_x, spec.rate_y, spec.rate_z)]


def analytic_state_at(rho0: DensityMatrix, spec: NoiseSpec, t: float) -> DensityMatrix:
    """Exact state at time t of either noise kind, from the rate integrals.

    With Lambda_j = int_0^t gamma_j, each qubit is sent through the single-qubit
    channel with Pauli-transfer eigenvalues

        lambda_x = exp(-2 kappa (Lambda_y + Lambda_z) / omega_0)

    and cyclic permutations (identity eigenvalue 1), applied by scaling the
    Pauli expansion of rho0 one site at a time.  When Lambda_x = Lambda_y = 0,
    as under dephasing, that is entry (a, b) damped by
    exp(-2 kappa Lambda_z d / omega_0), with d = popcount(a ^ b) the Hamming
    distance, and populations untouched.
    """
    index = np.arange(rho0.dim)
    at = (index, index ^ index[:, None])  # row o holds the entries (a, a ^ o)
    elements = np.empty_like(rho0.elements)
    elements[at] = _exact_channel(rho0.elements[at], index, rho0.n, _integrals(spec, t), spec)
    return DensityMatrix(n=rho0.n, elements=elements, check_positivity=False)


def oracle_deviation(
    psi: PureState,
    spec: NoiseSpec,
    t_max: float,
    options: IntegratorOptions = IntegratorOptions(),
    compare_every: Optional[float] = None,
) -> float:
    """Max-abs element deviation between RK4 evolution and the analytic map.

    Steps the integrator from rho0 = |psi><psi| across [0, t_max] and compares against
    the exact propagator every ``compare_every`` time units (default: every step): at
    t = 0, at each multiple of ``compare_every`` and at t_max, whether or not
    ``compare_every`` divides it.
    This is the primary correctness gate for the integrator.  It builds no 2^n x 2^n
    array and no ``DensityMatrix``: rho0 is laid out offset by offset on the offsets of
    psi's support, where the exact channel (``_exact_channel``) keeps it, and every
    engine entry on another offset counts at its full |value|.
    """
    h = options.step
    n_steps = _stride("t_max", t_max, h, None)
    stride = _stride("compare_every", compare_every, h, 1)
    stepper = _ClassStepper(psi, spec, h, n_steps)
    rows, cols = stepper.pattern.rows, stepper.pattern.cols
    amplitudes, support = psi.amplitudes, np.flatnonzero(psi.amplitudes)
    offsets = np.unique(np.concatenate(((support[:, None] ^ support).ravel(), rows ^ cols)))
    # rho0 at (a, a ^ o), zero on the engine's other offsets; the product is np.outer's arithmetic
    rho0 = amplitudes * amplitudes[np.arange(psi.dim) ^ offsets[:, None]].conj()
    at = (np.searchsorted(offsets, rows ^ cols), rows)
    deviations = []
    for t, _ in _recording_points(stepper, n_steps, (stride,)):
        gap = _exact_channel(rho0, offsets, psi.n, _integrals(spec, t), spec)
        gap[at] -= stepper.values()
        deviations.append(np.abs(gap).max())
    return float(np.max(deviations))  # a NaN from a blown-up run is kept, not skipped
