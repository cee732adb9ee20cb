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
gamma_y (nz + nx) + gamma_z (nx + ny)] y.  The default stepper therefore
advances one RK4 amplification factor per letter-count class (the Hamming
distance under pure dephasing), with rates evaluated a block of steps at a
time.  A block has max(128, 15360 // classes) steps, so its growth table
(steps x classes) never outgrows the 128 x 120 entries of fig5 GHZ n=7 unless
a run has more than 120 classes, and a dephasing run with n + 1 classes takes
one to three blocks for 3000 steps at n <= 10.  One flip-and-sign transform
per site puts the Pauli coefficients where popcounts of each entry's row and
column give its class; it is skipped when z is the only active axis.
Full-matrix RK4 is exactly RK4 on these factors; the dense stepper, which
materialises the right-hand side, is the independent reference
(``IntegratorOptions(dense=True)``).

rho(t) of the class stepper is nonzero only on a pattern fixed by rho0, where
its values are linear in the class factors.  Started from a ``PureState``, the
stepper reads that pattern and rho0's values on it from psi's support, and the
transforms run offset by offset on the pattern, so no 4^n array is built.
``evolve`` builds, once per run, one ``states.BlockPlan`` per cut (on the
partial-transposed pattern) and one for rho itself (positivity): the
components, grouped by size, and where each value goes in its group's stack.
A record costs one evaluation of rho(t) on the pattern plus one stacked
``eigvalsh`` per size group; the full matrix is rebuilt only for states that
``record_states`` keeps.  The dense stepper, the dense right-hand side and the
closed-form dephasing map use a 4^n Hamming table, built on first use; the
dense stepper records through the public ``log_negativity`` and
``block_eigvalsh``.

Closed-form propagators for both noise kinds serve as independent oracles
for the integrator.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .entanglement import (
    Bipartition,
    log2_trace_norm,
    log_negativity,
    partial_transpose_indices,
)
from .errors import IntegrationError
from .rates import ZERO_RATE, ConstantRate, DecayRateModel
from .states import (
    BlockPlan,
    DensityMatrix,
    PureState,
    block_eigvalsh,
    component_labels,
    density_from_pure,
    hamming_distance_matrix,
)

__all__ = [
    "DEPHASING",
    "PAULI",
    "SUPPORTED_KAPPAS",
    "NoiseSpec",
    "IntegratorOptions",
    "Trajectory",
    "lindblad_rhs",
    "evolve",
    "analytic_dephasing_map",
    "analytic_pauli_map",
    "analytic_state_at",
    "oracle_deviation",
]

DEPHASING = "dephasing"
PAULI = "pauli"
SUPPORTED_KAPPAS = (1.0, 0.25)

TRACE_RENORM_TOL = 1e-12
TRACE_ERROR_TOL = 1e-6
EIGENVALUE_ERROR_FLOOR = -1e-6


def _is_zero_rate(model: DecayRateModel) -> bool:
    return isinstance(model, ConstantRate) and model.gamma0 == 0.0


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
    ``sample_every`` time units.  ``dense`` replaces the Pauli-class stepper by
    the dense matrix stepper, the independent reference for both noise kinds.
    """

    step: float = 0.01
    observable_every: Optional[float] = None
    sample_every: float = 1.0
    record_states: bool = True
    dense: bool = False

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

    def observable(self, label: str) -> np.ndarray:
        return self.observables[label]

    def final_state(self) -> DensityMatrix:
        if not self.states:
            raise ValueError("trajectory recorded no states")
        return self.states[-1]


class _Workspace:
    """Per-qubit-count structures for the elementwise generator algebra."""

    def __init__(self, n: int):
        self.n = n
        self.tshape = (2,) * (2 * n)
        # (1, -1) along one row or column axis of the (2,) * 2n tensor
        sign, shapes = np.array([1.0, -1.0]), 1 + np.eye(2 * n, dtype=int)
        self.row_signs = [sign.reshape(shapes[i]) for i in range(n)]
        self.col_signs = [sign.reshape(shapes[n + i]) for i in range(n)]
        # (1, -1) along site i of an (offsets, 2, ..., 2) stack of 2^n-vectors
        self.site_signs = [sign.reshape((2,) + (1,) * (n - 1 - i)) for i in range(n)]
        index = np.arange(2**n)
        self.popcount = sum((index >> bit) & 1 for bit in range(n))

    @functools.cached_property
    def hamming(self) -> np.ndarray:
        """4^n one-byte Hamming table, built only for the dense RHS and the dephasing map."""
        return hamming_distance_matrix(self.n).astype(np.uint8)


_workspace = functools.lru_cache(maxsize=None)(_Workspace)


def _rhs_matrix(mat: np.ndarray, t: float, spec: NoiseSpec, ws: _Workspace) -> np.ndarray:
    pref = spec.kappa / spec.omega0
    gz = float(spec.rate_z.rate(t))
    out = (-2.0 * pref * gz) * (ws.hamming * mat)
    if spec.kind == PAULI:
        gx = float(spec.rate_x.rate(t))
        gy = float(spec.rate_y.rate(t))
        if gx != 0.0 or gy != 0.0:
            n = ws.n
            tens = mat.reshape(ws.tshape)
            acc = np.zeros(ws.tshape, dtype=complex)
            for i in range(n):
                flip = np.flip(tens, axis=(i, n + i))
                acc += gx * flip
                if gy != 0.0:
                    acc += gy * (ws.row_signs[i] * ws.col_signs[i] * flip)
            out += pref * acc.reshape(mat.shape)
            out -= (pref * n * (gx + gy)) * mat
    return out


def lindblad_rhs(rho, t: float, spec: NoiseSpec) -> np.ndarray:
    """Right-hand side of the master equation at time t.

    Equals kappa/omega_0 * sum over sites and active axes of
    (sigma rho sigma - rho), evaluated without materialising the embedded
    operators: the z part is an elementwise Hamming-distance damping and the
    x/y parts are bit-flips of both indices with the appropriate signs.
    """
    if isinstance(rho, DensityMatrix):
        mat = rho.elements
        n = rho.n
    else:
        mat = np.asarray(rho, dtype=complex)
        n = int(round(np.log2(mat.shape[0])))
        if mat.shape != (2**n, 2**n):
            raise ValueError(f"rho has shape {mat.shape}, not 2^n x 2^n")
    return _rhs_matrix(mat, t, spec, _workspace(n))


class _DenseStepper:
    """RK4 on the full density matrix; hermitise and re-trace each step."""

    engine = "rk4-dense"
    classes = block_steps = None

    def __init__(self, rho0: DensityMatrix, spec: NoiseSpec, h: float):
        self.mat = np.array(rho0.elements, dtype=complex)
        self.spec = spec
        self.h = h
        self.ws = _workspace(rho0.n)
        self.max_trace_drift = self.max_herm_drift = 0.0
        self.renormalizations = 0

    def advance(self, k0: int, k: int) -> None:
        h = self.h
        for j in range(k0 + 1, k + 1):
            t = (j - 1) * h
            mat = self.mat
            k1 = _rhs_matrix(mat, t, self.spec, self.ws)
            k2 = _rhs_matrix(mat + (0.5 * h) * k1, t + 0.5 * h, self.spec, self.ws)
            k3 = _rhs_matrix(mat + (0.5 * h) * k2, t + 0.5 * h, self.spec, self.ws)
            k4 = _rhs_matrix(mat + h * k3, t + h, self.spec, self.ws)
            mat = mat + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)

            delta = mat - mat.conj().T
            herm_drift = float(np.abs(delta).max())
            if herm_drift > self.max_herm_drift:
                self.max_herm_drift = herm_drift
            mat -= 0.5 * delta

            trace = float(np.trace(mat).real)
            drift = abs(trace - 1.0)
            if drift > self.max_trace_drift:
                self.max_trace_drift = drift
            if drift > TRACE_ERROR_TOL:
                raise IntegrationError(
                    f"trace drifted by {drift:.3e} at t={j * h:.4f}; reduce the step size"
                )
            if drift > TRACE_RENORM_TOL:
                mat = mat / trace
                self.renormalizations += 1
            self.mat = mat

    def current(self) -> np.ndarray:
        return self.mat

    def observe(self, cuts, positivity: bool) -> tuple:
        """E per cut and, if asked, the minimum eigenvalue, by the public one-matrix routes."""
        lam_min = float(block_eigvalsh(self.mat)[0]) if positivity else None
        return [log_negativity(self.mat, cut) for cut in cuts], lam_min


def _site_transform(values: np.ndarray, ws: _Workspace, inverse: bool) -> np.ndarray:
    """Per site, t + s * f(t), or t - s * f(t) if ``inverse``, on values laid out offset by offset.

    Value o * 2^n + a stands for the matrix entry (a, a ^ o) of offset o.  f flips the
    site's bit of a, which flips that entry's row and column bits together, and s = (1, -1)
    on the row bit.  Forward, a site's (row, column) bits 00, 01, 10, 11 then hold
    Tr(P rho) for P = I, X, Y, Z times the phase 1, 1, i, -1; the inverse gives 2^n times
    the inverse map.
    """
    stack = values.reshape((-1,) + ws.tshape[: ws.n])
    for i, sign in enumerate(ws.site_signs):
        flipped = sign * np.flip(stack, axis=i + 1)
        stack = stack - flipped if inverse else stack + flipped
    return stack.ravel()


# A rate block's growth rows come from one rate call per axis and RK4 stage.  Its table
# holds up to _BLOCK_ENTRIES entries (steps x classes), the 128 x 120 of fig5 GHZ n=7: 1024
# steps there raised that run's peak RSS by 7%, 128 by under 1%.  A block never has fewer
# than _BLOCK_STEPS steps, so runs with more than 120 classes keep 128-step blocks.
_BLOCK_ENTRIES = 128 * 120
_BLOCK_STEPS = 128


class _ClassStepper:
    """One RK4 amplification factor per Pauli-string decay class (module docs).

    Only axes with a rate not identically zero are evaluated.  Letters anticommuting with
    sigma_x, sigma_y, sigma_z sit where the row bit is 1, the column bit is 1 and the bits
    differ, so an entry's counts are popcounts of its row, its column and their XOR.  The
    class set is that of every letter-count triple (nx, ny, nz) with nx + ny + nz <= n,
    whichever entries rho0 uses.

    rho(t) is only ever nonzero on a fixed pattern (``rows``, ``cols``), where its values
    are linear in the class factors.  With z alone that is rho0's pattern and the letter
    transform is skipped: it keeps every entry's Hamming distance.  Otherwise the inverse
    transform sends a coefficient at (a, b) to (a ^ m, b ^ m) with sign (-1)^|m & a|, for
    every site mask m; it keeps the offset a ^ b, so the pattern is every entry of each
    offset rho0 uses, and per offset both transforms are signed Walsh-Hadamard transforms
    of 2^n values.  A ``PureState`` gives rho0's pattern as its support times itself and
    its values as psi[rows] * conj(psi[cols]), so no 2^n x 2^n array is built; a
    ``DensityMatrix`` gives them by its nonzeros.
    """

    engine = "rk4-pauli-classes"
    max_trace_drift = max_herm_drift = 0.0  # trace and hermiticity are exact
    renormalizations = 0

    def __init__(self, state: PureState | DensityMatrix, spec: NoiseSpec, h: float, n_steps: int):
        n, d = state.n, state.dim
        self.h, self.n_steps, self.ws = h, n_steps, _workspace(n)
        models = (spec.rate_x, spec.rate_y, spec.rate_z)
        active = [axis for axis in range(3) if not _is_zero_rate(models[axis])] or [2]
        self.transform = active != [2]
        pure = isinstance(state, PureState)
        if pure:
            psi = state.amplitudes
            support = np.flatnonzero(psi)
            rows, cols = np.repeat(support, len(support)), np.tile(support, len(support))
        else:
            rows, cols = np.nonzero(state.elements)
        if self.transform:  # pattern-ordered offset by offset
            offsets = np.unique(rows ^ cols)
            rows = np.tile(np.arange(d), len(offsets))
            cols = rows ^ np.repeat(offsets, d)
        # rho0 on the pattern; the product is np.outer's arithmetic
        coeffs = psi[rows] * psi[cols].conj() if pure else state.elements[rows, cols]
        if self.transform:
            coeffs = 0.5**n * _site_transform(coeffs, self.ws, inverse=False)
        self.rows, self.cols, self.coeffs = rows, cols, coeffs

        def code(counts):  # equal counts on every active axis share a class
            return sum((n + 1) ** j * counts[axis] for j, axis in enumerate(active))

        triples = np.indices((n + 1,) * 3).reshape(3, -1)
        nx, ny, nz = triples[:, triples.sum(axis=0) <= n]
        codes = np.unique(code((ny + nz, nx + nz, nx + ny)))
        pop = self.ws.popcount
        self.coeff_class = np.searchsorted(codes, code((pop[rows], pop[cols], pop[rows ^ cols])))
        anti = [codes // (n + 1) ** j % (n + 1) for j in range(len(active))]
        self.dim, self.plans = d, {}
        scale = 2.0 * spec.kappa / spec.omega0
        self.axes = [(models[axis], -(scale * row)) for axis, row in zip(active, anti)]
        self.classes = len(self.axes[0][1])
        self.block_steps = max(_BLOCK_STEPS, _BLOCK_ENTRIES // self.classes)
        self.factors = np.ones(self.classes, dtype=float)

    def _decay(self, t: np.ndarray) -> np.ndarray:
        terms = [np.multiply.outer(model.rate(t), neg) for model, neg in self.axes]
        return sum(terms[1:], terms[0])

    def advance(self, k0: int, k: int) -> None:
        h, block = self.h, self.block_steps
        j = k0
        while j < k:
            offset = j % block
            if offset == 0:  # RK4 growth rows of the next block, up to t_max
                t = np.arange(j, min(j + block, self.n_steps)) * h
                a1 = self._decay(t)
                am = self._decay(t + 0.5 * h)
                a2 = am * (1.0 + 0.5 * h * a1)
                a3 = am * (1.0 + 0.5 * h * a2)
                a4 = self._decay(t + h) * (1.0 + h * a3)
                self.growth = 1.0 + (h / 6.0) * (a1 + 2.0 * (a2 + a3) + a4)
            stop = min(k, j - offset + block)
            rows = self.growth[offset : offset + stop - j]
            # a reduction down axis 0 multiplies row by row, as one step at a time does
            self.factors = np.multiply.reduce(np.vstack((self.factors, rows)), axis=0)
            j = stop

    def values(self) -> np.ndarray:
        """rho(t) at (rows, cols)."""
        coeffs = self.coeffs * self.factors[self.coeff_class]
        return _site_transform(coeffs, self.ws, inverse=True) if self.transform else coeffs

    def current(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        mat[self.rows, self.cols] = self.values()
        return mat

    def observe(self, cuts, positivity: bool) -> tuple:
        """E per cut and, if asked, the minimum eigenvalue of rho, from one block plan each."""
        values = self.values()
        lam_min = float(self._plan(None).eigvalsh(values)[0]) if positivity else None
        return [log2_trace_norm(self._plan(cut).eigvalsh(values)) for cut in cuts], lam_min

    def _plan(self, cut: Optional[Bipartition]) -> BlockPlan:
        """Block plan of rho (cut None) or of its partial transpose, built on first use."""
        if cut not in self.plans:
            rows, cols = self.rows, self.cols
            if cut is not None:
                rows, cols = partial_transpose_indices(rows, cols, cut)
            self.plans[cut] = BlockPlan(rows, cols, component_labels(rows, cols, self.dim))
        return self.plans[cut]


def _stride(name: str, interval: Optional[float], h: float, default: int) -> int:
    if interval is None:
        return default
    stride = int(round(interval / h))
    if stride < 1 or abs(stride * h - interval) > 1e-9:
        raise ValueError(f"{name}={interval} is not a positive multiple of step={h}")
    return stride


def _stepper(
    state: PureState | DensityMatrix, spec: NoiseSpec, n_steps: int, options: IntegratorOptions
):
    h = options.step
    if not options.dense:
        return _ClassStepper(state, spec, h, n_steps)
    rho0 = density_from_pure(state) if isinstance(state, PureState) else state
    return _DenseStepper(rho0, spec, h)


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
    state: PureState | DensityMatrix,
    spec: NoiseSpec,
    t_max: float,
    cuts: Sequence[Bipartition] = (),
    options: IntegratorOptions = IntegratorOptions(),
) -> Trajectory:
    """Propagate |psi><psi| (a ``PureState``) or rho0 under the noise spec from t=0 to t_max.

    From a ``PureState`` the class stepper builds no 2^n x 2^n matrix but the
    states it keeps; the dense stepper builds rho0 with ``density_from_pure``.
    Entanglement observables (log negativity per requested cut) are recorded
    every ``options.observable_every`` (default: every step, or only at both
    ends when there are no cuts); full states every ``options.sample_every``.
    Raises IntegrationError when trace or positivity diagnostics exceed their
    safety bounds, which indicates the step size is too large.
    """
    h = options.step
    n_steps = _stride("t_max", t_max, h, None)
    obs_stride = _stride("observable_every", options.observable_every, h, 1 if cuts else n_steps)
    sample_stride = _stride("sample_every", options.sample_every, h, n_steps)

    for cut in cuts:
        if cut.n != state.n:
            raise ValueError(f"cut {cut.label} is for {cut.n} qubits, state has {state.n}")
    # one entry per label, e.g. highest-cut == 1-Rest at n = 3
    cuts = list({cut.label: cut for cut in cuts}.values())

    times, state_times, states, min_eigenvalues = [], [], [], []
    observables = {cut.label: [] for cut in cuts}

    stepper = _stepper(state, spec, n_steps, options)
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
                DensityMatrix(n=state.n, elements=stepper.current(), check_positivity=False)
            )

    metadata = {
        "noise": asdict(spec),
        "kappa": spec.kappa,
        "omega0": spec.omega0,
        "integrator": stepper.engine,
        "classes": stepper.classes,
        "block_steps": stepper.block_steps,
        "step": h,
        "t_max": t_max,
        "cuts": list(observables),
        "max_trace_drift": stepper.max_trace_drift,
        "max_hermiticity_drift": stepper.max_herm_drift,
        "min_eigenvalue": min(min_eigenvalues),
        "trace_renormalizations": stepper.renormalizations,
    }
    return Trajectory(
        times=np.array(times),
        observables={label: np.array(vals) for label, vals in observables.items()},
        state_times=np.array(state_times),
        states=states,
        metadata=metadata,
    )


def analytic_dephasing_map(rho0: DensityMatrix, big_gamma: float, spec: NoiseSpec) -> DensityMatrix:
    """Exact dephasing propagator at integrated rate big_gamma = int_0^t gamma.

    Element (x, y) is damped by exp(-2 kappa big_gamma d / omega_0) with d
    the Hamming distance between the basis strings x and y; populations are
    untouched.
    """
    if spec.kind != DEPHASING:
        raise ValueError("analytic_dephasing_map requires a dephasing NoiseSpec")
    log_damping = -2.0 * spec.kappa * big_gamma / spec.omega0
    factors = np.exp(np.multiply(log_damping, _workspace(rho0.n).hamming, dtype=np.float64))
    return DensityMatrix(n=rho0.n, elements=rho0.elements * factors, check_positivity=False)


def analytic_pauli_map(
    rho0: DensityMatrix, lam_integrals: Sequence[float], spec: NoiseSpec
) -> DensityMatrix:
    """Exact Pauli-channel propagator at per-axis integrated rates.

    ``lam_integrals`` is (Lambda_x, Lambda_y, Lambda_z) with
    Lambda_j = int_0^t gamma_j.  Each qubit is sent through the single-qubit
    channel with Pauli-transfer eigenvalues

        lambda_x = exp(-2 kappa (Lambda_y + Lambda_z) / omega_0)

    and cyclic permutations (identity eigenvalue 1), applied by scaling the
    Pauli expansion of rho0 one site at a time.
    """
    if spec.kind != PAULI:
        raise ValueError("analytic_pauli_map requires a Pauli NoiseSpec")
    lam_x_int, lam_y_int, lam_z_int = (float(v) for v in lam_integrals)
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

    n = rho0.n
    ws = _workspace(n)
    tens = np.array(rho0.elements, dtype=complex).reshape(ws.tshape)
    for i in range(n):
        flip = np.flip(tens, axis=(i, n + i))
        signs = ws.row_signs[i] * ws.col_signs[i]
        tens = c_i * tens + c_x * flip + c_y * (signs * flip) + c_z * (signs * tens)
    return DensityMatrix(n=n, elements=tens.reshape(rho0.dim, rho0.dim), check_positivity=False)


def analytic_state_at(rho0: DensityMatrix, spec: NoiseSpec, t: float) -> DensityMatrix:
    """Closed-form state at time t for whichever noise kind spec carries."""
    if spec.kind == DEPHASING:
        return analytic_dephasing_map(rho0, float(spec.rate_z.integrated(t)), spec)
    lams = [float(m.integrated(t)) for m in (spec.rate_x, spec.rate_y, spec.rate_z)]
    return analytic_pauli_map(rho0, lams, spec)


def oracle_deviation(
    rho0: DensityMatrix,
    spec: NoiseSpec,
    t_max: float,
    options: IntegratorOptions = IntegratorOptions(),
    compare_every: Optional[float] = None,
) -> float:
    """Max-abs element deviation between RK4 evolution and the analytic map.

    Steps the integrator across [0, t_max] and compares against the exact
    propagator every ``compare_every`` time units (default: every step).
    This is the primary correctness gate for the integrator.
    """
    h = options.step
    n_steps = _stride("t_max", t_max, h, None)
    stride = _stride("compare_every", compare_every, h, 1)
    stepper = _stepper(rho0, spec, n_steps, options)
    deviations = [
        np.abs(stepper.current() - analytic_state_at(rho0, spec, t).elements).max()
        for t, _ in _recording_points(stepper, n_steps, (stride,))
    ]
    return float(np.max(deviations))  # a NaN from a blown-up run is kept, not skipped
