"""Dense references that the tests hold the class engine and the closed-form map to.

``DenseStepper`` is fourth-order Runge-Kutta on the full 2^n x 2^n density
matrix, with the master equation's right-hand side materialised
(``lindblad_rhs``), hermitised and re-traced every step.  It takes
``dynamics._ClassStepper``'s constructor arguments and offers the same
``advance``/``observe``/``values``/``current``/``blocks`` methods and a
``pattern`` of every entry's ``rows``/``cols``, so ``dense_engine()`` patches it
in and ``evolve`` and ``oracle_deviation`` record it through their one loop.
Its ``observe`` takes each spectrum from one dense ``np.linalg.eigvalsh``, so no
class-vs-dense comparison shares the engine's ``BlockPlan``.
``hamming_dephasing_map`` is the closed-form dephasing propagator read from a
4^n Hamming-distance table, and ``pauli_channel_reference`` the closed-form
three-axis channel as sum_P c_P P rho P over embedded Pauli matrices, site by
site.  Nothing here calls ``dynamics._axis_sign``, ``dynamics._popcount`` or
``dynamics._exact_channel``: the sign arrays, the table and the sums are built
below.
``integrated_rate_quadrature`` integrates a rate model by adaptive quadrature,
independently of the models' closed-form ``integrated``.
``ohmic_rate_spectral`` evaluates the zero-temperature Ohmic rate from its
spectral-density definition, independently of ``OhmicZeroTempRate.rate``.
``schmidt_log_negativity`` takes a pure state's negativity from its Schmidt spectrum,
independently of the partial transpose, and ``symmetry_check`` is the spread of
``log_negativity`` over all cuts of one size.
"""

import functools
import math
from itertools import combinations
from types import SimpleNamespace
from unittest import mock

import numpy as np
from scipy.integrate import quad

from qubitbath import dynamics
from qubitbath.entanglement import CLAMP_TOL, Bipartition, log_negativity
from qubitbath.errors import IntegrationError
from qubitbath.states import DensityMatrix, PureState, density_from_pure

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

TRACE_RENORM_TOL = 1e-12
TRACE_ERROR_TOL = 1e-6
QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8


def embed_local_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """The 2^n x 2^n matrix acting as the 2 x 2 ``op`` on ``site`` (1-based), identity elsewhere."""
    if not 1 <= site <= n:
        raise ValueError(f"site must lie in 1..{n}, got {site}")
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {op.shape}")
    left = np.eye(2 ** (site - 1), dtype=complex)
    right = np.eye(2 ** (n - site), dtype=complex)
    return np.kron(np.kron(left, op), right)


def hamming_distance_matrix(n: int) -> np.ndarray:
    """Matrix D with D[x, y] = number of differing bits between x and y."""
    idx = np.arange(2**n)
    xor = idx[:, None] ^ idx[None, :]
    d = np.zeros(xor.shape, dtype=np.float64)
    for bit in range(n):
        d += (xor >> bit) & 1
    return d


class _Tables:
    """Per-qubit-count sign arrays and the one-byte 4^n Hamming table."""

    def __init__(self, n: int):
        self.n = n
        self.tshape = (2,) * (2 * n)
        # (1, -1) along one row or column axis of the (2,) * 2n tensor
        sign, shapes = np.array([1.0, -1.0]), 1 + np.eye(2 * n, dtype=int)
        self.row_signs = [sign.reshape(shapes[i]) for i in range(n)]
        self.col_signs = [sign.reshape(shapes[n + i]) for i in range(n)]
        self.hamming = hamming_distance_matrix(n).astype(np.uint8)


_tables = functools.lru_cache(maxsize=None)(_Tables)


def _rhs_matrix(mat: np.ndarray, t: float, spec, tables: _Tables) -> np.ndarray:
    pref = spec.kappa / spec.omega0
    gz = float(spec.rate_z.rate(t))
    out = (-2.0 * pref * gz) * (tables.hamming * mat)
    if spec.kind == dynamics.PAULI:
        gx = float(spec.rate_x.rate(t))
        gy = float(spec.rate_y.rate(t))
        if gx != 0.0 or gy != 0.0:
            n = tables.n
            tens = mat.reshape(tables.tshape)
            acc = np.zeros(tables.tshape, dtype=complex)
            for i in range(n):
                flip = np.flip(tens, axis=(i, n + i))
                acc += gx * flip
                if gy != 0.0:
                    acc += gy * (tables.row_signs[i] * tables.col_signs[i] * flip)
            out += pref * acc.reshape(mat.shape)
            out -= (pref * n * (gx + gy)) * mat
    return out


def lindblad_rhs(rho: DensityMatrix, t: float, spec) -> np.ndarray:
    """Right-hand side of the master equation at time t.

    Equals kappa/omega_0 * sum over sites and active axes of
    (sigma rho sigma - rho), evaluated without materialising the embedded
    operators: the z part is an elementwise Hamming-distance damping and the
    x/y parts are bit-flips of both indices with the appropriate signs.
    """
    return _rhs_matrix(np.asarray(rho.elements), t, spec, _tables(rho.n))


class DenseStepper:
    """RK4 on the full density matrix |psi><psi|; hermitise and re-trace each step."""

    engine = "rk4-dense"
    classes = block_steps = None

    def __init__(self, psi, spec, h: float, n_steps: int):
        self.mat = np.array(density_from_pure(psi).elements, dtype=complex)
        index = np.arange(psi.dim)  # every entry, row by row, as ``values`` lays them out
        self.pattern = SimpleNamespace(rows=np.repeat(index, psi.dim), cols=np.tile(index, psi.dim))
        self.spec = spec
        self.h = h
        self.tables = _tables(psi.n)
        self.max_trace_drift = 0.0

    def advance(self, k0: int, k: int) -> None:
        h = self.h
        for j in range(k0 + 1, k + 1):
            t = (j - 1) * h
            mat = self.mat
            k1 = _rhs_matrix(mat, t, self.spec, self.tables)
            k2 = _rhs_matrix(mat + (0.5 * h) * k1, t + 0.5 * h, self.spec, self.tables)
            k3 = _rhs_matrix(mat + (0.5 * h) * k2, t + 0.5 * h, self.spec, self.tables)
            k4 = _rhs_matrix(mat + h * k3, t + h, self.spec, self.tables)
            mat = mat + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)

            mat -= 0.5 * (mat - mat.conj().T)

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
            self.mat = mat

    def values(self) -> np.ndarray:
        """rho(t) at the pattern's (rows, cols)."""
        return self.mat.ravel()

    def current(self) -> np.ndarray:
        return self.mat

    def observe(self, cuts, positivity: bool) -> tuple:
        """E per cut and, if asked, the minimum eigenvalue, each from one dense eigensolve."""
        lam_min = float(np.linalg.eigvalsh(self.mat)[0]) if positivity else None
        return [log_negativity(self.mat, cut) for cut in cuts], lam_min

    def blocks(self, cuts) -> None:
        """None: every record plans its own matrix."""
        return None


def with_untouched_zeros(plan, eigs) -> np.ndarray:
    """A ``BlockPlan``'s block eigenvalues plus one exact zero per untouched node, ascending:
    the spectrum that one dense ``eigvalsh`` of the whole matrix gives."""
    return np.sort(np.concatenate((eigs, np.zeros(plan.untouched))))


def dense_engine():
    """Context in which ``evolve`` and ``oracle_deviation`` step the dense reference."""
    return mock.patch.object(dynamics, "_ClassStepper", DenseStepper)


def class_and_dense(run):
    """``run()`` on the class engine, then on the dense reference."""
    fast = run()
    with dense_engine():
        return fast, run()


def hamming_dephasing_map(rho0: DensityMatrix, big_gamma: float, spec) -> DensityMatrix:
    """Exact dephasing propagator at integrated rate big_gamma = int_0^t gamma.

    Element (x, y) is damped by exp(-2 kappa big_gamma d / omega_0) with d
    the Hamming distance between the basis strings x and y; populations are
    untouched.
    """
    log_damping = -2.0 * spec.kappa * big_gamma / spec.omega0
    factors = np.exp(np.multiply(log_damping, _tables(rho0.n).hamming, dtype=np.float64))
    return DensityMatrix(n=rho0.n, elements=rho0.elements * factors, check_positivity=False)


def pauli_channel_reference(rho0: DensityMatrix, lams, spec) -> np.ndarray:
    """Exact channel at rate integrals ``lams`` = (Lambda_x, Lambda_y, Lambda_z), site by site.

    Each site's channel is sum_P c_P P rho P over P = I, X, Y, Z, embedded as 2^n x 2^n
    matrices, with the weights that give it the Pauli-transfer eigenvalues
    lambda_x = exp(-2 kappa (Lambda_y + Lambda_z) / omega_0) and cyclic permutations.
    """
    lam_x, lam_y, lam_z = (
        math.exp(-2.0 * spec.kappa * (lams[j] + lams[k]) / spec.omega0)
        for j, k in ((1, 2), (2, 0), (0, 1))
    )
    weights = (
        (1.0 + lam_x + lam_y + lam_z) / 4.0,
        (1.0 + lam_x - lam_y - lam_z) / 4.0,
        (1.0 - lam_x + lam_y - lam_z) / 4.0,
        (1.0 - lam_x - lam_y + lam_z) / 4.0,
    )
    rho, n = np.array(rho0.elements, dtype=complex), rho0.n
    for site in range(1, n + 1):
        paulis = (embed_local_operator(p, site, n) for p in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z))
        rho = sum(c * (p @ rho @ p) for c, p in zip(weights, paulis))  # each P is Hermitian
    return rho


def _quad_strict(func, a, b, what, **kwargs):
    out = quad(func, a, b, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, full_output=1, **kwargs)
    if len(out) > 3:
        raise RuntimeError(f"quadrature failed for {what}: {out[3]}")
    return out[0]


def integrated_rate_quadrature(model, t: float) -> float:
    """Integral of the rate from 0 to t by direct adaptive quadrature.

    Independent of the closed forms in ``integrated``; used to cross-check them.
    Raises RuntimeError when the quadrature does not reach its tolerances.
    """
    if t < 0:
        raise ValueError("integrated_rate_quadrature requires t >= 0")
    if t == 0.0:
        return 0.0
    return _quad_strict(
        lambda u: float(model.rate(u)), 0.0, t, f"the rate integral of {model!r}", limit=400
    )


def ohmic_rate_spectral(t: float, s: float, omega_c: float = 1.0) -> float:
    """Zero-temperature Ohmic rate as the integral of J(w)/w sin(w t) over w > 0.

    J(w)/w = w^(s-1) omega_c^(1-s) exp(-w/omega_c).  The interval is split at
    omega_c and the oscillatory tail uses a sin-weighted rule.  Raises
    RuntimeError when either part does not reach its tolerances.
    """
    if t == 0.0:
        return 0.0

    def envelope(w: float) -> float:
        return w ** (s - 1.0) * omega_c ** (1.0 - s) * math.exp(-w / omega_c)

    what = f"the spectral rate integral (s={s}, t={t})"
    head = _quad_strict(lambda w: envelope(w) * math.sin(w * t), 0.0, omega_c, what, limit=200)
    tail = _quad_strict(envelope, omega_c, np.inf, what, weight="sin", wvar=t, limit=200)
    return head + tail


def schmidt_log_negativity(psi: PureState, cut: Bipartition) -> float:
    """Pure-state logarithmic negativity from the Schmidt spectrum.

    Uses E = log2((sum_i sqrt(lambda_i))^2) with lambda_i the eigenvalues of
    the reduced state on side_a.  Serves as an independent cross-check of the
    partial-transpose route.
    """
    if cut.n != psi.n:
        raise ValueError(f"cut is for {cut.n} qubits but the state has {psi.n}")
    n = psi.n
    side_a = cut.side_a
    side_b = tuple(q for q in range(1, n + 1) if q not in side_a)
    tens = psi.amplitudes.reshape((2,) * n)
    perm = [q - 1 for q in side_a] + [q - 1 for q in side_b]
    mat = np.transpose(tens, perm).reshape(2 ** len(side_a), 2 ** len(side_b))
    lam = np.linalg.eigvalsh(mat @ mat.conj().T)
    lam = np.clip(lam, 0.0, None)
    value = float(np.log2(np.sqrt(lam).sum() ** 2))
    return 0.0 if value < CLAMP_TOL else value


def symmetry_check(rho: DensityMatrix, m: int) -> float:
    """Spread (max - min) of log negativity over all size-m cuts.

    Permutation-symmetric states evolved under identical local channels
    should give a spread at the eigensolver-noise level.
    """
    n = rho.n
    if not 1 <= m <= n // 2:
        raise ValueError(f"side size must satisfy 1 <= m <= n//2, got {m}")
    values = [
        log_negativity(rho, Bipartition(n, subset))
        for subset in combinations(range(1, n + 1), m)
    ]
    return float(max(values) - min(values))
