"""Dense references that the tests hold the class engine and the closed-form map to.

``DenseStepper`` is fourth-order Runge-Kutta on the full 2^n x 2^n density
matrix, with the master equation's right-hand side materialised
(``lindblad_rhs``), hermitised and re-traced every step.  It takes
``dynamics._ClassStepper``'s constructor arguments and offers the same
``advance``/``observe``/``current``/``blocks`` methods, so ``dense_engine()``
patches it in and ``evolve`` and ``oracle_deviation`` record it through their
one loop.  ``hamming_dephasing_map`` is the closed-form dephasing propagator
read from a 4^n Hamming-distance table.  Nothing here reads
``dynamics._workspace``: the sign arrays and the table are built below.
"""

import functools
from unittest import mock

import numpy as np

from qubitbath import dynamics
from qubitbath.entanglement import log_negativity
from qubitbath.errors import IntegrationError
from qubitbath.states import DensityMatrix, block_eigvalsh, density_from_pure

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

TRACE_RENORM_TOL = 1e-12
TRACE_ERROR_TOL = 1e-6


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
        self.spec = spec
        self.h = h
        self.tables = _tables(psi.n)
        self.max_trace_drift = self.max_herm_drift = 0.0
        self.renormalizations = 0

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

    def blocks(self, cuts) -> None:
        """None: every record plans its own matrix."""
        return None


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
