"""Multiqubit pure states, density matrices and local-operator embedding.

Basis convention: a computational basis index ``i`` encodes the qubit
outcomes as a bitstring with qubit 1 in the most significant bit, so for
three qubits index 6 = 0b110 means qubits (1, 2, 3) = (1, 1, 0).  All the
states built here are symmetric under qubit permutations, but the
convention matters for I/O and for embedding single-site operators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb, sqrt

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

__all__ = [
    "PureState",
    "DensityMatrix",
    "block_eigvalsh",
    "ghz_state",
    "w_state",
    "dicke_state",
    "density_from_pure",
    "embed_local_operator",
    "hamming_distance_matrix",
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
]

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_FLOOR = -1e-10
# below this dimension one dense solve (~10-60 us) beats the ~0.3 ms graph step
_BLOCK_MIN_DIM = 128


def _require_qubit_count(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"qubit count must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class PureState:
    """Normalised complex amplitude vector over the 2^n computational basis."""

    n: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_qubit_count(self.n)
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (2**self.n,):
            raise ValueError(
                f"amplitude vector has shape {amp.shape}, expected ({2**self.n},)"
            )
        norm_sq = float(np.sum(np.abs(amp) ** 2))
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(f"state is not normalised: sum |a_i|^2 = {norm_sq!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return 2**self.n

    def to_json(self) -> str:
        """Serialise as {"n": int, "amplitudes": [[re, im], ...]}."""
        payload = {
            "n": self.n,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "PureState":
        payload = json.loads(text)
        amp = np.array([complex(re, im) for re, im in payload["amplitudes"]])
        return cls(n=int(payload["n"]), amplitudes=amp)


@dataclass(frozen=True)
class DensityMatrix:
    """2^n x 2^n Hermitian, unit-trace, positive-semidefinite matrix.

    Hermiticity and trace are always validated on construction; the
    positive-semidefiniteness check costs an eigensolve (``block_eigvalsh``,
    block by block over the exact nonzero pattern) and can be skipped for
    matrices produced by maps that preserve positivity by construction.
    """

    n: int
    elements: np.ndarray = field(repr=False)
    check_positivity: bool = True

    def __post_init__(self):
        _require_qubit_count(self.n)
        mat = np.asarray(self.elements, dtype=complex)
        d = 2**self.n
        if mat.shape != (d, d):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({d}, {d})")
        herm = np.abs(mat - mat.conj().T).max()
        if herm > _HERM_TOL:
            raise ValueError(f"matrix is not Hermitian: max |rho - rho^dag| = {herm}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"matrix does not have unit trace: trace = {tr}")
        if self.check_positivity:
            lam_min = float(block_eigvalsh(mat)[0])
            if lam_min < _PSD_FLOOR:
                raise ValueError(f"matrix is not PSD: min eigenvalue = {lam_min}")
        mat.setflags(write=False)
        object.__setattr__(self, "elements", mat)

    @property
    def dim(self) -> int:
        return 2**self.n

    def min_eigenvalue(self) -> float:
        return float(block_eigvalsh(self.elements)[0])

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "elements": [
                [[float(v.real), float(v.imag)] for v in row] for row in self.elements
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "DensityMatrix":
        payload = json.loads(text)
        mat = np.array(
            [[complex(re, im) for re, im in row] for row in payload["elements"]]
        )
        return cls(n=int(payload["n"]), elements=mat)


def block_eigvalsh(mat) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, solved one block at a time.

    The blocks are the connected components of the exact nonzero pattern, so
    the spectrum is the dense one for any input: only exact zeros split
    blocks, and a roundoff-sized entry merely merges two of them.  Local
    dephasing and Pauli noise keep rho(t) and its partial transposes
    block-diagonal up to a permutation, which makes the blocks small.  Blocks
    of one size are solved in one stacked call; matrices below dimension
    128 get one dense call.
    """
    mat = np.asarray(mat)
    if len(mat) < _BLOCK_MIN_DIM:
        return np.linalg.eigvalsh(mat)
    _, labels = connected_components(csr_array(mat != 0), directed=False)
    sizes = np.bincount(labels)
    # nodes grouped by component, components of one size next to each other
    order = np.lexsort((labels, sizes[labels]))
    eigs, start = [], 0
    for size, count in zip(*np.unique(sizes, return_counts=True)):
        members = order[start : start + size * count].reshape(count, size)
        start += size * count
        blocks = mat[members[:, :, None], members[:, None, :]]
        eigs.append(np.linalg.eigvalsh(blocks).ravel())
    return np.sort(np.concatenate(eigs))


def ghz_state(n: int) -> PureState:
    """Cat state (|0...0> + |1...1>)/sqrt(2) on n qubits."""
    _require_qubit_count(n)
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / sqrt(2.0)
    return PureState(n=n, amplitudes=amp)


def w_state(n: int) -> PureState:
    """Equal superposition of the n single-excitation basis strings."""
    if n < 2:
        raise ValueError(f"w_state needs at least 2 qubits, got {n}")
    amp = np.zeros(2**n, dtype=complex)
    for i in range(n):
        amp[1 << i] = 1.0 / sqrt(n)
    return PureState(n=n, amplitudes=amp)


def dicke_state(n: int, k: int) -> PureState:
    """Equal superposition of all weight-k basis strings (k excitations).

    ``dicke_state(n, 1)`` coincides with ``w_state(n)``.
    """
    _require_qubit_count(n)
    if not 1 <= k <= n - 1:
        raise ValueError(f"excitation count must satisfy 1 <= k <= n-1, got k={k}")
    amp = np.zeros(2**n, dtype=complex)
    weight = 1.0 / sqrt(comb(n, k))
    for i in range(2**n):
        if i.bit_count() == k:
            amp[i] = weight
    return PureState(n=n, amplitudes=amp)


def density_from_pure(psi: PureState) -> DensityMatrix:
    """Rank-one density matrix |psi><psi|."""
    mat = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(n=psi.n, elements=mat, check_positivity=False)


def embed_local_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator at the given site (1-based) of n qubits.

    Returns the 2^n x 2^n matrix acting as ``op`` on ``site`` and as the
    identity elsewhere.
    """
    _require_qubit_count(n)
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
    _require_qubit_count(n)
    idx = np.arange(2**n)
    xor = idx[:, None] ^ idx[None, :]
    d = np.zeros(xor.shape, dtype=np.float64)
    for bit in range(n):
        d += (xor >> bit) & 1
    return d
