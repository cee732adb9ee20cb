"""Multiqubit pure states, density matrices and their block-by-block spectra.

Basis convention: a computational basis index ``i`` encodes the qubit
outcomes as a bitstring with qubit 1 in the most significant bit, so for
three qubits index 6 = 0b110 means qubits (1, 2, 3) = (1, 1, 0).  All the
states built here are symmetric under qubit permutations, but the
convention matters for I/O and for which bits a cut transposes.

The engine's spectra are solved block by block: ``component_labels`` finds
the connected components of a nonzero pattern with numpy alone, and
``BlockPlan`` groups them by size once for a pattern that many matrices share
(a trajectory) and solves only the nodes it touches.  A one-off spectrum
(``DensityMatrix``'s positivity check, ``entanglement.log_negativity``) is one
dense ``np.linalg.eigvalsh``, so the references share no code with the
engine's block route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, sqrt

import numpy as np

__all__ = [
    "PureState",
    "DensityMatrix",
    "BlockPlan",
    "component_labels",
    "ghz_state",
    "w_state",
    "dicke_state",
    "density_from_pure",
]

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_FLOOR = -1e-10


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
        norm_sq = float(np.vdot(amp, amp).real)  # allocates no per-index temporary
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(f"state is not normalised: sum |a_i|^2 = {norm_sq!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return 2**self.n


@dataclass(frozen=True)
class DensityMatrix:
    """2^n x 2^n Hermitian, unit-trace, positive-semidefinite matrix.

    Hermiticity and trace are always validated on construction; the
    positive-semidefiniteness check costs a dense eigensolve and can be
    skipped for matrices produced by maps that preserve positivity by
    construction.
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
            lam_min = float(np.linalg.eigvalsh(mat)[0])
            if lam_min < _PSD_FLOOR:
                raise ValueError(f"matrix is not PSD: min eigenvalue = {lam_min}")
        mat.setflags(write=False)
        object.__setattr__(self, "elements", mat)

    @property
    def dim(self) -> int:
        return 2**self.n

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.elements)[0])


def component_labels(rows, cols, dim: int) -> np.ndarray:
    """Connected component of each of ``dim`` nodes joined by the edges rows[i] -- cols[i].

    Labels run 0, 1, ... in the order of each component's smallest node.  Every
    round hooks the larger root of each edge onto the smaller one and then
    points every node at its root, so a component with several roots at least
    halves their number per round.
    """
    parent = np.arange(dim)
    while True:
        root_r, root_c = parent[rows], parent[cols]
        if np.array_equal(root_r, root_c):
            return np.unique(parent, return_inverse=True)[1]
        np.minimum.at(parent, np.maximum(root_r, root_c), np.minimum(root_r, root_c))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


class BlockPlan:
    """Spectrum of Hermitian matrices that vanish outside one fixed pattern, block by block.

    The matrix is ``dim`` x ``dim``, given by its values at (rows[i], cols[i]);
    every entry off the pattern is zero.  The blocks are the connected components
    (``component_labels``) of the nodes the pattern touches, renumbered 0, 1, ...,
    and blocks of one size are solved in one stacked ``eigvalsh`` call.  The plan
    (size groups and each value's place in its group's stack) is built once;
    ``eigvalsh`` then costs one scatter of the values plus the stacked solves and
    returns the blocks' eigenvalues group by group, unsorted.  The 1 x 1 group
    calls no solver: a block's eigenvalue is its value's real part, scattered to
    the block's place, which is exactly what LAPACK returns for one row.  Each of
    the ``untouched`` other nodes is an exact zero eigenvalue, counted and not
    stored.
    """

    def __init__(self, rows, cols, dim: int):
        touched, index = np.unique(np.concatenate((rows, cols)), return_inverse=True)
        rows, cols = index[: len(rows)], index[len(rows) :]
        self.untouched, dim = dim - len(touched), len(touched)
        labels = component_labels(rows, cols, dim)
        size = np.bincount(labels)[labels]  # per node, its component's size
        sizes, group, nodes = np.unique(size, return_inverse=True, return_counts=True)
        # nodes grouped by component, components of one size next to each other
        rank = np.empty(dim, dtype=np.intp)
        rank[np.lexsort((labels, size))] = np.arange(dim)
        slot = rank - np.concatenate(([0], np.cumsum(nodes)[:-1]))[group]
        block, pos = np.divmod(slot, size)
        row_start = (block * size + pos) * size  # per node, where its row starts in the stack
        # values grouped by block size; a stable sort of small integers is a radix sort
        entry_group = group[rows].astype(np.min_scalar_type(len(sizes)))
        self.order = np.argsort(entry_group, kind="stable")
        flat = row_start[rows[self.order]] + pos[cols[self.order]]
        bounds = np.searchsorted(entry_group[self.order], np.arange(len(sizes) + 1))
        self.groups = [
            (int(s), int(c), flat[lo:hi], lo, hi)
            for s, c, lo, hi in zip(sizes, nodes // sizes, bounds[:-1], bounds[1:])
        ]

    def eigvalsh(self, values) -> np.ndarray:
        """The blocks' eigenvalues, (..., eigs), of the matrices whose values are (..., entries).

        Leading axes stack matrices: each group's blocks of every matrix go to one solver
        call, which solves them one by one, so a stacked row is bitwise its own 1-D call.
        Values are indexed entries first (``.T``), which costs a 1-D call nothing.
        """
        values = np.asarray(values).T[self.order]
        lead = values.shape[:0:-1]
        eigs = [np.zeros(lead + (0,))]  # an all-zero matrix has no block
        for size, count, flat, lo, hi in self.groups:
            if size == 1:  # a 1 x 1 block's eigenvalue is its real part, as LAPACK returns it
                singles = np.zeros(lead + (count,), dtype=values.real.dtype)
                singles.T[flat] = values[lo:hi].real
                eigs.append(singles)
                continue
            blocks = np.zeros(lead + (count * size * size,), dtype=values.dtype)
            blocks.T[flat] = values[lo:hi]
            solved = np.linalg.eigvalsh(blocks.reshape(lead + (count, size, size)))
            eigs.append(solved.reshape(lead + (count * size,)))
        return np.concatenate(eigs, axis=-1)


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
    return dicke_state(n, 1)


def dicke_state(n: int, k: int) -> PureState:
    """Equal superposition of all weight-k basis strings (k excitations); k = 1 is W."""
    _require_qubit_count(n)
    if not 1 <= k <= n - 1:
        raise ValueError(f"excitation count must satisfy 1 <= k <= n-1, got k={k}")
    amp = np.zeros(2**n, dtype=complex)
    support = [sum(1 << bit for bit in bits) for bits in combinations(range(n), k)]
    amp[support] = 1.0 / sqrt(comb(n, k))
    return PureState(n=n, amplitudes=amp)


def density_from_pure(psi: PureState) -> DensityMatrix:
    """Rank-one density matrix |psi><psi|."""
    mat = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(n=psi.n, elements=mat, check_positivity=False)

