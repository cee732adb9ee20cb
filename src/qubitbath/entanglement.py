"""Bipartitions and logarithmic negativity for multiqubit density matrices.

Entanglement across a cut A|B is quantified by the logarithmic negativity

    E = log2 || rho^(T_A) ||_1,

computed from the eigenvalues of the (Hermitian) partial transpose
(Vidal & Werner, PRA 65, 032314 (2002)).  E is reported in ebits: a
maximally entangled two-level Schmidt pair gives 1.

``log_negativity`` takes the eigenvalues from one dense ``np.linalg.eigvalsh``
of the partial transpose: it is the reference that the engine's block route
is checked against, so it shares none of that route's code.  Along a
trajectory the pattern is fixed, so ``dynamics.evolve`` maps it through
``partial_transpose_indices`` once per cut into a ``states.BlockPlan`` and
then pays only the stacked block solves at each record (e.g. blocks of at
most 26 for W at n = 10 under dephasing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix

__all__ = [
    "Bipartition",
    "one_vs_rest",
    "highest_cut",
    "parse_cut_label",
    "partial_transpose",
    "partial_transpose_indices",
    "log2_trace_norm",
    "log_negativity",
]

CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class Bipartition:
    """A cut of n qubits into side_a (1-based indices) versus the rest.

    The canonical form keeps the smaller side in ``side_a``; for an even
    split the side containing qubit 1 is kept.
    """

    n: int
    side_a: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("a bipartition needs at least 2 qubits")
        side = tuple(sorted(set(int(q) for q in self.side_a)))
        if not side or len(side) >= self.n:
            raise ValueError("side_a must be a non-empty proper subset")
        if side[0] < 1 or side[-1] > self.n:
            raise ValueError(f"qubit indices must lie in 1..{self.n}, got {side}")
        object.__setattr__(self, "side_a", side)

    @property
    def side_b(self) -> tuple:
        return tuple(q for q in range(1, self.n + 1) if q not in self.side_a)

    def canonical(self) -> "Bipartition":
        a, b = self.side_a, self.side_b
        if len(a) < len(b):
            return self
        if len(b) < len(a):
            return Bipartition(self.n, b)
        return self if 1 in a else Bipartition(self.n, b)

    @property
    def label(self) -> str:
        cut = self.canonical()
        if cut.side_a == (1,):
            return "1-Rest"
        if cut.side_a == tuple(range(1, self.n // 2 + 1)):
            return "highest-cut"
        a = ",".join(str(q) for q in cut.side_a)
        b = ",".join(str(q) for q in cut.side_b)
        return "{" + a + "}|{" + b + "}"


def one_vs_rest(n: int) -> Bipartition:
    """Qubit 1 alone versus the remaining n-1 qubits."""
    return Bipartition(n, (1,))


def highest_cut(n: int) -> Bipartition:
    """The balanced cut: qubits 1..floor(n/2) versus the rest.

    For odd n the smaller side holds (n-1)/2 qubits.
    """
    if n < 3:
        raise ValueError("highest_cut is defined for n >= 3")
    return Bipartition(n, tuple(range(1, n // 2 + 1)))


def parse_cut_label(label: str, n: int) -> Bipartition:
    """Inverse of ``Bipartition.label`` for the supported string forms.

    In an explicit ``{A}|{B}`` label, B must be exactly the qubits of 1..n not in A.
    """
    label = label.strip()
    if label == "1-Rest":
        return one_vs_rest(n)
    if label == "highest-cut":
        return highest_cut(n)
    if label.startswith("{") and "|" in label:
        side_a, side_b = (
            [int(tok) for tok in side.strip().strip("{}").split(",") if tok.strip()]
            for side in label.split("|", 1)
        )
        cut = Bipartition(n, tuple(side_a))
        if sorted(side_b) != list(cut.side_b):
            raise ValueError(
                f"bipartition label {label!r}: side B must be {set(cut.side_b)}, "
                f"the qubits of 1..{n} not in side A"
            )
        return cut
    raise ValueError(f"unrecognised bipartition label: {label!r}")


def _as_matrix(rho) -> tuple:
    if isinstance(rho, DensityMatrix):
        return rho.elements, rho.n
    mat = np.asarray(rho, dtype=complex)
    n = int(round(np.log2(mat.shape[0])))
    if mat.shape != (2**n, 2**n):
        raise ValueError(f"not a 2^n x 2^n matrix: shape {mat.shape}")
    return mat, n


def partial_transpose(rho, cut: Bipartition) -> np.ndarray:
    """Transpose the side_a subsystem indices of rho; involutive and Hermitian.

    Qubit q (1-based, most significant bit first) corresponds to tensor axis
    q-1 on the row side and n+q-1 on the column side.
    """
    mat, n = _as_matrix(rho)
    if cut.n != n:
        raise ValueError(f"cut is for {cut.n} qubits but the state has {n}")
    tens = mat.reshape((2,) * (2 * n))
    for q in cut.side_a:
        tens = np.swapaxes(tens, q - 1, n + q - 1)
    return tens.reshape(2**n, 2**n)


def partial_transpose_indices(rows, cols, cut: Bipartition) -> tuple:
    """Where ``partial_transpose`` moves the entries at (rows[i], cols[i]).

    Qubit q is bit n - q of an index; the side_a bits trade places between
    row and column, so the offset rows ^ cols is kept.
    """
    mask = sum(1 << (cut.n - q) for q in cut.side_a)
    swap = (rows ^ cols) & mask
    return rows ^ swap, cols ^ swap


def log2_trace_norm(eigs) -> float:
    """log2 of sum |eigs| (the trace norm of a Hermitian matrix), clamped to >= 0.

    Values below 1e-12 are reported as exactly 0 so that separable states do
    not show phantom entanglement from eigensolver noise.
    """
    value = float(np.log2(np.abs(eigs).sum()))
    return 0.0 if value < CLAMP_TOL else value


def log_negativity(rho, cut: Bipartition) -> float:
    """log2 of the trace norm of the partial transpose (one dense eigensolve), clamped to >= 0."""
    return log2_trace_norm(np.linalg.eigvalsh(partial_transpose(rho, cut)))
