import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubitbath import (
    DensityMatrix,
    PureState,
    density_from_pure,
    dicke_state,
    ghz_state,
    w_state,
)
from qubitbath.states import BlockPlan, component_labels
from reference import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    embed_local_operator,
    hamming_distance_matrix,
    with_untouched_zeros,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def permute_qubits(amp: np.ndarray, perm) -> np.ndarray:
    """Relabel qubits of an amplitude vector by permuting index bits."""
    n = len(perm)
    tens = amp.reshape((2,) * n)
    return np.transpose(tens, perm).reshape(-1)


class TestGHZ:
    def test_single_qubit_degenerates_to_plus(self):
        amp = ghz_state(1).amplitudes
        assert np.allclose(amp, [INV_SQRT2, INV_SQRT2])

    def test_three_qubits(self):
        amp = ghz_state(3).amplitudes
        expected = np.zeros(8)
        expected[0] = expected[7] = INV_SQRT2
        assert np.allclose(amp, expected)

    def test_five_qubit_bipartite_decomposition(self):
        # across any 1-vs-4 cut the state reads (|0>|0000> + |1>|1111>)/sqrt(2)
        amp = ghz_state(5).amplitudes
        assert amp[0] == pytest.approx(INV_SQRT2)
        assert amp[0b11111] == pytest.approx(INV_SQRT2)
        assert np.count_nonzero(amp) == 2

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            ghz_state(0)


class TestW:
    def test_two_qubits(self):
        amp = w_state(2).amplitudes
        assert amp[1] == pytest.approx(INV_SQRT2)
        assert amp[2] == pytest.approx(INV_SQRT2)
        assert amp[0] == amp[3] == 0

    def test_three_qubits(self):
        amp = w_state(3).amplitudes
        for idx in (1, 2, 4):
            assert amp[idx] == pytest.approx(1.0 / math.sqrt(3.0))
        assert np.count_nonzero(amp) == 3

    def test_five_qubit_one_hot_support(self):
        amp = w_state(5).amplitudes
        support = {int(i) for i in np.flatnonzero(amp)}
        assert support == {1, 2, 4, 8, 16}
        assert np.allclose(amp[sorted(support)], 1.0 / math.sqrt(5.0))

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            w_state(1)


class TestDicke:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_single_excitation_equals_w(self, n):
        one_hot = np.zeros(2**n, dtype=complex)
        one_hot[[1 << i for i in range(n)]] = 1.0 / math.sqrt(n)
        assert np.array_equal(dicke_state(n, 1).amplitudes, one_hot)
        assert np.array_equal(w_state(n).amplitudes, one_hot)

    def test_two_of_four(self):
        amp = dicke_state(4, 2).amplitudes
        support = {int(i) for i in np.flatnonzero(amp)}
        assert support == {3, 5, 6, 9, 10, 12}
        assert np.allclose(amp[sorted(support)], 1.0 / math.sqrt(6.0))

    def test_three_of_four_is_bit_complement_of_w(self):
        amp = dicke_state(4, 3).amplitudes
        w_amp = w_state(4).amplitudes
        complement = np.array([w_amp[i ^ 0b1111] for i in range(16)])
        assert np.allclose(amp, complement)

    @pytest.mark.parametrize("n,k", [(3, 0), (3, 3), (5, 7)])
    def test_rejects_out_of_range_excitation(self, n, k):
        with pytest.raises(ValueError):
            dicke_state(n, k)

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=30, deadline=None)
    def test_support_size_and_uniformity(self, n, data):
        k = data.draw(st.integers(1, n - 1))
        amp = dicke_state(n, k).amplitudes
        support = np.flatnonzero(amp)
        assert len(support) == math.comb(n, k)
        assert np.allclose(amp[support], amp[support][0])

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_popcount_reference_bitwise(self, n):
        index = np.arange(2**n)
        popcount = sum((index >> bit) & 1 for bit in range(n))
        for k in range(1, n):
            want = np.where(popcount == k, 1.0 / math.sqrt(math.comb(n, k)), 0.0).astype(complex)
            assert dicke_state(n, k).amplitudes.tobytes() == want.tobytes()


@given(st.integers(2, 6), st.permutations(range(6)))
@settings(max_examples=40, deadline=None)
def test_ghz_and_w_are_permutation_symmetric(n, perm):
    perm = [p for p in perm if p < n]
    for psi in (ghz_state(n), w_state(n)):
        permuted = permute_qubits(psi.amplitudes, perm)
        assert np.abs(permuted - psi.amplitudes).max() < 1e-14


class TestDensityFromPure:
    def test_ghz2_entries(self):
        rho = density_from_pure(ghz_state(2)).elements
        for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
            assert rho[i, j] == pytest.approx(0.5)
        assert np.count_nonzero(rho) == 4

    def test_purity(self):
        for psi in (ghz_state(3), w_state(4), dicke_state(4, 2)):
            rho = density_from_pure(psi).elements
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12

    def test_w3_nonzero_entries(self):
        rho = density_from_pure(w_state(3)).elements
        nz = rho[np.abs(rho) > 0]
        assert np.allclose(nz, 1.0 / 3.0)


class TestEmbedLocalOperator:
    def test_sigma_z_on_first_of_two(self):
        op = embed_local_operator(PAULI_Z, 1, 2)
        assert np.allclose(op, np.diag([1, 1, -1, -1]))

    def test_sigma_x_on_second_of_two(self):
        op = embed_local_operator(PAULI_X, 2, 2)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = expected[2, 3] = expected[3, 2] = 1
        assert np.allclose(op, expected)

    def test_identity_embeds_to_identity(self):
        for site in (1, 2, 3):
            assert np.allclose(embed_local_operator(PAULI_I, site, 3), np.eye(8))

    def test_embedded_sigma_z_is_diagonal(self):
        op = embed_local_operator(PAULI_Z, 2, 3)
        assert np.abs(op - np.diag(np.diag(op))).max() == 0

    @pytest.mark.parametrize("site", [0, 4])
    def test_rejects_out_of_range_site(self, site):
        with pytest.raises(ValueError):
            embed_local_operator(PAULI_Z, site, 3)

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_distinct_sites_commute(self, n, data):
        s = data.draw(st.integers(1, n))
        t = data.draw(st.integers(1, n).filter(lambda q: q != s))
        paulis = [PAULI_X, PAULI_Y, PAULI_Z]
        a = embed_local_operator(data.draw(st.sampled_from(paulis)), s, n)
        b = embed_local_operator(data.draw(st.sampled_from(paulis)), t, n)
        assert np.abs(a @ b - b @ a).max() <= 1e-12


class TestValidation:
    def test_pure_state_must_be_normalised(self):
        with pytest.raises(ValueError, match="normalised"):
            PureState(1, np.array([1.0, 1.0]))

    def test_norm_check_allocates_no_per_index_array(self):
        # 2^20 amplitudes: one float per index would be 8 MiB
        amp = np.zeros(2**20, dtype=complex)
        amp[0] = amp[-1] = INV_SQRT2
        tracemalloc.start()
        try:
            psi = PureState(20, amp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert psi.amplitudes is amp
        assert peak < 2**16, peak

    def test_pure_state_length_must_match(self):
        with pytest.raises(ValueError, match="shape"):
            PureState(2, np.array([1.0, 0.0]))

    def test_density_matrix_must_be_hermitian(self):
        mat = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, mat)

    def test_density_matrix_must_have_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, np.eye(2, dtype=complex))

    def test_density_matrix_must_be_psd(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(1, mat)


def test_hamming_distance_matrix():
    d = hamming_distance_matrix(2)
    expected = np.array([[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]])
    assert np.array_equal(d, expected)


def planted_blocks(sizes, seed, pad=0):
    """Random Hermitian blocks of the given sizes plus ``pad`` all-zero rows and
    columns (at least one row in all), scattered by a random permutation."""
    rng = np.random.default_rng(seed)
    d = max(sum(sizes) + pad, 1)
    mat = np.zeros((d, d), dtype=complex)
    start = 0
    for size in sizes:
        a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        mat[start : start + size, start : start + size] = a + a.conj().T
        start += size
    perm = rng.permutation(d)
    return mat[np.ix_(perm, perm)]


@given(
    st.lists(st.sampled_from([1, 2, 3, 7, 16]), max_size=30),
    st.integers(0, 10),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
@example([], 0, 0)  # a 1x1 zero: one untouched node and no block
@example([], 128, 0)  # the all-zero matrix: nothing but untouched nodes
@example([1] * 130, 0, 1)
@example([2] * 70, 0, 2)
@example([3], 0, 3)  # one block, no untouched node
def test_block_plan_matches_dense(sizes, pad, seed):
    mat = planted_blocks(sizes, seed, pad)
    dense = np.linalg.eigvalsh(mat)
    rows, cols = np.nonzero(mat)
    plan = BlockPlan(rows, cols, len(mat))
    assert plan.untouched == len(mat) - sum(sizes)  # every planted row has a nonzero
    block = plan.eigvalsh(mat[rows, cols])
    assert block.shape == (sum(sizes),)  # the blocks' eigenvalues alone, no zero padding
    assert np.abs(with_untouched_zeros(plan, block) - dense).max() <= 1e-12


def stacked_eigvalsh(plan, values) -> np.ndarray:
    """``plan``'s spectrum with every size group, 1 x 1 ones too, sent to one stacked
    ``np.linalg.eigvalsh``: each value placed in its block by the plan's ``flat``."""
    values = np.asarray(values)[plan.order]
    eigs = [np.zeros(0)]
    for size, count, flat, lo, hi in plan.groups:
        blocks = np.zeros(count * size * size, dtype=values.dtype)
        blocks[flat] = values[lo:hi]
        eigs.append(np.linalg.eigvalsh(blocks.reshape(count, size, size)).ravel())
    return np.concatenate(eigs)


# signed zeros, subnormals and magnitudes near both ends of the float64 range
EXTREME_PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e300, -1e300, 1e-300, -1e-300]


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("seed", range(4))
def test_one_by_one_groups_match_stacked_eigvalsh(seed, dtype):
    rng = np.random.default_rng(seed)
    mat = planted_blocks([1] * 40 + [2] * 5 + [3] * 3, seed, pad=6)
    rows, cols = np.nonzero(mat)
    # entries out of node order, so a 1 x 1 group's entries do not come in its blocks' order
    shuffle = rng.permutation(len(rows))
    plan = BlockPlan(rows[shuffle], cols[shuffle], len(mat))
    assert [group[:2] for group in plan.groups] == [(1, 40), (2, 5), (3, 3)]

    def parts():
        scale = 10.0 ** rng.integers(-300, 301, len(rows))
        normal = rng.normal(size=len(rows)) * scale
        return np.where(rng.random(len(rows)) < 0.4, rng.choice(EXTREME_PARTS, len(rows)), normal)

    values = parts() + 1j * parts() if dtype is complex else parts()
    eigs, reference = plan.eigvalsh(values), stacked_eigvalsh(plan, values)
    assert (eigs.dtype, eigs.shape) == (reference.dtype, reference.shape) == (np.float64, (59,))
    assert eigs.tobytes() == reference.tobytes()


@given(
    st.lists(st.sampled_from([1, 2, 3, 5]), min_size=1, max_size=25),
    st.sampled_from([1, 3, 12]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
@example([1, 1, 2, 2, 4], 12, 0)  # 1 x 1, 2 x 2 and larger groups at once
@example([3], 3, 1)
def test_stacked_rows_match_one_row_calls(sizes, count, seed):
    mat = planted_blocks(sizes, seed, pad=3)
    rows, cols = np.nonzero(mat)
    plan = BlockPlan(rows, cols, len(mat))
    rng = np.random.default_rng(seed)
    # count Hermitian matrices on the one pattern, each with its own values there
    stack = []
    for _ in range(count):
        a = rng.normal(size=mat.shape) + 1j * rng.normal(size=mat.shape)
        stack.append((a + a.conj().T)[rows, cols])
    stack = np.array(stack)
    eigs = plan.eigvalsh(stack)
    assert (eigs.dtype, eigs.shape) == (np.float64, (count, sum(sizes)))
    for row, values in zip(eigs, stack, strict=True):
        assert row.tobytes() == plan.eigvalsh(values).tobytes()
    # more leading axes stack the same matrices
    assert plan.eigvalsh(stack.reshape(count, 1, -1)).tobytes() == eigs.tobytes()


def first_seen_order(labels) -> list:
    """Labels renumbered by first appearance: equal lists mean the same partition."""
    seen = {}
    return [seen.setdefault(label, len(seen)) for label in labels.tolist()]


@st.composite
def symmetric_patterns(draw):
    dim = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "empty", "singletons", "full"]))
    if kind == "random":
        density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.3]))
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        upper = np.triu(gen.random((dim, dim)) < density)
        mask = upper | upper.T
    elif kind == "empty":
        mask = np.zeros((dim, dim), dtype=bool)
    elif kind == "singletons":
        mask = np.eye(dim, dtype=bool)
    else:
        mask = np.ones((dim, dim), dtype=bool)
    return mask


@given(symmetric_patterns())
@settings(max_examples=200, deadline=None)
def test_component_labels_partition_matches_scipy(mask):
    csgraph = pytest.importorskip("scipy.sparse.csgraph")  # the reference only
    _, expected = csgraph.connected_components(mask.astype(np.int8), directed=False)
    labels = component_labels(*np.nonzero(mask), len(mask))
    assert first_seen_order(labels) == first_seen_order(expected)
    assert labels.max(initial=-1) + 1 == len(set(expected.tolist()))

