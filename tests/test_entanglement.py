import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitbath import (
    Bipartition,
    ConstantRate,
    IntegratorOptions,
    NoiseSpec,
    OhmicZeroTempRate,
    SinusoidalRate,
    analytic_state_at,
    density_from_pure,
    dicke_state,
    evolve,
    ghz_state,
    highest_cut,
    log_negativity,
    one_vs_rest,
    parse_cut_label,
    partial_transpose,
    w_state,
)
from qubitbath import states
from qubitbath.entanglement import log2_trace_norm
from qubitbath.states import DensityMatrix, PureState
from reference import DenseStepper, schmidt_log_negativity, symmetry_check

rng = np.random.default_rng(12345)


def random_density(n):
    d = 2**n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat = a @ a.conj().T
    return mat / np.trace(mat).real


def random_pure(n):
    amp = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(n, amp / np.linalg.norm(amp))


def haar_unitary(d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dephased_ghz(n, q):
    """GHZ density with the extreme coherences scaled by q."""
    rho = density_from_pure(ghz_state(n)).elements.copy()
    rho[0, -1] *= q
    rho[-1, 0] *= q
    return rho


class TestBipartition:
    def test_one_vs_rest(self):
        assert one_vs_rest(3).side_a == (1,)
        assert one_vs_rest(3).side_b == (2, 3)
        assert one_vs_rest(7).label == "1-Rest"
        assert one_vs_rest(2).side_b == (2,)

    def test_highest_cut(self):
        assert highest_cut(7).side_a == (1, 2, 3)
        assert highest_cut(7).side_b == (4, 5, 6, 7)
        assert highest_cut(4).side_a == (1, 2)
        assert highest_cut(3).side_a == one_vs_rest(3).side_a

    def test_canonical_keeps_smaller_side(self):
        cut = Bipartition(5, (2, 3, 4, 5)).canonical()
        assert cut.side_a == (1,)
        tied = Bipartition(4, (2, 4)).canonical()
        assert 1 in tied.side_a

    def test_labels(self):
        assert highest_cut(6).label == "highest-cut"
        assert Bipartition(5, (2, 4)).label == "{2,4}|{1,3,5}"

    def test_parse_round_trip(self):
        for label, n in (("1-Rest", 5), ("highest-cut", 7), ("{2,4}|{1,3,5}", 5)):
            assert parse_cut_label(label, n).label == label
        with pytest.raises(ValueError):
            parse_cut_label("nonsense", 4)

    @pytest.mark.parametrize(
        "label, n",
        [
            ("{1,2}|{3,4,5}", 3),  # B names qubits beyond n
            ("{1}|{3}", 3),  # B misses qubit 2
            ("{1}|{1,2,3}", 3),  # B overlaps A
            ("{2,4}|{1,3,3,5}", 5),  # B repeats a qubit
            ("{1}|{}", 3),
        ],
    )
    def test_parse_refuses_side_b_other_than_complement(self, label, n):
        with pytest.raises(ValueError, match="side B"):
            parse_cut_label(label, n)

    def test_rejects_bad_sides(self):
        with pytest.raises(ValueError):
            Bipartition(3, ())
        with pytest.raises(ValueError):
            Bipartition(3, (1, 2, 3))
        with pytest.raises(ValueError):
            Bipartition(3, (0,))


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        rho_a = random_density(1)
        rho_b = random_density(2)
        rho = np.kron(rho_a, rho_b)
        pt = partial_transpose(rho, Bipartition(3, (1,)))
        assert np.abs(pt - np.kron(rho_a.T, rho_b)).max() < 1e-14
        assert np.linalg.eigvalsh(pt).min() > -1e-12

    def test_bell_state_spectrum(self):
        rho = density_from_pure(ghz_state(2))
        pt = partial_transpose(rho, Bipartition(2, (1,)))
        eigs = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=25, deadline=None)
    def test_involution(self, n, data):
        m = data.draw(st.integers(1, n - 1))
        side = tuple(data.draw(st.permutations(range(1, n + 1)))[:m])
        cut = Bipartition(n, side)
        rho = random_density(n)
        assert np.abs(partial_transpose(partial_transpose(rho, cut), cut) - rho).max() < 1e-14

    def test_hermitian_and_unit_trace(self):
        rho = random_density(3)
        pt = partial_transpose(rho, Bipartition(3, (2,)))
        assert np.abs(pt - pt.conj().T).max() < 1e-14
        assert np.trace(pt).real == pytest.approx(1.0)

    def test_rejects_mismatched_cut(self):
        with pytest.raises(ValueError):
            partial_transpose(random_density(3), Bipartition(4, (1,)))


class TestLogNegativity:
    def test_ghz_is_one_ebit_on_every_cut(self):
        for n in range(2, 7):
            rho = density_from_pure(ghz_state(n))
            for m in range(1, n // 2 + 1):
                from itertools import combinations

                for side in combinations(range(1, n + 1), m):
                    value = log_negativity(rho, Bipartition(n, side))
                    assert abs(value - 1.0) < 1e-10

    def test_w3_one_vs_rest(self):
        value = log_negativity(density_from_pure(w_state(3)), one_vs_rest(3))
        assert value == pytest.approx(math.log2(1 + 2 * math.sqrt(2) / 3), abs=1e-12)

    def test_dephased_ghz_closed_form(self):
        # with extreme coherence q the trace norm is 1 + q on every cut
        for q in (0.0, 0.3, 0.9):
            rho = dephased_ghz(4, q)
            for cut in (one_vs_rest(4), highest_cut(4), Bipartition(4, (2, 4))):
                assert log_negativity(rho, cut) == pytest.approx(
                    math.log2(1 + q), abs=1e-12
                )

    def test_product_state_has_zero(self):
        rho = np.kron(random_density(1), random_density(2))
        assert log_negativity(rho, Bipartition(3, (1,))) == 0.0

    def test_local_unitary_invariance(self):
        psi = random_pure(4)
        rho = density_from_pure(psi).elements
        cut = Bipartition(4, (1, 3))
        base = log_negativity(rho, cut)
        u = np.kron(
            np.kron(haar_unitary(2), haar_unitary(2)),
            np.kron(haar_unitary(2), haar_unitary(2)),
        )
        rotated = u @ rho @ u.conj().T
        assert log_negativity(rotated, cut) == pytest.approx(base, abs=1e-9)

    def test_schmidt_cross_check_on_random_pure_states(self):
        for n in (2, 3, 4, 5):
            psi = random_pure(n)
            rho = density_from_pure(psi)
            for m in range(1, n // 2 + 1):
                cut = Bipartition(n, tuple(range(1, m + 1)))
                assert log_negativity(rho, cut) == pytest.approx(
                    schmidt_log_negativity(psi, cut), abs=1e-9
                )

    def test_w_one_vs_rest_closed_form(self):
        for n in range(3, 9):
            psi = w_state(n)
            expected = math.log2(1 + 2 * math.sqrt(n - 1) / n)
            assert log_negativity(density_from_pure(psi), one_vs_rest(n)) == pytest.approx(
                expected, abs=1e-9
            )
            assert schmidt_log_negativity(psi, one_vs_rest(n)) == pytest.approx(
                expected, abs=1e-9
            )

    def test_clamps_tiny_values_to_zero(self):
        rho = dephased_ghz(3, 1e-14)
        assert log_negativity(rho, one_vs_rest(3)) == 0.0


class TestSymmetryCheck:
    def test_ghz_and_w_are_symmetric(self):
        for maker in (ghz_state, w_state):
            rho = density_from_pure(maker(5))
            for m in (1, 2):
                assert symmetry_check(rho, m) <= 1e-10

    def test_asymmetric_state_is_detected(self):
        # product of a Bell pair on qubits (1, 2) with |0> elsewhere
        bell = ghz_state(2).amplitudes
        amp = np.kron(bell, np.array([1.0, 0.0, 0.0, 0.0]))
        rho = density_from_pure(PureState(4, amp))
        assert symmetry_check(rho, 1) > 0.5

    def test_rejects_bad_side_size(self):
        rho = density_from_pure(ghz_state(4))
        with pytest.raises(ValueError):
            symmetry_check(rho, 0)
        with pytest.raises(ValueError):
            symmetry_check(rho, 3)


def test_accepts_density_matrix_wrapper():
    rho = density_from_pure(ghz_state(3))
    assert isinstance(rho, DensityMatrix)
    assert log_negativity(rho, one_vs_rest(3)) == pytest.approx(1.0, abs=1e-10)


NOISES = {
    "fig5 pauli": NoiseSpec(
        "pauli",
        rate_z=SinusoidalRate(1.0),
        rate_x=ConstantRate(0.1),
        rate_y=ConstantRate(0.1),
        kappa=0.25,
    ),
    "ohmic dephasing": NoiseSpec("dephasing", rate_z=OhmicZeroTempRate(2.47), kappa=0.25),
}
FAMILIES = {"ghz": ghz_state, "w": w_state, "dicke": lambda n: dicke_state(n, 2)}


@given(
    st.sampled_from(sorted(FAMILIES)),
    st.sampled_from(sorted(NOISES)),
    st.integers(7, 8),
    st.sampled_from([0.5, 2.0, 6.0]),
    st.data(),
)
@settings(max_examples=15, deadline=None)
def test_engine_matches_dense_references_on_evolved_states(family, noise, n, t, data):
    side = data.draw(
        st.lists(st.integers(1, n), min_size=1, max_size=n - 1, unique=True), label="side_a"
    )
    cut = Bipartition(n, tuple(side))
    options = IntegratorOptions(observable_every=t, sample_every=t)
    trajectory = evolve(FAMILIES[family](n), NOISES[noise], t, [cut], options)
    assert np.array_equal(trajectory.times, trajectory.state_times)
    # the engine's block plans against one dense eigensolve per kept state
    dense = [log_negativity(state, cut) for state in trajectory.states]
    assert np.abs(trajectory.observable(cut.label) - dense).max() <= 1e-12
    lam_min = min(state.min_eigenvalue() for state in trajectory.states)
    assert abs(trajectory.metadata["min_eigenvalue"] - lam_min) <= 1e-12


def _block_route(*args, **kwargs):
    raise AssertionError("a dense reference reached the engine's block route")


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("family", ["ghz", "w"])
def test_references_are_independent_of_the_block_route(monkeypatch, family, n):
    """Every one-off spectrum is one dense eigensolve, whatever the engine's route does."""
    monkeypatch.setattr(states.BlockPlan, "eigvalsh", _block_route)
    monkeypatch.setattr(states, "component_labels", _block_route)
    psi, spec, cut = FAMILIES[family](n), NOISES["fig5 pauli"], highest_cut(n)

    def assert_dense_equal(mat, value, lam_min):
        dense = log2_trace_norm(np.linalg.eigvalsh(partial_transpose(mat, cut)))
        assert abs(value - dense) <= 1e-12
        assert abs(lam_min - np.linalg.eigvalsh(mat)[0]) <= 1e-12

    # perfbench's reference: the closed-form state, then log_negativity
    reference = analytic_state_at(density_from_pure(psi), spec, 2.0)
    checked = DensityMatrix(n, reference.elements)  # with the positivity check
    assert_dense_equal(reference.elements, log_negativity(checked, cut), checked.min_eigenvalue())
    assert log_negativity(reference, cut) > 0.0

    stepper = DenseStepper(psi, spec, 0.01, 20)
    stepper.advance(0, 20)
    (value,), lam_min = stepper.observe([cut], True)
    assert_dense_equal(stepper.current(), value, lam_min)
