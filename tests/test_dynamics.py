import contextlib
import functools
import gc
import itertools
import json
import math
import tracemalloc
import weakref
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubitbath
from qubitbath import (
    Bipartition,
    ConstantRate,
    IntegrationError,
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
    oracle_deviation,
    partial_transpose,
    w_state,
)
from qubitbath import cli, dynamics
from qubitbath.cli import main, sweep_experiment
from qubitbath.config import parse_config
from qubitbath.states import BlockPlan, DensityMatrix, PureState
from reference import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DenseStepper,
    class_and_dense,
    dense_engine,
    embed_local_operator,
    hamming_dephasing_map,
    lindblad_rhs,
    pauli_channel_reference,
    rebuilt_states,
    with_untouched_zeros,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs" / "paper"
rng = np.random.default_rng(99)

REVIVAL_RATES = dict(
    rate_z=SinusoidalRate(1.0), rate_x=ConstantRate(0.1), rate_y=ConstantRate(0.1)
)

# 1 where letter I, X, Y, Z anticommutes with sigma_x, sigma_y, sigma_z (rows)
ANTICOMMUTES = ((0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))

# noise settings for the class-vs-dense agreement property; it runs all of them,
# which reaches every stepper branch (z alone, one other axis, two axes, three axes)
AGREEMENT_NOISES = {
    "fig5-rates": dict(kind="pauli", **REVIVAL_RATES),
    "ohmic-dephasing": dict(kind="dephasing", rate_z=OhmicZeroTempRate(2.47)),
    "x-only": dict(kind="pauli", rate_z=ConstantRate(0.0), rate_x=SinusoidalRate(0.8)),
    "y-only": dict(kind="pauli", rate_z=ConstantRate(0.0), rate_y=ConstantRate(0.3)),
    "x-and-z": dict(kind="pauli", rate_z=SinusoidalRate(1.0), rate_x=ConstantRate(0.2)),
    "x-and-y": dict(
        kind="pauli",
        rate_z=ConstantRate(0.0),
        rate_x=ConstantRate(0.15),
        rate_y=SinusoidalRate(0.6),
    ),
}


def active_axes(spec):
    """Axes (0, 1, 2 for x, y, z) whose rate is not identically zero; z when none is."""
    models = (spec.rate_x, spec.rate_y, spec.rate_z)
    zero = [isinstance(m, ConstantRate) and m.gamma0 == 0.0 for m in models]
    return [a for a in range(3) if not zero[a]] or [2]


def full_letter_transform(mat, n, sign):
    """4^n reference: per site, t + sign * s * f(t) on the whole matrix.

    f flips the site's row and column bits and s = (1, -1) on its row bit; with sign +1
    a site's (row, column) bits 00, 01, 10, 11 hold Tr(P rho) for P = I, X, Y, Z times
    the phase 1, 1, i, -1, and sign -1 gives 2^n times the inverse.
    """
    tens = np.asarray(mat).reshape((2,) * (2 * n))
    for i in range(n):
        row_sign = np.array([1.0, -1.0]).reshape((1,) * i + (2,) + (1,) * (2 * n - 1 - i))
        tens = tens + (sign * row_sign) * np.flip(tens, axis=(i, n + i))
    return tens.reshape(mat.shape)


def reference_class_map(n, rows, cols, axes):
    """Class index of each entry (rows[i], cols[i]) and the class count, letter by letter.

    Site i of entry (r, c) holds letter 2 r_i + c_i (I, X, Y, Z, as in
    ``full_letter_transform``).  Its letters anticommuting with each axis are counted
    from ``ANTICOMMUTES``; equal counts on every axis of ``axes`` share a class,
    numbered in the order of their codes.
    """
    counts = np.zeros((3, len(rows)), dtype=np.intp)
    for i in range(n):
        counts += np.array(ANTICOMMUTES)[:, 2 * (rows >> i & 1) + (cols >> i & 1)]
    code = sum((n + 1) ** j * counts[axis] for j, axis in enumerate(axes))
    codes, inverse = np.unique(code, return_inverse=True)
    return inverse, len(codes)


def assert_reference_classes(stepper, n, spec):
    """The stepper's classes are the distinct letter codes over its own pattern."""
    pattern = stepper.pattern
    class_map, classes = reference_class_map(n, pattern.rows, pattern.cols, active_axes(spec))
    assert stepper.classes == classes
    assert np.array_equal(pattern.coeff_class, class_map)
    return class_map


def draw_state(family, n, data):
    """GHZ, W, Dicke(n, k) with a drawn k, or a random complex state with a drawn seed.

    The complex family has no qubit-permutation symmetry and no real amplitudes, so a
    wrong transposed qubit or a rebuild that returns rho^T shows.
    """
    if family == "ghz":
        return ghz_state(n)
    if family == "w":
        return w_state(n)
    if family == "dicke":
        return dicke_state(n, data.draw(st.integers(1, n - 1), label="k"))
    return random_pure(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")))


def assert_bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def random_density(n):
    d = 2**n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat = a @ a.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix(n, mat, check_positivity=False)


def random_pure(n, gen=rng):
    """Complex state with every amplitude nonzero: its pattern uses every offset."""
    amp = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
    return PureState(n, amp / np.linalg.norm(amp))


def reference_rhs(rho, t, spec, n):
    """Direct sum over embedded operators; the production rhs must match."""
    pref = spec.kappa / spec.omega0
    out = np.zeros((2**n, 2**n), dtype=complex)
    axes = [(PAULI_Z, spec.rate_z)]
    if spec.kind == "pauli":
        axes += [(PAULI_X, spec.rate_x), (PAULI_Y, spec.rate_y)]
    for sigma, model in axes:
        g = float(model.rate(t))
        for site in range(1, n + 1):
            op = embed_local_operator(sigma, site, n)
            out += pref * g * (op @ rho @ op - rho)
    return out


def permute_pure(psi: PureState, perm) -> PureState:
    amp = np.transpose(psi.amplitudes.reshape((2,) * psi.n), perm).ravel()
    return PureState(psi.n, amp)


def permute_density(mat: np.ndarray, perm) -> np.ndarray:
    n = len(perm)
    axes = list(perm) + [n + p for p in perm]
    return np.transpose(mat.reshape((2,) * (2 * n)), axes).reshape(mat.shape)


def class_and_dense_states(psi, spec, step, n_steps, steps):
    """rho after each count in ``steps``, rebuilt from the class engine, then from the dense
    reference, each stepper made for an ``n_steps`` run."""
    return [
        rebuilt_states(stepper(psi, spec, step, n_steps), steps)
        for stepper in (dynamics._ClassStepper, DenseStepper)
    ]


def fixed_blocks(steps):
    """Every class stepper built inside the context takes rate blocks of ``steps`` steps."""
    return mock.patch.multiple(dynamics, _BLOCK_STEPS=steps, _BLOCK_ENTRIES=0)


class TestNoiseSpec:
    def test_dephasing_requires_zero_transverse_rates(self):
        with pytest.raises(ValueError):
            NoiseSpec("dephasing", rate_z=ConstantRate(1.0), rate_x=ConstantRate(0.1))

    def test_kappa_whitelist(self):
        with pytest.raises(ValueError):
            NoiseSpec("dephasing", rate_z=ConstantRate(1.0), kappa=0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseSpec("amplitude", rate_z=ConstantRate(1.0))

    def test_dict_round_trip(self):
        spec = NoiseSpec("pauli", kappa=0.25, **REVIVAL_RATES)
        config = parse_config(
            {"state": {"family": "ghz", "n": 2}, "noise": asdict(spec), "time": {"t_max": 1.0}}
        )
        assert config.noise == spec
        assert parse_config(config.to_dict()) == config


class TestLindbladRhs:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_embedded_operator_reference(self, n):
        specs = [
            NoiseSpec("dephasing", rate_z=OhmicZeroTempRate(2.47), kappa=0.25),
            NoiseSpec("pauli", kappa=1.0, **REVIVAL_RATES),
        ]
        rho = random_density(n)
        for spec in specs:
            for t in (0.0, 0.7, 2.3):
                got = lindblad_rhs(rho, t, spec)
                want = reference_rhs(rho.elements, t, spec, n)
                assert np.abs(got - want).max() < 1e-13

    def test_dephasing_fixes_populations(self):
        diag = DensityMatrix(2, np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        spec = NoiseSpec("dephasing", rate_z=ConstantRate(0.8))
        assert np.abs(lindblad_rhs(diag, 1.0, spec)).max() == 0.0

    def test_single_qubit_plus_state_coherence_rate(self):
        plus = DensityMatrix(1, np.full((2, 2), 0.5, dtype=complex))
        g = 0.37
        spec = NoiseSpec("dephasing", rate_z=ConstantRate(g), kappa=1.0)
        rhs = lindblad_rhs(plus, 0.0, spec)
        assert rhs[0, 1] == pytest.approx(-g)
        assert rhs[0, 0] == 0.0

    def test_ghz_extreme_coherence_rate_quarter_convention(self):
        # three sites, each flipping the sign of the (0,7) coherence:
        # derivative = -2 * kappa * 3 * g * rho_07 = -(3/2) g rho_07 at kappa=1/4
        rho = density_from_pure(ghz_state(3))
        g = 0.9
        spec = NoiseSpec("dephasing", rate_z=ConstantRate(g), kappa=0.25)
        rhs = lindblad_rhs(rho, 0.0, spec)
        assert rhs[0, 7] == pytest.approx(-1.5 * g * rho.elements[0, 7])

    def test_time_dependent_rate_vanishes_at_zero(self):
        rho = density_from_pure(ghz_state(3))
        spec = NoiseSpec("dephasing", rate_z=OhmicZeroTempRate(2.47), kappa=0.25)
        assert np.abs(lindblad_rhs(rho, 0.0, spec)).max() == 0.0


class TestEvolve:
    def test_zero_rate_is_identity(self):
        psi = w_state(3)
        spec = NoiseSpec("dephasing", rate_z=ConstantRate(0.0))
        (rho,) = rebuilt_states(dynamics._ClassStepper(psi, spec, 0.01, 100), [100])
        assert np.abs(rho - density_from_pure(psi).elements).max() < 1e-14

    def test_single_qubit_constant_rate_solution(self):
        plus = PureState(1, np.full(2, math.sqrt(0.5)))
        g = 0.4
        spec = NoiseSpec("dephasing", rate_z=ConstantRate(g), kappa=1.0)
        (rho,) = rebuilt_states(DenseStepper(plus, spec, 0.01, 100), [100])
        assert rho[0, 1].real == pytest.approx(0.5 * math.exp(-2 * g), abs=1e-8)

    def test_matches_dephasing_oracle(self):
        spec = NoiseSpec("dephasing", rate_z=OhmicZeroTempRate(2.47), kappa=0.25)
        for engine in (contextlib.nullcontext, dense_engine):
            with engine():
                dev = oracle_deviation(ghz_state(3), spec, 10.0, step=0.01)
            assert dev < 1e-8

    def test_matches_pauli_oracle(self):
        spec = NoiseSpec("pauli", kappa=0.25, **REVIVAL_RATES)
        for engine in (contextlib.nullcontext, dense_engine):
            with engine():
                dev = oracle_deviation(ghz_state(3), spec, 10.0, step=0.01)
            assert dev < 1e-8

    def test_fast_and_dense_steppers_agree(self):
        spec = NoiseSpec("dephasing", rate_z=OhmicZeroTempRate(2.47), kappa=0.25)
        options = IntegratorOptions(step=0.02, sample_every=4.0)
        fast, dense = class_and_dense(lambda: evolve(w_state(4), spec, 4.0, options=options))
        assert fast.metadata["integrator"] == "rk4-pauli-classes"
        assert dense.metadata["integrator"] == "rk4-dense"
        assert fast.metadata["classes"] == 2  # W's Hamming distances 0 and 2
        assert fast.metadata["blocks"] == {"rho": [[4, 1]]}  # W's support, not all 16 indices
        assert dense.metadata["classes"] is dense.metadata["blocks"] is None
        (fast_rho,), (dense_rho,) = class_and_dense_states(w_state(4), spec, 0.02, 200, [200])
        assert np.abs(fast_rho - dense_rho).max() < 1e-13

    @given(
        family=st.sampled_from(["ghz", "w", "dicke", "complex"]),
        n=st.integers(2, 6),
        kappa=st.sampled_from([1.0, 0.25]),
        data=st.data(),
    )
    @settings(max_examples=10, deadline=None)
    def test_class_stepper_matches_dense(self, family, n, kappa, data):
        psi = draw_state(family, n, data)
        cuts = [one_vs_rest(n)] + ([highest_cut(n)] if n >= 3 else [])
        # 150 steps of 0.02 cross one block boundary with 128-step blocks, which these
        # class counts (at most 84) get only from a patch; the strides need not nest
        # (7 and 25 steps) and may be every step
        obs_every, sample_every = data.draw(
            st.sampled_from([(0.1, 0.5), (0.14, 0.5), (None, 1.0), (0.5, 0.3), (3.0, 3.0)]),
            label="intervals",
        )
        opts = dict(step=0.02, observable_every=obs_every, sample_every=sample_every)

        def points(every):
            stride = 1 if every is None else round(every / 0.02)
            return sorted({*range(0, 150, stride), 150})

        for spec_kwargs in AGREEMENT_NOISES.values():  # every stepper branch
            spec = NoiseSpec(kappa=kappa, **spec_kwargs)
            # evolve builds rho0 = |psi><psi| for the dense stepper only
            with fixed_blocks(128):
                fast, dense = class_and_dense(
                    lambda: evolve(psi, spec, 3.0, cuts=cuts, options=IntegratorOptions(**opts))
                )
                stepper = dynamics._ClassStepper(psi, spec, 0.02, 150)
                states = class_and_dense_states(psi, spec, 0.02, 150, points(sample_every))
            assert fast.metadata["integrator"] == "rk4-pauli-classes"
            assert_reference_classes(stepper, n, spec)
            assert fast.metadata["classes"] == stepper.classes
            assert fast.metadata["block_steps"] == 128
            for traj in (fast, dense):
                assert list(traj.times) == [0.02 * k for k in points(obs_every)]
            for a, b in zip(*states, strict=True):
                assert np.abs(a - b).max() <= 1e-13
            for label in fast.observables:
                assert np.abs(fast.observables[label] - dense.observables[label]).max() <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("axes", [(0, 1, 2), (0, 2), (0, 1), (0,), (1,), (2,)])
    def test_letter_transform_and_classes_match_pauli_strings(self, n, axes):
        # per site, (row, column) bits 00, 01, 10, 11 hold I, X, Y, Z with these phases
        letters = ((np.eye(2), 1.0), (PAULI_X, 1.0), (PAULI_Y, 1j), (PAULI_Z, -1.0))
        axis_rates = (0.1, 0.3, 0.7)
        d = 2**n
        gen = np.random.default_rng(n)
        mat = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
        forward = full_letter_transform(mat, n, 1.0)
        # the stepper's transform runs offset by offset: value o * d + a is entry (a, a ^ o)
        rows = np.tile(np.arange(d), d)
        cols = rows ^ np.repeat(np.arange(d), d)
        signs = [dynamics._axis_sign(i, n) for i in range(n)]
        stacked = np.zeros((d, d), dtype=complex)
        stacked[rows, cols] = dynamics._site_transform(mat[rows, cols], signs, inverse=False)
        assert np.array_equal(stacked, forward)
        inverse = np.zeros((d, d), dtype=complex)
        inverse[rows, cols] = dynamics._site_transform(forward[rows, cols], signs, inverse=True)
        assert np.array_equal(inverse, full_letter_transform(forward, n, -1.0))

        rates = [ConstantRate(axis_rates[a] if a in axes else 0.0) for a in range(3)]
        spec = NoiseSpec("pauli", rate_x=rates[0], rate_y=rates[1], rate_z=rates[2], kappa=0.25)
        psi = random_pure(n, gen)
        rho0 = density_from_pure(psi)
        stepper = dynamics._ClassStepper(psi, spec, 0.01, 1)
        pattern = stepper.pattern
        # psi has full support, so the pattern holds every entry
        assert len(pattern.rows) == d * d
        assert_reference_classes(stepper, n, spec)
        coeffs = 0.5**n * full_letter_transform(rho0.elements, n, 1.0)
        want_coeffs = coeffs if pattern.transform else rho0.elements
        assert np.array_equal(pattern.coeffs, want_coeffs[pattern.rows, pattern.cols])
        decay = np.zeros((d, d))
        # a class decays at sum_a rate_a * coefficient_a, its coefficients keying its column
        rates_at_zero = [model.rate(np.zeros(1))[0] for model in stepper.models]
        class_decay = [sum(r * c for r, c in zip(rates_at_zero, coeff)) for coeff in stepper.coeffs]
        decay[pattern.rows, pattern.cols] = np.array(class_decay)[pattern.coeff_class]
        for r, c in itertools.product(range(d), repeat=2):
            word = [2 * (r >> (n - 1 - i) & 1) + (c >> (n - 1 - i) & 1) for i in range(n)]
            op = functools.reduce(np.kron, [letters[p][0] for p in word])
            phase = np.prod([letters[p][1] for p in word])
            assert abs(forward[r, c] - phase * np.trace(op @ mat)) < 1e-13
            # y' = -(2 kappa / omega_0) sum_axes gamma_axis (letters anticommuting with it)
            want = -0.5 * sum(axis_rates[a] * ANTICOMMUTES[a][p] for a in axes for p in word)
            assert decay[r, c] == pytest.approx(want, abs=1e-15)
        # before any step the rebuild is the inverse of the forward map
        assert np.abs(rebuilt_states(stepper, [0])[0] - rho0.elements).max() <= 1e-15

    def test_interval_crossing_two_rate_blocks(self):
        # one recording interval of 3307 steps: two full 1536-step rate blocks (10
        # classes) and one that ends mid-block at t_max
        spec = NoiseSpec("pauli", kappa=0.25, **REVIVAL_RATES)
        psi = ghz_state(4)
        t_max, cuts = 33.07, [one_vs_rest(4), highest_cut(4)]
        options = IntegratorOptions(step=0.01, observable_every=t_max, sample_every=t_max)
        fast, dense = class_and_dense(lambda: evolve(psi, spec, t_max, cuts, options))
        assert fast.metadata["block_steps"] == 1536
        assert list(fast.times) == [0.0, 3307 * 0.01]
        (fast_rho,), (dense_rho,) = class_and_dense_states(psi, spec, 0.01, 3307, [3307])
        assert np.abs(fast_rho - dense_rho).max() <= 1e-13
        for label in fast.observables:
            assert np.abs(fast.observables[label] - dense.observables[label]).max() <= 1e-13
        dev = oracle_deviation(psi, spec, t_max, step=0.01, compare_every=t_max)
        assert dev < 1e-8

    def test_no_cuts_checks_positivity_only_at_sample_points(self, monkeypatch):
        records = []
        observe = dynamics._ClassStepper.observe

        def counted_observe(self, cuts, positivity):
            records.append((self.step, list(cuts), positivity))
            return observe(self, cuts, positivity)

        monkeypatch.setattr(dynamics._ClassStepper, "observe", counted_observe)
        spec = NoiseSpec("pauli", kappa=0.25, **REVIVAL_RATES)
        traj = evolve(
            w_state(3), spec, 2.0, options=IntegratorOptions(step=0.01)
        )
        assert list(traj.times) == [0.0, 2.0]
        assert records == [(0, [], True), (100, [], True), (200, [], True)]

    def test_interval_advance_equals_step_by_step(self):
        spec = NoiseSpec("pauli", kappa=0.25, **REVIVAL_RATES)
        psi = ghz_state(3)
        whole, stepwise = (dynamics._ClassStepper(psi, spec, 0.01, 4000) for _ in range(2))
        assert whole.block_steps == 1920  # 8 classes
        whole.advance(0, 5)
        whole.advance(5, 4000)  # from mid-block across two 1920-step rate blocks
        for j in range(4000):
            stepwise.advance(j, j + 1)
        assert np.array_equal(whole.factors, stepwise.factors)

    @pytest.mark.parametrize(
        "psi, spec, t_max",
        [
            (ghz_state(4), NoiseSpec("pauli", kappa=0.25, **REVIVAL_RATES), 20.0),
            (
                w_state(5),
                NoiseSpec("dephasing", rate_z=OhmicZeroTempRate(2.47), kappa=0.25),
                80.0,
            ),
        ],
        ids=["ghz4-fig5-rates", "w5-fig4-rates"],
    )
    def test_block_length_changes_no_bit(self, psi, spec, t_max):
        # each growth row depends on its own step's t alone, and the factors take
        # the rows one by one, so where the blocks end changes nothing
        n = psi.n
        options = IntegratorOptions(step=0.01, observable_every=0.05, sample_every=0.25)
        cuts = [one_vs_rest(n), highest_cut(n)]
        runs = {}
        for steps in (1, 7):
            with fixed_blocks(steps):
                runs[steps] = evolve(psi, spec, t_max, cuts=cuts, options=options)
        runs[None] = evolve(psi, spec, t_max, cuts=cuts, options=options)
        assert [runs[steps].metadata["block_steps"] for steps in (1, 7)] == [1, 7]
        assert runs[None].metadata["block_steps"] < round(t_max / 0.01)  # crosses a block
        reference = runs[1]
        for run in runs.values():
            assert np.array_equal(run.times, reference.times)
            for label, series in reference.observables.items():
                assert np.array_equal(run.observables[label], series)
            assert run.metadata["min_eigenvalue"] == reference.metadata["min_eigenvalue"]
        # rho itself at every sample point, rebuilt from steppers with those block lengths
        n_steps = round(t_max / 0.01)
        states = {}
        for steps in (1, 7, None):
            with fixed_blocks(steps) if steps else contextlib.nullcontext():
                stepper = dynamics._ClassStepper(psi, spec, 0.01, n_steps)
            states[steps] = rebuilt_states(stepper, range(0, n_steps + 1, 25))
        for rebuilt in states.values():
            for state, want in zip(rebuilt, states[1], strict=True):
                assert np.array_equal(state, want)
        # and each row is its own step's: rows one step off in t agree with each
        # other but not with the closed form
        with fixed_blocks(1):
            assert oracle_deviation(psi, spec, t_max, 0.01, t_max) < 1e-8

    @pytest.mark.parametrize(
        "stem, psi, classes, block_steps",
        [
            ("fig5_ghz_n7_depolarising", ghz_state(7), 16, 960),  # 15360 // 16
            ("fig4_w_dephasing_sweep", w_state(10), 2, 7680),
            ("fig5_w_n5_depolarising", w_state(8), 30, 512),
            # full support uses every letter-count triple: over 120 classes, no shorter
            ("fig5_w_n5_depolarising", random_pure(8, np.random.default_rng(8)), 165, 128),
        ],
        ids=["ghz7-fig5", "w10-fig4", "w8-fig5", "complex8-fig5"],
    )
    def test_block_steps_rule(self, stem, psi, classes, block_steps):
        payload = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
        payload.pop("sweep", None)
        traj = evolve(psi, parse_config(payload).noise, 0.01)
        assert traj.metadata["classes"] == classes
        assert traj.metadata["block_steps"] == block_steps

    @given(
        family=st.sampled_from(["ghz", "w", "dicke", "complex"]),
        n=st.integers(2, 8),
        noise=st.sampled_from(sorted(AGREEMENT_NOISES)),
        kappa=st.sampled_from([1.0, 0.25]),
        steps=st.integers(0, 150),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_plans_match_rebuilt_state(self, family, n, noise, kappa, steps, data):
        psi = draw_state(family, n, data)
        side = data.draw(
            st.lists(st.integers(1, n), min_size=1, max_size=n - 1, unique=True), label="side_a"
        )
        cut = Bipartition(n, tuple(side))
        spec = NoiseSpec(kappa=kappa, **AGREEMENT_NOISES[noise])
        rho0 = density_from_pure(psi)
        stepper = dynamics._ClassStepper(psi, spec, 0.02, 150)
        (mat,) = rebuilt_states(stepper, [steps])
        # the full-matrix rebuild from rho0: the pattern misses no entry, and the
        # per-offset transform does the same arithmetic; off the pattern the
        # coefficients are exact zeros, whatever factor scales them
        class_map = assert_reference_classes(stepper, n, spec)
        scaled = np.ones((2**n, 2**n))
        pattern = stepper.pattern
        scaled[pattern.rows, pattern.cols] = stepper.factors[class_map]
        if pattern.transform:
            coeffs = 0.5**n * full_letter_transform(rho0.elements, n, 1.0)
            assert np.array_equal(mat, full_letter_transform(coeffs * scaled, n, -1.0))
        else:
            assert np.array_equal(mat, rho0.elements * scaled)

        (value,), lam_min = stepper.observe([cut], True)
        assert abs(value - log_negativity(mat, cut)) <= 1e-13
        assert abs(lam_min - np.linalg.eigvalsh(mat)[0]) <= 1e-13
        # every block, not only the extremes: a dropped block shortens the spectrum
        for plan_cut, reference in ((None, mat), (cut, partial_transpose(mat, cut))):
            plan = pattern.plan(plan_cut)
            spectrum = with_untouched_zeros(plan, plan.eigvalsh(stepper.values()))
            assert spectrum.shape == (2**n,)
            assert np.abs(spectrum - np.linalg.eigvalsh(reference)).max() <= 1e-13

    @pytest.mark.parametrize("dense", [False, True])
    def test_evolve_builds_no_density_matrix(self, monkeypatch, dense):
        built = []
        post_init = DensityMatrix.__post_init__

        def counted_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted_post_init)
        spec = NoiseSpec("pauli", kappa=0.25, **REVIVAL_RATES)
        options = IntegratorOptions(step=0.01, sample_every=0.5)  # five sample points
        with dense_engine() if dense else contextlib.nullcontext():
            traj = evolve(w_state(3), spec, 2.0, cuts=[one_vs_rest(3)], options=options)
        assert len(traj.times) == 201
        assert len(built) == dense  # the dense stepper wraps rho0 once
        assert -1e-12 < traj.metadata["min_eigenvalue"] < 1e-12

    def test_fourth_order_convergence(self):
        spec = NoiseSpec("dephasing", rate_z=OhmicZeroTempRate(2.47), kappa=1.0)
        with dense_engine():
            devs = [
                oracle_deviation(ghz_state(3), spec, 10.0, step=h)
                for h in (0.08, 0.04)
            ]
        assert devs[0] / devs[1] >= 8.0

    def test_observable_recording(self):
        spec = NoiseSpec("dephasing", rate_z=OhmicZeroTempRate(2.47), kappa=0.25)
        traj = evolve(
            ghz_state(4),
            spec,
            2.0,
            cuts=[one_vs_rest(4), highest_cut(4)],
            options=IntegratorOptions(step=0.01, observable_every=0.5, sample_every=1.0),
        )
        assert list(traj.times) == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert set(traj.observables) == {"1-Rest", "highest-cut"}
        for series in traj.observables.values():
            assert len(series) == len(traj.times)
            assert series[0] == pytest.approx(1.0, abs=1e-10)
            assert np.all(np.diff(series) < 0)  # early-time decay

    def test_trajectory_state_invariants(self):
        spec = NoiseSpec("pauli", kappa=0.25, **REVIVAL_RATES)
        traj = evolve(
            ghz_state(3),
            spec,
            5.0,
            options=IntegratorOptions(step=0.01, sample_every=1.0),
        )
        stepper = dynamics._ClassStepper(ghz_state(3), spec, 0.01, 500)
        for rho in rebuilt_states(stepper, range(0, 501, 100)):
            assert abs(np.trace(rho).real - 1.0) < 1e-9
            assert np.abs(rho - rho.conj().T).max() < 1e-9
        assert traj.metadata["max_trace_drift"] <= 1e-9
        assert traj.metadata["min_eigenvalue"] >= -1e-8

    def test_trace_drift_is_measured(self, monkeypatch):
        # the populations' class (d = 0) grows by 1 + 1e-9 per step: the trace drifts by
        # about 1e-7 over 100 steps, which a declared 0.0 would not show
        real = dynamics._rk4_growth

        def drifting(stages, h, coeffs):
            growth = np.array(real(stages, h, coeffs))
            growth[:, [not any(coeff) for coeff in coeffs]] *= 1.0 + 1e-9
            return growth

        monkeypatch.setattr(dynamics, "_rk4_growth", drifting)
        clear_growth_memos()
        try:
            traj = evolve(w_state(4), fig4_spec(), 1.0, options=IntegratorOptions(step=0.01))
        finally:
            clear_growth_memos()
        assert traj.metadata["max_trace_drift"] > 1e-9

    def test_permutation_covariance(self):
        spec = NoiseSpec("pauli", kappa=0.25, **REVIVAL_RATES)
        psi = random_pure(3)
        perm = (2, 0, 1)
        (evolved,), (permuted,) = (
            rebuilt_states(dynamics._ClassStepper(start, spec, 0.02, 100), [100])
            for start in (psi, permute_pure(psi, perm))
        )
        assert np.abs(permute_density(evolved, perm) - permuted).max() < 1e-12

    def test_rejects_misaligned_grid(self):
        psi = ghz_state(2)
        spec = NoiseSpec("dephasing", rate_z=ConstantRate(0.1))
        with pytest.raises(ValueError):
            evolve(psi, spec, 1.005, options=IntegratorOptions(step=0.01))
        with pytest.raises(ValueError):
            evolve(psi, spec, 1.0, options=IntegratorOptions(step=0.01, sample_every=0.3333))

    def test_rejects_mismatched_cut(self):
        spec = NoiseSpec("dephasing", rate_z=ConstantRate(0.1))
        with pytest.raises(ValueError):
            evolve(ghz_state(2), spec, 1.0, cuts=[one_vs_rest(3)])

    @staticmethod
    def _unstable_run():
        # |0><0| relaxes on the Bloch z axis at rate 2(gamma_x + gamma_y);
        # with lambda * h = 15 the RK4 update amplifies instead of damping
        spec = NoiseSpec(
            "pauli",
            rate_z=ConstantRate(0.0),
            rate_x=ConstantRate(30.0),
            rate_y=ConstantRate(0.0),
            kappa=1.0,
        )
        ground = PureState(1, np.array([1.0, 0.0]))
        evolve(ground, spec, 10.0, options=IntegratorOptions(step=0.5, sample_every=0.5))

    def test_unstable_step_raises_diagnostic(self):
        with pytest.raises(IntegrationError, match="lost positivity"):
            self._unstable_run()


def fig4_spec(s=2.47, kappa=0.25):
    return NoiseSpec("dephasing", rate_z=OhmicZeroTempRate(s), kappa=kappa)


def held_pattern():
    """The one pattern that the last class-engine run left held."""
    (pattern,) = dynamics._last_pattern.values()
    return pattern


def cold_evolve(*args, **kwargs):
    dynamics._last_pattern.clear()
    return evolve(*args, **kwargs)


def assert_same_trajectory(a, b):
    assert_bitwise_equal(a.times, b.times)
    assert a.observables.keys() == b.observables.keys()
    for label, series in a.observables.items():
        assert_bitwise_equal(series, b.observables[label])
    assert a.metadata == b.metadata


class TestPatternReuse:
    """Runs with the same psi and active axes share one pattern and its block plans."""

    OPTIONS = IntegratorOptions(step=0.01, observable_every=0.05, sample_every=0.5)

    def test_cells_of_one_n_share_pattern_and_plans(self):
        # fig4-style cells in sweep order (s inner), then a kappa change
        psi, cuts = w_state(6), [one_vs_rest(6), highest_cut(6)]
        specs = [fig4_spec(s) for s in (2.0, 2.47, 3.0)] + [fig4_spec(3.0, kappa=1.0)]
        dynamics._last_pattern.clear()
        runs = []
        for spec in specs:
            traj = evolve(psi, spec, 3.0, cuts, self.OPTIONS)
            runs.append((traj, held_pattern(), dict(held_pattern().plans)))
        _, first, first_plans = runs[0]
        assert len(first_plans) == 3  # both cuts and rho
        for (traj, pattern, plans), spec in zip(runs, specs):
            assert pattern is first
            assert plans.keys() == first_plans.keys()
            assert all(plans[cut] is plan for cut, plan in first_plans.items())
            assert_same_trajectory(traj, cold_evolve(psi, spec, 3.0, cuts, self.OPTIONS))

    @pytest.mark.parametrize(
        "first, second",
        [
            ((w_state(5), fig4_spec()), (w_state(6), fig4_spec())),
            # full support both times: only the amplitudes differ
            (
                (random_pure(4, np.random.default_rng(1)), NoiseSpec("pauli", **REVIVAL_RATES)),
                (random_pure(4, np.random.default_rng(2)), NoiseSpec("pauli", **REVIVAL_RATES)),
            ),
            (
                (ghz_state(4), fig4_spec()),
                (ghz_state(4), NoiseSpec("pauli", kappa=0.25, **REVIVAL_RATES)),
            ),
        ],
        ids=["n", "amplitudes", "axes"],
    )
    def test_new_pattern_when_key_changes(self, first, second):
        dynamics._last_pattern.clear()
        runs = []
        for psi, spec in (first, second):
            traj = evolve(psi, spec, 2.0, [one_vs_rest(psi.n)], self.OPTIONS)
            runs.append((traj, held_pattern()))
        assert runs[1][1] is not runs[0][1]
        psi, spec = second
        assert_same_trajectory(
            runs[1][0], cold_evolve(psi, spec, 2.0, [one_vs_rest(psi.n)], self.OPTIONS)
        )

    def test_plans_stack_only_touched_nodes(self):
        n = 12
        stepper = dynamics._ClassStepper(ghz_state(n), fig4_spec(), 0.01, 300)
        (mat,) = rebuilt_states(stepper, [300])
        for cut in (None, one_vs_rest(n), highest_cut(n)):
            reference = mat if cut is None else partial_transpose(mat, cut)
            touched = np.flatnonzero(np.abs(reference).sum(axis=0))
            plan = stepper.pattern.plan(cut)
            assert sum(size * count for size, count, *_ in plan.groups) == len(touched) <= 4
            assert plan.untouched == 2**n - len(touched)
            spectrum = plan.eigvalsh(stepper.values())
            assert spectrum.shape == (len(touched),)  # no 2^n zero padding
            # every other row and column of the reference is zero, so its dense spectrum
            # is that of the touched rows and columns plus zeros (a 4096^2 solve takes 18 s)
            dense = np.sort(
                np.concatenate(
                    (
                        np.linalg.eigvalsh(reference[np.ix_(touched, touched)]),
                        np.zeros(2**n - len(touched)),
                    )
                )
            )
            assert np.abs(with_untouched_zeros(plan, spectrum) - dense).max() <= 1e-13

    @pytest.mark.parametrize("state", [w_state, ghz_state], ids=["w", "ghz"])
    def test_plans_and_observe_build_no_dim_array(self, state):
        n = 16
        psi, cuts = state(n), [one_vs_rest(n), highest_cut(n)]
        dynamics._last_pattern.clear()  # pattern and plans built here, not reused
        tracemalloc.start()
        try:
            stepper = dynamics._ClassStepper(psi, fig4_spec(), 0.01, 300)
            for cut in [None, *cuts]:
                stepper.pattern.plan(cut)
            build = tracemalloc.get_traced_memory()[1]
            stepper.advance(0, 300)
            tracemalloc.reset_peak()
            stepper.observe(cuts, True)
            observe = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float64 array of 2^16 entries is 512 KiB
        assert build < 256 * 2**10 and observe < 256 * 2**10, (build, observe)

    def test_dropped_pattern_leaves_nothing_per_qubit_count(self):
        # a W pattern is n^2 entries, psi alone is 2^n; W at n = 21 is 32 MiB of psi
        options = IntegratorOptions(step=0.01)
        dynamics._last_pattern.clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for n in (18, 20, 21):
                evolve(w_state(n), fig4_spec(), 0.1, [one_vs_rest(n)], options)
            dynamics._last_pattern.clear()
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert held < 2**20, held


def count_plan_solves(monkeypatch) -> list:
    """One entry per ``BlockPlan.eigvalsh`` call from here on."""
    calls = []
    real = BlockPlan.eigvalsh

    def counting(plan, values):
        calls.append(plan)
        return real(plan, values)

    monkeypatch.setattr(BlockPlan, "eigvalsh", counting)
    return calls


def rho0_record(psi, spec, cuts, positivity=True) -> tuple:
    """A fresh stepper's record at step 0: E per cut, lambda_min and the trace drift."""
    stepper = dynamics._ClassStepper(psi, spec, 0.01, 100)
    stepper.advance(0, 0)
    values, lam_min = stepper.observe(cuts, positivity)
    return values, lam_min, stepper.max_trace_drift


def assert_same_record(a, b):
    (values_a, lam_a, drift_a), (values_b, lam_b, drift_b) = a, b
    assert_bitwise_equal(values_a, values_b)
    assert (lam_a is None) == (lam_b is None)
    if lam_a is not None:
        assert_bitwise_equal(lam_a, lam_b)
    assert_bitwise_equal(drift_a, drift_b)


PAULI_GHZ = NoiseSpec("pauli", kappa=0.25, **REVIVAL_RATES)


class TestInitialRecord:
    """rho0's record (t = 0) depends on the pattern and the cuts alone: it is solved once
    per pattern and served bitwise to every later run from the same psi."""

    OPTIONS = IntegratorOptions(step=0.01, observable_every=0.5, sample_every=1.0)

    def test_sweep_solves_rho0_once_per_n(self, tmp_path, monkeypatch):
        payload = paper_payload("fig4_w_dephasing_sweep")
        payload["sweep"]["axes"] = {"n": [4, 5], "s": [2.0, 2.47, 3.0]}
        calls = count_plan_solves(monkeypatch)
        dynamics._last_pattern.clear()
        sweep_experiment(parse_config(payload), str(tmp_path), workers=1)
        # per n: rho0 once, then the 3 cells' snapshots as one stack; each solves 2 cuts and rho
        assert len(calls) == 2 * (1 + 1) * 3

    @pytest.mark.parametrize(
        "psi, spec, other",
        [
            (w_state(6), fig4_spec(), fig4_spec(s=3.0, kappa=1.0)),
            (ghz_state(5), PAULI_GHZ, NoiseSpec("pauli", **REVIVAL_RATES)),
            (
                random_pure(4, np.random.default_rng(3)),
                NoiseSpec("pauli", **REVIVAL_RATES),
                PAULI_GHZ,
            ),
        ],
        ids=["w6-dephasing", "ghz5-pauli", "random4-pauli"],
    )
    def test_served_record_equals_cold_record(self, psi, spec, other, monkeypatch):
        # other rates on the same axes: the same pattern, so the second run is served rho0
        cuts = [one_vs_rest(psi.n), highest_cut(psi.n)]
        dynamics._last_pattern.clear()
        evolve(psi, other, 1.0, cuts, self.OPTIONS)  # solves and holds rho0's record
        calls = count_plan_solves(monkeypatch)
        served = evolve(psi, spec, 1.0, cuts, self.OPTIONS)
        assert len(calls) == 2 + 3  # t = 0.5: both cuts; t = 1: both cuts and rho
        served_record = rho0_record(psi, spec, cuts)
        assert len(calls) == 5
        cold = cold_evolve(psi, spec, 1.0, cuts, self.OPTIONS)
        assert_same_trajectory(served, cold)
        for key in ("min_eigenvalue", "max_trace_drift"):
            assert_bitwise_equal(served.metadata[key], cold.metadata[key])
        dynamics._last_pattern.clear()
        assert_same_record(served_record, rho0_record(psi, spec, cuts))

    def test_other_cuts_get_their_own_record(self):
        psi, spec = w_state(6), fig4_spec()
        dynamics._last_pattern.clear()
        rho0_record(psi, spec, [one_vs_rest(6)])
        served = rho0_record(psi, spec, [highest_cut(6)])
        dynamics._last_pattern.clear()
        cold = rho0_record(psi, spec, [highest_cut(6)])
        assert_same_record(served, cold)
        assert cold[0] != rho0_record(psi, spec, [one_vs_rest(6)])[0]  # the cuts tell apart

    def test_positivity_gets_its_own_record(self):
        psi, spec, cuts = ghz_state(5), PAULI_GHZ, [one_vs_rest(5)]
        dynamics._last_pattern.clear()
        without = rho0_record(psi, spec, cuts, positivity=False)
        served = rho0_record(psi, spec, cuts, positivity=True)
        assert without[1] is None and without[2] == 0.0
        dynamics._last_pattern.clear()
        assert_same_record(served, rho0_record(psi, spec, cuts, positivity=True))
        assert served[1] is not None
        assert_same_record(without, rho0_record(psi, spec, cuts, positivity=False))

    def test_other_n_drops_the_old_record(self):
        dynamics._last_pattern.clear()
        evolve(w_state(5), fig4_spec(), 1.0, [one_vs_rest(5)], self.OPTIONS)
        old = weakref.ref(held_pattern())
        assert list(old().initial) == [((one_vs_rest(5),), True)]
        evolve(w_state(6), fig4_spec(), 1.0, [one_vs_rest(6)], self.OPTIONS)
        gc.collect()
        assert old() is None  # the old pattern, and its record with it, is gone
        assert list(held_pattern().initial) == [((one_vs_rest(6),), True)]


OHMIC_PAULI = [
    NoiseSpec("pauli", kappa=0.25, **dict(REVIVAL_RATES, rate_z=OhmicZeroTempRate(s)))
    for s in (2.0, 3.0)
]


class TestSweepSnapshots:
    """A state's cells, solved as one stack per plan, record bitwise what ``evolve`` records
    at the snapshot."""

    @pytest.mark.parametrize("stack_bytes", [dynamics._STACK_BYTES, 1], ids=["one-stack", "rows"])
    @pytest.mark.parametrize(
        "psi, specs",
        [
            (w_state(5), [fig4_spec(s, kappa) for kappa in (0.25, 1.0) for s in (2.0, 2.47, 3.0)]),
            (
                random_pure(4, np.random.default_rng(4)),
                [PAULI_GHZ, NoiseSpec("pauli", **REVIVAL_RATES), *OHMIC_PAULI],
            ),
        ],
        ids=["w5-dephasing", "random4-pauli"],
    )
    def test_matches_evolve_bitwise(self, psi, specs, stack_bytes, monkeypatch):
        monkeypatch.setattr(dynamics, "_STACK_BYTES", stack_bytes)
        cuts = [one_vs_rest(psi.n), highest_cut(psi.n)]
        dynamics._last_pattern.clear()
        calls = count_plan_solves(monkeypatch)
        t, outcomes = dynamics.sweep_snapshots(psi, specs, 1.5, cuts, 0.01)
        # both cuts and rho: rho0 once, then one stacked solve per chunk of snapshots
        chunks = len(specs) if stack_bytes == 1 else 1
        assert len(calls) == 3 * (1 + chunks)
        options = IntegratorOptions(step=0.01, observable_every=1.5, sample_every=1.5)
        for spec, (record, seconds) in zip(specs, outcomes, strict=True):
            trajectory = cold_evolve(psi, spec, 1.5, cuts, options)
            assert_bitwise_equal(t, trajectory.times[-1])
            assert record.keys() == trajectory.observables.keys()
            for label, series in trajectory.observables.items():
                assert_bitwise_equal(record[label], series[-1])
            assert seconds > 0

    def test_specs_must_share_active_axes(self):
        specs = [fig4_spec(), NoiseSpec("pauli", **REVIVAL_RATES)]
        with pytest.raises(ValueError, match="share their active axes"):
            dynamics.sweep_snapshots(w_state(4), specs, 1.0, [one_vs_rest(4)], 0.01)


def paper_payload(stem: str) -> dict:
    return json.loads((CONFIG_DIR / f"{stem}.json").read_text())


def clear_growth_memos():
    dynamics._factor_table.cache_clear()
    dynamics._stage_rates.cache_clear()


def count_growth_tables(monkeypatch) -> list:
    """The coefficient tuples of every growth table the memo computes from here on."""
    computed = []
    real = dynamics._rk4_growth

    def counting(stages, h, coeffs):
        computed.append(coeffs)
        return real(stages, h, coeffs)

    monkeypatch.setattr(dynamics, "_rk4_growth", counting)
    return computed


def held_tables() -> int:
    return dynamics._factor_table.cache_info().currsize


def held_rates() -> int:
    return dynamics._stage_rates.cache_info().currsize


def fig4_rates(stop: int, model=OhmicZeroTempRate(2.47)):
    """The memo's stage rows of a fig4-rate block of steps 0..stop-1 at step 0.01."""
    return dynamics._stage_rates(model, 0.01, 0, stop)


def table_of(model, stop=100, coeffs=((-1.0,),)):
    """The memo's factor table of a one-model block of steps 0..stop-1 at step 0.01."""
    return dynamics._factor_table((model,), 0.01, 0, stop, coeffs, (1.0,) * len(coeffs))


def run_groups(jobs) -> list:
    """(cell, rows, failure) of each (cell, cell config) pair, the cells of each state run as
    one group as a sweep runs them, in the order of ``jobs``."""
    groups = {}
    for index, (_, job) in enumerate(jobs):
        groups.setdefault(job.state, []).append(index)
    results = [None] * len(jobs)
    for state, indices in groups.items():
        group_results = cli._run_sweep_group((state.build(), [jobs[i] for i in indices]))
        for index, result in zip(indices, group_results, strict=True):
            results[index] = result[:3]
    return results


def cold_cell(job):
    """A sweep cell's rows, run alone, with the growth memos and the held pattern cleared."""
    clear_growth_memos()
    dynamics._last_pattern.clear()
    return run_groups([job])[0]


class TestGrowthMemo:
    """Runs share each rate block's stage rates, and runs whose classes have the same
    coefficients its RK4 growth table."""

    OPTIONS = IntegratorOptions(step=0.01, observable_every=0.5, sample_every=1.5)

    def test_sweep_evaluates_each_s_once(self, tmp_path, monkeypatch):
        payload = paper_payload("fig4_w_dephasing_sweep")
        payload["sweep"]["axes"] = {"n": [3, 4, 5, 6], "s": [2.0, 2.47, 3.0]}
        calls = []
        real_rate = OhmicZeroTempRate.rate

        def counting_rate(model, t):
            calls.append(model.s)
            return real_rate(model, t)

        monkeypatch.setattr(OhmicZeroTempRate, "rate", counting_rate)
        computed = count_growth_tables(monkeypatch)
        clear_growth_memos()
        sweep_experiment(parse_config(payload), str(tmp_path), workers=1)
        # one block of 3000 steps per cell (t = 30), three stage rows per block
        assert sorted(calls) == [2.0] * 3 + [2.47] * 3 + [3.0] * 3
        # W's classes are d = 0 and d = 2 at every n: -2 kappa d / omega0 = -0.0 and -1.0
        assert computed == [((-0.0,), (-1.0,))] * 3
        assert held_tables() == held_rates() == 3

    def test_memo_cell_matches_cleared_memo(self, monkeypatch):
        psi, cuts = w_state(6), [one_vs_rest(6), highest_cut(6)]
        clear_growth_memos()
        evolve(w_state(5), fig4_spec(), 3.0, [one_vs_rest(5)], self.OPTIONS)
        assert held_tables() == held_rates() == 1
        computed = count_growth_tables(monkeypatch)
        served = evolve(psi, fig4_spec(), 3.0, cuts, self.OPTIONS)
        assert computed == [] and held_tables() == 1  # n = 6 is served n = 5's table
        # kappa = 1 gets its own table, from the held stage rates
        other_kappa = evolve(psi, fig4_spec(kappa=1.0), 3.0, cuts, self.OPTIONS)
        assert computed == [((-0.0,), (-4.0,))]
        assert held_tables() == 2 and held_rates() == 1
        clear_growth_memos()
        assert_same_trajectory(served, cold_evolve(psi, fig4_spec(), 3.0, cuts, self.OPTIONS))
        clear_growth_memos()
        cold = cold_evolve(psi, fig4_spec(kappa=1.0), 3.0, cuts, self.OPTIONS)
        assert_same_trajectory(other_kappa, cold)

    def test_kappa_sweep_cells_match_cold_cells(self):
        payload = paper_payload("fig4_w_dephasing_sweep")
        payload["sweep"]["axes"] = {"kappa": [0.25, 1.0], "n": [3, 4, 5], "s": [2.47]}
        jobs = parse_config(payload).cells()
        # sweep order, axes sorted by name: every n at kappa = 1/4, then every n at kappa = 1
        cells = [{"kappa": k, "n": n, "s": 2.47} for k in (0.25, 1.0) for n in (3, 4, 5)]
        assert [cell for cell, _ in jobs] == cells
        clear_growth_memos()
        served = run_groups(jobs)
        # one table per kappa, both from one block's stage rates
        assert held_tables() == 2 and held_rates() == 1
        for job, rows in zip(jobs, served):
            assert rows[2] is None
            assert rows == cold_cell(job)

    def test_three_axis_run_matches_cold_run(self, monkeypatch):
        config = parse_config(paper_payload("fig5_ghz_n7_depolarising"))
        psi, spec, cuts = config.state.build(), config.noise, config.bipartitions()
        options = config.time.integrator_options()
        # a GHZ state with other amplitudes has the same 16 classes but its own pattern
        other = PureState(7, np.sqrt([0.3] + [0.0] * 126 + [0.7]).astype(complex))
        clear_growth_memos()
        evolve(other, spec, 9.6, cuts, options)  # fills the first 960-step block
        computed = count_growth_tables(monkeypatch)
        served = evolve(psi, spec, config.time.t_max, cuts, options)
        assert served.metadata["classes"] == 16 and served.metadata["block_steps"] == 960
        # blocks 960..1919 and 1920..1999 computed; the first one served
        assert len(computed) == 2
        assert all(len(coeffs) == 16 and len(set(coeffs)) == 16 for coeffs in computed)
        assert all(len(coeff) == 3 for coeffs in computed for coeff in coeffs)
        clear_growth_memos()
        assert_same_trajectory(
            served, cold_evolve(psi, spec, config.time.t_max, cuts, options)
        )

    def test_step_sizes_get_own_entries(self):
        # 300 steps of 0.01 and of 0.02: the same first and end step, other stage times
        psi, cuts = w_state(4), [one_vs_rest(4)]
        runs = [(3.0, IntegratorOptions(step=0.01)), (6.0, IntegratorOptions(step=0.02))]
        clear_growth_memos()
        served = [evolve(psi, fig4_spec(), t_max, cuts, options) for t_max, options in runs]
        assert held_tables() == held_rates() == 2
        for traj, (t_max, options) in zip(served, runs):
            clear_growth_memos()
            assert_same_trajectory(traj, cold_evolve(psi, fig4_spec(), t_max, cuts, options))

    def test_rows_and_tables_are_read_only(self):
        rows = fig4_rates(10)
        table = table_of(OhmicZeroTempRate(2.47), 10, ((-1.0,), (0.0,)))
        assert len(rows) == 3 and table.shape == (10, 2)
        for array in (*rows, table):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        for row in rows:
            assert row.shape == (10,)

    def test_models_differing_in_one_parameter_get_own_entries(self):
        clear_growth_memos()
        models = [OhmicZeroTempRate(2.47), OhmicZeroTempRate(2.0), OhmicZeroTempRate(2.47, 2.0)]
        entries = [fig4_rates(100, model) for model in models]
        tables = [table_of(model) for model in models]
        assert held_rates() == held_tables() == 3
        for a, b in itertools.combinations(entries, 2):
            assert not np.array_equal(a[1], b[1])
        for a, b in itertools.combinations(tables, 2):
            assert not np.array_equal(a, b)
        tables_of = [functools.partial(table_of, model) for model in models]
        assert fig4_rates(100) is entries[0] and tables_of[0]() is tables[0]
        # 32 entries at most, the least recently used (here OhmicZeroTempRate(2.0)'s) dropped
        for stop in range(101, 131):
            table_of(models[0], stop)
        assert held_rates() == held_tables() == dynamics._GROWTH_ENTRIES == 32
        assert fig4_rates(100, models[2]) is entries[2] and tables_of[2]() is tables[2]
        assert fig4_rates(100) is entries[0] and tables_of[0]() is tables[0]
        assert fig4_rates(100, models[1]) is not entries[1]
        assert tables_of[1]() is not tables[1]

    def test_equal_models_share_one_evaluation(self, monkeypatch):
        calls = []
        real_rate = ConstantRate.rate
        monkeypatch.setattr(
            ConstantRate, "rate", lambda model, t: calls.append(model) or real_rate(model, t)
        )
        clear_growth_memos()
        models = (ConstantRate(0.1), ConstantRate(0.1))
        dynamics._factor_table(models, 0.01, 0, 10, ((-1.0, -1.0),), (1.0,))
        assert calls == [ConstantRate(0.1)] * 3
        assert held_rates() == 1

    @pytest.mark.parametrize(
        "psi, spec, t_max, blocks",
        [(w_state(5), fig4_spec(), 30.0, 1), (ghz_state(7), None, 20.0, 3)],
        ids=["w5-fig4-rates", "ghz7-fig5-rates"],
    )
    def test_factor_tables_equal_step_by_step_products(self, psi, spec, t_max, blocks):
        # each table row is the factors after its step, bitwise, with each block carried
        # on from the last row of the one before (GHZ n = 7: 960 + 960 + 80 steps)
        spec = spec or parse_config(paper_payload("fig5_ghz_n7_depolarising")).noise
        h, n_steps = 0.01, round(t_max / 0.01)
        stepper = dynamics._ClassStepper(psi, spec, h, n_steps)
        clear_growth_memos()
        stepper.advance(0, n_steps)
        starts = range(0, n_steps, stepper.block_steps)
        assert len(starts) == blocks == held_tables()
        factors = np.ones(stepper.classes)
        for j in starts:
            stop = min(j + stepper.block_steps, n_steps)
            carry = tuple(factors.tolist())
            table = dynamics._factor_table(stepper.models, h, j, stop, stepper.coeffs, carry)
            stages = [dynamics._stage_rates(model, h, j, stop) for model in stepper.models]
            expected = []
            for growth in dynamics._rk4_growth(stages, h, stepper.coeffs):
                factors = factors * growth
                expected.append(factors)
            assert_bitwise_equal(table, np.array(expected))
        assert held_tables() == blocks  # every table above is the one the stepper used
        assert_bitwise_equal(stepper.factors, factors)

    @pytest.mark.parametrize("psi, spec", [(w_state(4), fig4_spec()), (ghz_state(7), None)])
    def test_recording_cadence_keeps_bits(self, psi, spec):
        # a row of a block's running product gives the factors that step-by-step gives
        # (GHZ n = 7: blocks of 960 steps, so the end-only run carries across two of them)
        spec = spec or parse_config(paper_payload("fig5_ghz_n7_depolarising")).noise
        cuts = [one_vs_rest(psi.n)]
        ends = [
            evolve(psi, spec, 12.0, cuts, IntegratorOptions(observable_every=e, sample_every=12.0))
            for e in (0.01, 12.0)
        ]
        every_step, at_end = (traj.observables["1-Rest"][-1:] for traj in ends)
        assert_bitwise_equal(every_step, at_end)
        # and rho on the pattern, stepped one step at a time or in one go
        steppers = [dynamics._ClassStepper(psi, spec, 0.01, 1200) for _ in range(2)]
        for k in range(1200):
            steppers[0].advance(k, k + 1)
        steppers[1].advance(0, 1200)
        assert_bitwise_equal(steppers[0].values(), steppers[1].values())

    def test_memo_bound(self):
        # the worst case stated above _GROWTH_ENTRIES: 15 MiB up to 120 classes
        rows = 3 * dynamics._BLOCK_ENTRIES
        assert dynamics._GROWTH_ENTRIES * (rows + dynamics._BLOCK_ENTRIES) * 8 == 15 * 2**20
        # a block has at most _BLOCK_ENTRIES steps, and a table at most the entries stated
        plus = PureState(8, np.full(256, 1 / 16, dtype=complex))  # 165 classes with 3 axes
        for psi in (ghz_state(3), w_state(5), plus):
            for spec in (fig4_spec(), NoiseSpec("pauli", **REVIVAL_RATES)):
                stepper = dynamics._ClassStepper(psi, spec, 0.01, 20000)
                assert stepper.block_steps <= dynamics._BLOCK_ENTRIES
                bound = max(dynamics._BLOCK_ENTRIES, dynamics._BLOCK_STEPS * stepper.classes)
                assert stepper.block_steps * stepper.classes <= bound


class TestAnalyticMaps:
    """Explicit integrals Lambda come from ConstantRate(Lambda) at t = 1, where they are exact."""

    def test_dephasing_identity_at_zero(self):
        rho0 = density_from_pure(w_state(3))
        spec = NoiseSpec("dephasing", rate_z=OhmicZeroTempRate(2.47), kappa=0.25)
        out = analytic_state_at(rho0, spec, 0.0)
        assert np.abs(out.elements - rho0.elements).max() == 0.0

    def test_ghz_coherence_scaling(self):
        n, kappa, big_gamma = 4, 0.25, 0.8
        rho0 = density_from_pure(ghz_state(n))
        spec = NoiseSpec("dephasing", rate_z=ConstantRate(big_gamma), kappa=kappa)
        out = analytic_state_at(rho0, spec, 1.0)
        factor = math.exp(-2 * kappa * n * big_gamma)
        assert out.elements[0, -1] == pytest.approx(0.5 * factor)
        assert out.elements[0, 0] == pytest.approx(0.5)

    def test_w_coherences_decay_pairwise(self):
        # one-hot strings differ in exactly two bits
        kappa, big_gamma = 1.0, 0.3
        rho0 = density_from_pure(w_state(3))
        spec = NoiseSpec("dephasing", rate_z=ConstantRate(1.0), kappa=kappa)
        out = analytic_state_at(rho0, spec, big_gamma)  # Lambda_z(t) = t at unit rate
        factor = math.exp(-4 * kappa * big_gamma)
        assert out.elements[1, 2] == pytest.approx(rho0.elements[1, 2] * factor)
        assert out.elements[1, 1] == pytest.approx(rho0.elements[1, 1])

    def test_pauli_identity_at_zero(self):
        rho0 = density_from_pure(ghz_state(2))
        zero = ConstantRate(0.0)
        spec = NoiseSpec("pauli", rate_z=zero, rate_x=zero, rate_y=zero, kappa=1.0)
        out = analytic_state_at(rho0, spec, 1.0)
        assert np.abs(out.elements - rho0.elements).max() < 1e-15

    def test_single_qubit_bloch_transfer(self):
        u = 0.3
        rho0 = DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex))
        spec = NoiseSpec(
            "pauli",
            rate_z=ConstantRate(0.0),
            rate_x=ConstantRate(u),
            rate_y=ConstantRate(u),
            kappa=1.0,
        )
        out = analytic_state_at(rho0, spec, 1.0)
        assert out.elements[0, 0].real == pytest.approx((1 + math.exp(-4 * u)) / 2)

    def test_pauli_transfer_eigenvalues(self):
        # sigma_x expectation of a +x eigenstate is scaled by lambda_x
        plus_x = DensityMatrix(1, np.full((2, 2), 0.5, dtype=complex))
        lams = (0.2, 0.5, 0.9)
        rate_x, rate_y, rate_z = (ConstantRate(lam) for lam in lams)
        spec = NoiseSpec("pauli", rate_z=rate_z, rate_x=rate_x, rate_y=rate_y, kappa=1.0)
        out = analytic_state_at(plus_x, spec, 1.0)
        lam_x = math.exp(-2 * (lams[1] + lams[2]))
        assert 2 * out.elements[0, 1].real == pytest.approx(lam_x)

    def test_analytic_state_at_dispatch(self):
        rho0 = density_from_pure(ghz_state(3))
        spec_d = NoiseSpec("dephasing", rate_z=SinusoidalRate(1.0), kappa=0.25)
        out = analytic_state_at(rho0, spec_d, math.pi)
        factor = math.exp(-2 * 0.25 * 3 * 2.0)  # integral of sin over [0, pi] is 2
        assert out.elements[0, 7] == pytest.approx(0.5 * factor)

    @pytest.mark.parametrize("kappa", [1.0, 0.25])
    def test_pauli_spec_without_transverse_rates_is_dephasing(self, kappa):
        # the route is chosen by Lambda_x = Lambda_y = 0, not by the spec's kind
        rho0 = density_from_pure(random_pure(5, np.random.default_rng(29)))
        rate_z = OhmicZeroTempRate(2.47)
        dephasing = NoiseSpec("dephasing", rate_z=rate_z, kappa=kappa)
        pauli = NoiseSpec("pauli", rate_z=rate_z, kappa=kappa)
        for t in (0.37, 5.0, 30.0):
            want = analytic_state_at(rho0, dephasing, t).elements
            assert_bitwise_equal(analytic_state_at(rho0, pauli, t).elements, want)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kappa", [1.0, 0.25])
    @pytest.mark.parametrize(
        "lams", [(0.0, 0.0, 0.7), (0.45, 0.0, 0.2), (0.2, 0.5, 0.9)], ids=["z", "xz", "xyz"]
    )
    def test_matches_site_by_site_pauli_sum(self, n, kappa, lams):
        rho0 = random_density(n)
        rate_x, rate_y, rate_z = (ConstantRate(lam) for lam in lams)
        spec = NoiseSpec("pauli", rate_z=rate_z, rate_x=rate_x, rate_y=rate_y, kappa=kappa)
        out = analytic_state_at(rho0, spec, 1.0)
        assert np.abs(out.elements - pauli_channel_reference(rho0, lams, spec)).max() <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kappa", [1.0, 0.25])
    def test_dephasing_matches_hamming_table(self, n, kappa):
        rho0 = random_density(n)
        for big_gamma in (0.0, 0.37, 2.9):
            spec = NoiseSpec("dephasing", rate_z=ConstantRate(big_gamma), kappa=kappa)
            out = analytic_state_at(rho0, spec, 1.0)
            want = hamming_dephasing_map(rho0, big_gamma, spec)
            assert np.abs(out.elements - want.elements).max() <= 1e-15


def test_pauli_channel_breaks_cat_cut_equivalence():
    # under dephasing every cut of the cat state carries the same
    # entanglement; the three-axis channel distinguishes cut sizes
    spec = NoiseSpec("pauli", kappa=0.25, **REVIVAL_RATES)
    rho0 = density_from_pure(ghz_state(4))
    from qubitbath import log_negativity

    max_gap = 0.0
    for t in (0.5, 1.0, 1.5, 2.0):
        state = analytic_state_at(rho0, spec, t)
        gap = abs(
            log_negativity(state, one_vs_rest(4)) - log_negativity(state, highest_cut(4))
        )
        max_gap = max(max_gap, gap)
    assert max_gap > 1e-3


def test_oracle_deviation_zero_noise_is_exact():
    spec = NoiseSpec("dephasing", rate_z=ConstantRate(0.0))
    dev = oracle_deviation(w_state(3), spec, 1.0, step=0.01)
    assert dev <= 1e-12


# oracle_deviation on every paper config at its own step and t_max, every step compared
PAPER_ORACLE_DEVIATIONS = {
    "divisibility_depolarising": 1.5204440484417603e-10,
    "fig2a_ghz_n3_dephasing": 1.1507400587973393e-10,
    "fig2b_ghz_n5_dephasing": 1.7287551945521784e-10,
    "fig3_ghz_dephasing_sweep": 1.1507400587973393e-10,
    "fig4_w_dephasing_sweep": 6.182954148670206e-11,
    "fig5_ghz_n7_depolarising": 3.141446408561066e-09,
    "fig5_w_n5_depolarising": 1.1672031396958715e-11,
}


class TestOracleDeviation:
    @pytest.mark.parametrize("stem", sorted(PAPER_ORACLE_DEVIATIONS))
    def test_paper_config_deviation_is_pinned(self, stem):
        config = parse_config(paper_payload(stem))
        dev = oracle_deviation(
            config.state.build(),
            config.noise,
            config.time.t_max,
            step=config.time.step,
        )
        assert dev == pytest.approx(PAPER_ORACLE_DEVIATIONS[stem], rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [fig4_spec(), NoiseSpec("pauli", kappa=0.25, **REVIVAL_RATES)],
        ids=["dephasing", "pauli"],
    )
    def test_builds_no_density_matrix(self, spec, monkeypatch):
        validated = []
        post_init = DensityMatrix.__post_init__

        def counted(self):
            validated.append(self.n)
            post_init(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
        # 100 comparisons, one per step
        dev = oracle_deviation(ghz_state(3), spec, 1.0, step=0.01)
        assert dev < 1e-8
        assert validated == []

    @pytest.mark.parametrize("noise", sorted(AGREEMENT_NOISES))
    @pytest.mark.parametrize(
        "psi",
        [ghz_state(4), w_state(4), dicke_state(5, 2), random_pure(4, np.random.default_rng(7))],
        ids=["ghz4", "w4", "dicke5-2", "random4"],
    )
    def test_equals_the_dense_comparison(self, psi, noise):
        # the max over the whole 2^n x 2^n matrix of |engine - analytic_state_at|, bitwise
        spec = NoiseSpec(kappa=0.25, **AGREEMENT_NOISES[noise])
        stepper = dynamics._ClassStepper(psi, spec, 0.01, 100)
        rho0, want, steps = density_from_pure(psi), 0.0, range(0, 101, 25)  # every 0.25 to t = 1
        for k, rho in zip(steps, rebuilt_states(stepper, steps)):
            gap = np.abs(rho - analytic_state_at(rho0, spec, k * stepper.h).elements).max()
            want = max(want, gap)
        assert oracle_deviation(psi, spec, 1.0, 0.01, 0.25) == want

    def test_ghz_at_the_engines_scale(self):
        # fig5's rates, GHZ n = 16: two offsets of 2^16 entries each
        spec = NoiseSpec("pauli", kappa=0.25, **REVIVAL_RATES)
        assert oracle_deviation(ghz_state(16), spec, 2.0, 0.01, 1.0) < 1e-7

    def test_peak_allocation_builds_no_dense_array(self):
        # one 4^12 complex matrix is 256 MiB; GHZ's two offsets hold 2 x 2^12 entries
        spec = NoiseSpec("pauli", kappa=0.25, **REVIVAL_RATES)
        psi = ghz_state(12)
        oracle_deviation(psi, spec, 2.0, 0.01, 1.0)  # lazy set-up, once
        dynamics._last_pattern.clear()  # a cold build
        clear_growth_memos()
        tracemalloc.start()
        try:
            dev = oracle_deviation(psi, spec, 2.0, 0.01, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dev < 1e-7
        assert peak < 8 * 2**20

    def test_sparse_cadence_still_compares_at_t_max(self, monkeypatch):
        compared = []
        integrals = dynamics._integrals

        def recorded(spec, t):
            compared.append(t)
            return integrals(spec, t)

        monkeypatch.setattr(dynamics, "_integrals", recorded)
        spec = NoiseSpec("pauli", kappa=0.25, **REVIVAL_RATES)
        # 0.7 does not divide 3.0: the last multiple is 2.8, and t_max is compared after it
        dev = oracle_deviation(dicke_state(4, 2), spec, 3.0, 0.01, 0.7)
        assert dev < 1e-8
        assert compared == pytest.approx([0.0, 0.7, 1.4, 2.1, 2.8, 3.0])

    @pytest.mark.parametrize(
        "psi",
        [random_pure(4, np.random.default_rng(5)), ghz_state(5), w_state(5), dicke_state(6, 3)],
        ids=["random4", "ghz5", "w5", "dicke6-3"],
    )
    @pytest.mark.parametrize(
        "spec", [fig4_spec(), NoiseSpec("pauli", kappa=0.25, **REVIVAL_RATES)], ids=["z", "xyz"]
    )
    def test_offset_map_matches_the_dense_map(self, psi, spec):
        # rho0 on psi's offsets, as the oracle lays it out, against analytic_state_at's result
        amp, index = psi.amplitudes, np.arange(psi.dim)
        support = np.flatnonzero(amp)
        offsets = np.unique(support[:, None] ^ support)
        at = (index, index ^ offsets[:, None])
        off = np.ones((psi.dim, psi.dim), dtype=bool)
        off[at] = False
        for t in (0.0, 0.37, 12.35):
            lams = dynamics._integrals(spec, t)
            want = analytic_state_at(density_from_pure(psi), spec, t).elements
            got = dynamics._exact_channel(amp * amp[at[1]].conj(), offsets, psi.n, lams, spec)
            assert_bitwise_equal(got, want[at])
            assert not want[off].any()  # the channel keeps every offset


class TestRemovedSurface:
    """The dense stepper, its option and flag, and the closed-form maps other than
    ``analytic_state_at`` are gone."""

    @pytest.mark.parametrize(
        "name",
        [
            "lindblad_rhs",
            "analytic_dephasing_map",
            "analytic_pauli_map",
            "_pauli_map_elements",
            "embed_local_operator",
            "hamming_distance_matrix",
            "PAULI_I",
            "PAULI_X",
            "PAULI_Y",
            "PAULI_Z",
        ],
    )
    def test_names_not_exported(self, name):
        for module in (qubitbath, qubitbath.dynamics, qubitbath.states):
            assert not hasattr(module, name)

    def test_no_dense_option(self):
        with pytest.raises(TypeError):
            IntegratorOptions(dense=True)

    def test_no_dense_oracle_flag(self, capsys):
        path = str(CONFIG_DIR / "fig2a_ghz_n3_dephasing.json")
        with pytest.raises(SystemExit) as exit_info:
            main(["oracle-check", "--config", path, "--dense"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --dense" in capsys.readouterr().err
