"""End-to-end acceptance suite.

Each test exercises one headline behaviour of the package at its stated
tolerance and prints a single ``[acceptance] ...`` PASS/FAIL line (visible
with ``pytest tests/test_acceptance.py -s``).

Two dissipator prefactor conventions are supported (kappa = 1 and
kappa = 1/4, see NoiseSpec).  Quantitative plateau and fit checks run under
kappa = 1/4, which is the convention that reproduces the reference
phenomenology; integrator-accuracy checks note the convention they use
because the raw rates (and therefore the RK4 truncation error) scale with
kappa.  Every choice is asserted explicitly below.
"""

import math
from itertools import combinations

import numpy as np

from qubitbath import (
    Bipartition,
    ConstantRate,
    DivisibilityClass,
    IntegratorOptions,
    NoiseSpec,
    OhmicZeroTempRate,
    SinusoidalRate,
    classify_divisibility,
    density_from_pure,
    detect_revival,
    detect_saturation,
    evolve,
    fit_exp_decay_shift,
    fit_reciprocal_exp,
    ghz_state,
    highest_cut,
    log_negativity,
    one_vs_rest,
    oracle_deviation,
    w_state,
)
from reference import (
    dense_engine,
    integrated_rate_quadrature,
    schmidt_log_negativity,
    symmetry_check,
)

OHMICITY_STAR = 2.47
REVIVAL_RATES = dict(
    rate_z=SinusoidalRate(1.0), rate_x=ConstantRate(0.1), rate_y=ConstantRate(0.1)
)

# every trajectory the suite evolved, by its arguments, for the invariant check
_RUNS = {}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _run(maker, n: int, spec: NoiseSpec, t_max: float, cuts: tuple, options):
    """The trajectory of maker(n), evolved once by whichever test asks for it first."""
    key = (maker, n, spec, t_max, cuts, options)
    if key not in _RUNS:
        _RUNS[key] = evolve(maker(n), spec, t_max, cuts=list(cuts), options=options)
    return _RUNS[key]


def dephasing_spec(s: float, kappa: float) -> NoiseSpec:
    return NoiseSpec("dephasing", rate_z=OhmicZeroTempRate(s), kappa=kappa)


def pauli_spec(kappa: float) -> NoiseSpec:
    return NoiseSpec("pauli", kappa=kappa, **REVIVAL_RATES)


def ghz_snapshot(n: int, s: float, kappa: float, t: float = 30.0) -> float:
    """Log negativity of the dephased cat state at time t (any cut)."""
    traj = _run(
        ghz_state,
        n,
        dephasing_spec(s, kappa),
        t,
        (one_vs_rest(n),),
        IntegratorOptions(step=0.01, observable_every=t, sample_every=t, record_states=False),
    )
    return float(traj.observables["1-Rest"][-1])


def w_observables(n: int, kappa: float):
    """W-state dephasing trajectory observables at t = 30 for both cuts."""
    traj = _run(
        w_state,
        n,
        dephasing_spec(OHMICITY_STAR, kappa),
        30.0,
        (one_vs_rest(n), highest_cut(n)),
        IntegratorOptions(step=0.01, observable_every=30.0, sample_every=30.0, record_states=False),
    )
    return {label: float(series[-1]) for label, series in traj.observables.items()}


def pauli_trajectory(family: str, n: int, kappa: float = 0.25):
    cuts = (one_vs_rest(n), highest_cut(n)) if n >= 3 else (one_vs_rest(n),)
    return _run(
        ghz_state if family == "ghz" else w_state,
        n,
        pauli_spec(kappa),
        20.0,
        cuts,
        IntegratorOptions(step=0.01, observable_every=0.05, sample_every=10.0, record_states=False),
    )


# --------------------------------------------------------------------------
# 1. integrator vs closed-form dephasing propagator
# --------------------------------------------------------------------------


def test_criterion_01_dephasing_oracle_equivalence():
    # kappa = 1/4: under kappa = 1 the s = 3 rates are large enough that the
    # h = 0.01 RK4 truncation error exceeds 1e-7 (measured ~2.3e-7), so the
    # tight bound is only meaningful for the quarter convention.
    bound = 1e-7
    worst = 0.0
    for n in (3, 4, 5, 6):
        for s in (1.0, OHMICITY_STAR, 3.0):
            for maker in (ghz_state, w_state):
                dev = oracle_deviation(
                    maker(n),
                    dephasing_spec(s, 0.25),
                    30.0,
                    step=0.01,
                )
                worst = max(worst, dev)
    # the dense matrix stepper must satisfy the same bound where it is cheap
    worst_dense = 0.0
    for n in (3, 4, 5):
        for s in (1.0, OHMICITY_STAR, 3.0):
            with dense_engine():
                dev = oracle_deviation(
                    ghz_state(n),
                    dephasing_spec(s, 0.25),
                    30.0,
                    step=0.01,
                )
            worst_dense = max(worst_dense, dev)
    ok = worst <= bound and worst_dense <= bound
    _report(
        "01 dephasing oracle equivalence",
        ok,
        f"max dev {worst:.2e} (dense {worst_dense:.2e}) <= {bound:.0e}, kappa=1/4",
    )
    assert worst <= bound
    assert worst_dense <= bound


# --------------------------------------------------------------------------
# 2. integrator vs closed-form Pauli propagator
# --------------------------------------------------------------------------


def test_criterion_02_pauli_oracle_equivalence():
    bound = 1e-7
    worst = {}
    for kappa in (1.0, 0.25):
        worst[kappa] = max(
            oracle_deviation(
                ghz_state(n),
                pauli_spec(kappa),
                20.0,
                step=0.01,
            )
            for n in (3, 4, 5)
        )
    ok = all(v <= bound for v in worst.values())
    _report(
        "02 pauli oracle equivalence",
        ok,
        f"max dev kappa=1: {worst[1.0]:.2e}, kappa=1/4: {worst[0.25]:.2e} <= {bound:.0e}",
    )
    assert all(v <= bound for v in worst.values())


# --------------------------------------------------------------------------
# 3. markovian decay to zero vs non-markovian saturation
# --------------------------------------------------------------------------


def _saturation_ghz3(s: float, kappa: float):
    traj = _run(
        ghz_state,
        3,
        dephasing_spec(s, kappa),
        100.0,
        (one_vs_rest(3),),
        IntegratorOptions(step=0.01, observable_every=0.1, sample_every=100.0, record_states=False),
    )
    return detect_saturation(traj.times, traj.observables["1-Rest"], window=10.0, tol=1e-4)


PLATEAU_S = (2.0, 2.3, 2.5, 3.0)


def test_criterion_03_markovian_decay_vs_saturation():
    # s = 1 (memoryless regime) must die out; the zero-by-t=100 statement
    # needs kappa = 1, where the rate prefactor is 4x larger.  Under
    # kappa = 1/4 the same run is still ~1.4e-3 at t = 100 (it crosses 1e-3
    # near t = 130), so only the ordering is asserted there.
    markovian = _saturation_ghz3(1.0, 1.0)
    ok_zero = markovian.saturated and markovian.value <= 1e-3

    star = _saturation_ghz3(OHMICITY_STAR, 0.25)
    ok_star = star.saturated and star.value >= 0.2

    markovian_quarter = _saturation_ghz3(1.0, 0.25)
    plateaus = {s: _saturation_ghz3(s, 0.25).value for s in PLATEAU_S}
    plateaus[OHMICITY_STAR] = star.value
    ok_order = markovian_quarter.value < star.value
    peak_s = max(plateaus, key=plateaus.get)
    ok_peak = 2.3 <= peak_s <= 2.5

    ok = ok_zero and ok_star and ok_order and ok_peak
    _report(
        "03 markovian decay vs non-markovian saturation",
        ok,
        f"s=1 plateau {markovian.value:.1e} (kappa=1), s=2.47 plateau "
        f"{star.value:.4f} (kappa=1/4), peak at s={peak_s}",
    )
    assert ok_zero
    assert ok_star
    assert ok_order
    assert ok_peak


# --------------------------------------------------------------------------
# 4. the optimal Ohmicity sits at s = 2.47 for every qubit count
# --------------------------------------------------------------------------


S_GRID = [round(2.0 + 0.1 * i, 2) for i in range(11)]


def test_criterion_04_optimal_ohmicity():
    ok = True
    details = []
    for n in range(3, 9):
        values = {s: ghz_snapshot(n, s, 0.25) for s in S_GRID}
        best_base = max(values, key=values.get)
        values[OHMICITY_STAR] = ghz_snapshot(n, OHMICITY_STAR, 0.25)
        best_full = max(values, key=values.get)
        details.append(f"n={n}: grid argmax {best_base}, full argmax {best_full}")
        if best_base not in (2.4, 2.5) or best_full != OHMICITY_STAR:
            ok = False
    _report("04 optimal ohmicity s*=2.47", ok, "; ".join(details[:2]) + " ...")
    assert ok, details


# --------------------------------------------------------------------------
# 5. cat-state plateau law: log2(1 + exp(-2 kappa N Gamma_inf / omega0))
# --------------------------------------------------------------------------


def _cat_plateau_run(n: int, kappa: float):
    return _run(
        ghz_state,
        n,
        dephasing_spec(OHMICITY_STAR, kappa),
        400.0,
        (one_vs_rest(n),),
        IntegratorOptions(step=0.02, observable_every=2.0, sample_every=400.0, record_states=False),
    )


def test_criterion_05_cat_plateau_law():
    # Gamma_inf by direct quadrature of the rate (the closed-form limit
    # Gamma(s-1) must agree, which pins both routes)
    model = OhmicZeroTempRate(OHMICITY_STAR)
    gamma_inf = integrated_rate_quadrature(model, 2000.0)
    assert abs(gamma_inf - math.gamma(OHMICITY_STAR - 1.0)) < 1e-4

    bound = 1e-4
    worst = 0.0
    ok = True
    for kappa in (0.25, 1.0):
        for n in range(3, 9):
            traj = _cat_plateau_run(n, kappa)
            sat = detect_saturation(
                traj.times, traj.observables["1-Rest"], window=10.0, tol=1e-4
            )
            predicted = math.log2(1.0 + math.exp(-2.0 * kappa * n * gamma_inf))
            err = abs(sat.value - predicted)
            worst = max(worst, err)
            if not sat.saturated or err > bound:
                ok = False
    _report(
        "05 cat plateau law",
        ok,
        f"max |measured - log2(1+e^(-2kNG))| = {worst:.2e} <= {bound:.0e}, both kappa",
    )
    assert ok


# --------------------------------------------------------------------------
# 6. decay of the cat plateau with qubit count follows a*exp(-c(N-3)) + b^2
# --------------------------------------------------------------------------


def _ghz_scaling_fit(kappa: float):
    points = [(n, ghz_snapshot(n, OHMICITY_STAR, kappa)) for n in range(3, 11)]
    return fit_exp_decay_shift(points)


def test_criterion_06a_fit_residual_kappa_one():
    fit = _ghz_scaling_fit(1.0)
    ok = fit.converged and fit.residual <= 1e-3
    _report(
        "06a scaling-fit residual, kappa=1",
        ok,
        f"rms {fit.residual:.2e} <= 1e-3, (a,b,c)=({fit.a:.4f},{fit.b:.1e},{fit.c:.4f})",
    )
    assert ok


def test_criterion_06b_fit_residual_kappa_quarter():
    # Known model-form mismatch: the measured points are exactly
    # log2(1 + exp(-N Gamma(30)/2)) and the best constrained fit of
    # a*exp(-c(N-3)) + b^2 (real b, so offset >= 0) to them has RMS
    # ~1.365e-3 at its global optimum (the unconstrained optimum would want
    # a negative offset).  The 1e-3 target is kept as the contract; this
    # check documents the mismatch rather than hiding it.
    fit = _ghz_scaling_fit(0.25)
    ok = fit.converged and fit.residual <= 1e-3
    _report(
        "06b scaling-fit residual, kappa=1/4",
        ok,
        f"rms {fit.residual:.2e} vs target 1e-3 "
        f"(best attainable ~1.37e-3), (a,b,c)=({fit.a:.4f},{fit.b:.1e},{fit.c:.4f})",
    )
    assert ok, (
        "constrained-model optimum sits above the 1e-3 residual target: "
        f"measured rms {fit.residual:.3e}"
    )


def test_criterion_06c_decay_constant():
    # the quarter convention is the one whose absolute numbers track the
    # reference values; its decay constant must match 0.4167 within 25%
    fit = _ghz_scaling_fit(0.25)
    expected = 0.4167
    rel = abs(fit.c - expected) / expected
    ok = rel <= 0.25
    _report(
        "06c scaling-fit decay constant",
        ok,
        f"c = {fit.c:.4f} vs {expected} (rel dev {rel:.1%} <= 25%)",
    )
    assert ok


# --------------------------------------------------------------------------
# 7. even-odd dichotomy of the W balanced cut
# --------------------------------------------------------------------------


def test_criterion_07_even_odd_dichotomy():
    # at n = 3 the balanced cut coincides with 1-Rest and shares its label
    even = {n: w_observables(n, 0.25)[highest_cut(n).label] for n in (4, 6, 8)}
    odd = {n: w_observables(n, 0.25)[highest_cut(n).label] for n in (3, 5, 7, 9)}
    spread = max(even.values()) - min(even.values())
    ok_even = spread <= 5e-3
    odd_seq = [odd[5], odd[7], odd[9]]
    ok_odd = all(x < y for x, y in zip(odd_seq, odd_seq[1:]))
    fit = fit_reciprocal_exp(sorted(odd.items()))
    even_plateau = np.mean(list(even.values()))
    ratio = fit.asymptote() / even_plateau
    ok_fit = fit.converged and abs(ratio - 1.0) <= 0.10
    ok = ok_even and ok_odd and ok_fit
    _report(
        "07 W even-odd dichotomy",
        ok,
        f"even spread {spread:.2e} <= 5e-3, odd {['%.4f' % v for v in odd_seq]} "
        f"increasing, asymptote/even = {ratio:.4f} within 10%",
    )
    assert ok_even
    assert ok_odd
    assert ok_fit


# --------------------------------------------------------------------------
# 8. the W state outlives the cat state under dephasing
# --------------------------------------------------------------------------


def test_criterion_08_w_more_robust_than_ghz():
    ok = True
    details = []
    for n in range(4, 9):
        w_val = w_observables(n, 0.25)["1-Rest"]
        g_val = ghz_snapshot(n, OHMICITY_STAR, 0.25)
        details.append(f"n={n}: W {w_val:.4f} > GHZ {g_val:.4f}")
        if not w_val > g_val:
            ok = False
    _report("08 W robustness ordering", ok, details[0] + " ... " + details[-1])
    assert ok, details


# --------------------------------------------------------------------------
# 9. depolarising collapse and revival
# --------------------------------------------------------------------------


def test_criterion_09_collapse_revival():
    # quarter convention: under kappa = 1 these rates wipe out entanglement
    # with no return (verified numerically), matching nothing of interest
    ok = True
    details = []
    for n in range(3, 8):
        traj = pauli_trajectory("ghz", n)
        for label in traj.observables:
            report = detect_revival(traj.times, traj.observables[label], threshold=1e-3)
            if not report.events:
                ok = False
                details.append(f"ghz n={n} {label}: no event")
    # the second revival of the 7-qubit balanced cut lives near t ~ 12.5
    # with peak ~6.6e-4, below the default detector threshold; it is
    # resolved at threshold 2e-4 (the detector threshold is a knob)
    traj7 = pauli_trajectory("ghz", 7)
    fine = detect_revival(traj7.times, traj7.observables["highest-cut"], threshold=2e-4)
    second = [ev for ev in fine.events if 11.0 <= ev.t_revival <= 14.0]
    if not second:
        ok = False
        details.append("ghz n=7 highest-cut: no revival in [11, 14]")
    for n in (3, 4, 5):
        traj = pauli_trajectory("w", n)
        for label in traj.observables:
            report = detect_revival(traj.times, traj.observables[label], threshold=1e-3)
            if not report.events:
                ok = False
                details.append(f"w n={n} {label}: no event")
    second_detail = (
        f"n=7 second revival at t={second[0].t_revival:.2f}, peak {second[0].peak_value:.1e}"
        if second
        else "missing"
    )
    _report(
        "09 collapse and revival",
        ok,
        f"all ghz n=3..7 and w n=3..5 cuts revive; {second_detail}",
    )
    assert ok, details


# --------------------------------------------------------------------------
# 10. channel divisibility classifier
# --------------------------------------------------------------------------


def test_criterion_10_divisibility_classifier():
    grid = np.linspace(0.0, 100.0, 10001)
    nonp = classify_divisibility(
        ConstantRate(0.1), ConstantRate(0.1), SinusoidalRate(1.0), grid
    )
    ok_nonp = nonp.classification is DivisibilityClass.NON_P_DIVISIBLE
    first = nonp.violation_windows[0]
    ok_window = math.pi < first[0] and first[1] < 2 * math.pi

    cp = classify_divisibility(ConstantRate(0.1), ConstantRate(0.1), ConstantRate(0.1), grid)
    ok_cp = cp.classification is DivisibilityClass.CP_DIVISIBLE

    ponly = classify_divisibility(
        ConstantRate(1.5), ConstantRate(1.5), SinusoidalRate(1.0), grid
    )
    ok_p = ponly.classification is DivisibilityClass.P_DIVISIBLE_ONLY

    ok = ok_nonp and ok_window and ok_cp and ok_p
    _report(
        "10 divisibility classifier",
        ok,
        f"sine+0.1 -> {nonp.classification.value} with first window "
        f"({first[0]:.3f}, {first[1]:.3f}) in (pi, 2pi); constants -> "
        f"{cp.classification.value}; 1.5/1.5/sine -> {ponly.classification.value}",
    )
    assert ok


# --------------------------------------------------------------------------
# 11. invariants: trace/hermiticity/positivity, symmetry, RK4 order
# --------------------------------------------------------------------------


def _criteria_runs() -> list:
    """Every trajectory criteria 3 to 9 read, evolved here if no earlier test has.

    Runs are cached by their arguments, so after the other criteria this evolves
    nothing new, and run alone it checks the same trajectories.
    """
    for s, kappa in ((1.0, 1.0), (OHMICITY_STAR, 0.25), (1.0, 0.25)):
        _saturation_ghz3(s, kappa)
    for s in PLATEAU_S:
        _saturation_ghz3(s, 0.25)
    for n in range(3, 9):
        for s in (*S_GRID, OHMICITY_STAR):
            ghz_snapshot(n, s, 0.25)
        for kappa in (0.25, 1.0):
            _cat_plateau_run(n, kappa)
    for kappa in (1.0, 0.25):
        _ghz_scaling_fit(kappa)
    for n in range(3, 10):
        w_observables(n, 0.25)
    for n in range(3, 8):
        pauli_trajectory("ghz", n)
    for n in (3, 4, 5):
        pauli_trajectory("w", n)
    return list(_RUNS.values())


def test_criterion_11_invariant_suite():
    # (a) permutation symmetry of evolved five-qubit states
    ok_sym = True
    spreads = []
    for maker in (ghz_state, w_state):
        traj = _run(
            maker,
            5,
            dephasing_spec(OHMICITY_STAR, 0.25),
            30.0,
            (),
            IntegratorOptions(step=0.01, sample_every=5.0),
        )
        for t_check in (0.0, 5.0, 30.0):
            index = list(traj.state_times).index(t_check)
            state = traj.states[index]
            for m in (1, 2):
                spread = symmetry_check(state, m)
                spreads.append(spread)
                if spread > 1e-10:
                    ok_sym = False

    # (b) trace, hermiticity and positivity of every run of the suite, (a)'s included;
    # only (a)'s runs keep states
    runs = _criteria_runs()
    worst_trace = max(t.metadata["max_trace_drift"] for t in runs)
    worst_eig = min(
        t.metadata["min_eigenvalue"] for t in runs if t.metadata["min_eigenvalue"] is not None
    )
    kept = [state.elements for t in runs for state in t.states]
    worst_herm = max(np.abs(mat - mat.conj().T).max() for mat in kept)
    ok_drift = worst_trace <= 1e-9 and worst_herm <= 1e-9 and worst_eig >= -1e-8

    # (c) fourth-order convergence of the integrator
    with dense_engine():
        devs = [
            oracle_deviation(
                ghz_state(3),
                dephasing_spec(OHMICITY_STAR, 1.0),
                10.0,
                step=h,
            )
            for h in (0.08, 0.04)
        ]
    ratio = devs[0] / devs[1]
    ok_order = ratio >= 8.0

    ok = ok_drift and ok_sym and ok_order
    _report(
        "11 invariant suite",
        ok,
        f"{len(runs)} runs: trace drift {worst_trace:.1e}, hermiticity "
        f"{worst_herm:.1e}, min eig {worst_eig:.1e}; symmetry spread "
        f"{max(spreads):.1e} <= 1e-10; step-halving ratio {ratio:.1f} >= 8",
    )
    assert ok_drift
    assert ok_sym
    assert ok_order


# --------------------------------------------------------------------------
# 12. pure-state negativity values
# --------------------------------------------------------------------------


def test_criterion_12_pure_state_negativity():
    ok_ghz = True
    for n in range(2, 9):
        rho = density_from_pure(ghz_state(n))
        for m in range(1, n // 2 + 1):
            for side in combinations(range(1, n + 1), m):
                if abs(log_negativity(rho, Bipartition(n, side)) - 1.0) > 1e-10:
                    ok_ghz = False

    ok_w = True
    worst = 0.0
    for n in range(3, 9):
        psi = w_state(n)
        expected = math.log2(1.0 + 2.0 * math.sqrt(n - 1.0) / n)
        via_pt = log_negativity(density_from_pure(psi), one_vs_rest(n))
        via_schmidt = schmidt_log_negativity(psi, one_vs_rest(n))
        worst = max(worst, abs(via_pt - expected), abs(via_schmidt - expected))
        if abs(via_pt - expected) > 1e-9 or abs(via_schmidt - expected) > 1e-9:
            ok_w = False

    ok = ok_ghz and ok_w
    _report(
        "12 pure-state negativity",
        ok,
        f"cat = 1 ebit on every cut (n=2..8); W 1-Rest matches "
        f"log2(1+2*sqrt(n-1)/n) to {worst:.1e}",
    )
    assert ok_ghz
    assert ok_w
