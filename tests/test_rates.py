import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qubitbath import (
    ConstantRate,
    DivisibilityClass,
    OhmicZeroTempRate,
    SinusoidalRate,
    classify_divisibility,
)
from qubitbath.config import ConfigError, parse_config
from reference import integrated_rate_quadrature, ohmic_rate_spectral

ROOT = Path(__file__).resolve().parents[1]


class TestOhmicZeroTempRate:
    def test_vanishes_at_time_zero(self):
        for s in (0.5, 1.0, 2.47, 3.0):
            assert OhmicZeroTempRate(s).rate(0.0) == 0.0

    def test_s1_closed_form(self):
        # for s = 1, omega_c = 1 the rate reduces to t / (1 + t^2)
        t = np.linspace(0.0, 30.0, 301)
        assert np.abs(OhmicZeroTempRate(1.0).rate(t) - t / (1 + t**2)).max() < 1e-14

    def test_s3_negative_beyond_sqrt3(self):
        # sin(3 arctan t) first vanishes at t = tan(pi/3) = sqrt(3) and the
        # rate stays negative afterwards
        t = np.linspace(math.sqrt(3.0) + 1e-3, 50.0, 500)
        assert np.all(OhmicZeroTempRate(3.0).rate(t) < 0)
        t_before = np.linspace(1e-3, math.sqrt(3.0) - 1e-3, 200)
        assert np.all(OhmicZeroTempRate(3.0).rate(t_before) > 0)

    def test_nonnegative_for_s_up_to_two(self):
        t = np.linspace(0.0, 50.0, 2001)
        for s in (0.5, 1.0, 1.5, 2.0):
            assert OhmicZeroTempRate(s).rate(t).min() >= -1e-15

    def test_some_negative_values_for_s_above_two(self):
        t = np.linspace(0.0, 50.0, 2001)
        for s in (2.1, 2.47, 3.0):
            assert OhmicZeroTempRate(s).rate(t).min() < 0

    def test_cutoff_scaling(self):
        # gamma(t; omega_c) = omega_c * gamma(omega_c t; 1)
        t = 1.7
        wc = 2.5
        assert OhmicZeroTempRate(2.47, wc).rate(t) == pytest.approx(
            wc * OhmicZeroTempRate(2.47, 1.0).rate(wc * t)
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="s > 0"):
            OhmicZeroTempRate(s=0.0)
        with pytest.raises(ValueError):
            OhmicZeroTempRate(s=2.0, omega_c=-1.0)

    @pytest.mark.parametrize("s", [171.7, 200.0, math.inf, math.nan])
    def test_rejects_ohmicity_whose_gamma_is_not_finite(self, s):
        with pytest.raises(ValueError, match="finite Gamma"):
            OhmicZeroTempRate(s=s)

    def test_accepts_largest_finite_gamma(self):
        assert math.isfinite(OhmicZeroTempRate(s=171.6).rate(0.0))

    @pytest.mark.parametrize("s", [1e-17, 5e-17, 1e-300])
    def test_rejects_ohmicity_whose_gamma_of_s_minus_one_is_undefined(self, s):
        # s - 1 rounds to -1.0, where integrated's Gamma(s - 1) is undefined
        with pytest.raises(ValueError, match=r"defined Gamma\(s - 1\)"):
            OhmicZeroTempRate(s=s)

    def test_accepts_smallest_ohmicity_with_a_defined_gamma_of_s_minus_one(self):
        rate = OhmicZeroTempRate(s=1.2e-16)
        assert math.isfinite(rate.integrated(1.0)) and math.isfinite(rate.rate(1.0))


class TestSpectralIntegral:
    """The closed form against the rate's spectral-density integral."""

    def test_zero_time(self):
        for s in (1.0, 2.47, 3.0):
            assert ohmic_rate_spectral(0.0, s) == OhmicZeroTempRate(s).rate(0.0) == 0.0

    @pytest.mark.parametrize("s", [1.0, 2.47, 3.0])
    def test_closed_form_matches_spectral_integral(self, s):
        for t in (0.1, 1.0, 3.0, 7.5, 15.0, 30.0):
            num = ohmic_rate_spectral(t, s)
            assert num == pytest.approx(OhmicZeroTempRate(s).rate(t), abs=1e-6)

    def test_s3_negative_value_matches(self):
        num = ohmic_rate_spectral(3.0, 3.0)
        assert num < 0
        assert num == pytest.approx(OhmicZeroTempRate(3.0).rate(3.0), abs=1e-8)

    def test_cutoff_matches_spectral_integral(self):
        for t in (0.4, 2.0, 9.0):
            num = ohmic_rate_spectral(t, 2.47, omega_c=2.5)
            assert num == pytest.approx(OhmicZeroTempRate(2.47, 2.5).rate(t), abs=1e-6)


class TestIntegratedRate:
    def test_ohmic_s1_log_form(self):
        model = OhmicZeroTempRate(s=1.0)
        for t in (0.0, 0.5, 2.0, 10.0, 100.0):
            assert model.integrated(t) == pytest.approx(0.5 * math.log1p(t * t))

    def test_sinusoidal(self):
        model = SinusoidalRate(alpha=1.0)
        for t in (0.0, 1.0, math.pi, 7.0):
            assert model.integrated(t) == pytest.approx(1.0 - math.cos(t))

    def test_constant(self):
        assert ConstantRate(0.3).integrated(4.0) == pytest.approx(1.2)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.47, 3.0])
    def test_closed_form_matches_quadrature(self, s):
        model = OhmicZeroTempRate(s=s)
        for t in (0.3, 1.0, 7.5, 30.0):
            assert model.integrated(t) == pytest.approx(
                integrated_rate_quadrature(model, t), abs=1e-8
            )

    def test_reference_quadrature_is_pinned(self):
        value = integrated_rate_quadrature(OhmicZeroTempRate(2.47), 5.0)
        assert value == pytest.approx(0.920627110691288, rel=1e-13, abs=0.0)

    def test_additivity(self):
        from scipy.integrate import quad

        model = OhmicZeroTempRate(s=2.47)
        t1, t2 = 3.0, 11.0
        tail, _ = quad(lambda u: model.rate(u), t1, t2, epsabs=1e-12, epsrel=1e-10)
        assert model.integrated(t2) == pytest.approx(
            model.integrated(t1) + tail, abs=1e-9
        )

    def test_limit_finite_for_super_ohmic(self):
        model = OhmicZeroTempRate(s=2.47)
        assert model.integrated_infinity() == pytest.approx(math.gamma(1.47))
        assert model.integrated(5000.0) == pytest.approx(math.gamma(1.47), abs=1e-4)



def _dephasing_factor(model, t):
    """eta(t) = 1 - exp(-2 integral_0^t gamma), the single-qubit dephasing factor."""
    out = -np.expm1(-2.0 * np.asarray(model.integrated(t), dtype=float))
    return out if out.ndim else float(out)


class TestDephasingFactor:
    def test_zero_at_time_zero(self):
        assert _dephasing_factor(OhmicZeroTempRate(s=2.0), 0.0) == 0.0

    def test_constant_half_at_one(self):
        assert _dephasing_factor(ConstantRate(0.5), 1.0) == pytest.approx(1 - math.exp(-1))

    def test_saturates_below_one_for_s_above_two(self):
        model = OhmicZeroTempRate(s=2.47)
        eta_inf = 1 - math.exp(-2 * math.gamma(1.47))
        assert _dephasing_factor(model, 200.0) == pytest.approx(eta_inf, abs=1e-4)
        assert _dephasing_factor(model, 200.0) < 1.0

    def test_monotone_with_rate_sign(self):
        model = SinusoidalRate(alpha=1.0)
        up = np.linspace(0.1, 3.0, 30)  # rate > 0
        down = np.linspace(3.4, 6.0, 30)  # rate < 0
        eta_up = np.array([_dephasing_factor(model, t) for t in up])
        eta_down = np.array([_dephasing_factor(model, t) for t in down])
        assert np.all(np.diff(eta_up) > 0)
        assert np.all(np.diff(eta_down) < 0)


class TestClassifyDivisibility:
    GRID = np.linspace(0.0, 100.0, 10001)

    def test_all_positive_constants_are_cp(self):
        rate = ConstantRate(0.1)
        verdict = classify_divisibility(rate, rate, rate, self.GRID)
        assert verdict.classification is DivisibilityClass.CP_DIVISIBLE
        assert verdict.violation_windows == ()
        assert verdict.min_margin == pytest.approx(0.1)

    def test_weak_constants_with_sine_break_p(self):
        verdict = classify_divisibility(
            ConstantRate(0.1), ConstantRate(0.1), SinusoidalRate(1.0), self.GRID
        )
        assert verdict.classification is DivisibilityClass.NON_P_DIVISIBLE
        assert verdict.min_margin == pytest.approx(-0.9, abs=1e-3)
        first = verdict.violation_windows[0]
        # 0.1 + sin t < 0 on (pi + arcsin 0.1, 2 pi - arcsin 0.1)
        assert math.pi < first[0] < first[1] < 2 * math.pi
        assert first[0] == pytest.approx(math.pi + math.asin(0.1), abs=0.02)
        assert first[1] == pytest.approx(2 * math.pi - math.asin(0.1), abs=0.02)

    def test_strong_constants_with_sine_are_p_only(self):
        verdict = classify_divisibility(
            ConstantRate(1.5), ConstantRate(1.5), SinusoidalRate(1.0), self.GRID
        )
        assert verdict.classification is DivisibilityClass.P_DIVISIBLE_ONLY
        assert verdict.min_margin == pytest.approx(0.5, abs=1e-3)
        assert verdict.violation_windows  # the windows where gamma_z < 0

    def test_verdict_invariant_under_axis_permutation(self):
        rates = [ConstantRate(0.1), ConstantRate(0.2), SinusoidalRate(1.0)]
        baseline = classify_divisibility(*rates, self.GRID)
        for perm in ((1, 2, 0), (2, 0, 1), (0, 2, 1)):
            shuffled = classify_divisibility(*(rates[i] for i in perm), self.GRID)
            assert shuffled.classification is baseline.classification
            assert shuffled.min_margin == pytest.approx(baseline.min_margin)

    def test_rejects_degenerate_grids(self):
        rate = ConstantRate(0.1)
        with pytest.raises(ValueError):
            classify_divisibility(rate, rate, rate, [0.0])
        with pytest.raises(ValueError):
            classify_divisibility(rate, rate, rate, [0.0, 0.0, 1.0])


def pauli_config(rate_z: dict):
    """A config whose noise record has ``rate_z`` as its z-axis rate record."""
    return parse_config(
        {
            "state": {"family": "ghz", "n": 2},
            "noise": {"kind": "pauli", "rate_z": rate_z},
            "time": {"t_max": 1.0},
        }
    )


def test_rate_model_serialization_round_trip():
    models = [
        ConstantRate(0.1),
        SinusoidalRate(-0.7),
        OhmicZeroTempRate(s=2.47, omega_c=1.0),
    ]
    for model in models:
        # a rate model's JSON form is its dataclasses.asdict record, kind included
        config = pauli_config(dataclasses.asdict(model))
        assert config.noise.rate_z == model
        assert parse_config(config.to_dict()) == config


@pytest.mark.parametrize(
    "record",
    [
        {"kind": "lorentzian", "width": 1.0},
        {"kind": "ohmic_finite_t", "s": 1.0, "theta": 0.3},
    ],
    ids=["lorentzian", "ohmic_finite_t"],
)
def test_rate_model_rejects_unknown_kind(record):
    kinds = r"\('constant', 'sinusoidal', 'ohmic_t0'\)"
    match = rf"noise\.rate_z\.kind: expected one of {kinds}, got '{record['kind']}'"
    with pytest.raises(ConfigError, match=match):
        pauli_config(record)


class TestNumpyAlone:
    """The package imports and runs without scipy; only the tests' references use it."""

    def test_src_imports_no_scipy(self):
        found = []
        for path in sorted((ROOT / "src" / "qubitbath").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if any(name.split(".")[0] == "scipy" for name in names):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_import_and_run_load_no_scipy(self, tmp_path):
        config = ROOT / "configs" / "paper" / "fig2a_ghz_n3_dephasing.json"
        argv = ["run", "--config", str(config), "--out", str(tmp_path)]
        code = (
            "import json, sys, qubitbath, qubitbath.cli\n"
            f"status = qubitbath.cli.main({argv!r})\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(json.dumps([status, loaded]))"
        )
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        status, loaded = json.loads(out.stdout.splitlines()[-1])
        assert status == 0 and (tmp_path / "trajectory.csv").exists()
        assert loaded == []
