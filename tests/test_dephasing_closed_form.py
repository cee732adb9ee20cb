"""Closed-form log negativity of the cat and W states under local dephasing.

With Gamma = rate_z.integrated(t) and k the size of the smaller side of the
cut, the paper states have exact values at any n:

* GHZ, any cut:  E = log2(1 + exp(-2 kappa n Gamma / omega_0))
* W:             E = log2(1 + 2 exp(-4 kappa Gamma / omega_0) sqrt(k (n - k)) / n)

For W, rho^(T_A) splits into PSD single-excitation blocks of total trace 1
and a star block coupling |0...0> to the k (n - k) double excitations
e_a + e_b, whose eigenvalues are +-f sqrt(k (n - k)) / n.  These formulas
share no code with the integrator or the eigensolvers, so they check the
whole run and sweep paths on the dephasing figures (fig2, fig3, fig4).  The
bound is the RK4 truncation on the distance-n coherence at step 0.01.
"""

import csv
import dataclasses
import math
from pathlib import Path

import pytest

from qubitbath.cli import run_experiment, sweep_experiment
from qubitbath.config import load_config, parse_config
from qubitbath.entanglement import parse_cut_label

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs" / "paper"
TOL = 1e-8
S_SUBSET = [2.0, 2.47, 3.0]  # 3.0 has the largest RK4 error of the fig3 grid


def closed_form_log_negativity(family: str, n: int, cut_label: str, noise, t: float):
    """E(t) for a GHZ or W state under the dephasing ``NoiseSpec`` ``noise``."""
    if noise.kind != "dephasing" or family not in ("ghz", "w"):
        raise ValueError(f"no closed form for {family} under {noise.kind} noise")
    big_gamma = float(noise.rate_z.integrated(t))
    rate = noise.kappa * big_gamma / noise.omega0
    if family == "ghz":
        return math.log2(1.0 + math.exp(-2.0 * rate * n))
    k = len(parse_cut_label(cut_label, n).canonical().side_a)
    return math.log2(1.0 + 2.0 * math.exp(-4.0 * rate) * math.sqrt(k * (n - k)) / n)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_formulas_reject_other_inputs():
    noise = load_config(str(CONFIG_DIR / "fig5_ghz_n7_depolarising.json")).noise
    with pytest.raises(ValueError):
        closed_form_log_negativity("ghz", 7, "1-Rest", noise, 1.0)
    noise = load_config(str(CONFIG_DIR / "fig3_ghz_dephasing_sweep.json")).noise
    with pytest.raises(ValueError):
        closed_form_log_negativity("dicke", 4, "1-Rest", noise, 1.0)


@pytest.mark.parametrize("stem", ["fig3_ghz_dephasing_sweep", "fig4_w_dephasing_sweep"])
def test_sweep_matches_closed_form(stem, tmp_path):
    payload = load_config(str(CONFIG_DIR / f"{stem}.json")).to_dict()
    payload["sweep"]["axes"]["s"] = S_SUBSET
    config = parse_config(payload)
    rows = _read_csv(sweep_experiment(config, str(tmp_path), workers=1)["summary"])
    assert len(rows) == len(config.sweep.axes["n"]) * len(S_SUBSET) * len(config.cuts)
    worst = 0.0
    for row in rows:
        noise = dataclasses.replace(
            config.noise,
            rate_z=dataclasses.replace(config.noise.rate_z, s=float(row["s"])),
            kappa=float(row["kappa"]),
        )
        expected = closed_form_log_negativity(
            config.state.family, int(row["n"]), row["cut"], noise, float(row["t"])
        )
        worst = max(worst, abs(float(row["log_negativity"]) - expected))
    assert worst <= TOL


@pytest.mark.parametrize("stem", ["fig2a_ghz_n3_dephasing", "fig2b_ghz_n5_dephasing"])
def test_trajectory_matches_closed_form(stem, tmp_path):
    config = load_config(str(CONFIG_DIR / f"{stem}.json"))
    rows = _read_csv(run_experiment(config, str(tmp_path))["trajectory"])
    samples = round(config.time.t_max / config.time.observable_every) + 1
    assert len(rows) == len(config.cuts) * samples
    noise, worst = config.noise, 0.0
    for row in rows:
        expected = closed_form_log_negativity(
            config.state.family, config.state.n, row["bipartition_label"], noise, float(row["t"])
        )
        worst = max(worst, abs(float(row["log_negativity"]) - expected))
    assert worst <= TOL
