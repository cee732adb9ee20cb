"""Golden values of the paper workloads.

``tests/golden/*.json`` pins what the engine gives on the configs under
``configs/paper/``: the fig2a/fig2b plateaus, the fig5 collapse and revival
windows and peaks (including the second revival of the n=7 cat state near
t = 12.35), the fig3/fig4 E(t=30) grids for n <= 8, the divisibility verdict,
about 20 samples of E(t) per trajectory and cut, and both scaling fits of
every series of the two grids.  Values are compared at an absolute 1e-10,
not by hash, so that roundoff-level changes to the integrator or the
eigensolvers pass and anything larger fails.

After checking that a change of these values is intended, re-record them with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qubitbath.analysis import fit_exp_decay_shift, fit_reciprocal_exp
from qubitbath.cli import divisibility_report, run_experiment, sweep_experiment
from qubitbath.config import load_config, parse_config

GOLDEN_DIR = Path(__file__).parent / "golden"
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs" / "paper"
TOL = 1e-10
SAMPLES_PER_SERIES = 20
GRID_MAX_N = 8

# golden file stem -> (how the config is run, config file stem)
CASES = {
    "fig2a": ("run", "fig2a_ghz_n3_dephasing"),
    "fig2b": ("run", "fig2b_ghz_n5_dephasing"),
    "fig3_grid": ("sweep", "fig3_ghz_dephasing_sweep"),
    "fig4_grid": ("sweep", "fig4_w_dephasing_sweep"),
    "fig5_ghz_n7": ("run", "fig5_ghz_n7_depolarising"),
    "fig5_w_n5": ("run", "fig5_w_n5_depolarising"),
    "divisibility": ("divisibility", "divisibility_depolarising"),
}


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _run_values(config, out_dir):
    paths = run_experiment(config, out_dir)
    series = {}
    for row in _read_csv(paths["trajectory"]):
        series.setdefault(row["bipartition_label"], []).append(
            [float(row["t"]), float(row["log_negativity"])]
        )
    samples = {}
    for label, points in series.items():
        picks = np.linspace(0, len(points) - 1, SAMPLES_PER_SERIES).round().astype(int)
        samples[label] = [points[i] for i in picks]
    with open(paths["analysis"], encoding="utf-8") as handle:
        analysis = json.load(handle)
    return {"analysis": analysis, "samples": samples}


def _sweep_values(config, out_dir):
    payload = config.to_dict()
    axes = payload["sweep"]["axes"]
    axes["n"] = [n for n in axes["n"] if n <= GRID_MAX_N]
    paths = sweep_experiment(parse_config(payload), out_dir, workers=1)
    rows = _read_csv(paths["summary"])
    return {
        "grid": [
            [int(row["n"]), float(row["s"]), row["cut"], float(row["log_negativity"])]
            for row in rows
        ]
    }


def _divisibility_values(config, out_dir):
    return divisibility_report(config)


COMPUTE = {"run": _run_values, "sweep": _sweep_values, "divisibility": _divisibility_values}


def compute(name):
    kind, config_stem = CASES[name]
    config = load_config(str(CONFIG_DIR / f"{config_stem}.json"))
    with tempfile.TemporaryDirectory() as out_dir:
        values = COMPUTE[kind](config, out_dir)
    return {"config": config_stem, **values}


def assert_close(actual, expected, where="values"):
    """Same structure; numbers within TOL, everything else equal."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), where
        for key in expected:
            assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{where}[{i}]")
    elif isinstance(expected, float) and not isinstance(actual, bool):
        assert isinstance(actual, (int, float)), where
        assert abs(actual - expected) <= TOL or actual == expected, (
            f"{where}: {actual!r} differs from golden {expected!r} by {abs(actual - expected):.3e}"
        )
    else:
        assert actual == expected, f"{where}: {actual!r} != golden {expected!r}"


def load(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    # round-trip through JSON so that tuples and ints compare as recorded
    assert_close(json.loads(json.dumps(compute(name))), load(name))


def test_golden_pins_the_paper_phenomenology():
    """The recorded values themselves show the behaviours they are kept for."""
    for name in ("fig2a", "fig2b"):
        saturation = load(name)["analysis"]["1-Rest"]["saturation"]
        assert saturation["saturated"] and saturation["value"] > 0.0
    ghz7 = load("fig5_ghz_n7")["analysis"]["highest-cut"]["revivals"]["events"]
    assert any(abs(event["t_revival"] - 12.35) < 0.5 for event in ghz7)
    grids = [load(name)["grid"] for name in ("fig3_grid", "fig4_grid")]
    assert [len(grid) for grid in grids] == [6 * 12, 6 * 12 * 2]
    assert load("divisibility")["classification"] == "non-P-divisible"


def grid_fits():
    """Both scaling models fitted to each (cut, s) series of the fig3/fig4 golden grids."""
    fits = {}
    for name in ("fig3_grid", "fig4_grid"):
        grid = load(name)["grid"]
        for cut, s in sorted({(cut, s) for _, s, cut, _ in grid}):
            points = [(n, e) for n, s_n, cut_n, e in grid if (cut_n, s_n) == (cut, s)]
            for fit in (fit_exp_decay_shift(points), fit_reciprocal_exp(points)):
                fits[f"{name} {cut} s={s!r} {fit.model}"] = [fit.a, fit.b, fit.c, fit.converged]
    return fits


def test_grid_fits_match_golden():
    # the 16 unconverged reciprocal fits (fig3 1-Rest at four s, the fig4
    # balanced cut at every s) have no finite optimum: their a is wherever
    # the iteration cap stopped it
    fits = json.loads(json.dumps(grid_fits()))
    assert_close(fits, load("grid_fits"), "grid_fits")
    assert sum(fit[3] for fit in fits.values()) == len(fits) - 16


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    outputs = {name: lambda name=name: compute(name) for name in sorted(CASES)}
    outputs["grid_fits"] = grid_fits
    for name, values in outputs.items():
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(values(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    record()
