import contextlib
import copy
import csv
import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qubitbath.cli as cli
from qubitbath import dynamics, evolve, states
from qubitbath.cli import (
    divisibility_report,
    main,
    run_experiment,
    sweep_experiment,
)
from qubitbath.config import ConfigError, StateConfig, load_config, parse_config
from reference import dense_engine

ROOT = Path(__file__).resolve().parents[1]
PAPER_CONFIGS = sorted((ROOT / "configs" / "paper").glob("*.json"))


def base_payload(**overrides):
    payload = {
        "state": {"family": "ghz", "n": 3},
        "noise": {
            "kind": "dephasing",
            "rate_z": {"kind": "ohmic_t0", "s": 2.47, "omega_c": 1.0},
            "kappa": 0.25,
            "omega0": 1.0,
        },
        "time": {"t_max": 2.0, "step": 0.01, "sample_every": 1.0, "observable_every": 0.5},
        "cuts": ["1-Rest"],
        "output": {"directory": "runs", "formats": ["csv", "json"]},
    }
    payload.update(overrides)
    return payload


# every rate kind, on every axis, including those no paper config uses
RATE_RECORDS = [
    {"kind": "constant", "gamma0": 0.1},
    {"kind": "sinusoidal", "alpha": -0.7},
    {"kind": "ohmic_t0", "s": 2.47, "omega_c": 2.0},
]
RATE_AXES = ["rate_x", "rate_y", "rate_z"]


def rate_payload(axis, record):
    payload = base_payload()
    payload["noise"].update({"kind": "pauli", axis: record})
    return payload


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestConfigParsing:
    def test_valid_config(self):
        config = parse_config(base_payload())
        assert config.state.family == "ghz"
        assert config.noise.kappa == 0.25
        assert config.cuts == ("1-Rest",)

    @pytest.mark.parametrize(
        "payload",
        [json.loads(path.read_text()) for path in PAPER_CONFIGS]
        + [
            base_payload(
                state={"family": "dicke", "n": 4, "k": 2},
                sweep={"axes": {"n": [4, 5], "kappa": [1.0]}, "snapshot_t": 1.0},
            )
        ]
        + [rate_payload(axis, record) for axis in RATE_AXES for record in RATE_RECORDS],
        ids=[path.stem for path in PAPER_CONFIGS]
        + ["dicke-sweep"]
        + [f"{axis}-{record['kind']}" for axis in RATE_AXES for record in RATE_RECORDS],
    )
    def test_round_trip_through_dict(self, payload):
        # sweep cells are derived through to_dict, so it must lose nothing
        config = parse_config(payload)
        assert parse_config(config.to_dict()) == config

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda p: p.pop("state"), "state"),
            (lambda p: p["state"].update(family="cluster"), "family"),
            (lambda p: p["state"].update(n=0), "state.n"),
            (lambda p: p["noise"].update(kappa=0.5), "kappa"),
            (lambda p: p["time"].update(t_max=-1.0), "t_max"),
            (lambda p: p["time"].update(sample_every=0.001), "sample_every"),
            (lambda p: p.update(cuts=["5-Rest"]), "cuts"),
            # side A is valid at n = 3; side B must be its complement {2,3}
            (lambda p: p.update(cuts=["{1}|{3}"]), r"cuts: bipartition label '\{1\}\|\{3\}'"),
            (lambda p: p["noise"]["rate_z"].update(kind="unknown"), "noise"),
            # bool is an int subclass, and n = 3.5 would run as int(3.5) = 3
            (lambda p: p["state"].update(n=True), "state.n: expected a positive integer, got True"),
            (lambda p: p["state"].update(n=3.0), "state.n: expected a positive integer, got 3.0"),
            (
                lambda p: p.update(state={"family": "dicke", "n": 4, "k": True}),
                "state.k: expected a positive integer, got True",
            ),
            (
                lambda p: p.update(state={"family": "dicke", "n": 4, "k": 1.5}),
                "state.k: expected a positive integer, got 1.5",
            ),
            (
                lambda p: p.update(sweep={"axes": {"n": [3, 3.5]}}),
                "sweep.axes.n: expected a positive integer, got 3.5",
            ),
            (
                lambda p: p.update(sweep={"axes": {"n": [True]}}),
                "sweep.axes.n: expected a positive integer, got True",
            ),
            # a misspelled field must not fall back to its default
            (lambda p: p.update(sweeps={"axes": {"n": [3]}}), "top level: unknown field 'sweeps'"),
            (lambda p: p["state"].update(size=4), "state: unknown field 'size'"),
            (lambda p: p["noise"].update(kapa=1.0), "noise: unknown field 'kapa'"),
            (
                lambda p: p["time"].update(observable_evry=0.5),
                "time: unknown field 'observable_evry'",
            ),
            (
                lambda p: p.update(analysis={"revival_treshold": 1e-3}),
                "analysis: unknown field 'revival_treshold'",
            ),
            (lambda p: p["output"].update(format=["csv"]), "output: unknown field 'format'"),
            (
                lambda p: p.update(sweep={"axes": {"n": [3]}, "worker": 2}),
                "sweep: unknown field 'worker'",
            ),
            # the worker count is set by --workers alone
            (
                lambda p: p.update(sweep={"axes": {"n": [3]}, "workers": 2}),
                "sweep: unknown field 'workers'",
            ),
            (lambda p: p.update(output=["csv"]), "output: expected a JSON object"),
            # float(true) is 1.0: the row would read s=True and run s = 1
            (
                lambda p: p.update(sweep={"axes": {"s": [True, 1.0]}}),
                "sweep.axes.s: expected a number, got True",
            ),
            (
                lambda p: p.update(sweep={"axes": {"s": ["2.5"]}}),
                "sweep.axes.s: expected a number, got '2.5'",
            ),
            (lambda p: p.update(sweep={"axes": {"s": [0.0]}}), "sweep.axes.s: must be positive"),
            (
                lambda p: p.update(sweep={"axes": {"kappa": [True]}}),
                r"sweep.axes.kappa: expected one of \(1.0, 0.25\), got True",
            ),
            (
                lambda p: p.update(sweep={"axes": {"kappa": [0.5]}}),
                r"sweep.axes.kappa: expected one of \(1.0, 0.25\), got 0.5",
            ),
            # float() takes true/false and numeric strings; a noise number takes neither
            (lambda p: p["noise"].update(kappa=True), "noise.kappa: expected a number, got True"),
            (lambda p: p["noise"].update(omega0="2"), "noise.omega0: expected a number, got '2'"),
            (
                lambda p: p["noise"]["rate_z"].update(s=True),
                "noise.rate_z.s: expected a number, got True",
            ),
            (
                lambda p: p["noise"].update(
                    kind="pauli", rate_x={"kind": "constant", "gamma0": True}
                ),
                "noise.rate_x.gamma0: expected a number, got True",
            ),
            # a rate record is a record like any other: its errors name its path
            (lambda p: p["noise"].update(rate_z=5), "noise.rate_z: expected a JSON object"),
            (
                lambda p: p["noise"]["rate_z"].update(gamma=1.0),
                "noise.rate_z: unknown field 'gamma'",
            ),
            (lambda p: p["noise"]["rate_z"].pop("s"), "noise.rate_z: missing required field 's'"),
            (
                lambda p: p["noise"]["rate_z"].update(kind="lorentzian"),
                r"noise.rate_z.kind: expected one of \(.*\), got 'lorentzian'",
            ),
            (
                lambda p: p["noise"]["rate_z"].pop("kind"),
                r"noise.rate_z.kind: expected one of \(.*\), got None",
            ),
            (lambda p: p["noise"].pop("kind"), "noise: missing required field 'kind'"),
            (
                lambda p: p["noise"]["rate_z"].update(s=-1.0),
                "noise.rate_z: OhmicZeroTempRate requires s > 0",
            ),
            (
                lambda p: p["noise"].update(
                    kind="pauli", rate_y={"kind": "constant", "gamma0": -0.1}
                ),
                "noise.rate_y: constant rate must be nonnegative",
            ),
            # malformed values must be config errors, not crashes further on
            (lambda p: p.update(cuts=[1]), r"cuts: expected a list of strings, got \[1\]"),
            (lambda p: p.update(cuts="1-Rest"), "cuts: expected a list of strings"),
            (lambda p: p["output"].update(formats=5), "output.formats: expected a list of strings"),
            (
                lambda p: p["output"].update(formats="csv"),
                "output.formats: expected a list of strings, got 'csv'",
            ),
            (lambda p: p["output"].update(directory=5), "output.directory: expected a non-empty"),
            (lambda p: p["output"].update(directory=""), "output.directory: expected a non-empty"),
            # a null stands only for a default of None
            (lambda p: p.update(sweep=None), "sweep: expected a JSON object"),
            (lambda p: p["time"].update(step=None), "time.step: expected a number, got None"),
            # Python's json reads NaN and Infinity
            (lambda p: p["time"].update(t_max=math.inf), "time.t_max: expected a number, got inf"),
            (
                lambda p: p["noise"]["rate_z"].update(omega_c=math.nan),
                "noise.rate_z.omega_c: expected a number, got nan",
            ),
            # every time value runs on the step grid
            (
                lambda p: p["time"].update(t_max=1.005),
                "time.t_max=1.005 is not a positive multiple of step=0.01",
            ),
            (
                lambda p: p["time"].update(sample_every=1.005),
                "time.sample_every=1.005 is not a positive multiple of step=0.01",
            ),
            (
                lambda p: p["time"].update(observable_every=0.015),
                "time.observable_every=0.015 is not a positive multiple of step=0.01",
            ),
            (
                lambda p: p.update(sweep={"axes": {"n": [3]}, "snapshot_t": 1.005}),
                "sweep.snapshot_t=1.005 is not a positive multiple of step=0.01",
            ),
            (lambda p: p.update(cuts=["1-Rest", "1-Rest"]), "cuts: duplicate label '1-Rest'"),
            # a repeated axis value would run its cells twice; 2 and 2.0 are one s
            (
                lambda p: p.update(sweep={"axes": {"n": [3, 4, 3]}}),
                "sweep.axes.n: duplicate value 3$",
            ),
            (
                lambda p: p.update(sweep={"axes": {"n": [3], "s": [2, 2.0]}}),
                r"sweep.axes.s: duplicate value 2\.0$",
            ),
        ],
    )
    def test_invalid_configs_raise_with_field_path(self, mutate, fragment):
        payload = base_payload()
        mutate(payload)
        with pytest.raises(ConfigError, match=fragment):
            parse_config(payload)

    def test_dicke_excitation_validation(self):
        payload = base_payload(state={"family": "dicke", "n": 4, "k": 2})
        assert parse_config(payload).state.k == 2
        payload = base_payload(state={"family": "dicke", "n": 4, "k": 4})
        with pytest.raises(ConfigError, match="state.k"):
            parse_config(payload)

    def test_sweep_axes_store_the_values_that_run(self):
        config = parse_config(base_payload(sweep={"axes": {"s": [2], "kappa": [1, 0.25]}}))
        assert config.sweep.axes == {"s": [2.0], "kappa": [1.0, 0.25]}
        assert all(type(v) is float for values in config.sweep.axes.values() for v in values)

    def test_sweep_axis_validation(self):
        payload = base_payload(sweep={"axes": {"temperature": [1.0]}})
        with pytest.raises(ConfigError, match="axes"):
            parse_config(payload)

    @pytest.mark.parametrize("value", [0, -1, 2.5, None])  # no null state: the default is 512
    def test_sweep_counts_must_be_positive_integers(self, value):
        payload = base_payload(sweep={"axes": {"n": [3]}, "job_cap": value})
        with pytest.raises(ConfigError, match="sweep.job_cap"):
            parse_config(payload)

    def test_null_stands_for_a_default_of_none(self):
        payload = base_payload(
            state={"family": "ghz", "n": 3, "k": None},
            time={"t_max": 2.0, "sample_every": None, "observable_every": None},
        )
        config = parse_config(payload)
        assert config.state.k is None
        assert (config.time.sample_every, config.time.observable_every) == (None, None)

    def test_sweep_counts_accept_positive_integers(self):
        config = parse_config(base_payload(sweep={"axes": {"n": [3]}, "job_cap": 1}))
        assert config.sweep.job_cap == 1
        assert parse_config(base_payload(sweep={"axes": {"n": [3]}})).sweep.job_cap == 512

    def test_load_config_reports_json_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"state": }')
        with pytest.raises(ConfigError, match="broken.json:1"):
            load_config(str(path))


class TestRunCommand:
    def test_artifacts_and_determinism(self, tmp_path):
        config = parse_config(base_payload())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        paths_a = run_experiment(config, str(out_a))
        paths_b = run_experiment(config, str(out_b))
        body_a = open(paths_a["trajectory"], "rb").read()
        body_b = open(paths_b["trajectory"], "rb").read()
        assert body_a == body_b

        with open(paths_a["trajectory"], newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["bipartition_label"] == "1-Rest"
        assert float(rows[0]["log_negativity"]) == pytest.approx(1.0, abs=1e-10)
        times = [float(r["t"]) for r in rows]
        assert times == [0.0, 0.5, 1.0, 1.5, 2.0]

        metadata = json.load(open(paths_a["metadata"]))
        assert metadata["config"]["noise"]["kappa"] == 0.25
        assert metadata["trajectory"]["max_trace_drift"] <= 1e-9

    @pytest.mark.parametrize("formats", [["csv", "json"], ["csv", "states"]])
    def test_run_keeps_only_the_states_it_writes(self, tmp_path, monkeypatch, formats):
        built = []
        post_init = states.DensityMatrix.__post_init__

        def counted_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(states.DensityMatrix, "__post_init__", counted_post_init)
        config = parse_config(base_payload(output={"directory": "runs", "formats": formats}))
        paths = run_experiment(config, str(tmp_path))
        if "states" not in formats:
            assert built == [] and "states" not in paths
            return
        # sample_every 1.0 up to t_max 2.0
        dump = json.load(open(paths["states"]))["states"]
        assert [entry["t"] for entry in dump] == [0.0, 1.0, 2.0]
        assert len(built) == 3
        # each entry is {"n", "elements": [[[re, im], ...], ...]}, the kept state's bits
        for entry, state in zip(dump, built):
            assert sorted(entry["state"]) == ["elements", "n"] and entry["state"]["n"] == 3
            pairs = np.array(entry["state"]["elements"])
            assert pairs.shape == (8, 8, 2)
            assert np.array_equal(pairs[..., 0], state.elements.real)
            assert np.array_equal(pairs[..., 1], state.elements.imag)

    def test_two_cut_run_emits_both_series(self, tmp_path):
        config = parse_config(
            base_payload(
                state={"family": "w", "n": 4},
                cuts=["1-Rest", "highest-cut"],
            )
        )
        paths = run_experiment(config, str(tmp_path / "out"))
        with open(paths["trajectory"], newline="") as handle:
            rows = list(csv.DictReader(handle))
        labels = {r["bipartition_label"] for r in rows}
        assert labels == {"1-Rest", "highest-cut"}
        by_label = {
            label: [float(r["log_negativity"]) for r in rows if r["bipartition_label"] == label]
            for label in labels
        }
        assert len(by_label["1-Rest"]) == len(by_label["highest-cut"]) == 5

    def test_saturation_needs_two_records_in_the_trailing_window(self, tmp_path):
        # t = 0, 5, ..., 100: the span and the record count pass, but [98, 100] holds one record
        payload = base_payload(analysis={"saturation_window": 2.0})
        payload["time"].update(t_max=100.0, observable_every=5.0)
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
        analysis = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert list(analysis["1-Rest"]) == ["revivals"]

    def test_refused_analysis_leaves_no_output(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise ValueError("refused")

        monkeypatch.setattr(cli, "_trajectory_analysis", refuse)
        with pytest.raises(ValueError, match="refused"):
            run_experiment(parse_config(base_payload()), str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_fmt_writes_numpy_floats_as_python_floats(self):
        assert cli._fmt(np.float64(0.1)) == "0.1"

    def test_emitted_values_within_bounds(self, tmp_path):
        config = parse_config(base_payload())
        paths = run_experiment(config, str(tmp_path / "out"))
        with open(paths["trajectory"], newline="") as handle:
            values = [float(r["log_negativity"]) for r in csv.DictReader(handle)]
        assert all(0.0 <= v <= 3.0 for v in values)

    def test_cli_main_run(self, tmp_path, capsys):
        path = write_config(tmp_path, base_payload())
        code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_metadata_lists_blocks_of_touched_nodes(self, tmp_path):
        # GHZ n = 5 under dephasing touches basis indices 0 and 31 of rho (one 2-block)
        # and four of its partial transpose; the other indices get no block
        paths = run_experiment(paper_config("fig2b_ghz_n5_dephasing"), str(tmp_path / "out"))
        blocks = json.loads(Path(paths["metadata"]).read_text())["trajectory"]["blocks"]
        assert blocks == {"1-Rest": [[1, 2], [2, 1]], "rho": [[2, 1]]}
        header = Path(paths["trajectory"]).read_text().splitlines()[0]
        assert "block" not in header

    def test_cli_bad_config_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, base_payload(state={"family": "x", "n": 3}))
        assert main(["run", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, mutate, field",
        [
            ("run", lambda p: p.update(cuts=[1]), "cuts"),
            ("run", lambda p: p["output"].update(formats=5), "output.formats"),
            ("run", lambda p: p["output"].update(directory=5), "output.directory"),
            ("run", lambda p: p["output"].update(directory=""), "output.directory"),
            ("run", lambda p: p["time"].update(t_max=math.inf), "time.t_max"),
            # Gamma(200) overflows a float: refused when parsed, not at the first rate call
            ("run", lambda p: p["noise"]["rate_z"].update(s=200), "noise.rate_z: "),
            (
                "sweep",
                lambda p: p.update(sweep={"axes": {"n": [3, 4]}, "snapshot_t": 1.005}),
                "sweep.snapshot_t",
            ),
        ],
    )
    def test_cli_malformed_values_exit_2(
        self, tmp_path, monkeypatch, capsys, command, mutate, field
    ):
        payload = base_payload()
        mutate(payload)
        path = write_config(tmp_path, payload)
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", path]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


class TestSweepCommand:
    def test_single_cell_matches_run(self, tmp_path):
        # at n = 3 all three labels name the cut {1}|{2,3}: it is solved once, reported thrice
        labels = ["1-Rest", "highest-cut", "{2,3}|{1}"]
        config = parse_config(
            base_payload(
                time={"t_max": 1.0, "step": 0.01, "observable_every": 0.5, "sample_every": 1.0},
                cuts=labels,
                sweep={"axes": {"n": [3]}, "snapshot_t": 1.0},
            )
        )
        run_paths = run_experiment(config, str(tmp_path / "run"))
        with open(run_paths["trajectory"], newline="") as handle:
            run_rows = list(csv.DictReader(handle))
        assert [r["bipartition_label"] for r in run_rows] == [x for x in labels for _ in range(3)]
        last = {r["bipartition_label"]: (r["t"], r["log_negativity"]) for r in run_rows}
        assert sorted(json.load(open(run_paths["analysis"]))) == sorted(labels)
        metadata = json.load(open(run_paths["metadata"]))
        assert metadata["trajectory"]["cuts"] == ["1-Rest"]

        sweep_paths = sweep_experiment(config, str(tmp_path / "sweep"), workers=1)
        with open(sweep_paths["summary"], newline="") as handle:
            sweep_rows = list(csv.DictReader(handle))
        assert sorted(r["cut"] for r in sweep_rows) == sorted(labels)
        # both print repr(float), so equal strings are equal bits
        assert all(last[r["cut"]] == (r["t"], r["log_negativity"]) for r in sweep_rows)

    def test_axes_product_and_order(self, tmp_path):
        config = parse_config(
            base_payload(sweep={"axes": {"n": [4, 3], "s": [2.47, 2.0]}, "snapshot_t": 1.0})
        )
        paths = sweep_experiment(config, str(tmp_path / "sweep"), workers=2)
        with open(paths["summary"], newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [(r["n"], r["s"]) for r in rows] == [
            ("3", "2.0"),
            ("3", "2.47"),
            ("4", "2.0"),
            ("4", "2.47"),
        ]
        summary = json.load(open(paths["metadata"]))
        assert summary["cells"] == 4
        assert summary["failures"] == []

    def test_job_cap_enforced(self, tmp_path):
        config = parse_config(
            base_payload(
                sweep={"axes": {"n": [3, 4, 5]}, "snapshot_t": 1.0, "job_cap": 2}
            )
        )
        with pytest.raises(ConfigError, match="job_cap"):
            sweep_experiment(config, str(tmp_path / "sweep"))

    def test_memory_budget_enforced(self, tmp_path):
        config = parse_config(
            base_payload(
                sweep={
                    "axes": {"n": [12]},
                    "snapshot_t": 1.0,
                    "memory_budget_mb": 1.0,
                }
            )
        )
        with pytest.raises(ConfigError, match="memory"):
            sweep_experiment(config, str(tmp_path / "sweep"))

    def test_failed_cell_makes_cli_exit_nonzero(self, tmp_path, monkeypatch, capsys):
        import qubitbath.cli as cli

        real_evolve = cli.evolve

        def evolve_failing_at_n4(rho0, *args, **kwargs):
            if rho0.n == 4:
                raise RuntimeError("injected cell failure")
            return real_evolve(rho0, *args, **kwargs)

        payload = base_payload(sweep={"axes": {"n": [3, 4]}, "snapshot_t": 1.0})
        payload["output"]["formats"] = ["csv"]  # no summary.json to carry the failure
        path = write_config(tmp_path, payload)
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", path, "--out", str(out), "--workers", "1"]
        assert main(argv) == 0
        monkeypatch.setattr(cli, "evolve", evolve_failing_at_n4)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "injected cell failure" in err
        assert "1 of 2 cells failed" in err
        with open(out / "summary.csv", newline="") as handle:
            assert [r["n"] for r in csv.DictReader(handle)] == ["3"]

        # summary.json carries the traceback; stderr keeps the one line
        payload["output"]["formats"] = ["csv", "json"]
        argv[2] = write_config(tmp_path, payload, name="with_json.json")
        assert main(argv) == 1
        assert "Traceback" not in capsys.readouterr().err
        (failure,) = json.loads((out / "summary.json").read_text())["failures"]
        assert failure["cell"] == {"n": 4}
        assert failure["error"] == "RuntimeError: injected cell failure"
        assert failure["traceback"].startswith("Traceback (most recent call last):")
        assert "evolve_failing_at_n4" in failure["traceback"]
        assert failure["traceback"].rstrip().endswith(failure["error"])

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_non_positive_workers_is_a_usage_error(self, tmp_path, capsys, workers):
        path = write_config(tmp_path, base_payload(sweep={"axes": {"n": [3]}, "snapshot_t": 1.0}))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", path, "--out", str(out), "--workers", workers]) == 2
        assert f"workers: expected a positive integer, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -3, "two", 2.5, True])
    def test_sweep_experiment_refuses_a_bad_worker_count(self, tmp_path, workers):
        config = parse_config(base_payload(sweep={"axes": {"n": [3]}, "snapshot_t": 1.0}))
        out = tmp_path / "sweep"
        refusal = f"workers: expected a positive integer, got {workers!r}"
        with pytest.raises(ConfigError, match=re.escape(refusal)):
            sweep_experiment(config, str(out), workers=workers)
        assert not out.exists()

    def test_sweep_experiment_defaults_to_one_worker(self, tmp_path):
        config = parse_config(base_payload(sweep={"axes": {"n": [3, 4]}, "snapshot_t": 1.0}))
        paths = sweep_experiment(config, str(tmp_path / "sweep"), workers=None)
        assert json.loads(Path(paths["metadata"]).read_text())["workers"] == 1

    @pytest.mark.parametrize("command", ["run", "sweep", "oracle-check"])
    def test_kappa_flag_is_gone(self, tmp_path, capsys, command):
        # kappa comes from noise.kappa or a sweep.axes.kappa axis, never from the command line
        payload = base_payload(sweep={"axes": {"n": [3]}, "snapshot_t": 1.0})
        path = write_config(tmp_path, payload)
        out = [] if command == "oracle-check" else ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", path, *out, "--kappa", "1.0"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --kappa 1.0" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_sweep_requires_sweep_section(self, tmp_path):
        config = parse_config(base_payload())
        with pytest.raises(ConfigError, match="sweep"):
            sweep_experiment(config, str(tmp_path / "sweep"))


class TestDivisibilityCommand:
    def test_report_payload(self):
        config = parse_config(
            base_payload(
                noise={
                    "kind": "pauli",
                    "rate_z": {"kind": "sinusoidal", "alpha": 1.0},
                    "rate_x": {"kind": "constant", "gamma0": 0.1},
                    "rate_y": {"kind": "constant", "gamma0": 0.1},
                    "kappa": 0.25,
                },
                time={"t_max": 20.0, "step": 0.01},
            )
        )
        payload = divisibility_report(config)
        assert payload["classification"] == "non-P-divisible"
        first = payload["violation_windows"][0]
        assert math.pi < first[0] < first[1] < 2 * math.pi

    def test_cli_divisibility(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the config's output directory is relative
        path = write_config(
            tmp_path,
            base_payload(
                noise={
                    "kind": "pauli",
                    "rate_z": {"kind": "constant", "gamma0": 0.1},
                    "rate_x": {"kind": "constant", "gamma0": 0.1},
                    "rate_y": {"kind": "constant", "gamma0": 0.1},
                    "kappa": 1.0,
                },
                time={"t_max": 10.0, "step": 0.01},
            ),
        )
        assert main(["divisibility", "--config", path]) == 0
        assert "CP-divisible" in capsys.readouterr().out

    @pytest.mark.parametrize("formats", [["json"], ["csv"]])
    def test_cli_divisibility_writes_to_config_directory(
        self, tmp_path, capsys, monkeypatch, formats
    ):
        monkeypatch.chdir(tmp_path)
        payload = json.loads(
            next(p for p in PAPER_CONFIGS if p.stem == "divisibility_depolarising").read_text()
        )
        payload["output"]["formats"] = formats
        path = write_config(tmp_path, payload)
        assert main(["divisibility", "--config", path]) == 0
        written = tmp_path / payload["output"]["directory"] / "divisibility.json"
        if "json" in formats:
            assert json.loads(written.read_text())["classification"] == "non-P-divisible"
            assert f"divisibility: {payload['output']['directory']}" in capsys.readouterr().out
        else:
            assert not (tmp_path / payload["output"]["directory"]).exists()


class TestOracleCheckCommand:
    def test_pass_and_fail_threshold(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            base_payload(time={"t_max": 2.0, "step": 0.01}),
        )
        for engine in (contextlib.nullcontext, dense_engine):
            with engine():
                assert main(["oracle-check", "--config", path]) == 0
                assert "pass" in capsys.readouterr().out
                assert main(["oracle-check", "--config", path, "--threshold", "1e-16"]) == 1
                assert "FAIL" in capsys.readouterr().out

    def test_refuses_out(self, tmp_path, capsys):
        # oracle-check writes nothing, so it takes no output directory
        path = write_config(tmp_path, base_payload(time={"t_max": 2.0, "step": 0.01}))
        with pytest.raises(SystemExit) as exit_info:
            main(["oracle-check", "--config", path, "--out", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --out" in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_ohmicity_whose_gamma_of_s_minus_one_is_undefined_names_the_field(
        self, tmp_path, capsys
    ):
        payload = base_payload(time={"t_max": 2.0, "step": 0.01})
        payload["noise"]["rate_z"]["s"] = 1e-17  # s - 1 rounds to -1.0
        with pytest.raises(ConfigError, match=r"^noise\.rate_z: .*Gamma\(s - 1\)"):
            parse_config(payload)
        assert main(["oracle-check", "--config", write_config(tmp_path, payload)]) == 2
        assert "noise.rate_z" in capsys.readouterr().err


class TestFitCommand:
    @staticmethod
    def write_summary(tmp_path, rows):
        path = tmp_path / "summary.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["n", "s", "kappa", "cut", "t", "log_negativity"])
            writer.writerows(rows)
        return str(path)

    def test_fit_recovers_parameters(self, tmp_path, capsys):
        rows = []
        for n in range(3, 11):
            value = 0.34 * math.exp(-0.42 * (n - 3)) + 0.01
            rows.append([n, repr(2.47), repr(0.25), "1-Rest", repr(30.0), repr(value)])
        path = self.write_summary(tmp_path, rows)
        out = tmp_path / "fit.json"
        code = main(
            ["fit", "--input", path, "--model", "exp_decay_shift", "--out", str(out)]
        )
        assert code == 0
        payload = json.load(open(out))
        assert payload["a"] == pytest.approx(0.34, abs=1e-6)
        assert payload["c"] == pytest.approx(0.42, abs=1e-6)
        assert payload["residual"] < 1e-9
        assert payload["vanishing_N"] is None  # offset 0.01 > 1e-3 threshold

    def test_fit_parity_selection(self, tmp_path):
        rows = []
        for n in range(3, 12):
            value = 1.0 / (0.28 * math.exp(-0.45 * n) + 1.42**2)
            rows.append([n, repr(2.47), repr(0.25), "highest-cut", repr(30.0), repr(value)])
        path = self.write_summary(tmp_path, rows)
        out = tmp_path / "fit.json"
        code = main(
            [
                "fit",
                "--input",
                path,
                "--model",
                "reciprocal_exp",
                "--parity",
                "odd",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.load(open(out))
        assert payload["parity"] == "odd"
        assert payload["asymptote"] == pytest.approx(1.0 / 1.42**2, rel=1e-4)

    def test_fit_without_optimum_is_not_converged(self, tmp_path, capsys):
        # fig4 W balanced cut at s = 2.47, both parities: E_N has no finite
        # reciprocal-model optimum, a and c grow together until the iteration cap
        values = [
            0.47237568987802286, 0.4966070348948277, 0.48809313613994965, 0.4966070348948284,
            0.49229120448429275, 0.49660703489482727, 0.4940030911752275, 0.49660703489482794,
        ]
        rows = [
            [n, repr(2.47), repr(0.25), "highest-cut", repr(30.0), repr(value)]
            for n, value in zip(range(3, 11), values)
        ]
        path = self.write_summary(tmp_path, rows)
        args = ["fit", "--input", path, "--model", "reciprocal_exp", "--cut", "highest-cut"]
        assert main(args + ["--s", "2.47"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is False
        assert payload["a"] > 1e6  # where the cap stopped the run-off

    def test_fit_requires_unique_s(self, tmp_path, capsys):
        rows = [
            [n, repr(s), repr(0.25), "1-Rest", repr(30.0), repr(0.1)]
            for n in range(3, 8)
            for s in (2.0, 2.47)
        ]
        path = self.write_summary(tmp_path, rows)
        assert main(["fit", "--input", path]) == 2
        assert "pass --s" in capsys.readouterr().err

    def test_sweep_without_n_axis_fills_n(self, tmp_path, capsys):
        # n and s come from each cell's config, not from the axes the sweep has
        payload = base_payload(state={"family": "ghz", "n": 4})
        payload["sweep"] = {"axes": {"s": [2.0, 2.47]}, "snapshot_t": 1.0}
        paths = sweep_experiment(parse_config(payload), str(tmp_path / "sweep"), workers=1)
        with open(paths["summary"], newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [(row["n"], row["s"]) for row in rows] == [("4", "2.0"), ("4", "2.47")]
        assert main(["fit", "--input", paths["summary"], "--s", "2.47"]) == 2
        assert "fit: only 1 points for cut '1-Rest'" in capsys.readouterr().err

    def test_fit_refuses_several_kappas(self, tmp_path, capsys):
        axes = {"n": [3, 4, 5, 6], "kappa": [0.25, 1.0]}
        config = parse_config(base_payload(sweep={"axes": axes, "snapshot_t": 1.0}))
        paths = sweep_experiment(config, str(tmp_path / "sweep"), workers=1)
        assert main(["fit", "--input", paths["summary"]]) == 2
        err = capsys.readouterr().err
        assert "fit: summary mixes several kappa values ['0.25', '1.0']" in err


class TestAtomicOutputs:
    """A writer that raises partway leaves no target file and no temporary."""

    def test_json_writer(self, tmp_path):
        target = tmp_path / "out.json"
        with pytest.raises(TypeError):
            cli._write_json(str(target), {"a": list(range(1000)), "b": object()})
        assert list(tmp_path.iterdir()) == []
        target.write_text("previous\n")
        with pytest.raises(TypeError):
            cli._write_json(str(target), {"a": list(range(1000)), "b": object()})
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "previous\n"

    def test_trajectory_writer(self, tmp_path):
        def rows():
            yield 0.0, "1-Rest", 0.5
            yield 1.0, "1-Rest", 0.25
            raise ValueError("not a number")

        target = tmp_path / "trajectory.csv"
        with pytest.raises(ValueError):
            cli._write_csv(str(target), ["t", "bipartition_label", "log_negativity"], rows())
        assert list(tmp_path.iterdir()) == []

    def test_summary_writer(self, tmp_path, monkeypatch):
        config = parse_config(base_payload(sweep={"axes": {"n": [3, 4]}, "snapshot_t": 1.0}))
        out = tmp_path / "sweep"
        real_fmt = cli._fmt

        def fmt_failing_on_n4(value):
            if value == 4:
                raise RuntimeError("injected write failure")
            return real_fmt(value)

        monkeypatch.setattr(cli, "_fmt", fmt_failing_on_n4)
        with pytest.raises(RuntimeError, match="injected write failure"):
            sweep_experiment(config, str(out), workers=1)
        assert list(out.iterdir()) == []


def derive_cell(config, cell):
    """One cell's config as a sweep derives it: the cell base parsed once, then the cell."""
    base = cli._cell_base(config)
    return cli._derive_cell(parse_config(base), base, cell)


def paper_config(stem, **state):
    payload = json.loads(next(p for p in PAPER_CONFIGS if p.stem == stem).read_text())
    payload["state"].update(state)
    return parse_config(payload)


class TestNoDenseInitialState:
    """The class engine starts from psi: run and sweep paths build no 2^n x 2^n rho0."""

    # one 4^10 complex matrix is 16 MiB
    PEAK_LIMIT = 4 * 2**20

    @staticmethod
    def _peak(fn, *args):
        dynamics._last_pattern.clear()  # a cold build, not a reuse of the warm-up's pattern
        dynamics._factor_table.cache_clear()  # and the warm-up's factors are computed anew
        dynamics._stage_rates.cache_clear()
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("stem", ["fig4_w_dephasing_sweep", "fig3_ghz_dephasing_sweep"])
    def test_sweep_cell_peak_allocation(self, stem):
        config = paper_config(stem)
        cell = {"n": 10, "s": 2.47}
        job = (cell, derive_cell(config, cell))
        cli._run_sweep_cell(job)  # lazy imports and rate set-up happen once per process
        (_, rows, failure, _), peak = self._peak(cli._run_sweep_cell, job)
        assert failure is None and len(rows) == len(config.cuts)
        assert peak < self.PEAK_LIMIT

    def test_pauli_run_peak_allocation(self):
        config = paper_config("fig5_ghz_n7_depolarising", n=10)
        trajectory, peak = self._peak(
            evolve,
            config.state.build(),
            config.noise,
            2.0,
            config.bipartitions(),
            config.time.integrator_options(record_states=False),
        )
        # GHZ's two offsets, 0 and all ones, each with row popcounts 0..n
        assert trajectory.metadata["classes"] == 2 * (10 + 1)
        assert len(trajectory.times) == 41
        assert peak < self.PEAK_LIMIT

    def test_run_and_sweep_without_density_from_pure(self, tmp_path, monkeypatch):
        def refuse(psi):
            raise AssertionError("density_from_pure called on a run or sweep path")

        assert not hasattr(dynamics, "density_from_pure")
        monkeypatch.setattr(states, "density_from_pure", refuse)
        config = paper_config("fig5_w_n5_depolarising")
        assert "states" not in config.output.formats
        paths = run_experiment(config, str(tmp_path / "run"))
        assert (tmp_path / "run" / "trajectory.csv").exists() and "states" not in paths
        sweep = paper_config("fig4_w_dephasing_sweep")
        cell = {"n": 6, "s": 2.47}
        job = derive_cell(sweep, cell)
        _, rows, failure, _ = cli._run_sweep_cell((cell, job))
        assert failure is None and len(rows) == 2


def sweep_config(stem, **sweep):
    """A paper config with a sweep section; fig5 runs get an n axis and snapshot_t = t_max."""
    payload = json.loads(next(p for p in PAPER_CONFIGS if p.stem == stem).read_text())
    payload.setdefault("sweep", {"axes": {"n": [3]}, "snapshot_t": payload["time"]["t_max"]})
    payload["sweep"].update(sweep)
    return parse_config(payload)


class TestCellMemoryEstimate:
    """Sweeps are budgeted by the class engine's own estimate, from psi and the active axes."""

    @pytest.mark.parametrize(
        "stem, n",
        [(stem, n) for stem in ("fig3_ghz_dephasing_sweep", "fig4_w_dephasing_sweep")
         for n in [*range(3, 14), 16, 18, 20]]
        + [(stem, n) for stem in ("fig5_ghz_n7_depolarising", "fig5_w_n5_depolarising")
           for n in range(6, 12)],
    )
    def test_covers_sweep_cell_peak(self, stem, n):
        config = sweep_config(stem)
        cell = {"n": n, **({"s": 2.47} if "s" in config.sweep.axes else {})}
        warm = dict(cell, n=3)
        cli._run_sweep_cell((warm, derive_cell(config, warm)))  # lazy set-up, once
        job = derive_cell(config, cell)
        peak_of = TestNoDenseInitialState._peak
        (_, rows, failure, _), peak = peak_of(cli._run_sweep_cell, (cell, job))
        assert failure is None and len(rows) == len(config.cuts)
        assert dynamics.class_engine_bytes(job.state.build(), job.noise, len(job.cuts)) >= peak

    def test_estimate_builds_each_state_once(self, tmp_path, monkeypatch):
        built = []
        build = StateConfig.build

        def counted_build(self):
            built.append(self.n)
            return build(self)

        monkeypatch.setattr(StateConfig, "build", counted_build)
        axes = {"n": [3, 4], "s": [2.0, 2.47, 3.0]}
        config = parse_config(base_payload(sweep={"axes": axes, "snapshot_t": 1.0}))
        sweep_experiment(config, str(tmp_path / "sweep"), workers=1)
        # one psi per n for the estimate, then one per cell to run it
        assert sorted(built) == [3] * 4 + [4] * 4

    def test_fig4_at_thirteen_qubits_fits_default_budget(self, tmp_path):
        config = sweep_config("fig4_w_dephasing_sweep", axes={"n": [13], "s": [2.47]})
        assert config.sweep.memory_budget_mb == 4096
        paths = sweep_experiment(config, str(tmp_path / "sweep"), workers=1)
        rows = list(csv.DictReader(Path(paths["summary"]).read_text().splitlines()))
        assert [(row["n"], row["cut"]) for row in rows] == [("13", "1-Rest"), ("13", "highest-cut")]


def sweep_cells(config):
    """The cells of a sweep in the order ``sweep_experiment`` runs them (axes sorted by name)."""
    names = sorted(config.sweep.axes)
    combos = itertools.product(*(config.sweep.axes[name] for name in names))
    return [dict(zip(names, combo)) for combo in combos]


def round_trip_cell(config, cell):
    """A cell's config by its own to_dict round trip, as each cell was once derived."""
    payload = dataclasses.replace(config, sweep=None).to_dict()
    if "n" in cell:
        payload["state"]["n"] = cell["n"]
    if "s" in cell:
        payload["noise"]["rate_z"]["s"] = cell["s"]
    if "kappa" in cell:
        payload["noise"]["kappa"] = cell["kappa"]
    snapshot = config.sweep.snapshot_t
    payload["time"].update(t_max=snapshot, sample_every=snapshot, observable_every=snapshot)
    return parse_config(payload)


class TestCellDerivation:
    """Every cell's config comes from one serialised base and is parsed like any config."""

    @pytest.mark.parametrize(
        "config",
        [
            sweep_config("fig3_ghz_dephasing_sweep"),
            sweep_config("fig4_w_dephasing_sweep"),
            sweep_config("fig5_w_n5_depolarising", axes={"n": [3, 4, 5], "kappa": [1.0, 0.25]}),
            sweep_config(
                "fig4_w_dephasing_sweep", axes={"n": [3, 6], "s": [2.0, 3.0], "kappa": [0.25, 1.0]}
            ),
        ],
        ids=["fig3", "fig4", "kappa-axis", "three-axes"],
    )
    def test_matches_per_cell_round_trip(self, config):
        base = cli._cell_base(config)
        pristine = copy.deepcopy(base)
        shared = parse_config(base)
        cells = sweep_cells(config)
        for cell in cells:
            assert cli._derive_cell(shared, base, cell) == round_trip_cell(config, cell)
        assert base == pristine  # cells copy what they change; the base is never written

    def test_sweep_parses_config_once(self, tmp_path, monkeypatch):
        parsed = []
        real = cli.parse_config

        def counting(payload):
            parsed.append(payload)
            return real(payload)

        monkeypatch.setattr(cli, "parse_config", counting)
        axes = {"n": [3, 4], "s": [2.0, 2.47, 3.0]}
        config = parse_config(base_payload(sweep={"axes": axes, "snapshot_t": 1.0}))
        paths = sweep_experiment(config, str(tmp_path / "sweep"), workers=1)
        # the cell base alone: each cell re-parses only its state and noise sections
        assert parsed == [cli._cell_base(config)]
        assert len(Path(paths["summary"]).read_text().splitlines()) == 1 + 6

    def _refused_before_any_cell(self, tmp_path, monkeypatch, payload, match):
        def no_cell(job):
            raise AssertionError(f"cell {job[0]} ran")

        monkeypatch.setattr(cli, "_run_sweep_cell", no_cell)
        out = tmp_path / "sweep"
        with pytest.raises(ConfigError, match=match):
            sweep_experiment(parse_config(payload), str(out), workers=1)
        assert not out.exists()

    def test_s_axis_without_ohmicity_is_refused(self, tmp_path, monkeypatch):
        payload = base_payload(sweep={"axes": {"n": [3, 4], "s": [2.0]}, "snapshot_t": 1.0})
        payload["noise"]["rate_z"] = {"kind": "constant", "gamma0": 0.1}
        match = r"^sweep\.axes\.s: noise\.rate_z has no Ohmicity parameter$"
        self._refused_before_any_cell(tmp_path, monkeypatch, payload, match)

    def test_s_axis_whose_gamma_overflows_is_refused(self, tmp_path, monkeypatch):
        payload = base_payload(sweep={"axes": {"n": [3, 4], "s": [2.47, 200.0]}, "snapshot_t": 1.0})
        match = r"^noise\.rate_z: .*finite Gamma\(s\), got s = 200\.0$"
        self._refused_before_any_cell(tmp_path, monkeypatch, payload, match)

    def test_s_axis_whose_gamma_of_s_minus_one_is_undefined_is_refused(
        self, tmp_path, monkeypatch
    ):
        payload = base_payload(sweep={"axes": {"n": [3, 4], "s": [2.47, 1e-17]}, "snapshot_t": 1.0})
        match = r"^noise\.rate_z: .*defined Gamma\(s - 1\), got s = 1e-17$"
        self._refused_before_any_cell(tmp_path, monkeypatch, payload, match)

    def test_cut_invalid_at_smallest_n_is_refused(self, tmp_path, monkeypatch):
        payload = base_payload(
            state={"family": "ghz", "n": 5},
            cuts=["{1,4}|{2,3,5}"],
            sweep={"axes": {"n": [5, 3]}, "snapshot_t": 1.0},
        )
        self._refused_before_any_cell(tmp_path, monkeypatch, payload, r"^cuts: ")

    def test_cut_whose_side_b_is_wrong_at_smallest_n_is_refused(self, tmp_path, monkeypatch):
        # at n = 3 side A {1,2} is a proper subset, but side B is not {3}
        payload = base_payload(
            state={"family": "ghz", "n": 5},
            cuts=["{1,2}|{3,4,5}"],
            sweep={"axes": {"n": [5, 3]}, "snapshot_t": 1.0},
        )
        self._refused_before_any_cell(tmp_path, monkeypatch, payload, r"^cuts: .*side B")


class TestSweepRecords:
    """summary.json records the workers and every cell's wall time; summary.csv stays fixed."""

    def test_fig3_summary_identical_across_workers(self, tmp_path):
        config = paper_config("fig3_ghz_dephasing_sweep")
        summaries = [
            Path(sweep_experiment(config, str(tmp_path / f"w{w}"), workers=w)["summary"])
            for w in (1, 2)
        ]
        assert summaries[0].read_bytes() == summaries[1].read_bytes()
        for workers, summary in zip((1, 2), summaries):
            assert json.loads(summary.with_name("summary.json").read_text())["workers"] == workers

    def test_cli_import_loads_no_process_pool(self):
        # the pool's modules load only when a sweep runs on more than one worker
        code = (
            "import json, sys, qubitbath.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "    if m.split('.')[0] in ('concurrent', 'multiprocessing'))))"
        )
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(out.stdout.splitlines()[-1]) == []

    def test_one_wall_time_per_cell(self, tmp_path):
        config = parse_config(
            base_payload(sweep={"axes": {"n": [3, 4], "s": [2.0, 2.47, 3.0]}, "snapshot_t": 1.0})
        )
        paths = sweep_experiment(config, str(tmp_path / "sweep"), workers=1)
        summary = json.loads(Path(paths["metadata"]).read_text())
        records = summary["cell_seconds"]
        assert [record["cell"] for record in records] == sweep_cells(config)
        assert summary["cells"] == len(records) == 6
        assert all(isinstance(r["wall_s"], float) and r["wall_s"] > 0 for r in records)
        assert "wall_s" not in Path(paths["summary"]).read_text()
