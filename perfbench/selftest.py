"""Self-test of the benchmark on tiny inputs (n <= 4, t_max <= 1).

    python3 perfbench/selftest.py

Checks that every metric declared in BENCHMARK.json is printed, by name and
with its unit, in both modes on a run workload and a sweep workload, that
the error rate is printed, and that the correctness and determinism checks
each fail a pass in which one recorded log-negativity was perturbed.
"""

import contextlib
import io
import json
import re
import shutil
import sys

import run

TINY_RATE = {"kind": "ohmic_t0", "s": 2.47, "omega_c": 1.0}
TINY_TIME = {"t_max": 1.0, "step": 0.01, "sample_every": 0.5, "observable_every": 0.05}


def tiny_run_payloads() -> tuple:
    dephasing = {
        "state": {"family": "ghz", "n": 3},
        "noise": {"kind": "dephasing", "rate_z": TINY_RATE, "kappa": 0.25, "omega0": 1.0},
        "time": TINY_TIME,
        "cuts": ["1-Rest"],
        "output": {"directory": "unused", "formats": ["csv", "json"]},
    }
    pauli = {
        "state": {"family": "w", "n": 4},
        "noise": {
            "kind": "pauli",
            "rate_z": {"kind": "sinusoidal", "alpha": 1.0},
            "rate_x": {"kind": "constant", "gamma0": 0.1},
            "rate_y": {"kind": "constant", "gamma0": 0.1},
            "kappa": 0.25,
            "omega0": 1.0,
        },
        "time": TINY_TIME,
        "cuts": ["1-Rest", "highest-cut"],
        "output": {"directory": "unused", "formats": ["csv", "json"]},
    }
    return dephasing, pauli


def tiny_sweep_payload(family: str) -> dict:
    return {
        "state": {"family": family, "n": 3},
        "noise": {"kind": "dephasing", "rate_z": TINY_RATE, "kappa": 0.25, "omega0": 1.0},
        "time": {"t_max": 1.0, "step": 0.01},
        "cuts": ["1-Rest", "highest-cut"],
        "output": {"directory": "unused", "formats": ["csv", "json"]},
        "sweep": {"axes": {"n": [3, 4], "s": [2.0, 2.47]}, "snapshot_t": 1.0},
    }


def check_metrics_printed(workload, trace: bool, declared: dict) -> None:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        result = run.run_benchmark(workload, 1, trace, tiny_sweep_payload("ghz"))
    text = buffer.getvalue()
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    assert set(result["metrics"]) == set(declared), sorted(set(result["metrics"]) ^ set(declared))
    for name, unit in declared.items():
        assert result["metrics"][name]["unit"] == unit, (name, result["metrics"][name])
        pattern = rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}$"
        assert re.search(pattern, text, re.MULTILINE), f"{name} not printed with unit {unit}"
    assert re.search(r"^error_rate: 0 \(0 of \d+ operations failed\)$", text, re.MULTILINE), text


def check_perturbation_fails() -> None:
    from qubitbath.config import parse_config

    workload = run.Workload("run", tiny_run_payloads())
    configs = [parse_config(p) for p in workload.payloads]
    work = run.STATE_DIR / "selftest"
    try:
        rows = run.run_pass(workload, configs, work)["rows"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert run.Checker(workload).check(rows) == 0

    key = next(iter(rows))
    lines = list(rows[key])
    t, label, value = lines[7].split(",")
    lines[7] = f"{t},{label},{float(value) + 1e-3!r}"
    perturbed = {**rows, key: lines}
    assert run.Checker(workload).check(perturbed) == 1, "correctness check missed a perturbed E"
    determinism = run.Checker(workload)
    determinism.first = {key: lines}  # a first pass whose rows differ from this one
    assert determinism.check(rows) == 1, "determinism check missed a changed row"


def main() -> int:
    run._require_checkout()
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end differs from run.py"
    assert per_layer == run.PER_LAYER_UNITS, "BENCHMARK.json per_layer differs from run.py"
    assert {w["name"] for w in bench["workloads"]} == set(run.paper_workloads())

    workloads = (
        run.Workload("run", tiny_run_payloads()),
        run.Workload("sweep", (tiny_sweep_payload("w"),)),
    )
    for workload in workloads:
        check_metrics_printed(workload, False, end_to_end)
        check_metrics_printed(workload, True, per_layer)
    check_perturbation_fails()
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
