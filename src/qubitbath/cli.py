"""Command-line driver: run, sweep, divisibility, oracle-check and fit.

Every command is driven by a JSON experiment config (see
:mod:`qubitbath.config`).  Outputs are plot-ready UTF-8 CSV files plus JSON
metadata sidecars; reruns of the same config produce byte-identical CSV
bodies (timestamps only ever appear in the JSON metadata).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import platform
import sys
import time
import traceback
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import (
    EXP_DECAY_SHIFT,
    RECIPROCAL_EXP,
    detect_revival,
    detect_saturation,
    fit_exp_decay_shift,
    fit_reciprocal_exp,
    vanishing_crossing,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    _positive_int,
    load_config,
    parse_config,  # unused here; perfbench/tracing.py patches it (its traced selftest needs it)
)
from .dynamics import class_engine_bytes, evolve, oracle_deviation, sweep_snapshots
from .errors import IntegrationError
from .rates import classify_divisibility

USAGE_EXIT = 2
FAILURE_EXIT = 1


def _fmt(value) -> str:
    # repr(np.float64(0.1)) is "np.float64(0.1)" under numpy 2
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@contextlib.contextmanager
def _atomic_open(path: str):
    """Write a text file beside ``path`` and move it there only once complete.

    A writer that raises (or an interrupted process) leaves ``path`` as it
    was, so no truncated output can pass for a finished one.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_json(path: str, payload: dict) -> None:
    with _atomic_open(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def source_sha256(package_dir: str) -> str:
    """sha256 over the ``.py`` files in ``package_dir`` by name, each as name, size and bytes."""
    import hashlib  # only a process that writes a sidecar pays it

    digest = hashlib.sha256()
    for name in sorted(name for name in os.listdir(package_dir) if name.endswith(".py")):
        with open(os.path.join(package_dir, name), "rb") as handle:
            data = handle.read()
        digest.update(b"%s\0%d\0%s" % (name.encode(), len(data), data))
    return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def _code_identity() -> dict:
    """Which code ran, computed for the first sidecar a process writes (not at import)."""
    return {
        "source_sha256": source_sha256(os.path.dirname(os.path.abspath(__file__))),
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
    }


def _metadata(config: ExperimentConfig, extra: dict) -> dict:
    return {
        "config": config.to_dict(),
        "package_version": __version__,
        **_code_identity(),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        **extra,
    }


def _write_csv(path: str, header: list, rows) -> None:
    with _atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(value) for value in row])


def _trajectory_analysis(times, series, analysis_cfg) -> dict:
    report = {}
    window = analysis_cfg.saturation_window
    # detect_saturation's own refusals: a span of two windows, a trailing window of 2 records
    plateau = (
        len(times) >= 8
        and times[-1] - times[0] >= 2 * window
        and np.count_nonzero(times >= times[-1] - window) >= 2
    )
    for label, values in series:
        entry = {}
        if plateau:
            sat = detect_saturation(times, values, window=window, tol=analysis_cfg.saturation_tol)
            entry["saturation"] = dataclasses.asdict(sat)
        revivals = detect_revival(times, values, threshold=analysis_cfg.revival_threshold)
        entry["revivals"] = dataclasses.asdict(revivals)
        report[label] = entry
    return report


def run_experiment(config: ExperimentConfig, out_dir: str) -> dict:
    """Execute one trajectory and write csv/json artifacts; returns paths."""
    cuts = config.bipartitions()
    trajectory = evolve(
        config.state.build(),
        config.noise,
        config.time.t_max,
        cuts=cuts,
        options=config.time.integrator_options(),
    )
    # labels as the config spells them: highest-cut and 1-Rest at n = 3 share one series
    series = [(label, trajectory.observables[cut.label]) for label, cut in zip(config.cuts, cuts)]
    times = trajectory.times
    # built before any file is written, so a refusal leaves no output of this run
    if "json" in config.output.formats:
        analysis = _trajectory_analysis(times, series, config.analysis)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    if "csv" in config.output.formats:
        paths["trajectory"] = os.path.join(out_dir, "trajectory.csv")
        rows = ((t, label, value) for label, values in series for t, value in zip(times, values))
        _write_csv(paths["trajectory"], ["t", "bipartition_label", "log_negativity"], rows)
    if "json" in config.output.formats:
        paths["metadata"] = os.path.join(out_dir, "metadata.json")
        _write_json(paths["metadata"], _metadata(config, {"trajectory": trajectory.metadata}))
        paths["analysis"] = os.path.join(out_dir, "analysis.json")
        _write_json(paths["analysis"], analysis)
    return paths


def _run_sweep_group(group: tuple) -> list:
    """(cell, its summary rows, its failure or None, its seconds) for each cell of one state.

    ``group`` is the state's psi and its (cell, cell config) pairs, which differ only in their
    noise: ``sweep_snapshots`` steps each cell and solves their snapshots together.
    """
    psi, jobs = group
    start = time.perf_counter()
    config = jobs[0][1]  # the cells share their time grid and cuts
    cuts = config.bipartitions()
    try:
        specs = [job.noise for _, job in jobs]
        t, outcomes = sweep_snapshots(psi, specs, config.time.t_max, cuts, config.time.step)
    except Exception as exc:  # what fails the whole group fails each of its cells
        outcomes = [(exc, (time.perf_counter() - start) / len(jobs))] * len(jobs)
    results = []
    for (cell, job), (outcome, seconds) in zip(jobs, outcomes):
        if isinstance(outcome, Exception):  # per-cell failures must not kill the sweep
            failure = {
                "error": f"{type(outcome).__name__}: {outcome}",
                "traceback": "".join(traceback.format_exception(outcome)),
            }
            results.append((cell, [], failure, seconds))
            continue
        # every column from the cell's own config, whichever axes the sweep has
        snapshot = {"n": job.state.n, "kappa": job.noise.kappa, "t": t}
        if hasattr(job.noise.rate_z, "s"):
            snapshot["s"] = job.noise.rate_z.s
        rows = [
            {**snapshot, "cut": label, "log_negativity": outcome[cut.label]}
            for label, cut in zip(config.cuts, cuts)
        ]
        results.append((cell, rows, None, seconds))
    return results


def sweep_experiment(config: ExperimentConfig, out_dir: str, workers=None) -> dict:
    """Run the Cartesian product of the sweep axes and aggregate snapshots."""
    return _sweep(config, out_dir, workers)[0]


def _sweep(config: ExperimentConfig, out_dir: str, workers) -> tuple:
    """The sweep itself; returns the output paths and the failed cells."""
    jobs = config.cells()
    # cells differ only in n, s and kappa, so a state's cells share psi, its pattern and axes
    by_state = {}
    for index, (_, job) in enumerate(jobs):
        by_state.setdefault(job.state, []).append(index)
    # a config error like any bad count, so --workers 0 is a usage error
    workers = min(_positive_int(1 if workers is None else workers, "workers"), len(by_state))

    groups = [(state.build(), [jobs[i] for i in indices]) for state, indices in by_state.items()]
    estimate = max(
        class_engine_bytes(psi, cells[0][1].noise, len(cells[0][1].cuts)) for psi, cells in groups
    )
    # every state's psi is held until the sweep ends
    needed = workers * estimate + sum(psi.amplitudes.nbytes for psi, _ in groups)
    budget = config.sweep.memory_budget_mb
    if needed > budget * 2**20:
        raise ConfigError(
            f"sweep: estimated {needed / 2**20:.0f} MiB (the largest group on {workers} "
            f"workers, plus every state's psi) exceeds memory_budget_mb={budget}"
        )

    if workers == 1:
        grouped = [_run_sweep_group(group) for group in groups]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only multi-worker sweeps pay it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(_run_sweep_group, groups))
    results = [None] * len(jobs)  # back in cell order
    for indices, group_results in zip(by_state.values(), grouped):
        for index, result in zip(indices, group_results):
            results[index] = result

    rows, failures, cell_seconds = [], [], []
    for cell, cell_rows, failure, wall_s in results:
        rows.extend(cell_rows)
        cell_seconds.append({"cell": cell, "wall_s": wall_s})
        if failure is not None:
            failures.append({"cell": cell, **failure})

    rows.sort(key=lambda row: (row["n"], row.get("s", math.inf), row["kappa"], row["cut"]))

    os.makedirs(out_dir, exist_ok=True)
    paths = {"summary": os.path.join(out_dir, "summary.csv")}
    columns = ["n", "s", "kappa", "cut", "t", "log_negativity"]
    _write_csv(paths["summary"], columns, ([row.get(c, "") for c in columns] for row in rows))
    if "json" in config.output.formats:
        paths["metadata"] = os.path.join(out_dir, "summary.json")
        _write_json(
            paths["metadata"],
            _metadata(
                config,
                {
                    "cells": len(jobs),
                    "workers": workers,
                    "cell_seconds": cell_seconds,
                    "failures": failures,
                },
            ),
        )
    for failure in failures:
        print(f"sweep: cell {failure['cell']} failed: {failure['error']}", file=sys.stderr)
    if failures:
        print(f"sweep: {len(failures)} of {len(jobs)} cells failed", file=sys.stderr)
    return paths, failures


def divisibility_report(config: ExperimentConfig) -> dict:
    n_steps = int(round(config.time.t_max / config.time.step))
    grid = np.linspace(0.0, config.time.t_max, n_steps + 1)
    verdict = classify_divisibility(
        config.noise.rate_x, config.noise.rate_y, config.noise.rate_z, grid
    )
    payload = dataclasses.asdict(verdict)
    payload["classification"] = verdict.classification.value
    payload["grid"] = {"t_max": config.time.t_max, "step": config.time.step}
    return payload


def _read_summary(path: str) -> list:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _cmd_run(args) -> int:
    config = load_config(args.config)
    out_dir = args.out or config.output.directory
    paths = run_experiment(config, out_dir)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    out_dir = args.out or config.output.directory
    paths, failures = _sweep(config, out_dir, args.workers)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return FAILURE_EXIT if failures else 0


def _cmd_divisibility(args) -> int:
    config = load_config(args.config)
    payload = divisibility_report(config)
    print(f"classification: {payload['classification']}")
    print(f"min margin: {payload['min_margin']:.6g}")
    for window in payload["violation_windows"]:
        print(f"violation window: t in [{window[0]:.4f}, {window[1]:.4f}]")
    # like run: --out always writes, the config's directory when it asks for json
    if args.out or "json" in config.output.formats:
        out_dir = args.out or config.output.directory
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "divisibility.json")
        _write_json(path, payload)
        print(f"divisibility: {path}")
    return 0


def _cmd_oracle_check(args) -> int:
    config = load_config(args.config)
    deviation = oracle_deviation(
        config.state.build(),
        config.noise,
        config.time.t_max,
        step=config.time.step,
        compare_every=args.compare_every,
    )
    status = "pass" if deviation <= args.threshold else "FAIL"
    print(f"max |rk4 - analytic| = {deviation:.3e} (bound {args.threshold:.1e}): {status}")
    return 0 if deviation <= args.threshold else FAILURE_EXIT


def _cmd_fit(args) -> int:
    rows = _read_summary(args.input)
    if not rows:
        print("fit: summary file holds no rows", file=sys.stderr)
        return USAGE_EXIT
    cut = args.cut or rows[0]["cut"]
    kappas = sorted({row["kappa"] for row in rows if row.get("kappa")})
    if len(kappas) > 1:
        print(f"fit: summary mixes several kappa values {kappas}", file=sys.stderr)
        return USAGE_EXIT
    s_values = sorted({row["s"] for row in rows if row.get("s")})
    s_filter = None
    if args.s is not None:
        s_filter = repr(float(args.s))
        if s_filter not in s_values:
            print(f"fit: no rows with s={args.s} (choices: {s_values})", file=sys.stderr)
            return USAGE_EXIT
    elif len(s_values) > 1:
        print(f"fit: summary mixes several s values {s_values}; pass --s", file=sys.stderr)
        return USAGE_EXIT
    points = []
    for row in rows:
        if row["cut"] != cut:
            continue
        if s_filter is not None and row["s"] != s_filter:
            continue
        n = int(float(row["n"]))
        if args.parity == "odd" and n % 2 == 0:
            continue
        if args.parity == "even" and n % 2 == 1:
            continue
        points.append((n, float(row["log_negativity"])))
    if len(points) < 4:
        print(f"fit: only {len(points)} points for cut {cut!r}", file=sys.stderr)
        return USAGE_EXIT
    if args.model == EXP_DECAY_SHIFT:
        fit = fit_exp_decay_shift(points)
    else:
        fit = fit_reciprocal_exp(points)
    payload = dataclasses.asdict(fit)
    if fit.model == RECIPROCAL_EXP:
        payload["asymptote"] = fit.asymptote()
    payload["cut"] = cut
    payload["parity"] = args.parity
    if fit.model == EXP_DECAY_SHIFT:
        payload["vanishing_N"] = vanishing_crossing(fit, threshold=args.threshold)
        payload["vanishing_threshold"] = args.threshold
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        _write_json(args.out, payload)
    return 0 if fit.converged else FAILURE_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitbath",
        description="Multiqubit entanglement dynamics under local non-Markovian noise",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help="output directory (default: config output.directory)")

    p_run = sub.add_parser("run", help="run one trajectory")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--workers", type=int, help="parallel worker processes")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_div = sub.add_parser("divisibility", help="classify channel divisibility")
    p_div.add_argument("--config", required=True)
    p_div.add_argument(
        "--out", help="directory for divisibility.json (default: config output.directory)"
    )
    p_div.set_defaults(func=_cmd_divisibility)

    p_oracle = sub.add_parser(
        "oracle-check", help="compare the integrator against the closed-form map"
    )
    p_oracle.add_argument("--config", required=True, help="experiment config JSON")
    p_oracle.add_argument("--threshold", type=float, default=1e-7)
    p_oracle.add_argument(
        "--compare-every", type=float, default=None, help="comparison cadence (default: every step)"
    )
    p_oracle.set_defaults(func=_cmd_oracle_check)

    p_fit = sub.add_parser("fit", help="fit a scaling model to a sweep summary")
    p_fit.add_argument("--input", required=True, help="summary.csv from a sweep")
    p_fit.add_argument(
        "--model", choices=[EXP_DECAY_SHIFT, RECIPROCAL_EXP], default=EXP_DECAY_SHIFT
    )
    p_fit.add_argument("--cut", help="bipartition label (default: first in file)")
    p_fit.add_argument("--s", type=float, help="restrict to one Ohmicity value")
    p_fit.add_argument("--parity", choices=["all", "odd", "even"], default="all")
    p_fit.add_argument(
        "--threshold",
        type=float,
        default=1e-3,
        help="vanishing threshold for the decay model",
    )
    p_fit.add_argument("--out", help="write the fit record to this JSON file")
    p_fit.set_defaults(func=_cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
