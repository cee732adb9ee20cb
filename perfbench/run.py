"""Benchmark of qubitbath on the paper workloads, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload pauli-ghz7 --seed 1 --seconds 35 --trace 0

Every workload is a single-process closed loop: a pass calls the public entry
points ``qubitbath.cli.run_experiment`` / ``qubitbath.cli.sweep_experiment``
on configs from ``configs/paper/``, and the next pass starts only when the
previous one has returned.  Passes repeat until ``--seconds`` have elapsed
(at least one pass).  The inputs hold no randomness, so ``--seed`` is
recorded but changes nothing.

``--trace 0`` reports the end-to-end metrics (median over the passes).
``--trace 1`` alternates untraced and traced passes, then reports the
per-layer split (per traced pass), the tracing overhead (mean traced minus
mean untraced pass wall), and the sweep-pool probe (``pool.*``, see
``pool_probe.py``).

Operations are one run (trajectory workloads) or one sweep cell.  An
operation fails if it raises, if its sweep cell reports an error, if a
recorded log-negativity differs from the closed-form reference
(``analytic_state_at`` then ``log_negativity``) by more than ``TOLERANCE``,
or if its CSV rows differ from those of the first pass (determinism).
All checks run outside the timed region.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Nothing here sets BLAS/OpenMP thread variables: the pool's oversubscription
under the default environment is part of what is measured.
"""

from __future__ import annotations

import argparse
import copy
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs" / "paper"
STATE_DIR = ROOT / ".perfbench"

TOLERANCE = 1e-7
SETUP_REPEATS = 5
RUN_DEADLINE_S = 165.0
POOL_PROBE_TIMEOUT_S = 100.0
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "max_abs_err": "ebit",
}
PER_LAYER_UNITS = {
    "dynamics.evolve.calls": "count",
    "dynamics.evolve.self_s": "s",
    "dynamics.steps": "count",
    "dynamics.self_us_per_step": "us",
    "rates.rate.calls": "count",
    "rates.rate.s": "s",
    "rates.rate.us_per_call": "us",
    "entanglement.log_negativity.calls": "count",
    "entanglement.log_negativity.s": "s",
    "entanglement.log_negativity.self_s": "s",
    "states.validate.calls": "count",
    "states.validate.s": "s",
    "states.min_eigenvalue.calls": "count",
    "states.min_eigenvalue.s": "s",
    "kernel.eigvalsh.calls": "count",
    "kernel.eigvalsh.s": "s",
    "kernel.eigvalsh.work_d3": "count",
    "analysis.s": "s",
    "config.parse.calls": "count",
    "config.parse.s": "s",
    "cli.self_s": "s",
    "pool.speedup": "ratio",
    "pool.efficiency": "ratio",
    "pool.cpu_ratio": "ratio",
    "pool.child_peak_rss_mb": "MiB",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    """Configs one pass runs: ``kind`` is "run" (one op per config) or "sweep" (serial)."""

    kind: str
    payloads: tuple


def paper_payload(name: str, s_axis=None) -> dict:
    with open(CONFIGS / f"{name}.json", encoding="utf-8") as handle:
        payload = json.load(handle)
    if s_axis is not None:
        # cost per cell depends on n, not s: thin s only, keep every n
        payload["sweep"]["axes"]["s"] = list(s_axis)
    return payload


def paper_workloads() -> dict:
    return {
        "pauli-ghz7": Workload("run", (paper_payload("fig5_ghz_n7_depolarising"),)),
        "dephasing-sweep": Workload(
            "sweep", (paper_payload("fig4_w_dephasing_sweep", (2.0, 2.47, 3.0)),)
        ),
    }


def pool_probe_payload() -> dict:
    return paper_payload("fig3_ghz_dephasing_sweep", (2.47,))


def pool_workers() -> int:
    return max(2, len(os.sched_getaffinity(0)))


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _op_name(payload: dict) -> str:
    state = payload["state"]
    return f"{state['family']}-n{state['n']}-{payload['noise']['kind']}"


def sweep_cells(payload: dict) -> list:
    axes = payload["sweep"]["axes"]
    return [f"n={n},s={s!r}" for n in axes["n"] for s in axes["s"]]


class Checker:
    """Determinism and closed-form correctness checks over CSV rows.

    ``rows`` map an operation key to the CSV lines it produced, or to None
    when the operation raised or reported an error.  The first rows seen for
    a key are the reference for byte-identity; every line is compared with
    its closed-form value, computed once per distinct line.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.first = {}
        self.errors = {}
        self._refs = {}
        self._configs = {}
        self.max_abs_err = 0.0

    def keys(self) -> list:
        if self.workload.kind == "run":
            return [_op_name(p) for p in self.workload.payloads]
        return [key for p in self.workload.payloads for key in sweep_cells(p)]

    def check(self, rows: dict) -> int:
        failed = 0
        for key in self.keys():
            lines = rows.get(key)
            if lines is None:
                failed += 1
                continue
            first = self.first.setdefault(key, lines)
            if lines != first or not all([self._line_ok(key, line) for line in lines]):
                failed += 1
        return failed

    def _line_ok(self, key: str, line: str) -> bool:
        err = self.errors.get((key, line))
        if err is None:
            err = self.errors[(key, line)] = self._abs_err(key, line)
            self.max_abs_err = max(self.max_abs_err, err)
        return err <= TOLERANCE

    def _config(self, key: str, n=None, s=None):
        from qubitbath.config import parse_config

        cached = self._configs.get((key, n, s))
        if cached is None:
            if self.workload.kind == "run":
                (payload,) = [p for p in self.workload.payloads if _op_name(p) == key]
            else:
                payload = copy.deepcopy(self.workload.payloads[0])
                payload.pop("sweep")
                payload["state"]["n"] = n
                payload["noise"]["rate_z"]["s"] = s
            cached = self._configs[(key, n, s)] = parse_config(payload)
        return cached

    def _abs_err(self, key: str, line: str) -> float:
        fields = line.split(",")
        if self.workload.kind == "run":
            t, label, value = fields
            config = self._config(key)
        else:
            n, s, _kappa, label, t, value = fields
            config = self._config(key, int(float(n)), float(s))
        refs = self._refs.get((key, t))
        if refs is None:
            refs = self._refs[(key, t)] = self._closed_form(config, float(t))
        return abs(float(value) - refs[label])

    @staticmethod
    def _closed_form(config, t: float) -> dict:
        """E_ref per cut label (as requested and canonical) at time t."""
        from qubitbath.dynamics import analytic_state_at
        from qubitbath.entanglement import log_negativity
        from qubitbath.states import density_from_pure

        state = analytic_state_at(density_from_pure(config.state.build()), config.noise, t)
        cuts = config.bipartitions()
        by_label = {**dict(zip(config.cuts, cuts)), **{cut.label: cut for cut in cuts}}
        return {label: log_negativity(state, cut) for label, cut in by_label.items()}


def _csv_lines(path: Path) -> list:
    return path.read_text(encoding="utf-8").splitlines()


def _call(fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_pass(workload: Workload, configs: list, work: Path, call=None) -> dict:
    """Time one pass; return its wall/cpu seconds and the CSV rows per op."""
    from qubitbath import cli

    call = call or _call
    outcomes = []
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    for payload, config in zip(workload.payloads, configs):
        out_dir = work / _op_name(payload)
        try:
            if workload.kind == "run":
                call(cli.run_experiment, config, str(out_dir))
            else:
                call(cli.sweep_experiment, config, str(out_dir), workers=1)
            outcomes.append((payload, out_dir, None))
        except Exception as exc:  # a failed operation is counted, not fatal
            outcomes.append((payload, out_dir, f"{type(exc).__name__}: {exc}"))
    wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0

    rows = {}
    for payload, out_dir, error in outcomes:
        if error is not None:
            print(f"  {_op_name(payload)} raised {error}", file=sys.stderr)
        elif workload.kind == "run":
            lines = _csv_lines(out_dir / "trajectory.csv")
            rows[_op_name(payload)] = lines[1:] if lines[:1] == ["t,bipartition_label,log_negativity"] else None
        else:
            rows.update(sweep_rows(payload, out_dir))
    return {"wall": wall, "cpu": cpu, "rows": rows}


def sweep_rows(payload: dict, out_dir: Path) -> dict:
    """CSV lines per cell of one sweep's summary; cells reported failed map to None."""
    lines = _csv_lines(out_dir / "summary.csv")
    if lines[:1] != ["n,s,kappa,cut,t,log_negativity"]:
        return {}
    rows = {key: [] for key in sweep_cells(payload)}
    for line in lines[1:]:
        n, s = line.split(",")[:2]
        key = f"n={int(float(n))},s={float(s)!r}"
        if key in rows:
            rows[key].append(line)
    summary = out_dir / "summary.json"
    failures = json.loads(summary.read_text())["failures"] if summary.exists() else []
    for failure in failures:
        cell = failure["cell"]
        rows[f"n={cell['n']},s={cell['s']!r}"] = None
    cuts = len(payload["cuts"])
    return {key: (lines if lines and len(lines) == cuts else None) for key, lines in rows.items()}


def setup_seconds(workload: Workload, work: Path) -> list:
    """Set-up time of fresh processes: import qubitbath, parse configs, build rho0."""
    spec = work / "setup.json"
    spec.write_text(json.dumps({"kind": workload.kind, "payloads": list(workload.payloads)}))
    values = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(spec)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        values.append(float(proc.stdout.strip().splitlines()[-1]))
    return values


def pool_probe(work: Path, payload: dict, deadline: float) -> dict:
    """Run ``pool_probe.py`` as its own process group; kill the whole group on timeout."""
    spec = work / "pool.json"
    spec.write_text(json.dumps({"payload": payload, "workers": pool_workers(), "out": str(work / "pool")}))
    timeout = max(10.0, min(POOL_PROBE_TIMEOUT_S, deadline - time.perf_counter()))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "pool_probe.py"), str(spec)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"timed_out": timeout}
    if proc.returncode != 0:
        return {"error": proc.returncode}
    return json.loads(out.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy
    import qubitbath

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "qubitbath": qubitbath.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def layer_metrics(summary: dict, passes: int) -> dict:
    """Per-pass layer metrics from a ``Tracer.summary``; absent spans count as 0."""

    def get(name, field="s"):
        return summary.get(name, {}).get(field, 0.0) / passes

    steps = get("dynamics.evolve", "work")
    rate_calls = get("rates.rate", "calls")
    return {
        "dynamics.evolve.calls": get("dynamics.evolve", "calls"),
        "dynamics.evolve.self_s": get("dynamics.evolve", "self_s"),
        "dynamics.steps": steps,
        "dynamics.self_us_per_step": 1e6 * get("dynamics.evolve", "self_s") / steps if steps else 0.0,
        "rates.rate.calls": rate_calls,
        "rates.rate.s": get("rates.rate"),
        "rates.rate.us_per_call": 1e6 * get("rates.rate") / rate_calls if rate_calls else 0.0,
        "entanglement.log_negativity.calls": get("entanglement.log_negativity", "calls"),
        "entanglement.log_negativity.s": get("entanglement.log_negativity"),
        "entanglement.log_negativity.self_s": get("entanglement.log_negativity", "self_s"),
        "states.validate.calls": get("states.validate", "calls"),
        "states.validate.s": get("states.validate"),
        "states.min_eigenvalue.calls": get("states.min_eigenvalue", "calls"),
        "states.min_eigenvalue.s": get("states.min_eigenvalue"),
        "kernel.eigvalsh.calls": get("kernel.eigvalsh", "calls"),
        "kernel.eigvalsh.s": get("kernel.eigvalsh"),
        "kernel.eigvalsh.work_d3": get("kernel.eigvalsh", "work"),
        "analysis.s": get("analysis.detect_saturation") + get("analysis.detect_revival"),
        "config.parse.calls": get("config.parse", "calls"),
        "config.parse.s": get("config.parse"),
        "cli.self_s": get("cli", "self_s"),
    }


def pool_metrics(probe: dict) -> dict:
    if "pool_wall" not in probe:
        return {name: 0.0 for name in PER_LAYER_UNITS if name.startswith("pool.")}
    speedup = probe["serial_wall"] / probe["pool_wall"]
    return {
        "pool.speedup": speedup,
        "pool.efficiency": speedup / probe["workers"],
        "pool.cpu_ratio": probe["pool_cpu"] / probe["serial_cpu"],
        "pool.child_peak_rss_mb": probe["child_peak_rss_mb"],
    }


def _describe(values: list, unit: str) -> str:
    return (
        f"median of {len(values)} passes; min {min(values):.4g}, max {max(values):.4g} {unit}"
    )


def run_benchmark(workload: Workload, seconds: float, trace: bool, pool_payload: dict) -> dict:
    """Measure one workload; print human-readable lines; return the result object."""
    from qubitbath.config import parse_config

    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    work = STATE_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        print("env: " + json.dumps(environment(), sort_keys=True))
        setup = [] if trace else setup_seconds(workload, work)
        configs = [parse_config(copy.deepcopy(p)) for p in workload.payloads]
        checker = Checker(workload)
        ops = len(checker.keys())
        attempted = failed = 0
        passes = {False: [], True: []}

        tracer = Tracer() if trace else None
        measure_start = time.perf_counter()
        while True:
            traced = trace and len(passes[False]) > len(passes[True])
            if traced:
                tracer.install()
            try:
                call = tracer.wrap("cli", _call) if traced else None
                result = run_pass(workload, configs, work, call)
            finally:
                if traced:
                    tracer.uninstall()
            passes[traced].append(result)
            print(f"pass {len(passes[traced])}{' (traced)' if traced else ''}: "
                  f"wall {result['wall']:.4f} s, cpu {result['cpu']:.4f} s", flush=True)
            now = time.perf_counter()
            paired = len(passes[True]) == (len(passes[False]) if trace else 0)
            if paired and (now - measure_start >= seconds or now + 2 * result["wall"] > deadline):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        for result in passes[False] + passes[True]:
            attempted += ops
            failed += checker.check(result["rows"])

        walls = [r["wall"] for r in passes[False]]
        lines = []
        if not trace:
            metrics = {
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(r["cpu"] for r in passes[False]),
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(setup),
                "max_abs_err": checker.max_abs_err,
            }
            units = END_TO_END_UNITS
            lines.append(f"wall_s: {_describe(walls, 's')}")
            lines.append(f"cpu_s: {_describe([r['cpu'] for r in passes[False]], 's')}")
            lines.append(f"setup_s: median of {len(setup)} fresh processes; "
                         f"min {min(setup):.4g}, max {max(setup):.4g} s")
            lines.append(f"peak_rss_mb: process peak over {len(walls)} passes (no pool children)")
            lines.append(f"max_abs_err: largest |E - E_ref| over {len(checker.errors)} distinct "
                         f"recorded values; tolerance {TOLERANCE:g}")
        else:
            traced_walls = [r["wall"] for r in passes[True]]
            summary = tracer.summary()
            spans = STATE_DIR / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            tracer.write(spans / f"spans-{os.getpid()}.tsv.gz")
            metrics = layer_metrics(summary, len(traced_walls))
            metrics["trace.wall_s"] = statistics.mean(traced_walls)
            metrics["trace.overhead_s"] = statistics.mean(traced_walls) - statistics.mean(walls)

            probe = pool_probe(work, pool_payload, deadline)
            pool_checker = Checker(Workload("sweep", (pool_payload,)))
            pool_ops = len(pool_checker.keys())
            if "pool_wall" in probe:
                # the serial twin is the byte-identity reference for the pool
                for mode in ("serial", "pool"):
                    attempted += pool_ops
                    failed += pool_checker.check(probe[f"{mode}_rows"])
            else:
                attempted += pool_ops
                failed += pool_ops
                print(f"pool probe did not finish: {probe}", file=sys.stderr)
            metrics.update(pool_metrics(probe))
            units = PER_LAYER_UNITS
            lines.append(f"traced passes: {len(traced_walls)}, untraced passes: {len(walls)}; "
                         "layer metrics are per traced pass")
            lines.append("kernel.eigvalsh.work_d3 is computed from array shapes, not measured")
            if "pool_wall" in probe:
                lines.append(
                    f"pool probe ({probe['workers']} workers, {pool_ops} cells): pool wall "
                    f"{probe['pool_wall']:.4f} s, serial twin wall {probe['serial_wall']:.4f} s"
                )
            if walls and traced_walls:
                lines.append(f"traced wall {statistics.mean(traced_walls):.4f} s, untraced wall "
                             f"{statistics.mean(walls):.4f} s, overhead "
                             f"{metrics['trace.overhead_s']:.4f} s")

        width = max(len(name) for name in metrics)
        for name, value in metrics.items():
            print(f"{name:<{width}}  {value:.6g} {units[name]}")
        for line in lines:
            print(line)
        error_rate = failed / attempted
        print(f"error_rate: {error_rate:.6g} ({failed} of {attempted} operations failed)")
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _require_checkout() -> None:
    missing = [p for p in (SRC / "qubitbath" / "__init__.py", CONFIGS) if not p.exists()]
    if missing:
        sys.exit(f"perfbench: not a qubitbath checkout, missing {', '.join(map(str, missing))}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qubitbath

    if Path(qubitbath.__file__).resolve().parent != (SRC / "qubitbath").resolve():
        sys.exit(f"perfbench: imported qubitbath from {qubitbath.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="recorded; the inputs hold no randomness")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    _require_checkout()
    workloads = paper_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    result = run_benchmark(
        workloads[args.workload], args.seconds, bool(args.trace), pool_probe_payload()
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
