"""The sweep process pool against its serial twin on the same grid.

    python3 perfbench/pool_probe.py SPEC.json

SPEC holds ``{"payload": sweep config, "workers": k, "out": directory}``.
The probe runs ``sweep_experiment`` with ``workers=k`` (the pool, started
first so that its workers fork from a process that has done no work yet) and
then with ``workers=1``.  It leaves the thread environment as it found it.
Its last line is a JSON object with wall and CPU seconds of both runs (CPU
includes reaped pool workers), the pool workers' peak RSS, and the summary
CSV lines per cell of each run for the caller's checks.
"""

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from qubitbath.cli import sweep_experiment  # noqa: E402
from qubitbath.config import parse_config  # noqa: E402

from run import _cpu_seconds, sweep_rows  # noqa: E402


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    config = parse_config(spec["payload"])
    report = {"workers": spec["workers"]}
    for mode, workers in (("pool", spec["workers"]), ("serial", 1)):
        out = Path(spec["out"]) / mode
        wall0, cpu0 = perf_counter(), _cpu_seconds()
        sweep_experiment(config, str(out), workers=workers)
        report[f"{mode}_wall"] = perf_counter() - wall0
        report[f"{mode}_cpu"] = _cpu_seconds() - cpu0
        report[f"{mode}_rows"] = sweep_rows(spec["payload"], out)
        if mode == "pool":
            report["child_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(json.dumps(report))


if __name__ == "__main__":
    main()
