"""Set-up time of one fresh process, as a user of qubitbath pays it.

    python3 perfbench/setup_probe.py SPEC.json

SPEC holds ``{"kind": "run"|"sweep", "payloads": [config, ...]}``.  The
probe times importing qubitbath, parsing each config and building every
initial state the workload evolves (each n of a sweep), i.e. everything
before the first ``evolve`` call, and prints the seconds on its last line.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

started = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qubitbath.config import parse_config  # noqa: E402
from qubitbath.states import density_from_pure  # noqa: E402

with open(sys.argv[1], encoding="utf-8") as handle:
    spec = json.load(handle)
for payload in spec["payloads"]:
    config = parse_config(payload)
    sizes = payload["sweep"]["axes"]["n"] if spec["kind"] == "sweep" else [config.state.n]
    for n in sizes:
        payload["state"]["n"] = n
        density_from_pure(parse_config(payload).state.build())
print(repr(perf_counter() - started))
