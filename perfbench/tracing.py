"""Span tracing of qubitbath's layers from outside the package.

``Tracer.install`` replaces the module and class attributes that each layer
is called through with timing wrappers; ``uninstall`` puts the originals
back.  No file under ``src/`` is edited.  Every wrapped call records one
span (name, parent span, start, end, work units); spans nest through a
stack and stay in compact in-memory arrays until ``summary``/``write``.

A span's self time is its duration minus the durations of its direct child
spans.  Forked pool workers inherit the wrappers, but their spans never
reach the parent, so pool sweeps are measured untraced.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from time import perf_counter
from typing import get_args

import numpy as np


def _eigvalsh_work(a, *args, **kwargs) -> float:
    """batch * d**3 for the stacked matrices passed in (computed from the shape)."""
    shape = np.shape(a)
    return float(np.prod(shape[:-2], dtype=float) * float(shape[-1]) ** 3)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = []
        self._patches = []

    def wrap(self, name: str, fn, work=None):
        """Return ``fn`` wrapped so that each call records a span called ``name``."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, works, stack = (
            self.name_id, self.parent, self.start, self.end, self.work, self._stack,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            works.append(work(*args, **kwargs) if work is not None else 0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, name: str, work=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, work))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        import qubitbath.cli as cli
        import qubitbath.dynamics as dynamics
        import qubitbath.rates as rates
        import qubitbath.states as states

        evolve_sig = inspect.signature(cli.evolve)

        def evolve_steps(*args, **kwargs) -> float:
            bound = evolve_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return float(round(bound.arguments["t_max"] / bound.arguments["options"].step))

        self._patch(cli, "evolve", "dynamics.evolve", evolve_steps)
        self._patch(cli, "parse_config", "config.parse")
        self._patch(cli, "detect_saturation", "analysis.detect_saturation")
        self._patch(cli, "detect_revival", "analysis.detect_revival")
        self._patch(dynamics, "log_negativity", "entanglement.log_negativity")
        self._patch(states.DensityMatrix, "__post_init__", "states.validate")
        self._patch(states.DensityMatrix, "min_eigenvalue", "states.min_eigenvalue")
        for model in get_args(rates.DecayRateModel):
            self._patch(model, "rate", "rates.rate")
        self._patch(np.linalg, "eigvalsh", "kernel.eigvalsh", _eigvalsh_work)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds and work units."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        work = np.frombuffer(self.work, dtype=float)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
                "work": float(work[mask].sum()),
            }
        return out

    def write(self, path) -> None:
        """Write every span as a gzipped TSV: name, parent index, start, duration."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("name\tparent\tstart_s\tduration_s\n")
            for nid, parent, start, end in zip(self.name_id, self.parent, self.start, self.end):
                handle.write(f"{self.names[nid]}\t{parent}\t{start - t0:.9f}\t{end - start:.9f}\n")
