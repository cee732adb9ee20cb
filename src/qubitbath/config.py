"""Declarative experiment configuration: schema, validation and builders.

An experiment config is a single JSON document::

    {
      "state":  {"family": "ghz" | "w" | "dicke", "n": int, "k": int?},
      "noise":  {"kind": "dephasing" | "pauli",
                 "rate_z": {"kind": ..., ...},
                 "rate_x": {...}?, "rate_y": {...}?,
                 "kappa": 1.0 | 0.25, "omega0": float},
      "time":   {"t_max": float, "step": float,
                 "sample_every": float?, "observable_every": float?},
      "cuts":   ["1-Rest", "highest-cut", "{1,2}|{3,4,5}", ...],
      "analysis": {"saturation_window": float, "saturation_tol": float,
                   "revival_threshold": float}?,
      "output": {"directory": str, "formats": ["csv", "json"]}?,
      "sweep":  {"axes": {"n": [...], "s": [...], "kappa": [...]},
                 "snapshot_t": float, "workers": int?, "job_cap": int,
                 "memory_budget_mb": float}?
    }

Rate models use the tagged records of :mod:`qubitbath.rates`, e.g.
``{"kind": "ohmic_t0", "s": 2.47, "omega_c": 1.0}``.  A field that no section
above names is an error, so a misspelled one cannot fall back to its default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .dynamics import SUPPORTED_KAPPAS, IntegratorOptions, NoiseSpec
from .entanglement import parse_cut_label
from .states import PureState, dicke_state, ghz_state, w_state

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]

STATE_FAMILIES = ("ghz", "w", "dicke")


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


def _section(payload, where: str, fields: tuple) -> dict:
    """Return ``payload`` once it is a mapping that holds no field outside ``fields``."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    for key in payload:
        if key not in fields:
            raise ConfigError(f"{where}: unknown field {key!r}")
    return payload


def _need(payload: dict, key: str, where: str):
    if key not in payload:
        raise ConfigError(f"{where}: missing required field '{key}'")
    return payload[key]


def _positive(value, where: str) -> float:
    # float() takes true/false and numeric strings, but neither is a number here
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    value = float(value)
    if value <= 0:
        raise ConfigError(f"{where}: must be positive, got {value}")
    return value


def _positive_int(value, where: str) -> int:
    # bool is an int subclass, but true/false is never a count
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{where}: expected a positive integer, got {value!r}")
    return value


@dataclass(frozen=True)
class StateConfig:
    family: str
    n: int
    k: Optional[int] = None

    def build(self) -> PureState:
        if self.family == "ghz":
            return ghz_state(self.n)
        if self.family == "w":
            return w_state(self.n)
        return dicke_state(self.n, self.k if self.k is not None else 1)


@dataclass(frozen=True)
class TimeConfig:
    t_max: float
    step: float = 0.01
    sample_every: Optional[float] = None
    observable_every: Optional[float] = None

    def integrator_options(self, **overrides) -> IntegratorOptions:
        kwargs = {
            "step": self.step,
            "sample_every": self.sample_every if self.sample_every is not None else self.t_max,
            "observable_every": self.observable_every,
        }
        kwargs.update(overrides)
        return IntegratorOptions(**kwargs)


@dataclass(frozen=True)
class AnalysisConfig:
    saturation_window: float = 10.0
    saturation_tol: float = 1e-4
    revival_threshold: float = 1e-3


@dataclass(frozen=True)
class SweepConfig:
    axes: dict
    snapshot_t: float = 30.0
    workers: Optional[int] = None
    job_cap: int = 512
    memory_budget_mb: float = 4096.0


@dataclass(frozen=True)
class ExperimentConfig:
    state: StateConfig
    noise: NoiseSpec
    time: TimeConfig
    cuts: tuple
    analysis: AnalysisConfig = AnalysisConfig()
    output_directory: str = "runs"
    output_formats: tuple = ("csv", "json")
    sweep: Optional[SweepConfig] = None

    def bipartitions(self, n: Optional[int] = None) -> list:
        n = self.state.n if n is None else n
        return [parse_cut_label(label, n) for label in self.cuts]

    def to_dict(self) -> dict:
        payload = {
            "state": {"family": self.state.family, "n": self.state.n},
            "noise": self.noise.to_dict(),
            "time": {
                "t_max": self.time.t_max,
                "step": self.time.step,
                "sample_every": self.time.sample_every,
                "observable_every": self.time.observable_every,
            },
            "cuts": list(self.cuts),
            "analysis": {
                "saturation_window": self.analysis.saturation_window,
                "saturation_tol": self.analysis.saturation_tol,
                "revival_threshold": self.analysis.revival_threshold,
            },
            "output": {
                "directory": self.output_directory,
                "formats": list(self.output_formats),
            },
        }
        if self.state.k is not None:
            payload["state"]["k"] = self.state.k
        if self.sweep is not None:
            payload["sweep"] = {
                "axes": self.sweep.axes,
                "snapshot_t": self.sweep.snapshot_t,
                "workers": self.sweep.workers,
                "job_cap": self.sweep.job_cap,
                "memory_budget_mb": self.sweep.memory_budget_mb,
            }
        return payload


def _parse_state(payload: dict) -> StateConfig:
    _section(payload, "state", ("family", "n", "k"))
    family = _need(payload, "family", "state")
    if family not in STATE_FAMILIES:
        raise ConfigError(f"state.family: expected one of {STATE_FAMILIES}, got {family!r}")
    n = _positive_int(_need(payload, "n", "state"), "state.n")
    if family == "w" and n < 2:
        raise ConfigError("state.n: a w state needs at least 2 qubits")
    k = payload.get("k")
    if family == "dicke":
        k = 1 if k is None else _positive_int(k, "state.k")
        if k > n - 1:
            raise ConfigError(f"state.k: expected an integer in 1..{n - 1}, got {k!r}")
    elif k is not None:
        raise ConfigError("state.k: only valid for the dicke family")
    return StateConfig(family=family, n=n, k=k)


def _parse_noise(payload: dict) -> NoiseSpec:
    _section(payload, "noise", ("kind", "rate_x", "rate_y", "rate_z", "omega0", "kappa"))
    try:
        spec = NoiseSpec.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"noise: {exc}") from exc
    return spec


def _parse_time(payload: dict) -> TimeConfig:
    _section(payload, "time", ("t_max", "step", "sample_every", "observable_every"))
    t_max = _positive(_need(payload, "t_max", "time"), "time.t_max")
    step = _positive(payload.get("step", 0.01), "time.step")
    sample_every = payload.get("sample_every")
    if sample_every is not None:
        sample_every = _positive(sample_every, "time.sample_every")
        if sample_every < step:
            raise ConfigError("time.sample_every: must be >= time.step")
    observable_every = payload.get("observable_every")
    if observable_every is not None:
        observable_every = _positive(observable_every, "time.observable_every")
    return TimeConfig(
        t_max=t_max, step=step, sample_every=sample_every, observable_every=observable_every
    )


def _sweep_kappa(value) -> float:
    if isinstance(value, bool) or value not in SUPPORTED_KAPPAS:
        raise ConfigError(f"sweep.axes.kappa: expected one of {SUPPORTED_KAPPAS}, got {value!r}")
    return float(value)


def _parse_sweep(payload: dict) -> SweepConfig:
    _section(payload, "sweep", ("axes", "snapshot_t", "workers", "job_cap", "memory_budget_mb"))
    axes = _need(payload, "axes", "sweep")
    if not isinstance(axes, dict) or not axes:
        raise ConfigError("sweep.axes: expected a non-empty mapping")
    # each axis value is stored as it runs, so summary rows carry the values that ran
    checks = {
        "n": lambda value: _positive_int(value, "sweep.axes.n"),
        "s": lambda value: _positive(value, "sweep.axes.s"),
        "kappa": _sweep_kappa,
    }
    for key, values in axes.items():
        if key not in checks:
            raise ConfigError(f"sweep.axes: unsupported axis {key!r} (use n, s or kappa)")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.axes.{key}: expected a non-empty list")
    workers = payload.get("workers")
    return SweepConfig(
        axes={key: [checks[key](v) for v in values] for key, values in axes.items()},
        snapshot_t=_positive(payload.get("snapshot_t", 30.0), "sweep.snapshot_t"),
        workers=None if workers is None else _positive_int(workers, "sweep.workers"),
        job_cap=_positive_int(payload.get("job_cap", 512), "sweep.job_cap"),
        memory_budget_mb=_positive(payload.get("memory_budget_mb", 4096.0), "sweep.memory_budget_mb"),
    )


def parse_config(payload: dict) -> ExperimentConfig:
    _section(
        payload, "top level", ("state", "noise", "time", "cuts", "analysis", "output", "sweep")
    )
    state = _parse_state(_need(payload, "state", "top level"))
    noise = _parse_noise(_need(payload, "noise", "top level"))
    time = _parse_time(_need(payload, "time", "top level"))

    cuts = payload.get("cuts", [])
    if not isinstance(cuts, list):
        raise ConfigError("cuts: expected a list of bipartition labels")
    for label in cuts:
        try:
            parse_cut_label(label, state.n)
        except ValueError as exc:
            raise ConfigError(f"cuts: {exc}") from exc

    analysis_payload = _section(
        payload.get("analysis", {}),
        "analysis",
        ("saturation_window", "saturation_tol", "revival_threshold"),
    )
    analysis = AnalysisConfig(
        saturation_window=_positive(
            analysis_payload.get("saturation_window", 10.0), "analysis.saturation_window"
        ),
        saturation_tol=_positive(
            analysis_payload.get("saturation_tol", 1e-4), "analysis.saturation_tol"
        ),
        revival_threshold=_positive(
            analysis_payload.get("revival_threshold", 1e-3), "analysis.revival_threshold"
        ),
    )

    output = _section(payload.get("output", {}), "output", ("directory", "formats"))
    directory = output.get("directory", "runs")
    formats = tuple(output.get("formats", ["csv", "json"]))
    for fmt in formats:
        if fmt not in ("csv", "json", "states"):
            raise ConfigError(f"output.formats: unsupported format {fmt!r}")

    sweep = _parse_sweep(payload["sweep"]) if "sweep" in payload else None

    return ExperimentConfig(
        state=state,
        noise=noise,
        time=time,
        cuts=tuple(cuts),
        analysis=analysis,
        output_directory=directory,
        output_formats=formats,
        sweep=sweep,
    )


def load_config(path: str) -> ExperimentConfig:
    """Read and validate an experiment config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc
    return parse_config(payload)
