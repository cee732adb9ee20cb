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
                 "snapshot_t": float?, "job_cap": int,
                 "memory_budget_mb": float}?
    }

A sweep reports each cell's E at ``sweep.snapshot_t``, by default ``time.t_max``.
``ExperimentConfig.cells`` derives the cells' configs from the parsed config.

Rate models use the tagged records of :mod:`qubitbath.rates`, e.g.
``{"kind": "ohmic_t0", "s": 2.47, "omega_c": 1.0}``.  The dataclasses below,
``NoiseSpec`` and the rate models are the schema, with one rule for every record:
its keys are its fields, a field without a default is required, and a key that is
not a field is an error, so a misspelled one cannot fall back to its default.
Numbers reject true/false and strings, time values must be positive multiples of
``time.step``, and a record's own check (such as the kappa whitelist) fails naming
the record.  The JSON form is ``dataclasses.asdict``, a rate model's ``kind`` included.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional, get_args

from .dynamics import SUPPORTED_KAPPAS, IntegratorOptions, NoiseSpec, _stride
from .entanglement import parse_cut_label
from .errors import ConfigError
from .rates import DecayRateModel
from .states import PureState, dicke_state, ghz_state, w_state

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]

STATE_FAMILIES = ("ghz", "w", "dicke")
OUTPUT_FORMATS = ("csv", "json", "states")


def _record(cls, payload, where: str, checks: dict):
    """Build the dataclass ``cls`` from the JSON object ``payload``; ``where`` is its path.

    The dataclass's init fields are the schema.  A key that is not one of them is an
    error, and so is an absent field without a default; any other absent field takes its
    default.  Each present field goes through ``checks[name](value, path)``, which returns
    the value to store or raises a ConfigError naming ``path``.  A ValueError from the
    record's ``__post_init__`` becomes a ConfigError naming ``where``.
    """
    section = where or "top level"
    if not isinstance(payload, dict):
        raise ConfigError(f"{section}: expected a JSON object")
    fields = {field.name: field for field in dataclasses.fields(cls) if field.init}
    for key in payload:
        if key not in fields:
            raise ConfigError(f"{section}: unknown field {key!r}")
    kwargs = {}
    for name, field in fields.items():
        if name in payload:
            kwargs[name] = checks[name](payload[name], f"{where}.{name}" if where else name)
        elif field.default is dataclasses.MISSING:
            raise ConfigError(f"{section}: missing required field '{name}'")
    try:
        return cls(**kwargs)
    except ValueError as exc:  # the record's own __post_init__ check
        raise ConfigError(f"{section}: {exc}") from exc


def _optional(check):
    """``check`` for a field whose default is None: an explicit null stands for it."""
    return lambda value, where: None if value is None else check(value, where)


def _number(value, where: str) -> float:
    """``value`` as a finite float; float() would also take true/false, strings and NaN."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or not math.isfinite(value):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _positive(value, where: str) -> float:
    value = _number(value, where)
    if value <= 0:
        raise ConfigError(f"{where}: must be positive, got {value}")
    return value


def _positive_int(value, where: str) -> int:
    # bool is an int subclass, but true/false is never a count
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{where}: expected a positive integer, got {value!r}")
    return value


def _strings(value, where: str) -> tuple:
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ConfigError(f"{where}: expected a list of strings, got {value!r}")
    return tuple(value)


def _string(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where}: expected a non-empty string, got {value!r}")
    return value


def _on_step_grid(value, step: float, where: str) -> None:
    # the rule evolve applies, so a config that parses has a time grid that runs
    try:
        _stride(where, value, step, None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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

    def integrator_options(self, record_states: bool = True) -> IntegratorOptions:
        return IntegratorOptions(
            step=self.step,
            observable_every=self.observable_every,
            sample_every=self.sample_every if self.sample_every is not None else self.t_max,
            record_states=record_states,
        )


@dataclass(frozen=True)
class AnalysisConfig:
    saturation_window: float = 10.0
    saturation_tol: float = 1e-4
    revival_threshold: float = 1e-3


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "runs"
    formats: tuple = ("csv", "json")


@dataclass(frozen=True)
class SweepConfig:
    axes: dict
    snapshot_t: Optional[float] = None
    job_cap: int = 512
    memory_budget_mb: float = 4096.0


@dataclass(frozen=True)
class ExperimentConfig:
    state: StateConfig
    noise: NoiseSpec
    time: TimeConfig
    cuts: tuple = ()
    analysis: AnalysisConfig = AnalysisConfig()
    output: OutputConfig = OutputConfig()
    sweep: Optional[SweepConfig] = None

    def bipartitions(self) -> list:
        return [parse_cut_label(label, self.state.n) for label in self.cuts]

    def cells(self) -> list:
        """The sweep's (cell, cell config) pairs, axes sorted by name and the last one fastest.

        A cell config is this config without its sweep section, timed to the snapshot, with
        the cell's n, s and kappa put in its parsed records.  What the cell changes is checked
        as ``parse_config`` checks it, so a cell is refused with its own config's message.
        """
        if self.sweep is None:
            raise ConfigError("sweep: config has no sweep section")
        axes = self.sweep.axes
        names = sorted(axes)
        cells = [dict(zip(names, combo)) for combo in itertools.product(*(axes[k] for k in names))]
        if len(cells) > self.sweep.job_cap:
            raise ConfigError(f"sweep: {len(cells)} cells exceed job_cap={self.sweep.job_cap}")
        if "s" in axes and not hasattr(self.noise.rate_z, "s"):
            raise ConfigError("sweep.axes.s: noise.rate_z has no Ohmicity parameter")
        snapshot = self.time.t_max if self.sweep.snapshot_t is None else self.sweep.snapshot_t
        time = dataclasses.replace(
            self.time, t_max=snapshot, sample_every=snapshot, observable_every=snapshot
        )
        pairs = []
        for cell in cells:
            state, noise = self.state, self.noise
            if "n" in cell:
                state = _check_state(dataclasses.replace(state, n=cell["n"]), "state")
            if "s" in cell:
                try:  # the rate's own __post_init__ check, as _record runs it
                    rate_z = dataclasses.replace(noise.rate_z, s=cell["s"])
                except ValueError as exc:
                    raise ConfigError(f"noise.rate_z: {exc}") from exc
                noise = dataclasses.replace(noise, rate_z=rate_z)
            if "kappa" in cell:  # the axis holds supported values only
                noise = dataclasses.replace(noise, kappa=cell["kappa"])
            _check_cuts(self.cuts, state.n)
            cell_config = dataclasses.replace(self, state=state, noise=noise, time=time, sweep=None)
            pairs.append((cell, cell_config))
        return pairs

    def to_dict(self) -> dict:
        """The JSON form, with ``parse_config(config.to_dict()) == config``."""
        payload = dataclasses.asdict(self)
        payload["cuts"] = list(self.cuts)
        payload["output"]["formats"] = list(self.output.formats)
        if self.state.k is None:
            del payload["state"]["k"]
        if self.sweep is None:
            del payload["sweep"]
        return payload


def _section(cls, checks: dict):
    """The check of a field that holds the record ``cls``."""
    return lambda payload, where: _record(cls, payload, where, checks)


def _family(value, where: str) -> str:
    if value not in STATE_FAMILIES:
        raise ConfigError(f"{where}: expected one of {STATE_FAMILIES}, got {value!r}")
    return value


def _parse_state(payload, where: str) -> StateConfig:
    checks = {"family": _family, "n": _positive_int, "k": _optional(_positive_int)}
    return _check_state(_record(StateConfig, payload, where, checks), where)


def _check_state(state: StateConfig, where: str) -> StateConfig:
    """``state`` within its family's bounds, a Dicke state's k defaulted to 1."""
    if state.family == "w" and state.n < 2:
        raise ConfigError(f"{where}.n: a w state needs at least 2 qubits")
    if state.family != "dicke":
        if state.k is not None:
            raise ConfigError(f"{where}.k: only valid for the dicke family")
        return state
    k = 1 if state.k is None else state.k
    if k > state.n - 1:
        raise ConfigError(f"{where}.k: expected an integer in 1..{state.n - 1}, got {k!r}")
    return dataclasses.replace(state, k=k)


_RATE_KINDS = {cls.kind: cls for cls in get_args(DecayRateModel)}


def _rate(value, where: str) -> DecayRateModel:
    """A rate model from its tagged record: ``kind`` picks the model, the rest are numbers."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    kind = value.get("kind")
    if kind not in tuple(_RATE_KINDS):  # a tuple, so an unhashable kind is just unknown
        raise ConfigError(f"{where}.kind: expected one of {tuple(_RATE_KINDS)}, got {kind!r}")
    cls = _RATE_KINDS[kind]
    record = {key: item for key, item in value.items() if key != "kind"}
    return _record(cls, record, where, {field.name: _number for field in dataclasses.fields(cls)})


def _parse_time(payload, where: str) -> TimeConfig:
    checks = {"t_max": _positive, "step": _positive}
    checks["sample_every"] = checks["observable_every"] = _optional(_positive)
    time = _record(TimeConfig, payload, where, checks)
    for field in dataclasses.fields(time):
        if field.name != "step":
            _on_step_grid(getattr(time, field.name), time.step, f"{where}.{field.name}")
    return time


def _formats(value, where: str) -> tuple:
    formats = _strings(value, where)
    for fmt in formats:
        if fmt not in OUTPUT_FORMATS:
            raise ConfigError(f"{where}: unsupported format {fmt!r}")
    return formats


def _sweep_kappa(value, where: str) -> float:
    if isinstance(value, bool) or value not in SUPPORTED_KAPPAS:
        raise ConfigError(f"{where}: expected one of {SUPPORTED_KAPPAS}, got {value!r}")
    return float(value)


# each axis value is stored as it runs, so summary rows carry the values that ran
_AXES = {"n": _positive_int, "s": _positive, "kappa": _sweep_kappa}


def _axes(value, where: str) -> dict:
    if not isinstance(value, dict) or not value:
        raise ConfigError(f"{where}: expected a non-empty mapping")
    axes = {}
    for key, values in value.items():
        if key not in _AXES:
            raise ConfigError(f"{where}: unsupported axis {key!r} (use n, s or kappa)")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{where}.{key}: expected a non-empty list")
        axes[key] = [_AXES[key](v, f"{where}.{key}") for v in values]
        # compared as they run, so 2 and 2.0 are one s; a repeat would run its cells twice
        for i, item in enumerate(axes[key]):
            if item in axes[key][:i]:
                raise ConfigError(f"{where}.{key}: duplicate value {item}")
    return axes


_SECTIONS = {
    "state": _parse_state,
    "noise": _section(
        NoiseSpec,
        {"kind": _string, "omega0": _number, "kappa": _number}
        | dict.fromkeys(("rate_z", "rate_x", "rate_y"), _rate),
    ),
    "time": _parse_time,
    "cuts": _strings,
    "analysis": _section(
        AnalysisConfig, {field.name: _positive for field in dataclasses.fields(AnalysisConfig)}
    ),
    "output": _section(OutputConfig, {"directory": _string, "formats": _formats}),
    "sweep": _section(
        SweepConfig,
        {
            "axes": _axes,
            "snapshot_t": _optional(_positive),
            "job_cap": _positive_int,
            "memory_budget_mb": _positive,
        },
    ),
}


def _check_cuts(cuts: tuple, n: int) -> None:
    """Refuse a repeated cut label or one that names no bipartition of n qubits."""
    for i, label in enumerate(cuts):
        if label in cuts[:i]:
            raise ConfigError(f"cuts: duplicate label {label!r}")
        try:
            parse_cut_label(label, n)
        except ValueError as exc:
            raise ConfigError(f"cuts: {exc}") from exc


def parse_config(payload: dict) -> ExperimentConfig:
    config = _record(ExperimentConfig, payload, "", _SECTIONS)
    _check_cuts(config.cuts, config.state.n)
    if config.sweep is not None:
        _on_step_grid(config.sweep.snapshot_t, config.time.step, "sweep.snapshot_t")
    return config


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
