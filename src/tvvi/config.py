"""Flat key-value experiment configuration.

The format is line-oriented ``section.key = value`` with ``#`` comments,
chosen for diff-friendly experiment provenance. Values parse as
booleans, integers, floats, comma vectors, semicolon-row matrices, or
strings; ``|`` separates a list of matrices. Unknown keys are rejected
with field-level errors before any computation runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


class ConfigError(ValueError):
    """Invalid experiment configuration; carries per-field messages."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def parse_scalar(text: str):
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_value(text: str):
    text = text.strip()
    if "|" in text:
        return [parse_value(part) for part in text.split("|")]
    if ";" in text:
        return [[float(u) for u in row.split(",")] for row in text.split(";")]
    if "," in text:
        return [float(u) for u in text.split(",")]
    return parse_scalar(text)


COMMANDS = ("track", "bounds", "bifurcation", "orbit", "star", "verify")

ALGORITHMS = ("forward", "resolvent", "cyclic_fb", "meta_fixed", "meta_adaptive")

BOUND_KINDS = ("contractive", "cyclic_regret", "aggregation_regret",
               "aggregation_tracking", "constant_tracking", "adversarial_lb")

# keys allowed per command, besides "command" and "scenario.*"
_RUN_KEYS = {"run.horizon", "run.z1", "run.seed", "run.divergence_threshold",
             "run.fail_on_divergence"}
_ALGO_KEYS = {"algorithm.kind", "algorithm.eta", "algorithm.period",
              "algorithm.schedule", "algorithm.mu", "algorithm.k",
              "algorithm.d", "algorithm.g", "algorithm.lip"}
_OUT_KEYS = {"output.path", "output.format"}

ALLOWED_KEYS = {
    "track": _RUN_KEYS | _ALGO_KEYS | _OUT_KEYS,
    "bounds": _RUN_KEYS | _ALGO_KEYS | _OUT_KEYS | {
        "bound.kind", "bound.which", "bound.c", "bound.g", "bound.mu",
        "bound.d", "bound.k", "bound.big_k", "bound.d0", "bound.kappa"},
    "bifurcation": _OUT_KEYS | {
        "dynamics.eta_lo", "dynamics.eta_hi", "dynamics.eta_n",
        "dynamics.extra_etas", "dynamics.steps", "dynamics.burn_in",
        "dynamics.x0", "dynamics.cell_lo", "dynamics.cell_hi",
        "dynamics.cells", "dynamics.threshold", "dynamics.tol",
        "dynamics.max_period"},
    "orbit": _OUT_KEYS | {
        "dynamics.eta", "dynamics.x0", "dynamics.steps", "dynamics.threshold"},
    "star": _OUT_KEYS | {
        "star.eta", "star.samples", "star.steps", "star.box",
        "star.tail_fraction", "star.seed", "star.threshold", "star.output"},
    "verify": _OUT_KEYS | {"verify.samples", "verify.fd_points", "verify.seed"},
}

DEFAULTS = {
    "run.seed": 0,
    "run.divergence_threshold": 1e6,
    "run.fail_on_divergence": False,
    "output.format": "csv",
    "dynamics.eta_lo": 0.0,
    "dynamics.eta_hi": 8.0,
    "dynamics.eta_n": 3000,
    "dynamics.steps": 2000,
    "dynamics.burn_in": 1000,
    "dynamics.x0": -0.1,
    "dynamics.cell_lo": -10.0,
    "dynamics.cell_hi": 10.0,
    "dynamics.cells": 1000,
    "dynamics.threshold": 1000.0,
    "dynamics.tol": 1e-8,
    "dynamics.max_period": 64,
    "star.samples": 100,
    "star.steps": 500,
    "star.box": 500.0,
    "star.tail_fraction": 0.5,
    "star.seed": 0,
    "star.threshold": 1e6,
    "star.output": "series",
    "bound.which": "tracking",
    "verify.samples": 10000,
    "verify.fd_points": 100,
    "verify.seed": 0,
}


@dataclass
class ExperimentConfig:
    command: str
    scenario: Optional[str] = None
    scenario_params: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    def get(self, key: str, default=None):
        if key in self.values:
            return self.values[key]
        if key in DEFAULTS:
            return DEFAULTS[key]
        return default

    def require(self, key: str):
        v = self.get(key)
        if v is None:
            raise ConfigError([f"field {key!r}: required"])
        return v


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config; raises ConfigError listing every
    offending field."""
    errors = []
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value'")
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key in pairs:
            errors.append(f"field {key!r}: duplicated")
        pairs[key] = value
    if errors:
        raise ConfigError(errors)

    command = pairs.pop("command", None)
    if command is None:
        errors.append("field 'command': required")
    elif command not in COMMANDS:
        errors.append(f"field 'command': unknown command {command!r}")
    if errors:
        raise ConfigError(errors)

    scenario = None
    scenario_params = {}
    values = {}
    allowed = ALLOWED_KEYS[command]
    for key, raw in pairs.items():
        if key == "scenario.name":
            scenario = raw
            continue
        if key.startswith("scenario."):
            scenario_params[key[len("scenario."):]] = parse_value(raw)
            continue
        if key not in allowed:
            errors.append(f"field {key!r}: unknown key for command {command!r}")
            continue
        values[key] = parse_value(raw)

    cfg = ExperimentConfig(command=command, scenario=scenario,
                           scenario_params=scenario_params, values=values)
    errors.extend(_validate(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def _validate(cfg: ExperimentConfig) -> list:
    errors = []
    v = cfg.values

    def positive(key):
        x = cfg.get(key)
        if x is not None and (not isinstance(x, (int, float)) or x <= 0):
            errors.append(f"field {key!r}: must be positive, got {x!r}")

    def nonneg_int(key):
        x = cfg.get(key)
        if x is not None and (not isinstance(x, int) or x < 0):
            errors.append(f"field {key!r}: must be a nonnegative integer")

    if cfg.command in ("track", "bounds", "verify") or \
            (cfg.command in ("bifurcation", "orbit") and cfg.scenario is None):
        if cfg.scenario is None and cfg.command in ("track", "bounds", "verify"):
            errors.append("field 'scenario.name': required")

    if cfg.command in ("track", "bounds"):
        kind = v.get("algorithm.kind")
        if kind is None:
            errors.append("field 'algorithm.kind': required")
        elif kind not in ALGORITHMS:
            errors.append(f"field 'algorithm.kind': unknown algorithm {kind!r}")
        if kind == "forward" and cfg.get("algorithm.eta") is None:
            errors.append("field 'algorithm.eta': required for forward")
        if kind == "cyclic_fb" and cfg.get("algorithm.period") is None:
            errors.append("field 'algorithm.period': required for cyclic_fb")
        if kind in ("meta_fixed", "meta_adaptive") and cfg.get("algorithm.k") is None:
            errors.append("field 'algorithm.k': required for meta algorithms")
        if cfg.get("run.horizon") is None:
            errors.append("field 'run.horizon': required")
        if cfg.get("run.z1") is None:
            errors.append("field 'run.z1': required")
        positive("algorithm.eta")
        positive("algorithm.mu")
        positive("algorithm.period")
        positive("algorithm.k")
        positive("run.horizon")
        positive("run.divergence_threshold")

    if cfg.command == "bounds":
        kind = v.get("bound.kind")
        if kind is None:
            errors.append("field 'bound.kind': required")
        elif kind not in BOUND_KINDS:
            errors.append(f"field 'bound.kind': unknown bound {kind!r}")
        which = cfg.get("bound.which")
        if which not in ("tracking", "regret"):
            errors.append("field 'bound.which': must be tracking or regret")

    if cfg.command == "bifurcation":
        positive("dynamics.eta_n")
        positive("dynamics.steps")
        positive("dynamics.threshold")
        nonneg_int("dynamics.burn_in")
        steps, burn = cfg.get("dynamics.steps"), cfg.get("dynamics.burn_in")
        if isinstance(steps, int) and isinstance(burn, int) and burn >= steps:
            errors.append("field 'dynamics.burn_in': must be below dynamics.steps")

    if cfg.command == "orbit":
        if cfg.get("dynamics.eta") is None:
            errors.append("field 'dynamics.eta': required")
        positive("dynamics.eta")
        positive("dynamics.steps")

    if cfg.command == "star":
        if cfg.get("star.eta") is None:
            errors.append("field 'star.eta': required")
        positive("star.eta")
        positive("star.samples")
        positive("star.steps")
        tf = cfg.get("star.tail_fraction")
        if not (isinstance(tf, (int, float)) and 0 < tf <= 1):
            errors.append("field 'star.tail_fraction': must be in (0, 1]")
        if cfg.get("star.output") not in ("series", "tail"):
            errors.append("field 'star.output': must be series or tail")

    if cfg.command == "verify":
        positive("verify.samples")
        positive("verify.fd_points")

    fmt = cfg.get("output.format")
    if fmt not in ("csv", "json"):
        errors.append("field 'output.format': must be csv or json")
    return errors
