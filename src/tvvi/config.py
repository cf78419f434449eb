"""Flat key-value experiment configuration.

The format is line-oriented ``section.key = value`` with ``#`` comments,
chosen for diff-friendly experiment provenance. ``FIELDS`` defines every
key outside ``scenario.*``, and ``scenarios.PARAMS`` every scenario's
keys: type, default, bound (and for ``FIELDS`` the commands that accept
it). Integer fields take integer literals, float fields finite numbers,
vector fields comma-separated finite floats, matrix fields such vectors
as rows separated by ``;``, lists of matrices ``|`` between matrices,
and string fields keep their raw text. Config text is parsed by that
spelling and then checked by the same type rule as a Python value.
Unknown keys, mistyped values and values out of bounds are rejected
with field-level errors before any computation runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .core import ConfigurationError, as_point


COMMANDS = ("track", "bounds", "bifurcation", "orbit", "star", "verify")

ALGORITHMS = ("forward", "resolvent", "cyclic_fb", "meta_fixed", "meta_adaptive")

BOUND_KINDS = ("contractive", "cyclic_regret", "aggregation_regret",
               "aggregation_tracking", "constant_tracking", "adversarial_lb")


MATRIX, MATRICES = "matrix", "matrices"


class Spec(NamedTuple):
    """One config key. ``type`` is int, float, str, list (a vector
    of floats), MATRIX, MATRICES or a tuple of the allowed strings;
    ``bound`` is a (rule, predicate) pair checked on the value, or on
    each coordinate of a vector."""
    type: object
    default: object
    bound: Optional[tuple] = None
    commands: tuple = ()


_POSITIVE = ("must be positive", lambda x: x > 0)
_NONNEGATIVE = ("must be nonnegative", lambda x: x >= 0)
_OPEN_UNIT = ("must be in (0, 1)", lambda x: 0 < x < 1)
_AT_LEAST_ONE = ("must be at least 1", lambda x: x >= 1)
_NONEMPTY = ("must not be empty", bool)

_TRACKING = ("track", "bounds")
_SCAN = ("bifurcation",)
_MAPS = ("bifurcation", "orbit")

FIELDS = {
    "run.horizon": Spec(int, None, _POSITIVE, _TRACKING),
    "run.z1": Spec(list, None, None, _TRACKING),
    "run.divergence_threshold": Spec(float, 1e6, _POSITIVE, _TRACKING),
    "algorithm.kind": Spec(ALGORITHMS, None, None, _TRACKING),
    "algorithm.eta": Spec(float, None, _POSITIVE, _TRACKING),
    "algorithm.period": Spec(int, None, _POSITIVE, _TRACKING),
    "algorithm.schedule": Spec(("inverse_mu", "constant"), "inverse_mu", None, _TRACKING),
    "algorithm.mu": Spec(float, None, _POSITIVE, _TRACKING),
    "algorithm.k": Spec(int, None, _POSITIVE, _TRACKING),
    "algorithm.d": Spec(float, None, _POSITIVE, _TRACKING),
    "algorithm.g": Spec(float, None, _POSITIVE, _TRACKING),
    "algorithm.lip": Spec(float, None, _POSITIVE, _TRACKING),
    "output.path": Spec(str, None, _NONEMPTY, COMMANDS),
    "bound.kind": Spec(BOUND_KINDS, None, None, ("bounds",)),
    "bound.which": Spec(("tracking", "regret"), "tracking", None, ("bounds",)),
    "bound.c": Spec(float, None, _OPEN_UNIT, ("bounds",)),
    "bound.g": Spec(float, None, _POSITIVE, ("bounds",)),
    "bound.d": Spec(float, None, _POSITIVE, ("bounds",)),
    "bound.k": Spec(int, None, _POSITIVE, ("bounds",)),
    "bound.kappa": Spec(float, None, _AT_LEAST_ONE, ("bounds",)),
    "dynamics.eta_lo": Spec(float, 0.0, _NONNEGATIVE, _SCAN),
    "dynamics.eta_hi": Spec(float, 8.0, _POSITIVE, _SCAN),
    "dynamics.eta_n": Spec(int, 3000, _POSITIVE, _SCAN),
    "dynamics.extra_etas": Spec(list, None, _POSITIVE, _SCAN),
    "dynamics.steps": Spec(int, 2000, _POSITIVE, _MAPS),
    "dynamics.burn_in": Spec(int, 1000, _NONNEGATIVE, _SCAN),
    "dynamics.x0": Spec(list, -0.1, None, _MAPS),
    "dynamics.cell_lo": Spec(float, -10.0, None, _SCAN),
    "dynamics.cell_hi": Spec(float, 10.0, None, _SCAN),
    "dynamics.cells": Spec(int, 1000, _POSITIVE, _SCAN),
    "dynamics.threshold": Spec(float, 1000.0, _POSITIVE, _MAPS),
    "dynamics.eta": Spec(float, None, _POSITIVE, ("orbit",)),
    "star.eta": Spec(float, None, _POSITIVE, ("star",)),
    "star.samples": Spec(int, 100, _POSITIVE, ("star",)),
    "star.steps": Spec(int, 500, _POSITIVE, ("star",)),
    "star.box": Spec(float, 500.0, _POSITIVE, ("star",)),
    "star.seed": Spec(int, 0, _NONNEGATIVE, ("star",)),
    "star.output": Spec(("series", "tail"), "series", None, ("star",)),
    "verify.samples": Spec(int, 10000, _POSITIVE, ("verify",)),
    "verify.fd_points": Spec(int, 100, _POSITIVE, ("verify",)),
    "verify.seed": Spec(int, 0, _NONNEGATIVE, ("verify",)),
}

# fields without a default that a command, or an algorithm kind, needs
_REQUIRED = {
    "track": ("scenario.name", "algorithm.kind", "run.horizon", "run.z1"),
    "bounds": ("scenario.name", "algorithm.kind", "run.horizon", "run.z1",
               "bound.kind"),
    "bifurcation": (),
    "orbit": ("dynamics.eta",),
    "star": ("star.eta",),
    "verify": ("scenario.name",),
}
_REQUIRED_BY_KIND = {
    "forward": ("algorithm.eta",),
    "cyclic_fb": ("algorithm.period",),
    "meta_fixed": ("algorithm.k",),
    "meta_adaptive": ("algorithm.k",),
}


def _parse(kind, text: str):
    """``text`` split and converted as type ``kind`` spells it, the value
    not yet checked: an int, a float, a comma-separated vector, such
    vectors as rows separated by ';', matrices separated by '|', or the
    text as it is. Raises ValueError where a part is no number."""
    if kind is int or kind is float:
        return kind(text)
    if kind is list:
        return [float(u) for u in text.split(",")]
    if kind == MATRIX:
        return [_parse(list, row) for row in text.split(";")]
    if kind == MATRICES:
        return [_parse(MATRIX, m) for m in text.split("|")]
    return text


def _is_number(x) -> bool:
    return (isinstance(x, (int, float, np.integer, np.floating))
            and not isinstance(x, bool) and math.isfinite(x))


def _is_sequence_of(is_item, x) -> bool:
    """Whether ``x`` is a non-empty list, tuple or array of items."""
    return (isinstance(x, (list, tuple)) or isinstance(x, np.ndarray) and x.ndim > 0) \
        and len(x) > 0 and all(map(is_item, x))


def _is_matrix(x) -> bool:
    return (_is_sequence_of(lambda row: _is_sequence_of(_is_number, row), x)
            and len({len(row) for row in x}) == 1)


_TYPES = {
    int: ("must be an integer", lambda x: isinstance(x, (int, np.integer))
          and not isinstance(x, bool)),
    float: ("must be a finite number", _is_number),
    list: ("must be a finite number or a non-empty vector of them",
           lambda x: _is_number(x) or _is_sequence_of(_is_number, x)),
    MATRIX: ("must be a non-empty matrix of finite numbers, rows of equal length",
             _is_matrix),
    MATRICES: ("must be a non-empty list of matrices",
               lambda x: _is_sequence_of(_is_matrix, x)),
    str: ("must be text", lambda x: isinstance(x, str)),
}


def _type_rule(kind) -> tuple:
    """The (rule, predicate) pair of value type ``kind``."""
    if isinstance(kind, tuple):
        return (f"must be one of {', '.join(kind)}",
                lambda x: isinstance(x, str) and x in kind)
    return _TYPES[kind]


def _field_value(key: str, spec: Spec, raw):
    """Field ``key``'s value: text parsed as ``spec.type`` spells it, or a
    Python value kept as it is, then checked against the type's rule and
    ``spec.bound`` on each coordinate; raises ConfigurationError naming
    the field and the rule it breaks. Text that does not parse breaks
    its type's rule."""
    rule, ok = _type_rule(spec.type)
    try:
        value = _parse(spec.type, raw) if isinstance(raw, str) else raw
    except ValueError:
        value = None            # no literal of its type: fails every type but str
    if not ok(value):
        raise ConfigurationError(f"field {key!r}: {rule}, got {raw!r}")
    if spec.bound is not None and not all(map(spec.bound[1], np.ravel(value))):
        raise ConfigurationError(f"field {key!r}: {spec.bound[0]}, got {raw!r}")
    return value


def _vector_field(key: str, value, dim: int) -> np.ndarray:
    """Field ``key``'s ``value`` as a vector of length ``dim``, the
    scenario's dimension, which is known only once it is built."""
    x = as_point(value)
    if x.size != dim:
        raise ConfigurationError(f"field {key!r}: must have length {dim}, the "
                                 f"scenario's dimension, got {x.size}")
    return x


@dataclass
class ExperimentConfig:
    command: str
    scenario: Optional[str] = None
    scenario_params: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    def get(self, key: str, default=None):
        """The typed value of ``key``, else its table default, else
        ``default``."""
        if key in self.values:
            return self.values[key]
        value = FIELDS[key].default
        return default if value is None else value


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config; raises ConfigurationError listing
    every offending field."""
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
        raise ConfigurationError(*errors)

    command = pairs.pop("command", None)
    if command is None:
        errors.append("field 'command': required")
    elif command not in COMMANDS:
        errors.append(f"field 'command': unknown command {command!r}")
    if errors:
        raise ConfigurationError(*errors)

    cfg = ExperimentConfig(command=command, scenario=pairs.pop("scenario.name", None))
    for key, raw in pairs.items():
        if key.startswith("scenario."):     # typed by build_scenario
            cfg.scenario_params[key[len("scenario."):]] = raw
            continue
        spec = FIELDS.get(key)
        if spec is None or command not in spec.commands:
            errors.append(f"field {key!r}: unknown key for command {command!r}")
            continue
        try:
            cfg.values[key] = _field_value(key, spec, raw)
        except ConfigurationError as exc:
            errors.append(str(exc))
    if errors:
        raise ConfigurationError(*errors)
    errors = _cross_check(cfg)
    if errors:
        raise ConfigurationError(*errors)
    return cfg


def _cross_check(cfg: ExperimentConfig) -> list:
    """The rules that tie a field to the command, the algorithm kind or
    another field."""
    errors = []
    kind = cfg.get("algorithm.kind")
    needs = [(key, "") for key in _REQUIRED[cfg.command]]
    needs += [(key, f" for {kind}") for key in _REQUIRED_BY_KIND.get(kind, ())]
    if kind == "cyclic_fb" and cfg.get("algorithm.schedule") == "constant":
        needs.append(("algorithm.eta", " for a constant schedule"))
    for key, reason in needs:
        if (cfg.scenario if key == "scenario.name" else cfg.get(key)) is None:
            errors.append(f"field {key!r}: required{reason}")

    if cfg.command == "bifurcation":
        for lo, hi in (("dynamics.burn_in", "dynamics.steps"),
                       ("dynamics.eta_lo", "dynamics.eta_hi"),
                       ("dynamics.cell_lo", "dynamics.cell_hi")):
            if cfg.get(lo) >= cfg.get(hi):
                errors.append(f"field {lo!r}: must be below {hi}")
    return errors
