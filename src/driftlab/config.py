"""Experiment configuration: a nested key-value (YAML) document mapped onto
solver inputs, with validation errors that name the offending key.

Scalar functions (terminal data, test functions, outer nonlinearities) come
from a small named registry so that configs stay declarative and runs stay
reproducible.
"""

from __future__ import annotations

import math

import numpy as np
import yaml

from . import generators as gen
from .pde import GridSpec
from .schrodinger import DiscreteMeasure
from .variational import (
    FiniteMarginals,
    RunningMax,
    TerminalValue,
    TimeIntegral,
)

__all__ = [
    "ConfigError",
    "load_config",
    "require",
    "integer_at_least",
    "positive_number",
    "build_generator",
    "build_scalar_function",
    "build_functional",
    "build_grid",
    "build_measure",
    "EXPERIMENT_KINDS",
]

EXPERIMENT_KINDS = (
    "pde-sweep",
    "schilder",
    "sanov-iterate",
    "schrodinger-sweep",
    "mc-estimate",
    "bsde-lsmc",
    "ti-check",
    "bridge-check",
)


class ConfigError(ValueError):
    """Invalid or incomplete configuration; the message names the key."""


def load_config(path) -> dict:
    with open(path) as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def require(cfg: dict, key: str, context: str = "config"):
    if key not in cfg or cfg[key] is None:
        raise ConfigError(f"missing required key '{key}' in {context}")
    return cfg[key]


def integer_at_least(cfg: dict, key: str, minimum: int, context: str = "config") -> int:
    """``cfg[key]`` as an integer no smaller than ``minimum``; an integral float
    passes, a fraction or a boolean does not."""
    value = cfg[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"key '{key}' in {context} must be an integer >= {minimum}, "
                          f"got {cfg[key]!r}")
    return value


def positive_number(value, key: str, context: str = "config") -> float:
    """``value`` as a finite float > 0; ``key`` names it in the error."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value <= 0):
        raise ConfigError(f"key '{key}' in {context} must be a positive number, got {value!r}")
    return float(value)


def build_generator(section: dict, context="generator"):
    if not isinstance(section, dict):
        raise ConfigError(f"{context} section must be a mapping with a 'variant' key, "
                          f"got {section!r}")
    if section.get("variant") == "modulated" and not isinstance(section.get("base"), dict):
        raise ConfigError(f"{context}.base must be a mapping with a 'variant' key")
    try:
        return gen.spec_from_config(section)
    except KeyError as err:
        raise ConfigError(f"{context} section misses key {err}") from err
    except ValueError as err:
        raise ConfigError(f"{context} section invalid: {err}") from err


_FUNCTIONS = {
    "constant": lambda p: (lambda x: np.full(np.shape(x), float(p.get("c", 0.0)))),
    "linear": lambda p: (lambda x: float(p.get("a", 1.0)) * np.asarray(x, dtype=float)),
    "clipped_linear": lambda p: (
        lambda x: np.clip(
            float(p.get("a", 1.0)) * np.asarray(x, dtype=float),
            float(p.get("lo", -1.0)),
            float(p.get("hi", 1.0)),
        )
    ),
    "gaussian_bump": lambda p: (
        lambda x: np.exp(
            -(((np.asarray(x, dtype=float) - float(p.get("center", 0.0)))
               / float(p.get("width", 1.0))) ** 2)
        )
    ),
    "tanh": lambda p: (lambda x: np.tanh(np.asarray(x, dtype=float))),
    "identity": lambda p: (lambda x: np.asarray(x, dtype=float)),
    "square": lambda p: (lambda x: np.asarray(x, dtype=float) ** 2),
    "clip_below_one": lambda p: (lambda x: np.minimum(1.0, np.asarray(x, dtype=float))),
    "negative_square": lambda p: (lambda x: -(np.asarray(x, dtype=float) ** 2)),
}


def build_scalar_function(section, context="function"):
    if isinstance(section, str):
        section = {"kind": section}
    kind = require(section, "kind", context)
    if kind not in _FUNCTIONS:
        raise ConfigError(
            f"unknown function kind '{kind}' in {context}; choices: {sorted(_FUNCTIONS)}"
        )
    return _FUNCTIONS[kind](section)


def _bounds_of(section, default=(-math.inf, math.inf)):
    b = section.get("bounds")
    if b is None:
        return default
    return (float(b[0]), float(b[1]))


def build_functional(section: dict, context="functional"):
    kind = require(section, "kind", context)
    bounds = _bounds_of(section)
    if kind == "terminal":
        f = build_scalar_function(require(section, "f", context), f"{context}.f")
        return TerminalValue(f=f, bounds=bounds)
    if kind == "running_max":
        tr = build_scalar_function(
            section.get("transform", "clip_below_one"), f"{context}.transform"
        )
        return RunningMax(transform=tr, bounds=bounds)
    if kind == "time_integral":
        h = build_scalar_function(require(section, "h", context), f"{context}.h")
        return TimeIntegral(h=lambda t, x: h(x), bounds=bounds)
    if kind == "finite_marginals":
        f = build_scalar_function(require(section, "f", context), f"{context}.f")
        times = tuple(float(t) for t in require(section, "times", context))
        return FiniteMarginals(times=times, f=lambda *vals: f(np.mean(vals, axis=0)),
                               bounds=bounds)
    raise ConfigError(f"unknown functional kind '{kind}' in {context}")


def build_grid(section: dict, context="grid"):
    x_min = float(require(section, "x_min", context))
    x_max = float(require(section, "x_max", context))
    nx = int(require(section, "nx", context))
    try:
        return GridSpec(x_min=x_min, x_max=x_max, nx=nx, nt=int(section.get("nt", 1)),
                        boundary=section.get("boundary", "clampToTerminal"))
    except ValueError as err:
        raise ConfigError(f"{context} section invalid: {err}") from err


def build_measure(section: dict, context="measure"):
    if "csv" in section:
        try:
            data = np.loadtxt(section["csv"], delimiter=",", ndmin=2)
        except OSError as err:
            raise ConfigError(f"{context}.csv cannot be read: {err}") from err
        if data.shape[1] < 2:
            raise ConfigError(f"{context}.csv needs two columns (atom, weight)")
        try:
            return DiscreteMeasure.from_arrays(data[:, 0], data[:, 1], renormalize=False)
        except ValueError as err:
            raise ConfigError(f"{context}.csv: {err}") from err
    support = tuple(float(a) for a in require(section, "atoms", context))
    weights = tuple(float(w) for w in require(section, "weights", context))
    try:
        return DiscreteMeasure(support=support, weights=weights)
    except ValueError as err:
        # only the finiteness check concerns the atoms; the rest are weight rules
        key = "weights" if np.all(np.isfinite(support)) else "atoms"
        raise ConfigError(f"{context}.{key}: {err}") from err
