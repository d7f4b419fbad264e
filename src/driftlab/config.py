"""Experiment configuration: a nested key-value (YAML) document mapped onto
solver inputs, with validation errors that name the offending key.

This is the one module that turns a config value into a Python value.  Each
reader takes ``(cfg, key, context)``, reads ``cfg[key]`` once and names
``key`` and its section ``context`` when the value is missing or invalid.
A number is an int or a float, never a bool or a string; a scalar must also
be finite, while a list, which may not be empty, leaves finiteness to its
consumer (a functional's bounds may be infinite, and a measure names its own
non-finite entries).

A reader's ``default=`` is the one place a default lives: a reader that
applies one writes it into ``cfg[key]``, so the config a run reads ends up
holding every value the run used, which the CLI's manifest echoes.  A key
whose absence means "derived" or "none" is read by :func:`optional`, which
drops an explicit null, so the two spellings echo alike.  The CLI reads a
config through a :class:`ReadRecorder`, which remembers the keys looked up
at the top level and inside every section, and rejects any key that no
reader read before it solves anything.

Scalar functions (terminal data, test functions, outer nonlinearities) come
from a small named registry so that configs stay declarative and runs stay
reproducible.
"""

from __future__ import annotations

import math
import numbers

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
    "ReadRecorder",
    "load_config",
    "require",
    "optional",
    "choice",
    "boolean",
    "number",
    "positive_number",
    "number_at_least",
    "integer_at_least",
    "number_list",
    "positive_list",
    "integer_list",
    "number_pair",
    "two_column_csv",
    "build_generator",
    "time_independent_generator",
    "build_scalar_function",
    "build_functional",
    "build_grid",
    "build_measure",
]


class ConfigError(ValueError):
    """Invalid or incomplete configuration; the message names the key."""


class ReadRecorder(dict):
    """A config mapping that records every key looked up in it (by index,
    ``get`` or ``in``), whether the key is present or not.  Each mapping it
    holds is wrapped as a ReadRecorder too, once, when it is built, so the
    sections record their own reads."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = set()
        for key, value in self.items():
            if isinstance(value, dict):
                self[key] = ReadRecorder(value)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def unread(self) -> set:
        """The keys present that nothing has looked up, and by dotted path
        (``grid.n_t``) those inside each section whose key was looked up; a
        section that nothing looked up is one unread key."""
        paths = set()
        for key, value in self.items():
            if key not in self.read:
                paths.add(key)
            elif isinstance(value, ReadRecorder):
                paths |= {f"{key}.{inner}" for inner in value.unread()}
        return paths


def load_config(path) -> dict:
    with open(path) as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def require(cfg: dict, key: str, context: str = "config"):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{context} must be a mapping, got {cfg!r}")
    if key not in cfg or cfg[key] is None:
        raise ConfigError(f"missing required key '{key}' in {context}")
    return cfg[key]


def optional(cfg: dict, key: str):
    """``cfg[key]``, or None when the key is absent or null; a null is
    removed, so a config that spells out "none" reads like one without it."""
    if cfg.get(key) is None:
        cfg.pop(key, None)
        return None
    return cfg[key]


# ---------------------------------------------------------------------------
# Typed readers
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _read(cfg, key, context, default, what, valid):
    """``cfg[key]``, checked by ``valid`` (``what`` describes a valid value);
    an absent or null key is first set to ``default`` when one is given."""
    if default is not _REQUIRED and isinstance(cfg, dict) and cfg.get(key) is None:
        cfg[key] = default
    value = require(cfg, key, context)
    if not valid(value):
        raise ConfigError(f"key '{key}' in {context} must be {what}, got {value!r}")
    return value


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value):
    return _is_number(value) and math.isfinite(value)


def _is_integer(value):
    return _is_finite(value) and float(value).is_integer()


def _read_list(cfg, key, context, what, item, default=_REQUIRED):
    """``cfg[key]``, a non-empty list of items that pass ``item``; ``what``
    describes an item."""
    return _read(cfg, key, context, default, f"a non-empty list of {what}",
                 lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(item(x) for x in v))


def choice(cfg: dict, key: str, choices, context: str = "config", *, default=_REQUIRED):
    """``cfg[key]``, one of ``choices``."""
    return _read(cfg, key, context, default, f"one of {sorted(choices)}",
                 lambda v: isinstance(v, str) and v in choices)


def boolean(cfg: dict, key: str, context: str = "config", *, default=_REQUIRED) -> bool:
    return _read(cfg, key, context, default, "true or false", lambda v: isinstance(v, bool))


def number(cfg: dict, key: str, context: str = "config", *, default=_REQUIRED) -> float:
    """``cfg[key]`` as a finite float."""
    return float(_read(cfg, key, context, default, "a finite number", _is_finite))


def positive_number(cfg: dict, key: str, context: str = "config", *,
                    default=_REQUIRED) -> float:
    """``cfg[key]`` as a finite float > 0."""
    return float(_read(cfg, key, context, default, "a positive number",
                       lambda v: _is_finite(v) and v > 0))


def number_at_least(cfg: dict, key: str, minimum: float, context: str = "config", *,
                    default=_REQUIRED) -> float:
    """``cfg[key]`` as a finite float no smaller than ``minimum``."""
    return float(_read(cfg, key, context, default, f"a finite number >= {minimum:g}",
                       lambda v: _is_finite(v) and v >= minimum))


def integer_at_least(cfg: dict, key: str, minimum: int, context: str = "config", *,
                     default=_REQUIRED) -> int:
    """``cfg[key]`` as an integer no smaller than ``minimum``; an integral float
    passes, a fraction or a boolean does not."""
    return int(_read(cfg, key, context, default, f"an integer >= {minimum}",
                     lambda v: _is_integer(v) and v >= minimum))


def number_list(cfg: dict, key: str, context: str = "config") -> list:
    """``cfg[key]`` as a list of floats."""
    return [float(v) for v in _read_list(cfg, key, context, "numbers", _is_number)]


def positive_list(cfg: dict, key: str, context: str = "config", *,
                  allow_zero: bool = False, default=_REQUIRED) -> list:
    """``cfg[key]`` as a list of finite floats > 0 (>= 0 with ``allow_zero``)."""
    return [float(v) for v in _read_list(
        cfg, key, context, f"finite numbers {'>=' if allow_zero else '>'} 0",
        lambda x: _is_finite(x) and (x > 0 or allow_zero and x == 0), default)]


def integer_list(cfg: dict, key: str, minimum: int, context: str = "config", *,
                 default=_REQUIRED) -> list:
    """``cfg[key]`` as a list of integers no smaller than ``minimum``."""
    return [int(v) for v in _read_list(cfg, key, context, f"integers >= {minimum}",
                                       lambda x: _is_integer(x) and x >= minimum, default)]


def number_pair(cfg: dict, key: str, context: str = "config") -> tuple:
    """``cfg[key]`` as two floats (lo, hi) with lo <= hi."""
    values = number_list(cfg, key, context)
    if len(values) != 2 or not values[0] <= values[1]:
        raise ConfigError(f"key '{key}' in {context} must be a list of two numbers "
                          f"lo <= hi, got {cfg[key]!r}")
    return tuple(values)


def two_column_csv(cfg: dict, key: str, context: str = "config") -> tuple:
    """The first two columns of the CSV file at path ``cfg[key]``, as two
    lists of floats.  ``#`` starts a comment; blank lines are skipped."""
    path = _read(cfg, key, context, _REQUIRED, "a file path", lambda v: isinstance(v, str))
    where = f"{context}.{key} {path}"
    first, second = [], []
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        raise ConfigError(f"{context}.{key} cannot be read: {err}") from err
    for line_no, line in enumerate(lines, start=1):
        data = line.split("#", 1)[0]
        if not data.strip():
            continue
        cells = data.split(",")
        if len(cells) < 2:
            raise ConfigError(f"{where}: line {line_no} needs two columns")
        try:
            a, b = float(cells[0]), float(cells[1])
        except ValueError:
            raise ConfigError(f"{where}: line {line_no} needs two numbers, "
                              f"got {line!r}") from None
        first.append(a)
        second.append(b)
    return first, second


# ---------------------------------------------------------------------------
# Section builders
# ---------------------------------------------------------------------------

def _variant(section, context):
    variant = require(section, "variant", context)
    if variant == "quadratic":
        return gen.Quadratic(c=number(section, "c", context, default=1.0))
    if variant == "power":
        return gen.PowerLaw(r=number(section, "r", context),
                            a=number(section, "a", context, default=1.0))
    if variant == "indicator":
        return gen.IndicatorInterval(K=number(section, "K", context))
    if variant == "modulated":
        return gen.TimeModulated(base=build_generator(section.get("base"), f"{context}.base"),
                                 weights=tuple(number_list(section, "weights", context)))
    if variant == "tabulated":
        if "csv" in section:
            q, g = two_column_csv(section, "csv", context)
        else:
            q, g = number_list(section, "q", context), number_list(section, "g", context)
        return gen.Tabulated(q=tuple(q), g=tuple(g))
    raise ConfigError(f"unknown generator variant {variant!r} in {context}")


def build_generator(section: dict, context="generator"):
    if not isinstance(section, dict):
        raise ConfigError(f"{context} must be a mapping with a 'variant' key, "
                          f"got {section!r}")
    try:
        return _variant(section, context)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{context} section invalid: {err}") from err


def time_independent_generator(cfg: dict, key: str, context: str = "config"):
    """``cfg[key]`` built as a drift cost that does not depend on time."""
    g = build_generator(require(cfg, key, context), key)
    if gen.is_time_dependent(g):
        raise ConfigError(f"key '{key}' in {context} must be a time-independent cost, "
                          f"got the time-modulated variant")
    return g


def _gaussian_bump(x, center, width):
    z = (x - center) / width
    return np.exp(-(z * z))


# kind -> ({parameter: (reader, default)}, function of a float array and the
# parameters); a function's parameters are read once, when it is built.
# Squares are written z * z: a 0-d ``z ** 2`` goes through libm pow, which
# can differ in the last bit from the array loop, so a point evaluated alone
# would not match the same point in a batch
_FUNCTIONS = {
    "constant": ({"c": (number, 0.0)}, lambda x, c: np.full(np.shape(x), c)),
    "linear": ({"a": (number, 1.0)}, lambda x, a: a * x),
    "clipped_linear": ({"a": (number, 1.0), "lo": (number, -1.0), "hi": (number, 1.0)},
                       lambda x, a, lo, hi: np.clip(a * x, lo, hi)),
    "gaussian_bump": ({"center": (number, 0.0), "width": (positive_number, 1.0)},
                      _gaussian_bump),
    "tanh": ({}, np.tanh),
    "identity": ({}, lambda x: x),
    "square": ({}, lambda x: x * x),
    "clip_below_one": ({}, lambda x: np.minimum(1.0, x)),
    "negative_square": ({}, lambda x: -(x * x)),
}


def build_scalar_function(cfg: dict, key: str, context: str = "config", *, default=_REQUIRED):
    """``cfg[key]``, a function given by its name or by a mapping with its
    ``kind`` and parameters; a name is written back as that mapping, so the
    two spellings of one function read back alike."""
    section = _read(cfg, key, context, default, "a function name or a mapping with a 'kind'",
                    lambda v: isinstance(v, (str, dict)))
    if isinstance(section, str):
        section = cfg[key] = {"kind": section}
    context = f"{context}.{key}"
    params, fn = _FUNCTIONS[choice(section, "kind", _FUNCTIONS, context)]
    values = {name: read(section, name, context, default=fallback)
              for name, (read, fallback) in params.items()}
    return lambda x: fn(np.asarray(x, dtype=float), **values)


def _bounds_of(section, context):
    if optional(section, "bounds") is None:
        return (-math.inf, math.inf)
    return number_pair(section, "bounds", context)


def build_functional(section: dict, context="functional"):
    kind = require(section, "kind", context)
    bounds = _bounds_of(section, context)
    if kind == "terminal":
        return TerminalValue(f=build_scalar_function(section, "f", context), bounds=bounds)
    if kind == "running_max":
        tr = build_scalar_function(section, "transform", context, default="clip_below_one")
        return RunningMax(transform=tr, bounds=bounds)
    if kind == "time_integral":
        h = build_scalar_function(section, "h", context)
        return TimeIntegral(h=lambda t, x: h(x), bounds=bounds)
    if kind == "finite_marginals":
        f = build_scalar_function(section, "f", context)
        times = tuple(float(t) for t in _read_list(section, "times", context,
                                                   "numbers in [0, 1]",
                                                   lambda t: _is_number(t) and 0 <= t <= 1))
        return FiniteMarginals(times=times,
                               f=lambda *vals: f(np.mean(np.stack(vals, axis=-1), axis=-1)),
                               bounds=bounds)
    raise ConfigError(f"unknown functional kind '{kind}' in {context}")


def build_grid(section: dict, context="grid"):
    x_min = number(section, "x_min", context)
    x_max = number(section, "x_max", context)
    nx = integer_at_least(section, "nx", 3, context)
    nt = integer_at_least(section, "nt", 1, context, default=1)
    boundary = choice(section, "boundary", ("clampToTerminal", "oneSidedExtrapolation"),
                      context, default="clampToTerminal")
    try:
        grid = GridSpec(x_min=x_min, x_max=x_max, nx=nx, nt=nt, boundary=boundary)
    except ValueError as err:
        raise ConfigError(f"{context} section invalid: {err}") from err
    # every route reads the solution at x = 0, which a clamped end node or a
    # point off the grid would answer with the terminal datum
    if not x_min < 0.0 < x_max:
        key = "x_min" if x_min >= 0.0 else "x_max"
        raise ConfigError(f"key '{key}' in {context} must leave the origin inside the grid "
                          f"(x_min < 0 < x_max), got [{x_min:g}, {x_max:g}]")
    return grid


def build_measure(section: dict, context="measure"):
    from_csv = isinstance(section, dict) and "csv" in section
    if from_csv:
        support, weights = two_column_csv(section, "csv", context)
    else:
        support = number_list(section, "atoms", context)
        weights = number_list(section, "weights", context)
    try:
        return DiscreteMeasure(support=tuple(support), weights=tuple(weights))
    except ValueError as err:
        # only the finiteness check concerns the atoms; the rest are weight rules
        key = "csv" if from_csv else "weights" if np.all(np.isfinite(support)) else "atoms"
        raise ConfigError(f"{context}.{key}: {err}") from err
