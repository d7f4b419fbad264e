"""Experiment configuration: a nested key-value (YAML) document mapped onto
solver inputs, with validation errors that name the offending key.

This is the one module that turns a config value into a Python value.  It
reads a config through a :class:`ReadRecorder`, which records the keys
looked up and names each section by its dotted key path (``oracle.grid``),
the path the CLI names an unread key by.  Each reader takes ``(cfg, key)``,
reads ``cfg[key]`` once and names ``key`` and the section ``cfg`` when the
value is missing or invalid; each builder takes a section, which its parent
checks is a mapping (:func:`section`).  A number is an int or a float, never
a bool or a string; a scalar must also be finite, while a list, which may
not be empty, leaves finiteness to its consumer (a functional's bounds may
be infinite, and a measure names its own non-finite entries).

A reader's ``default=`` is the one place a default lives: a reader that
applies one writes it into ``cfg[key]``, so the config a run reads ends up
holding every value the run used, which the CLI's manifest echoes.  A key
whose absence means "derived" or "none" is read by :func:`optional`, which
drops an explicit null, so the two spellings echo alike.

Scalar functions (terminal data, test functions, outer nonlinearities) come
from a small named registry so that configs stay declarative and runs stay
reproducible.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

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
    "section",
    "optional",
    "invalid",
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
    ``get`` or ``in``), present or not.  Each mapping it holds, when it is
    built or stored, is wrapped as a section named by its dotted key path
    (:meth:`path`), which records its own reads.  A recorder built without
    a ``name`` is a config's root, named ``config`` and not in the paths."""

    def __init__(self, mapping=(), name=None):
        super().__init__(mapping)
        self.read = set()
        self.name = name or "config"
        self._prefix = f"{name}." if name else ""
        for key, value in self.items():
            self[key] = value

    def path(self, key) -> str:
        """The dotted key path of ``key`` in this mapping (``oracle.grid``)."""
        return self._prefix + key

    def __setitem__(self, key, value):
        if isinstance(value, dict) and not isinstance(value, ReadRecorder):
            value = ReadRecorder(value, self.path(key))
        super().__setitem__(key, value)

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
        """The paths of the keys present that nothing has looked up, here
        and inside each section whose key was looked up; a section that
        nothing looked up is one unread key."""
        paths = set()
        for key, value in self.items():
            if key not in self.read:
                paths.add(self.path(key))
            elif isinstance(value, ReadRecorder):
                paths |= value.unread()
        return paths


def load_config(path) -> dict:
    """The mapping in the YAML file at ``path``; a parse error is a
    ``ConfigError`` with the parser's message.  ``yaml`` is imported here, so
    a run from a dict never loads it."""
    import yaml

    with open(path) as fh:
        try:
            cfg = yaml.safe_load(fh)
        except yaml.YAMLError as err:
            raise ConfigError(str(err)) from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def require(cfg: ReadRecorder, key: str):
    if key not in cfg or cfg[key] is None:
        raise ConfigError(f"missing required key '{key}' in {cfg.name}")
    return cfg[key]


def section(cfg: ReadRecorder, key: str) -> ReadRecorder:
    """``cfg[key]``, a mapping, named by its dotted key path."""
    value = require(cfg, key)
    if not isinstance(value, ReadRecorder):
        raise ConfigError(f"{cfg.path(key)} must be a mapping, got {value!r}")
    return value


def optional(cfg: ReadRecorder, key: str):
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


def invalid(cfg: ReadRecorder, key: str, rule: str, got) -> ConfigError:
    """The error for a value of ``cfg[key]`` that breaks ``rule``."""
    return ConfigError(f"key '{key}' in {cfg.name} must {rule}, got {got}")


def _read(cfg, key, default, what, valid):
    """``cfg[key]``, checked by ``valid`` (``what`` describes a valid value);
    an absent or null key is first set to ``default`` when one is given."""
    if default is not _REQUIRED and cfg.get(key) is None:
        cfg[key] = default
    value = require(cfg, key)
    if not valid(value):
        raise invalid(cfg, key, f"be {what}", repr(value))
    return value


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value):
    return _is_number(value) and math.isfinite(value)


def _is_integer(value):
    return _is_finite(value) and float(value).is_integer()


def _read_list(cfg, key, what, item, default=_REQUIRED):
    """``cfg[key]``, a non-empty list of items that pass ``item`` (``what``)."""
    return _read(cfg, key, default, f"a non-empty list of {what}",
                 lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(item(x) for x in v))


def choice(cfg: ReadRecorder, key: str, choices, *, default=_REQUIRED):
    """``cfg[key]``, one of ``choices``."""
    return _read(cfg, key, default, f"one of {sorted(choices)}",
                 lambda v: isinstance(v, str) and v in choices)


def boolean(cfg: ReadRecorder, key: str, *, default=_REQUIRED) -> bool:
    return _read(cfg, key, default, "true or false", lambda v: isinstance(v, bool))


def number(cfg: ReadRecorder, key: str, *, default=_REQUIRED) -> float:
    """``cfg[key]`` as a finite float."""
    return float(_read(cfg, key, default, "a finite number", _is_finite))


def positive_number(cfg: ReadRecorder, key: str, *, default=_REQUIRED) -> float:
    """``cfg[key]`` as a finite float > 0."""
    return float(_read(cfg, key, default, "a positive number",
                       lambda v: _is_finite(v) and v > 0))


def number_at_least(cfg: ReadRecorder, key: str, minimum: float, *,
                    default=_REQUIRED) -> float:
    """``cfg[key]`` as a finite float no smaller than ``minimum``."""
    return float(_read(cfg, key, default, f"a finite number >= {minimum:g}",
                       lambda v: _is_finite(v) and v >= minimum))


def integer_at_least(cfg: ReadRecorder, key: str, minimum: int, *, default=_REQUIRED) -> int:
    """``cfg[key]`` as an integer no smaller than ``minimum``; an integral float
    passes, a fraction or a boolean does not."""
    return int(_read(cfg, key, default, f"an integer >= {minimum}",
                     lambda v: _is_integer(v) and v >= minimum))


def number_list(cfg: ReadRecorder, key: str) -> list:
    """``cfg[key]`` as a list of floats."""
    return [float(v) for v in _read_list(cfg, key, "numbers", _is_number)]


def positive_list(cfg: ReadRecorder, key: str, *, allow_zero: bool = False,
                  default=_REQUIRED) -> list:
    """``cfg[key]`` as a list of finite floats > 0 (>= 0 with ``allow_zero``)."""
    return [float(v) for v in _read_list(
        cfg, key, f"finite numbers {'>=' if allow_zero else '>'} 0",
        lambda x: _is_finite(x) and (x > 0 or allow_zero and x == 0), default)]


def integer_list(cfg: ReadRecorder, key: str, minimum: int, *, default=_REQUIRED) -> list:
    """``cfg[key]`` as a list of integers no smaller than ``minimum``."""
    return [int(v) for v in _read_list(cfg, key, f"integers >= {minimum}",
                                       lambda x: _is_integer(x) and x >= minimum, default)]


def number_pair(cfg: ReadRecorder, key: str) -> tuple:
    """``cfg[key]`` as two floats (lo, hi) with lo <= hi."""
    values = number_list(cfg, key)
    if len(values) != 2 or not values[0] <= values[1]:
        raise invalid(cfg, key, "be a list of two numbers lo <= hi", repr(cfg[key]))
    return tuple(values)


def two_column_csv(cfg: ReadRecorder, key: str) -> tuple:
    """The first two columns of the CSV file at path ``cfg[key]``, as two
    lists of floats.  ``#`` starts a comment; blank lines are skipped."""
    path = _read(cfg, key, _REQUIRED, "a file path", lambda v: isinstance(v, str))
    where = f"{cfg.path(key)} {path}"
    first, second = [], []
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        raise ConfigError(f"{cfg.path(key)} cannot be read: {err}") from err
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
# Section builders: each takes a section, which names itself in its errors
# ---------------------------------------------------------------------------

def _construct(spec, make, **params):
    """``make(**params)``; a plain ValueError of its own checks names the section."""
    try:
        return make(**params)
    except ValueError as err:
        raise ConfigError(f"{spec.name} section invalid: {err}") from err


def build_generator(spec: ReadRecorder):
    variant = require(spec, "variant")
    if variant == "quadratic":
        make, params = gen.Quadratic, {"c": number(spec, "c", default=1.0)}
    elif variant == "power":
        make, params = gen.PowerLaw, {"r": number(spec, "r"), "a": number(spec, "a", default=1.0)}
    elif variant == "indicator":
        make, params = gen.IndicatorInterval, {"K": number(spec, "K")}
    elif variant == "modulated":
        make, params = gen.TimeModulated, {"base": build_generator(section(spec, "base")),
                                           "weights": tuple(number_list(spec, "weights"))}
    elif variant == "tabulated":
        q, g = (two_column_csv(spec, "csv") if "csv" in spec
                else (number_list(spec, "q"), number_list(spec, "g")))
        make, params = gen.Tabulated, {"q": tuple(q), "g": tuple(g)}
    else:
        raise ConfigError(f"unknown generator variant {variant!r} in {spec.name}")
    return _construct(spec, make, **params)


def time_independent_generator(cfg: ReadRecorder, key: str):
    """``cfg[key]`` built as a drift cost that does not depend on time."""
    g = build_generator(section(cfg, key))
    if gen.is_time_dependent(g):
        raise invalid(cfg, key, "be a time-independent cost", "the time-modulated variant")
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


def build_scalar_function(cfg: ReadRecorder, key: str, *, default=_REQUIRED):
    """``cfg[key]``, a function given by its name or by a mapping with its
    ``kind`` and parameters; a name is written back as that mapping, so the
    two spellings of one function read back alike."""
    spec = _read(cfg, key, default, "a function name or a mapping with a 'kind'",
                 lambda v: isinstance(v, (str, dict)))
    if isinstance(spec, str):
        cfg[key] = {"kind": spec}
        spec = cfg[key]
    params, fn = _FUNCTIONS[choice(spec, "kind", _FUNCTIONS)]
    values = {name: read(spec, name, default=fallback)
              for name, (read, fallback) in params.items()}
    return lambda x: fn(np.asarray(x, dtype=float), **values)


def build_functional(spec: ReadRecorder):
    kind = require(spec, "kind")
    bounds = (number_pair(spec, "bounds") if optional(spec, "bounds") is not None
              else (-math.inf, math.inf))
    if kind == "terminal":
        return TerminalValue(f=build_scalar_function(spec, "f"), bounds=bounds)
    if kind == "running_max":
        tr = build_scalar_function(spec, "transform", default="clip_below_one")
        return RunningMax(transform=tr, bounds=bounds)
    if kind == "time_integral":
        h = build_scalar_function(spec, "h")
        return TimeIntegral(h=lambda t, x: h(x), bounds=bounds)
    if kind == "finite_marginals":
        f = build_scalar_function(spec, "f")
        times = tuple(float(t) for t in _read_list(spec, "times", "numbers in [0, 1]",
                                                   lambda t: _is_number(t) and 0 <= t <= 1))
        return FiniteMarginals(times=times,
                               f=lambda *vals: f(np.mean(np.stack(vals, axis=-1), axis=-1)),
                               bounds=bounds)
    raise ConfigError(f"unknown functional kind '{kind}' in {spec.name}")


def build_grid(spec: ReadRecorder):
    x_min, x_max = number(spec, "x_min"), number(spec, "x_max")
    nx = integer_at_least(spec, "nx", 3)
    nt = integer_at_least(spec, "nt", 1, default=1)
    boundary = choice(spec, "boundary", ("clampToTerminal", "oneSidedExtrapolation"),
                      default="clampToTerminal")
    grid = _construct(spec, GridSpec, x_min=x_min, x_max=x_max, nx=nx, nt=nt, boundary=boundary)
    # every route reads the solution at x = 0, which a clamped end node or a
    # point off the grid would answer with the terminal datum
    if not x_min < 0.0 < x_max:
        raise invalid(spec, "x_min" if x_min >= 0.0 else "x_max",
                      "leave the origin inside the grid (x_min < 0 < x_max)",
                      f"[{x_min:g}, {x_max:g}]")
    return grid


def build_measure(spec: ReadRecorder):
    from_csv = "csv" in spec
    support, weights = (two_column_csv(spec, "csv") if from_csv
                        else (number_list(spec, "atoms"), number_list(spec, "weights")))
    try:
        return DiscreteMeasure(support=tuple(support), weights=tuple(weights))
    except ValueError as err:
        # only the finiteness check concerns the atoms; the rest are weight rules
        key = "csv" if from_csv else "weights" if np.all(np.isfinite(support)) else "atoms"
        raise ConfigError(f"{spec.path(key)}: {err}") from err
