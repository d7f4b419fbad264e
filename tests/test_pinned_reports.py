"""Pinned report bodies: small configs that cover every CLI route.

Across the configs every cost variant appears, including an interval
indicator and time-modulated costs on PDE routes, and ``ti-check`` runs on
each variant.  ``schrodinger-sweep`` is pinned on both transport routes: the
drift-field solver and the quadratic bridge.  ``bsde-lsmc`` is pinned on
both regression bases, and ``mc-estimate`` on all three estimators.  Each
run's ``report.csv`` must equal, byte for byte, the body stored under
``tests/pinned_reports/``.  A change that moves a number on
purpose re-records the bodies and says so.  The same configs, each with a
misspelt key in one of its sections, must exit 2 before any solver runs.
"""

import json
from pathlib import Path

import pytest
import yaml

from driftlab.cli import main

PINNED = Path(__file__).parent / "pinned_reports"

_Q = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
TABULATED = {"variant": "tabulated", "q": _Q, "g": [0.5 * q * q + 0.1 * abs(q) for q in _Q]}
QUADRATIC = {"variant": "quadratic", "c": 1.3}
POWER = {"variant": "power", "r": 1.5, "a": 0.8}
INDICATOR = {"variant": "indicator", "K": 1.5}


def modulated(base, weights=(1.0, 2.0, 1.5)):
    return {"variant": "modulated", "base": base, "weights": list(weights)}


BUMP = {"kind": "gaussian_bump", "center": 1.0}
TERMINAL_FUNCTIONAL = {"kind": "terminal", "f": BUMP, "bounds": [0.0, 1.0]}
SMALL_GRID = {"x_min": -4.0, "x_max": 4.0, "nx": 41}

CONFIGS = {
    "pde-sweep-indicator": {
        "kind": "pde-sweep", "generator": INDICATOR, "terminal": BUMP,
        "grid": SMALL_GRID, "n_list": [1, 4], "y_step": 1e-3,
    },
    "pde-sweep-tabulated": {
        "kind": "pde-sweep", "generator": TABULATED, "terminal": BUMP,
        "grid": SMALL_GRID, "n_list": [2], "y_step": 1e-3,
    },
    "sanov-iterate-modulated-power": {
        "kind": "sanov-iterate", "generator": modulated(POWER),
        "phi": "tanh", "Phi": "negative_square", "phi_bounds": [-1.0, 1.0],
        "grid": {"x_min": -4.0, "x_max": 4.0, "nx": 33},
        "n_list": [1, 2], "lambda_points": 31, "s_points": 17,
    },
    "mc-estimate-girsanov-modulated": {
        "kind": "mc-estimate", "estimator": "girsanov", "seed": 7,
        "generator": modulated(QUADRATIC),
        "control": {"kind": "pull_toward", "center": 1.0, "bound": 1.2},
        "functional": TERMINAL_FUNCTIONAL, "paths": 2000, "steps": 8,
        "oracle": {"generator": modulated(INDICATOR), "terminal": BUMP,
                   "grid": SMALL_GRID, "viscosity": 1.0},
    },
    "mc-estimate-oracle-modulated-tabulated": {
        "kind": "mc-estimate", "estimator": "log-mean-exp", "seed": 8,
        "functional": TERMINAL_FUNCTIONAL, "paths": 2000, "steps": 4,
        "oracle": {"generator": modulated(TABULATED), "terminal": BUMP,
                   "grid": SMALL_GRID, "viscosity": 1.0},
    },
    "bsde-lsmc-power": {
        "kind": "bsde-lsmc", "generator": POWER, "functional": TERMINAL_FUNCTIONAL,
        "seed": 5, "n_list": [1, 4], "steps": 8, "paths": 2000, "basis_size": 9,
    },
    "bsde-lsmc-modulated-quadratic": {
        "kind": "bsde-lsmc", "generator": modulated(QUADRATIC),
        "functional": TERMINAL_FUNCTIONAL,
        "seed": 6, "n_list": [2], "steps": 8, "paths": 2000, "basis_size": 9,
    },
    # the two-statistic (polynomial) basis
    "bsde-lsmc-running-max": {
        "kind": "bsde-lsmc", "generator": QUADRATIC,
        "functional": {"kind": "running_max", "bounds": [0.0, 1.0]},
        "seed": 7, "n_list": [1, 4], "steps": 16, "paths": 2000,
    },
    "mc-estimate-cramer": {
        "kind": "mc-estimate", "estimator": "cramer", "seed": 9, "n": 4,
        "functional": TERMINAL_FUNCTIONAL, "paths": 2000, "steps": 16,
    },
    "sanov-iterate-quadratic": {
        "kind": "sanov-iterate", "generator": QUADRATIC,
        "phi": "tanh", "Phi": "square", "phi_bounds": [-1.0, 1.0],
        "grid": {"x_min": -4.0, "x_max": 4.0, "nx": 33},
        "n_list": [1, 2], "lambda_points": 31, "s_points": 17,
    },
    # two path blocks, so the second block's seeding is pinned too
    "bridge-check": {
        "kind": "bridge-check", "seed": 3, "paths": 20_000, "steps": 16,
        "r": 1.5, "epsilon": 0.01,
    },
    "schilder-tabulated": {
        "kind": "schilder", "generator": TABULATED, "functional": TERMINAL_FUNCTIONAL,
        "seed": 3, "knots": 5, "restarts": 2, "max_iter": 100,
    },
    "schilder-modulated-indicator": {
        "kind": "schilder", "generator": modulated(INDICATOR),
        "functional": TERMINAL_FUNCTIONAL,
        "seed": 4, "knots": 5, "restarts": 2, "max_iter": 100,
    },
    "schrodinger-sweep-indicator": {
        "kind": "schrodinger-sweep", "generator": {"variant": "indicator", "K": 3.0},
        "mu": {"atoms": [0.0], "weights": [1.0]},
        "nu": {"atoms": [0.5, 1.0], "weights": [0.5, 0.5]},
        "eps_list": [0.3], "n_time": 8,
    },
    # the drift-field solver's L-BFGS path on a raw target, two noise levels
    "schrodinger-sweep-power-raw": {
        "kind": "schrodinger-sweep", "generator": POWER,
        "mu": {"atoms": [0.0], "weights": [1.0]},
        "nu": {"atoms": [0.5, 1.0], "weights": [0.5, 0.5]},
        "eps_list": [0.3, 0.1], "mollified": False, "n_time": 4,
    },
    # the quadratic (semi-dual Newton) route, 5 steps at each noise level
    "schrodinger-sweep-quadratic": {
        "kind": "schrodinger-sweep", "generator": QUADRATIC,
        "mu": {"atoms": [0.0, 2.0], "weights": [0.5, 0.5]},
        "nu": {"atoms": [1.0, 2.5], "weights": [0.25, 0.75]},
        "eps_list": [0.3, 0.1],
    },
}
for name, generator in {
    "quadratic": QUADRATIC, "power": POWER, "indicator": INDICATOR,
    "tabulated": TABULATED, "modulated-tabulated": modulated(TABULATED),
    "modulated-indicator": modulated(INDICATOR), "modulated-power": modulated(POWER),
}.items():
    CONFIGS[f"ti-check-{name}"] = {"kind": "ti-check", "generator": generator}


def run_config(tmp_path, payload, name="out"):
    """Run one config through the CLI; returns (exit code, report body,
    manifest)."""
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(yaml.safe_dump(payload))
    out = tmp_path / name
    code = main(["run", "--config", str(cfg), "--output-dir", str(out)])
    return (code, (out / "report.csv").read_text(),
            json.loads((out / "manifest.json").read_text()))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_body_is_pinned(tmp_path, name):
    code, body, _ = run_config(tmp_path, CONFIGS[name])
    assert code == 0
    assert body == (PINNED / f"{name}.csv").read_text()


def test_tabulated_sweep_limit_is_the_schilder_value(tmp_path):
    """Two routes to sup_y f(y) - g(y) for the tabulated cost: the viscosity
    sweep's refined Hopf-Lax search and the Schilder ascent over paths."""
    _, sweep, _ = run_config(tmp_path, CONFIGS["pde-sweep-tabulated"], "sweep")
    _, schilder, _ = run_config(tmp_path, CONFIGS["schilder-tabulated"], "schilder")
    limit = float(sweep.splitlines()[1].split(",")[2])
    best = float(schilder.splitlines()[1].split(",")[1])
    assert abs(limit - best) <= 1e-13


# one config of each experiment kind, each leaving some defaults out
ECHOED = ["pde-sweep-indicator", "schilder-tabulated", "sanov-iterate-quadratic",
          "schrodinger-sweep-quadratic", "mc-estimate-cramer", "bsde-lsmc-running-max",
          "ti-check-power", "bridge-check"]


@pytest.mark.parametrize("name", ECHOED)
def test_echoed_config_reruns_alike(tmp_path, name):
    """The manifest's config, run again, gives the same body, echo and hash."""
    code, body, manifest = run_config(tmp_path, CONFIGS[name], "first")
    assert code == 0 and body == (PINNED / f"{name}.csv").read_text()
    code, again, echoed = run_config(tmp_path, manifest["config"], "again")
    assert code == 0 and again == body
    assert echoed["config"] == manifest["config"]
    assert echoed["config_sha256"] == manifest["config_sha256"]


def _sections(payload, path=()):
    """The key path of every mapping inside ``payload``, nested ones included."""
    for key, value in payload.items():
        if isinstance(value, dict):
            yield path + (key,)
            yield from _sections(value, path + (key,))


@pytest.mark.parametrize("name, path", [
    (name, path) for name in sorted(CONFIGS) for path in _sections(CONFIGS[name])
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else v)
def test_misspelt_key_in_a_section_exits_2_before_any_solver(tmp_path, capsys, no_solver,
                                                            name, path):
    payload = json.loads(json.dumps(CONFIGS[name]))  # no section shared between paths
    section = payload
    for key in path:
        section = section[key]
    section["zz_typo"] = 1.0
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(payload))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"unknown key '{'.'.join(path)}.zz_typo'" in err
    assert not out.exists()


def _run_with(tmp_path, name, path, key, value):
    """Run ``CONFIGS[name]`` with ``key`` set to ``value`` in the section at
    ``path`` (a function given by name becomes its mapping first); returns
    the exit code and the error text."""
    payload = json.loads(json.dumps(CONFIGS[name]))
    parent = payload
    for k in path[:-1]:
        parent = parent[k]
    if isinstance(parent[path[-1]], str):
        parent[path[-1]] = {"kind": parent[path[-1]]}
    parent[path[-1]][key] = value
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(payload))
    return main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("name, path, key, value", [
    ("pde-sweep-indicator", ("grid",), "nx", 1.5),
    ("pde-sweep-indicator", ("generator",), "K", "abc"),
    ("sanov-iterate-modulated-power", ("generator", "base"), "r", "abc"),
    ("bsde-lsmc-power", ("functional",), "bounds", [1.0, 0.0]),
    ("bsde-lsmc-power", ("functional", "f"), "width", -1.0),
    ("pde-sweep-tabulated", ("terminal",), "width", -1.0),
    ("sanov-iterate-quadratic", ("phi",), "kind", "no_such_function"),
    ("sanov-iterate-quadratic", ("Phi",), "kind", "no_such_function"),
    ("mc-estimate-girsanov-modulated", ("control",), "bound", -1.0),
    ("schrodinger-sweep-quadratic", ("mu",), "atoms", "abc"),
    ("mc-estimate-girsanov-modulated", ("oracle",), "viscosity", 0.0),
    ("mc-estimate-girsanov-modulated", ("oracle", "grid"), "nx", 2),
    ("mc-estimate-girsanov-modulated", ("oracle", "generator"), "weights", "abc"),
    ("mc-estimate-oracle-modulated-tabulated", ("oracle", "terminal"), "center", "abc"),
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else None)
def test_bad_value_names_its_section_as_an_unknown_key_does(tmp_path, capsys, no_solver,
                                                            name, path, key, value):
    """A value error names its section by the dotted path that an unknown
    key in that section is named by."""
    dotted = ".".join(path)
    assert _run_with(tmp_path, name, path, key, value) == 2
    assert f"key '{key}' in {dotted} must be " in capsys.readouterr().err
    assert _run_with(tmp_path, name, path, "zz_typo", 1.0) == 2
    assert f"unknown key '{dotted}.zz_typo'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
