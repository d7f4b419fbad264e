"""Fixtures shared by the CLI test modules."""

import inspect

import pytest

from driftlab import cli, generators

_SOLVER_MODULES = {"driftlab.montecarlo", "driftlab.pde", "driftlab.sanov",
                   "driftlab.schrodinger", "driftlab.variational"}


@pytest.fixture
def no_solver(monkeypatch):
    """Make every solver function that ``driftlab.cli`` binds, and
    ``generators.check_ti``, raise, so a run that reaches one fails the test."""
    names = {name for name, obj in vars(cli).items()
             if inspect.isfunction(obj) and obj.__module__ in _SOLVER_MODULES}
    assert {"vanishing_viscosity_sweep", "solve_semilinear", "iterate_L", "mean_field_limit",
            "small_noise_sweep", "maximize_schilder", "lsmc_bsde", "log_mean_exp",
            "cramer_average", "girsanov_lower_bound", "bridge_moment_check"} <= names

    def solver_ran(*args, **kwargs):
        raise AssertionError("a solver ran before the config was checked")

    for name in names:
        monkeypatch.setattr(cli, name, solver_ran)
    monkeypatch.setattr(generators, "check_ti", solver_ran)
