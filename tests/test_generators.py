"""Cost-function variants, conjugates and admissibility diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from driftlab.config import ReadRecorder, build_generator
from driftlab.generators import (
    IndicatorInterval,
    PowerLaw,
    Quadratic,
    Tabulated,
    TimeModulated,
    check_ti,
    eval_gstar_halfline,
)


def brute_force_conjugate(spec, z, qlo=-60.0, qhi=60.0, n=2_000_001):
    """Independent conjugate oracle: dense grid maximization of qz - g(q)."""
    q = np.linspace(qlo, qhi, n)
    vals = q * z - spec.cost(0.0, q)
    return float(np.max(vals[np.isfinite(vals)]))


class TestEvalG:
    def test_quadratic_value(self):
        assert Quadratic(c=1.0).cost(0.3, 2.0) == 2.0

    def test_indicator_outside(self):
        assert IndicatorInterval(K=1.0).cost(0.0, 1.5) == math.inf
        assert IndicatorInterval(K=1.0).cost(0.0, -0.25) == 0.0

    def test_powerlaw_time_integral_matches_closed_form(self):
        # integral over (1/n, 1] of g(t^{-3/4}) for g = |q|^{5/4} equals
        # 16 (1 - n^{-1/16}); the integrand is t^{-15/16}
        g = PowerLaw(r=1.25, a=1.0)
        for n in (4, 16):
            val, _ = quad(lambda t: g.cost(t, t ** (-0.75)), 1.0 / n, 1.0)
            expected = 16.0 * (1.0 - n ** (-1.0 / 16.0))
            assert val == pytest.approx(expected, abs=1e-8)
            assert val <= 16.0

    def test_tabulated_outside_domain(self):
        tab = Tabulated(q=(-1.0, 0.0, 1.0), g=(1.0, 0.0, 1.0))
        assert tab.cost(0.0, 2.0) == math.inf
        assert tab.cost(0.0, 0.5) == pytest.approx(0.5)

    def test_time_modulated(self):
        g = TimeModulated(base=Quadratic(1.0), weights=(1.0, 3.0))
        assert g.cost(0.0, 2.0) == pytest.approx(2.0)
        assert g.cost(1.0, 2.0) == pytest.approx(6.0)
        assert g.cost(0.5, 2.0) == pytest.approx(4.0)

    def test_lower_bound_respected(self):
        for spec in (Quadratic(2.0), PowerLaw(1.5), IndicatorInterval(3.0)):
            q = np.linspace(-5, 5, 101)
            assert np.all(spec.cost(0.1, q) >= 0.0)


class TestConjugate:
    def test_quadratic_self_dual(self):
        z = np.linspace(-4, 4, 41)
        np.testing.assert_allclose(Quadratic(c=1.0).gstar(0.0, z), 0.5 * z * z)

    def test_quadratic_curvature_inverts_exactly(self):
        for c in (0.5, 1.0, 2.5):
            for z in (-3.0, 0.7, 2.0):
                assert Quadratic(c=c).gstar(0.0, z) == z * z / (2.0 * c)

    def test_indicator_support_function(self):
        z = np.array([-2.0, -0.5, 0.0, 3.0])
        np.testing.assert_allclose(IndicatorInterval(K=1.0).gstar(0.0, z), np.abs(z))

    def test_powerlaw_against_grid_search(self):
        spec = PowerLaw(r=1.5, a=2.0 / 3.0)
        for z in (0.5, 1.0, 2.0):
            oracle = brute_force_conjugate(spec, z)
            assert spec.gstar(0.0, z) == pytest.approx(oracle, abs=1e-6)

    def test_powerlaw_dual_exponent(self):
        spec = PowerLaw(r=1.25, a=1.0)
        # dual exponent r' with 1/r + 1/r' = 1
        assert spec.rp == pytest.approx(5.0)

    def test_tabulated_conjugate_matches_quadratic(self):
        q = np.arange(-5.0, 5.0 + 1e-9, 1e-3)
        tab = Tabulated(q=tuple(q), g=tuple(0.5 * q * q))
        assert tab.gstar(0.0, 1.0) == pytest.approx(0.5, abs=1e-3)

    def test_modulated_identity(self):
        # (w g)*(z) = w g*(z / w), checked against grid search at fixed t
        base = Quadratic(1.0)
        g = TimeModulated(base=base, weights=(2.0, 2.0))
        spec_frozen = Quadratic(2.0)  # w = 2 constant
        for z in (-1.0, 0.5, 3.0):
            oracle = brute_force_conjugate(spec_frozen, z)
            assert g.gstar(0.37, z) == pytest.approx(oracle, abs=1e-6)

    def test_rejects_nonconvex_table(self):
        with pytest.raises(ValueError, match="convex"):
            Tabulated(q=(-1.0, 0.0, 1.0), g=(0.0, 1.0, 0.0))


def plain_halfline(spec, t, z, side):
    """The one-sided conjugate written as plain expressions, a fresh array each."""
    if isinstance(spec, TimeModulated):
        w = spec.weight_at(t)
        return w * plain_halfline(spec.base, t, z / w, side)
    if isinstance(spec, Tabulated):
        q, g, slopes = spec.halves[int(side > 0)]
        idx = np.searchsorted(slopes, z, side="left")
        return q[idx] * z - g[idx]
    # an even cost: g* at the argument clipped to the side's half-line
    return spec.gstar(t, np.maximum(z, 0.0) if side > 0 else np.minimum(z, 0.0))


class TestHalfline:
    def test_symmetric_halflines_recombine(self):
        for spec in (Quadratic(1.0), PowerLaw(1.5, 0.7), IndicatorInterval(2.0)):
            z = np.linspace(-3, 3, 25)
            full = spec.gstar(0.0, z)
            plus = np.asarray(eval_gstar_halfline(spec, 0.0, z, +1))
            minus = np.asarray(eval_gstar_halfline(spec, 0.0, z, -1))
            np.testing.assert_allclose(np.maximum(plus, minus), full, atol=1e-12)

    @pytest.mark.parametrize("c", [1.0, 0.7])
    @pytest.mark.parametrize("side", [+1, -1])
    def test_quadratic_halfline_matches_plain_formula_exactly(self, c, side):
        spec = Quadratic(c)
        z = np.linspace(-3.0, 3.0, 601) + 1e-3
        zc = np.maximum(z, 0.0) if side > 0 else np.minimum(z, 0.0)
        got = eval_gstar_halfline(spec, 0.0, z, side)
        np.testing.assert_array_equal(got, 0.5 * zc * zc / c)
        # a scalar argument on the active side gives a float of the same value
        i = 500 if side > 0 else 100
        assert eval_gstar_halfline(spec, 0.0, float(z[i]), side) == float(0.5 * zc[i] * zc[i] / c)

    @pytest.mark.parametrize("spec", [
        Quadratic(0.7), PowerLaw(1.5, 0.7), PowerLaw(3.0), IndicatorInterval(2.0),
        TimeModulated(base=PowerLaw(1.5), weights=(0.5, 2.0)),
        Tabulated(q=(-2.0, -0.5, 0.0, 1.0, 3.0), g=(3.0, 0.4, 0.0, 0.6, 5.0)),
    ], ids=["quadratic", "power-1.5", "power-3", "indicator", "modulated", "tabulated"])
    @pytest.mark.parametrize("side", [+1, -1])
    def test_halfline_into_a_buffer_is_bit_for_bit(self, spec, side):
        rng = np.random.default_rng(3)
        shape = (3, 500)
        z = np.sign(rng.uniform(-1.0, 1.0, shape)) * 10.0 ** rng.uniform(-170, 140, shape)
        z[:, ::7] = -0.0
        kept = z.copy()
        out = np.empty_like(z)
        with np.errstate(over="ignore"):
            fresh = eval_gstar_halfline(spec, 0.4, z, side)
            assert fresh.tobytes() == plain_halfline(spec, 0.4, z, side).tobytes()
            assert eval_gstar_halfline(spec, 0.4, z, side, out=out) is out
            assert out.tobytes() == fresh.tobytes()
            assert z.tobytes() == kept.tobytes()
            # ``out`` may be the argument itself
            assert eval_gstar_halfline(spec, 0.4, z, side, out=z).tobytes() == fresh.tobytes()

    def test_halfline_against_constrained_grid(self):
        spec = PowerLaw(r=1.5, a=1.0)
        q = np.linspace(0.0, 50.0, 1_000_001)
        for z in (-1.0, 0.3, 2.0):
            oracle = float(np.max(q * z - spec.cost(0.0, q)))
            assert eval_gstar_halfline(spec, 0.0, z, +1) == pytest.approx(oracle, abs=1e-6)

    def test_table_halfline_monotone(self):
        q = np.linspace(-2.0, 2.0, 401)
        tab = Tabulated(q=tuple(q), g=tuple(np.abs(q) ** 1.5))
        z = np.linspace(-3, 3, 61)
        plus = np.asarray(eval_gstar_halfline(tab, 0.0, z, +1))
        minus = np.asarray(eval_gstar_halfline(tab, 0.0, z, -1))
        assert np.all(np.diff(plus) >= -1e-12)
        assert np.all(np.diff(minus) <= 1e-12)

    @pytest.mark.parametrize("q", [
        np.linspace(-2.0, 3.0, 801),  # q = 0 is a sample node
        np.linspace(-2.05, 3.0, 400),  # q = 0 falls between nodes
        np.linspace(0.5, 3.0, 60),  # no negative drifts
    ], ids=["node-at-zero", "zero-between-nodes", "positive-only"])
    def test_table_halfline_matches_brute_force(self, q):
        g = 0.4 * q * q + 0.3 * np.abs(q - 0.2)
        tab = Tabulated(q=tuple(q), g=tuple(g))
        z = np.linspace(-4.0, 4.0, 97)
        for side in (+1, -1):
            keep = q >= 0 if side > 0 else q <= 0
            qs, gs = q[keep], g[keep]
            if qs.size == 0 or (0.0 not in qs and q[0] < 0 < q[-1]):
                qs = np.append(qs, 0.0)
                gs = np.append(gs, np.interp(0.0, q, g))
            oracle = np.max(qs[None, :] * z[:, None] - gs[None, :], axis=1)
            for _ in range(2):  # the second call reads the cached tables
                got = np.asarray(eval_gstar_halfline(tab, 0.0, z, side))
                np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12)


def table_conjugate(samples, z):
    """The tabulated cost's conjugate max_j (q_j z - g_j) at each z."""
    q, g = zip(*samples)
    return np.asarray(Tabulated(q=q, g=g).gstar(0.0, np.asarray(z, dtype=float)))


class TestDiscreteLegendre:
    def test_quadratic_samples(self):
        q = np.arange(-5.0, 5.0 + 1e-9, 1e-3)
        samples = list(zip(q, 0.5 * q * q))
        out = table_conjugate(samples, [1.0])
        assert out[0] == pytest.approx(0.5, abs=1e-3)

    def test_single_sample_point_indicator(self):
        out = table_conjugate([(0.0, 0.0)], [-3.0, 0.0, 7.0])
        np.testing.assert_allclose(out, 0.0)

    def test_matches_quadratic_time_double_loop(self):
        q = np.linspace(-10.0, 10.0, 2001)
        g = np.abs(q) ** 1.25
        samples = list(zip(q, g))
        z_grid = np.array([2.0, -1.3, 0.0, 5.5])
        fast = table_conjugate(samples, z_grid)
        slow = np.array([max(qj * z - gj for qj, gj in samples) for z in z_grid])
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            Tabulated(q=(), g=())
        with pytest.raises(ValueError, match="convex"):
            Tabulated(q=(-1.0, 0.0, 1.0), g=(0.0, 1.0, 0.0))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(-8, 8), min_size=3, max_size=12, unique=True),
        st.floats(-5, 5),
    )
    def test_double_conjugation_recovers_convex_table(self, qs, z0):
        # conjugating twice reproduces a convex sample set within resolution
        q = np.sort(np.asarray(qs))
        g = 0.7 * q * q + 0.1 * np.abs(q)
        samples = list(zip(q, g))
        z_grid = np.linspace(-25, 25, 4001)
        gstar = table_conjugate(samples, z_grid)
        back = table_conjugate(list(zip(z_grid, gstar)), q)
        np.testing.assert_allclose(back, g, atol=2e-2)

    def test_nearly_coincident_drifts_are_convex(self):
        # chord slopes over widths ~1e-48 are dominated by the rounding of g;
        # the convexity check must not reject such a convex table
        q = np.array([-1.175494351e-38, -1.1754943508222875e-38, 0.0])
        g = 0.7 * q * q + 0.1 * np.abs(q)
        out = table_conjugate(list(zip(q, g)), [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(out, [-q[0] * 1.0 - g[0], -g[2], -g[2]], atol=1e-30)
        with pytest.raises(ValueError, match="convex"):
            Tabulated(q=(0.0, 1e-12, 1.0), g=(0.0, 1.0, 0.0))


class TestFenchelYoung:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_inequality_quadratic(self, q, z):
        spec = Quadratic(1.3)
        lhs = spec.cost(0.0, q) + spec.gstar(0.0, z)
        assert lhs >= q * z - 1e-10

    def test_equality_at_subgradient(self):
        for spec in (Quadratic(0.8), PowerLaw(1.5, 0.5), PowerLaw(3.0, 2.0)):
            for q in (-2.0, -0.3, 0.5, 1.7):
                z = spec.g_prime(0.0, q)
                lhs = spec.cost(0.0, q) + spec.gstar(0.0, z)
                assert lhs == pytest.approx(q * z, abs=1e-8)

    def test_inequality_with_infinite_values(self):
        spec = IndicatorInterval(1.0)
        for q in (-0.9, 0.0, 0.4):
            for z in (-2.0, 1.0):
                assert spec.cost(0.0, q) + spec.gstar(0.0, z) >= q * z - 1e-12


class TestCheckTi:
    def test_quadratic_all_pass(self):
        report = check_ti(Quadratic(1.0))
        assert report.passed, str(report)

    def test_time_integrability_detail_prints_plain_numbers(self):
        ok, detail = check_ti(PowerLaw(1.5, 0.8)).clauses["time_integrability"]
        assert ok
        assert detail.endswith("[0.80000000000000004, 6.4000000000000004]")

    def test_linear_table_fails_coercivity(self):
        q = np.linspace(-2.0 ** 20, 2.0 ** 20, 4097)
        tab = Tabulated(q=tuple(q), g=tuple(np.abs(q)))
        report = check_ti(tab)
        assert not report.clauses["coercivity"][0]
        assert report.clauses["convexity"][0]

    def test_indicator_passes(self):
        report = check_ti(IndicatorInterval(2.0))
        assert report.passed, str(report)

    def test_powerlaw_table_passes_coercivity(self):
        q = np.linspace(-(2.0 ** 20), 2.0 ** 20, 8193)
        tab = Tabulated(q=tuple(q), g=tuple(np.abs(q) ** 1.25))
        report = check_ti(tab)
        assert report.clauses["coercivity"][0]


_TABLE_Q = np.linspace(-4.0, 4.0, 33)
_LINEAR_Q = np.linspace(-(2.0 ** 20), 2.0 ** 20, 4097)
MODULATED_BASES = {
    "quadratic": (Quadratic(1.5), True),
    "power": (PowerLaw(1.5, 0.8), True),
    "indicator": (IndicatorInterval(2.0), True),
    "table": (Tabulated(q=tuple(_TABLE_Q), g=tuple(_TABLE_Q ** 2 - 0.5)), True),
    "linear-table": (Tabulated(q=tuple(_LINEAR_Q), g=tuple(np.abs(_LINEAR_Q))), False),
}
# the config form of each base
MODULATED_BASE_CONFIGS = {
    "quadratic": {"variant": "quadratic", "c": 1.5},
    "power": {"variant": "power", "r": 1.5, "a": 0.8},
    "indicator": {"variant": "indicator", "K": 2.0},
    "table": {"variant": "tabulated", "q": _TABLE_Q.tolist(), "g": (_TABLE_Q ** 2 - 0.5).tolist()},
    "linear-table": {"variant": "tabulated", "q": _LINEAR_Q.tolist(),
                     "g": np.abs(_LINEAR_Q).tolist()},
}


class TestModulated:
    """Time modulation w(t) g(q) scales the base's bounds as documented."""

    WEIGHTS = (0.5, 3.0, 2.0)

    @pytest.fixture(params=sorted(MODULATED_BASES))
    def name(self, request):
        return request.param

    @pytest.fixture
    def case(self, name):
        base, coercive = MODULATED_BASES[name]
        return base, TimeModulated(base=base, weights=self.WEIGHTS), coercive

    def test_check_ti_coercivity_verdict(self, case):
        base, spec, coercive = case
        ok, detail = check_ti(spec).clauses["coercivity"]
        assert ok == coercive
        assert ok == check_ti(base).clauses["coercivity"][0]
        bounded = base.growth() == math.inf
        assert ("bounded effective domain" in detail) == bounded

    def test_scaled_bounds(self, case):
        base, spec, _ = case
        assert spec.domain() == base.domain()
        assert spec.growth() == base.growth()
        assert spec.lower_bound() == max(self.WEIGHTS) * base.lower_bound()
        for zmax in (0.3, 2.0, -5.0):
            expected = base.gstar_lipschitz(abs(zmax) / min(self.WEIGHTS))
            assert spec.gstar_lipschitz(abs(zmax)) == expected

    def test_config_round_trip(self, name, case):
        _, spec, _ = case
        section = {"variant": "modulated", "base": MODULATED_BASE_CONFIGS[name],
                   "weights": list(self.WEIGHTS)}
        assert build_generator(ReadRecorder(section, "generator")) == spec


class TestLipschitzBound:
    def test_quadratic(self):
        assert Quadratic(2.0).gstar_lipschitz(4.0) == pytest.approx(2.0)

    def test_bound_dominates_finite_differences(self):
        for spec in (Quadratic(1.0), PowerLaw(1.5, 1.0), IndicatorInterval(1.0)):
            z = np.linspace(-3, 3, 601)
            vals = spec.gstar(0.0, z)
            slopes = np.abs(np.diff(vals) / np.diff(z))
            assert slopes.max() <= spec.gstar_lipschitz(3.0) + 1e-9


# tables for the step bound: chord slopes run from -1.5 to 5.5, from none
# at all, and from -39.5 to 39.5
_ASYM_Q = np.linspace(-1.0, 3.0, 41)
STEP_BOUND_TABLES = {
    "asymmetric": Tabulated(q=tuple(_ASYM_Q), g=tuple(_ASYM_Q ** 2 + 0.5 * _ASYM_Q)),
    "single-node": Tabulated(q=(0.7,), g=(0.2,)),
    "wide": Tabulated(q=tuple(np.linspace(-40.0, 40.0, 81)),
                      g=tuple(0.5 * np.linspace(-40.0, 40.0, 81) ** 2)),
}


class TestTableStepBound:
    """``Tabulated.gstar_lipschitz(zmax)`` bounds |d g*/dz| on [-zmax, zmax],
    not on the whole line."""

    @pytest.mark.parametrize("name", list(STEP_BOUND_TABLES))
    @pytest.mark.parametrize("zmax", [0.37, 1.3, 7.3, 60.0])
    def test_bound_covers_every_argmax_and_no_more_than_the_table(self, name, zmax):
        spec = STEP_BOUND_TABLES[name]
        q, g = np.asarray(spec.q), np.asarray(spec.g)
        z = np.linspace(-zmax, zmax, 2001)
        argmax = q[np.argmax(q[None, :] * z[:, None] - g[None, :], axis=1)]
        bound = spec.gstar_lipschitz(zmax)
        assert isinstance(bound, float)
        assert np.abs(argmax).max() <= bound <= max(abs(q[0]), abs(q[-1]))

    def test_bound_falls_with_the_range(self):
        spec = STEP_BOUND_TABLES["wide"]
        # zmax inside the chord slopes (the argmax of 2.2 is the node 2),
        # then beyond the last one
        assert spec.gstar_lipschitz(2.2) == 2.0
        assert spec.gstar_lipschitz(60.0) == 40.0
        # g' = 2q + 1/2: the argmax nodes of -0.37 and 0.37 are -0.4 and -0.1
        assert STEP_BOUND_TABLES["asymmetric"].gstar_lipschitz(0.37) == abs(_ASYM_Q[6])
        assert STEP_BOUND_TABLES["single-node"].gstar_lipschitz(0.37) == 0.7

    @pytest.mark.parametrize("name", list(STEP_BOUND_TABLES))
    def test_modulated_table_inherits_the_bound(self, name):
        base = STEP_BOUND_TABLES[name]
        spec = TimeModulated(base=base, weights=(2.0, 0.5, 1.0))
        for zmax in (0.37, 1.3, 60.0):
            assert spec.gstar_lipschitz(zmax) == base.gstar_lipschitz(zmax / 0.5)


class TestSerialization:
    def test_round_trip(self):
        cases = [
            ({"variant": "quadratic", "c": 2.0}, Quadratic(2.0)),
            ({"variant": "quadratic"}, Quadratic(1.0)),
            ({"variant": "power", "r": 1.25, "a": 0.5}, PowerLaw(1.25, 0.5)),
            ({"variant": "indicator", "K": 1.5}, IndicatorInterval(1.5)),
            ({"variant": "modulated", "base": {"variant": "quadratic", "c": 1.0},
              "weights": [1.0, 2.0, 1.0]},
             TimeModulated(base=Quadratic(1.0), weights=(1.0, 2.0, 1.0))),
            ({"variant": "tabulated", "q": [-1.0, 0.0, 1.0], "g": [1.0, 0.0, 1.0]},
             Tabulated(q=(-1.0, 0.0, 1.0), g=(1.0, 0.0, 1.0))),
        ]
        for section, spec in cases:
            assert build_generator(ReadRecorder(section, "generator")) == spec

    def test_tabulated_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("# q, g\n-1.0,1.0\n\n0.0,0.0  # the minimum\n1.0,1.0\n")
        tab = build_generator(ReadRecorder({"variant": "tabulated", "csv": str(path)},
                                            "generator"))
        assert tab == Tabulated(q=(-1.0, 0.0, 1.0), g=(1.0, 0.0, 1.0))

    def test_domain_interval(self):
        assert IndicatorInterval(2.0).domain() == (-2.0, 2.0)
        lo, hi = Quadratic(1.0).domain()
        assert lo == -math.inf and hi == math.inf
