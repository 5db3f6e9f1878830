"""Tests for the weighted convolution algebra on the half-line grid."""

import math
import re

import numpy as np
import pytest
import scipy.linalg
from draws import grid_delta
from hypothesis import given, settings
from hypothesis import strategies as st

from oalab import domar
from oalab.domar import (
    _GK15_NODES,
    _GK15_WEIGHTS,
    _GK_PANEL_LIMIT,
    GridFunction,
    alpha,
    alpha_index,
    bump_cai_check,
    convolve,
    domar_criterion_check,
    grid_indicator,
    make_weight,
    principal_density_check,
    quasinilpotence_estimate,
    quasinilpotence_root_bound,
    weighted_l1,
    weighted_l2,
    _gauss_kronrod,
)
from oalab.matcore import to_jsonable
from oalab.sampling import complex_normal
from oalab.suites import SuiteConfig, run_suite


def flat_weight(horizon=30.0):
    return make_weight(
        "custom",
        omega=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        horizon=horizon,
    )


class TestWeights:
    def test_gaussian_values(self):
        w = make_weight("gaussian")
        assert w.omega(0.0) == 1.0
        np.testing.assert_allclose(w.omega(1.0), math.exp(-1.0), rtol=1e-15)
        np.testing.assert_allclose(w.eta(2.0), 4.0, rtol=1e-12)

    def test_gaussian_vectorized(self):
        w = make_weight("gaussian")
        ts = np.linspace(0.0, 3.0, 7)
        np.testing.assert_allclose(w.omega(ts), np.exp(-ts**2), rtol=1e-15)

    def test_negative_time_rejected(self):
        w = make_weight("gaussian")
        with pytest.raises(ValueError):
            w.omega(-0.5)

    def test_exponential_weight_allowed(self):
        # omega(t) = e^{-t} passes the sampled invariants: its t-th roots
        # are constant (weakly decreasing), which samples cannot rule out.
        w = make_weight(
            "custom", omega=lambda t: np.exp(-np.asarray(t)), horizon=12.0
        )
        np.testing.assert_allclose(w.omega(3.0), math.exp(-3.0), rtol=1e-15)

    def test_supermultiplicative_weight_rejected(self):
        # 1/(1+t) violates submultiplicativity: (1+s)(1+t) > 1+s+t.  The
        # message names the first failing pair of the row-major pair loop.
        def omega(t):
            return 1.0 / (1.0 + np.asarray(t, dtype=float))

        coarse = np.linspace(0.0, 10.0, 40)
        expected = next(
            f"submultiplicativity fails at s={s:.3g}, t={t:.3g}: "
            f"{float(omega(s + t)):.6g} > {float(omega(s) * omega(t)):.6g}"
            for s in coarse
            for t in coarse
            if s + t <= 10.0 and omega(s + t) > omega(s) * omega(t) * (1 + 1e-9) + 1e-9
        )
        with pytest.raises(ValueError, match=re.escape(expected)):
            make_weight("custom", omega=omega, horizon=10.0)

    def test_wrong_normalization_rejected(self):
        with pytest.raises(ValueError):
            make_weight(
                "custom", omega=lambda t: 2.0 * np.exp(-np.square(t)), horizon=5.0
            )

    def test_custom_beyond_horizon_rejected(self):
        w = make_weight(
            "custom", omega=lambda t: np.exp(-np.asarray(t)), horizon=6.0
        )
        with pytest.raises(ValueError):
            w.omega(7.0)

    # A zero horizon verified the invariants at the single point t = 0,
    # through a divide-by-zero warning; it and the other degenerate
    # horizons are rejected before any sampling.
    @pytest.mark.parametrize("kind", ["gaussian", "custom"])
    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_horizon_must_be_finite_and_positive(self, kind, horizon):
        omega = lambda t: np.exp(-np.asarray(t))  # noqa: E731
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            make_weight(kind, omega=omega, horizon=horizon)


class TestGridFunctions:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridFunction(h=0.0, coeffs=np.ones(3))
        with pytest.raises(ValueError):
            GridFunction(h=math.inf, coeffs=np.ones(3))
        with pytest.raises(ValueError):
            GridFunction(h=0.1, coeffs=np.array([]))
        with pytest.raises(ValueError):
            GridFunction(h=0.1, coeffs=np.array([np.nan]))

    # A zero step divided by zero and a negative one asked numpy for an
    # array of negative length; every such step is rejected up front.
    @pytest.mark.parametrize("h", [0.0, -0.1, math.inf, math.nan])
    def test_indicator_step_must_be_finite_and_positive(self, h):
        with pytest.raises(ValueError, match="grid step must be finite and positive"):
            grid_indicator(h, 1.0, 2.0)

    # An infinite right end once overflowed int(round(b / h)).
    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (0.0, math.inf)])
    def test_indicator_interval_must_be_finite_and_nonempty(self, a, b):
        with pytest.raises(ValueError, match="need 0 <= a < b < inf"):
            grid_indicator(0.1, a, b)

    def test_indicator_support(self):
        f = grid_indicator(0.1, 0.3, 0.7)
        np.testing.assert_array_equal(f.coeffs[:3], 0.0)
        np.testing.assert_array_equal(f.coeffs[3:7], 1.0)
        assert alpha(f) == pytest.approx(0.3)

    def test_json_shape(self):
        payload = to_jsonable(grid_delta(0.5))
        assert set(payload) == {"h", "coeffs"}
        assert payload["coeffs"] == [[2.0, 0.0]]


class TestConvolve:
    def test_delta_identity_dyadic_exact(self):
        rng = np.random.default_rng(0)
        h = 0.0625  # dyadic: h * (1/h) == 1.0 exactly
        g = GridFunction(
            h=h, coeffs=rng.standard_normal(12) + 1j * rng.standard_normal(12)
        )
        conv = convolve(grid_delta(h), g)
        np.testing.assert_array_equal(conv.coeffs, g.coeffs)

    def test_delta_identity_general_step(self):
        rng = np.random.default_rng(1)
        g = GridFunction(
            h=0.05, coeffs=rng.standard_normal(9) + 1j * rng.standard_normal(9)
        )
        conv = convolve(grid_delta(0.05), g)
        np.testing.assert_allclose(conv.coeffs, g.coeffs, rtol=1e-15)

    def test_triangle_quadrature(self):
        # Indicator of [0,1) convolved with itself is the unit triangle;
        # the discrete peak value is exactly 1.
        one = grid_indicator(0.1, 0.0, 1.0)
        tri = convolve(one, one)
        assert np.max(np.abs(tri.coeffs)) == pytest.approx(1.0, abs=1e-14)
        assert weighted_l1(one, flat_weight()) == pytest.approx(1.0, abs=1e-14)
        assert weighted_l1(tri, flat_weight()) == pytest.approx(1.0, abs=1e-12)

    def test_step_mismatch_rejected(self):
        with pytest.raises(ValueError):
            convolve(grid_delta(0.1), grid_delta(0.2))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        len_f=st.integers(1, 30),
        len_g=st.integers(1, 30),
        h=st.sampled_from([0.01, 0.05, 0.25]),
    )
    def test_young_inequality_exact_on_grid(self, seed, len_f, len_g, h):
        # Weighted Young: l2(f*g) <= l1(f) * l2(g).  The bound holds exactly
        # on the grid, with no quadrature slack: the index additivity
        # jh + (m-j)h = mh matches submultiplicativity term by term.
        w = make_weight("gaussian")
        rng = np.random.default_rng(seed)
        f = GridFunction(h=h, coeffs=complex_normal(rng, len_f))
        g = GridFunction(h=h, coeffs=complex_normal(rng, len_g))
        young_bound = weighted_l1(f, w) * weighted_l2(g, w)
        assert weighted_l2(convolve(f, g), w) <= young_bound * (1 + 1e-12) + 1e-15


class TestAlpha:
    def test_delta_position(self):
        assert alpha(grid_delta(0.1, index=3)) == pytest.approx(0.3)
        assert alpha_index(grid_delta(0.1, index=3)) == 3

    def test_zero_function(self):
        z = GridFunction(h=0.1, coeffs=np.zeros(5, dtype=complex))
        assert alpha(z) == math.inf
        assert alpha_index(z) == -1

    def test_scaling_invariance(self):
        f = GridFunction(h=0.1, coeffs=np.array([0.0, 0.0, 1e-12, 5.0]))
        assert alpha(f) == alpha(GridFunction(h=0.1, coeffs=1e9 * f.coeffs))
        # 1e-12 relative to max 5.0 is below the support threshold
        assert alpha_index(f) == 3

    def test_titchmarsh_sweep(self):
        report = run_suite(SuiteConfig(suite="domar-titchmarsh", trials=200, seed=11))
        assert report.passed and report.failures == []

    def test_titchmarsh_json(self):
        payload = to_jsonable(run_suite(SuiteConfig(suite="domar-titchmarsh", trials=5, seed=0)))
        assert payload["config"]["trials"] == 5
        assert payload["cases"] == [
            {"name": "support-additivity", "status": "pass", "margin": 0.0, "tol": 0.0}
        ]


class TestQuasinilpotence:
    def test_roots_decrease(self):
        w = make_weight("gaussian")
        f = grid_indicator(0.05, 1.0, 2.0)
        roots = quasinilpotence_estimate(f, w, 8)
        assert len(roots) == 8
        assert all(roots[i + 1] < roots[i] for i in range(7))

    def test_roots_below_closed_form_bound(self):
        # For f = 1_[1,2] and the gaussian weight the displayed bound's
        # n-th root is exp(4 - n): plain L1 of f is 1, max omega on [n, 2n]
        # is e^{-n^2}, min omega on [1, 2] is e^{-4}.
        w = make_weight("gaussian")
        f = grid_indicator(0.05, 1.0, 2.0)
        roots = quasinilpotence_estimate(f, w, 8)
        for n, root in enumerate(roots, start=1):
            bound = quasinilpotence_root_bound(f, w, n)
            np.testing.assert_allclose(bound, math.exp(4.0 - n), rtol=1e-10)
            assert root <= bound

    def test_alpha_zero_rejected(self):
        w = make_weight("gaussian")
        with pytest.raises(ValueError):
            quasinilpotence_estimate(grid_indicator(0.05, 0.0, 1.0), w, 4)

    def test_horizon_guard(self):
        w = make_weight("gaussian")
        f = grid_indicator(0.05, 1.0, 2.0)
        with pytest.raises(ValueError):
            quasinilpotence_estimate(f, w, 13)
        # The bound's n counts from 1, like the estimate's n_max.
        with pytest.raises(ValueError, match="n must be positive"):
            quasinilpotence_root_bound(f, w, 0)


def counted(f):
    """``f`` wrapped to record the length of every argument it is called on."""
    sizes = []

    def wrapped(x):
        sizes.append(len(x))
        return f(x)

    return wrapped, sizes


class TestGaussKronrod:
    @pytest.mark.parametrize("d", range(24))
    def test_one_panel_is_exact_on_monomials(self, d):
        # K15 integrates x^d exactly for d <= 23 and G7 for d <= 13, so a
        # wrong digit in a node or weight shows.
        k15, g7 = 0.5 * (_GK15_WEIGHTS @ (0.5 + 0.5 * _GK15_NODES) ** d)
        assert abs(k15 - 1.0 / (d + 1)) <= 1e-15
        if d <= 13:
            assert abs(g7 - 1.0 / (d + 1)) <= 1e-15

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 2.0])
    def test_gaussian_ratio_integral_closed_form(self, t):
        # (omega(x+t)/omega(x))^2 = exp(-4tx - 2t^2); over [0, H - t] the
        # integral is e^{-2t^2} (1 - e^{-4t(H - t)}) / (4t), and over
        # [0, inf) it is e^{-2t^2} / (4t).
        w = make_weight("gaussian")
        report = domar_criterion_check(w, t)
        full = math.exp(-2.0 * t * t) / (4.0 * t)
        on_interval = full * -math.expm1(-4.0 * t * (w.horizon - t))
        assert abs(report.ratio_integral - on_interval) <= 1e-12
        assert abs(report.ratio_integral - full) <= report.ratio_integral_error

    @pytest.mark.parametrize(
        "omega",
        [
            lambda t: np.exp(-np.asarray(t) ** 1.6),
            lambda t: np.exp(-np.asarray(t) - 0.5 * np.asarray(t) ** 2),
        ],
        ids=["t^1.6", "t+t^2/2"],
    )
    def test_custom_weights_agree_with_quad(self, omega):
        import scipy.integrate

        w = make_weight("custom", omega=omega, horizon=20.0)
        report = domar_criterion_check(w, 0.7)

        def integrand(x):
            return (w.omega(x + 0.7) / w.omega(x)) ** 2

        value, err = scipy.integrate.quad(integrand, 0.0, w.horizon - 0.7, limit=200)
        assert abs(report.ratio_integral - value) <= report.ratio_integral_error + err

    def test_error_is_the_gauss_error_where_kronrod_is_exact(self):
        # On x^14 over [0, 1], K15 is exact and G7 is not, so the estimate
        # |K15 - G7| is G7's true error (5.7e-9 < 1.49e-8: one panel).
        nodes, weights = np.polynomial.legendre.leggauss(7)
        g7 = 0.5 * float(weights @ (0.5 + 0.5 * nodes) ** 14)
        f, sizes = counted(lambda x: x**14)
        value, error = _gauss_kronrod(f, 0.0, 1.0)
        assert sizes == [15]
        assert abs(value - 1.0 / 15.0) <= 1e-15
        assert error == pytest.approx(abs(g7 - 1.0 / 15.0), rel=1e-6)

    def test_bisects_a_sharp_peak(self):
        # A peak of width 1e-2 at 0.3 needs many panels; one call per round.
        f, sizes = counted(lambda x: np.exp(-(((x - 0.3) / 0.01) ** 2)))
        value, error = _gauss_kronrod(f, 0.0, 1.0)
        exact = 0.005 * math.sqrt(math.pi) * (math.erf(70.0) + math.erf(30.0))
        assert len(sizes) > 2 and sum(sizes) > 15 * len(sizes)
        assert all(size % 15 == 0 for size in sizes)
        assert error <= 1.49e-8
        assert abs(value - exact) <= error

    def test_panel_cap_returns_the_estimate(self):
        # 1591 periods of sin(1e4 x) cannot be resolved with 200 panels: the
        # rule stops at the cap, above tolerance, without raising.
        f, sizes = counted(lambda x: np.sin(1e4 * x))
        value, error = _gauss_kronrod(f, 0.0, 1.0)
        assert np.isfinite(value) and error > 1.49e-8
        # 1 panel, then each bisection adds 2 evaluated panels and 1 net panel.
        assert sum(sizes) == 15 * (1 + 2 * (_GK_PANEL_LIMIT - 1))

    def test_empty_interval(self):
        assert _gauss_kronrod(np.exp, 2.0, 2.0) == (0.0, 0.0)


class TestWeightCriterion:
    def test_gaussian_integral_closed_form(self):
        # (omega(x+1)/omega(x))^2 = exp(-4x-2), integral e^{-2}/4.
        report = domar_criterion_check(make_weight("gaussian"), 1.0)
        np.testing.assert_allclose(
            report.ratio_integral, math.exp(-2.0) / 4.0, atol=1e-9
        )
        assert report.eta_convex
        assert report.tail_superlinear

    def test_gaussian_integral_half(self):
        report = domar_criterion_check(make_weight("gaussian"), 0.5)
        np.testing.assert_allclose(
            report.ratio_integral, math.exp(-0.5) / 2.0, atol=1e-9
        )

    def test_exponential_weight_fails_superlinearity(self):
        # eta(t) = t: convex, but eta/t^{1.5} = t^{-0.5} decreases, and the
        # ratio integrand is the constant e^{-2} (reported, not raised).
        w = make_weight(
            "custom", omega=lambda t: np.exp(-np.asarray(t)), horizon=24.0
        )
        report = domar_criterion_check(w, 1.0)
        assert report.eta_convex
        assert not report.tail_superlinear
        # The integrand at the cutoff flags the non-decaying tail.
        assert report.ratio_integral_error == pytest.approx(math.exp(-2.0), abs=1e-12)

    @pytest.mark.parametrize("beyond", [0.0, 6.0])
    @pytest.mark.parametrize("kind", ["gaussian", "custom"])
    def test_probe_at_or_beyond_the_horizon_rejected(self, kind, beyond):
        # The ratio integral runs over [0, horizon - t_probe]: an empty
        # interval measures nothing, for either kind of weight.
        if kind == "gaussian":
            w = make_weight("gaussian")
        else:
            w = make_weight("custom", omega=lambda t: np.exp(-np.asarray(t) ** 2), horizon=24.0)
        assert w.horizon == 24.0
        with pytest.raises(ValueError, match="t_probe"):
            domar_criterion_check(w, w.horizon + beyond)

    @pytest.mark.parametrize("t_probe", [0.0, -1.0, float("nan")])
    def test_nonpositive_probe_rejected(self, t_probe):
        with pytest.raises(ValueError, match="t_probe"):
            domar_criterion_check(make_weight("gaussian"), t_probe)

    def test_json(self):
        payload = to_jsonable(domar_criterion_check(make_weight("gaussian"), 1.0))
        assert payload["eta_convex"] is True
        assert payload["t_probe"] == 1.0


class TestPrincipalDensity:
    def test_delta_shift_exact(self):
        w = make_weight("gaussian")
        result = principal_density_check(
            grid_delta(0.1, index=2), grid_delta(0.1, index=5), w
        )
        assert result.residual == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(
            result.solution.coeffs, [0.0, 0.0, 0.0, 10.0], atol=1e-12
        )

    def test_indicator_to_smooth_bump(self):
        w = make_weight("gaussian")
        t_f = grid_indicator(0.01, 0.2, 0.4)
        ts = np.arange(120) * 0.01
        bump = np.where(
            (ts >= 0.6) & (ts <= 0.9),
            np.sin(np.pi * (ts - 0.6) / 0.3) ** 2,
            0.0,
        )
        g = GridFunction(h=0.01, coeffs=bump.astype(complex))
        result = principal_density_check(t_f, g, w)
        assert result.residual < 1e-10

    def test_support_order_enforced(self):
        w = make_weight("gaussian")
        with pytest.raises(ValueError):
            principal_density_check(
                grid_delta(0.1, index=5), grid_delta(0.1, index=2), w
            )
        with pytest.raises(ValueError):
            principal_density_check(
                grid_delta(0.1, index=2), grid_delta(0.1, index=2), w
            )

    def test_budget_guard(self, monkeypatch):
        w = make_weight("gaussian")
        monkeypatch.setattr(domar, "PRINCIPAL_DENSITY_BUDGET", 5)
        with pytest.raises(ValueError):
            principal_density_check(
                grid_delta(0.1, index=1), grid_indicator(0.1, 1.0, 3.0), w
            )

    def test_random_instances(self):
        w = make_weight("gaussian")
        rng = np.random.default_rng(7)
        for _ in range(10):
            h = 0.02
            a_t, len_t = int(rng.integers(5, 15)), int(rng.integers(3, 10))
            tc = np.zeros(a_t + len_t, dtype=complex)
            tc[a_t:] = rng.standard_normal(len_t) + 1j * rng.standard_normal(len_t)
            tc[a_t] = 1.0 + 0.5 * rng.uniform()
            a_g, len_g = a_t + int(rng.integers(1, 10)), int(rng.integers(5, 40))
            gc = np.zeros(a_g + len_g, dtype=complex)
            gc[a_g:] = rng.standard_normal(len_g) + 1j * rng.standard_normal(len_g)
            result = principal_density_check(
                GridFunction(h=h, coeffs=tc), GridFunction(h=h, coeffs=gc), w
            )
            assert result.residual < 1e-8


def sequential_density_solve(t_f, g, k0):
    """The forward substitution ``principal_density_check`` ran as a double
    Python loop before the band solve, kept as the reference."""
    h, fcoef = t_f.h, t_f.coeffs
    lead = h * fcoef[k0]
    length = len(g.coeffs) - k0
    u = np.zeros(length, dtype=complex)
    for m in range(length):
        acc = g.coeffs[m + k0]
        jmax = min(len(fcoef) - 1, m + k0)
        for j in range(k0 + 1, jmax + 1):
            acc -= h * fcoef[j] * u[m + k0 - j]
        u[m] = acc / lead
    return u


def _density_instance(rng, lead_at, width, shift, length, h=0.02):
    """``t_f`` supported on ``[lead_at, lead_at + width)`` and ``g`` on
    ``[lead_at + shift, lead_at + shift + length)``, both with random entries."""
    tc = np.zeros(lead_at + width, dtype=complex)
    tc[lead_at:] = complex_normal(rng, width)
    tc[lead_at] = (1.0 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    gc = np.zeros(lead_at + shift + length, dtype=complex)
    gc[lead_at + shift :] = complex_normal(rng, length)
    return GridFunction(h=h, coeffs=tc), GridFunction(h=h, coeffs=gc)


@pytest.fixture
def ztbtrs_calls(monkeypatch):
    calls = []
    ztbtrs = scipy.linalg.lapack.ztbtrs

    def counting(ab, b, *args, **kwargs):
        calls.append((ab.shape, b.shape))
        return ztbtrs(ab, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "ztbtrs", counting)
    return calls


class TestDensityBandSolve:
    """The LAPACK band solve against the Python forward substitution."""

    @pytest.mark.parametrize(
        "width, shift, length",
        [
            (40, 1, 12),  # band wider than the system
            (6, 3, 50),  # band narrower than the system
            (1, 2, 30),  # one wide: t_f is a delta
            (25, 1, 25),  # band as wide as the system
        ],
    )
    def test_matches_the_forward_substitution(self, width, shift, length, ztbtrs_calls):
        w = make_weight("gaussian")
        rng = np.random.default_rng(width * 1000 + length)
        for _ in range(20):
            t_f, g = _density_instance(rng, int(rng.integers(0, 8)), width, shift, length)
            k0 = alpha_index(t_f)
            ztbtrs_calls.clear()
            got = principal_density_check(t_f, g, w).solution.coeffs
            ref = sequential_density_solve(t_f, g, k0)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
            # one solve, from a band cut at the last row of the system
            system = len(g.coeffs) - k0
            assert ztbtrs_calls == [((min(width, system), system), (system, 1))]

    def test_zero_length_system_makes_no_solve(self, ztbtrs_calls):
        # g vanishes, so it has no support to order against t_f's, and its
        # grid ends before t_f's leading index: nothing to solve
        w = make_weight("gaussian")
        g = GridFunction(h=0.1, coeffs=np.zeros(3, dtype=complex))
        result = principal_density_check(grid_delta(0.1, index=5), g, w)
        assert result.residual == 0.0
        np.testing.assert_array_equal(result.solution.coeffs, [0.0])
        assert ztbtrs_calls == []

    def test_budget_caps_the_system_length(self, ztbtrs_calls, monkeypatch):
        w = make_weight("gaussian")
        t_f, g = _density_instance(np.random.default_rng(11), 4, 5, 2, 30)
        length = len(g.coeffs) - alpha_index(t_f)
        monkeypatch.setattr(domar, "PRINCIPAL_DENSITY_BUDGET", length - 1)
        with pytest.raises(ValueError, match="exceeds budget"):
            principal_density_check(t_f, g, w)
        assert ztbtrs_calls == []
        monkeypatch.setattr(domar, "PRINCIPAL_DENSITY_BUDGET", length)
        principal_density_check(t_f, g, w)
        assert len(ztbtrs_calls) == 1

    def test_failed_solve_raises(self, monkeypatch):
        w = make_weight("gaussian")
        t_f, g = _density_instance(np.random.default_rng(12), 2, 3, 1, 10)
        monkeypatch.setattr(
            scipy.linalg.lapack, "ztbtrs", lambda ab, b, **kw: (b.copy(), 1)
        )
        with pytest.raises(ValueError, match="info=1"):
            principal_density_check(t_f, g, w)


class TestBumpCai:
    def test_weighted_mass_approaches_one(self):
        w = make_weight("gaussian")
        report = bump_cai_check([0.4, 0.2, 0.1], w, [grid_delta(0.01)])
        masses = [row["l1_norm"] for row in report.rows]
        assert masses[0] < masses[1] < masses[2] <= 1.0
        assert 0.99 < masses[2] <= 1.0  # eps = 0.1

    def test_probe_defect_decreases(self):
        w = make_weight("gaussian")
        probe = grid_indicator(0.01, 1.0, 2.0)
        report = bump_cai_check([0.4, 0.2, 0.1, 0.05], w, [probe])
        defects = [row["probe_defects"][0] for row in report.rows]
        assert all(defects[i + 1] < defects[i] for i in range(3))

    def test_grid_floor(self):
        # Below one cell the bump saturates at the grid resolution.
        w = make_weight("gaussian")
        report = bump_cai_check([0.01, 0.001], w, [grid_delta(0.01)])
        assert report.rows[0]["eps_effective"] == pytest.approx(0.01)
        assert report.rows[1]["eps_effective"] == pytest.approx(0.01)

    def test_step_mismatch_rejected(self):
        w = make_weight("gaussian")
        with pytest.raises(ValueError):
            bump_cai_check([0.1], w, [grid_delta(0.1), grid_delta(0.2)])
        with pytest.raises(ValueError, match="probe"):
            bump_cai_check([0.1], w, [])
