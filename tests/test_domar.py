"""Tests for the weighted convolution algebra on the half-line grid."""

import json
import math
import re

import numpy as np
import pytest

from oalab.domar import (
    GridFunction,
    RadicalWeight,
    alpha,
    alpha_index,
    bump_cai_check,
    convolve,
    domar_criterion_check,
    grid_delta,
    grid_indicator,
    make_weight,
    principal_density_check,
    quasinilpotence_estimate,
    quasinilpotence_root_bound,
    titchmarsh_check,
)


def flat_weight(horizon=30.0):
    return make_weight(
        "custom",
        omega=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        epsilon=0.5,
        horizon=horizon,
        description="constant weight",
    )


class TestWeights:
    def test_gaussian_values(self):
        w = make_weight("gaussian")
        assert w.omega(0.0) == 1.0
        np.testing.assert_allclose(w.omega(1.0), math.exp(-1.0), rtol=1e-15)
        np.testing.assert_allclose(w.eta(2.0), 4.0, rtol=1e-12)
        assert w.epsilon == 0.5

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

    def test_json_roundtrip_gaussian(self):
        w = make_weight("gaussian")
        again = RadicalWeight.from_json(w.to_json())
        assert again.kind == "gaussian"
        np.testing.assert_allclose(again.omega(1.5), math.exp(-2.25), rtol=1e-15)

    def test_json_roundtrip_custom(self):
        w = make_weight(
            "custom",
            omega=lambda t: np.exp(-np.asarray(t)),
            epsilon=0.25,
            horizon=12.0,
        )
        again = RadicalWeight.from_json(w.to_json())
        assert again.epsilon == 0.25
        np.testing.assert_allclose(again.omega(3.0), math.exp(-3.0), rtol=1e-9)


class TestGridFunctions:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridFunction(h=0.0, coeffs=np.ones(3))
        with pytest.raises(ValueError):
            GridFunction(h=0.1, coeffs=np.array([]))
        with pytest.raises(ValueError):
            GridFunction(h=0.1, coeffs=np.array([np.nan]))

    def test_indicator_support(self):
        f = grid_indicator(0.1, 0.3, 0.7)
        np.testing.assert_array_equal(f.coeffs[:3], 0.0)
        np.testing.assert_array_equal(f.coeffs[3:7], 1.0)
        assert alpha(f) == pytest.approx(0.3)

    def test_json_roundtrip(self):
        f = GridFunction(h=0.05, coeffs=np.array([1.0 + 2.0j, 0.0, -3.0j]))
        again = GridFunction.from_json(f.to_json())
        assert again.h == f.h
        np.testing.assert_array_equal(again.coeffs, f.coeffs)

    def test_json_shape(self):
        payload = json.loads(grid_delta(0.5).to_json())
        assert set(payload) == {"h", "coeffs"}
        assert payload["coeffs"] == [[2.0, 0.0]]


class TestConvolve:
    def test_delta_identity_dyadic_exact(self):
        rng = np.random.default_rng(0)
        h = 0.0625  # dyadic: h * (1/h) == 1.0 exactly
        g = GridFunction(
            h=h, coeffs=rng.standard_normal(12) + 1j * rng.standard_normal(12)
        )
        conv, _ = convolve(grid_delta(h), g, make_weight("gaussian"))
        np.testing.assert_array_equal(conv.coeffs, g.coeffs)

    def test_delta_identity_general_step(self):
        rng = np.random.default_rng(1)
        g = GridFunction(
            h=0.05, coeffs=rng.standard_normal(9) + 1j * rng.standard_normal(9)
        )
        conv, _ = convolve(grid_delta(0.05), g, make_weight("gaussian"))
        np.testing.assert_allclose(conv.coeffs, g.coeffs, rtol=1e-15)

    def test_triangle_quadrature(self):
        # Indicator of [0,1) convolved with itself is the unit triangle;
        # the discrete peak value is exactly 1.
        one = grid_indicator(0.1, 0.0, 1.0)
        tri, norms = convolve(one, one, flat_weight())
        assert np.max(np.abs(tri.coeffs)) == pytest.approx(1.0, abs=1e-14)
        assert norms["l1_f"] == pytest.approx(1.0, abs=1e-14)
        assert norms["l1_fg"] == pytest.approx(1.0, abs=1e-12)

    def test_step_mismatch_rejected(self):
        w = make_weight("gaussian")
        with pytest.raises(ValueError):
            convolve(grid_delta(0.1), grid_delta(0.2), w)

    def test_young_inequality_exact_on_grid(self):
        # Weighted Young: l2(f*g) <= l1(f) * l2(g) with no quadrature slack,
        # because index additivity matches submultiplicativity termwise.
        w = make_weight("gaussian")
        rng = np.random.default_rng(3)
        for _ in range(60):
            f = GridFunction(
                h=0.05,
                coeffs=rng.standard_normal(int(rng.integers(1, 30)))
                + 1j * rng.standard_normal(1),
            )
            g = GridFunction(
                h=0.05,
                coeffs=rng.standard_normal(int(rng.integers(1, 30)))
                + 1j * rng.standard_normal(1),
            )
            _, norms = convolve(f, g, w)
            assert norms["l2_fg"] <= norms["young_bound"] * (1 + 1e-12) + 1e-15

    def test_norm_keys(self):
        _, norms = convolve(grid_delta(0.5), grid_delta(0.5), make_weight("gaussian"))
        assert set(norms) == {
            "l1_f", "l1_g", "l1_fg", "l2_g", "l2_fg", "young_bound",
        }


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
        report = titchmarsh_check(200, seed=11)
        assert report.all_exact
        assert report.exact_matches == 200
        assert report.failures == []

    def test_titchmarsh_json(self):
        payload = json.loads(titchmarsh_check(5, seed=0).to_json())
        assert payload["trials"] == 5
        assert payload["exact_matches"] == 5


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
        with pytest.raises(ValueError):
            quasinilpotence_estimate(grid_indicator(0.05, 1.0, 2.0), w, 13)


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
        assert report.ratio_integral_error > 0.1  # non-decaying tail flagged

    def test_json(self):
        payload = json.loads(
            domar_criterion_check(make_weight("gaussian"), 1.0).to_json()
        )
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

    def test_budget_guard(self):
        w = make_weight("gaussian")
        with pytest.raises(ValueError):
            principal_density_check(
                grid_delta(0.1, index=1), grid_indicator(0.1, 1.0, 3.0), w, budget=5
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


class TestBumpCai:
    def test_weighted_mass_approaches_one(self):
        w = make_weight("gaussian")
        report = bump_cai_check([0.4, 0.2, 0.1], w, [], h=0.01)
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
        report = bump_cai_check([0.01, 0.001], w, [], h=0.01)
        assert report.rows[0]["eps_effective"] == pytest.approx(0.01)
        assert report.rows[1]["eps_effective"] == pytest.approx(0.01)

    def test_step_mismatch_rejected(self):
        w = make_weight("gaussian")
        with pytest.raises(ValueError):
            bump_cai_check([0.1], w, [grid_delta(0.1), grid_delta(0.2)])
