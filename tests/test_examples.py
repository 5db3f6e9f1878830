"""Tests for the example algebras and the discretized integration operator."""

import numpy as np
import numpy.testing as npt
import pytest

from oalab.algebra import ball_margins, ball_samples, idempotent_witnesses
from oalab.cone import in_F
from oalab import examples
from oalab.examples import example_rdr, example_two_dim, volterra, volterra_norm
from oalab.matcore import (
    ConvergenceError,
    linear_combination,
    operator_norm,
    operator_norms,
    spectral_radius,
)


def sequential_commutator_norms(n):
    """``||[p, R*R]||`` for each diagonal 0/1 projection ``p``, in bit-mask
    order, by the per-mask loop of matrix products and SVDs that
    ``example_rdr`` ran before its stacked form; kept as the reference."""
    r = np.eye(n, dtype=complex) + np.diag(np.full(n - 1, 0.5), 1)
    gram = r.conj().T @ r
    norms = []
    for mask in range(1, 2**n - 1):
        diag = np.array([(mask >> k) & 1 for k in range(n)], dtype=float)
        p = np.diag(diag).astype(complex)
        norms.append(operator_norm(p @ gram - gram @ p))
    return np.array(norms)


class TestTwoDimAlgebra:
    def test_structure(self):
        alg = example_two_dim()
        assert alg.ambient_dim == 2
        assert alg.dim == 2
        assert alg.unital
        npt.assert_allclose(alg.unit, np.eye(2), atol=1e-9)

    def test_elements_have_difference_corner(self):
        alg = example_two_dim()
        x = linear_combination(np.array([0.3 - 1j, 0.7j]), alg.basis)
        s, t = x[0, 0], x[1, 1]
        npt.assert_allclose(x[0, 1], s - t, atol=1e-12)
        npt.assert_allclose(x[1, 0], 0.0, atol=1e-12)

    def test_corner_generator_is_idempotent_inside(self):
        alg = example_two_dim()
        b = np.array([[1.0, 1.0], [0.0, 0.0]])
        npt.assert_allclose(b @ b, b, atol=1e-12)
        assert alg.contains(b @ b)

    def test_ball_conditions_pass(self):
        alg = example_two_dim()
        samples = ball_samples(np.random.default_rng(1), alg, 60)
        assert len(samples) == 60
        for a in samples:
            assert all(m > 0 for m in ball_margins(a, alg.unit).values())
        assert idempotent_witnesses(alg) == []


class TestRdrExample:
    def test_two_by_two_commutator_is_half(self):
        # R*R = [[1, 1/2], [1/2, 5/4]]; cutting the diagonal leaves the
        # antisymmetric off-diagonal block of norm exactly 1/2.
        ex = example_rdr(2)
        npt.assert_allclose(ex.min_commutator, 0.5, atol=1e-12)

    def test_gap_is_uniform_up_to_eight(self):
        for n in (3, 5, 8):
            ex = example_rdr(n)
            npt.assert_allclose(ex.min_commutator, 0.5, atol=1e-10)
            assert ex.min_commutator > 1e-6

    def test_basis_is_a_resolution_of_identity(self):
        ex = example_rdr(4)
        total = np.zeros((4, 4), dtype=complex)
        for i, b in enumerate(ex.basis):
            npt.assert_allclose(b @ b, b, atol=1e-12)
            total += b
            for j, c in enumerate(ex.basis):
                if i != j:
                    npt.assert_allclose(b @ c, 0.0, atol=1e-12)
        npt.assert_allclose(total, np.eye(4), atol=1e-12)

    def test_conjugation_data(self):
        ex = example_rdr(3)
        npt.assert_allclose(ex.r @ ex.r_inv, np.eye(3), atol=1e-12)
        npt.assert_allclose(ex.basis[0], ex.r @ np.diag([1.0, 0, 0]) @ ex.r_inv,
                            atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_commutator_norms_equal_the_per_mask_loop(self, n, monkeypatch):
        # every mask's norm, bit for bit and in mask order, not only the
        # minimum: that is 1/2 for every n and is reached by the first mask
        scored = []

        def recording(stack):
            scored.append(operator_norms(stack))
            return scored[-1]

        monkeypatch.setattr(examples, "operator_norms", recording)
        reference = sequential_commutator_norms(n)
        assert example_rdr(n).min_commutator == reference.min()
        assert np.array_equal(np.concatenate(scored), reference)

    def test_range_limits(self):
        with pytest.raises(ValueError):
            example_rdr(1)
        with pytest.raises(ValueError):
            example_rdr(13)


class TestVolterra:
    def test_entries(self):
        v = volterra(4)
        expected = np.array(
            [
                [0.125, 0, 0, 0],
                [0.25, 0.125, 0, 0],
                [0.25, 0.25, 0.125, 0],
                [0.25, 0.25, 0.25, 0.125],
            ]
        )
        npt.assert_allclose(v, expected, atol=1e-15)

    def test_constant_function_integrates_to_midpoints(self):
        # Applying the matrix to the all-ones vector must return the grid
        # midpoints exactly: the quadrature integrates constants exactly.
        n = 37
        v = volterra(n)
        mids = (np.arange(1, n + 1) - 0.5) / n
        npt.assert_allclose((v @ np.ones(n)).real, mids, atol=1e-14)

    def test_spectral_radius_is_half_cell(self):
        for n in (10, 100):
            npt.assert_allclose(spectral_radius(volterra(n)), 1.0 / (2 * n),
                                atol=1e-12)

    def test_norm_converges_to_continuous_value(self):
        errs = [abs(operator_norm(volterra(n)) - 2.0 / np.pi) for n in (50, 200)]
        assert errs[0] < 1e-4
        # midpoint quadrature is second order: quartering the step cuts the
        # error by about sixteen
        assert errs[1] < errs[0] / 12.0
        assert abs(operator_norm(volterra(500)) - 2.0 / np.pi) < 1e-5

    def test_small_size_rejected(self):
        with pytest.raises(ValueError):
            volterra(1)
        with pytest.raises(ValueError):
            volterra_norm(1)

    @pytest.mark.parametrize("n", [2, 3, 5, 400, 100_000])
    def test_matrix_free_norm_matches_closed_form(self, n):
        exact = 1.0 / (2.0 * n * np.tan(np.pi / (4.0 * n)))
        assert abs(volterra_norm(n) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("n", [2, 3, 5, 64, 500])
    def test_matrix_free_norm_matches_dense_svd(self, n):
        dense = operator_norm(volterra(n))
        assert abs(volterra_norm(n) - dense) <= 1e-14 * dense

    def test_matrix_free_norm_raises_when_the_step_cap_runs_out(self, monkeypatch):
        monkeypatch.setattr(examples, "_POWER_STEP_CAP", 3)
        with pytest.raises(ConvergenceError):
            volterra_norm(1000)

    def test_matrix_free_norm_is_reproducible(self):
        # The power iteration starts from a fixed vector, so reruns agree to
        # the bit.
        for n in (7, 1000):
            assert volterra_norm(n).hex() == volterra_norm(n).hex()

    def test_resolvent_normalization_yields_quasinilpotent_bai_elements(self):
        # No positive multiple of the matrix lies in the unit-shifted cone
        # (its Hermitian part is rank one), but the resolvent V(1+V)^{-1}
        # does, with spectral radius 1/(2n+1): a quasinilpotent cone element
        # to build approximate identities from.
        n = 100
        v = volterra(n)
        u = np.linalg.solve(np.eye(n) + v, v)
        assert not in_F(v / operator_norm(v))
        assert in_F(u)
        npt.assert_allclose(spectral_radius(u), 1.0 / (2 * n + 1), atol=1e-12)
