"""Tests for numerical-range sampling, the radius bracket, and the two-norm rank test."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from draws import random_singular_cone_element

from oalab.matcore import (
    CrossCheckError,
    operator_norm,
    rounding_allowance,
    stack_slices,
    to_jsonable,
)
from oalab.sampling import complex_normal, haar_unitaries, random_contraction
from oalab.spectral import numerical_range, sharp_neumann


class TestNumericalRange:
    def test_hermitian_range_is_real_segment(self):
        x = np.diag([-1.0, 0.25, 2.0]).astype(np.complex128)
        sample = numerical_range(x, theta_count=360)
        npt.assert_allclose(sample.boundary_points.imag, 0.0, atol=1e-10)
        assert np.all(sample.boundary_points.real >= -1.0 - 1e-10)
        assert np.all(sample.boundary_points.real <= 2.0 + 1e-10)
        npt.assert_allclose(sample.radius, 2.0, atol=1e-12)

    def test_nilpotent_two_by_two_is_centered_disk(self):
        # For [[0, 2a], [0, 0]] the numerical range is the disk of radius a
        # centered at the origin, so every support value equals a.
        a = 0.7
        x = np.array([[0.0, 2 * a], [0.0, 0.0]], dtype=np.complex128)
        sample = numerical_range(x, theta_count=256)
        npt.assert_allclose(sample.support_values, a, atol=1e-10)
        npt.assert_allclose(np.abs(sample.boundary_points), a, atol=1e-10)
        npt.assert_allclose(sample.radius, a, atol=1e-10)

    def test_normal_matrix_radius_matches_spectral_radius(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            n = int(rng.integers(2, 6))
            lams = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            u = haar_unitaries(rng, 1, n)[0]
            x = u @ np.diag(lams) @ u.conj().T
            sample = numerical_range(x, theta_count=1440)
            # For a normal matrix the range is the convex hull of the
            # eigenvalues, so the numerical radius is max |lambda|.
            npt.assert_allclose(sample.radius, np.max(np.abs(lams)), rtol=1e-4)

    def test_radius_norm_sandwich(self):
        # nu <= ||x|| <= 2 nu, read off the two ends of the bracket
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            x = complex_normal(rng, (d, d))
            sample = numerical_range(x, theta_count=720)
            nrm = operator_norm(x)
            assert sample.radius <= nrm + rounding_allowance(nrm)
            assert nrm <= 2.0 * sample.radius_upper

    @pytest.mark.parametrize("theta_count", [8, 9, 360, 361])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_radius_bracket_on_the_shift(self, n, theta_count):
        # W of the n x n shift is the disk of radius cos(pi/(n+1)), so the
        # lower end sits on nu; at n = 5 it rounds 6e-16 above it
        x = np.eye(n, k=1, dtype=complex)
        nu = np.cos(np.pi / (n + 1))
        sample = numerical_range(x, theta_count)
        a = rounding_allowance(operator_norm(x))
        assert sample.radius - a <= nu <= sample.radius_upper

    @pytest.mark.parametrize("theta_count", [8, 9, 360, 361])
    def test_radius_bracket_on_boundary_elements(self, theta_count):
        # 1 + u with u unitary is normal, so W is the hull of its spectrum and
        # nu = max |1 + lambda_i|; a coarse grid leaves h well below nu
        rng = np.random.default_rng(13)
        for n in range(1, 7):
            for u in haar_unitaries(rng, 4, n):
                x = np.eye(n) + u
                nu = np.max(np.abs(1.0 + np.linalg.eigvals(u)))
                sample = numerical_range(x, theta_count)
                a = rounding_allowance(operator_norm(x))
                assert sample.radius - a <= nu <= sample.radius_upper, n

    @pytest.mark.parametrize("n", [45, 46, 64, 128])
    def test_top_pair_path_matches_full_eigh(self, n):
        # From n = 46 on, each block holds one matrix and only its top
        # eigenpair is computed; n = 45 is the last stacked size.
        count = 48
        assert all(b.stop - b.start == 1 for b in stack_slices(count, n)) == (n >= 46)
        x = np.eye(n) - random_contraction(np.random.default_rng(n), n) + complex_normal(
            np.random.default_rng(n + 1), (n, n)
        )
        sample = numerical_range(x, count)
        thetas = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        scale = operator_norm(x)
        for j, theta in enumerate(thetas):
            phase = np.exp(-1j * theta)
            w, v = np.linalg.eigh((phase * x + np.conj(phase) * x.conj().T) / 2.0)
            top = v[:, -1]
            assert abs(sample.support_values[j] - w[-1]) <= 1e-12 * scale
            assert abs(sample.boundary_points[j] - np.vdot(top, x @ top)) <= 1e-10

    def test_rejects_tiny_sweep(self):
        with pytest.raises(ValueError):
            numerical_range(np.eye(2), theta_count=4)


def _sweep_inputs(n):
    """Random, identity, zero, Jordan nilpotent, Hermitian and rank-one n x n."""
    rng = np.random.default_rng(1000 + n)
    g = complex_normal(rng, (n, n))
    u, v = complex_normal(rng, (2, n))
    return {
        "random": g,
        "identity": np.eye(n, dtype=complex),
        "zero": np.zeros((n, n), dtype=complex),
        "nilpotent": np.eye(n, k=1, dtype=complex),
        "hermitian": g + g.conj().T,
        "rank-one": np.outer(u, v.conj()),
    }


def _assert_on_own_support_lines(x, theta_count, label=""):
    """Support values within 1e-12 max(1, ||x||) of the per-angle
    ``eigvalsh(H_theta)[-1]``, and boundary points on those lines."""
    sample = numerical_range(x, theta_count)
    thetas = np.linspace(0.0, 2.0 * np.pi, theta_count, endpoint=False)
    phases = np.exp(-1j * thetas)
    h = (phases[:, None, None] * x + np.conj(phases)[:, None, None] * x.conj().T) / 2.0
    top = np.linalg.eigvalsh(h)[:, -1]
    bound = 1e-12 * max(1.0, operator_norm(x))
    assert np.max(np.abs(sample.support_values - top)) <= bound, label
    assert np.max(np.abs((phases * sample.boundary_points).real - top)) <= bound, label
    assert sample.radius == np.max(sample.support_values)


class TestPairedSweep:
    """An even sweep reads each antipode off the bottom eigenpair of the
    same factorization; every direction must still carry its own support
    value and a boundary point on its own support line."""

    @pytest.mark.parametrize("theta_count", [8, 9, 240, 241])
    @pytest.mark.parametrize("n", [1, 2, 45, 46, 64])
    def test_support_lines_match_per_angle_eigvalsh(self, n, theta_count):
        for name, x in _sweep_inputs(n).items():
            _assert_on_own_support_lines(x, theta_count, name)

    @pytest.mark.parametrize("n, theta_count", [(1, 4097), (1, 8194), (2, 1025), (2, 2050)])
    def test_trailing_single_direction_block_at_small_n(self, n, theta_count):
        # stack_slices leaves a last block of one direction here
        _assert_on_own_support_lines(complex_normal(np.random.default_rng(n), (n, n)), theta_count)

    @pytest.mark.parametrize("theta_count", [8, 9, 240, 241])
    @pytest.mark.parametrize("n", [45, 46, 64])
    def test_one_tridiagonalization_per_antipodal_pair(self, monkeypatch, n, theta_count):
        calls = []
        zhetrd = scipy.linalg.lapack.zhetrd

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return zhetrd(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "zhetrd", counting)
        numerical_range(complex_normal(np.random.default_rng(n), (n, n)), theta_count)
        solved = theta_count // 2 if theta_count % 2 == 0 else theta_count
        # n = 45 stacks two directions per np.linalg.eigh call; a last block
        # of one direction takes the tridiagonal route
        expected = solved if n >= 46 else solved % 2
        assert calls == [(n, n)] * expected


class TestSharpNeumann:
    def test_identity_is_invertible(self):
        res = sharp_neumann(np.eye(3))
        assert not res.singular
        npt.assert_allclose(res.norm_one_minus, 0.0, atol=1e-12)
        npt.assert_allclose(res.norm_one_minus_half, 0.5, atol=1e-12)

    def test_exactly_singular_element_hits_both_norms(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = random_singular_cone_element(rng, int(rng.integers(2, 7)))
            res = sharp_neumann(x)
            assert res.singular
            npt.assert_allclose(res.norm_one_minus, 1.0, atol=1e-9)
            npt.assert_allclose(res.norm_one_minus_half, 1.0, atol=1e-9)
            assert res.sigma_min <= 1e-8

    def test_strict_elements_are_invertible(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            x = np.eye(dim) - random_contraction(rng, dim, radius=0.95)
            res = sharp_neumann(x)
            assert not res.singular
            assert res.norm_one_minus_half < 1.0 - 1e-6

    def test_precondition_is_enforced(self):
        with pytest.raises(ValueError):
            sharp_neumann(-np.eye(2))

    def test_route_disagreement_is_loud(self):
        # sigma_min = 2e-7 is large enough for the rank oracle to call the
        # matrix invertible, yet both norms sit within NEUMANN_BAND of 1, so
        # the norm route calls it singular; the conflict must surface.
        t = np.diag([2e-7, 1.0]).astype(np.complex128)
        with pytest.raises(CrossCheckError):
            sharp_neumann(t)

    @pytest.mark.xfail(
        raises=CrossCheckError, strict=True,
        reason="the band and the rank cutoff need one decision with an open middle "
        "(directions 8 and 11)",
    )
    def test_element_between_the_cutoff_and_the_band_gets_a_verdict(self):
        # diag(0.5, 1e-7) is in the cone; sigma_min is above the rank cutoff
        # but inside the band's resolution, so the two routes disagree.
        sharp_neumann(np.diag([0.5, 1e-7]))

    def test_json_fields(self):
        res = sharp_neumann(np.eye(2))
        payload = to_jsonable(res)
        assert set(payload) == {
            "singular",
            "norm_one_minus",
            "norm_one_minus_half",
            "sigma_min",
        }
