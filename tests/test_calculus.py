import numpy as np
import pytest
import scipy.linalg
from draws import random_singular_cone_element
from hypothesis import given, settings
from hypothesis import strategies as st

from oalab import calculus
from oalab.calculus import (
    _SCALAR_PARLETT_MAX,
    RecurrenceBreakdown,
    _blocked_power,
    _checked_sylvester,
    _cluster_labels,
    _guarded_parlett,
    _triangular_power,
    matrix_power_r,
    matrix_powers,
    spectral_idempotent,
)
from oalab.cone import in_F
from oalab.matcore import (
    SpectralGapError,
    SpectrumError,
    complex_schur,
    matrix_span,
    operator_norm,
    rounding_allowance,
    spectrum,
)
from oalab.sampling import (
    complex_normal,
    haar_unitaries,
    random_contraction,
    random_normal_singular_cone_element,
)


class TestMatrixPower:
    def test_jordan_block_square_root(self):
        # hand computation: f(1 + N) = 1 + r N for a nilpotent N of order 2
        x = np.array([[1.0, 1.0], [0.0, 1.0]])
        got = matrix_power_r(x, 0.5)
        np.testing.assert_allclose(got, [[1.0, 0.5], [0.0, 1.0]], atol=1e-12)

    def test_diagonal_principal_powers(self):
        x = np.diag([2.0, 1.0, 0.25])
        got = matrix_power_r(x, 0.5)
        np.testing.assert_allclose(got, np.diag([np.sqrt(2.0), 1.0, 0.5]), atol=1e-12)

    def test_zero_matrix_power_is_zero(self):
        got = matrix_power_r(np.zeros((3, 3)), 0.3)
        assert np.all(got == 0)

    def test_square_root_round_trip(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            dim = int(rng.integers(1, 9))
            x = np.eye(dim) - random_contraction(rng, dim)
            root = matrix_power_r(x, 0.5)
            np.testing.assert_allclose(root @ root, x, atol=1e-8)

    def test_round_trip_with_exact_kernel(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            x = random_singular_cone_element(rng, 5, kernel_dim=2)
            root = matrix_power_r(x, 0.5)
            np.testing.assert_allclose(root @ root, x, atol=1e-7)
            # the kernel is preserved: x v = 0 implies x^(1/2) v = 0
            _, _, vh = np.linalg.svd(x)
            kernel = vh[3:].conj().T
            assert operator_norm(np.eye(5) - x) <= 1 + 1e-9
            assert np.linalg.norm(root @ kernel) < 1e-6

    def test_power_composition(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            x = np.eye(5) - random_contraction(rng, 5)
            via_chain = matrix_power_r(matrix_power_r(x, 0.5), 1 / 3)
            direct = matrix_power_r(x, 1 / 6)
            np.testing.assert_allclose(via_chain, direct, atol=1e-9)

    def test_cone_preserved_by_roots(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            dim = int(rng.integers(1, 8))
            x = np.eye(dim) - random_contraction(rng, dim)
            for r in (0.2, 1 / 3, 0.5, 0.9):
                y = matrix_power_r(x, r)
                assert operator_norm(np.eye(len(y)) - y) <= 1 + 1e-8

    def test_half_cone_preserved_by_roots(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            dim = int(rng.integers(1, 7))
            x = (np.eye(dim) - random_contraction(rng, dim)) / 2
            for r in (1 / 3, 0.5):
                y = matrix_power_r(x, r)
                assert in_F(2 * y)

    def test_commutes_with_argument(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            x = np.eye(6) - random_contraction(rng, 6)
            y = matrix_power_r(x, 0.4)
            assert operator_norm(x @ y - y @ x) < 1e-10

    def test_power_lies_in_generated_algebra(self):
        rng = np.random.default_rng(48)
        for _ in range(10):
            dim = int(rng.integers(2, 8))
            x = np.eye(dim) - random_contraction(rng, dim)
            powers = [np.linalg.matrix_power(x, k) for k in range(1, dim + 1)]
            span = matrix_span(powers)
            assert span.residual(matrix_power_r(x, 0.5).ravel()) < 1e-8

    def test_against_scipy_on_invertible_samples(self):
        rng = np.random.default_rng(49)
        for dim in range(1, 7):
            checked = 0
            while checked < 15:
                x = np.eye(dim) - random_contraction(rng, dim)
                if np.linalg.svd(x, compute_uv=False)[-1] < 1e-3:
                    continue
                for r in (0.5, 1 / 3):
                    want = scipy.linalg.fractional_matrix_power(x, r)
                    np.testing.assert_allclose(matrix_power_r(x, r), want, atol=1e-9)
                checked += 1

    def test_roots_of_half_an_element_lie_in_narrowing_wedges(self):
        # Kato: W((x/2)^(1/k)) lies in |arg z| <= rho = pi/(2k).  For
        # rho <= pi/2 that wedge is the two half-planes Re(e^{-i phi} z) <= 0
        # with phi = +-(pi/2 + rho), and W(u) lies in such a half-plane iff
        # lambda_max(Re(e^{-i phi} u)) <= 0: no sweep, so no grid slack.
        rng = np.random.default_rng(42)
        for _ in range(12):
            dim = int(rng.integers(2, 7))
            x = np.eye(dim) - random_contraction(rng, dim)
            for k in range(1, 6):
                u = matrix_power_r(x / 2, 1 / k)
                edge = np.pi / 2 + np.pi / (2 * k)
                for phase in (np.exp(-1j * edge), np.exp(1j * edge)):
                    top = np.linalg.eigvalsh((phase * u + np.conj(phase) * u.conj().T) / 2)[-1]
                    assert top <= rounding_allowance(operator_norm(u)), (k, top)

    def test_exponent_one_is_identity_map(self):
        x = np.eye(4) - random_contraction(np.random.default_rng(50), 4)
        np.testing.assert_allclose(matrix_power_r(x, 1.0), x, atol=0)

    @pytest.mark.parametrize("kind", ["generic", "normal-singular"])
    def test_powers_of_one_element_match_one_at_a_time(self, kind):
        # One Schur form serves every exponent, r = 1 among them, and each
        # power is bit for bit the one a single-exponent call returns.
        rng = np.random.default_rng(54)
        rs = (0.5, 1.0, 1.0 / 3.0, 0.25, 0.2, 0.7)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            if kind == "generic" or n == 1:
                x = np.eye(n) + random_contraction(rng, n)
            else:
                x = random_normal_singular_cone_element(rng, n)
            powers = matrix_powers(x, rs)
            assert len(powers) == len(rs)
            for r, power in zip(rs, powers):
                np.testing.assert_array_equal(power, matrix_power_r(x, r))
        assert matrix_powers(np.eye(2), ()) == []

    def test_powers_reject_any_bad_exponent(self):
        with pytest.raises(ValueError, match="1.5"):
            matrix_powers(np.eye(2), (0.5, 1.5))

    def test_rejects_non_cone_input(self):
        with pytest.raises(ValueError):
            matrix_power_r(np.diag([3.0, 1.0]), 0.5)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            matrix_power_r(np.eye(2), 1.5)

    @pytest.mark.parametrize(
        "power, message",
        [
            (3.0 * np.eye(2), "left the cone"),
            (np.array([[0.5, 0.5], [0.0, 0.5]]), "does not commute"),
        ],
    )
    def test_post_checks_raise(self, monkeypatch, power, message):
        # a kernel that returns a wrong power must be caught by the check it
        # violates (the second power has ||1 - y|| = 0.81, so only the
        # commutator check fails), and the message carries the exact norm
        x = np.diag([0.5, 1.0])
        monkeypatch.setattr(calculus, "_triangular_power", lambda t, z, r: power.astype(complex))
        with pytest.raises(RecurrenceBreakdown, match=message) as info:
            matrix_power_r(x, 0.5)
        defect = np.eye(2) - power if message == "left the cone" else power @ x - x @ power
        assert float(str(info.value).rsplit(" ", 1)[1]) == operator_norm(defect.astype(complex))

    @pytest.mark.parametrize(
        "call, args", [(matrix_power_r, (0.5,)), (spectral_idempotent, (0.5,)), (spectrum, ())]
    )
    def test_failed_schur_iteration_raises(self, monkeypatch, call, args):
        # a zgees that reports a failed QR iteration (info > 0) must not hand
        # its unfinished Schur form to any caller
        zgees = scipy.linalg.lapack.zgees

        def failing(select, a, lwork):
            result = zgees(select, a, lwork=lwork)
            return result if lwork == -1 else (*result[:-1], 2)

        monkeypatch.setattr(scipy.linalg.lapack, "zgees", failing)
        x = np.eye(4) - random_contraction(np.random.default_rng(52), 4)
        with pytest.raises(SpectrumError, match="info=2"):
            call(x, *args)

    def test_guarded_parlett_reports_breakdown(self):
        # three almost identical tiny eigenvalues with strong coupling defeat
        # the recurrence; this must surface, not silently amplify noise
        block = np.array(
            [
                [1e-6, 2e-6, 2e-6],
                [0.0, 1.0000001e-6, 2e-6],
                [0.0, 0.0, 1.00000011e-6],
            ],
            dtype=complex,
        )
        with pytest.raises(RecurrenceBreakdown):
            _guarded_parlett(block, 0.5)


def _diagonalizable_triangular(diag, seed):
    """(w, t) with t = w diag(d) w^-1 upper triangular and w unit upper
    triangular, so t is diagonalizable even where d repeats."""
    rng = np.random.default_rng(seed)
    n = len(diag)
    w = np.eye(n) + 0.3 * np.triu(complex_normal(rng, (n, n)), 1)
    t = np.triu(w @ np.diag(diag) @ np.linalg.inv(w))
    t[np.diag_indices(n)] = diag
    return w, t


class TestTriangularKernel:
    def test_separated_eigenvalues_are_singletons(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            diag = 0.9 * np.exp(2j * np.pi * rng.uniform(size=n)) * rng.uniform(size=n)
            gaps = np.abs(diag[:, None] - diag[None, :]) + np.eye(n)
            if gaps.min() > calculus.DEFAULT_CLUSTER_TOL:
                np.testing.assert_array_equal(_cluster_labels(diag), np.arange(n))

    @pytest.mark.parametrize(
        "n, kernel_dim",
        [
            (n, k)
            for n in (*range(1, 10), _SCALAR_PARLETT_MAX, _SCALAR_PARLETT_MAX + 1, 64, 200)
            for k in (0, 1)
            if k < n
        ],
    )
    def test_scalar_recurrence_matches_the_blocked_path(self, n, kernel_dim):
        # a separated spectrum, with or without a simple zero eigenvalue, takes
        # Parlett's scalar recurrence, on Python lists up to
        # _SCALAR_PARLETT_MAX and by vectorized superdiagonals above; the
        # blocked path, called directly on the same Schur pair, runs the same
        # recurrence by Sylvester solves
        rng = np.random.default_rng(62 + n)
        if kernel_dim:
            x = random_singular_cone_element(rng, n, kernel_dim=kernel_dim)
        else:
            x = np.eye(n) - random_contraction(rng, n)
        t, z = complex_schur(x)
        labels = _cluster_labels(np.diag(t))
        np.testing.assert_array_equal(labels, np.arange(n))
        bound = 1e-13 * max(1.0, operator_norm(x))
        for r in (1 / 2, 1 / 3, 1 / 4, 1 / 5):
            scalar = _triangular_power(t, z, r)
            assert operator_norm(scalar - _blocked_power(t, z, labels, r)) <= bound, r

    def test_interleaved_clusters_are_reordered(self, monkeypatch):
        diag = np.array([0.9, 0.5, 0.9 + 3e-5, 0.3, 0.5 - 2e-5, 0.9 - 4e-5], dtype=complex)
        assert list(_cluster_labels(diag)) == [0, 1, 0, 2, 1, 0]
        atomic_diags = []
        atomic = calculus._atomic_power
        monkeypatch.setattr(
            calculus, "_atomic_power", lambda b, r: atomic_diags.append(np.diag(b)) or atomic(b, r)
        )
        w, t = _diagonalizable_triangular(diag, 60)
        y = _triangular_power(t, np.eye(len(diag), dtype=complex), 1 / 3)
        # one contiguous block per cluster, in order of first appearance
        assert [len(d) for d in atomic_diags] == [3, 2, 1]
        for d, center in zip(atomic_diags, (0.9, 0.5, 0.3)):
            np.testing.assert_allclose(d, center, atol=1e-4)
        want = scipy.linalg.fractional_matrix_power(t, 1 / 3)
        np.testing.assert_allclose(y, want, atol=1e-10)
        np.testing.assert_allclose(y, w @ np.diag(diag ** (1 / 3)) @ np.linalg.inv(w), atol=1e-10)
        np.testing.assert_allclose(np.linalg.matrix_power(y, 3), t, atol=1e-10)

    def test_interleaved_zero_cluster_maps_to_zero(self):
        diag = np.array([0.0, 0.7, 0.0, 0.4, 0.7 + 2e-5], dtype=complex)
        w, t = _diagonalizable_triangular(diag, 61)
        y = _triangular_power(t, np.eye(len(diag), dtype=complex), 0.5)
        kernel = w[:, diag == 0]
        assert np.linalg.norm(y @ kernel) <= 1e-14
        np.testing.assert_allclose(y @ y, t, atol=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 8),
        kernel_dim=st.integers(0, 7),
        clustered=st.booleans(),
        p=st.sampled_from([2, 3, 4]),
    )
    def test_roots_of_singular_and_clustered_elements(self, seed, dim, kernel_dim, clustered, p):
        # x = U (0_k (+) b) U*, so ker x = U[:, :k] with k < dim; b is generic,
        # or has its spectrum in two tight clusters kept away from 0, coupled
        # only across clusters so that neither cluster is nearly defective
        rng = np.random.default_rng(seed)
        k = min(kernel_dim, dim - 1)
        m = dim - k
        if clustered:
            centers = 0.6 * np.exp(2j * np.pi * rng.uniform(size=2))
            member = rng.integers(0, 2, m)
            tri = np.diag(centers[member] + 1e-7 * complex_normal(rng, m))
            across = member[:, None] != member[None, :]
            tri += 0.3 * np.triu(complex_normal(rng, (m, m)) * across, 1)
            v = haar_unitaries(rng, 1, m)[0]
            c = v @ tri @ v.conj().T
            b = np.eye(m) - c / max(1.0, np.linalg.norm(c, 2))
        else:
            b = np.eye(m) - random_contraction(rng, m)
        u = haar_unitaries(rng, 1, dim)[0]
        x = np.zeros((dim, dim), dtype=complex)
        x[k:, k:] = b
        x = u @ x @ u.conj().T
        y = matrix_power_r(x, 1 / p)
        np.testing.assert_allclose(np.linalg.matrix_power(y, p), x, atol=1e-7)
        assert operator_norm(np.eye(dim) - y) <= 1 + 1e-8
        assert np.linalg.norm(y @ u[:, :k]) <= 1e-8


class TestSpectralIdempotent:
    def test_orthogonal_case(self):
        e = spectral_idempotent(np.diag([2.0, 0.0]), radius=1.0)
        np.testing.assert_allclose(e, np.diag([0.0, 1.0]), atol=1e-12)

    def test_oblique_case(self):
        # eigenvalues 0 and 2; the 0-eigenprojection along span{(5, 2)} is
        # [[1, -2.5], [0, 0]]
        x = np.array([[0.0, 5.0], [0.0, 2.0]])
        e = spectral_idempotent(x, radius=1.0)
        np.testing.assert_allclose(e, [[1.0, -2.5], [0.0, 0.0]], atol=1e-12)

    def test_complement_at_larger_radius(self):
        x = np.array([[0.0, 5.0], [0.0, 2.0]])
        e_all = spectral_idempotent(x, radius=3.0)
        np.testing.assert_allclose(e_all, np.eye(2), atol=1e-12)

    def test_empty_inside(self):
        e = spectral_idempotent(np.diag([2.0, 3.0]), radius=1.0)
        np.testing.assert_allclose(e, np.zeros((2, 2)), atol=0)

    def test_idempotent_and_commuting_randomly(self):
        rng = np.random.default_rng(58)
        for _ in range(10):
            x = random_singular_cone_element(rng, 6, kernel_dim=2)
            # kernel eigenvalues ~0, the rest bounded away by construction
            e = spectral_idempotent(x, radius=5e-4)
            np.testing.assert_allclose(e @ e, e, atol=1e-9)
            np.testing.assert_allclose(e @ x, x @ e, atol=1e-9)
            assert abs(np.trace(e).real - 2) < 1e-6

    def test_matches_the_sorted_schur_reference(self):
        # one unsorted zgees and a ztrsen reordering give, bit for bit, the
        # idempotent of scipy's sorted Schur form, where zgees runs the same
        # QR iteration and ztrsen internally
        def reference(x, radius):
            t, z, k = scipy.linalg.schur(x, output="complex", sort=lambda lam: abs(lam) < radius)
            e = np.zeros_like(t)
            e[:k, :k] = np.eye(k)
            e[:k, k:] = _checked_sylvester(t[:k, :k], t[k:, k:], t[:k, k:])
            return z @ e @ z.conj().T

        rng = np.random.default_rng(63)
        for dim, kernel_dim in ((2, 1), (5, 2), (8, 3), (64, 16)):
            x = random_singular_cone_element(rng, dim, kernel_dim=kernel_dim)
            np.testing.assert_array_equal(spectral_idempotent(x, 5e-4), reference(x, 5e-4))

    def test_gap_violation_raises(self):
        with pytest.raises(SpectralGapError):
            spectral_idempotent(np.diag([1.05, 0.2]), radius=1.0)
