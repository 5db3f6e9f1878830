"""The algebra layer's array forms against the loops they replaced.

Matrix-unit bases come from one ``eye(n*n)[mask]`` selection, every
"products stay in a span" check is one stacked product plus one projection
(:meth:`Subspace.residuals`), the least-squares systems are stacked arrays
and the ball samples go through ``sampling.random_span_element``.  The loop
versions are kept here as references: bases and samples must be equal bit
for bit, residuals and solves within a tolerance fixed from the dtype.
"""

import numpy as np
import pytest

from oalab.algebra import (
    _find_unit,
    _matrix_units,
    _products_stay,
    block_diagonal_algebra,
    block_ideal_subspace,
    full_matrix_algebra,
    ideal_identity,
)
from oalab.matcore import RANK_TOL, Subspace, linear_combination, matrix_span, operator_norm
from oalab.sampling import complex_normal, random_span_element

E11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def loop_full(n):
    return np.stack([unit(n, i, j) for i in range(n) for j in range(n)])


def loop_upper(n):
    return np.stack([unit(n, i, j) for i in range(n) for j in range(i, n)])


def triu_units(n):
    return _matrix_units(np.triu(np.ones((n, n), dtype=bool)))


def loop_blocks(dims, chosen):
    n, offset, mats = sum(dims), 0, []
    for idx, d in enumerate(dims):
        if idx in chosen:
            mats += [unit(n, offset + i, offset + j) for i in range(d) for j in range(d)]
        offset += d
    return np.stack(mats)


def loop_residual(span, v):
    return float(np.linalg.norm(v - span.basis.T @ (span.basis.conj() @ v)))


def loop_products_stay(span, lefts, rights):
    stays = []
    for a in lefts:
        ok = True
        for b in rights:
            prod = a @ b
            scale = max(1.0, float(np.linalg.norm(prod)))
            ok &= loop_residual(span, prod.ravel()) <= RANK_TOL * scale
        stays.append(ok)
    return np.array(stays, dtype=bool)


def loop_find_unit(mats):
    columns = [
        np.concatenate([(m @ b).ravel() for b in mats] + [(b @ m).ravel() for b in mats])
        for m in mats
    ]
    mat = np.stack(columns, axis=1)
    rhs = np.concatenate([b.ravel() for b in mats] * 2)
    coeffs, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    if np.linalg.norm(mat @ coeffs - rhs) <= RANK_TOL * max(1.0, np.linalg.norm(rhs)):
        return np.tensordot(coeffs, mats, axes=(0, 0))
    return None


def inline_ball_draw(rng, basis, radius):
    raw = np.tensordot(complex_normal(rng, len(basis)), basis, axes=(0, 0))
    nrm = operator_norm(raw)
    if nrm <= 1e-12:
        return None
    return raw * (rng.uniform(0.0, radius) / nrm)


class TestMatrixUnits:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_full_and_upper_triangular_equal_the_loops(self, n):
        assert np.array_equal(full_matrix_algebra(n).basis, loop_full(n))
        assert np.array_equal(triu_units(n), loop_upper(n))

    @pytest.mark.parametrize("dims", [[1], [2, 1], [1, 3, 2], [2, 2, 2]])
    def test_block_diagonal_equals_the_loop(self, dims):
        basis = block_diagonal_algebra(dims).basis
        assert np.array_equal(basis, loop_blocks(dims, range(len(dims))))

    @pytest.mark.parametrize(
        "dims, chosen", [([2, 1], [0]), ([1, 3, 2], [2, 0]), ([2, 2, 2], [1]), ([3], [0])]
    )
    def test_block_ideal_equals_the_loop(self, dims, chosen):
        got = block_ideal_subspace(dims, chosen)
        want = matrix_span(loop_blocks(dims, set(chosen)))
        assert np.array_equal(got.basis, want.basis)


class TestResiduals:
    @pytest.mark.parametrize("ambient, dim", [(4, 0), (4, 2), (9, 5), (16, 16)])
    def test_equals_the_per_row_residual(self, ambient, dim):
        rng = np.random.default_rng(ambient + dim)
        span = Subspace.from_vectors(complex_normal(rng, (dim, ambient)), ambient)
        rows = complex_normal(rng, (7, ambient))
        rows[0] = 0.0
        if dim:
            rows[1] = complex_normal(rng, dim) @ span.basis
        got = span.residuals(rows)
        want = np.array([loop_residual(span, v) for v in rows])
        one_by_one = np.array([span.residual(v) for v in rows])
        atol = 1e-14 * np.max(np.abs(rows)) * ambient
        assert np.allclose(got, want, rtol=0.0, atol=atol)
        assert np.allclose(one_by_one, want, rtol=0.0, atol=atol)

    def test_rejects_rows_of_the_wrong_width(self):
        span = Subspace.from_vectors(np.eye(3)[:1], 3)
        with pytest.raises(ValueError, match="ambient is 3"):
            span.residuals(np.zeros((2, 4)))


class TestProductsStay:
    def test_equals_the_loop_on_a_mixed_family(self):
        # span{E11, E12} is a two-sided ideal of the upper-triangular 2x2
        # algebra, so only products of two algebra units (E22 E22) leave it.
        A = triu_units(2)
        J = matrix_span([E11, E12])
        for lefts, rights in ((A, A), (J.basis.reshape(-1, 2, 2), A), (A, J.basis.reshape(-1, 2, 2))):
            got = _products_stay(J, lefts, rights)
            assert np.array_equal(got, loop_products_stay(J, lefts, rights))
        assert not _products_stay(J, A, A).all()

    def test_random_family(self):
        rng = np.random.default_rng(11)
        lefts = complex_normal(rng, (4, 3, 3))
        rights = complex_normal(rng, (2, 3, 3))
        prods = [lefts[i] @ b for i in (0, 2) for b in rights]
        span = matrix_span(prods + [complex_normal(rng, (3, 3))])
        got = _products_stay(span, lefts, rights)
        assert np.array_equal(got, [True, False, True, False])
        assert np.array_equal(got, loop_products_stay(span, lefts, rights))

    @pytest.mark.parametrize("make", [lambda: full_matrix_algebra(3).basis,
                                      lambda: block_diagonal_algebra([2, 1]).basis,
                                      lambda: triu_units(2)[1:]])
    def test_unit_solve_equals_the_loop(self, make):
        mats = make()
        got, want = _find_unit(mats), loop_find_unit(mats)
        if want is None:
            assert got is None
        else:
            assert np.allclose(got, want, rtol=0.0, atol=1e-13)


class TestIdealChecks:
    def test_ideal_identity_rejects_a_right_ideal(self):
        # span{E11, E12} is a right ideal of M_2 (with left identity E11),
        # but not a left ideal: E21 E11 = E21 escapes.
        A = full_matrix_algebra(2)
        J = matrix_span([E11, E12])
        with pytest.raises(ValueError, match="two-sided ideal"):
            ideal_identity(A, J)


def test_linear_combination_equals_tensordot():
    # including one-matrix families, where matmul and tensordot round apart
    rng = np.random.default_rng(12)
    for k in [1, 2, 3, 7, 20, 36]:
        for n in range(1, 10):
            mats = complex_normal(rng, (k, n, n))
            for coeffs in (complex_normal(rng, k), rng.standard_normal(k).astype(complex)):
                want = np.tensordot(coeffs, mats, axes=(0, 0))
                assert np.array_equal(linear_combination(coeffs, mats), want), (k, n)


class TestRandomSpanElement:
    @pytest.mark.parametrize("radius", [1.0, 0.25])
    def test_equals_the_inline_draw(self, radius):
        basis = block_diagonal_algebra([2, 1]).basis
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(20):
            assert np.array_equal(random_span_element(a, basis, radius),
                                  inline_ball_draw(b, basis, radius))
        # Both generators are left at the same point of the stream.
        assert a.standard_normal() == b.standard_normal()

    def test_zero_draw_takes_no_uniform(self):
        basis = np.zeros((2, 3, 3), dtype=complex)
        a, b, c = (np.random.default_rng(5) for _ in range(3))
        assert random_span_element(a, basis, 1.0) is None
        assert inline_ball_draw(b, basis, 1.0) is None
        complex_normal(c, 2)  # the coefficients, and nothing after them
        assert a.uniform() == b.uniform() == c.uniform()

    def test_norm_is_within_the_radius(self):
        rng = np.random.default_rng(0)
        basis = full_matrix_algebra(3).basis
        norms = [operator_norm(random_span_element(rng, basis, 0.5)) for _ in range(50)]
        assert 0.0 < min(norms) and max(norms) <= 0.5 + 1e-15
