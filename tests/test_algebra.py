"""Tests for matrix algebras, ideals, batteries, and quotient norms."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from draws import random_singular_cone_element

from oalab.algebra import (
    FDAlgebra,
    _dilation_objective,
    _path_tangent,
    block_diagonal_algebra,
    ball_margins,
    ball_samples,
    block_ideal_subspace,
    full_matrix_algebra,
    generated_algebra,
    ideal_identity,
    ideal_subspaces,
    idempotent_witnesses,
    quotient_cone_lift,
    quotient_norm,
    ws_battery,
)
from oalab.matcore import (
    ITER_TOL,
    linear_combination,
    matrix_span,
    operator_norm,
    rounding_allowance,
    to_jsonable,
)
from oalab.sampling import complex_normal, haar_unitaries, random_contraction, random_span_element
from oalab.suites import SuiteConfig, run_suite
from oalab.support import support_projection

E11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def two_dim_algebra():
    # Unital two-dimensional algebra of upper-triangular matrices whose
    # corner entry is the difference of the diagonal entries.
    return FDAlgebra.build(
        [np.eye(2, dtype=complex), np.array([[1.0, 1.0], [0.0, 0.0]])]
    )


class TestFDAlgebra:
    def test_full_matrix_algebra_unit(self):
        alg = full_matrix_algebra(3)
        assert alg.dim == 9
        assert alg.unital
        npt.assert_allclose(alg.unit, np.eye(3), atol=1e-10)

    def test_square_zero_algebra_has_no_unit(self):
        alg = FDAlgebra.build([E12])
        assert not alg.unital
        assert alg.unit is None

    @pytest.mark.parametrize("c", [1.0, 1e-3, 1e-7])
    def test_small_nilpotent_span_has_no_unit(self, c):
        # Every product is 0, so the unit solve's residual is all of
        # ||rhs|| = 2**0.5 c: above the rank rule at every scale here, though
        # below ITER_TOL at c = 1e-7.
        alg = FDAlgebra.build([c * E12])
        assert not alg.unital
        assert alg.unit is None

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            FDAlgebra.build([np.eye(2), 2.0 * np.eye(2)])
        with pytest.raises(ValueError, match="need at least one generator"):
            FDAlgebra.build([])

    def test_non_closed_basis_rejected(self):
        # (E12 + E21)^2 = identity, which escapes the two-dimensional span.
        sym = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            FDAlgebra.build([E11, sym])

    def test_contains_and_element(self):
        alg = two_dim_algebra()
        x = linear_combination(np.array([0.3, 0.7j]), alg.basis)
        assert alg.contains(x)
        assert not alg.contains(np.array([[0, 0], [1, 0]]))

    def test_span_is_computed_once(self):
        alg = two_dim_algebra()
        assert alg.span is alg.span
        assert "span" not in to_jsonable(alg)


class TestGeneratedAlgebra:
    def test_projection_generates_one_dimension(self):
        rng = np.random.default_rng(0)
        u = haar_unitaries(rng, 1, 4)[0][:, :2]
        p = u @ u.conj().T
        alg = generated_algebra(p)
        assert alg.dim == 1
        assert alg.unital
        npt.assert_allclose(alg.unit, p, atol=1e-9)

    def test_rank_stabilizes_immediately_for_scaled_idempotent(self):
        # diag(2,0) squares to twice itself, so no new direction appears.
        alg = generated_algebra(np.diag([2.0, 0.0]))
        assert alg.dim == 1

    def test_two_distinct_eigenvalues_give_dimension_two(self):
        alg = generated_algebra(np.diag([1.0, 2.0]))
        assert alg.dim == 2
        assert alg.unital
        npt.assert_allclose(alg.unit, np.eye(2), atol=1e-9)

    def test_nilpotent_generator(self):
        n = np.zeros((3, 3), dtype=complex)
        n[0, 1] = n[1, 2] = 1.0
        alg = generated_algebra(n)
        assert alg.dim == 2
        assert not alg.unital

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            generated_algebra(np.zeros((2, 2)))

    @pytest.mark.parametrize("c", [1.0, 1e-2, 1e-5, 1e3])
    def test_scaling_the_generator_keeps_the_algebra(self, c):
        # oa(c x) = oa(x).  At c = 1e-2 the remainder of x q_1 is about 5e-9,
        # below the rank cutoff at scale 1, yet q_1^2 leaves span{q_1} by 3e-7.
        x = np.diag([1.0, 1.0 + 1e-6])
        alg = generated_algebra(c * x)
        assert alg.dim == generated_algebra(x).dim == 2
        assert alg.contains(np.eye(2))

    def test_near_scalar_generator_has_at_most_n_dimensions(self):
        # 1 - U diag(s) with s evenly spaced up to 0.05: its powers are nearly
        # parallel, and pairwise products of a span basis once grew to 57
        # dimensions here.  The algebra generated by an 8x8 matrix has at most 8.
        u = haar_unitaries(np.random.default_rng(0), 1, 8)[0]
        x = np.eye(8) - u @ np.diag(np.linspace(0.0, 0.05, 8))
        alg = generated_algebra(x)
        assert alg.dim <= 8
        power = np.eye(8, dtype=complex)
        for _ in range(10):
            power = power @ x
            assert alg.contains(power)

    @pytest.mark.xfail(
        raises=ValueError, strict=True,
        reason="exact-kernel draws that no suite makes break the closure check (direction 18)",
    )
    def test_exact_kernel_draw_generates_a_closed_algebra(self):
        # Draw 110 of default_rng(0), d in 2-8 and k in 1..d-1 drawn before
        # each sample, has d = 8 and k = 3; generated_algebra raises "basis
        # is not closed under multiplication".
        rng = np.random.default_rng(0)
        for _ in range(111):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, d))
            x = random_singular_cone_element(rng, d, kernel_dim=k)
        assert (d, k) == (8, 3)
        generated_algebra(x)


class TestIdealSubspaces:
    def test_corner_structure_for_rank_one(self):
        alg = full_matrix_algebra(2)
        triple = ideal_subspaces(np.diag([2.0, 0.0]), alg)
        assert triple.xA.dim == 2
        assert triple.Ax.dim == 2
        assert triple.xAx.dim == 1
        assert triple.xAx.membership(E11.ravel())

    def test_identity_gives_whole_algebra(self):
        alg = full_matrix_algebra(3)
        triple = ideal_subspaces(np.eye(3), alg)
        for sub in triple:
            assert all(sub.membership(b) for b in alg.span.basis)
            assert all(alg.span.membership(b) for b in sub.basis)

    def test_cone_element_lies_in_its_corner(self):
        rng = np.random.default_rng(21)
        alg = full_matrix_algebra(4)
        for _ in range(20):
            x = np.eye(4) - random_contraction(rng, 4)
            triple = ideal_subspaces(x, alg)
            assert triple.xAx.membership(x.ravel())

    def test_membership_precondition(self):
        alg = FDAlgebra.build([np.eye(2, dtype=complex)])
        with pytest.raises(ValueError):
            ideal_subspaces(E11, alg)

    @pytest.mark.parametrize("c", [1e-5, 1e3])
    def test_scaling_x_keeps_the_ideals(self, c):
        # x b x is of size c^2 here: the spans are built from x / ||x||_F.
        alg = full_matrix_algebra(2)
        x = np.diag([2.0, 1e-3])
        scaled = ideal_subspaces(c * x, alg)
        for got, want in zip(scaled, ideal_subspaces(x, alg)):
            assert got.dim == want.dim == 4
        assert scaled.xAx.membership(x.ravel())


class TestNorBattery:
    def test_two_dim_algebra_passes(self):
        alg = two_dim_algebra()
        samples = ball_samples(np.random.default_rng(0), alg, 100)
        assert len(samples) == 100
        for a in samples:
            assert all(m > 0 for m in ball_margins(a, alg.unit).values())
        assert idempotent_witnesses(alg) == []

    def test_full_matrix_algebra_fails_with_idempotent_witness(self):
        alg = full_matrix_algebra(2)
        witnesses = idempotent_witnesses(alg)
        assert any(np.allclose(w, E11, atol=1e-12) for w in witnesses)
        # E11 is a projection: at the exact unit, no ball condition holds.
        assert all(m <= 0 for m in ball_margins(E11, np.eye(2)).values())

    def test_a_margin_within_rounding_does_not_hold(self):
        # The least-squares unit of M_2 is off the identity by a rounding
        # error, which lifts two margins at the projection E11 just above 0.
        margins = ball_margins(E11, full_matrix_algebra(2).unit)
        lifted = [margins["shift_norm"], margins["quasi_invert"]]
        assert all(0.0 < m <= rounding_allowance() for m in lifted)
        assert not any(m > rounding_allowance() for m in margins.values())

    def test_scalar_algebra_is_vacuous(self, monkeypatch):
        alg = FDAlgebra.build([np.eye(2, dtype=complex)])
        assert ball_samples(np.random.default_rng(0), alg, 20) == []
        # A battery that samples nothing fails its case.
        import oalab.suites as suites_mod

        monkeypatch.setattr(suites_mod, "example_two_dim", lambda: alg)
        report = run_suite(SuiteConfig(suite="nonunital-battery", trials=20))
        case = next(c for c in report.cases if c["name"] == "two-dim-margins")
        assert case["status"] == "fail" and case["margin"] == -np.inf
        assert report.failures == [{"case": "two-dim-margins", "data": {"samples": 0}}]

    def test_determinism(self):
        alg = two_dim_algebra()
        a = ball_samples(np.random.default_rng(7), alg, 30)
        b = ball_samples(np.random.default_rng(7), alg, 30)
        npt.assert_array_equal(a, b)
        for x, y in zip(a, b):
            assert ball_margins(x, alg.unit) == ball_margins(y, alg.unit)

    def test_requires_unital(self):
        alg = FDAlgebra.build([E12])
        with pytest.raises(ValueError, match="unital"):
            ball_samples(np.random.default_rng(0), alg, 5)
        with pytest.raises(ValueError, match="unital"):
            idempotent_witnesses(alg)


class TestWsBattery:
    def test_rank_one_scaled_projection(self):
        alg = full_matrix_algebra(2)
        rep = ws_battery(np.diag([2.0, 0.0]), alg)
        assert all(rep.conditions.values())
        assert rep.semisimple
        assert rep.consistent
        npt.assert_allclose(rep.y_in_oa, np.diag([0.5, 0.0]), atol=1e-9)

    def test_invertible_element_recovers_inverse(self):
        x = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        rep = ws_battery(x, full_matrix_algebra(2))
        assert all(rep.conditions.values())
        expected = np.array([[1.0, -1.0], [0.0, 1.0]])
        npt.assert_allclose(rep.y_in_A, expected, atol=1e-9)
        npt.assert_allclose(rep.y_in_oa, expected, atol=1e-9)

    def test_nilpotent_plus_invertible_family(self):
        # A nilpotent 2x2 block next to an invertible scalar block: the
        # spectrum has a gap at zero, yet no polynomial y solves xyx = x,
        # and the generated algebra is not semisimple.
        x = scipy.linalg.block_diag(E12 * 1.0, np.array([[2.0]])).astype(complex)
        oax = generated_algebra(x)
        rep = ws_battery(x, oax, require_cone=False)
        assert rep.conditions["vii"]
        assert not any(rep.conditions[k] for k in ("i", "ii", "iii", "iv", "v", "vi"))
        assert not rep.semisimple
        assert rep.consistent

    def test_cone_membership_enforced_by_default(self):
        with pytest.raises(ValueError):
            ws_battery(3.0 * np.eye(2), full_matrix_algebra(2))

    def test_span_membership_enforced(self):
        alg = FDAlgebra.build([np.eye(2, dtype=complex)])
        with pytest.raises(ValueError):
            ws_battery(np.diag([2.0, 0.0]), alg)

    def test_random_cone_elements_satisfy_the_chain(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            alg = full_matrix_algebra(n)
            if rng.uniform() < 0.5:
                x = np.eye(n) - random_contraction(rng, n)
            else:
                x = random_singular_cone_element(rng, n)
            rep = ws_battery(x, alg)
            assert all(rep.conditions.values())
            assert rep.consistent


    @pytest.mark.parametrize("c", [1e-2, 1e-5])
    def test_small_multiples_satisfy_the_chain(self, c):
        # c x is in the cone with x, and the chain does not read the scale.
        # xyx = x is solved at x / ||x||_F, and y is returned for c x itself.
        x = np.diag([1.0, 1.0 + 1e-6])
        for alg in (None, full_matrix_algebra(2)):
            rep = ws_battery(c * x, alg)
            assert all(rep.conditions.values())
            npt.assert_allclose(rep.y_in_A, np.linalg.inv(c * x), rtol=1e-9)

    def test_omitted_algebra_is_the_generated_one(self):
        # With A omitted the battery reuses the span of x * oa(x) as xA and
        # the solve of (iii) as (vi); the report is the one for A = oa(x).
        rng = np.random.default_rng(13)
        draws = [np.eye(n) + random_contraction(rng, n) for n in (1, 2, 4, 6)]
        draws += [random_singular_cone_element(rng, n) for n in (2, 3, 5)]
        nil_plus_inv = np.diag([0.0, 0.0, 2.0]).astype(complex)
        nil_plus_inv[0, 1] = 1.0
        for x in draws + [nil_plus_inv]:
            cone = x is not nil_plus_inv
            got = ws_battery(x, require_cone=cone)
            want = ws_battery(x, generated_algebra(x), require_cone=cone)
            for field in dataclasses.fields(want):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if isinstance(b, np.ndarray):
                    npt.assert_array_equal(a, b)
                else:
                    assert a == b, field.name


class TestQuotientNorm:
    def test_member_has_zero_quotient(self):
        res = quotient_norm(E12, matrix_span([E12]))
        assert res.status == "CERTIFIED"
        assert res.value <= 1e-9

    def test_zero_subspace_gives_plain_norm(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        res = quotient_norm(a, matrix_span([np.zeros((2, 2))]))
        assert res.status == "CERTIFIED"
        npt.assert_allclose(res.value, operator_norm(a), atol=1e-12)

    def test_upper_triangular_closed_form(self):
        # Modding out the corner entry of an upper-triangular 2x2 leaves
        # the larger diagonal modulus.
        rng = np.random.default_rng(5)
        J = matrix_span([E12])
        for _ in range(25):
            a11, a22 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            if abs(abs(a11) - abs(a22)) < 0.05:
                continue
            b = rng.standard_normal() + 1j * rng.standard_normal()
            a = np.array([[a11, b], [0.0, a22]])
            res = quotient_norm(a, J)
            assert res.status == "CERTIFIED"
            assert res.gap < 1e-6
            npt.assert_allclose(res.value, max(abs(a11), abs(a22)), atol=1e-8)

    def test_block_diagonal_drops_ideal_blocks(self):
        rng = np.random.default_rng(9)
        J = block_ideal_subspace([1, 1, 1], [0])
        for _ in range(10):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            res = quotient_norm(np.diag(z), J)
            assert res.status == "CERTIFIED"
            npt.assert_allclose(res.value, max(abs(z[1]), abs(z[2])), atol=1e-9)

    def test_full_matrix_mod_corner_block_meets_parrott(self):
        # Parrott: over X, the least norm of [[X, B], [C, D]] is
        # max(||[C, D]||, ||[B; D]||).  The warm start is not optimal here,
        # so this exercises the smoothed descent.
        rng = np.random.default_rng(21)
        J = block_ideal_subspace([2, 1], [0])
        for _ in range(10):
            a = complex_normal(rng, (3, 3))
            expected = max(np.linalg.norm(a[2:, :], 2), np.linalg.norm(a[:, 2:], 2))
            res = quotient_norm(a, J)
            assert res.status == "CERTIFIED"
            assert res.lower - 1e-9 <= expected <= res.upper + 1e-9

    def test_random_subspaces_certify_with_consistent_intervals(self):
        # 80 random subspaces J of M_2..M_6: every one CERTIFIED; on every
        # draw the interval is nonempty, minimizer_coeffs attains the upper
        # bound, and a second call reproduces the result exactly.
        rng = np.random.default_rng(17)
        certified = 0
        for _ in range(80):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n * n))
            a = complex_normal(rng, (n, n))
            J = matrix_span([complex_normal(rng, (n, n)) for _ in range(k)])
            res = quotient_norm(a, J)
            certified += res.status == "CERTIFIED"
            assert res.lower <= res.upper + 1e-12
            j = np.tensordot(res.minimizer_coeffs, J.basis.reshape(J.dim, n, n), axes=1)
            assert abs(operator_norm(a - j) - res.upper) <= 1e-9
            again = quotient_norm(a, J)
            assert (again.lower, again.upper, again.status) == (res.lower, res.upper, res.status)
            npt.assert_array_equal(again.minimizer_coeffs, res.minimizer_coeffs)
        assert certified == 80

    @pytest.mark.parametrize("kind", ["block", "random"])
    def test_transpose_gets_the_same_status(self, kind):
        # ||m^T|| = ||m||, so a mod J and a^T mod J^T have the same quotient
        # norm; the verdict must not depend on the rounding that differs
        # between the two.
        rng = np.random.default_rng(23)
        for _ in range(20):
            if kind == "block":
                n, mats = 3, block_ideal_subspace([2, 1], [0]).basis.reshape(-1, 3, 3)
            else:
                n = int(rng.integers(2, 7))
                mats = complex_normal(rng, (int(rng.integers(1, n * n)), n, n))
            a = complex_normal(rng, (n, n))
            res = quotient_norm(a, matrix_span(mats))
            res_t = quotient_norm(a.T, matrix_span(np.swapaxes(mats, 1, 2)))
            assert res.status == res_t.status
            assert max(res.lower, res_t.lower) <= min(res.upper, res_t.upper) + 1e-12


def _stage_minimizer(a, j_mats, x, mu):
    """Minimizer of f_mu by damped Newton, run until no step improves it:
    a step is taken if it lowers f_mu, or ties it to rounding and shrinks
    the gradient."""
    cur = _dilation_objective(a, j_mats, x, mu)
    damping = 1.0 / mu
    for _ in range(500):
        if damping > 1e8 / mu:
            break
        step = np.linalg.solve(cur.hess + damping * np.eye(len(x)), -cur.grad)
        trial = _dilation_objective(a, j_mats, x + step, mu)
        ties = trial.value <= cur.value + 1e-14 * abs(cur.value)
        if trial.value < cur.value or (ties and np.linalg.norm(trial.grad) < np.linalg.norm(cur.grad)):
            x, cur, damping = x + step, trial, damping / 4
        else:
            damping = max(4 * damping, 1e-12 / mu)
    return x, cur


class TestDilationObjective:
    @pytest.mark.parametrize("singular", [False, True], ids=["generic", "rank-deficient"])
    @pytest.mark.parametrize("mu", [1e-1, 1e-3])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_derivatives_match_central_differences(self, n, k, mu, singular):
        # The gradient against central differences of f_mu, the Hessian
        # against central differences of the gradient, with step 1e-4 mu.
        # A rank-deficient m (rank n // 2, so 0 for n = 1) is where
        # mu log sum_i exp(sigma_i / mu) had a kink; the dilation's
        # eigenvalues +-sigma_i keep f_mu smooth there.
        rng = np.random.default_rng(100 * n + 10 * k + singular)
        j_mats = complex_normal(rng, (k, n, n))
        x = rng.standard_normal(2 * k)
        a = complex_normal(rng, (n, n))
        if singular:
            rank = n // 2
            m = complex_normal(rng, (n, rank)) @ complex_normal(rng, (rank, n))
            a = m + linear_combination(x[:k] + 1j * x[k:], j_mats)
            assert np.linalg.matrix_rank(_dilation_objective(a, j_mats, x, mu).m) == rank
        at = _dilation_objective(a, j_mats, x, mu)
        h = 1e-4 * mu
        grad_fd, hess_fd = np.empty(2 * k), np.empty((2 * k, 2 * k))
        for r, e in enumerate(np.eye(2 * k)):
            plus = _dilation_objective(a, j_mats, x + h * e, mu)
            minus = _dilation_objective(a, j_mats, x - h * e, mu)
            grad_fd[r] = (plus.value - minus.value) / (2 * h)
            hess_fd[r] = (plus.grad - minus.grad) / (2 * h)
        # At m = 0 (n = 1, rank-deficient) the gradient vanishes, and the
        # scale of the J_r stands in for its norm.
        assert np.linalg.norm(grad_fd - at.grad) <= 1e-6 * max(np.linalg.norm(at.grad), 1.0)
        assert np.linalg.norm(hess_fd - at.hess) <= 1e-6 * np.linalg.norm(at.hess)
        npt.assert_allclose(at.hess, at.hess.T, rtol=0, atol=1e-12 * np.linalg.norm(at.hess))

    @pytest.mark.parametrize("mu", [0.5, 1e-2])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [2, 5])
    def test_path_tangent_matches_central_differences_of_minimizers(self, n, k, mu):
        # quotient_norm's predictor steps along dx/dmu; here it is read from
        # the evaluation at the minimizer of f_mu and compared with central
        # differences of the minimizers at mu (1 +- 1e-3).  Where the top
        # singular value of the minimizing m is simple (k = 1 at small mu)
        # the path is flat to rounding, and so must the tangent be.
        rng = np.random.default_rng(10 * n + k)
        a = complex_normal(rng, (n, n))
        J = matrix_span(complex_normal(rng, (k, n, n)))
        j_mats = J.basis.reshape(k, n, n)
        c = J.basis.conj() @ a.ravel()
        x, at = _stage_minimizer(a, j_mats, np.concatenate([c.real, c.imag]), mu)
        plus, _ = _stage_minimizer(a, j_mats, x, mu * (1 + 1e-3))
        minus, _ = _stage_minimizer(a, j_mats, x, mu * (1 - 1e-3))
        fd = (plus - minus) / (2e-3 * mu)
        assert np.linalg.norm(_path_tangent(at, mu) - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)

    def test_singular_hessian_gives_no_predictor(self):
        # An H that rounding left singular yields a zero tangent, so the
        # next stage starts where the last one ended instead of raising.
        rng = np.random.default_rng(4)
        j_mats = complex_normal(rng, (2, 3, 3))
        at = _dilation_objective(complex_normal(rng, (3, 3)), j_mats, rng.standard_normal(4), 1e-2)
        npt.assert_array_equal(_path_tangent(at._replace(hess=np.zeros((4, 4))), 1e-2), np.zeros(4))

    def test_dual_candidate_gives_the_gradient(self):
        # <G, J_r> is the gradient: -Re along Re c_r, Im along Im c_r.
        rng = np.random.default_rng(3)
        j_mats = complex_normal(rng, (3, 4, 4))
        at = _dilation_objective(complex_normal(rng, (4, 4)), j_mats, rng.standard_normal(6), 1e-2)
        inner = np.array([np.vdot(at.dual, j) for j in j_mats])
        npt.assert_allclose(at.grad, np.concatenate([-inner.real, inner.imag]), atol=1e-12)


class TestQuotientConeCheck:
    def test_block_instance_is_consistent(self):
        # The quotient-cone suite's forward and backward draws on the [2, 1]
        # block instance: every backward representative lies in the
        # quotient cone, so every one is lifted and checked.
        A = block_diagonal_algebra([2, 1])
        J = block_ideal_subspace([2, 1], [0])
        e = ideal_identity(A, J)
        unit, comp = A.unit, A.unit - e
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(15):
            forward = quotient_norm(random_span_element(rng, A.basis, 1.0), J)
            assert forward.status == "CERTIFIED" and forward.value <= 1.0 + 1e-6
            rep = comp @ (unit - random_span_element(rng, A.basis, 1.0)) @ comp + linear_combination(
                complex_normal(rng, J.dim), J.basis.reshape(J.dim, 3, 3)
            )
            backward = quotient_norm(unit - rep, J)
            assert backward.status == "CERTIFIED"
            if backward.value <= 1.0 + ITER_TOL:
                checked += 1
                lift_excess, residual = quotient_cone_lift(A, J, e, rep)
                assert lift_excess <= 1e-6 and residual <= 1e-6
        assert checked == 15

    def test_identityless_ideal_rejected(self):
        A = FDAlgebra.build([E11, E12, np.diag([0.0, 1.0])])
        with pytest.raises(ValueError, match="no two-sided identity"):
            ideal_identity(A, matrix_span([E12]))

    def test_non_ideal_rejected(self):
        A = full_matrix_algebra(2)
        with pytest.raises(ValueError, match="not a two-sided ideal"):
            ideal_identity(A, matrix_span([E11]))

    def test_nonunital_algebra_rejected(self):
        with pytest.raises(ValueError, match="requires a unital algebra"):
            ideal_identity(FDAlgebra.build([E12]), matrix_span([E12]))


class TestStrictnessRoutesAgree:
    def test_full_ideal_support_state_and_strictness_agree(self):
        # Four independent booleans: the right ideal xA is everything, the
        # support projection is the identity, no sampled state kills x, and
        # the Hermitian part is strictly positive. They must agree sample
        # by sample.
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            alg = full_matrix_algebra(n)
            u = rng.uniform()
            if u < 0.4:
                x = np.eye(n) - random_contraction(rng, n, radius=0.95)
            elif u < 0.7:
                x = np.eye(n) - random_contraction(rng, n)
            else:
                x = random_singular_cone_element(rng, n)
            full_ideal = ideal_subspaces(x, alg).xA.dim == n * n
            full_support = np.allclose(
                support_projection(x), np.eye(n), atol=1e-8
            )
            herm = (x + x.conj().T) / 2.0
            _, vecs = np.linalg.eigh(herm)
            quad_forms = [abs(v.conj() @ x @ v) for v in vecs.T]
            no_vanishing_state = min(quad_forms) > 1e-6
            strict = float(np.linalg.eigvalsh(herm)[0]) > 1e-9
            assert full_ideal == full_support == no_vanishing_state == strict
