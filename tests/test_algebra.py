"""Tests for matrix algebras, ideals, batteries, and quotient norms."""

import json

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from oalab.algebra import (
    FDAlgebra,
    block_diagonal_algebra,
    block_ideal_subspace,
    compression_invertibility,
    full_matrix_algebra,
    generated_algebra,
    ideal_subspaces,
    left_identity_search,
    nor_battery,
    one_minus_ideal,
    quotient_cone_check,
    quotient_norm,
    upper_triangular_algebra,
    ws_battery,
)
from oalab.matcore import matrix_span, operator_norm
from oalab.sampling import (
    random_cone_element,
    random_contraction,
    random_projection,
    random_singular_cone_element,
    random_strict_cone_element,
)
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

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            FDAlgebra.build([np.eye(2), 2.0 * np.eye(2)])

    def test_non_closed_basis_rejected(self):
        # (E12 + E21)^2 = identity, which escapes the two-dimensional span.
        sym = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            FDAlgebra.build([E11, sym])

    def test_contains_and_element(self):
        alg = two_dim_algebra()
        x = alg.element([0.3, 0.7j])
        assert alg.contains(x)
        assert not alg.contains(np.array([[0, 0], [1, 0]]))

    def test_span_is_computed_once(self):
        alg = two_dim_algebra()
        assert alg.span is alg.span
        assert "span" not in json.loads(alg.to_json())

    def test_json_roundtrip(self):
        alg = upper_triangular_algebra(2)
        back = FDAlgebra.from_json(alg.to_json())
        assert back.ambient_dim == 2
        assert back.unital
        assert back.span.equals(alg.span)

    def test_json_rejects_wrong_unital_flag(self):
        alg = full_matrix_algebra(2)
        payload = json.loads(alg.to_json())
        payload["unital"] = False
        with pytest.raises(ValueError):
            FDAlgebra.from_json(json.dumps(payload))


class TestGeneratedAlgebra:
    def test_projection_generates_one_dimension(self):
        rng = np.random.default_rng(0)
        p = random_projection(rng, 4, rank=2)
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
            assert sub.equals(alg.span)

    def test_cone_element_lies_in_its_corner(self):
        rng = np.random.default_rng(21)
        alg = full_matrix_algebra(4)
        for _ in range(20):
            x = random_cone_element(rng, 4)
            triple = ideal_subspaces(x, alg)
            assert triple.xAx.membership(x.ravel())

    def test_membership_precondition(self):
        alg = FDAlgebra.build([np.eye(2, dtype=complex)])
        with pytest.raises(ValueError):
            ideal_subspaces(E11, alg)


class TestLeftIdentitySearch:
    def test_row_ideal_left_identity(self):
        alg = full_matrix_algebra(2)
        triple = ideal_subspaces(np.diag([2.0, 0.0]), alg)
        e = left_identity_search(triple.xA, alg)
        npt.assert_allclose(e, E11, atol=1e-9)

    def test_square_zero_ideal_has_none(self):
        alg = upper_triangular_algebra(2)
        J = matrix_span([E12])
        assert left_identity_search(J, alg) is None

    def test_whole_unital_algebra_returns_unit(self):
        alg = full_matrix_algebra(2)
        e = left_identity_search(alg.span, alg)
        npt.assert_allclose(e, np.eye(2), atol=1e-9)

    def test_zero_ideal_degenerates(self):
        alg = full_matrix_algebra(2)
        J = matrix_span([np.zeros((2, 2))])
        npt.assert_allclose(left_identity_search(J, alg), 0.0, atol=1e-12)

    def test_non_right_ideal_rejected(self):
        alg = full_matrix_algebra(2)
        with pytest.raises(ValueError):
            left_identity_search(matrix_span([E11]), alg)


class TestOneMinusIdeal:
    def test_unit_gives_zero_ideal(self):
        alg = full_matrix_algebra(2)
        J, e = one_minus_ideal(np.eye(2), alg)
        assert J.dim == 0
        npt.assert_allclose(e, 0.0, atol=1e-12)

    def test_zero_gives_whole_algebra(self):
        alg = full_matrix_algebra(2)
        J, e = one_minus_ideal(np.zeros((2, 2)), alg)
        assert J.equals(alg.span)
        npt.assert_allclose(e, np.eye(2), atol=1e-9)

    def test_random_contractions_always_yield_left_identity(self):
        rng = np.random.default_rng(33)
        alg = full_matrix_algebra(3)
        for _ in range(10):
            x = random_contraction(rng, 3)
            J, e = one_minus_ideal(x, alg)
            assert e is not None
            for j in J.basis.reshape(J.dim, 3, 3):
                npt.assert_allclose(e @ j, j, atol=1e-6)
            npt.assert_allclose(e @ e, e, atol=1e-6)

    def test_norm_precondition(self):
        alg = full_matrix_algebra(2)
        with pytest.raises(ValueError):
            one_minus_ideal(3.0 * np.eye(2), alg)

    def test_requires_unital_algebra(self):
        alg = FDAlgebra.build([E12])
        with pytest.raises(ValueError):
            one_minus_ideal(0.5 * E12, alg)


class TestNorBattery:
    def test_two_dim_algebra_passes(self):
        rep = nor_battery(two_dim_algebra(), trials=100, seed=0)
        assert rep.all_pass
        assert rep.trials_sampled == 100
        assert not rep.idempotent_witnesses
        assert all(m > 0 for m in rep.worst_margins().values())

    def test_full_matrix_algebra_fails_with_idempotent_witness(self):
        rep = nor_battery(full_matrix_algebra(2), trials=50, seed=0)
        assert not rep.all_pass
        assert any(
            np.allclose(w, E11, atol=1e-12) for w in rep.idempotent_witnesses
        )

    def test_scalar_algebra_is_vacuous(self):
        alg = FDAlgebra.build([np.eye(2, dtype=complex)])
        rep = nor_battery(alg, trials=20, seed=0)
        assert rep.vacuous
        assert rep.all_pass

    def test_determinism(self):
        a = nor_battery(two_dim_algebra(), trials=30, seed=7)
        b = nor_battery(two_dim_algebra(), trials=30, seed=7)
        for name in a.margins:
            npt.assert_array_equal(a.margins[name], b.margins[name])

    def test_requires_unital(self):
        with pytest.raises(ValueError):
            nor_battery(FDAlgebra.build([E12]), trials=5, seed=0)


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
                x = random_cone_element(rng, n)
            else:
                x = random_singular_cone_element(rng, n)
            rep = ws_battery(x, alg)
            assert all(rep.conditions.values())
            assert rep.consistent


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
            npt.assert_allclose(res.value, max(abs(z[1]), abs(z[2])), atol=1e-8)


class TestQuotientConeCheck:
    def test_block_instance_is_consistent(self):
        A = block_diagonal_algebra([2, 1])
        J = block_ideal_subspace([2, 1], [0])
        rep = quotient_cone_check(A, J, samples=15, seed=3)
        assert rep.consistent
        assert rep.backward_checked == 15
        assert rep.inconclusive_quotients == 0

    def test_identityless_ideal_rejected(self):
        A = upper_triangular_algebra(2)
        with pytest.raises(ValueError):
            quotient_cone_check(A, matrix_span([E12]), samples=3, seed=0)

    def test_non_ideal_rejected(self):
        A = full_matrix_algebra(2)
        with pytest.raises(ValueError):
            quotient_cone_check(A, matrix_span([E11]), samples=3, seed=0)


class TestCompressionInvertibility:
    def test_identity_projection(self):
        res = compression_invertibility(np.eye(2), np.eye(2))
        assert res.invertible
        assert bool(res)
        npt.assert_allclose(res.sigma_min, 1.0, atol=1e-12)

    def test_zero_projection_is_vacuous(self):
        res = compression_invertibility(np.eye(2), np.zeros((2, 2)))
        assert res.invertible
        assert res.sigma_min == np.inf

    def test_random_compressions_are_invertible(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            x = random_strict_cone_element(rng, n)
            p = random_projection(rng, n)
            res = compression_invertibility(x, p)
            assert res.invertible

    def test_non_strict_element_rejected(self):
        with pytest.raises(ValueError):
            compression_invertibility(np.zeros((2, 2)), np.eye(2))

    def test_non_hermitian_projection_rejected(self):
        oblique = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            compression_invertibility(np.eye(2), oblique)


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
                x = random_strict_cone_element(rng, n)
            elif u < 0.7:
                x = random_cone_element(rng, n)
            else:
                x = random_singular_cone_element(rng, n)
            full_ideal = ideal_subspaces(x, alg).xA.dim == n * n
            full_support = np.allclose(
                support_projection(x).projection, np.eye(n), atol=1e-8
            )
            herm = (x + x.conj().T) / 2.0
            _, vecs = np.linalg.eigh(herm)
            quad_forms = [abs(v.conj() @ x @ v) for v in vecs.T]
            no_vanishing_state = min(quad_forms) > 1e-6
            strict = float(np.linalg.eigvalsh(herm)[0]) > 1e-9
            assert full_ideal == full_support == no_vanishing_state == strict
