"""Tests for matrix maps, Choi data, amplification, and the witness search."""

import json

import numpy as np
import pytest

from oalab.matcore import (
    CrossCheckError,
    matrix_from_json,
    operator_norm,
    to_jsonable,
)
from oalab.ocpmap import (
    MatrixMap,
    _verify_choi_shuffle,
    amplify,
    dilation_bound,
    disk_test,
    entangled_cone_element,
    identity_map,
    matrix_map_from_kraus,
    ocp_falsify,
    stinespring,
    transpose_map,
)
from oalab.sampling import haar_unitaries
from oalab.suites import _ocp_falsify_draws

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def random_kraus_map(rng, n, m, count):
    kraus = [
        rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        for _ in range(count)
    ]
    return matrix_map_from_kraus(kraus)


class TestMatrixMap:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MatrixMap(in_dim=2, out_dim=2, action=np.zeros((2, 2, 3, 3)))
        with pytest.raises(ValueError):
            MatrixMap(in_dim=0, out_dim=2, action=np.zeros((0, 0, 2, 2)))

    def test_apply_is_linear_extension(self):
        rng = np.random.default_rng(0)
        t = random_kraus_map(rng, 3, 2, 2)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(
            t.apply(2.0 * x - 1j * y),
            2.0 * t.apply(x) - 1j * t.apply(y),
            atol=1e-12,
        )

    def test_apply_shape_guard(self):
        with pytest.raises(ValueError):
            identity_map(2).apply(np.eye(3))

    def test_adjoint_pairing(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            t = random_kraus_map(rng, n, m, 2)
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            y = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            np.testing.assert_allclose(
                np.vdot(y, t.apply(x)),
                np.vdot(t.adjoint_apply(y), x),
                atol=1e-10,
            )

    def test_json_payload_shape(self):
        # action[i][j] is the record of T(E_ij), an m x m matrix.
        t = random_kraus_map(np.random.default_rng(2), 2, 3, 2)
        payload = to_jsonable(t)
        assert set(payload) == {"in_dim", "out_dim", "action"}
        assert (payload["in_dim"], payload["out_dim"]) == (2, 3)
        assert len(payload["action"]) == 2
        for i, row in enumerate(payload["action"]):
            assert len(row) == 2
            for j, image in enumerate(row):
                assert image["dim"] == 3
                np.testing.assert_array_equal(matrix_from_json(image), t.action[i, j])


class TestChoi:
    def test_identity_choi_spectrum(self):
        lam = np.linalg.eigvalsh(identity_map(2).choi)
        np.testing.assert_allclose(lam, [0.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_transpose_choi_is_swap(self):
        choi = transpose_map(2).choi
        np.testing.assert_array_equal(choi, SWAP)
        lam = np.linalg.eigvalsh(choi)
        np.testing.assert_allclose(lam, [-1.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_choi_block_structure(self):
        # choi[(i*m + a), (j*m + b)] = T(E_ij)[a, b]
        rng = np.random.default_rng(3)
        t = random_kraus_map(rng, 2, 3, 2)
        choi = t.choi
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(
                    choi[i * 3 : (i + 1) * 3, j * 3 : (j + 1) * 3],
                    t.action[i, j],
                    atol=1e-13,
                )


class TestCompletePositivity:
    # stinespring decides complete positivity: a CP map factorizes, and any
    # other map raises ValueError
    def test_kraus_maps_are_cp(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            t = random_kraus_map(rng, n, m, int(rng.integers(1, 4)))
            assert stinespring(t).residual < 1e-10

    def test_transpose_not_cp(self):
        for n in (2, 3):
            with pytest.raises(ValueError):
                stinespring(transpose_map(n))

    def test_non_hermitian_choi_not_cp(self):
        t = MatrixMap(2, 2, 1j * identity_map(2).action)
        with pytest.raises(ValueError):
            stinespring(t)


class TestAmplify:
    def test_level_one_is_identity_operation(self):
        rng = np.random.default_rng(5)
        t = random_kraus_map(rng, 2, 3, 2)
        np.testing.assert_allclose(amplify(t, 1).action, t.action, atol=1e-13)

    def test_blockwise_action(self):
        rng = np.random.default_rng(6)
        t = random_kraus_map(rng, 2, 3, 2)
        amp = amplify(t, 3)
        assert amp.in_dim == 6 and amp.out_dim == 9
        x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        blocks = x.reshape(3, 2, 3, 2)
        expected = np.zeros((9, 9), dtype=complex)
        for i in range(3):
            for j in range(3):
                expected[i * 3 : (i + 1) * 3, j * 3 : (j + 1) * 3] = t.apply(
                    blocks[i, :, j, :]
                )
        np.testing.assert_allclose(amp.apply(x), expected, atol=1e-12)

    @pytest.mark.parametrize("k, n, m", [(1, 2, 3), (2, 2, 2), (3, 1, 2), (2, 3, 1)])
    def test_action_equals_matrix_unit_loop(self, k, n, m):
        # Reference: place T(E_ab) in block (i, j) of the image of each
        # matrix unit E_{(i,a),(j,b)}.  amplify also runs its permuted
        # Kronecker cross-check at these sizes.
        t = random_kraus_map(np.random.default_rng(8), n, m, 2)
        expected = np.zeros((k * n, k * n, k * m, k * m), dtype=complex)
        for i in range(k):
            for j in range(k):
                for a in range(n):
                    for b in range(n):
                        expected[i * n + a, j * n + b, i * m : (i + 1) * m, j * m : (j + 1) * m] = t.action[a, b]
        np.testing.assert_array_equal(amplify(t, k).action, expected)

    def test_cp_preserved(self):
        rng = np.random.default_rng(7)
        t = random_kraus_map(rng, 2, 2, 2)
        assert stinespring(amplify(t, 3)).residual < 1e-10
        with pytest.raises(ValueError):
            stinespring(amplify(transpose_map(2), 2))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            amplify(identity_map(8), 9)
        with pytest.raises(ValueError):
            amplify(identity_map(2), 0)

    def test_shuffle_cross_check_reports_the_exact_defect(self):
        t = random_kraus_map(np.random.default_rng(9), 2, 2, 2)
        honest = amplify(t, 2)
        action = honest.action.copy()
        # two entries in different rows and columns of the Choi matrix, so
        # the defect's Frobenius norm exceeds its operator norm
        action[0, 1, 2, 3] += 1e-3
        action[1, 0, 3, 2] += 2e-3
        tampered = MatrixMap(in_dim=4, out_dim=4, action=action)
        with pytest.raises(CrossCheckError, match="permuted Kronecker") as info:
            _verify_choi_shuffle(t, tampered, 2)
        # the honest amplification equals the permuted product exactly
        expected = operator_norm(tampered.choi - honest.choi)
        assert str(info.value).endswith(f"by {expected:.3e}")

    def test_shuffle_cross_check_runs(self):
        # The permuted-Kronecker verification runs inside amplify for
        # small sizes; passing without CrossCheckError is the assertion.
        amplify(transpose_map(3), 2)
        amplify(identity_map(4), 3)


class TestEntangledElement:
    def test_cone_membership(self):
        for n in (2, 3):
            x = entangled_cone_element(n)
            assert operator_norm(np.eye(n * n) - x) == pytest.approx(1.0, abs=1e-12)

    def test_transpose_image_is_swap(self):
        x = entangled_cone_element(2)
        image = amplify(transpose_map(2), 2).apply(x)
        np.testing.assert_allclose(image, SWAP, atol=1e-14)


class TestFalsify:
    def test_transpose_margin_exactly_one(self):
        t = transpose_map(2)
        for c in (1.0, 2.0, 5.0):
            witness = ocp_falsify(t, c, k=2, budget=200, seed=0)
            assert witness is not None
            assert witness["margin"] == pytest.approx(1.0, abs=1e-9)
            assert witness["level"] == 2
            assert witness["bound"] == c

    def test_identity_map_no_witness(self):
        # The identity is completely contractive on the cone: no witness
        # at its natural bound c = ||T(1)|| = 1.
        assert ocp_falsify(identity_map(2), 1.0, k=2, budget=300, seed=1) is None

    def test_cp_maps_no_witness_at_natural_bound(self):
        # Schwarz inequality: T(x)* T(x) <= ||T(1)|| T(x* x) plus
        # x* x <= x + x* give ||c - T_k(x)|| <= c at c = ||T(1)||
        # for every completely positive T and every level.
        rng = np.random.default_rng(8)
        for _ in range(6):
            n = int(rng.integers(1, 4))
            t = random_kraus_map(rng, n, int(rng.integers(1, 4)), 2)
            c = operator_norm(t.apply(np.eye(n)))
            for k in (1, 2):
                assert ocp_falsify(t, c, k=k, budget=150, seed=9) is None

    def test_witness_payload_verifiable(self):
        witness = ocp_falsify(transpose_map(2), 1.0, k=2, budget=100, seed=0)
        x = matrix_from_json(witness["x"])
        assert operator_norm(np.eye(4) - x) <= 1.0 + 1e-9
        value = operator_norm(
            witness["bound"] * np.eye(4) - amplify(transpose_map(2), 2).apply(x)
        )
        assert value == pytest.approx(witness["value"], abs=1e-12)

    def test_deterministic(self):
        a = ocp_falsify(transpose_map(2), 2.0, k=2, budget=150, seed=42)
        b = ocp_falsify(transpose_map(2), 2.0, k=2, budget=150, seed=42)
        assert json.dumps(a) == json.dumps(b)

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            ocp_falsify(identity_map(2), 0.0, k=1)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        # A budget that allows no evaluation is an error, not one Haar draw.
        with pytest.raises(ValueError, match="budget"):
            ocp_falsify(transpose_map(2), 1.0, k=2, budget=budget)


class TestDiskTest:
    def test_psd_contractions_pass(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            n = int(rng.integers(1, 6))
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = z @ z.conj().T
            x = h / (operator_norm(h) * (1.0 + rng.uniform(0.0, 1.0)))
            report = disk_test(x, circle_points=200)
            assert report.member
            assert report.worst_excess <= report.slack

    def test_identity_boundary(self):
        report = disk_test(np.eye(3), circle_points=300)
        assert report.member
        assert report.worst_excess == pytest.approx(0.0, abs=1e-12)

    def test_zero_matrix(self):
        assert disk_test(np.zeros((2, 2)), circle_points=64).member

    def test_oversized_hermitian_fails(self):
        report = disk_test(2.0 * np.eye(2), circle_points=64)
        assert not report.member
        assert report.worst_excess == pytest.approx(2.0, abs=1e-12)  # z = 2

    def test_nilpotent_fails(self):
        report = disk_test(np.array([[0, 1], [0, 0]], dtype=complex), 64)
        assert not report.member
        assert report.worst_excess == pytest.approx(np.sqrt(2.0), abs=1e-3)

    def test_negative_fails(self):
        assert not disk_test(-0.5 * np.eye(2), circle_points=64).member

    def test_non_hermitian_contraction_fails(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        z = z / (2.0 * operator_norm(z))
        if operator_norm(z - z.conj().T) > 1e-6:
            assert not disk_test(z, circle_points=200).member

    def test_boundary_rounding_tolerated(self):
        # An eigenvalue 3e-9 above 1 must not trip the cross-check: the
        # sweep's excess 6e-9 (at z = 2) is within its 10 EXACT_TOL, while
        # the algebraic check fails it against EXACT_TOL.
        report = disk_test(np.diag([1.0 + 3e-9, 0.5]), circle_points=64)
        assert not report.hermitian_psd
        assert report.member

    def test_sampled_verdict_matches_oracle(self):
        rng = np.random.default_rng(12)
        agree = 0
        for i in range(60):
            n = int(rng.integers(2, 5))
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if i % 3 == 0:
                x = z @ z.conj().T
                x = x / (operator_norm(x) * (1.0 + rng.uniform()))
            elif i % 3 == 1:
                x = (z + z.conj().T) / 2.0
            else:
                x = z / operator_norm(z)
            lam = np.linalg.eigvalsh((x + x.conj().T) / 2.0)
            oracle = (
                operator_norm(x - x.conj().T) <= 1e-9
                and lam[0] >= -1e-9
                and lam[-1] <= 1.0 + 1e-9
            )
            if disk_test(x, circle_points=150).member == oracle:
                agree += 1
        assert agree == 60

    def test_point_count_guard(self):
        with pytest.raises(ValueError):
            disk_test(np.eye(2), circle_points=4)


class TestStinespring:
    def test_identity_map_factors_through_one_kraus(self):
        triple = stinespring(identity_map(3))
        assert len(triple.kraus) == 1
        np.testing.assert_allclose(
            triple.kraus[0].conj().T @ triple.kraus[0], np.eye(3), atol=1e-12
        )

    def test_random_cp_maps(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            t = random_kraus_map(rng, n, m, int(rng.integers(1, 4)))
            triple = stinespring(t)
            assert triple.residual < 1e-12
            # ||V||^2 = ||T(1)||
            vnorm2 = operator_norm(triple.v.conj().T @ triple.v)
            np.testing.assert_allclose(
                vnorm2, operator_norm(t.apply(np.eye(n))), atol=1e-9
            )
            # dilation identity: V* (I_r (x) x) V = T(x)
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            big = np.kron(np.eye(len(triple.kraus)), x)
            np.testing.assert_allclose(
                triple.v.conj().T @ big @ triple.v, t.apply(x), atol=1e-10
            )

    def test_rank_matches_choi_rank(self):
        rng = np.random.default_rng(14)
        t = random_kraus_map(rng, 3, 3, 2)  # generic: Choi rank 2
        assert len(stinespring(t).kraus) == 2

    def test_zero_map(self):
        t = MatrixMap(2, 2, np.zeros((2, 2, 2, 2)))
        triple = stinespring(t)
        assert triple.residual == pytest.approx(0.0, abs=1e-14)
        assert operator_norm(triple.v) == pytest.approx(0.0, abs=1e-14)

    def test_non_cp_rejected(self):
        with pytest.raises(ValueError):
            stinespring(transpose_map(2))


class TestDilationBound:
    def test_non_cp_rejected(self):
        with pytest.raises(ValueError):
            dilation_bound(transpose_map(2), 1.0)

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            dilation_bound(identity_map(2), 0.0)

    def test_below_natural_bound_is_not_certified(self):
        # Under ||T(1)|| the excess is 2 (||T(1)|| - c), which x = 2 attains,
        # and the falsifier finds the witness.
        rng = np.random.default_rng(15)
        t = random_kraus_map(rng, 2, 3, 2)
        c = operator_norm(t.apply(np.eye(2))) - 1e-3
        bound = dilation_bound(t, c)
        assert bound - c >= 2e-3
        attained = operator_norm(c * np.eye(3) - t.apply(2.0 * np.eye(2)))
        assert attained <= bound <= attained + 1e-12 * c
        witness = ocp_falsify(t, c, k=1, budget=10, seed=0)
        assert witness is not None and witness["value"] <= bound

    def test_in_dim_one_map_certified(self):
        # T(x) = x T(1) ties on every Haar draw; the certificate still holds.
        rng = np.random.default_rng(16)
        t = random_kraus_map(rng, 1, 3, 2)
        c = operator_norm(t.apply(np.eye(1)))
        assert 0.0 <= dilation_bound(t, c) - c <= 1e-12 * max(1.0, c)
        assert ocp_falsify(t, c, k=2, budget=200, seed=0) is None

    def test_suite_maps_certified_to_rounding(self):
        _, cp_draws = _ocp_falsify_draws(np.random.default_rng(0), 50)
        for cp_map, c, _seed in cp_draws:
            assert 0.0 <= dilation_bound(cp_map, c) - c <= 1e-12 * max(1.0, c)

    def test_bound_dominates_sampled_values(self):
        # Any c, any level: no cone element 1 + u beats the certified bound.
        rng = np.random.default_rng(17)
        for _ in range(4):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            t = random_kraus_map(rng, n, m, int(rng.integers(1, 4)))
            natural = operator_norm(t.apply(np.eye(n)))
            amp = amplify(t, 2)
            for c in (0.5 * natural, natural, 3.0 * natural):
                bound = dilation_bound(t, c)
                for u in haar_unitaries(rng, 20, 2 * n):
                    x = np.eye(2 * n) + u
                    value = operator_norm(c * np.eye(2 * m) - amp.apply(x))
                    assert value <= bound

