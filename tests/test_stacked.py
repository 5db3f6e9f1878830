"""Stacked evaluation against the per-matrix loops it replaced.

``ocp_falsify``'s Haar phase, ``numerical_range`` and ``disk_test`` run as
stacked numpy calls over ``(B, n, n)`` blocks, and ``stinespring``'s Kraus
selection and ``matrix_map_from_kraus``'s tabulation as single numpy calls.
The sequential versions are kept here as references: where the arithmetic
per matrix is unchanged the results must be equal bit for bit, and where a
reduction runs in another order (the boundary points of the numerical
range, the Kraus tabulation) within a tolerance fixed from the dtype.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from draws import random_singular_cone_element

from oalab import algebra, calculus, matcore, ocpmap, suites
from oalab.calculus import matrix_power_r, spectral_idempotent
from oalab.cone import in_F
from oalab.matcore import (
    EXACT_TOL,
    ITER_TOL,
    RANK_TOL,
    STACK_ENTRY_CAP,
    matrix_span,
    matrix_to_json,
    operator_norm,
    operator_norm_at_most,
    operator_norms,
    stack_slices,
)
from oalab.ocpmap import (
    MatrixMap,
    amplify,
    disk_test,
    entangled_cone_element,
    identity_map,
    matrix_map_from_kraus,
    ocp_falsify,
    stinespring,
    transpose_map,
)
from oalab.sampling import complex_normal, haar_unitaries, random_contraction
from oalab.spectral import numerical_range
from oalab.support import (
    _bai_limit_projection,
    join_supports,
    power_limit_projection,
    support_projection,
    support_projection_routes,
)

try:  # numpy >= 2
    from numpy.linalg import _linalg as _linalg_impl
except ImportError:
    from numpy.linalg import linalg as _linalg_impl

ROOT = Path(__file__).resolve().parents[1]

def sequential_haar(rng, dim):
    q, r = np.linalg.qr(complex_normal(rng, (dim, dim)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def sequential_ocp_falsify(t, c, k, budget, seed):
    """The witness search with one QR and one SVD per Haar draw.

    Its witness rule reads ``ocpmap.ITER_TOL`` at call time, as
    ``ocp_falsify`` does, so a test that patches it moves both.
    """
    amp = amplify(t, k)
    kn, km = amp.in_dim, amp.out_dim
    rng = np.random.default_rng(seed)
    target = c * np.eye(km, dtype=complex)
    eye = np.eye(kn, dtype=complex)

    def value(x):
        return operator_norm(target - amp.apply(x))

    def to_beat(v):
        return v + EXACT_TOL * max(1.0, v)

    evaluations = 0
    candidates = [eye + eye, np.zeros((kn, kn), dtype=complex)]
    if k == t.in_dim:
        candidates.append(entangled_cone_element(t.in_dim))
    best_x, best_val = None, -np.inf
    for x in candidates:
        val = value(x)
        evaluations += 1
        if val > best_val:
            best_x, best_val = x, val
    while evaluations < budget // 2:
        x = eye + sequential_haar(rng, kn)
        val = value(x)
        evaluations += 1
        if val > to_beat(best_val):
            best_x, best_val = x, val
    x = best_x
    while evaluations < budget:
        svd_u, _, svd_vh = np.linalg.svd(target - amp.apply(x))
        grad = -amp.adjoint_apply(np.outer(svd_u[:, 0], svd_vh[0].conj()))
        u, _, vh = np.linalg.svd(grad)
        x_next = eye + u @ vh
        val = value(x_next)
        evaluations += 1
        if val <= to_beat(best_val):
            break
        best_x, best_val, x = x_next, val, x_next
    certified_value = operator_norm(target - amp.apply(best_x))
    if in_F(best_x) and certified_value > c + ocpmap.ITER_TOL:
        return {
            "x": matrix_to_json(best_x),
            "level": k,
            "bound": float(c),
            "value": float(certified_value),
            "margin": float(certified_value - c),
        }
    return None


def sequential_stinespring(t):
    """Kraus operators, ``v`` and residual, one Choi eigenpair at a time from the top."""
    lam, vecs = ocpmap._cp_choi_eigh(t)
    n, m = t.in_dim, t.out_dim
    top = max(float(lam[-1]), 0.0)
    kraus = []
    for s in range(len(lam) - 1, -1, -1):
        if lam[s] <= RANK_TOL * max(top, 1.0):
            break
        kraus.append(np.sqrt(lam[s]) * vecs[:, s].reshape(n, m).T.copy())
    if not kraus:
        kraus = [np.zeros((m, n), dtype=complex)]
    rebuilt = matrix_map_from_kraus(kraus)
    residual = float(np.linalg.norm(t.action - rebuilt.action, axis=(2, 3)).max())
    return kraus, np.vstack([k.conj().T for k in kraus]), residual


def sequential_kraus_action(kraus):
    """``T(E_ij) = sum_s K_s E_ij K_s^*`` tabulated one matrix unit at a time."""
    m, n = kraus[0].shape
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    images = [sum(k @ e @ k.conj().T for k in kraus) for e in units]
    return np.array(images, dtype=complex).reshape(n, n, m, m)


def sequential_numerical_range(x, theta_count):
    thetas = np.linspace(0.0, 2.0 * np.pi, theta_count, endpoint=False)
    boundary = np.empty(theta_count, dtype=complex)
    support = np.empty(theta_count)
    for j, theta in enumerate(thetas):
        phase = np.exp(-1j * theta)
        w, v = np.linalg.eigh((phase * x + np.conj(phase) * x.conj().T) / 2.0)
        support[j] = w[-1]
        boundary[j] = v[:, -1].conj() @ x @ v[:, -1]
    return boundary, support


def sequential_disk_sweep(x, circle_points):
    eye = np.eye(x.shape[0], dtype=complex)
    thetas = 2.0 * np.pi * np.arange(circle_points) / circle_points
    zs = [1.0 + np.exp(1j * th) for th in thetas] + [0.0, 1.0, 2.0]
    worst_excess, worst_z = -np.inf, 0.0 + 0.0j
    for z in zs:
        excess = operator_norm(eye - z * x) - 1.0
        if excess > worst_excess:
            worst_excess, worst_z = excess, complex(z)
    return worst_excess, worst_z


def _kraus_map(rng, n, m):
    return matrix_map_from_kraus([complex_normal(rng, (m, n)) for _ in range(2)])


def _isometric_map(rng, n, m):
    """``x -> V x V*`` for an isometry ``V``: ``||1 - T(1 + u)|| = 1`` on every unitary."""
    return matrix_map_from_kraus([haar_unitaries(rng, 1, m)[0][:, :n]])


# Every (n, m, k) with n, m, k in {1, 2, 3}: kn, km <= 9, and kn = 1 at (1, m, 1).
LEVEL_CASES = [(n, m, k) for n in (1, 2, 3) for m in (1, 2, 3) for k in (1, 2, 3)]

# An iteration tolerance far below the rounding.
HAIR_TRIGGER = 1e-300


def _block(kn, km):
    """Haar draws per stacked block: the ``(B, km, km)`` images and their
    Gram stack, not only the ``(B, kn, kn)`` draws, stay within the cap."""
    return STACK_ENTRY_CAP // max(kn, km) ** 2


def _haar_blocks(t, k, budget):
    """The Haar phase's blocks: draws are ``budget // 2`` minus the 2 or 3
    starting candidates, and none below zero."""
    starts = 3 if k == t.in_dim else 2
    draws = max(0, budget // 2 - starts)
    return -(-draws // _block(k * t.in_dim, k * t.out_dim))


def _stacked(calls):
    """The shapes of the stacked ``(B, n, n)`` factorizations among the recorded calls."""
    return [shape for shape in calls if len(shape) == 3]


class TestStackSlices:
    @pytest.mark.parametrize("count, dim", [(1, 1), (5000, 1), (100, 8), (64, 8), (3, 70)])
    def test_slices_cover_the_range_in_capped_blocks(self, count, dim):
        blocks = stack_slices(count, dim)
        assert np.array_equal(
            np.concatenate([np.arange(count)[b] for b in blocks]), np.arange(count)
        )
        assert all(b.stop - b.start <= max(1, STACK_ENTRY_CAP // dim**2) for b in blocks)
        assert all(b.stop > b.start for b in blocks)


class TestHaarUnitaries:
    @pytest.mark.parametrize("dim", [1, 2, 3, 6, 9])
    def test_equals_sequential_draws(self, dim):
        a, b = np.random.default_rng(dim), np.random.default_rng(dim)
        sequential = np.array([sequential_haar(a, dim) for _ in range(50)])
        stacked = np.concatenate([haar_unitaries(b, 20, dim), haar_unitaries(b, 30, dim)])
        assert np.array_equal(stacked, sequential)
        # Both generators are left at the same point of the stream.
        assert a.standard_normal() == b.standard_normal()

    def test_single_draw_is_the_count_one_case(self):
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        assert np.array_equal(haar_unitaries(a, 1, 5)[0], sequential_haar(b, 5))


class TestOperatorNorms:
    def test_equals_operator_norm_per_matrix(self):
        stack = complex_normal(np.random.default_rng(0), (40, 5, 5))
        expected = np.array([operator_norm(x) for x in stack])
        assert np.array_equal(operator_norms(stack), expected)
        # every size the post-check stack of matrix_power_r takes at d <= 9
        rng = np.random.default_rng(1)
        for n in range(1, 10):
            stack = complex_normal(rng, (2, n, n))
            assert np.array_equal(operator_norms(stack), [operator_norm(x) for x in stack]), n

    @pytest.mark.parametrize(
        "stack",
        [
            np.eye(3),
            np.zeros((4, 2, 3)),
            np.zeros((0, 2, 2)),
            np.zeros((2, 0, 0)),
            np.full((2, 2, 2), np.nan),
            np.stack([np.eye(2), np.diag([1.0, np.inf])]),
            np.stack([np.eye(2), np.diag([1.0, 1j * np.inf])]),
        ],
    )
    def test_rejects_malformed_stacks(self, stack):
        with pytest.raises(ValueError):
            operator_norms(stack)


class TestImages:
    """``MatrixMap._images`` is one batched product: each draw rounds as in
    the one-draw ``apply``, whatever the stack's length."""

    @pytest.mark.parametrize("n, m, k", LEVEL_CASES)
    def test_stacked_images_equal_one_draw_apply(self, n, m, k):
        rng = np.random.default_rng(9 * n + 3 * m + k)
        amp = amplify(_kraus_map(rng, n, m), k)
        kn, km = k * n, k * m
        for count in (1, 2, _block(kn, km)):
            xs = np.eye(kn) + haar_unitaries(rng, count, kn)
            images = amp._images(xs)
            assert images.shape == (count, km, km)
            for image, x in zip(images, xs):
                assert np.array_equal(image, amp.apply(x))


class TestFalsifyStacked:
    # Haar draws = budget // 2 minus 2 or 3 starting candidates.  A block
    # holds 256 draws at kn = km = 4 and 50 at max(kn, km) = 9, so these
    # budgets cover one block, exactly two blocks, and several blocks that
    # end mid-block.
    @pytest.mark.parametrize("budget", [40, 206, 1100])
    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_transpose_level_two(self, budget, c):
        t = transpose_map(2)
        assert _block(4, 4) == 256
        for seed in (0, 5):
            got = ocp_falsify(t, c, k=2, budget=budget, seed=seed)
            assert got is not None
            assert got == sequential_ocp_falsify(t, c, 2, budget, seed)

    @pytest.mark.parametrize(
        "n, m, k, budget",
        [(1, 3, 3, 30), (2, 3, 1, 16), (3, 2, 2, 240), (3, 3, 3, 206), (3, 3, 3, 230)],
    )
    def test_cp_maps_at_levels_one_to_three(self, n, m, k, budget):
        assert _block(3, 9) == _block(9, 9) == 50
        rng = np.random.default_rng(10 * n + m)
        t = _kraus_map(rng, n, m)
        natural = operator_norm(t.apply(np.eye(n)))
        outcomes = []
        for c in (natural, 0.5 * natural):
            for seed in (1, 2):
                got = ocp_falsify(t, c, k=k, budget=budget, seed=seed)
                assert got == sequential_ocp_falsify(t, c, k, budget, seed)
                outcomes.append(got is None)
        # The natural bound holds for a completely positive map; half of it
        # is beaten by the identity candidate, so both branches are compared.
        assert outcomes == [True, True, False, False]

    # The transpose at level 1 (2 starting candidates) and level 2 (3, with
    # the entangled element).  Below a budget of 8 the starting candidates
    # alone can fill or overrun half the budget; the search then draws no
    # Haar unitary, and spends at most max(budget, starts) evaluations.
    @pytest.mark.parametrize("budget", range(1, 9))
    @pytest.mark.parametrize("k, starts", [(1, 2), (2, 3)])
    def test_small_budgets_bound_the_evaluations(self, monkeypatch, budget, k, starts):
        draws, steps = [], []
        haar, polar = ocpmap.haar_unitaries, ocpmap._polar_unitary
        monkeypatch.setattr(
            ocpmap, "haar_unitaries", lambda rng, count, dim: draws.append(count) or haar(rng, count, dim)
        )
        monkeypatch.setattr(ocpmap, "_polar_unitary", lambda g: steps.append(g) or polar(g))
        t = transpose_map(2)
        got = ocp_falsify(t, 1.0, k=k, budget=budget, seed=0)
        # one evaluation per starting candidate, Haar draw and polish step
        assert sum(draws) == max(0, budget // 2 - starts)
        assert starts + sum(draws) + len(steps) <= max(budget, starts)
        assert got == sequential_ocp_falsify(t, 1.0, k, budget, 0)
        assert (got is None) == (k == 1)

    def test_transpose_level_three(self):
        t = transpose_map(3)
        for seed in (0, 3):
            got = ocp_falsify(t, 1.5, k=3, budget=230, seed=seed)
            assert got == sequential_ocp_falsify(t, 1.5, 3, 230, seed)

    # With an iteration tolerance far below the rounding, a witness is any
    # draw whose value rounds above c, so the reference and the kernel agree
    # only if every image and every norm rounds the same in both.
    @pytest.mark.parametrize("n, m, k", LEVEL_CASES)
    def test_hair_trigger_witnesses_equal_the_reference(self, monkeypatch, n, m, k):
        monkeypatch.setattr(ocpmap, "ITER_TOL", HAIR_TRIGGER)
        t = _kraus_map(np.random.default_rng(70 + 9 * n + 3 * m + k), n, m)
        natural = operator_norm(t.apply(np.eye(n)))
        for c in (natural, 0.5 * natural):
            for seed in (5, 6, 7):
                got = ocp_falsify(t, c, k=k, budget=200, seed=seed)
                assert got == sequential_ocp_falsify(t, c, k, 200, seed)


class TestNumericalRangeStacked:
    # Blocks hold 4096, 1024, 64 and 1 directions at n = 1, 2, 8, 70.
    @pytest.mark.parametrize("n, theta_count", [(1, 5000), (2, 1500), (8, 100), (70, 30)])
    def test_matches_per_angle_eigh(self, n, theta_count):
        x = complex_normal(np.random.default_rng(n), (n, n))
        sample = numerical_range(x, theta_count=theta_count)
        boundary, support = sequential_numerical_range(x, theta_count)
        assert np.max(np.abs(sample.boundary_points - boundary)) <= 1e-14 * np.max(
            np.abs(boundary)
        )
        assert np.max(np.abs(sample.support_values - support)) <= 1e-14 * np.max(
            np.abs(support)
        )
        assert sample.radius == pytest.approx(float(np.max(support)), rel=1e-14)


class TestDiskTestStacked:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_matches_the_loop_and_picks_the_same_z(self, n):
        rng = np.random.default_rng(n)
        g = complex_normal(rng, (n, n))
        h = g @ g.conj().T
        cases = [
            g / (2.0 * n),
            h / operator_norm(h),
            # Ties: every circle point and z = 2 give excess 0 (up to
            # rounding) for the identity, all points give 0 for zero.
            np.eye(n),
            np.zeros((n, n)),
        ]
        for x in cases:
            for points in (8, 150, 1000):
                report = disk_test(x, circle_points=points)
                worst_excess, worst_z = sequential_disk_sweep(x.astype(complex), points)
                assert report.worst_excess == worst_excess
                assert report.worst_z == worst_z


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes passed to numpy's SVD, however it is reached: ``np.linalg.norm``
    and ``np.linalg.cond`` call it by their module's own name."""
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(_linalg_impl, "svd", counting)
    return calls


class TestSvdCounts:
    """SVD calls per kernel call on a 5x5 matrix.

    At n <= 8 each call costs several times its LAPACK work, so these
    counts keep validation and post-check SVDs from creeping back.
    """

    def test_operator_norm_is_one_values_only_svd(self, svd_calls):
        operator_norm(complex_normal(np.random.default_rng(0), (5, 5)))
        assert svd_calls == [(5, 5)]

    def test_norm_threshold_takes_an_svd_only_inside_the_frobenius_band(self, svd_calls):
        d = complex_normal(np.random.default_rng(3), (5, 5))
        fro = float(np.linalg.norm(d))
        assert operator_norm_at_most(d, 1.01 * fro)
        assert not operator_norm_at_most(d, 0.99 * fro / np.sqrt(5))
        assert svd_calls == []
        assert operator_norm_at_most(d, operator_norm(d))
        assert svd_calls == [(5, 5), (5, 5)]
        # ||scale|| is not computed once d meets the threshold at ||scale|| <= 1
        svd_calls.clear()
        assert operator_norm_at_most(d, 1.01 * fro, scale=np.eye(7))
        assert svd_calls == []
        assert not operator_norm_at_most(d, 0.99 * fro / np.sqrt(5), scale=np.eye(7))
        assert svd_calls == [(7, 7)]

    def test_matrix_power_r_makes_one(self, svd_calls):
        x = np.eye(5) - random_contraction(np.random.default_rng(1), 5)
        svd_calls.clear()
        matrix_power_r(x, 0.5)
        # in_F's norm route; the Frobenius bounds decide both post-checks
        assert svd_calls == [(5, 5)]

    def test_falsify_polish_takes_one_svd_per_iterate(self, svd_calls, monkeypatch):
        # An M_2 -> M_3 map at level 1: the images are 3x3, the iterates 2x2.
        steps = []
        polar = ocpmap._polar_unitary
        monkeypatch.setattr(ocpmap, "_polar_unitary", lambda g: steps.append(g) or polar(g))
        t = MatrixMap(2, 3, complex_normal(np.random.default_rng(4), (2, 2, 3, 3)))
        expected = sequential_ocp_falsify(t, 1.0, 1, 60, 1)
        svd_calls.clear()
        steps.clear()
        assert ocp_falsify(t, 1.0, k=1, budget=60, seed=1) == expected
        assert expected is not None
        assert len(steps) == 4
        # the two starting candidates and the final certification, then one
        # SVD of the polish's starting point and one of each iterate
        assert svd_calls.count((3, 3)) == 2 + 1 + 1 + len(steps)

    def test_support_routes_add_only_their_residuals(self, svd_calls):
        x = random_singular_cone_element(np.random.default_rng(2), 5, kernel_dim=2)
        counts = []
        for route in (
            support_projection,
            _bai_limit_projection,
            power_limit_projection,
            support_projection_routes,
        ):
            svd_calls.clear()
            route(x)
            counts.append(len(svd_calls))
        svd, bai, power, routes = counts
        # one full SVD for the nonzero check and the range projection
        assert svd == 1
        # the Frobenius bound on cond(v) decides the eigenbasis route, and
        # the Frobenius bounds decide every squaring step
        assert bai == 0
        assert power == 0
        # the three routes, then their three pairwise residuals
        assert routes == svd + bai + power + 3

    @pytest.mark.parametrize("k", [1, 3])
    def test_join_supports_adds_three_to_the_members_cone_checks(self, svd_calls, k):
        rng = np.random.default_rng(5)
        family = [np.eye(5) - random_contraction(rng, 5) for _ in range(k)]
        svd_calls.clear()
        join_supports(family)
        # in_F's norm route per member (the Frobenius bounds decide each
        # nonzero check), the stacked family's range projection, the
        # average's support projection and the residual between the two
        assert svd_calls == [(5, 5)] * k + [(5, 5 * k), (5, 5), (5, 5)]


@pytest.fixture
def cholesky_calls(monkeypatch):
    """Shapes passed to numpy's Cholesky, the Gram screen's factorization."""
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return calls


class TestGramScreen:
    """The Haar phase skips the SVD of a block whose stacked Cholesky of
    ``t 1 - M_b* M_b`` proves that no draw in it clears the incumbent's
    allowance, and so none can replace it."""

    @pytest.mark.parametrize("n, m, k", [(2, 2, 2), (2, 3, 1), (3, 2, 2), (3, 3, 3)])
    def test_cp_map_at_its_natural_bound_makes_no_stacked_svd(self, svd_calls, n, m, k):
        t = _kraus_map(np.random.default_rng(20 + 3 * n + m), n, m)
        c = operator_norm(t.apply(np.eye(n)))
        expected = sequential_ocp_falsify(t, c, k, 600, 7)
        svd_calls.clear()
        assert expected is None
        assert ocp_falsify(t, c, k=k, budget=600, seed=7) is None
        assert _stacked(svd_calls) == []

    def test_a_draw_beating_every_candidate_takes_the_svd(self, svd_calls):
        rng = np.random.default_rng(31)
        t = MatrixMap(2, 2, complex_normal(rng, (2, 2, 2, 2)))
        c, budget, seed = 1.0, 1100, 4
        amp = amplify(t, 2)
        eye = np.eye(4)

        def values(xs):
            return operator_norms(c * eye - amp._images(xs))

        candidates = np.array([2.0 * eye, 0.0 * eye, entangled_cone_element(2)])
        first_block = eye + haar_unitaries(np.random.default_rng(seed), _block(4, 4), 4)
        assert values(first_block).max() > values(candidates).max()
        expected = sequential_ocp_falsify(t, c, 2, budget, seed)
        svd_calls.clear()
        assert ocp_falsify(t, c, k=2, budget=budget, seed=seed) == expected
        assert expected is not None
        # of the three blocks, the first is scored by its SVD
        assert _stacked(svd_calls)[0] == (256, 4, 4)
        assert 1 <= len(_stacked(svd_calls)) <= _haar_blocks(t, 2, budget) == 3

    # A map constant on the unitaries ties every draw with the candidate
    # x = 0.  No tie clears the allowance EXACT_TOL max(1, v), so every
    # screen passes and no block takes an SVD: at ITER_TOL, and with the
    # witness rule's ITER_TOL patched far below the rounding, where a draw
    # rounding above c would otherwise be the witness.
    def _assert_ties_on_every_block(self, svd_calls, t, c, k, budget, seed):
        for iter_tol in (ITER_TOL, HAIR_TRIGGER):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ocpmap, "ITER_TOL", iter_tol)
                expected = sequential_ocp_falsify(t, c, k, budget, seed)
                svd_calls.clear()
                got = ocp_falsify(t, c, k=k, budget=budget, seed=seed)
            assert got == expected
            assert _stacked(svd_calls) == []
            if iter_tol == ITER_TOL:
                assert got is None

    # Every (m, k) in {1, 2, 3}^2, at the budgets of the cp1xm benchmark
    # jobs or above.
    @pytest.mark.parametrize(
        "n, m, k, budget",
        [
            (1, 1, 1, 400), (1, 1, 2, 600), (1, 1, 3, 1000),
            (1, 2, 1, 400), (1, 2, 2, 600), (1, 2, 3, 1000),
            (1, 3, 1, 600), (1, 3, 2, 600), (1, 3, 3, 1000),
        ],
    )
    def test_a_map_from_m1_ties_on_every_block(self, svd_calls, n, m, k, budget):
        # T(x) = x T(1) makes ||c 1 - T_k(1 + u)|| = c on every unitary u.
        t = _kraus_map(np.random.default_rng(40 + m), n, m)
        c = operator_norm(t.apply(np.eye(n)))
        self._assert_ties_on_every_block(svd_calls, t, c, k, budget, 8)

    @pytest.mark.parametrize("n, m, k, budget", [(2, 3, 1, 600), (2, 3, 2, 600)])
    def test_an_isometric_conjugation_ties_on_every_block(self, svd_calls, n, m, k, budget):
        # 1 - V(1 + u)V* is the projection 1 - VV* plus -VuV* on the range
        # of V, so its norm is 1 = ||T(1)|| on every unitary u.
        t = _isometric_map(np.random.default_rng(60 + m), n, m)
        c = operator_norm(t.apply(np.eye(n)))
        self._assert_ties_on_every_block(svd_calls, t, c, k, budget, 8)

    def test_identity_map_ties_on_every_block(self, svd_calls):
        assert _haar_blocks(identity_map(2), 2, 1100) == 3
        self._assert_ties_on_every_block(svd_calls, identity_map(2), 1.0, 2, 1100, 3)

    # T(x) = i x on M_1 at c = 1: the candidates x = 2 score |1 - 2i| = sqrt 5
    # and x = 0 scores 1, while a draw 1 + u scores |(1 - i) - iu|, up to
    # 1 + sqrt 2.  The two Haar draws are unitaries placed at
    # v + beat a(v) for v = sqrt 5 and a(v) = EXACT_TOL max(1, v); the polish
    # step lands on x = 0, which cannot move the incumbent, so the witness is
    # the Haar phase's incumbent.  A draw within the allowance of the
    # incumbent, the first draw's value once it has replaced it, is kept out.
    @pytest.mark.parametrize(
        "beats, kept",
        [((0.5, 0.5), None), ((2.0, 2.0), 0), ((2.0, 2.5), 0), ((0.5, 2.0), 1)],
        ids=["tie-tie", "beat-tie", "beat-beat-within", "tie-beat"],
    )
    def test_a_draw_replaces_the_incumbent_only_beyond_the_allowance(
        self, svd_calls, monkeypatch, beats, kept
    ):
        t = MatrixMap(1, 1, np.full((1, 1, 1, 1), 1j))
        v = operator_norm(1.0 - t.apply(2.0 * np.eye(1)))
        allowance = EXACT_TOL * max(1.0, v)
        # |sqrt 2 + e^{i phi}|^2 = 3 + 2 sqrt 2 cos phi
        w = v + np.array(beats) * allowance
        phi = np.arccos((w * w - 3.0) / (2.0 * np.sqrt(2.0)))
        us = (1j * np.exp(1j * phi) * (1.0 - 1j) / np.sqrt(2.0)).reshape(2, 1, 1)
        values = operator_norms(1.0 - amplify(t, 1)._images(np.eye(1) + us))
        np.testing.assert_allclose(values - v, np.array(beats) * allowance, rtol=1e-3)
        monkeypatch.setattr(ocpmap, "haar_unitaries", lambda rng, count, dim: us[:count])
        monkeypatch.setattr(ocpmap, "_polar_unitary", lambda g: -np.eye(len(g)))
        svd_calls.clear()
        got = ocp_falsify(t, 1.0, k=1, budget=10, seed=0)
        assert _stacked(svd_calls) == ([] if max(beats) < 1.0 else [(2, 1, 1)])
        if kept is None:
            assert got["x"] == matrix_to_json(2.0 * np.eye(1))
            assert got["value"] == v
        else:
            assert got["x"] == matrix_to_json(np.eye(1) + us[kept])
            assert got["value"] == values[kept]

    def test_stacks_stay_within_the_entry_cap_when_km_exceeds_kn(self, svd_calls, cholesky_calls):
        # M_1 -> M_32: the draws are 1 x 1 and the images 32 x 32, so a
        # block slices by km.  Sliced by kn, one block held 4096 images
        # (4M entries, some 130 MB with its difference stack).  Every draw
        # ties c, so each block's Gram screen passes and no SVD follows.
        t = _kraus_map(np.random.default_rng(50), 1, 32)
        c = operator_norm(t.apply(np.eye(1)))
        assert ocp_falsify(t, c, k=1, budget=8200, seed=0) is None
        stacked = _stacked(cholesky_calls)
        assert len(stacked) == _haar_blocks(t, 1, 8200) == 1025
        assert set(stacked) == {(4, 32, 32), (1, 32, 32)}
        assert all(np.prod(shape) <= STACK_ENTRY_CAP for shape in stacked)
        assert _stacked(svd_calls) == []


@pytest.fixture
def lapack_calls(monkeypatch):
    """Names of the Schur-family LAPACK routines called, in order, and of
    numpy's ``eigvals``; a ``zgees`` workspace query (``lwork=-1``) does no
    factorization and is not recorded."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if kwargs.get("lwork") != -1:
                calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    lapack = scipy.linalg.lapack
    for name in ("zgees", "ztrsen", "ztrsyl"):
        monkeypatch.setattr(lapack, name, counting(name, getattr(lapack, name)))
    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
    return calls


class TestSchurCounts:
    """Schur-family LAPACK calls per kernel call.

    On a separated spectrum the scalar Parlett recurrence needs no
    Sylvester solve; a cluster keeps one ``ztrsen`` per cluster of two or
    more eigenvalues and one ``ztrsyl`` per block column after the first.
    """

    def test_separated_spectrum_makes_no_sylvester_solve(self, lapack_calls):
        matrix_power_r(np.eye(5) - random_contraction(np.random.default_rng(1), 5), 0.5)
        assert lapack_calls == ["zgees"]

    def test_clusters_keep_their_reorderings_and_solves(self, lapack_calls):
        # eigenvalues 0.9 (three), 0.5 (two) and 0.3: three clusters, two of
        # them to gather, and two block columns after the first
        u = haar_unitaries(np.random.default_rng(4), 1, 6)[0]
        eigs = np.array([0.9, 0.5, 0.9 + 3e-5, 0.3, 0.5 - 2e-5, 0.9 - 4e-5])
        matrix_power_r((u * eigs) @ u.conj().T, 1 / 3)
        assert lapack_calls == ["zgees"] + ["ztrsen"] * 2 + ["ztrsyl"] * 2

    def test_singular_input_stays_blocked(self, lapack_calls):
        # a two-dimensional kernel is one cluster; the four other
        # eigenvalues are singletons, so five clusters in all
        x = random_singular_cone_element(np.random.default_rng(5), 6, kernel_dim=2)
        matrix_power_r(x, 0.5)
        assert lapack_calls == ["zgees", "ztrsen"] + ["ztrsyl"] * 4

    def test_spectral_idempotent_makes_one_schur(self, lapack_calls):
        # the gap check reads the Schur diagonal, and ztrsen sorts it
        x = random_singular_cone_element(np.random.default_rng(6), 6, kernel_dim=2)
        spectral_idempotent(x, radius=5e-4)
        assert lapack_calls == ["zgees", "ztrsen", "ztrsyl"]


@pytest.fixture
def eigen_calls(monkeypatch):
    """Names of numpy's Hermitian eigensolvers called, in order."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


class TestChoiEigenCounts:
    """``stinespring`` decides complete positivity by the ``eigh`` it factors with."""

    def test_stinespring_makes_one_eigh(self, eigen_calls):
        ocpmap.stinespring(_kraus_map(np.random.default_rng(2), 2, 3))
        assert eigen_calls == ["eigh"]

    def test_non_cp_map_is_rejected_by_the_same_eigh(self, eigen_calls):
        with pytest.raises(ValueError):
            ocpmap.stinespring(transpose_map(2))
        assert eigen_calls == ["eigh"]


class TestKrausStacked:
    """``stinespring``'s Kraus selection and ``matrix_map_from_kraus``'s
    tabulation against the loops they replaced."""

    @staticmethod
    def _maps(count):
        # every tenth map is zero and every tenth is rank deficient: its
        # Kraus operators are multiples of one another
        rng = np.random.default_rng(17)
        for trial in range(count):
            n, m, r = (int(d) for d in rng.integers(1, 4, size=3))
            kraus = [complex_normal(rng, (m, n)) for _ in range(r)]
            if trial % 10 == 0:
                kraus = [np.zeros((m, n), dtype=complex)]
            elif trial % 10 == 1:
                kraus = [kraus[0], 2j * kraus[0], -kraus[0]]
            yield kraus

    def test_stinespring_equals_the_eigenpair_loop(self):
        for kraus in self._maps(300):
            t = matrix_map_from_kraus(kraus)
            triple = stinespring(t)
            ref_kraus, ref_v, ref_residual = sequential_stinespring(t)
            assert len(triple.kraus) == len(ref_kraus)
            assert all(np.array_equal(a, b) for a, b in zip(triple.kraus, ref_kraus))
            assert np.array_equal(triple.v, ref_v)
            assert triple.residual == ref_residual

    def test_kraus_action_equals_the_matrix_unit_loop(self):
        for kraus in self._maps(300):
            action = matrix_map_from_kraus(kraus).action
            expected = sequential_kraus_action(kraus)
            scale = max(float(np.abs(expected).max()), np.finfo(float).tiny)
            assert np.abs(action - expected).max() <= 1e-14 * scale


class TestOcpFalsifyTraffic:
    """What one ``ocp_falsify`` call and one ocp-falsify suite run compute."""

    @pytest.fixture
    def in_f_calls(self, monkeypatch):
        calls = []
        member = ocpmap.in_F
        monkeypatch.setattr(ocpmap, "in_F", lambda x: calls.append(x) or member(x))
        return calls

    def test_membership_is_checked_only_on_a_returned_witness(self, in_f_calls):
        t = _kraus_map(np.random.default_rng(5), 2, 3)
        c = operator_norm(t.apply(np.eye(2)))
        assert ocp_falsify(t, c, k=2, budget=200, seed=1) is None
        assert in_f_calls == []
        witness = ocp_falsify(transpose_map(2), 1.0, k=2, budget=200, seed=1)
        assert witness is not None
        assert len(in_f_calls) == 1

    def test_suite_amplifies_once_per_call_and_factors_once_per_map(
        self, monkeypatch, eigen_calls
    ):
        from test_acceptance import _GOLDEN

        counts = {"ocp_falsify": 0, "shuffle": 0}
        inside, tensordot_inside = [], []
        verify, tensordot = ocpmap._verify_choi_shuffle, np.tensordot

        def falsify(*args, **kwargs):
            counts["ocp_falsify"] += 1
            inside.append(True)
            try:
                return ocp_falsify(*args, **kwargs)
            finally:
                inside.pop()

        def shuffle(*args):
            counts["shuffle"] += 1
            return verify(*args)

        def counted_tensordot(*args, **kwargs):
            tensordot_inside.append(bool(inside))
            return tensordot(*args, **kwargs)

        monkeypatch.setattr(suites, "ocp_falsify", falsify)
        monkeypatch.setattr(ocpmap, "_verify_choi_shuffle", shuffle)
        monkeypatch.setattr(np, "tensordot", counted_tensordot)
        trials = _GOLDEN["ocp-falsify"][0]["config"]["trials"]
        report = suites.run_suite(suites.SuiteConfig(suite="ocp-falsify", seed=3, trials=trials))
        assert report.failures == []
        # three transpose bounds, then levels 1-3 for each CP map
        assert counts == {"ocp_falsify": 3 + 3 * trials, "shuffle": 3 + 3 * trials}
        assert not any(tensordot_inside)
        # dilation_bound's stinespring is the only Choi factorization
        assert eigen_calls.count("eigh") == trials


def count_calls(monkeypatch, calls: Counter, module, name: str) -> None:
    """Count in ``calls[name]`` the calls of ``module.name``, made through
    every oalab module that imported it."""
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "oalab" and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counting)


class TestCertificateCounts:
    """Work per closure-battery and roots trial and per quotient-norm stage.

    Each ``ws_battery`` call builds ``oa(x)`` once and takes the spectrum of
    ``x`` once, the roots suite factors each element once for all its
    exponents, and ``quotient_norm`` forms the dual candidate ``G`` at most
    twice per smoothing stage rather than at every trial step of its descent.
    """

    def test_closure_battery_builds_oa_and_spectrum_once_per_battery(self, monkeypatch):
        calls = Counter()
        for module, name in ((algebra, "ws_battery"), (algebra, "generated_algebra"), (matcore, "spectrum")):
            count_calls(monkeypatch, calls, module, name)
        report = suites.run_suite(suites.SuiteConfig(suite="closure-battery", trials=6, seed=1))
        assert report.passed
        # six random trials and the four nilpotent-plus-invertible elements
        assert calls["ws_battery"] == 6 + 4
        assert calls["generated_algebra"] == calls["ws_battery"]
        assert calls["spectrum"] == calls["ws_battery"]

    def test_roots_suite_factors_each_element_once(self, monkeypatch):
        # Per trial, one matrix_powers call for x and one for x / 2: each
        # runs one cone check and one Schur form for all four exponents.
        calls = Counter()
        for module, name in ((suites, "matrix_powers"), (calculus, "in_F"), (matcore, "complex_schur")):
            count_calls(monkeypatch, calls, module, name)
        report = suites.run_suite(suites.SuiteConfig(suite="roots", dim=5, trials=6, seed=1))
        assert report.passed
        assert calls == {"matrix_powers": 2 * 6, "in_F": 2 * 6, "complex_schur": 2 * 6}

    def test_quotient_norm_forms_at_most_two_duals_per_stage(self, monkeypatch):
        # One dual at the first step stationary to ITER_TOL, one where the
        # stage ends, and none at the other trial steps of the descent.
        evaluated, duals = [], Counter()
        objective = algebra._dilation_objective

        def traced(a, j, x, mu):
            evaluated.append((objective(a, j, x, mu), mu))
            return evaluated[-1][0]

        def dual_of(s):
            duals[next(mu for t, mu in evaluated if t is s)] += 1
            return dual(s)

        dual = algebra._SmoothedNorm.dual.fget
        monkeypatch.setattr(algebra, "_dilation_objective", traced)
        monkeypatch.setattr(algebra._SmoothedNorm, "dual", property(dual_of))
        rng = np.random.default_rng(7)
        a = complex_normal(rng, (4, 4))
        result = algebra.quotient_norm(a, matrix_span(complex_normal(rng, (5, 4, 4))))
        assert result.status == "CERTIFIED"
        stages = len({mu for _, mu in evaluated})
        assert stages >= 2 and len(evaluated) > 2 * stages
        assert set(duals) == {mu for _, mu in evaluated}
        assert max(duals.values()) <= 2

    def test_hard_certify_mid_draw_certifies_in_47_evaluations(self, monkeypatch):
        # The benchmark's certify-mid draw of a random 3-dimensional J in
        # M_4 at seed 7 took 94 evaluations of f_mu over six tenfold stages
        # that each restarted where the last ended.
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "oabench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses resolve their annotations through sys.modules
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        job = next(
            job for job in workloads.certify_mid(np.random.default_rng(7))
            if job.name == "quotient_norm:random:n4k3"
        )
        calls = Counter()
        count_calls(monkeypatch, calls, algebra, "_dilation_objective")
        result = job.call()
        assert result.status == "CERTIFIED"
        assert job.check(result) is None
        assert calls["_dilation_objective"] <= 47
