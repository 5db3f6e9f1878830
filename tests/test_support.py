import numpy as np
import pytest
from draws import random_singular_cone_element

from oalab import support
from oalab.matcore import RANK_TOL, ConvergenceError, matrix_span, operator_norm
from oalab.sampling import haar_unitaries, random_contraction
from oalab.spectral import sharp_neumann
from oalab.support import (
    _bai_limit_projection,
    _cond_below,
    join_supports,
    power_limit_projection,
    support_projection,
    support_projection_routes,
)


def test_support_is_two_sided_projection():
    rng = np.random.default_rng(60)
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        x = (
            random_singular_cone_element(rng, dim)
            if rng.uniform() < 0.5
            else np.eye(dim) - random_contraction(rng, dim)
        )
        if operator_norm(x) < 1e-8:
            continue
        s = support_projection(x)
        np.testing.assert_allclose(s @ s, s, atol=1e-10)
        np.testing.assert_allclose(s, s.conj().T, atol=1e-10)
        np.testing.assert_allclose(s @ x, x, atol=1e-8)
        np.testing.assert_allclose(x @ s, x, atol=1e-8)


def test_support_of_invertible_is_identity():
    rng = np.random.default_rng(61)
    x = np.eye(5) - random_contraction(rng, 5, radius=0.95)
    np.testing.assert_allclose(support_projection(x), np.eye(5), atol=1e-9)


def test_support_rejects_zero():
    with pytest.raises(ValueError):
        support_projection(np.zeros((3, 3)))


def test_three_routes_agree():
    rng = np.random.default_rng(62)
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        if rng.uniform() < 0.6:
            x = random_singular_cone_element(
                rng, dim, kernel_dim=int(rng.integers(1, dim))
            )
        else:
            x = np.eye(dim) - random_contraction(rng, dim)
        if operator_norm(x) < 1e-8:
            continue
        routes = support_projection_routes(x)
        for value in routes["residuals"].values():
            assert value < 1e-6


def test_bai_limit_fallback_on_defective_element():
    # 0 (+) Jordan block at 1 is in the cone but has no eigenbasis
    rng = np.random.default_rng(63)
    core = np.zeros((3, 3), dtype=complex)
    core[1:, 1:] = [[1.0, 1.0], [0.0, 1.0]]
    u = haar_unitaries(rng, 1, 3)[0]
    x = u @ core @ u.conj().T
    routes = support_projection_routes(x)
    assert routes["residuals"]["svd_vs_bai_limit"] < 1e-6


def test_power_limit_projects_onto_kernel():
    rng = np.random.default_rng(64)
    x = random_singular_cone_element(rng, 6, kernel_dim=2)
    p = power_limit_projection(x)
    np.testing.assert_allclose(p @ p, p, atol=1e-6)
    np.testing.assert_allclose(x @ p, np.zeros_like(x), atol=1e-5)
    assert abs(np.trace(p).real - 2) < 1e-5


def test_power_limit_nonconvergence_is_explicit(monkeypatch):
    # near-kernel directions at scale 1e-4 are still in transit at n = 2^10,
    # so an insufficient cap must surface as an error, not a wrong limit
    monkeypatch.setattr(support, "POWER_LIMIT_CAP", 2**10)
    x = np.diag([1e-4, 2e-4, 1.0])
    with pytest.raises(ConvergenceError, match="last step") as info:
        power_limit_projection(x)
    # the message carries the exact operator norm of the last step (2^9 ->
    # 2^10), not a bound: two directions in transit keep ||.||_F above it
    z = np.eye(3) - x / 2.0
    w = z.conj().T @ z
    w = (w + w.conj().T) / 2.0
    for _ in range(10):
        nxt = w @ w
        nxt = (nxt + nxt.conj().T) / 2.0
        step, w = nxt - w, nxt
    reported = float(str(info.value).rsplit("last step ", 1)[1])
    assert reported == operator_norm(step)
    lam = (1.0 - np.array([0.5e-4, 1e-4])) ** 2
    assert reported == pytest.approx(np.max(lam**512 - lam**1024), rel=1e-9)


@pytest.mark.parametrize("dim, kernel_dim", [(2, 1), (5, 2), (9, 4), (9, 8)])
def test_bai_limit_scaling_is_bit_equal_to_the_diagonal_product(dim, kernel_dim):
    # the closed-form route scales the columns of the eigenbasis; the
    # reference keeps the product with diag(limit) that it replaced
    rng = np.random.default_rng(dim + kernel_dim)
    x = np.asarray(random_singular_cone_element(rng, dim, kernel_dim=kernel_dim), dtype=complex)
    eigvals, v = np.linalg.eig(x)
    kernel = np.abs(eigvals) <= RANK_TOL * max(1.0, float(np.abs(eigvals).max()))
    assert kernel.sum() == kernel_dim and np.linalg.cond(v) < 1e8
    limit = np.where(kernel, 0.0, 1.0).astype(complex)
    reference = v @ np.diag(limit) @ np.linalg.inv(v)
    assert _bai_limit_projection(x).tobytes() == reference.tobytes()


@pytest.mark.parametrize("cond", [1.0, 1e4, 9.9e7, 1.01e8, 1.5e8, 3e8, 1e12])
@pytest.mark.parametrize("spread", ["geometric", "one-small"])
def test_cond_below_decides_as_the_svd(cond, spread):
    # The Frobenius product bounds cond(v) above by about cond(v) for a
    # geometric spectrum and by about sqrt(3) cond(v) for three unit singular
    # values and one small one, so near 1e8 the latter is left to the SVD.
    rng = np.random.default_rng(7)
    if spread == "geometric":
        s = np.geomspace(1.0, 1.0 / cond, 4)
    else:
        s = np.array([1.0, 1.0, 1.0, 1.0 / cond])
    v = (haar_unitaries(rng, 1, 4)[0] * s) @ haar_unitaries(rng, 1, 4)[0]
    assert _cond_below(v, np.linalg.inv(v), 1e8) == (np.linalg.cond(v) < 1e8)


def test_routes_reject_zero():
    with pytest.raises(ValueError, match="x != 0"):
        support_projection_routes(np.zeros((3, 3)))


def test_routes_reject_nonzero_nilpotent():
    # ||x|| = 1 passes the nonzero check, but the Bai-limit route finds every
    # eigenvalue in the kernel cluster: x is not in the cone.
    with pytest.raises(ValueError, match="outside the kernel cluster"):
        support_projection_routes(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_power_limit_treats_subtolerance_directions_as_kernel():
    # directions below RANK_TOL plateau at eigenvalue ~1 and are captured into
    # the kernel projection, matching the SVD route's rank decision
    x = np.diag([1e-14, 1.0])
    p = power_limit_projection(x)
    np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-6)


@pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="the power limit stops on an absolute step, so a small-norm element "
    "stops at once (direction 15)",
)
def test_routes_agree_on_a_small_norm_element():
    # The SVD and Bai routes find rank 1; the power route stopped at n = 2
    # with a projection near 0 (residual 0.9999998).
    routes = support_projection_routes(1e-7 * np.diag([1.0, 0.05]))
    assert routes["residuals"]["svd_vs_power_limit"] <= 1e-6


def test_join_supports_known_case():
    x1 = np.diag([2.0, 0.0, 0.0])
    x2 = np.diag([0.0, 1.0, 0.0])
    out = join_supports([x1, x2])
    np.testing.assert_allclose(out["join"], np.diag([1.0, 1.0, 0.0]), atol=1e-10)
    assert out["residual"] < 1e-9


def test_join_supports_random_families():
    rng = np.random.default_rng(65)
    for _ in range(10):
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(2, 5))
        family = [
            random_singular_cone_element(rng, dim, kernel_dim=int(rng.integers(1, dim)))
            for _ in range(k)
        ]
        out = join_supports(family)
        assert out["residual"] < 1e-6


def test_join_supports_rejects_non_cone_member():
    with pytest.raises(ValueError):
        join_supports([np.diag([2.0, 0.0]), np.diag([5.0, 0.0])])


def test_every_rank_decision_reads_one_cutoff():
    # sigma_2 = 7e-9 sits between RANK_TOL * sigma_1 and RANK_TOL: a cutoff
    # relative to sigma_1 alone would call t invertible on the SVD route and
    # in its span while the norms, the Bai limit and the power limit call it
    # singular.
    t = np.diag([0.5, 7e-9])
    assert sharp_neumann(t).singular
    routes = support_projection_routes(t)
    for name in ("svd", "bai_limit", "power_limit"):
        assert abs(np.trace(routes[name]) - 1.0) <= 1e-6, name
    assert max(routes["residuals"].values()) <= 1e-6
    assert matrix_span([np.diag([0.5, 0.0]), np.diag([0.0, 7e-9])]).dim == 1
