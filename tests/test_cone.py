import numpy as np
import pytest
from draws import random_singular_cone_element

from oalab import cone
from oalab.cone import accretive, cone_constant, in_F
from oalab.matcore import EXACT_TOL, RANK_TOL, CrossCheckError, operator_norm, psd_within
from oalab.sampling import complex_normal, random_contraction


def test_identity_memberships():
    i2 = np.eye(2)
    assert in_F(i2)
    assert in_F(2 * i2)  # ||1 - 2*1|| = 1, boundary
    assert accretive(i2)


def test_zero_matrix_is_boundary_member():
    z = np.zeros((3, 3))
    assert in_F(z)
    assert cone_constant(z) is None


def test_upper_triangular_unit_example():
    x = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert in_F(x)  # ||1 - x|| = ||E12|| = 1
    assert not in_F(2 * x)


def test_two_times_identity_boundary():
    assert in_F(2.0 * np.eye(4))
    assert not in_F(2.0000001 * np.eye(4))


def test_clear_nonmember():
    assert not in_F(np.diag([3.0, 1.0]))
    assert not in_F(np.array([[0.0, 2.0], [0.0, 0.0]]))


def test_cone_constant_identity_is_two():
    # x + x* = 2I, x*x = I: largest C with 2I >= C I is 2
    assert cone_constant(np.eye(3)) == pytest.approx(2.0, abs=1e-6)


def test_cone_constant_scaling():
    # x = tI: 2t >= C t^2 -> C = 2/t
    for t in (0.5, 2.0):
        assert cone_constant(t * np.eye(2)) == pytest.approx(2.0 / t, rel=1e-6)


def test_cone_constant_none_when_not_accretive():
    assert cone_constant(np.array([[0.0, 0.0], [2.0, 0.0]])) is None
    assert cone_constant(-np.eye(2)) is None


def test_cone_constant_is_the_exact_boundary():
    # C x sits on the boundary of the cone: within rounding of ||1 - Cx|| = 1,
    # and a relative 1e-6 more leaves it
    rng = np.random.default_rng(25)
    for trial in range(40):
        dim = int(rng.integers(1, 9))
        if trial % 2 and dim > 1:
            x = random_singular_cone_element(rng, dim, kernel_dim=int(rng.integers(1, dim)))
        else:
            x = np.eye(dim) - random_contraction(rng, dim)
        c = cone_constant(x)
        assert operator_norm(np.eye(dim) - c * x) <= 1 + 1e-12
        assert operator_norm(np.eye(dim) - c * (1 + 1e-6) * x) > 1


def test_random_cone_elements_are_members():
    rng = np.random.default_rng(21)
    for _ in range(50):
        dim = int(rng.integers(1, 7))
        x = np.eye(dim) - random_contraction(rng, dim)
        assert in_F(x)
        # scaling into [0, 1] keeps membership (convexity with 0)
        assert in_F(rng.uniform(0.0, 1.0) * x)


def test_half_cone_implies_cone():
    rng = np.random.default_rng(22)
    for _ in range(50):
        dim = int(rng.integers(1, 7))
        x = (np.eye(dim) - random_contraction(rng, dim)) / 2
        assert in_F(2 * x)
        assert in_F(x)


def test_convex_combinations_stay_in_cone():
    rng = np.random.default_rng(23)
    for _ in range(25):
        dim = int(rng.integers(2, 6))
        x, y = (np.eye(dim) - random_contraction(rng, dim) for _ in range(2))
        t = rng.uniform()
        assert in_F(t * x + (1 - t) * y)


def test_strict_elements_have_cone_constant_certificate():
    rng = np.random.default_rng(24)
    for _ in range(25):
        dim = int(rng.integers(1, 6))
        x = np.eye(dim) - random_contraction(rng, dim, radius=0.95)
        assert accretive(x)
        c = cone_constant(x)
        assert c is not None and c > 0
        # maximality: slightly larger constants break positivity
        h = x + x.conj().T - (c * 1.01 + 1e-6) * (x.conj().T @ x)
        assert np.linalg.eigvalsh((h + h.conj().T) / 2)[0] < 0


def _lam_min(h):
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0])


def _cone_cases(rng, n):
    """A member, a strict non-member (``||1 - x|| = 1.05``) and a singular
    boundary element (``||1 - x|| = 1`` with a kernel) of size ``n``."""
    g = complex_normal(rng, (n, n))
    outside = np.eye(n) - 1.05 * g / np.linalg.norm(g, 2)
    boundary = np.zeros((1, 1)) if n == 1 else random_singular_cone_element(rng, n)
    return [(np.eye(n) - random_contraction(rng, n), True), (outside, False), (boundary, True)]


@pytest.mark.parametrize("n", [1, 2, 8, 200])
def test_cholesky_positivity_agrees_with_eigvalsh(n):
    # The shifted-Cholesky decisions against the lambda_min tests they
    # replace, on members, strict non-members and singular boundary elements.
    tol = EXACT_TOL
    rng = np.random.default_rng(30 + n)
    for x, member in _cone_cases(rng, n):
        a = np.asarray(x, dtype=complex)
        defect = a + a.conj().T - a @ a.conj().T
        assert (_lam_min(defect) >= -tol) == member
        assert in_F(x) == member
        assert accretive(x) == (_lam_min(a + a.conj().T) >= -tol)
        if member:
            strict = psd_within((a + a.conj().T) / 2.0, -tol)
            assert strict == (_lam_min((a + a.conj().T) / 2.0) > tol)
        c = cone_constant(x)
        assert (c is None) == (not accretive(x) or operator_norm(a) <= RANK_TOL)


def test_identity_gap_still_raises(monkeypatch):
    # A norm route that contradicts the positivity route by far more than
    # the identity ||1-x||^2 = 1 - lambda_min allows is a numerical fault.
    x = np.eye(6) - random_contraction(np.random.default_rng(40), 6)
    monkeypatch.setattr(cone, "operator_norm", lambda m: 1.5)
    with pytest.raises(CrossCheckError, match="identity gap"):
        in_F(x)


def test_borderline_skew_is_decided_by_the_norm(monkeypatch):
    # On a boundary element, a norm just past 1 + EXACT_TOL disagrees with
    # positivity while the identity holds to 10 * EXACT_TOL: no fault, and
    # the norm route decides.
    x = random_singular_cone_element(np.random.default_rng(41), 6)
    assert in_F(x)
    monkeypatch.setattr(cone, "operator_norm", lambda m: 1.0 + 2.0 * EXACT_TOL)
    assert not in_F(x)
