import dataclasses
import json
import math
from typing import Optional

import numpy as np
import pytest
import scipy.linalg

from oalab.cone import in_F
from oalab.matcore import (
    EXACT_TOL,
    ITER_TOL,
    RANK_TOL,
    Subspace,
    as_square_matrix,
    complex_schur,
    matrix_from_json,
    matrix_span,
    matrix_to_json,
    operator_norm,
    operator_norm_at_most,
    psd_within,
    rank_cutoff,
    rounding_allowance,
    spectral_radius,
    spectrum,
    to_jsonable,
)
from oalab.sampling import complex_normal, haar_unitaries
from oalab.spectral import sharp_neumann
from oalab.suites import SuiteConfig


def test_tolerances_defaults():
    assert EXACT_TOL == 1e-9
    assert ITER_TOL == 1e-6
    assert RANK_TOL == 1e-8


# iter_tol is the one tolerance a caller sets; SuiteConfig carries and checks it.
@pytest.mark.parametrize("field", ["iter_tol"])
def test_tolerances_reject_nonpositive(field):
    with pytest.raises(ValueError):
        SuiteConfig(suite="roots", **{field: 0.0})
    with pytest.raises(ValueError):
        SuiteConfig(suite="roots", **{field: -1e-9})


def test_as_square_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_square_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_square_matrix(np.ones(4))
    with pytest.raises(ValueError):
        as_square_matrix(np.array([[np.inf, 0], [0, 1]]))
    # non-finite imaginary parts, NaN in either part
    for bad in (complex(0, np.nan), complex(0, np.inf), complex(0, -np.inf), complex(np.nan, 0)):
        with pytest.raises(ValueError, match="non-finite"):
            as_square_matrix(np.array([[1, 0], [bad, 1]]))


def test_operator_norm_is_bit_equal_to_numpy_two_norm():
    # real input is validated to complex first, so compare with that array
    rng = np.random.default_rng(8)
    for n in [*range(1, 41), 64, 128]:
        real = rng.standard_normal((n, n))
        for x in (real, real + 1j * rng.standard_normal((n, n))):
            assert operator_norm(x) == np.linalg.norm(np.asarray(x, dtype=complex), 2), n


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert operator_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0])


@pytest.mark.parametrize("n", range(1, 41))
def test_norm_threshold_is_the_svd_verdict(n):
    rng = np.random.default_rng(500 + n)
    for scale in (1e-12, 1e-3, 1.0, 1e6):
        d = scale * complex_normal(rng, (n, n))
        u, v = complex_normal(rng, (2, n))
        rank_one = scale * np.outer(u, v.conj())
        for m in (d, rank_one):
            norm, fro = operator_norm(m), float(np.linalg.norm(m))
            thresholds = [0.0, -1.0, 0.5 * norm, 2.0 * norm, fro, fro / np.sqrt(n)]
            # on and just beside the norm and both Frobenius bounds
            for t in (norm, fro, fro / np.sqrt(n)):
                thresholds += [t * (1.0 - 1e-9), t * (1.0 + 1e-9)]
            thresholds += list(rng.uniform(0.9 * fro / np.sqrt(n), 1.1 * fro, 8))
            for t in thresholds:
                assert operator_norm_at_most(m, t) == (norm <= t), (scale, t, norm)
            # relative to max(1, ||s||), for ||s|| below and above 1
            for s_norm in (0.5, 3.0):
                s = s_norm * d / operator_norm(d)
                for t in thresholds:
                    expected = norm <= t * max(1.0, operator_norm(s))
                    assert operator_norm_at_most(m, t, scale=s) == expected, (scale, t, s_norm)


def test_norm_threshold_validates_like_operator_norm():
    with pytest.raises(ValueError, match="non-finite"):
        operator_norm_at_most(np.array([[np.nan]]), 1.0)
    with pytest.raises(ValueError, match="square"):
        operator_norm_at_most(np.ones((2, 3)), 1.0)


def test_spectrum_ordering_and_values():
    a = np.diag([0.5, -3.0, 2.0, 0.0])
    eigs = spectrum(a)
    np.testing.assert_allclose(np.abs(eigs), [3.0, 2.0, 0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(sorted(eigs.real), [-3.0, 0.0, 0.5, 2.0], atol=1e-12)


def test_spectrum_agrees_with_eigvals():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        got = np.sort_complex(spectrum(a))
        want = np.sort_complex(np.linalg.eigvals(a))
        np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 33, 300])
def test_complex_schur_equals_scipy_schur(n):
    # the direct zgees call with its queried workspace is scipy's schur
    # without the wrapper: the same factorization, bit for bit (at n = 300
    # zgees with its default workspace rounds differently)
    a = as_square_matrix(complex_normal(np.random.default_rng(n), (n, n)))
    t, z = complex_schur(a)
    want_t, want_z = scipy.linalg.schur(a, output="complex")
    np.testing.assert_array_equal(t, want_t)
    np.testing.assert_array_equal(z, want_z)


def test_spectral_radius_triangular():
    a = np.array([[0.25, 7.0], [0.0, -0.5]])
    assert spectral_radius(a) == pytest.approx(0.5)


def test_subspace_membership_matrix_units():
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    span = matrix_span([e11])
    assert span.dim == 1
    assert span.membership(e11.ravel())
    assert not span.membership(e12.ravel())


def test_subspace_equals_and_dimension_mismatch():
    # Equal subspaces are each contained in the other, by membership.
    def contained(a, b):
        return all(b.membership(v) for v in a.basis)

    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((3, 9))
    s1 = Subspace.from_vectors(vecs, 9)
    # same span, different generating set
    mix = np.array([vecs[0] + vecs[1], vecs[1] - 2 * vecs[2], vecs[2]])
    s2 = Subspace.from_vectors(mix, 9)
    assert contained(s1, s2) and contained(s2, s1)
    s3 = Subspace.from_vectors(vecs[:2], 9)
    assert contained(s3, s1) and not contained(s1, s3)
    with pytest.raises(ValueError):
        contained(Subspace.from_vectors(np.eye(4), 4), s1)


def test_matrix_span_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        matrix_span([np.eye(2), np.eye(3)])


def test_matrix_json_round_trip():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    payload = matrix_to_json(a)
    assert payload["dim"] == 3
    assert len(payload["entries"]) == 9
    np.testing.assert_allclose(matrix_from_json(payload), a, atol=0)


def test_matrix_json_rejects_non_square_payload():
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 2, "entries": [[1.0, 0.0]] * 3})
    with pytest.raises(ValueError):
        matrix_from_json({"entries": []})
    with pytest.raises(ValueError, match="malformed matrix payload"):
        matrix_from_json({"dim": 1, "entries": [1.0]})


def test_non_finite_matrix_entries_are_written_as_strings_and_refused_on_read():
    # A failure record may hold a matrix that overflowed; writing it must
    # not abort the run, and reading it back must not pass it on.
    a = np.array([[np.inf, complex(1.0, -np.inf)], [np.nan, 2.0]])
    record = to_jsonable({"trial": 3, "x": a})
    assert record["x"] == matrix_to_json(a) == {
        "dim": 2,
        "entries": [["inf", 0.0], [1.0, "-inf"], ["nan", 0.0], [2.0, 0.0]],
    }
    assert json.loads(json.dumps(record, allow_nan=False)) == record
    with pytest.raises(ValueError, match="non-finite"):
        matrix_from_json(record["x"])
    # the shape checks still apply
    with pytest.raises(ValueError, match="square"):
        matrix_to_json(np.full((2, 3), np.inf))


class TestEmptyMatrices:
    # n = 0 policy: a 0x0 matrix is rejected up front with a ValueError,
    # never surfacing later as an IndexError or a false CrossCheckError.
    def test_as_square_matrix_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            as_square_matrix(np.zeros((0, 0)))

    def test_in_F_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            in_F(np.zeros((0, 0)))

    def test_sharp_neumann_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            sharp_neumann(np.zeros((0, 0)))

    def test_matrix_from_json_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            matrix_from_json({"dim": 0, "entries": []})


@dataclasses.dataclass(frozen=True)
class _Inner:
    z: complex
    w: np.complex128


@dataclasses.dataclass(frozen=True)
class _Outer:
    inner: _Inner
    points: np.ndarray
    matrix: np.ndarray
    stack: np.ndarray
    flag: np.bool_
    count: np.int64
    missing: Optional[float]
    bound: float
    pairs: tuple


def test_to_jsonable_wire_rule():
    m = np.array([[1.0, 2.0j], [3.0, 4.0]])
    obj = _Outer(
        inner=_Inner(z=1.5 - 2.0j, w=np.complex128(0.25 + 1.0j)),
        points=np.array([1.0 + 2.0j, -3.0j]),
        matrix=m,
        stack=np.stack([m, 2.0 * m, np.eye(2)]),
        flag=np.bool_(True),
        count=np.int64(7),
        missing=None,
        bound=math.inf,
        pairs=(
            np.float64(0.5), [1, 2], np.float64(-math.inf), math.nan, complex(math.inf, 1.0)
        ),
    )
    got = to_jsonable(obj)
    assert got == {
        "inner": {"z": [1.5, -2.0], "w": [0.25, 1.0]},
        "points": [[1.0, 2.0], [0.0, -3.0]],
        "matrix": matrix_to_json(m),
        "stack": [matrix_to_json(m), matrix_to_json(2.0 * m), matrix_to_json(np.eye(2))],
        "flag": True,
        "count": 7,
        "missing": None,
        "bound": "inf",
        "pairs": [0.5, [1, 2], "-inf", "nan", ["inf", 1.0]],
    }
    assert type(got["flag"]) is bool and type(got["count"]) is int
    assert all(type(v) is float for v in got["inner"]["w"])
    # The result is strict JSON: it round-trips through the standard
    # encoder with non-finite floats refused, and float() reads them back.
    assert json.loads(json.dumps(got, allow_nan=False)) == got
    assert float(got["bound"]) == math.inf and float(got["pairs"][2]) == -math.inf
    assert math.isnan(float(got["pairs"][3]))
    np.testing.assert_array_equal(matrix_from_json(got["stack"][1]), 2.0 * m)


def test_subspace_rank_tol_filters_noise():
    base = np.array([1.0, 0.0, 0.0, 0.0])
    noisy = base + 1e-12 * np.array([0.0, 1.0, 0.0, 0.0])
    s = Subspace.from_vectors([base, noisy], 4)
    assert s.dim == 1


def test_psd_within_is_positivity_past_the_shift():
    def psd(*diag):
        u = haar_unitaries(np.random.default_rng(42), 1, len(diag))[0]
        return psd_within((u * np.array(diag)) @ u.conj().T, 1e-9)

    assert psd(4.0, 0.0, 9.0)
    assert psd(4.0, -0.5e-9, 9.0)
    assert not psd(4.0, -2e-9, 9.0)
    assert not psd(-1.0)


def test_psd_within_a_stack_needs_every_matrix():
    rng = np.random.default_rng(43)
    stack = []
    for diag in ((4.0, 0.0, 9.0), (1.0, -0.5e-9, 2.0), (3.0, 3.0, 5.0)):
        u = haar_unitaries(rng, 1, 3)[0]
        stack.append((u * np.array(diag)) @ u.conj().T)
    stack = np.array(stack)
    assert psd_within(stack.copy(), 1e-9)
    # the shift lands on every diagonal, whatever the stack's strides
    shifted = stack.transpose(0, 2, 1).copy().transpose(0, 2, 1)
    psd_within(shifted, 1e-9)
    assert np.array_equal(shifted, stack + 1e-9 * np.eye(3))
    stack[1] -= 2e-9 * np.eye(3)
    assert not psd_within(stack.copy(), 1e-9)
    assert [psd_within(h.copy(), 1e-9) for h in stack] == [True, False, True]


@pytest.mark.parametrize("rule, tol", [(rank_cutoff, RANK_TOL), (rounding_allowance, EXACT_TOL)])
def test_rule_is_absolute_up_to_scale_one_and_relative_above(rule, tol):
    assert rule() == tol
    for scale in (0.0, 1e-3, 0.5, 1.0, np.float64(0.25)):
        assert rule(scale) == tol
    assert rule(250.0) == tol * 250.0
    assert rule(np.float64(4.0)) == tol * 4.0


@pytest.mark.parametrize("rule, tol", [(rank_cutoff, RANK_TOL), (rounding_allowance, EXACT_TOL)])
def test_rule_takes_an_array_of_scales_entrywise(rule, tol):
    scales = np.array([0.0, 0.5, 1.0, 3.0, 1e4])
    got = rule(scales)
    np.testing.assert_array_equal(got, tol * np.array([1.0, 1.0, 1.0, 3.0, 1e4]))
    assert [rule(float(v)) for v in scales] == list(got)


def test_rank_rule_counts_a_value_at_the_cutoff_as_zero():
    # A singular value exactly at the cutoff drops out of the span; the next
    # float above it stays, on either side of scale 1.
    for top in (4.0, 0.5):
        at = rank_cutoff(top)
        above = np.nextafter(at, 1.0)
        assert matrix_span([np.diag([top, 0.0]), np.diag([0.0, at])]).dim == 1
        assert matrix_span([np.diag([top, 0.0]), np.diag([0.0, above])]).dim == 2
    # A residual exactly at the cutoff at |v| is a member, the next float is not.
    line = matrix_span([np.diag([1.0, 0.0])])
    for lead in (5.0, 0.5):
        at = rank_cutoff(lead)
        assert line.membership(np.array([[lead, at], [0.0, 0.0]]))
        assert not line.membership(np.array([[lead, np.nextafter(at, 1.0)], [0.0, 0.0]]))


def test_rounding_rule_allows_exactly_its_allowance():
    # ||1 - x|| = 1 + a is within the cone's allowance a, the next float is not.
    a = rounding_allowance()
    assert in_F(np.array([[-a]]))
    assert not in_F(np.array([[1.0 - np.nextafter(1.0 + a, 2.0)]]))
