"""Finite-dimensional operator algebras as explicit matrix subspaces.

An :class:`FDAlgebra` is a multiplication-closed subspace of ``M_n`` given by
a linearly independent basis, together with its internal unit when one exists
(the unit of the algebra need not be the ambient identity -- for the algebra
spanned by ``diag(1, 0)`` the unit is ``diag(1, 0)`` itself).

On top of the container the module provides

* :func:`generated_algebra` -- the algebra generated by a single matrix
  (span of its powers, without adjoining a unit);
* :func:`ideal_subspaces` -- the one-sided ideals ``xA``, ``Ax`` and the
  corner ``xAx`` as subspaces;
* :func:`ball_margins` -- the radical-free conditions at one element ``a``
  of the unit ball (powers decay, spectral radius / numerical radius /
  ``||1+a||`` strictly below their ceilings, ``1-a`` invertible), with
  :func:`ball_samples`, a rejection sampler of the ball away from the
  scalars, and :func:`idempotent_witnesses`, the basis elements that fail
  every condition;
* :func:`ws_battery` -- the pseudo-inverse equivalence chain for a single
  element (membership of ``x`` in ``x*oa(x)``, unitality of ``oa(x)``,
  solvability of ``xyx = x``, corner membership, spectral-gap condition,
  semisimplicity flag);
* :func:`quotient_norm` -- certified quotient norms ``min_j ||a - j||``;
  :func:`ideal_identity` and :func:`quotient_cone_lift` -- the identity of a
  two-sided ideal and the lift that carries a coset in the quotient's cone
  back into the cone.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .cone import in_F
from .matcore import (
    ITER_TOL,
    CrossCheckError,
    Subspace,
    as_square_matrix,
    linear_combination,
    matrix_span,
    operator_norm,
    operator_norm_at_most,
    rank_cutoff,
    rounding_allowance,
    spectral_radius,
    spectrum,
)
from .sampling import random_span_element
from .spectral import numerical_range

__all__ = [
    "FDAlgebra",
    "IdealTriple",
    "WsBatteryReport",
    "QuotientNormResult",
    "full_matrix_algebra",
    "block_diagonal_algebra",
    "block_ideal_subspace",
    "generated_algebra",
    "ideal_subspaces",
    "ball_margins",
    "ball_samples",
    "idempotent_witnesses",
    "ws_battery",
    "quotient_norm",
    "ideal_identity",
    "quotient_cone_lift",
]


# --------------------------------------------------------------------------
# linear-solve helpers


def _lstsq_combination(columns: np.ndarray, rhs: np.ndarray):
    """Least-squares coefficients c with ``sum c_k columns[k] ~ rhs``.

    ``columns`` is a ``(k, ...)`` array whose entries are flattened; returns
    ``(c, residual)`` with the residual in the Frobenius (Euclidean) norm of
    the stacked system.
    """
    mat = columns.reshape(len(columns), -1).T
    vec = np.asarray(rhs, dtype=complex).ravel()
    coeffs, *_ = np.linalg.lstsq(mat, vec, rcond=None)
    residual = float(np.linalg.norm(mat @ coeffs - vec))
    return coeffs, residual


def _products_stay(span: Subspace, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Per left factor: does every product ``lefts[i] @ rights[j]`` lie in ``span``?

    One stacked product and one projection; each residual is compared
    with the rank cutoff at ``||product||_F``.
    """
    count = len(lefts) * len(rights)
    prods = (lefts[:, None] @ rights[None, :]).reshape(count, span.ambient_dim)
    inside = span.residuals(prods) <= rank_cutoff(np.linalg.norm(prods, axis=1))
    return inside.reshape(len(lefts), len(rights)).all(axis=1)


def _matrix_units(mask: np.ndarray) -> np.ndarray:
    """The matrix units ``E_ij`` with ``mask[i, j]`` set, in row-major order."""
    n = mask.shape[0]
    return np.eye(n * n, dtype=complex)[mask.ravel()].reshape(-1, n, n)


def _block_mask(dims: Sequence[int], chosen) -> np.ndarray:
    """Entries of the chosen diagonal blocks of the block-diagonal sum of ``dims``."""
    labels = np.repeat(np.arange(len(dims)), dims)
    return (labels[:, None] == labels[None, :]) & np.isin(labels, list(chosen))[:, None]


# --------------------------------------------------------------------------
# FDAlgebra


@dataclasses.dataclass(frozen=True)
class FDAlgebra:
    """A multiplication-closed subspace of ``M_n`` with optional unit.

    ``basis`` is a stack of linearly independent ``ambient_dim x ambient_dim``
    matrices; ``unit`` (when ``unital``) is the two-sided identity *of the
    algebra*, found by a linear solve -- it need not be the ambient identity.
    Construct through :meth:`build`, which verifies the closure invariant.
    """

    ambient_dim: int
    basis: np.ndarray
    unital: bool
    unit: Optional[np.ndarray]

    @classmethod
    def build(cls, matrices) -> "FDAlgebra":
        mats = [as_square_matrix(m) for m in matrices]
        if not mats:
            raise ValueError("need at least one generator")
        mats = np.stack(mats)
        n = mats.shape[1]
        span = matrix_span(mats)
        if span.dim != len(mats):
            raise ValueError(
                f"basis is not linearly independent: {len(mats)} generators "
                f"span only {span.dim} dimensions"
            )
        stays = _products_stay(span, mats, mats)
        if not stays.all():
            raise ValueError(
                f"basis is not closed under multiplication "
                f"(product {int(np.argmin(stays))} escapes the span)"
            )
        unit = _find_unit(mats)
        algebra = cls(ambient_dim=n, basis=mats, unital=unit is not None, unit=unit)
        # Prime the cached span with the one the closure check computed.
        object.__setattr__(algebra, "span", span)
        return algebra

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @functools.cached_property
    def span(self) -> Subspace:
        return matrix_span(self.basis)

    def contains(self, x) -> bool:
        x = as_square_matrix(x)
        if x.shape[0] != self.ambient_dim:
            return False
        return self.span.membership(x.ravel())


def _find_unit(mats: np.ndarray) -> Optional[np.ndarray]:
    """Two-sided identity of span(mats), or None.

    Solves ``e * b = b * e = b`` for all basis elements ``b`` by least
    squares over the span's coefficients.  A unit exists when the residual
    is within the rank rule at the norm of the stacked ``b``'s, the
    span-membership rule that gives :meth:`FDAlgebra.build` its rank.
    """
    k = len(mats)
    left = (mats[:, None] @ mats[None, :]).reshape(k, -1)
    right = (mats[None, :] @ mats[:, None]).reshape(k, -1)
    rhs = np.tile(mats.ravel(), 2)
    coeffs, residual = _lstsq_combination(np.concatenate([left, right], axis=1), rhs)
    if residual <= rank_cutoff(float(np.linalg.norm(rhs))):
        return linear_combination(coeffs, mats)
    return None


def full_matrix_algebra(n: int) -> FDAlgebra:
    """All of ``M_n``, with the matrix units as basis."""
    if n < 1:
        raise ValueError("n must be positive")
    return FDAlgebra.build(_matrix_units(np.ones((n, n), dtype=bool)))


def block_diagonal_algebra(dims: Sequence[int]) -> FDAlgebra:
    """Direct sum ``M_{d_1} + ... + M_{d_k}`` embedded block-diagonally."""
    dims = [int(d) for d in dims]
    if not dims or any(d < 1 for d in dims):
        raise ValueError("dims must be a nonempty list of positive integers")
    return FDAlgebra.build(_matrix_units(_block_mask(dims, range(len(dims)))))


def block_ideal_subspace(dims: Sequence[int], block_indices: Sequence[int]) -> Subspace:
    """Span of the matrix units of the selected blocks of a block-diagonal sum.

    The result is a two-sided ideal of :func:`block_diagonal_algebra(dims)`
    and possesses an identity (the sum of the selected blocks' identities).
    """
    dims = [int(d) for d in dims]
    chosen = set(int(i) for i in block_indices)
    if not chosen or not chosen.issubset(range(len(dims))):
        raise ValueError("block_indices must select existing blocks")
    return matrix_span(_matrix_units(_block_mask(dims, chosen)))


# --------------------------------------------------------------------------
# generated algebras and ideals


def generated_algebra(x) -> FDAlgebra:
    """The algebra generated by ``x``: span of ``{x, x^2, ...}``.

    Raw powers form an ill-conditioned generating family, so the span is
    built as an Arnoldi (Krylov) basis: ``q_1 = x / ||x||_F``, and each
    ``x q_k``, orthogonalized twice against ``q_1, ..., q_k`` in the
    Frobenius inner product, gives ``q_{k+1}``.  The basis is complete once
    the remainder divided by ``||x||_F`` is at most ``rank_cutoff()`` (then
    left multiplication by ``x`` maps the span into itself), and after at
    most ``ambient_dim`` vectors, the degree bound of the minimal
    polynomial.  The division runs the rule on ``x / ||x||_F``, which
    generates the same algebra, so ``c x`` gives the algebra of ``x`` for
    every ``c != 0``.  No unit is adjoined; the result is unital exactly when some polynomial in
    ``x`` without constant term acts as a two-sided identity on the span.
    """
    x = as_square_matrix(x)
    if operator_norm_at_most(x, rank_cutoff()):
        raise ValueError("generated_algebra requires a nonzero generator")
    n = x.shape[0]
    x_norm = float(np.linalg.norm(x))
    q = (x / x_norm).reshape(1, n * n)
    while len(q) < n:
        product = (x @ q[-1].reshape(n, n)).ravel()
        v = product - q.T @ (q.conj() @ product)
        v = v - q.T @ (q.conj() @ v)
        norm = float(np.linalg.norm(v))
        if norm / x_norm <= rank_cutoff():
            break
        q = np.vstack([q, v / norm])
    return FDAlgebra.build(q.reshape(-1, n, n))


class IdealTriple(NamedTuple):
    """The subspaces ``xA``, ``Ax``, and ``xAx`` inside ``M_n``."""

    xA: Subspace
    Ax: Subspace
    xAx: Subspace


def ideal_subspaces(x, A: FDAlgebra) -> IdealTriple:
    """Spans of ``{x b}``, ``{b x}``, ``{x b x}`` over the basis of ``A``.

    Requires ``x`` to lie in the span of ``A``.  For ``x`` with
    ``||1 - x|| <= 1`` in a unital algebra, ``x`` itself lies in the corner
    span ``xAx`` (the corner is the hereditary subalgebra matching the right
    ideal ``xA``).  The spans are built from ``x / ||x||_F``, which spans the
    same ideals, so the rank rule's decisions do not depend on the scale of
    ``x``.
    """
    x = as_square_matrix(x)
    if not A.contains(x):
        raise ValueError("x does not lie in the span of A")
    u = x / (np.linalg.norm(x) or 1.0)
    return _ideal_triple(u, A.basis, matrix_span(u @ A.basis))


def _ideal_triple(x: np.ndarray, basis: np.ndarray, xa: Subspace) -> IdealTriple:
    """:class:`IdealTriple` over ``basis``, given its ``xA`` span."""
    return IdealTriple(xA=xa, Ax=matrix_span(basis @ x), xAx=matrix_span(x @ basis @ x))


# --------------------------------------------------------------------------
# ball conditions and the closure battery


def _distance_to_scalars(a: np.ndarray, unit: np.ndarray) -> float:
    """Operator-norm distance from ``a`` to multiples of ``unit``.

    Uses the Frobenius-optimal multiple; an upper bound for the true
    operator-norm distance, which is the conservative side for rejection
    sampling (the sampler never keeps an element closer than reported).
    """
    lam = np.vdot(unit, a) / np.vdot(unit, unit)
    return operator_norm(a - lam * unit)


# Sweep angles of the numerical radius behind the ``radius_gap`` condition.
NOR_THETA_COUNT = 360

# Distance to the scalar line at or below which a ball sample is rejected.
NOR_REJECTION_MARGIN = 0.1


def _unit_of(A: FDAlgebra, caller: str) -> np.ndarray:
    if not A.unital:
        raise ValueError(f"{caller} requires a unital algebra")
    return A.unit


def ball_margins(a: np.ndarray, unit: np.ndarray) -> dict:
    """Margins of the five radical-free ball conditions at one element ``a``.

    * ``power_decay``   -- ``1 - ||a^64||^(1/64)``;
    * ``spectral_gap``  -- ``||a|| - r(a)``;
    * ``radius_gap``    -- ``||a|| - nu(a)``, with the numerical radius
      ``nu`` at the upper end of the sweep's bracket, so the margin errs on
      the safe side;
    * ``shift_norm``    -- ``2 - ||unit + a||``;
    * ``quasi_invert``  -- ``sigma_min(unit - a)``.

    A condition holds at ``a`` when its margin exceeds ``rounding_allowance()``,
    so that a least-squares ``unit`` does not lift a margin at a projection.
    """
    b = a.copy()
    for _ in range(6):
        b = b @ b
    norm_a = operator_norm(a)
    return {
        "power_decay": 1.0 - operator_norm(b) ** (1.0 / 64.0),
        "spectral_gap": norm_a - spectral_radius(a),
        "radius_gap": norm_a - numerical_range(a, NOR_THETA_COUNT).radius_upper,
        "shift_norm": 2.0 - operator_norm(unit + a),
        "quasi_invert": float(np.linalg.svd(unit - a, compute_uv=False)[-1]),
    }


def ball_samples(rng: np.random.Generator, A: FDAlgebra, count: int) -> list:
    """Up to ``count`` elements of ``Ball(A)`` away from the scalars.

    Each attempt is a Gaussian combination of the basis rescaled to a
    uniformly random operator norm in ``[0, 1)``, rejected when its distance
    to the scalar line ``C*unit`` is at most ``NOR_REJECTION_MARGIN`` (the
    ball conditions degenerate continuously as ``a`` approaches a scalar, so
    margins must be bounded away).  Sampling gives up after
    ``60 * max(count, 1)`` attempts, so the scalar line itself yields none.
    """
    unit = _unit_of(A, "ball_samples")
    samples = []
    attempts = 0
    while len(samples) < count and attempts < 60 * max(count, 1):
        attempts += 1
        a = random_span_element(rng, A.basis, 1.0)
        if a is not None and _distance_to_scalars(a, unit) > NOR_REJECTION_MARGIN:
            samples.append(a)
    return samples


def idempotent_witnesses(A: FDAlgebra) -> list:
    """Basis elements of ``A`` that are non-scalar idempotent contractions.

    Each is a deterministic counterexample to the ball conditions: it fails
    all five (``a^n = a``).
    """
    unit = _unit_of(A, "idempotent_witnesses")
    witnesses = []
    for b in A.basis:
        norm_b = operator_norm(b)
        idem = operator_norm(b @ b - b) <= rounding_allowance(norm_b**2)
        in_ball = norm_b <= 1.0 + rounding_allowance()
        nonscalar = _distance_to_scalars(b, unit) > NOR_REJECTION_MARGIN
        if idem and in_ball and nonscalar:
            witnesses.append(b)
    return witnesses


def _solve_xyx(x: np.ndarray, basis: np.ndarray):
    """``(ok, y)``: least-squares ``y`` in span(basis) with ``x y x = x``.

    Solved and judged by the rank rule at ``u = x / ||x||_F``, the generator
    of the chain's spans: ``u y' u = u`` with ``y = y' / ||x||_F``.
    """
    x_norm = float(np.linalg.norm(x))
    u = x / x_norm
    coeffs, residual = _lstsq_combination(u @ basis @ u, u)
    return residual <= rank_cutoff(), linear_combination(coeffs, basis) / x_norm


@dataclasses.dataclass(frozen=True)
class WsBatteryReport:
    """Pseudo-inverse equivalence chain for one element ``x``.

    Conditions (finite-dimensional surrogates):

    * ``i``   -- ``x`` lies in the span of ``x * oa(x)``;
    * ``ii``  -- ``oa(x)`` is unital (rank test
      ``dim(x*oa(x)) = dim(oa(x))``, cross-checked with the unit solve);
    * ``iii`` -- some ``y`` in ``oa(x)`` solves ``x y x = x``;
    * ``iv``  -- ``x`` lies in the corner span ``x A x``;
    * ``v``   -- ``x`` lies in both ``x A`` and ``A x``;
    * ``vi``  -- some ``y`` in ``A`` solves ``x y x = x``;
    * ``vii`` -- the spectrum of ``x`` has a gap at 0: every eigenvalue is
      either inside the zero cluster or at least a decade above it.

    ``semisimple`` reports whether ``oa(x)`` is semisimple, decided by
    diagonalizability of ``x`` (square-free minimal polynomial) with
    eigenvalue clustering at :data:`WS_CLUSTER_TOL`.  ``consistent``
    asserts the chain: (i)--(vi) agree mutually, (vi) implies (vii), and --
    only under semisimplicity -- (vii) implies (ii).
    """

    conditions: dict
    semisimple: bool
    y_in_oa: Optional[np.ndarray]
    y_in_A: Optional[np.ndarray]

    @property
    def consistent(self) -> bool:
        c = self.conditions
        core = [c["i"], c["ii"], c["iii"], c["iv"], c["v"], c["vi"]]
        if len(set(core)) != 1:
            return False
        if c["vi"] and not c["vii"]:
            return False
        if self.semisimple and c["vii"] and not c["ii"]:
            return False
        return True


# Relative eigenvalue clustering radius of the semisimplicity flag and of (vii).
WS_CLUSTER_TOL = 1e-4


def _is_diagonalizable(x: np.ndarray, lams: np.ndarray, threshold: float) -> bool:
    """Square-free minimal polynomial test via multiplicities of the
    eigenvalues ``lams`` of ``x`` clustered within ``threshold``."""
    used = np.zeros(len(lams), dtype=bool)
    n = x.shape[0]
    eye = np.eye(n, dtype=complex)
    for i in range(len(lams)):
        if used[i]:
            continue
        cluster = np.abs(lams - lams[i]) <= threshold
        used |= cluster
        center = np.mean(lams[cluster])
        algebraic = int(np.sum(cluster))
        sigmas = np.linalg.svd(x - center * eye, compute_uv=False)
        geometric = int(np.sum(sigmas <= threshold))
        if geometric != algebraic:
            return False
    return True


def ws_battery(
    x,
    A: Optional[FDAlgebra] = None,
    require_cone: bool = True,
) -> WsBatteryReport:
    """Evaluate the pseudo-inverse equivalence chain for ``x`` inside ``A``.

    An omitted ``A`` is ``oa(x)``, the algebra the chain builds anyway; then
    the span of ``x * oa(x)`` is also ``xA``, and the solve of (iii) is (vi).
    By default requires ``||1 - x|| <= 1`` (the regime where the chain's
    equivalences hold and, at finite dimension, all conditions are true).
    Passing ``require_cone=False`` admits arbitrary ``x`` -- in particular
    elements with nilpotent parts, for which (vii) can hold while (i)--(vi)
    fail and the semisimple flag is false.
    """
    x = as_square_matrix(x)
    if A is not None:
        if x.shape[0] != A.ambient_dim:
            raise ValueError("x and A live in different ambient dimensions")
        if not A.contains(x):
            raise ValueError("x does not lie in the span of A")
    if require_cone and not in_F(x):
        raise ValueError(
            "x is outside the unit-shifted cone; pass require_cone=False "
            "to evaluate the chain anyway"
        )
    oax = generated_algebra(x)
    # x / ||x||_F spans the ideals of x, at a scale where the rank rule is fair.
    u = x / np.linalg.norm(x)
    x_oax = matrix_span(u @ oax.basis)
    cond_i = x_oax.membership(u.ravel())
    cond_ii = x_oax.dim == oax.dim
    if cond_ii != oax.unital:
        raise CrossCheckError(
            "rank test for unitality of oa(x) disagrees with the unit solve: "
            f"rank says {cond_ii}, solve says {oax.unital}"
        )
    cond_iii, y_oa = _solve_xyx(x, oax.basis)
    if A is None:
        triple = _ideal_triple(u, oax.basis, x_oax)
        cond_vi, y_a = cond_iii, y_oa
    else:
        triple = ideal_subspaces(x, A)
        cond_vi, y_a = _solve_xyx(x, A.basis)
    cond_iv = triple.xAx.membership(u.ravel())
    cond_v = triple.xA.membership(u.ravel()) and triple.Ax.membership(u.ravel())

    lams = spectrum(x)
    scale = max(1.0, float(np.max(np.abs(lams))))
    threshold = WS_CLUSTER_TOL * scale
    zero_cluster = np.abs(lams) <= threshold
    if not zero_cluster.any():
        cond_vii = True
    else:
        nonzero = np.abs(lams[~zero_cluster])
        cond_vii = nonzero.size == 0 or float(np.min(nonzero)) >= 10.0 * threshold

    return WsBatteryReport(
        conditions={
            "i": bool(cond_i),
            "ii": bool(cond_ii),
            "iii": bool(cond_iii),
            "iv": bool(cond_iv),
            "v": bool(cond_v),
            "vi": bool(cond_vi),
            "vii": bool(cond_vii),
        },
        semisimple=_is_diagonalizable(x, lams, threshold),
        y_in_oa=y_oa if cond_iii else None,
        y_in_A=y_a if cond_vi else None,
    )


# --------------------------------------------------------------------------
# quotient norms and the quotient cone


@dataclasses.dataclass(frozen=True)
class QuotientNormResult:
    """Certified interval for ``min_j ||a - j||`` over a subspace ``J``.

    ``upper`` is the smallest ``||a - j||`` evaluated at an explicit ``j``
    (coefficients ``minimizer_coeffs`` over ``J``'s orthonormal basis);
    ``lower`` comes from a dual certificate: a matrix ``G`` Frobenius-orthogonal
    to ``J``, giving ``|<G, a>| / ||G||_* <= min ||a - j||``.  ``status`` is
    CERTIFIED when the gap closed to ``ITER_TOL``, INCONCLUSIVE otherwise --
    never a silent point estimate.
    """

    lower: float
    upper: float
    status: str
    minimizer_coeffs: Optional[np.ndarray]

    @property
    def value(self) -> float:
        return self.upper

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def _dual_bound(g: np.ndarray, m: np.ndarray, J: Subspace) -> float:
    """Lower bound ``|<G', m>| / ||G'||_*`` on ``min_j ||m - j||``, any ``G``.

    ``G' = G - J.project(G)`` annihilates ``J``, so ``<G', m> = <G', m - j>``.
    """
    g = g - J.project(g).reshape(g.shape)
    nuc = float(np.sum(np.linalg.svd(g, compute_uv=False)))
    if nuc <= 1e-14:
        return 0.0
    return abs(np.vdot(g, m)) / nuc


class _SmoothedNorm(NamedTuple):
    """The smoothed norm of ``m`` at one point; see :func:`_dilation_objective`."""

    value: float  # f_mu
    top: float  # lambda_max(H) = ||m||
    m: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    q: np.ndarray  # eigenvectors of H
    p: np.ndarray  # softmax(lam / mu)
    lam: np.ndarray  # eigenvalues of H, ascending
    d_diag: np.ndarray  # D_r[a, a], one row per coordinate r

    @property
    def dual(self) -> np.ndarray:
        """The dual candidate ``G = 2 P[:n, n:]``, formed when read."""
        n = self.m.shape[0]
        return 2.0 * (self.q[:n] * self.p) @ self.q[n:].conj().T


def _dilation_objective(a: np.ndarray, j_mats: np.ndarray, x: np.ndarray, mu: float) -> _SmoothedNorm:
    """``f_mu = mu log tr exp(H / mu)`` with its gradient and Hessian in ``x``.

    ``H = [[0, m], [m*, 0]]`` is the Hermitian dilation of
    ``m = a - sum_k c_k J_k``, ``c = x[:k] + i x[k:]``.  Its eigenvalues are
    ``+-sigma_i(m)``, so ``||m|| <= f_mu <= ||m|| + mu log 2n``, and unlike
    ``mu log sum_i exp(sigma_i / mu)`` it is smooth where ``m`` is singular.
    One ``eigh`` ``H = Q diag(lam) Q*`` gives everything.  With
    ``p = softmax(lam / mu)`` and ``D_r = Q* (dH / dx_r) Q``, the gradient is
    ``sum_a p_a D_r[a, a]`` and the Hessian is the Daleckii–Krein form
    ``Re sum_ab L_ab D_r[a, b] conj(D_s[a, b]) - g g^T / mu``, where
    ``L_ab = (p_a - p_b) / (lam_a - lam_b)`` and ``L_aa = p_a / mu``.  The
    dual candidate is ``G = 2 P[:n, n:]`` with ``P = Q diag(p) Q*``, the
    matrix whose inner products with the ``J_k`` are the gradient.
    """
    n, k = a.shape[0], len(j_mats)
    m = a - linear_combination(x[:k] + 1j * x[k:], j_mats)
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, n:] = m
    h[n:, :n] = m.conj().T
    lam, q = np.linalg.eigh(h)
    w = np.exp((lam - lam[-1]) / mu)
    total = float(np.sum(w))
    p = w / total
    # D_r = X + X* with X = Q1* dm Q2, where dm = -J_r along Re c_r and
    # -i J_r along Im c_r.
    q1, q2 = q[:n], q[n:]
    y = q1.conj().T @ j_mats @ q2
    yh = np.swapaxes(y.conj(), 1, 2)
    d = np.concatenate([-(y + yh), -1j * (y - yh)]).reshape(2 * k, -1)
    d_diag = d[:, :: 2 * n + 1].real
    grad = d_diag @ p
    # L_ab as max(p_a, p_b) (1 - e^-t) / (mu t), t = |lam_a - lam_b| / mu:
    # no cancellation between close eigenvalues.
    t = np.abs(lam[:, None] - lam) / mu
    ell = np.maximum.outer(p, p) / mu * np.divide(-np.expm1(-t), t, out=np.ones_like(t), where=t > 0)
    hess = ((d * ell.ravel()) @ d.conj().T).real - np.outer(grad, grad) / mu
    return _SmoothedNorm(
        value=float(lam[-1]) + mu * np.log(total),
        top=float(lam[-1]),
        m=m,
        grad=grad,
        hess=hess,
        q=q,
        p=p,
        lam=lam,
        d_diag=d_diag,
    )


def _path_tangent(s: _SmoothedNorm, mu: float) -> np.ndarray:
    """``dx/dmu`` along the minimizers of ``f_mu``, read from one evaluation.

    At a minimizer ``g(x, mu) = 0``, so ``H dx/dmu = -dg/dmu``.  With
    ``dp_a/dmu = -p_a (lam_a - lbar) / mu^2``, ``lbar = sum_a p_a lam_a``,
    the gradient ``g_r = sum_a p_a D_r[a, a]`` moves with ``mu`` as
    ``dg_r/dmu = -mu^-2 sum_a p_a (lam_a - lbar) D_r[a, a]``.  ``H`` is
    positive definite in exact arithmetic; where rounding makes it singular
    the tangent is zero, so the next stage starts where this one ended.
    """
    dg = -(s.d_diag @ (s.p * (s.lam - s.p @ s.lam))) / mu**2
    try:
        return -np.linalg.solve(s.hess, dg)
    except np.linalg.LinAlgError:
        return np.zeros_like(dg)


# quotient_norm's smoothing parameters: a hundredfold steps, then a last
# tenfold one.
QUOTIENT_MU_SCHEDULE = (1e-2, 1e-4, 1e-6, 1e-7)


def quotient_norm(a, J: Subspace) -> QuotientNormResult:
    """Certified quotient norm ``min_{j in J} ||a - j||`` (operator norm).

    Minimizes the smoothed norm ``f_mu = mu log tr exp(H / mu)`` of the
    Hermitian dilation ``H = [[0, m], [m*, 0]]`` of ``m = a - sum_k c_k J_k``
    (see :func:`_dilation_objective`) over the real and imaginary parts of
    ``c``, for each ``mu`` in :data:`QUOTIENT_MU_SCHEDULE`.  Each stage after
    the first starts from the first-order predictor
    ``x + (mu' - mu) dx/dmu`` of the path of minimizers (Allgower–Georg
    continuation; see :func:`_path_tangent`), taken only if it lowers
    ``f_mu'``, and otherwise where the last stage ended.  Each stage is a
    Levenberg–Marquardt Newton iteration on the exact Hessian: a step that
    achieves more than a tenth of its predicted decrease is taken and the
    damping quartered, otherwise the damping is quadrupled.  Once the
    predicted decrease is below the rounding of ``f_mu``, a step is taken if
    it shrinks the gradient, and the stage ends at the first that does not:
    the lower bound needs a far smaller gradient than ``f_mu`` can resolve.
    ``G = 2 P[:n, n:]`` is the dual candidate of the lower bound: at a
    stationary point ``G`` is orthogonal to ``J`` and
    ``<G, m> >= ||m|| - mu log 2n``.  It is formed at most twice per stage:
    at the first taken step whose gradient is at most ``ITER_TOL``, which
    ends the whole descent if the gap has closed to ``ITER_TOL``, and at the
    stage's last point.  ``upper`` is the operator norm at the coefficients
    of the smallest ``||m||`` seen.  The Frobenius projection is tried
    first, with ``G`` the top singular pair, which settles block-diagonal
    and triangular quotients with one SVD.  CERTIFIED as soon as the gap is
    at most ``ITER_TOL``, INCONCLUSIVE if the schedule ends first.  No
    random numbers are drawn.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    if J.ambient_dim != n * n:
        raise ValueError("J must be a subspace of flattened ambient matrices")
    k = J.dim
    if k == 0:
        nrm = operator_norm(a)
        return QuotientNormResult(
            lower=nrm, upper=nrm, status="CERTIFIED",
            minimizer_coeffs=np.zeros(0, dtype=complex),
        )
    j_mats = J.basis.reshape(k, n, n)
    # The basis is orthonormal, so the Frobenius projection's coefficients
    # are plain inner products.
    best = J.basis.conj() @ a.ravel()
    m = a - linear_combination(best, j_mats)
    u, s, vh = np.linalg.svd(m)
    upper = float(s[0])
    lower = _dual_bound(np.outer(u[:, 0], vh[0]), m, J)
    x = np.concatenate([best.real, best.imag])

    def settle(cur: _SmoothedNorm, top_x: np.ndarray, dual: bool = True) -> bool:
        """Fold ``cur``'s dual and the norm at ``top_x`` into the interval."""
        nonlocal lower, upper, best
        if dual:
            lower = max(lower, _dual_bound(cur.dual, cur.m, J))
        c = top_x[:k] + 1j * top_x[k:]
        nrm = operator_norm(a - linear_combination(c, j_mats))
        if nrm < upper:
            upper, best = nrm, c
        return upper - lower <= ITER_TOL

    last = None  # the previous stage's final evaluation and its mu
    for mu in QUOTIENT_MU_SCHEDULE:
        if upper - lower <= ITER_TOL:
            break
        cur = _dilation_objective(a, j_mats, x, mu)
        top, top_x = cur.top, x
        if last is not None:
            ahead = x + (mu - last[1]) * _path_tangent(*last)
            trial = _dilation_objective(a, j_mats, ahead, mu)
            if trial.top < top:
                top, top_x = trial.top, ahead
            if trial.value < cur.value:
                x, cur = ahead, trial
        # The damping starts at a two-hundredth of the largest curvature
        # there can be: the J_k are orthonormal, so none exceeds 2 / mu.
        damping = 1e-2 / mu
        settled = None
        for _ in range(1000):
            step = np.linalg.solve(cur.hess + damping * np.eye(2 * k), -cur.grad)
            predicted = -(cur.grad @ step + 0.5 * step @ cur.hess @ step)
            trial = _dilation_objective(a, j_mats, x + step, mu)
            if trial.top < top:
                top, top_x = trial.top, x + step
            # f_mu is rounded to about 1e-14 of its size; above that, its
            # decrease judges the step.
            if predicted > 1e-14 * max(1.0, abs(cur.value)):
                accept = cur.value - trial.value > 0.1 * predicted
            # Below the rounding of f_mu the gradient judges the step, and
            # the first step that does not shrink it ends the stage.
            elif np.linalg.norm(trial.grad) < np.linalg.norm(cur.grad):
                accept = True
            else:
                break
            if not accept:
                damping *= 4
                continue
            x, cur, damping = x + step, trial, damping / 4
            # The first accepted step that is stationary to ITER_TOL tries
            # the certificate; if it closes, the descent is over.
            if settled is None and np.linalg.norm(cur.grad) <= ITER_TOL:
                settled = cur
                if settle(cur, top_x):
                    break
        if upper - lower > ITER_TOL:
            settle(cur, top_x, dual=cur is not settled)
        last = (cur, mu)
    status = "CERTIFIED" if upper - lower <= ITER_TOL else "INCONCLUSIVE"
    return QuotientNormResult(lower=lower, upper=upper, status=status, minimizer_coeffs=best)


def ideal_identity(A: FDAlgebra, J: Subspace) -> np.ndarray:
    """The identity ``e`` of ``J``, checked to be a two-sided ideal of ``A``.

    ``ValueError`` when ``A`` has no unit, ``J`` is not a two-sided ideal of
    ``A``, or ``J`` has no two-sided identity (the zero ideal among them).
    """
    _unit_of(A, "ideal_identity")
    j_mats = J.basis.reshape(J.dim, A.ambient_dim, A.ambient_dim)
    if not (
        _products_stay(J, j_mats, A.basis).all()
        and _products_stay(J, A.basis, j_mats).all()
    ):
        raise ValueError("J is not a two-sided ideal of A")
    if J.dim == 0:
        raise ValueError("the zero ideal has no identity")
    e = _find_unit(j_mats)
    if e is None:
        raise ValueError("J has no two-sided identity")
    return e


def quotient_cone_lift(A: FDAlgebra, J: Subspace, e: np.ndarray, rep: np.ndarray) -> tuple:
    """Lift a representative whose coset lies in the quotient cone.

    The lift is ``y = (unit - e) rep (unit - e) + e`` for the identity ``e``
    of ``J`` (:func:`ideal_identity`).  Returns ``(||unit - y|| - 1,
    residual)``, where the residual of ``y - rep`` in ``J`` is relative to
    ``max(1, ||y - rep||_F)``: the lift lies in the cone and in the coset of
    ``rep`` when the first is at most zero and the second is rounding.  The
    formula assumes ``e`` is central in ``A`` (true for block-diagonal
    instances, where the lift is exact).
    """
    unit = A.unit
    comp = unit - e
    y = comp @ rep @ comp + e
    diff = y - rep
    scale = max(1.0, float(np.linalg.norm(diff)))
    return operator_norm(unit - y) - 1.0, J.residual(diff.ravel()) / scale
