"""Linear maps between matrix algebras and their complete-positivity data.

A :class:`MatrixMap` stores a linear map ``T: M_n -> M_m`` through its
action on the matrix units ``E_ij`` (row-major).  The Choi matrix
``C = sum_ij E_ij (x) T(E_ij)`` linearizes the map: ``T`` is completely
positive exactly when ``C`` is positive semidefinite, and an
eigendecomposition of ``C`` yields a Kraus/Stinespring factorization.

Amplification ``id_k (x) T`` acts blockwise on ``M_k(M_n)``; whether a map
stays bounded on the scaled cones ``{x: ||1 - x|| <= 1}`` *uniformly over
all amplification levels* is a genuinely stronger condition than at level
one, and :func:`ocp_falsify` searches for explicit level-``k`` witnesses
against a proposed bound.  The transpose map is the canonical failure: its
level-2 value on twice the maximally entangled projection exceeds any
level-1 bound by exactly 1.  For a completely positive map,
:func:`dilation_bound` proves such a bound at all levels from the
Stinespring factorization.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Optional, Sequence

import numpy as np

from .cone import in_F
from .matcore import (
    GRAM_SCREEN_GUARD,
    ITER_TOL,
    CrossCheckError,
    as_square_matrix,
    matrix_to_json,
    operator_norm,
    operator_norm_at_most,
    operator_norms,
    psd_within,
    rank_cutoff,
    rounding_allowance,
    stack_slices,
)
from .sampling import haar_unitaries

__all__ = [
    "MatrixMap",
    "StinespringTriple",
    "DiskTestReport",
    "matrix_map_from_kraus",
    "identity_map",
    "transpose_map",
    "amplify",
    "entangled_cone_element",
    "ocp_falsify",
    "disk_test",
    "stinespring",
    "dilation_bound",
]

_DIM_CAP = 64


@dataclasses.dataclass(frozen=True)
class MatrixMap:
    """A linear map ``M_n -> M_m`` given by its images of the matrix units.

    ``action[i, j]`` is ``T(E_ij)`` as an ``m x m`` array; the map extends
    by linearity: ``T(x) = sum_ij x_ij T(E_ij)``.
    """

    in_dim: int
    out_dim: int
    action: np.ndarray

    def __post_init__(self):
        n, m = self.in_dim, self.out_dim
        if n < 1 or m < 1:
            raise ValueError("dimensions must be positive")
        arr = np.ascontiguousarray(self.action, dtype=complex)
        if arr.shape != (n, n, m, m):
            raise ValueError(
                f"action must have shape {(n, n, m, m)}, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("action entries must be finite")
        object.__setattr__(self, "action", arr)

    def apply(self, x) -> np.ndarray:
        x = as_square_matrix(x)
        n = self.in_dim
        if x.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} argument, got {x.shape}")
        return self._images(x)[0]

    def _images(self, xs: np.ndarray) -> np.ndarray:
        """``T(x_b)`` for a ``(B, n, n)`` stack: ``np.matmul`` forms each ``(1, n^2)``
        row product on its own, so an image rounds the same whatever ``B`` is."""
        n, m = self.in_dim, self.out_dim
        flat = np.matmul(xs.reshape(-1, 1, n * n), self.action.reshape(n * n, m * m))
        return flat.reshape(-1, m, m)

    def adjoint_apply(self, y) -> np.ndarray:
        """The Frobenius adjoint: ``<T(x), y> = <x, adjoint_apply(y)>``."""
        y = as_square_matrix(y)
        n, m = self.in_dim, self.out_dim
        if y.shape != (m, m):
            raise ValueError(f"expected a {m}x{m} argument, got {y.shape}")
        return np.dot(self.action.reshape(n * n, m * m).conj(), y.ravel()).reshape(n, n)

    @functools.cached_property
    def choi(self) -> np.ndarray:
        """``sum_ij E_ij (x) T(E_ij)``, indexed ``(i*m + a, j*m + b)``."""
        n, m = self.in_dim, self.out_dim
        return self.action.transpose(0, 2, 1, 3).reshape(n * m, n * m).copy()


def matrix_map_from_kraus(kraus: Sequence[np.ndarray]) -> MatrixMap:
    """``T(x) = sum_s K_s x K_s^*`` -- completely positive by construction."""
    mats = [np.asarray(k, dtype=complex) for k in kraus]
    if not mats:
        raise ValueError("need at least one Kraus operator")
    m, n = mats[0].shape
    if any(k.shape != (m, n) for k in mats):
        raise ValueError("Kraus operators must share one shape")
    # T(E_ab)[r, q] = sum_s K_s[r, a] conj(K_s[q, b])
    ks = np.stack(mats)
    return MatrixMap(in_dim=n, out_dim=m, action=np.einsum("sra,sqb->abrq", ks, ks.conj()))


def identity_map(n: int) -> MatrixMap:
    return MatrixMap(in_dim=n, out_dim=n, action=np.eye(n * n).reshape(n, n, n, n))


def transpose_map(n: int) -> MatrixMap:
    return MatrixMap(in_dim=n, out_dim=n, action=identity_map(n).action.swapaxes(2, 3))


def _cp_choi_eigh(t: MatrixMap):
    """``eigh`` of the Hermitian part of ``t``'s Choi matrix; ``None`` unless CP.

    ``T`` is completely positive iff its Choi matrix is PSD; a
    non-Hermitian Choi matrix already rules that out.  Both thresholds are
    the rounding allowance at the Choi matrix's norm.
    """
    c = t.choi
    allowance = rounding_allowance(operator_norm(c))
    if not operator_norm_at_most(c - c.conj().T, allowance):
        return None
    lam, vecs = np.linalg.eigh((c + c.conj().T) / 2.0)
    return (lam, vecs) if lam[0] >= -allowance else None


def amplify(t: MatrixMap, k: int) -> MatrixMap:
    """``id_k (x) T`` on ``M_k(M_n)``, block row/column index ``(i, a) = i*n + a``.

    The Choi matrix of the amplification is cross-checked against the
    permuted Kronecker product ``C(id_k) (x) C(T)`` whenever the sizes stay
    modest; a mismatch raises :class:`CrossCheckError`.
    """
    if k < 1:
        raise ValueError("amplification level must be positive")
    n, m = t.in_dim, t.out_dim
    kn, km = k * n, k * m
    if kn > _DIM_CAP or km > _DIM_CAP:
        raise ValueError(
            f"amplified dimensions {kn}x{km} exceed the {_DIM_CAP} cap"
        )
    action = np.zeros((kn, kn, km, km), dtype=complex)
    # index (i*n + a, j*n + b, i*m + r, j*m + s) carries T(E_ab)[r, s]
    i, j = np.arange(k)[:, None], np.arange(k)
    action.reshape(k, n, k, n, k, m, k, m)[i, :, j, :, i, :, j, :] = t.action
    amplified = MatrixMap(in_dim=kn, out_dim=km, action=action)
    if kn * km <= 1024:
        _verify_choi_shuffle(t, amplified, k)
    return amplified


def _verify_choi_shuffle(t: MatrixMap, amplified: MatrixMap, k: int) -> None:
    """Check ``C(id_k (x) T) = P [C(id_k) (x) C(T)] P^T`` for the regrouping P."""
    n, m = t.in_dim, t.out_dim
    kron = np.kron(identity_map(k).choi, t.choi)
    # kron is indexed ((i*k + u)*n + a)*m + b, the amplified Choi (i, a, u, b)
    perm = np.arange(k * k * n * m).reshape(k, k, n, m).transpose(0, 2, 1, 3).ravel()
    defect = amplified.choi - kron[np.ix_(perm, perm)]
    if not operator_norm_at_most(defect, rounding_allowance(), scale=kron):
        raise CrossCheckError(
            f"amplified Choi matrix disagrees with the permuted Kronecker "
            f"product by {operator_norm(defect):.3e}"
        )


# --------------------------------------------------------------------------
# falsification of uniform cone bounds


def entangled_cone_element(n: int) -> np.ndarray:
    """``2p`` for the maximally entangled projection ``p`` in ``M_n (x) M_n``.

    ``2p - 1`` is a reflection, so ``||1 - 2p|| = 1`` and ``2p`` lies in the
    cone ``{x: ||1 - x|| <= 1}`` at amplification level ``n``.
    """
    vec = np.eye(n, dtype=complex).ravel()
    p = np.outer(vec, vec.conj()) / n
    return 2.0 * p


def _polar_unitary(g: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(g)
    return u @ vh


def ocp_falsify(
    t: MatrixMap,
    c: float,
    k: int,
    budget: int = 10000,
    seed: int = 0,
    iter_tol: float = ITER_TOL,
) -> Optional[dict]:
    """Search for a level-``k`` witness against ``||c 1 - T_k(x)|| <= c``.

    The claim under attack: for every ``x`` in the cone
    ``{x in M_kn : ||1 - x|| <= 1}``, the amplified image satisfies
    ``||c 1 - (id_k (x) T)(x)|| <= c``.  The objective is convex in ``x``
    and the cone is ``1 +`` (unit ball), so the supremum is attained at
    ``x = 1 + u`` with ``u`` unitary; the search draws Haar unitaries, adds
    the entangled element ``2p`` when ``k`` equals the input dimension, and
    polishes the best candidate by conditional-gradient steps (each step
    maximizes the linearized objective over the ball, which lands on a
    unitary again).  A Haar draw or a polish step replaces the incumbent
    value ``v`` only when it exceeds ``bar = v + rounding_allowance(v)``, so a tie
    decided by rounding never moves the search.  ``budget >= 1`` counts
    objective evaluations: the 2 or 3 starting candidates are always
    scored, the Haar draws fill the first ``budget // 2`` and the polish the
    rest, so a search makes at most ``max(budget, candidates)`` evaluations.
    Each polish step takes one full SVD of its iterate, whose top singular
    value is the iterate's value and whose top singular pair gives the next
    gradient.

    The draws are scored in stacked blocks of at most ``STACK_ENTRY_CAP``
    entries per ``(B, max(kn, km), max(kn, km))`` stack.  A block whose one
    stacked Cholesky of ``(bar (1 - GRAM_SCREEN_GUARD))**2 1 - M_b* M_b``
    succeeds, for ``M_b = c 1 - T_k(x_b)``, holds no draw that replaces ``v``
    and skips its SVD.  For a completely positive map at ``c = ||T(1)||``,
    where ``x = 0`` attains the supremum ``c``, no draw can clear the bar and
    every block skips, also where every draw ties ``c`` (``in_dim = 1``, the
    identity); the result is the same as with no screen.

    Returns a certified witness dict (the matrix, its value, the margin)
    or ``None``.  ``None`` is *not* a proof that the bound holds -- only a
    failed search; for a completely positive map, :func:`dilation_bound`
    proves a bound at every level at once.  Every returned witness is
    independently re-verified: its value by a fresh norm evaluation, which
    must exceed ``c + iter_tol``, and only then its cone membership via the
    membership predicate.
    """
    if c <= 0:
        raise ValueError("the bound constant must be positive")
    if budget < 1:
        raise ValueError(f"the evaluation budget must be at least 1, got {budget}")
    amp = amplify(t, k)
    kn, km = amp.in_dim, amp.out_dim
    rng = np.random.default_rng(seed)
    target = c * np.eye(km, dtype=complex)
    eye = np.eye(kn, dtype=complex)

    candidates = [eye + eye, np.zeros((kn, kn), dtype=complex)]
    if k == t.in_dim:
        candidates.append(entangled_cone_element(t.in_dim))
    best_x, best_val = None, -np.inf
    for x in candidates:
        val = operator_norm(target - amp.apply(x))
        if val > best_val:
            best_x, best_val = x, val

    # The Haar phase, in stacked blocks.  A block whose Gram screen proves
    # every value below the incumbent's ``bar`` skips its SVD; in the others
    # the draws that clear the bar are taken in order, as the rule would.
    draws = max(0, budget // 2 - len(candidates))
    for block in stack_slices(draws, max(kn, km)):
        xs = eye + haar_unitaries(rng, block.stop - block.start, kn)
        mats = target - amp._images(xs)
        gram = mats.conj().swapaxes(1, 2) @ mats
        bar = best_val + rounding_allowance(best_val)
        if psd_within(-gram, (bar * (1.0 - GRAM_SCREEN_GUARD)) ** 2):
            continue
        vals = operator_norms(mats)
        for i in np.flatnonzero(vals > bar):
            if vals[i] > best_val + rounding_allowance(best_val):
                best_x, best_val = xs[i].copy(), float(vals[i])
    evaluations = len(candidates) + draws

    # Conditional-gradient polish: move to the unitary maximizing the
    # linearization of the convex objective (monotone for convex objectives).
    if evaluations < budget:
        svd_u, _, svd_vh = np.linalg.svd(target - amp.apply(best_x))
    while evaluations < budget:
        grad = -amp.adjoint_apply(np.outer(svd_u[:, 0], svd_vh[0].conj()))
        x_next = eye + _polar_unitary(grad)
        next_u, s, next_vh = np.linalg.svd(target - amp.apply(x_next))
        evaluations += 1
        if s[0] <= best_val + rounding_allowance(best_val):
            break
        best_x, best_val = x_next, float(s[0])
        svd_u, svd_vh = next_u, next_vh

    # Independent certification of the best candidate.
    certified_value = operator_norm(target - amp.apply(best_x))
    if certified_value > c + iter_tol and in_F(best_x):
        return {
            "x": matrix_to_json(best_x),
            "level": k,
            "bound": float(c),
            "value": float(certified_value),
            "margin": float(certified_value - c),
        }
    return None


# --------------------------------------------------------------------------
# disk test


@dataclasses.dataclass(frozen=True)
class DiskTestReport:
    """Sampled and algebraic verdicts for the scaling-disk condition.

    ``member`` is the sampled verdict: ``z x`` stays in the cone
    ``{y: ||1-y|| <= 1}`` (within ``10 rounding_allowance()``) at every
    sampled ``z`` of the closed disk ``|1 - z| <= 1``; by subharmonicity of
    ``z -> ||1 - z x||`` the boundary circle decides this.  The condition
    holds exactly for positive-semidefinite contractions (for ``w`` in the
    numerical range, ``w . disk c disk`` forces ``w in [0, 1]``), which is
    the independent algebraic verdict ``hermitian_psd``.
    """

    member: bool
    worst_excess: float
    worst_z: complex
    circle_points: int
    slack: float
    hermitian_psd: bool


def disk_test(x, circle_points: int = 500) -> DiskTestReport:
    """Sample ``||1 - z x|| <= 1`` over the circle ``|1 - z| = 1`` plus 0, 1, 2.

    The sampled verdict must agree with the algebraic one (Hermitian with
    eigenvalues in ``[0, 1]``) up to the grid slack
    ``(2 pi / N) ||x|| + 10 rounding_allowance()``; disagreement beyond the
    slack raises :class:`CrossCheckError`.
    """
    x = as_square_matrix(x)
    if circle_points < 8:
        raise ValueError("need at least 8 circle points")
    n = x.shape[0]
    eye = np.eye(n, dtype=complex)
    thetas = 2.0 * np.pi * np.arange(circle_points) / circle_points
    zs = np.concatenate([1.0 + np.exp(1j * thetas), [0.0, 1.0, 2.0]])
    excess = np.empty(len(zs))
    for block in stack_slices(len(zs), n):
        excess[block] = operator_norms(eye - zs[block, None, None] * x) - 1.0
    worst = int(np.argmax(excess))
    worst_excess, worst_z = excess[worst], complex(zs[worst])
    allowance = rounding_allowance()
    slack = (2.0 * np.pi / circle_points) * operator_norm(x) + 10.0 * allowance
    sampled_member = worst_excess <= 10.0 * allowance

    hermitian_defect = operator_norm(x - x.conj().T)
    lam = np.linalg.eigvalsh((x + x.conj().T) / 2.0)
    algebraic_excess = max(
        hermitian_defect, float(-lam[0]), float(lam[-1] - 1.0), 0.0
    )
    hermitian_psd = algebraic_excess <= allowance

    # The two verdicts must agree up to boundary rounding: a sampled pass
    # with a clear algebraic failure (or a sampled failure beyond the grid
    # slack with an algebraic pass) is a genuine inconsistency.
    if sampled_member and algebraic_excess > 100.0 * allowance:
        raise CrossCheckError(
            f"disk sweep passed but the PSD-contraction check fails by "
            f"{algebraic_excess:.3e}"
        )
    if hermitian_psd and not sampled_member and worst_excess > slack:
        raise CrossCheckError(
            f"PSD-contraction check passed but the disk sweep fails by "
            f"{worst_excess:.3e} (slack {slack:.3e})"
        )
    return DiskTestReport(
        member=bool(sampled_member),
        worst_excess=float(worst_excess),
        worst_z=worst_z,
        circle_points=circle_points,
        slack=float(slack),
        hermitian_psd=hermitian_psd,
    )


# --------------------------------------------------------------------------
# Stinespring factorization


@dataclasses.dataclass(frozen=True)
class StinespringTriple:
    """Kraus operators and the stacked dilation isometry-like factor.

    ``T(x) = sum_s kraus[s] x kraus[s]^*`` and, with ``v`` the vertical
    stack of the ``kraus[s]^*``, ``T(x) = v^* (I_r (x) x) v`` so that
    ``||v||^2 = ||T(1)||``.
    """

    kraus: List[np.ndarray]
    v: np.ndarray
    residual: float


def stinespring(t: MatrixMap) -> StinespringTriple:
    """Factor a completely positive map through its Choi eigendecomposition.

    Eigenvectors of the Choi matrix with eigenvalue above
    ``rank_cutoff(max-eigenvalue)`` become Kraus operators
    ``K_s = sqrt(mu_s) reshape(v_s, (n, m)).T``; the reported residual is
    the worst Frobenius error of ``T(E_ij) - sum_s K_s E_ij K_s^*`` and the
    reconstruction is verified against the recomputed map.
    """
    eig = _cp_choi_eigh(t)
    if eig is None:
        raise ValueError("Stinespring factorization needs a completely positive map")
    n, m = t.in_dim, t.out_dim
    lam, vecs = eig
    # ``eigh`` sorts ascending: the kept eigenpairs are a suffix, taken from the top
    keep = np.flatnonzero(lam > rank_cutoff(float(lam[-1])))[::-1]
    ks = np.sqrt(lam[keep])[:, None, None] * vecs[:, keep].T.reshape(-1, n, m).swapaxes(1, 2)
    if not keep.size:
        ks = np.zeros((1, m, n), dtype=complex)
    rebuilt = matrix_map_from_kraus(ks)
    residual = float(np.linalg.norm(t.action - rebuilt.action, axis=(2, 3)).max())
    v = ks.conj().swapaxes(1, 2).reshape(-1, m)
    return StinespringTriple(kraus=list(ks), v=v, residual=residual)


def dilation_bound(t: MatrixMap, c: float) -> float:
    """A certified upper bound on ``sup_k sup_{x in F_k} ||c 1 - T_k(x)||``.

    ``F_k = {x in M_kn : ||1 - x|| <= 1}`` and ``T`` must be completely
    positive: :func:`stinespring` raises ``ValueError`` otherwise.  It gives
    ``V`` (``rn x m``) with ``T'(x) = V^* (1_r (x) x) V`` and the factorization
    error ``Delta = T - T'``, at most ``residual`` in Frobenius norm on each
    matrix unit.  Put ``A = c 1 - V^* V``, ``-delta = min(lambda_min(A), 0)``
    and ``W = [(A + delta 1)^{1/2}; V]``, so ``W^* W = (c + delta) 1``.  For
    ``x = 1 + u`` with ``||u|| <= 1``,
    ``(c + delta) 1 - T'_k(x) = W^* diag(1, -1_r (x) u) W`` (``W`` amplified
    to level ``k``) has norm at most ``c + delta``, at every level at once.
    With ``||Delta||_cb <= sum_ij ||Delta(E_ij)|| <= n^2 residual`` and
    ``||x|| <= 2`` on ``F_k``, the bound is

        ``c + 2 delta + 2 n^2 residual + 4 (rn + m) eps (c + ||V||_F^2)``.

    The last term is the rounding allowance, ``eps`` the double-precision
    unit: forming ``V^* V`` (inner products of length ``rn``) and the
    backward error of ``eigvalsh`` (taken as ``m eps ||A||``) move the
    computed ``lambda_min`` by at most ``(rn + m) eps (c + ||V||_F^2)``,
    which enters twice through ``delta``; rebuilding ``T'`` to measure
    ``residual`` rounds each ``T'(E_ij)`` by at most ``r eps ||V||_F^2``
    summed to ``rn eps ||V||_F^2`` over the units, which enters twice too.
    For ``c >= ||T(1)||`` the bound exceeds ``c`` only by rounding; for
    ``c < ||T(1)||`` it is ``2 ||T(1)|| - c`` up to rounding, which
    ``x = 2`` attains.
    """
    if not c > 0:
        raise ValueError("the bound constant must be positive")
    triple = stinespring(t)
    v = triple.v
    rows, m = v.shape
    n = t.in_dim
    a = c * np.eye(m, dtype=complex) - v.conj().T @ v
    delta = max(0.0, -float(np.linalg.eigvalsh(a)[0]))
    rounding = 4.0 * (rows + m) * np.finfo(float).eps * (c + float(np.vdot(v, v).real))
    return float(c + 2.0 * delta + 2.0 * n * n * triple.residual + rounding)

