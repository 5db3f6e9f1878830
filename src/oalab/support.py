"""Support projections of cone elements, computed along independent routes.

For x with ``||1 - x|| <= 1`` the kernel is orthogonal to the range, so the
orthogonal projection onto the closed range is a two-sided support:
``s(x) x = x = x s(x)``.  Three routes compute it:

``svd``
    range projection from the singular value decomposition;
``bai_limit``
    the n -> infinity limit of e_n = 1 - (1/n) sum_k (1-x)^k evaluated in
    closed form through the eigenstructure (the limit function is 0 on the
    kernel eigenvalues and 1 elsewhere), with a Schur/Sylvester spectral
    projector as fallback when the eigenbasis is ill-conditioned;
``power_limit``
    lim (z*z)^n for z = 1 - x/2, computed by repeated squaring, which
    converges to the projection onto the kernel; the route reports 1 - limit.

The routes share no machinery, so their pairwise agreement is a real check.
"""

from __future__ import annotations

import numpy as np

from .calculus import spectral_idempotent
from .cone import in_F
from .matcore import (
    FROBENIUS_GUARD,
    ITER_TOL,
    ConvergenceError,
    as_square_matrix,
    operator_norm,
    operator_norm_at_most,
    rank_cutoff,
)

__all__ = [
    "support_projection",
    "support_projection_routes",
    "power_limit_projection",
    "join_supports",
]


def _range_projection(a: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the range of a nonzero ``a`` from one full
    SVD: the rank counts singular values above ``rank_cutoff(s[0])``, and a
    rank of 0 is the nonzero check."""
    u, s, _ = np.linalg.svd(a)
    rank = int(np.sum(s > rank_cutoff(s[0])))
    if rank == 0:
        raise ValueError("support projection requires x != 0")
    return u[:, :rank] @ u[:, :rank].conj().T


def support_projection(x) -> np.ndarray:
    """Support projection of a nonzero x: its SVD range projection."""
    return _range_projection(as_square_matrix(x))


def _cond_below(v: np.ndarray, vinv: np.ndarray, limit: float) -> bool:
    """``cond(v) < limit`` in the 2-norm.  ``||v||_F ||v^-1||_F`` bounds
    ``cond(v)`` above and decides yes when below ``limit`` (relative guard
    ``FROBENIUS_GUARD``, as in :func:`~oalab.matcore.operator_norm_at_most`);
    only otherwise does the SVD of ``np.linalg.cond`` decide.  An inverse
    too large to square overflows the bound to inf, which leaves it open."""
    with np.errstate(over="ignore"):
        bound = float(np.linalg.norm(v) * np.linalg.norm(vinv))
    return bound * (1.0 + FROBENIUS_GUARD) < limit or bool(np.linalg.cond(v) < limit)


def _bai_limit_projection(a: np.ndarray) -> np.ndarray:
    eigvals, v = np.linalg.eig(a)
    mags = np.abs(eigvals)
    kernel = mags <= rank_cutoff(float(mags.max()))
    if not np.any(kernel):
        return np.eye(a.shape[0], dtype=complex)
    try:
        vinv = np.linalg.inv(v)
        well_conditioned = _cond_below(v, vinv, 1e8)
    except np.linalg.LinAlgError:
        well_conditioned = False
    if well_conditioned:
        return (v * np.where(kernel, 0.0, 1.0)) @ vinv
    # defective or near-defective eigenbasis: use the spectral projector at a
    # radius separating the kernel cluster from the rest
    if np.all(kernel):
        raise ValueError(
            "no eigenvalue lies outside the kernel cluster, so x is not a nonzero cone element"
        )
    zero_top = float(mags[kernel].max())
    nonzero_bottom = float(mags[~kernel].min())
    radius = np.sqrt(max(zero_top, 1e-300) * nonzero_bottom)
    return np.eye(a.shape[0], dtype=complex) - spectral_idempotent(a, radius)


# The last power of two that power_limit_projection squares up to.
POWER_LIMIT_CAP = 2**40


def power_limit_projection(x) -> np.ndarray:
    """Limit of (z*z)^n for z = 1 - x/2, by repeated squaring.

    Returns the limit at the first power of two n at which the squaring step
    moved by less than ``ITER_TOL``: the orthogonal projection onto the
    kernel of x.  Near-kernel directions far below the rank cutoff plateau
    at eigenvalue ~1 and are captured into the kernel, matching the SVD
    rank decision; directions at intermediate scales either resolve
    (slowly) or reach n = ``POWER_LIMIT_CAP``, which raises
    :class:`ConvergenceError` with the operator norm of the last step.
    A step is only compared with ``ITER_TOL``, so
    :func:`~oalab.matcore.operator_norm_at_most` decides it, mostly from its
    Frobenius norm; the exact norm is computed for the error message only.
    """
    a = as_square_matrix(x)
    dim = a.shape[0]
    z = np.eye(dim) - a / 2.0
    w = z.conj().T @ z
    w = (w + w.conj().T) / 2.0
    n = 1
    while n < POWER_LIMIT_CAP:
        nxt = w @ w
        nxt = (nxt + nxt.conj().T) / 2.0
        n *= 2
        step = nxt - w
        w = nxt
        # ||step|| < ITER_TOL, i.e. at most the float below ITER_TOL
        if operator_norm_at_most(step, np.nextafter(ITER_TOL, 0.0)):
            return w
    raise ConvergenceError(
        f"(z*z)^n did not settle by n = {POWER_LIMIT_CAP}: last step {operator_norm(step)!r}"
    )


def support_projection_routes(x) -> dict:
    """All three support routes with their pairwise residuals.

    The SVD route is :func:`support_projection`'s range projection, which
    also rejects a zero ``x``.
    """
    a = as_square_matrix(x)
    svd_route = _range_projection(a)
    bai_route = _bai_limit_projection(a)
    power_route = np.eye(a.shape[0]) - power_limit_projection(a)
    return {
        "svd": svd_route,
        "bai_limit": bai_route,
        "power_limit": power_route,
        "residuals": {
            "svd_vs_bai_limit": operator_norm(svd_route - bai_route),
            "svd_vs_power_limit": operator_norm(svd_route - power_route),
            "bai_limit_vs_power_limit": operator_norm(bai_route - power_route),
        },
    }


def join_supports(xs) -> dict:
    """Join of the supports of a family in the cone, via two routes.

    ``join``: range projection of the horizontally stacked family (SVD).
    ``via_sum``: support of the average (1/k) sum x_k — a convex combination,
    hence again in the cone, whose support is the join.
    """
    mats = [as_square_matrix(m) for m in xs]
    if not mats:
        raise ValueError("need at least one element")
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (dim, dim):
            raise ValueError("family members have mismatched dimensions")
        if not in_F(m):
            raise ValueError("join_supports requires every member in the cone")
        if operator_norm_at_most(m, rank_cutoff()):
            raise ValueError("support projection requires x != 0")
    # Every member is nonzero, so the stack's range projection has rank at least 1.
    join = _range_projection(np.hstack(mats))
    mean = sum(mats) / len(mats)
    via_sum = support_projection(mean)
    return {
        "join": join,
        "via_sum": via_sum,
        "residual": operator_norm(join - via_sum),
    }
