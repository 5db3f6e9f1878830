"""Membership tests for the cone of elements x with ||1 - x|| <= 1.

Two characterizations are computed for every membership query: the defining
norm inequality, and positivity of x + x* - xx* (equivalent via
``||1-x||^2 = 1 - lambda_min(x + x* - xx*)``).  Positivity, here and in the
accretivity tests, is decided by :func:`~oalab.matcore.psd_within`, a
Cholesky factorization of the shifted matrix, which reads no eigenvalue;
``lambda_min`` is computed only when the two routes disagree, to tell a
borderline element from a violation of the identity.  Such a violation
beyond tolerance is a numerical fault and raises :class:`CrossCheckError`
instead of returning a silently wrong boolean.
"""

from __future__ import annotations

import numpy as np

from .matcore import (
    CrossCheckError,
    as_square_matrix,
    operator_norm,
    psd_within,
    rank_cutoff,
    rounding_allowance,
)

__all__ = [
    "in_F",
    "accretive",
    "cone_constant",
]


def in_F(x) -> bool:
    """Whether ``||1 - x|| <= 1`` within the rounding allowance at scale 1.

    Both characterizations are evaluated; if their booleans disagree while the
    connecting identity is broken beyond ten times the allowance (relative to
    the squared norm) the disagreement is surfaced as :class:`CrossCheckError`.
    """
    return _in_F(x, 1.0)


def _in_F(x, multiple: float) -> bool:
    """:func:`in_F` with ``multiple`` times the rounding allowance."""
    slack = multiple * rounding_allowance()
    a = as_square_matrix(x)
    norm_val = operator_norm(np.eye(a.shape[0]) - a)
    by_norm = norm_val <= 1.0 + slack
    h = a + a.conj().T - a @ a.conj().T
    if by_norm != psd_within(h, slack):
        lam_min = float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0]) - slack
        identity_gap = abs(norm_val**2 - (1.0 - lam_min))
        if identity_gap > 10.0 * multiple * rounding_allowance(norm_val**2):
            raise CrossCheckError(
                "cone membership characterizations disagree: "
                f"||1-x|| = {norm_val!r}, lambda_min(x+x*-xx*) = {lam_min!r}, "
                f"identity gap = {identity_gap!r}"
            )
        # threshold skew on a borderline element: the norm route decides
    return by_norm


def accretive(x) -> bool:
    """Whether x + x* is positive semidefinite within the rounding allowance."""
    a = as_square_matrix(x)
    return psd_within(a + a.conj().T, rounding_allowance())


def cone_constant(x) -> float | None:
    """Largest C >= 0 with ``x + x* >= C x*x``, else None.

    Returns None when no positive constant works (x + x* not PSD within
    the rounding allowance) and, by convention, for the zero matrix (every
    constant works vacuously).  With ``x = U S V*`` and ``V_r`` the right
    singular vectors above ``rank_cutoff(||x||)``, ``x*x = V_r S_r^2 V_r*``
    and ``ker x`` lies in ``ker(x + x*)`` for accretive x, so C is the least
    eigenvalue of ``S_r^-1 V_r* (x + x*) V_r S_r^-1``.  The returned C
    satisfies the membership certificate ``C*x`` in the cone:
    ``(Cx)*(Cx) = C^2 x*x <= C(x+x*)``.
    """
    a = as_square_matrix(x)
    _, sigma, vh = np.linalg.svd(a)
    keep = sigma > rank_cutoff(sigma[0])
    if not keep.any() or not accretive(a):
        return None
    herm = a + a.conj().T
    w = vh[keep].conj().T / sigma[keep]
    m = w.conj().T @ herm @ w
    c = max(0.0, float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0]))
    if not _in_F(c * a, 10.0):
        raise CrossCheckError(
            f"cone constant self-check failed: C = {c!r} but C*x is not in the cone"
        )
    return c
