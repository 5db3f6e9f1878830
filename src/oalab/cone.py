"""Membership tests for the cone of elements x with ||1 - x|| <= 1.

Two characterizations are computed for every membership query: the defining
norm inequality, and positivity of x + x* - xx* (equivalent via
``||1-x||^2 = 1 - lambda_min(x + x* - xx*)``).  Positivity, here and in the
accretivity tests, is decided by a Cholesky factorization of the matrix
shifted by the tolerance, which reads no eigenvalue; ``lambda_min`` is
computed only when the two routes disagree, to tell a borderline element
from a violation of the identity.  Such a violation beyond tolerance is a
numerical fault and raises :class:`CrossCheckError` instead of returning a
silently wrong boolean.
"""

from __future__ import annotations

import numpy as np

from .matcore import (
    EXACT_TOL,
    RANK_TOL,
    CrossCheckError,
    as_square_matrix,
    operator_norm,
)

__all__ = [
    "in_F",
    "accretive",
    "cone_constant",
]


def _psd_within(h: np.ndarray, shift: float) -> bool:
    """Whether the Hermitian ``h`` satisfies ``h + shift * 1 > 0``, i.e.
    ``lambda_min(h) > -shift``, by a Cholesky factorization; for a
    ``(B, n, n)`` stack, whether every matrix in it does, by one stacked
    factorization.

    Shifts the diagonal of ``h`` in place, through a writeable view, so
    ``h`` holds ``h + shift * 1`` afterwards: adding ``shift * eye(n)`` would
    hold two more arrays of ``h``'s size at the peak.  The factorization is
    numpy's, like the SVDs and eigensolves around it: the numpy and scipy
    wheels each bundle an OpenBLAS, and calling scipy's ``zpotrf`` in
    between made ``cone_constant`` 2-3x slower on two threads.
    """
    diagonal = np.einsum("...ii->...i", h)
    diagonal += shift
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def in_F(x) -> bool:
    """Whether ``||1 - x|| <= 1`` within ``EXACT_TOL``.

    Both characterizations are evaluated; if their booleans disagree while the
    connecting identity is broken beyond ``10 * EXACT_TOL`` (relative to the
    squared norm) the disagreement is surfaced as :class:`CrossCheckError`.
    """
    return _in_F(x, EXACT_TOL)


def _in_F(x, slack: float) -> bool:
    """:func:`in_F` with the allowance ``slack`` in place of ``EXACT_TOL``."""
    a = as_square_matrix(x)
    norm_val = operator_norm(np.eye(a.shape[0]) - a)
    by_norm = norm_val <= 1.0 + slack
    h = a + a.conj().T - a @ a.conj().T
    if by_norm != _psd_within(h, slack):
        lam_min = float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0]) - slack
        identity_gap = abs(norm_val**2 - (1.0 - lam_min))
        if identity_gap > 10.0 * slack * max(1.0, norm_val**2):
            raise CrossCheckError(
                "cone membership characterizations disagree: "
                f"||1-x|| = {norm_val!r}, lambda_min(x+x*-xx*) = {lam_min!r}, "
                f"identity gap = {identity_gap!r}"
            )
        # threshold skew on a borderline element: the norm route decides
    return by_norm


def accretive(x) -> bool:
    """Whether x + x* is positive semidefinite within ``EXACT_TOL``."""
    a = as_square_matrix(x)
    return _psd_within(a + a.conj().T, EXACT_TOL)


def cone_constant(x) -> float | None:
    """Largest C >= 0 with ``x + x* >= C x*x``, else None.

    Returns None when no positive constant works (x + x* not PSD within
    ``EXACT_TOL``) and, by convention, for the zero matrix (every constant
    works vacuously).  With ``x = U S V*`` and ``V_r`` the right singular
    vectors above ``RANK_TOL``, ``x*x = V_r S_r^2 V_r*`` and ``ker x`` lies in
    ``ker(x + x*)`` for accretive x, so C is the least eigenvalue of
    ``S_r^-1 V_r* (x + x*) V_r S_r^-1``.  The returned C satisfies the
    membership certificate ``C*x`` in the cone:
    ``(Cx)*(Cx) = C^2 x*x <= C(x+x*)``.
    """
    a = as_square_matrix(x)
    _, sigma, vh = np.linalg.svd(a)
    if sigma[0] <= RANK_TOL:
        return None
    if not accretive(a):
        return None
    herm = a + a.conj().T
    keep = sigma > RANK_TOL * sigma[0]
    w = vh[keep].conj().T / sigma[keep]
    m = w.conj().T @ herm @ w
    c = max(0.0, float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0]))
    if not _in_F(c * a, EXACT_TOL * 10):
        raise CrossCheckError(
            f"cone constant self-check failed: C = {c!r} but C*x is not in the cone"
        )
    return c
