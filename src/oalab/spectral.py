"""Numerical-range sampling, the numerical radius, and a sharp von Neumann test.

The numerical range ``W(x) = {<xv, v> : ||v|| = 1}`` of a matrix is a compact
convex set.  Its boundary is sampled here by a support-line sweep: for each
angle ``theta`` the top eigenvector ``v`` of the Hermitian part
``H_theta = Re(e^{-i theta} x)`` yields the boundary point ``<xv, v>`` where
the support line of direction ``theta`` touches ``W(x)``.  Since
``H_{theta + pi} = -H_theta``, one factorization serves both directions of
an antipodal pair: the bottom eigenpair of ``H_theta`` is the top one of
``H_{theta + pi}``.  The support values bracket the numerical radius
``nu = max |W(x)|`` (Johnson's support-line polygon).

On top of the sweep this module provides :func:`sharp_neumann`, which
decides invertibility of a matrix ``T`` with ``||1 - T|| <= 1`` purely from
the two norms ``||1 - T||`` and ``||1 - T/2||``, cross-checked against a
singular-value rank oracle.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .matcore import (
    CrossCheckError,
    SpectrumError,
    as_square_matrix,
    operator_norm,
    rank_cutoff,
    rounding_allowance,
    stack_slices,
)

__all__ = [
    "NumericalRangeSample",
    "SharpNeumannResult",
    "numerical_range",
    "sharp_neumann",
]


@dataclasses.dataclass(frozen=True)
class NumericalRangeSample:
    """Boundary sample of a numerical range obtained by a support sweep.

    Attributes
    ----------
    theta_count:
        Number of sweep directions (equally spaced on ``[0, 2*pi)``).
    boundary_points:
        Complex boundary points, one per direction.
    support_values:
        ``support_values[j] = max Re(e^{-i theta_j} W(x))``, the support
        function of the range in direction ``theta_j``.
    radius:
        ``h = max_j support_values[j]``, a lower bound on the numerical
        radius ``nu = max |W(x)|``: each support value is attained at a
        boundary point.
    radius_upper:
        An upper bound on ``nu``.  The support lines bound a polygon inside
        the regular ``theta_count``-gon of inradius ``h``, so
        ``nu <= h / cos(pi / theta_count)`` (Johnson, SINUM 1978); the bound
        adds ``rounding_allowance`` at that scale for the eigensolver's
        rounding, which is relative to ``||H_theta|| <= nu``.
    """

    theta_count: int
    boundary_points: np.ndarray
    support_values: np.ndarray
    radius: float
    radius_upper: float


# Twice LAPACK's underflow threshold: dstebz then bisects each eigenvalue
# to full relative accuracy.
_BISECTION_ABSTOL = 2.0 * np.finfo(float).tiny


def _hermitian_extremes(h: np.ndarray, count: int):
    """Top and, with ``count == 2``, bottom eigenpair of a Hermitian ``h``.

    ``h`` is Fortran-ordered and overwritten.  One Householder
    tridiagonalization ``h = Q T Q*`` (``zhetrd`` on the lower triangle,
    with its optimal workspace), the extreme eigenvalues of the real
    tridiagonal ``T`` by bisection (``dstebz``), their vectors by inverse
    iteration (``dstein``) and one ``zunmqr`` applying ``Q`` to them: the
    rest of the spectrum is never computed.  Returns ``(values, vectors)``
    with the top pair first.
    """
    import scipy.linalg
    lapack = scipy.linalg.lapack
    n = h.shape[0]
    work, _ = lapack.zhetrd_lwork(n, lower=1)
    c, d, e, tau, info = lapack.zhetrd(h, lower=1, lwork=int(work.real), overwrite_a=1)
    if info != 0:
        raise SpectrumError(f"Hermitian tridiagonalization failed (info={info})")
    values, blocks = [], []
    for index in (n, 1)[:count]:
        _, w, iblock, isplit, info = lapack.dstebz(
            d, e, 3, 0.0, 0.0, index, index, _BISECTION_ABSTOL, "B"
        )
        if info != 0:
            raise SpectrumError(f"tridiagonal bisection failed (info={info})")
        values.append(w[0])
        blocks.append(iblock[0])
    # dstein takes the eigenvalues grouped by split-off block, ascending
    order = np.lexsort((values, blocks))
    iblock = np.zeros(n, dtype=isplit.dtype)
    iblock[:count] = np.take(blocks, order)
    z, info = lapack.dstein(d, e, np.take(values, order), iblock, isplit)
    if info != 0:
        raise SpectrumError(f"tridiagonal inverse iteration failed (info={info})")
    vecs = np.asfortranarray(z[:, np.argsort(order)], dtype=np.complex128)
    # Q = H(1) ... H(n-1) acts on rows 2..n; zhetrd stored the reflectors
    # below the subdiagonal, the layout zunmqr reads
    rotated, _, info = lapack.zunmqr("L", "N", c[1:, :-1], tau, vecs[1:], count)
    if info != 0:
        raise SpectrumError(f"tridiagonal back-transformation failed (info={info})")
    vecs[1:] = rotated
    return np.array(values), vecs


def numerical_range(x: np.ndarray, theta_count: int = 720) -> NumericalRangeSample:
    """Sample the boundary of the numerical range of ``x``.

    For each of ``theta_count`` equally spaced directions the maximal
    eigenvalue of the rotated Hermitian part is the support function value,
    and the corresponding top eigenvector produces one boundary point.

    Antipodal directions share one factorization: ``H_{theta + pi} =
    -H_theta``, so for an even ``theta_count`` only the first half of the
    directions is diagonalized, and the bottom eigenpair of ``H_theta``
    gives the support value ``-lambda_min(H_theta)`` and the boundary point
    of ``theta + pi``.  An odd ``theta_count`` has no antipodes on its grid
    and solves every direction.  The solved directions are diagonalized in
    stacked blocks (one ``np.linalg.eigh`` per block, see
    :func:`~oalab.matcore.stack_slices`).  A block that holds a single
    matrix (every block does once ``n >= 46``) computes only the extreme
    eigenpairs it reads, from one tridiagonalization.  That branch makes
    every LAPACK and BLAS call through scipy: the numpy and scipy wheels
    each bundle an OpenBLAS, and alternating their thread pools call by
    call slows the loop severalfold on two threads.
    """
    import scipy.linalg
    x = as_square_matrix(x)
    if theta_count < 8:
        raise ValueError("theta_count must be at least 8")
    count = 2 if theta_count % 2 == 0 else 1
    solved = theta_count // count
    picks = [-1, 0][:count]
    signs = np.array([1.0, -1.0][:count])
    thetas = np.linspace(0.0, 2.0 * np.pi, theta_count, endpoint=False)
    phases = np.exp(-1j * thetas[:solved])[:, None, None]
    # column k holds direction j + k * solved: the top eigenpair of H_j,
    # then (paired) its antipode from the bottom one
    support = np.empty((solved, count), dtype=float)
    boundary = np.empty((solved, count), dtype=np.complex128)
    xf = np.asfortranarray(x)
    xh = np.asfortranarray(x.conj().T)
    n = x.shape[0]
    for block in stack_slices(solved, n):
        h = (phases[block] * xf + np.conj(phases[block]) * xh) / 2.0
        # a 1 x 1 matrix has no tridiagonal to reduce
        if len(h) == 1 and n > 1:
            w, v = _hermitian_extremes(np.asfortranarray(h[0]), count)
            support[block] = w * signs
            boundary[block] = np.sum(v.conj() * scipy.linalg.blas.zgemm(1.0, xf, v), axis=0)
            continue
        w, v = np.linalg.eigh(h)
        support[block] = w[:, picks] * signs
        vecs = v[:, :, picks].transpose(2, 0, 1)
        boundary[block] = np.sum((vecs.conj() @ x) * vecs, axis=2).T
    support = support.T.ravel()
    radius = float(np.max(support))
    outer = radius / np.cos(np.pi / theta_count)
    return NumericalRangeSample(
        theta_count=theta_count,
        boundary_points=boundary.T.ravel(),
        support_values=support,
        radius=radius,
        radius_upper=float(outer + rounding_allowance(outer)),
    )


@dataclasses.dataclass(frozen=True)
class SharpNeumannResult:
    """Invertibility verdict read off two operator norms.

    For ``T`` with ``||1 - T|| <= 1`` the matrix is singular exactly when
    both ``||1 - T||`` and ``||1 - T/2||`` equal 1; any kernel vector keeps
    both norms at 1, while invertibility pulls ``||1 - T/2||`` strictly
    below 1.  ``singular`` reports the norm-based verdict, and the
    singular-value fields record the independent rank oracle it was
    checked against.
    """

    singular: bool
    norm_one_minus: float
    norm_one_minus_half: float
    sigma_min: float


# The band below 1 in which both norms read "singular": the resolution of
# the two-norm test, not an iteration stop, so it is not ITER_TOL.
# For t = 1 + u with u unitary, on the boundary of the cone,
# 1 - ||1 - t/2|| is about sigma_min(t)^2 / 8.
NEUMANN_BAND = 1e-6


def sharp_neumann(t: np.ndarray) -> SharpNeumannResult:
    """Decide invertibility of ``t`` from ``||1 - t||`` and ``||1 - t/2||``.

    Requires ``||1 - t|| <= 1`` up to the rounding allowance; raises
    ``ValueError`` otherwise.  The verdict is "singular" precisely when both
    norms are at least ``1 - NEUMANN_BAND``, a constant apart from
    ``ITER_TOL``.  The verdict is then cross-checked against the smallest
    singular value of ``t`` (singular iff
    ``sigma_min <= rank_cutoff(||t||)``); a disagreement raises
    :class:`~oalab.matcore.CrossCheckError` with both diagnostics, since it
    means the two routes resolve the spectrum near zero differently.
    """
    t = as_square_matrix(t)
    eye = np.eye(t.shape[0], dtype=np.complex128)
    norm_one = operator_norm(eye - t)
    if norm_one > 1.0 + rounding_allowance():
        raise ValueError(
            f"sharp_neumann requires ||1 - t|| <= 1, got {norm_one:.6g}"
        )
    norm_half = operator_norm(eye - t / 2.0)
    if norm_half > 1.0 + rounding_allowance():
        raise CrossCheckError(
            "||1 - t/2|| exceeds 1 although ||1 - t|| <= 1; "
            f"got {norm_half:.6g}"
        )
    singular_by_norms = min(norm_one, norm_half) >= 1.0 - NEUMANN_BAND
    sigma = np.linalg.svd(t, compute_uv=False)
    sigma_min = float(sigma[-1])
    singular_by_rank = sigma_min <= rank_cutoff(float(sigma[0]))
    if singular_by_norms != singular_by_rank:
        raise CrossCheckError(
            "norm-based invertibility verdict disagrees with the rank oracle: "
            f"norms ({norm_one:.9g}, {norm_half:.9g}) say "
            f"{'singular' if singular_by_norms else 'invertible'} but "
            f"sigma_min={sigma_min:.3g} says "
            f"{'singular' if singular_by_rank else 'invertible'}"
        )
    return SharpNeumannResult(
        singular=bool(singular_by_norms),
        norm_one_minus=float(norm_one),
        norm_one_minus_half=float(norm_half),
        sigma_min=sigma_min,
    )
