"""Numerical-range sampling, wedge membership, and a sharp von Neumann test.

The numerical range ``W(x) = {<xv, v> : ||v|| = 1}`` of a matrix is a compact
convex set.  Its boundary is sampled here by a support-line sweep: for each
angle ``theta`` the Hermitian part ``H_theta = Re(e^{-i theta} x)`` is
diagonalized, and the top eigenvector ``v`` yields the boundary point
``<xv, v>`` where the support line of direction ``theta`` touches ``W(x)``.

On top of the sweep this module provides

* :func:`wedge_membership` -- certify that the sampled range lies in the
  wedge ``{z : |arg z| <= rho}`` intersected with the disk ``|z - 1/2| <= 1/2``;
* :func:`sharp_neumann` -- decide invertibility of a matrix ``T`` with
  ``||1 - T|| <= 1`` purely from the two norms ``||1 - T||`` and
  ``||1 - T/2||``, cross-checked against a singular-value rank oracle.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import scipy.linalg

from .matcore import (
    DEFAULT_TOL,
    CrossCheckError,
    JsonReport,
    Tolerances,
    as_square_matrix,
    operator_norm,
    stack_slices,
)

__all__ = [
    "NumericalRangeSample",
    "WedgeReport",
    "SharpNeumannResult",
    "numerical_range",
    "numerical_radius",
    "wedge_membership",
    "sharp_neumann",
]


@dataclasses.dataclass(frozen=True)
class NumericalRangeSample(JsonReport):
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
        Numerical radius estimate ``max_j support_values[j]``; for a convex
        set containing the sweep's touching points this equals
        ``max |W(x)|`` up to grid resolution.
    """

    theta_count: int
    boundary_points: np.ndarray
    support_values: np.ndarray
    radius: float

    @staticmethod
    def from_json(text: str) -> "NumericalRangeSample":
        payload = json.loads(text)
        pts = np.array(
            [complex(re, im) for re, im in payload["boundary_points"]],
            dtype=np.complex128,
        )
        return NumericalRangeSample(
            theta_count=int(payload["theta_count"]),
            boundary_points=pts,
            support_values=np.array(payload["support_values"], dtype=float),
            radius=float(payload["radius"]),
        )


def numerical_range(x: np.ndarray, theta_count: int = 720) -> NumericalRangeSample:
    """Sample the boundary of the numerical range of ``x``.

    For each of ``theta_count`` equally spaced directions the maximal
    eigenvalue of the rotated Hermitian part is the support function value,
    and the corresponding top eigenvector produces one boundary point.  The
    directions are diagonalized in stacked blocks (see
    :func:`~oalab.matcore.stack_slices`).  A block that holds a single
    matrix (every block does once ``n >= 46``) has only its top eigenpair
    computed (``scipy.linalg.eigh`` with ``subset_by_index``, LAPACK's MRRR
    driver), which skips the rest of the spectrum that the sweep never reads.
    """
    x = as_square_matrix(x)
    if theta_count < 8:
        raise ValueError("theta_count must be at least 8")
    thetas = np.linspace(0.0, 2.0 * np.pi, theta_count, endpoint=False)
    phases = np.exp(-1j * thetas)[:, None, None]
    boundary = np.empty(theta_count, dtype=np.complex128)
    support = np.empty(theta_count, dtype=float)
    xh = x.conj().T
    xf = np.asfortranarray(x)
    n = x.shape[0]
    for block in stack_slices(theta_count, n):
        h = (phases[block] * x + np.conj(phases[block]) * xh) / 2.0
        if len(h) == 1:
            w, v = scipy.linalg.eigh(h[0], subset_by_index=[n - 1, n - 1], check_finite=False)
            support[block] = w
            # scipy's BLAS, like its eigh: the numpy and scipy wheels each
            # bundle an OpenBLAS, and alternating their thread pools call by
            # call made this loop 10x slower on two threads.
            boundary[block] = np.vdot(v[:, 0], scipy.linalg.blas.zgemv(1.0, xf, v[:, 0]))
            continue
        w, v = np.linalg.eigh(h)
        support[block] = w[:, -1]
        vecs = v[:, :, -1]
        boundary[block] = np.sum((vecs.conj() @ x) * vecs, axis=1)
    return NumericalRangeSample(
        theta_count=theta_count,
        boundary_points=boundary,
        support_values=support,
        radius=float(np.max(support)),
    )


def numerical_radius(x: np.ndarray, theta_count: int = 720) -> float:
    """Numerical radius ``max |W(x)|`` via the support sweep."""
    return numerical_range(x, theta_count=theta_count).radius


@dataclasses.dataclass(frozen=True)
class WedgeReport(JsonReport):
    """Outcome of a sampled wedge-membership check.

    ``inside`` is True when every sampled boundary point ``w`` satisfies
    both ``|arg w| <= rho + slack`` and ``|w - 1/2| <= 1/2 + tol``, where
    the angular ``slack`` accounts for the sweep's grid resolution.
    Points within ``tip_radius`` of the origin sit at the wedge tip and
    carry no usable angle, so they are counted inside.
    """

    inside: bool
    rho: float
    max_angle: float
    max_disk_defect: float
    slack: float
    tip_radius: float


def wedge_membership(
    x: np.ndarray,
    rho: float,
    theta_count: int = 720,
    tol: Tolerances = DEFAULT_TOL,
) -> WedgeReport:
    """Check whether the sampled numerical range of ``x`` lies in a wedge.

    The target region is ``{z : |arg z| <= rho}`` intersected with the
    disk ``{z : |z - 1/2| <= 1/2}``.  Sampling happens on the boundary of
    ``W(x)``; since both the range and the region are convex, boundary
    containment (up to grid slack) certifies containment of the whole
    sampled hull.

    Parameters
    ----------
    rho:
        Half-opening angle of the wedge, in radians, ``0 <= rho <= pi``.
    theta_count:
        Sweep resolution; the angular slack is one grid step
        ``2*pi/theta_count`` plus a fixed ``1e-6`` guard.
    """
    if not 0.0 <= rho <= np.pi:
        raise ValueError("rho must lie in [0, pi]")
    sample = numerical_range(x, theta_count=theta_count)
    pts = sample.boundary_points
    slack = 2.0 * np.pi / theta_count + 1e-6
    tip_radius = max(tol.exact_tol, 1e-12)
    angles = np.abs(np.angle(pts))
    usable = np.abs(pts) > tip_radius
    max_angle = float(np.max(angles[usable])) if usable.any() else 0.0
    disk_defect = float(np.max(np.abs(pts - 0.5)) - 0.5)
    inside = max_angle <= rho + slack and disk_defect <= tol.exact_tol
    return WedgeReport(
        inside=bool(inside),
        rho=float(rho),
        max_angle=max_angle,
        max_disk_defect=max(disk_defect, 0.0),
        slack=float(slack),
        tip_radius=float(tip_radius),
    )


@dataclasses.dataclass(frozen=True)
class SharpNeumannResult(JsonReport):
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


def sharp_neumann(t: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SharpNeumannResult:
    """Decide invertibility of ``t`` from ``||1 - t||`` and ``||1 - t/2||``.

    Requires ``||1 - t|| <= 1`` (up to ``exact_tol``); raises ``ValueError``
    otherwise.  The verdict is "singular" precisely when both norms land in
    the band ``[1 - iter_tol, 1 + exact_tol]``.  The verdict is then
    cross-checked against the smallest singular value of ``t`` (singular
    iff ``sigma_min <= rank_tol * max(1, ||t||)``); a disagreement raises
    :class:`~oalab.matcore.CrossCheckError` with both diagnostics, since it
    means the two routes resolve the spectrum near zero differently.
    """
    t = as_square_matrix(t)
    eye = np.eye(t.shape[0], dtype=np.complex128)
    norm_one = operator_norm(eye - t)
    if norm_one > 1.0 + tol.exact_tol:
        raise ValueError(
            f"sharp_neumann requires ||1 - t|| <= 1, got {norm_one:.6g}"
        )
    norm_half = operator_norm(eye - t / 2.0)
    if norm_half > 1.0 + tol.exact_tol:
        raise CrossCheckError(
            "||1 - t/2|| exceeds 1 although ||1 - t|| <= 1; "
            f"got {norm_half:.6g}"
        )
    band_lo = 1.0 - tol.iter_tol
    band_hi = 1.0 + tol.exact_tol
    singular_by_norms = (
        band_lo <= norm_one <= band_hi and band_lo <= norm_half <= band_hi
    )
    sigma = np.linalg.svd(t, compute_uv=False)
    sigma_min = float(sigma[-1])
    singular_by_rank = sigma_min <= tol.rank_tol * max(1.0, float(sigma[0]))
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
