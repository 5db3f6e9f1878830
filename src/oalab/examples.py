"""Concrete example algebras and operators used by the verification suites.

Three constructions:

* :func:`example_two_dim` -- the unital two-dimensional algebra of
  upper-triangular ``2x2`` matrices whose corner entry is the difference of
  the diagonal entries, ``{[[s, s-t], [0, t]]}``.  Every non-scalar ball
  element of this algebra has powers decaying to zero (no nontrivial
  idempotents of norm one), making it the standard pass case of the ball
  conditions, :func:`~oalab.algebra.ball_margins`.
* :func:`example_rdr` -- the conjugated diagonal algebra ``R D R^{-1}`` on
  ``C^n`` with ``R = I + S/2`` (``S`` the backward shift).  The point of the
  construction: no nontrivial diagonal 0/1 projection commutes with
  ``R* R``, witnessed exhaustively.
* :func:`volterra` -- the midpoint-rule discretization of the integration
  operator ``(Vf)(t) = integral of f over [0, t]`` on the unit interval.
  Lower-triangular with quasinilpotent truncations: the spectral radius is
  the diagonal value ``1/(2n)`` while the operator norm converges to the
  continuous value ``2/pi``.  :func:`volterra_norm` computes that norm
  matrix-free, in ``O(n)`` memory.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .algebra import FDAlgebra
from .matcore import ConvergenceError, operator_norms, stack_slices

__all__ = [
    "RdrExample",
    "example_two_dim",
    "example_rdr",
    "volterra",
    "volterra_norm",
]


def example_two_dim() -> FDAlgebra:
    """The algebra ``{[[s, s-t], [0, t]] : s, t complex}`` in ``M_2``.

    Basis ``{identity, [[1,1],[0,0]]}``; unital with the ambient identity.
    Closure under multiplication is verified at construction.
    """
    basis = [
        np.eye(2, dtype=complex),
        np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex),
    ]
    return FDAlgebra.build(basis)


@dataclasses.dataclass(frozen=True)
class RdrExample:
    """Generator data for the conjugated diagonal algebra on ``C^n``.

    ``r`` is ``I + S/2`` with ``S`` the backward shift; ``basis`` stacks the
    conjugated diagonal units ``R E_kk R^{-1}`` (already closed under
    multiplication: they are commuting idempotents summing to the identity).
    ``min_commutator`` is the minimum over all ``2^n - 2`` nontrivial
    diagonal 0/1 projections ``p`` of ``||p (R*R) - (R*R) p||`` -- strictly
    positive, witnessing that the commutant of ``R* R`` meets the diagonal
    only in scalars.
    """

    n: int
    r: np.ndarray
    r_inv: np.ndarray
    basis: np.ndarray
    min_commutator: float


def example_rdr(n: int) -> RdrExample:
    """Build the ``R D R^{-1}`` truncation and its projection-commutator gap.

    ``2 <= n <= 12`` (the projection enumeration is exhaustive over ``2^n``
    diagonal patterns, excluding 0 and the identity).
    """
    if not 2 <= n <= 12:
        raise ValueError("n must lie in [2, 12] (enumeration is 2^n)")
    r = np.eye(n, dtype=complex) + np.eye(n, k=1) / 2.0
    r_inv = np.linalg.inv(r)
    # basis[k] = R E_kk R^{-1}, the outer product of R's column k and row k
    # of R^{-1}
    basis = np.einsum("ik,kl->kil", r, r_inv)
    gram = r.conj().T @ r
    # [p, G]_ij = (p_i - p_j) G_ij for the diagonal p of each bit mask,
    # broadcast one capped block of masks at a time
    bits = (np.arange(1, 2**n - 1)[:, None] >> np.arange(n)) & 1
    best = min(
        operator_norms((bits[b, :, None] - bits[b, None, :]) * gram).min()
        for b in stack_slices(len(bits), n)
    )
    return RdrExample(n=n, r=r, r_inv=r_inv, basis=basis, min_commutator=float(best))


def volterra(n: int) -> np.ndarray:
    """Midpoint-rule discretization of the integration operator on ``[0, 1]``.

    On the grid ``t_i = (i - 1/2)/n`` the matrix has entries ``1/n`` strictly
    below the diagonal, ``1/(2n)`` on it, and zero above: integrating up to
    the midpoint contributes half a cell.  The half-weight diagonal keeps the
    matrix invertible while its norm converges to the continuous value
    ``2/pi`` at second order, ``||V_n|| = (2/pi) (1 - pi^2/(48 n^2)) + ...``;
    the spectral radius is exactly ``1/(2n)``.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    v = np.tril(np.full((n, n), 1.0 / n), k=-1).astype(complex)
    np.fill_diagonal(v, 1.0 / (2.0 * n))
    return v


_POWER_STEP_CAP = 100  # volterra_norm's steps; no n up to 10^6 takes more than 18


def volterra_norm(n: int) -> float:
    """``||volterra(n)||`` without forming the matrix.

    ``V x = (cumsum(x) - x/2)/n`` and ``V* y`` is the same sum taken from
    the other end, so a power iteration on the real ``V* V`` costs ``O(n)``
    per step.  Its top two eigenvalues differ by a factor of about 9, and
    the Rayleigh quotient, which converges at their squared ratio, is
    returned once a step moves it by at most four ulps
    (:class:`~oalab.matcore.ConvergenceError` after ``_POWER_STEP_CAP``
    steps).  The start vector is fixed (all ones, which the top eigenvector,
    a sampled ``cos(pi t / 2)``, does not annihilate), so repeated calls
    return the same bits.  The closed form is ``1 / (2n tan(pi / 4n))``.
    """
    if n < 2:
        raise ValueError("n must be at least 2")

    def gram(x: np.ndarray) -> np.ndarray:
        vx = (np.cumsum(x) - x / 2.0) / n
        return (np.cumsum(vx[::-1])[::-1] - vx / 2.0) / n

    v = np.full(n, 1.0 / math.sqrt(n))
    top = 0.0
    for _ in range(_POWER_STEP_CAP):
        w = gram(v)
        rayleigh = float(v @ w)
        if abs(rayleigh - top) <= 4.0 * np.finfo(float).eps * rayleigh:
            return math.sqrt(rayleigh)
        top = rayleigh
        v = w / np.linalg.norm(w)
    raise ConvergenceError(f"||V_{n}||: no power-iteration fixed point in {_POWER_STEP_CAP} steps")
