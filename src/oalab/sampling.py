"""Seeded random generators used by the library and its CLI suites.

All sampling goes through an explicit ``numpy.random.Generator`` so suite
runs are reproducible from a single seed, and every complex Gaussian draw
goes through :func:`complex_normal` -- except the one in
:func:`haar_unitaries`.  That stacked draw takes ``(count, 2, dim, dim)``
normals, real part then imaginary part per matrix, because this interleaving
is the stream ``count`` one-matrix draws consume;
``complex_normal(rng, (count, dim, dim))`` would draw all real parts first.
"""

from __future__ import annotations

import numpy as np

from .matcore import linear_combination, operator_norm

__all__ = [
    "complex_normal",
    "haar_unitaries",
    "random_contraction",
    "random_span_element",
    "random_normal_singular_cone_element",
]


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Array of the given shape with iid standard complex Gaussian entries."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitaries(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """``count`` Haar-distributed unitaries, stacked as ``(count, dim, dim)``.

    One stacked QR of Ginibre matrices with the phase fix; the result equals
    ``count`` sequential one-matrix draws bit for bit.
    """
    g = rng.standard_normal((count, 2, dim, dim))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    d = np.diagonal(r, axis1=1, axis2=2)[:, None, :]
    return q * (d / np.abs(d))


def random_contraction(rng: np.random.Generator, dim: int, radius: float = 1.0) -> np.ndarray:
    """Random matrix with operator norm exactly uniform in [0, radius)."""
    g = complex_normal(rng, (dim, dim))
    return g * (rng.uniform(0.0, radius) / np.linalg.norm(g, 2))


def random_span_element(rng: np.random.Generator, basis: np.ndarray, radius: float):
    """Random element of span(basis) with operator norm uniform in [0, radius).

    A complex Gaussian combination of the ``(k, n, n)`` basis, rescaled.  A
    numerically zero combination (norm at most ``1e-12``) gives ``None``,
    and then no uniform draw is taken.
    """
    raw = linear_combination(complex_normal(rng, len(basis)), basis)
    nrm = operator_norm(raw)
    if nrm <= 1e-12:
        return None
    return raw * (rng.uniform(0.0, radius) / nrm)


def random_normal_singular_cone_element(rng: np.random.Generator, dim: int) -> np.ndarray:
    """``1 + u`` with ``u`` normal, ``||u|| = 1``, and ``-1`` an eigenvalue."""
    q, _ = np.linalg.qr(complex_normal(rng, (dim, dim)))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=dim)
    radii = rng.uniform(0.0, 1.0, size=dim)
    diag = radii * np.exp(1j * phases)
    diag[0] = -1.0
    u = (q * diag) @ q.conj().T
    return np.eye(dim, dtype=complex) + u
