"""Test inputs that no suite draws: an exact-kernel cone sampler and the grid delta."""

import numpy as np

from oalab.domar import GridFunction
from oalab.sampling import haar_unitaries, random_contraction


def random_singular_cone_element(rng, dim, kernel_dim=1, min_sigma=1e-3):
    """Random singular x with ||1 - x|| <= 1 and an exact kernel of given dimension.

    Built as U (0 (+) y) U* for a Haar unitary U and an invertible block
    y = 1 - c, c a random contraction; the direct sum keeps the cone
    membership because ||1 - (0 (+) y)|| = max(1, ||1 - y||) = 1, and the
    kernel is orthogonal to the range by construction.
    """
    block = dim - kernel_dim
    if block == 0:
        return np.zeros((dim, dim), dtype=complex)
    while True:
        y = np.eye(block) - random_contraction(rng, block)
        if np.linalg.svd(y, compute_uv=False)[-1] > min_sigma:
            break
    x = np.zeros((dim, dim), dtype=complex)
    x[kernel_dim:, kernel_dim:] = y
    u = haar_unitaries(rng, 1, dim)[0]
    return u @ x @ u.conj().T


def grid_delta(h, index=0):
    """The discrete delta at ``t = index*h``: value ``1/h`` in one cell.

    At ``index = 0`` this is a two-sided identity for ``convolve`` --
    bit-exact for dyadic steps, one rounding of ``h * (1/h)`` otherwise.
    """
    coeffs = np.zeros(index + 1, dtype=complex)
    coeffs[index] = 1.0 / h
    return GridFunction(h=h, coeffs=coeffs)
