"""Fractional powers and spectral idempotents.

The r-th power of x with ``||1 - x|| <= 1`` uses the principal branch on the
spectrum (which lies in the closed disk |1 - z| <= 1, hence in the closed
right half-plane, so the branch cut is never crossed; 0^r = 0).  The kernel is
a complex Schur triangularization (LAPACK ``zgees``) followed by a Parlett
recurrence.  Eigenvalues are grouped into transitive clusters (tolerance
``DEFAULT_CLUSTER_TOL``).  When every cluster is a single eigenvalue, the
generic case, Parlett's scalar recurrence fills the triangular power one
superdiagonal at a time: in plain Python complex arithmetic up to
``_SCALAR_PARLETT_MAX`` eigenvalues, each superdiagonal one vectorized step
above that.  Otherwise
(every singular input with a kernel of dimension two or more is such a case)
the blocked recurrence of Davies-Higham runs: LAPACK ``ztrsen`` makes the
clusters contiguous by a unitary reordering, each diagonal cluster block is
evaluated atomically, and each block column of the off-diagonal part comes
from one triangular Sylvester solve (LAPACK ``ztrsyl``).  On a separated
spectrum the two are the same recurrence in another rounding order; in both,
well-posedness is exactly the cluster separation.
"""

from __future__ import annotations

import numpy as np

from .cone import in_F
from .matcore import (
    CrossCheckError,
    SpectralGapError,
    SpectrumError,
    as_square_matrix,
    complex_schur,
    operator_norm,
    operator_norm_at_most,
    rounding_allowance,
)

__all__ = [
    "RecurrenceBreakdown",
    "matrix_power_r",
    "matrix_powers",
    "spectral_idempotent",
]

DEFAULT_CLUSTER_TOL = 1e-4
_ZERO_SNAP = 1e-12
_TAYLOR_TERM_CAP = 300  # _taylor_power's terms before it raises
# Largest triangular factor whose Parlett recurrence runs on Python lists.
# Median single calls, lists against the vectorized band loop (one BLAS
# thread, 2-vCPU shared VM, BENCH_small_calculus.json): 46 against 101 us at
# n = 8, 131 against 170 us at n = 12, 256 against 246 us at n = 16; from
# n = 13 on the two are within the host's noise of each other.
_SCALAR_PARLETT_MAX = 12


class RecurrenceBreakdown(ArithmeticError):
    """The Parlett recurrence met a confluent cluster it cannot resolve."""


def _principal_power(lam: complex, r: float) -> complex:
    if abs(lam) <= _ZERO_SNAP:
        return 0.0 + 0.0j
    return complex(lam) ** r


def _divided_difference(a: complex, b: complex, r: float) -> complex:
    """Stable (a^r - b^r)/(a - b) on the principal branch."""
    big = max(abs(a), abs(b))
    if big <= _ZERO_SNAP:
        return 0.0 + 0.0j
    if abs(a - b) <= 1e-10 * big:
        mid = 0.5 * (a + b)
        return r * complex(mid) ** (r - 1.0)
    if abs(a - b) <= 0.01 * big and min(abs(a), abs(b)) > _ZERO_SNAP:
        # cancellation regime: a^r - b^r = b^r expm1(r log1p((a-b)/b))
        z = (a - b) / b
        return complex(b) ** r * np.expm1(r * np.log1p(np.complex128(z))) / (a - b)
    return (_principal_power(a, r) - _principal_power(b, r)) / (a - b)


def _cluster_labels(diag: np.ndarray) -> np.ndarray:
    """Transitive clusters of eigenvalues within ``DEFAULT_CLUSTER_TOL``,
    numbered in order of first appearance along the diagonal."""
    labels = np.arange(diag.size)
    close = np.abs(diag[:, None] - diag[None, :]) <= DEFAULT_CLUSTER_TOL
    if np.count_nonzero(close) == diag.size:
        # only the diagonal of ``close`` is set: every eigenvalue is a singleton
        return labels
    for i, j in zip(*np.nonzero(np.triu(close, 1))):
        # each label is the smallest index of its cluster; merge into it
        lo, hi = sorted((labels[i], labels[j]))
        labels[labels == hi] = lo
    return np.unique(labels, return_inverse=True)[1]


def _checked_sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X with ``a X - X b = c`` for upper-triangular a and b (LAPACK ztrsyl).

    Nonzero ``info`` means LAPACK perturbed close eigenvalues of a and b to
    finish the solve, so the result would be unreliable: raise instead.
    """
    import scipy.linalg
    x, scale, info = scipy.linalg.lapack.ztrsyl(a, b, c, isgn=-1)
    if info != 0:
        raise RecurrenceBreakdown(f"Sylvester solve perturbed close eigenvalues (info={info})")
    return x / scale


def _atomic_power(block: np.ndarray, r: float) -> np.ndarray:
    """r-th power of a triangular block whose eigenvalues form one cluster."""
    k = block.shape[0]
    if k == 1:
        return np.array([[_principal_power(block[0, 0], r)]])
    d = np.diag(block)
    scale = max(1.0, float(np.abs(block).max()))
    if np.all(np.abs(d) <= _ZERO_SNAP * scale):
        # exact kernel cluster: the block is numerically zero and 0^r = 0
        return np.zeros_like(block)
    if k == 2:
        f = np.zeros_like(block)
        f[0, 0] = _principal_power(d[0], r)
        f[1, 1] = _principal_power(d[1], r)
        f[0, 1] = block[0, 1] * _divided_difference(d[0], d[1], r)
        return f
    sigma = complex(d.mean())
    spread = float(np.max(np.abs(d - sigma)))
    if abs(sigma) > 10.0 * (spread + 1e-300) * k:
        return _taylor_power(block, sigma, r)
    return _guarded_parlett(block, r)


def _taylor_power(block: np.ndarray, sigma: complex, r: float) -> np.ndarray:
    """Taylor expansion of z^r about sigma; converges because the cluster
    spread is small relative to |sigma| (distance to the branch point)."""
    k = block.shape[0]
    m = (block - sigma * np.eye(k)) / sigma
    total = np.eye(k, dtype=complex)
    term = np.eye(k, dtype=complex)
    coeff = 1.0
    stall = 0
    for j in range(1, _TAYLOR_TERM_CAP):
        coeff *= (r - (j - 1)) / j
        term = term @ m
        incr = coeff * term
        total += incr
        if np.abs(incr).max() <= 1e-18 * max(1.0, np.abs(total).max()):
            stall += 1
            if stall >= 3 and j > k:
                break
        else:
            stall = 0
    else:
        raise RecurrenceBreakdown(
            f"Taylor evaluation did not converge for cluster at {sigma!r}"
        )
    return (complex(sigma) ** r) * total


def _guarded_parlett(block: np.ndarray, r: float) -> np.ndarray:
    """Scalar Parlett recurrence inside a near-zero cluster, with guarded
    divisions; degenerate confluence raises instead of amplifying noise."""
    k = block.shape[0]
    d = np.diag(block)
    f = np.zeros_like(block)
    for i in range(k):
        f[i, i] = _principal_power(d[i], r)
    for off in range(1, k):
        for i in range(k - off):
            j = i + off
            if off == 1:
                f[i, j] = block[i, j] * _divided_difference(d[i], d[j], r)
                continue
            denom = d[i] - d[j]
            scale = max(abs(d[i]), abs(d[j]), _ZERO_SNAP)
            if abs(denom) < 1e-3 * scale:
                raise RecurrenceBreakdown(
                    "confluent eigenvalues too close to the branch point: "
                    f"{d[i]!r} vs {d[j]!r}"
                )
            rhs = block[i, j] * (f[i, i] - f[j, j])
            for p in range(i + 1, j):
                rhs += f[i, p] * block[p, j] - block[i, p] * f[p, j]
            f[i, j] = rhs / denom
    return f


def _parlett_power(t: np.ndarray, r: float) -> np.ndarray:
    """Principal power of an upper-triangular t with well-separated eigenvalues.

    Parlett's scalar recurrence: ``TF = FT`` gives, for ``j > i``,
    ``f_ij (t_ii - t_jj) = (FT - TF)_ij`` evaluated with ``f_ij = 0``, and
    that right side reads only superdiagonals below ``j - i``.  So F fills
    one superdiagonal at a time.  Up to ``_SCALAR_PARLETT_MAX`` rows, where
    numpy's per-call cost outweighs the arithmetic, each entry is a Python
    sum over lists of complex numbers.  Above it each superdiagonal is one
    vectorized step over strided views of the band: row i of a view holds
    ``F[i, i:j+1]``, ``T[i:j+1, j]``, ``T[i, i:j+1]`` or ``F[i:j+1, j]``.
    """
    n = t.shape[0]
    if n <= _SCALAR_PARLETT_MAX:
        rows = t.tolist()
        f = [[0j] * n for _ in range(n)]
        for i in range(n):
            f[i][i] = _principal_power(rows[i][i], r)
        for k in range(1, n):
            for i in range(n - k):
                j = i + k
                f_i, t_i = f[i], rows[i]
                num = 0j
                for p in range(i, j + 1):
                    num += f_i[p] * rows[p][j] - t_i[p] * f[p][j]
                f_i[j] = num / (t_i[i] - rows[j][j])
        return np.array(f)
    d = np.diag(t)
    t = np.ascontiguousarray(t, dtype=complex)
    f = np.zeros((n, n), dtype=complex)
    f.flat[:: n + 1] = [_principal_power(lam, r) for lam in d]
    item = f.itemsize
    row = ((n + 1) * item, item)
    col = ((n + 1) * item, n * item)
    for k in range(1, n):
        m = n - k
        f_row = np.ndarray((m, k + 1), complex, f, 0, row)
        t_row = np.ndarray((m, k + 1), complex, t, 0, row)
        t_col = np.ndarray((m, k + 1), complex, t, k * item, col)
        f_col = np.ndarray((m, k + 1), complex, f, k * item, col)
        num = np.einsum("ij,ij->i", f_row, t_col) - np.einsum("ij,ij->i", t_row, f_col)
        f.flat[k : m * n : n + 1] = num / (d[:m] - d[k:])
    return f


def _triangular_power(t: np.ndarray, z: np.ndarray, r: float) -> np.ndarray:
    """Principal power on a Schur pair: Parlett's scalar recurrence when every
    eigenvalue is its own cluster, the blocked recurrence otherwise."""
    labels = _cluster_labels(np.diag(t))
    if labels[-1] == labels.size - 1:
        # labels count up in order of first appearance: all n are singletons
        return z @ _parlett_power(t, r) @ z.conj().T
    return _blocked_power(t, z, labels, r)


def _blocked_power(t: np.ndarray, z: np.ndarray, labels: np.ndarray, r: float) -> np.ndarray:
    """Blocked Parlett evaluation on a Schur pair with the given clusters."""
    import scipy.linalg
    counts = np.bincount(labels)
    for label in np.flatnonzero(counts > 1):
        # gather clusters 0..label to the front; ztrsen keeps relative order
        select = labels <= label
        t, z, _, _, _, _, info = scipy.linalg.lapack.ztrsen(select, t, z, job="N")
        if info != 0:
            raise RecurrenceBreakdown(f"Schur reordering failed (info={info})")
        labels = np.concatenate([labels[select], labels[~select]])
    bounds = np.cumsum(counts)
    f = np.zeros_like(t)
    for start, stop in zip(bounds - counts, bounds):
        blk = slice(start, stop)
        f[blk, blk] = _atomic_power(t[blk, blk], r)
        if start == 0:
            continue
        # TF = FT on block column blk: T11 X - X T22 = F11 T12 - T12 F22
        t12 = t[:start, blk]
        rhs = f[:start, :start] @ t12 - t12 @ f[blk, blk]
        f[:start, blk] = _checked_sylvester(t[:start, :start], t[blk, blk], rhs)
    return z @ f @ z.conj().T


def matrix_powers(x, rs) -> list:
    """Principal r-th powers (0 < r <= 1) of x with ``||1 - x|| <= 1``, one per r.

    One cone check and one Schur form serve every exponent.  Guarantees on
    return, for each power: ``||1 - x^r|| <= 1 + 10 rounding_allowance()``,
    commutation with x within ``10 rounding_allowance(||x||)``, and
    ``0^r = 0``.  Violations (possible only if a confluent cluster defeated
    the recurrence) raise instead of returning.
    """
    a = as_square_matrix(x)
    for r in rs:
        if not 0.0 < r <= 1.0:
            raise ValueError(f"exponent must lie in (0, 1], got {r!r}")
    if not in_F(a):
        raise ValueError("fractional powers require ||1 - x|| <= 1")
    schur = None
    powers = []
    for r in rs:
        if r == 1.0:
            powers.append(a.copy())
            continue
        if schur is None:
            schur = complex_schur(a)
        out = _triangular_power(*schur, r)
        # one n x n buffer holds 1 - x^r, then [x^r, x]
        check = np.eye(a.shape[0]) - out
        if not operator_norm_at_most(check, 1.0 + 10.0 * rounding_allowance()):
            raise RecurrenceBreakdown(
                f"computed power left the cone: ||1 - x^r|| = {operator_norm(check)!r}"
            )
        np.subtract(np.matmul(out, a, out=check), a @ out, out=check)
        if not operator_norm_at_most(check, 10.0 * rounding_allowance(), scale=a):
            raise RecurrenceBreakdown(
                f"computed power does not commute with x: {operator_norm(check)!r}"
            )
        powers.append(out)
    return powers


def matrix_power_r(x, r: float) -> np.ndarray:
    """Principal r-th power (0 < r <= 1) of x with ``||1 - x|| <= 1``:
    :func:`matrix_powers` with the one exponent ``r``."""
    return matrix_powers(x, (r,))[0]


def spectral_idempotent(x, radius: float) -> np.ndarray:
    """Idempotent onto the spectral subspace for eigenvalues with |lam| < radius.

    Requires a genuine gap: any eigenvalue modulus within +-10% of ``radius``
    raises :class:`SpectralGapError`.  One Schur form gives the eigenvalues
    for that check; LAPACK ``ztrsen`` then moves those inside the circle to
    the front, which is what a sorted ``zgees`` does after its QR iteration.
    The idempotent comes from one Sylvester solve (block diagonalization), and
    is verified to be idempotent and to commute with x.
    """
    import scipy.linalg
    a = as_square_matrix(x)
    if radius <= 0:
        raise ValueError("radius must be positive")
    t, z = complex_schur(a)
    eigs = np.diag(t)
    near = np.abs(np.abs(eigs) - radius) <= 0.1 * radius
    if np.any(near):
        raise SpectralGapError(
            f"eigenvalue modulus within 10% of radius {radius!r}: "
            f"{eigs[near]!r}"
        )
    inside = np.abs(eigs) < radius
    sdim = int(np.count_nonzero(inside))
    n = a.shape[0]
    if sdim == 0:
        return np.zeros_like(a)
    if sdim == n:
        return np.eye(n, dtype=complex)
    t, z, _, _, _, _, info = scipy.linalg.lapack.ztrsen(inside, t, z, job="N")
    if info != 0:
        raise SpectrumError(f"Schur reordering failed (info={info})")
    t11, t12, t22 = t[:sdim, :sdim], t[:sdim, sdim:], t[sdim:, sdim:]
    # S = [[I, -Y], [0, I]] block-diagonalizes T when T11 Y - Y T22 = T12;
    # the idempotent onto the leading block is then [[I, Y], [0, 0]]
    y = _checked_sylvester(t11, t22, t12)
    e_tri = np.zeros_like(t)
    e_tri[:sdim, :sdim] = np.eye(sdim)
    e_tri[:sdim, sdim:] = y
    e = z @ e_tri @ z.conj().T
    e_norm = operator_norm(e)
    if not operator_norm_at_most(e @ e - e, 100.0 * rounding_allowance(e_norm**2)):
        raise CrossCheckError("spectral idempotent failed e^2 = e")
    if not operator_norm_at_most(e @ a - a @ e, 100.0 * rounding_allowance(e_norm), scale=a):
        raise CrossCheckError("spectral idempotent does not commute with x")
    return e
