"""Shared finite-dimensional linear algebra: tolerances, norms, spectra, subspaces.

Everything downstream works with explicit square complex matrices.  Every
rank decision compares with :func:`rank_cutoff` and every rounding slack is
:func:`rounding_allowance`, the only readers of ``RANK_TOL`` and
``EXACT_TOL``; nothing is decided by an exact floating-point comparison.  A
norm only compared with a threshold goes through :func:`operator_norm_at_most`,
which takes the SVD's verdict but skips the SVD when the Frobenius bounds
already decide it.

Loops over many small matrices run as stacked ``(B, n, n)`` LAPACK calls
(:func:`operator_norms`), in blocks from :func:`stack_slices` of at most
``STACK_ENTRY_CAP`` complex entries each, so memory stays bounded whatever
the number of matrices.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg

__all__ = [
    "EXACT_TOL",
    "RANK_TOL",
    "ITER_TOL",
    "rank_cutoff",
    "rounding_allowance",
    "psd_within",
    "SpectrumError",
    "CrossCheckError",
    "SpectralGapError",
    "ConvergenceError",
    "STACK_ENTRY_CAP",
    "as_square_matrix",
    "operator_norm",
    "operator_norm_at_most",
    "operator_norms",
    "spectrum",
    "spectral_radius",
    "Subspace",
    "matrix_span",
    "matrix_to_json",
    "matrix_from_json",
]


# Complex entries per stacked (B, n, n) array: large enough that per-call
# overhead stops dominating at n <= 9, small enough that a stack never moves
# the process's peak memory.
STACK_ENTRY_CAP = 1 << 12


class SpectrumError(np.linalg.LinAlgError):
    """Eigenvalue/Schur iteration failed to converge."""


class CrossCheckError(ArithmeticError):
    """Two supposedly equivalent numerical routes disagreed beyond tolerance."""


class SpectralGapError(ValueError):
    """A separating circle passes too close to the spectrum."""


class ConvergenceError(RuntimeError):
    """An iterative limit did not converge within its budget."""


def _square_array(x, ndim: int, what: str, finite: bool = True) -> np.ndarray:
    a = np.asarray(x, dtype=complex)
    if a.ndim != ndim or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square {what}, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"expected a nonempty {what}, got shape {a.shape}")
    if finite and not np.isfinite(a).all():
        raise ValueError(f"{what} contains non-finite entries")
    return a


def as_square_matrix(x) -> np.ndarray:
    """Validate and return ``x`` as a nonempty square complex ndarray."""
    return _square_array(x, 2, "matrix")


def operator_norm(x) -> float:
    """Largest singular value of ``x``.

    One values-only SVD, bit-equal to ``np.linalg.norm(as_square_matrix(x), 2)``
    (the validated complex array; numpy's real SVD of a real ``x`` rounds
    differently) without that wrapper's axis handling, which costs as much as
    the SVD itself at n <= 8.
    """
    return float(np.linalg.svd(as_square_matrix(x), compute_uv=False)[0])


# The allowances every verdict is compared against.  EXACT_TOL is the slack
# of algebraic identities evaluated in floating point, RANK_TOL the
# singular-value threshold of every rank and membership decision; both are
# fixed.  ITER_TOL, the convergence target of iterative limits and
# optimization gaps, is the default of the ``iter_tol`` parameter of the
# functions that read it, and the one tolerance a caller sets.
EXACT_TOL = 1e-9
RANK_TOL = 1e-8
ITER_TOL = 1e-6

# Relative guard on the Frobenius bounds of operator_norm_at_most: far above
# the rounding of ||d||_F and of the SVD's sigma_max, so a verdict the bounds
# decide is the verdict the SVD would give.
FROBENIUS_GUARD = 1e-12

# Relative guard of the Gram screen in ocp_falsify's Haar phase, which skips
# a block when one stacked Cholesky factors ``t 1 - M_b* M_b`` with
# ``t = (w (1 - GRAM_SCREEN_GUARD))**2``, where ``w = v + rounding_allowance(v)``
# is what a draw must exceed to replace the incumbent value ``v``.
# Forming the Gram stack and factoring it are backward stable with errors of
# at most about ``m**2 u (t + ||M_b||**2)`` at order m (u the unit
# roundoff), and the SVD's sigma_max is within ``m u ||M_b||`` of the exact
# one; so a factorization that succeeds puts every SVD value below
# ``w (1 - GRAM_SCREEN_GUARD) (1 + O(m**2 u))``, which is below ``w`` while
# the guard is far above ``m**2 u``: 4.5e-13 at the m <= 64 cap of ocpmap.
# With EXACT_TOL = 1e-9, ten times the guard, ``sqrt(t)`` exceeds ``v`` by
# about ``9e-10 max(1, v)``, so a block whose draws only tie ``v`` skips.
GRAM_SCREEN_GUARD = 1e-10


def rank_cutoff(scale=1.0):
    """The rank rule ``RANK_TOL * max(1, scale)``: a singular value, eigenvalue
    or residual at most this counts as zero next to ``scale``.  Entrywise for
    an array; a scalar skips numpy's ufunc, which costs more than the rule."""
    if isinstance(scale, np.ndarray):
        return RANK_TOL * np.maximum(1.0, scale)
    return RANK_TOL * scale if scale > 1.0 else RANK_TOL


def rounding_allowance(scale=1.0):
    """The rounding rule ``EXACT_TOL * max(1, scale)``: by how much an identity
    between quantities of size ``scale`` may miss in floating point."""
    if isinstance(scale, np.ndarray):
        return EXACT_TOL * np.maximum(1.0, scale)
    return EXACT_TOL * scale if scale > 1.0 else EXACT_TOL


def psd_within(h: np.ndarray, shift: float) -> bool:
    """Whether the Hermitian ``h`` satisfies ``lambda_min(h) > -shift``, by a
    Cholesky factorization of ``h + shift * 1``; for a ``(B, n, n)`` stack,
    whether every matrix in it does, by one stacked factorization.

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


def operator_norm_at_most(d, t: float, scale=None) -> bool:
    """``operator_norm(d) <= t``, with an SVD only where cheaper bounds leave it open.

    ``||d||_F / sqrt(n) <= ||d||_2 <= ||d||_F``: a Frobenius norm at most
    ``t`` (times ``1 - FROBENIUS_GUARD``) decides yes, one above
    ``t sqrt(n)`` (times ``1 + FROBENIUS_GUARD``) decides no, and only a
    Frobenius norm inside that band costs one values-only SVD.  For callers
    that compare a norm with a threshold and never read the norm itself.

    With a matrix ``scale`` the threshold is ``t * max(1, ||scale||)``, and
    ``||scale||`` is computed only when ``||d|| > t``, the threshold at
    ``||scale|| <= 1``.
    """
    if scale is not None:
        return operator_norm_at_most(d, t) or operator_norm_at_most(
            d, t * max(1.0, operator_norm(scale))
        )
    a = as_square_matrix(d)
    fro = float(np.linalg.norm(a))
    if fro * (1.0 + FROBENIUS_GUARD) <= t:
        return True
    if fro * (1.0 - FROBENIUS_GUARD) > t * np.sqrt(a.shape[0]):
        return False
    return operator_norm(a) <= t


def operator_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix in a ``(B, n, n)`` stack.

    One stacked SVD: entry ``b`` equals ``operator_norm(stack[b])`` exactly.
    """
    a = _square_array(stack, 3, "matrix stack")
    return np.linalg.svd(a, compute_uv=False)[:, 0]


def linear_combination(coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """``sum_k coeffs[k] * mats[k]``, bit-equal to ``np.tensordot(coeffs, mats, 1)``.

    ``np.dot`` rather than matmul: for a one-matrix family matmul rounds
    apart from ``tensordot``.
    """
    return np.dot(coeffs, mats.reshape(len(mats), -1)).reshape(mats.shape[1:])


def stack_slices(count: int, dim: int) -> list:
    """Consecutive slices covering ``range(count)``, one per stacked block.

    A block of ``dim x dim`` matrices holds at most ``STACK_ENTRY_CAP``
    entries, and never fewer than one matrix.
    """
    step = max(1, STACK_ENTRY_CAP // (dim * dim))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _unsorted(lam):
    """``zgees`` select callback; never called, since no sort is asked for."""


def complex_schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schur pair ``(t, z)``, ``a = z t z*``, of a validated complex matrix.

    LAPACK ``zgees`` called directly with the optimal workspace it reports
    for ``a``: bit-equal to ``scipy.linalg.schur(a, output="complex")``
    without that wrapper's validation and dispatch, which cost as much as
    ``zgees`` itself at n <= 8.  A failed QR iteration (nonzero ``info``)
    raises :class:`SpectrumError`.
    """
    zgees = scipy.linalg.lapack.zgees
    lwork = int(zgees(_unsorted, a, lwork=-1)[-2][0].real)
    t, _, _, z, _, info = zgees(_unsorted, a, lwork=lwork)
    if info != 0:
        raise SpectrumError(f"Schur iteration failed (zgees info={info})")
    return t, z


def spectrum(x) -> np.ndarray:
    """Eigenvalues of ``x`` in nonincreasing modulus order.

    Computed from a unitary (complex Schur) triangularization; an iteration
    failure surfaces as :class:`SpectrumError` rather than silently.
    """
    t, _ = complex_schur(as_square_matrix(x))
    eigs = np.diag(t)
    return eigs[np.argsort(-np.abs(eigs), kind="stable")]


def spectral_radius(x) -> float:
    return float(np.abs(spectrum(x)[0]))


class Subspace:
    """A subspace of C^d stored as orthonormal rows.

    Rank and membership decisions read :func:`rank_cutoff`, at the largest
    singular value of the generators and at ``|v|``.  Below scale 1 the
    cutoff is absolute, so generators of norm at most ``rank_cutoff()`` span
    nothing; a caller for whom only the direction matters normalizes first.
    """

    def __init__(self, basis: np.ndarray, ambient_dim: int):
        self.basis = np.asarray(basis, dtype=complex).reshape(-1, ambient_dim)
        self.ambient_dim = int(ambient_dim)

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: int) -> "Subspace":
        arr = np.asarray(vectors, dtype=complex)
        if arr.size == 0:
            return cls(np.zeros((0, ambient_dim)), ambient_dim)
        arr = arr.reshape(len(arr), -1)
        if arr.shape[1] != ambient_dim:
            raise ValueError(
                f"generators live in dimension {arr.shape[1]}, ambient is {ambient_dim}"
            )
        _, s, vh = np.linalg.svd(arr, full_matrices=False)
        return cls(vh[s > rank_cutoff(s[0])], ambient_dim)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def project(self, v) -> np.ndarray:
        vec = np.asarray(v, dtype=complex).ravel()
        if vec.size != self.ambient_dim:
            raise ValueError(f"vector has dimension {vec.size}, ambient is {self.ambient_dim}")
        if self.dim == 0:
            return np.zeros_like(vec)
        return self.basis.T @ (self.basis.conj() @ vec)

    def residuals(self, rows) -> np.ndarray:
        """Euclidean distance of each row of a ``(m, ambient_dim)`` array to the subspace."""
        arr = np.asarray(rows, dtype=complex)
        if arr.ndim != 2 or arr.shape[1] != self.ambient_dim:
            raise ValueError(f"rows have shape {arr.shape}, ambient is {self.ambient_dim}")
        return np.linalg.norm(arr - (arr @ self.basis.conj().T) @ self.basis, axis=1)

    def residual(self, v) -> float:
        return float(self.residuals(np.asarray(v, dtype=complex).reshape(1, -1))[0])

    def membership(self, v) -> bool:
        vec = np.asarray(v, dtype=complex).ravel()
        return self.residual(vec) <= rank_cutoff(float(np.linalg.norm(vec)))


def matrix_span(matrices) -> Subspace:
    """Span of a family of equally-shaped matrices, flattened row-major."""
    mats = [as_square_matrix(m) for m in matrices]
    if not mats:
        raise ValueError("need at least one generator")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise ValueError(f"generator shapes differ: {m.shape} vs {(n, n)}")
    return Subspace.from_vectors([m.ravel() for m in mats], n * n)


def _json_float(v: float):
    """``v``, or the string ``"inf"``, ``"-inf"`` or ``"nan"`` if it is not finite."""
    return v if math.isfinite(v) else str(v)


def matrix_to_json(x) -> dict:
    """Serialize to ``{"dim": n, "entries": [[re, im], ...]}`` (row-major).

    A non-finite part is written as the string ``"inf"``, ``"-inf"`` or
    ``"nan"``, as :func:`to_jsonable` writes a scalar, so a failure record
    holding such a matrix is still strict JSON.
    """
    a = _square_array(x, 2, "matrix", finite=False)
    entries = [[_json_float(float(z.real)), _json_float(float(z.imag))] for z in a.ravel()]
    return {"dim": int(a.shape[0]), "entries": entries}


def matrix_from_json(payload: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_json` on finite matrices; rejects
    non-square payloads and non-finite entries."""
    try:
        dim = int(payload["dim"])
        flat = np.array(
            [complex(float(re), float(im)) for re, im in payload["entries"]], dtype=complex
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix payload: {exc}") from exc
    if dim < 0 or flat.size != dim * dim:
        raise ValueError(
            f"non-square payload: dim={dim} expects {dim * dim} entries, got {flat.size}"
        )
    return as_square_matrix(flat.reshape(dim, dim))


def to_jsonable(obj):
    """Plain JSON value of a report: the one wire rule for every record.

    A dataclass becomes the dict of its fields, a square 2-D array the
    :func:`matrix_to_json` form, any other array, list or tuple a list, a
    complex number ``[re, im]`` and a numpy scalar its Python value.  A
    non-finite float becomes the string ``"inf"``, ``"-inf"`` or ``"nan"``,
    which ``float()`` reads back, so the output is strict JSON.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.shape[0] == obj.shape[1]:
        return matrix_to_json(obj)
    if isinstance(obj, (np.ndarray, list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, complex):
        return [to_jsonable(obj.real), to_jsonable(obj.imag)]
    if isinstance(obj, float):
        return _json_float(obj)
    return obj
