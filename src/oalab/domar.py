"""Discretized radical weighted convolution algebra on the half line.

A *radical weight* is a continuous ``omega: [0, inf) -> (0, inf)`` with
``omega(0) = 1``, submultiplicative (``omega(s+t) <= omega(s) omega(t)``),
and ``omega(t)^(1/t)`` decreasing toward zero -- the model example is
``omega(t) = exp(-t^2)``.  Functions are represented on a uniform grid with
left-endpoint sampling and step ``h``; convolution is the Cauchy product
scaled by ``h``, which makes the discrete delta ``(1/h at index 0)`` an
*exact* identity, so approximate-identity behavior is purely a weight
effect.

The module provides the support functional :func:`alpha` (exactly additive
under convolution: the discrete counterpart of the Titchmarsh convolution
theorem), weighted L1 and L2 norms, iterated-convolution quasinilpotence
estimates with the closed-form root bound, the convexity / superlinearity /
square-integrability criterion for weights (its integral by an adaptive
7-15 Gauss-Kronrod rule in numpy), principal-ideal density solves
(one banded lower-triangular Toeplitz solve, LAPACK ``ztbtrs``), and
normalized-bump approximate identities.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .matcore import rank_cutoff, rounding_allowance

__all__ = [
    "RadicalWeight",
    "GridFunction",
    "WeightCriterionReport",
    "PrincipalDensityResult",
    "BumpCaiReport",
    "make_weight",
    "grid_indicator",
    "weighted_l1",
    "weighted_l2",
    "convolve",
    "alpha",
    "alpha_index",
    "quasinilpotence_estimate",
    "quasinilpotence_root_bound",
    "domar_criterion_check",
    "principal_density_check",
    "bump_cai_check",
]


def _require_finite_positive(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


# --------------------------------------------------------------------------
# weights

# Superlinearity exponent ``epsilon`` of the criterion check: a weight
# qualifies when ``eta(t)/t^(1+epsilon)`` grows along the tail, where
# ``eta = -log(omega)``.
SUPERLINEAR_EPSILON = 0.5


@dataclasses.dataclass(frozen=True)
class RadicalWeight:
    """A positive weight with sampled-verified radical-weight invariants.

    ``horizon`` bounds the interval on which the invariants were verified
    (and, for custom weights, the domain of validity).
    """

    kind: str
    horizon: float
    omega_fn: Callable[[np.ndarray], np.ndarray] = dataclasses.field(repr=False)

    def omega(self, t):
        arr = np.asarray(t, dtype=float)
        if np.any(arr < -1e-12):
            raise ValueError("omega is defined on [0, infinity)")
        if self.kind != "gaussian" and np.any(arr > self.horizon * (1 + 1e-12)):
            raise ValueError(
                f"t={float(np.max(arr)):.3g} beyond the verified horizon "
                f"{self.horizon:.3g} of a sampled weight"
            )
        value = self.omega_fn(np.maximum(arr, 0.0))
        return float(value) if np.isscalar(t) else np.asarray(value, dtype=float)

    def eta(self, t):
        return -np.log(self.omega(t))


def _verify_weight_invariants(w: RadicalWeight) -> None:
    ts = np.linspace(0.0, w.horizon, 1000)
    vals = w.omega(ts)
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        raise ValueError("weight must be positive and finite on [0, horizon]")
    if abs(w.omega(0.0) - 1.0) > rounding_allowance():
        raise ValueError(f"omega(0) must be 1, got {w.omega(0.0)!r}")
    # Submultiplicativity on a coarse pair grid; the first failing pair in
    # row-major (s, t) order is reported.
    coarse = np.linspace(0.0, w.horizon, 40)
    s, t = np.meshgrid(coarse, coarse, indexing="ij")
    inside = s + t <= w.horizon
    lhs = w.omega(np.where(inside, s + t, 0.0))
    rhs = w.omega(s) * w.omega(t)
    failing = np.argwhere(inside & (lhs > rhs + rounding_allowance(rhs)))
    if failing.size:
        i, j = failing[0]
        raise ValueError(
            f"submultiplicativity fails at s={coarse[i]:.3g}, t={coarse[j]:.3g}: "
            f"{lhs[i, j]:.6g} > {rhs[i, j]:.6g}"
        )
    # t-th roots must not increase along the horizon (constant is allowed;
    # the limit itself is not decidable from finitely many samples).
    tail = np.linspace(w.horizon / 100.0, w.horizon, 100)
    roots = w.omega(tail) ** (1.0 / tail)
    if np.any(np.diff(roots) > rounding_allowance()):
        raise ValueError("omega(t)^(1/t) increases along the horizon")


def make_weight(
    kind: str,
    omega: Optional[Callable] = None,
    horizon: float = 24.0,
) -> RadicalWeight:
    """Construct a verified weight.

    ``kind="gaussian"`` builds ``omega(t) = exp(-t^2)`` (``eta(t) = t^2``,
    so ``eta/t^1.5`` grows without bound).  ``kind="custom"`` takes
    any positive callable; the sampled invariants (positivity,
    ``omega(0)=1``, submultiplicativity, and non-increasing ``t``-th roots)
    are verified on ``[0, horizon]`` and a violation raises ``ValueError``,
    as does a ``horizon`` that is not finite and positive.
    """
    _require_finite_positive("horizon", horizon)
    if kind == "gaussian":
        if horizon > 27.0:
            raise ValueError("gaussian weight underflows beyond horizon 27")
        w = RadicalWeight(
            kind="gaussian",
            horizon=float(horizon),
            omega_fn=lambda t: np.exp(-np.square(t)),
        )
    elif kind == "custom":
        if omega is None:
            raise ValueError("custom weights need an omega callable")
        w = RadicalWeight(
            kind="custom",
            horizon=float(horizon),
            omega_fn=lambda t, fn=omega: np.asarray(fn(t), dtype=float),
        )
    else:
        raise ValueError(f"unknown weight kind: {kind!r}")
    _verify_weight_invariants(w)
    return w


# --------------------------------------------------------------------------
# grid functions


@dataclasses.dataclass(frozen=True)
class GridFunction:
    """A finitely supported function on the uniform grid ``t_k = k h``.

    ``coeffs[k]`` is the value at the left endpoint ``k h``; the function is
    treated as constant on each cell for quadrature purposes, so sums are
    scaled by ``h``.
    """

    h: float
    coeffs: np.ndarray

    def __post_init__(self):
        _require_finite_positive("grid step", self.h)
        arr = np.asarray(self.coeffs, dtype=complex).ravel()
        if arr.size == 0:
            raise ValueError("grid functions need at least one coefficient")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)

    @property
    def horizon(self) -> float:
        return self.h * len(self.coeffs)

    def times(self) -> np.ndarray:
        return self.h * np.arange(len(self.coeffs))


def grid_indicator(h: float, a: float, b: float) -> GridFunction:
    """Indicator of ``[a, b)`` sampled on the grid (left endpoints)."""
    _require_finite_positive("grid step", h)
    if not 0.0 <= a < b < math.inf:
        raise ValueError("need 0 <= a < b < inf")
    n = int(round(b / h))
    k0 = int(round(a / h))
    coeffs = np.zeros(max(n, k0 + 1), dtype=complex)
    coeffs[k0:n] = 1.0
    return GridFunction(h=h, coeffs=coeffs)


def weighted_l1(f: GridFunction, w: RadicalWeight) -> float:
    """``h * sum |f_k| omega(k h)``."""
    return float(f.h * np.sum(np.abs(f.coeffs) * w.omega(f.times())))


def weighted_l2(f: GridFunction, w: RadicalWeight) -> float:
    """``sqrt(h * sum |f_k omega(k h)|^2)``."""
    return float(
        np.sqrt(f.h * np.sum(np.square(np.abs(f.coeffs) * w.omega(f.times()))))
    )


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Discrete convolution ``(f*g)[m] = h sum_{j<=m} f[j] g[m-j]``.

    The output carries the full support (no truncation).  No weight enters:
    the weighted norms of the result are :func:`weighted_l1` and
    :func:`weighted_l2`.
    """
    if abs(f.h - g.h) > 1e-15:
        raise ValueError(f"grid steps differ: {f.h} vs {g.h}")
    return GridFunction(h=f.h, coeffs=f.h * np.convolve(f.coeffs, g.coeffs))


def alpha_index(f: GridFunction) -> int:
    """Index of the first coefficient above ``rank_cutoff() * max|f|``; -1 if none."""
    mags = np.abs(f.coeffs)
    top = float(mags.max())
    if top <= 0.0:
        return -1
    # The package's one relative cutoff, the rank rule on |f_k| / max|f|:
    # alpha must not change when f is scaled.
    above = np.nonzero(mags / top > rank_cutoff())[0]
    return int(above[0]) if above.size else -1


def alpha(f: GridFunction) -> float:
    """Infimum of the support: ``h * first-nonzero-index``; +inf for zero.

    The threshold is relative (``rank_cutoff() * max|f|``) so the value is
    invariant under scaling.
    """
    k = alpha_index(f)
    return math.inf if k < 0 else f.h * k


# --------------------------------------------------------------------------
# quasinilpotence


def quasinilpotence_estimate(f: GridFunction, w: RadicalWeight, n_max: int) -> list:
    """Weighted-norm roots ``||f^{*n}||_1^{1/n}`` for ``n = 1..n_max``.

    Requires ``alpha(f) > 0`` (the decay argument needs the support bounded
    away from zero) and the iterated support ``n_max * horizon(f)`` to stay
    within the weight's verified horizon.
    """
    if alpha(f) <= 0.0:
        raise ValueError("quasinilpotence estimates need alpha(f) > 0")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if n_max * f.horizon > w.horizon + 1e-9:
        raise ValueError(
            f"iterated support {n_max * f.horizon:.3g} exceeds the weight "
            f"horizon {w.horizon:.3g}"
        )
    roots = []
    power = f
    for n in range(1, n_max + 1):
        if n > 1:
            power = convolve(power, f)
        roots.append(weighted_l1(power, w) ** (1.0 / n))
    return roots


def quasinilpotence_root_bound(f: GridFunction, w: RadicalWeight, n: int) -> float:
    """n-th root of the closed-form bound on ``||f^{*n}||_1``.

    The iterated convolution is supported in ``[n a, n b]`` for ``f``
    supported in ``[a, b]``, giving
    ``||f^{*n}||_1 <= ||f||_1^n * max(omega on [na, nb]) / min(omega on [a, b])^n``
    where the plain-L1 factor uses the unweighted norm bound
    ``||f||_1 <= (weighted L1) / min(omega)``.
    """
    a = alpha(f)
    if a <= 0.0:
        raise ValueError("the bound requires alpha(f) > 0")
    if n < 1:
        raise ValueError("n must be positive")
    b = f.horizon
    grid_ab = np.linspace(a, b, 200)
    grid_nab = np.linspace(n * a, min(n * b, w.horizon), 200)
    min_ab = float(np.min(w.omega(grid_ab)))
    max_nab = float(np.max(w.omega(grid_nab)))
    plain_l1 = float(f.h * np.sum(np.abs(f.coeffs)))
    return plain_l1 * (max_nab ** (1.0 / n)) / min_ab


# --------------------------------------------------------------------------
# weight criterion


@dataclasses.dataclass(frozen=True)
class WeightCriterionReport:
    """Convexity, superlinear tail, and ratio-integral data for a weight.

    * ``eta_convex`` -- second differences of ``eta`` on a uniform grid stay
      above ``-rounding_allowance()``;
    * ``tail_superlinear`` -- ``eta(t)/t^(1+epsilon)`` is nondecreasing over
      the last quarter of the horizon, ``epsilon`` the module's
      ``SUPERLINEAR_EPSILON``;
    * ``ratio_integral`` -- quadrature of
      ``integral of (omega(x+t_probe)/omega(x))^2 dx`` over
      ``[0, horizon - t_probe]`` (the integrand is decreasing in ``x`` for
      convex ``eta``);
    * ``ratio_integral_error`` -- the adaptive Gauss-Kronrod rule's summed
      ``|K15 - G7|`` on that interval plus the integrand's value at the
      cutoff.  The cutoff term flags a slowly decaying tail (it is ``e^-2``
      for ``omega(t) = e^-t`` at ``t_probe = 1``); it is not a bound on the
      discarded tail.
    """

    eta_convex: bool
    tail_superlinear: bool
    t_probe: float
    ratio_integral: float
    ratio_integral_error: float


# QUADPACK dqk15 on [-1, 1]: the Kronrod nodes from 1 down to 0, then the
# Kronrod weights and the Gauss weights, 0 where a node is Kronrod-only (the
# 7-point Gauss-Legendre nodes are 0.949..., 0.741..., 0.405... and 0).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
)
# All 15 nodes in increasing order, and the (2, 15) Kronrod and Gauss weights.
_GK15_NODES = np.concatenate([np.negative(_XGK[:-1]), _XGK[::-1]])
_GK15_WEIGHTS = np.array([_WGK[:-1] + _WGK[::-1], _WG[:-1] + _WG[::-1]])
# The defaults of scipy's quad: epsabs = epsrel = 1.49e-8, at most 200 panels.
_GK_TOL = 1.49e-8
_GK_PANEL_LIMIT = 200


def _gauss_kronrod(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple:
    """``(value, error)`` of the integral of ``f`` over ``[a, b]`` by an
    adaptive 7-15 Gauss-Kronrod rule.

    Each round calls ``f`` once, on a 1-d array of the 15 nodes of every
    panel made in that round.  ``error`` is ``|K15 - G7|`` summed over the
    panels.  While it exceeds ``1.49e-8 max(1, |value|)``, the panels with
    the largest errors are bisected, as many as there are panels whose
    error is above their width's share of that tolerance (one at least),
    until there are 200 panels; at that cap the estimate is returned as it
    stands.
    """
    lo = hi = kronrod = error = np.zeros(0)
    new_lo, new_hi = np.array([a], dtype=float), np.array([b], dtype=float)
    while True:
        half = 0.5 * (new_hi - new_lo)
        nodes = (new_lo + half)[:, None] + half[:, None] * _GK15_NODES
        values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        k15, g7 = half * (_GK15_WEIGHTS @ values.T)
        lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
        kronrod = np.concatenate([kronrod, k15])
        error = np.concatenate([error, np.abs(k15 - g7)])
        value, total = float(np.sum(kronrod)), float(np.sum(error))
        target = _GK_TOL * max(1.0, abs(value))
        room = _GK_PANEL_LIMIT - lo.size
        if total <= target or room <= 0:
            return value, total
        over = np.count_nonzero(error * (b - a) > target * (hi - lo))
        pick = np.argsort(-error, kind="stable")[: min(room, max(over, 1))]
        mid = 0.5 * (lo[pick] + hi[pick])
        new_lo, new_hi = np.concatenate([lo[pick], mid]), np.concatenate([mid, hi[pick]])
        keep = np.ones(lo.size, dtype=bool)
        keep[pick] = False
        lo, hi, kronrod, error = lo[keep], hi[keep], kronrod[keep], error[keep]


def domar_criterion_check(w: RadicalWeight, t_probe: float) -> WeightCriterionReport:
    """Weight-criterion diagnostics on ``w``'s horizon; failures are entries, not errors.

    ``0 < t_probe < horizon``: at or beyond the horizon nothing would be measured.
    """
    horizon = w.horizon
    if not 0 < t_probe < horizon:
        raise ValueError(f"t_probe must lie in (0, {horizon:.3g}), got {t_probe}")
    ts = np.linspace(horizon / 400.0, horizon, 400)
    eta = w.eta(ts)
    eta_convex = bool(np.all(np.diff(eta, 2) >= -rounding_allowance()))

    ratio = eta / ts ** (1.0 + SUPERLINEAR_EPSILON)
    tail = ratio[3 * len(ratio) // 4 :]
    tail_superlinear = bool(np.all(np.diff(tail) >= -rounding_allowance()))

    upper = horizon - t_probe

    def integrand(x):
        return (w.omega(x + t_probe) / w.omega(x)) ** 2

    # Integrate over the verified horizon only: beyond it sampled weights
    # are undefined and analytic ones underflow.  The integrand's value at
    # the cutoff is added to the reported error, so that a tail that does
    # not decay shows; it flags such a tail and does not bound it.
    value, err = _gauss_kronrod(integrand, 0.0, upper)
    err += float(integrand(upper))
    return WeightCriterionReport(
        eta_convex=eta_convex,
        tail_superlinear=tail_superlinear,
        t_probe=float(t_probe),
        ratio_integral=float(value),
        ratio_integral_error=float(err),
    )


# --------------------------------------------------------------------------
# principal-ideal density


@dataclasses.dataclass(frozen=True)
class PrincipalDensityResult:
    """Triangular-solve witness that ``g`` lies in the ideal generated by ``f``.

    ``residual`` is the relative weighted-L2 error of ``f * u - g`` on the
    truncated grid of ``g``.
    """

    residual: float
    solution: GridFunction


# Most unknowns principal_density_check solves for.
PRINCIPAL_DENSITY_BUDGET = 10**6


def principal_density_check(
    t_f: GridFunction, g: GridFunction, w: RadicalWeight
) -> PrincipalDensityResult:
    """Solve ``t_f * u = g`` on the truncated grid by forward substitution.

    Requires ``alpha(g) > alpha(t_f)`` strictly (otherwise the support
    additivity forbids solutions).  With ``k0 = alpha_index(t_f)`` the
    system is lower-triangular Toeplitz, ``h t_f[k0 + d]`` on its ``d``-th
    subdiagonal, and its nonzero diagonal makes it exactly solvable on the
    grid.  LAPACK ``ztbtrs`` solves it from the band alone (no pivoting, so
    it is the forward substitution, in ``O(length x bandwidth)`` memory);
    the residual is at quadrature precision whenever the substitution is
    well conditioned.
    """
    import scipy.linalg
    if abs(t_f.h - g.h) > 1e-15:
        raise ValueError("grid steps differ")
    k0 = alpha_index(t_f)
    j0 = alpha_index(g)
    if k0 < 0:
        raise ValueError("t_f must be nonzero")
    if j0 >= 0 and g.h * j0 <= t_f.h * k0:
        raise ValueError("need alpha(g) > alpha(t_f) strictly")
    h = t_f.h
    length = len(g.coeffs) - k0
    if length > PRINCIPAL_DENSITY_BUDGET:
        raise ValueError(
            f"solution length {length} exceeds budget {PRINCIPAL_DENSITY_BUDGET}"
        )
    if length <= 0:
        u = GridFunction(h=h, coeffs=np.zeros(1, dtype=complex))
        return PrincipalDensityResult(residual=0.0, solution=u)
    fcoef = t_f.coeffs
    # Row d of the band is the d-th subdiagonal; those past the last row
    # of the system are never read, so the band stops there.
    band = np.repeat(h * fcoef[k0 : k0 + length, None], length, axis=1)
    u, info = scipy.linalg.lapack.ztbtrs(band, g.coeffs[k0:, None], uplo="L")
    if info != 0:
        raise ValueError(f"band solve failed (ztbtrs info={info})")
    solution = GridFunction(h=h, coeffs=u[:, 0])
    conv = convolve(t_f, solution)
    padded = np.zeros(len(g.coeffs), dtype=complex)
    take = min(len(conv.coeffs), len(g.coeffs))
    padded[:take] = conv.coeffs[:take]
    diff = GridFunction(h=h, coeffs=padded - g.coeffs)
    denom = max(weighted_l2(g, w), 1e-30)
    residual = weighted_l2(diff, w) / denom
    return PrincipalDensityResult(residual=residual, solution=solution)


# --------------------------------------------------------------------------
# bump approximate identity


@dataclasses.dataclass(frozen=True)
class BumpCaiReport:
    """Weighted-norm and probe-defect table for normalized bumps.

    One row per requested width ``eps``: the effective (grid-rounded)
    width, the weighted L1 norm of the bump (tends to 1 from below as the
    width shrinks, since ``omega <= 1`` near 0 with ``omega(0) = 1``), and
    ``||f_eps * p - p||_2`` for each probe ``p`` (tends to 0 until the
    width hits the grid-resolution floor at one cell).
    """

    rows: list


def bump_cai_check(
    eps_list: Sequence[float],
    w: RadicalWeight,
    probes: Sequence[GridFunction],
) -> BumpCaiReport:
    """Evaluate normalized bumps ``(1/eps) * indicator([0, eps])`` as identities.

    The bumps live on the probes' common grid step, so at least one probe
    is needed.
    """
    if not probes:
        raise ValueError("need at least one probe to fix the grid step")
    h = probes[0].h
    for p in probes:
        if abs(p.h - h) > 1e-15:
            raise ValueError("probes must share one grid step")
    rows = []
    for eps in eps_list:
        if eps <= 0:
            raise ValueError("widths must be positive")
        cells = max(1, int(round(eps / h)))
        eff = cells * h
        bump = GridFunction(h=h, coeffs=np.full(cells, 1.0 / eff, dtype=complex))
        defects = []
        for p in probes:
            conv = convolve(bump, p)
            padded = np.zeros(len(conv.coeffs), dtype=complex)
            padded[: len(p.coeffs)] = p.coeffs
            diff = GridFunction(h=h, coeffs=conv.coeffs - padded)
            defects.append(weighted_l2(diff, w))
        rows.append(
            {
                "eps": float(eps),
                "eps_effective": float(eff),
                "l1_norm": weighted_l1(bump, w),
                "probe_defects": [float(d) for d in defects],
            }
        )
    return BumpCaiReport(rows=rows)
