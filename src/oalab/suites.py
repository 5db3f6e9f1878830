"""Named verification suites with deterministic seeding and JSON reports.

Each suite packages one family of library invariants as a list of cases
``{"name", "status", "margin", "tol"}`` where ``margin`` is the remaining
headroom against ``tol`` (negative margin = failure).  Failing cases append
reproduction data -- the offending matrices and the draw seed -- to the
report's ``failures`` list, so every red result is replayable.  Runners
report observations to one recorder, ``_Run``, which alone decides margins,
statuses and failure records.  Outcomes are fully determined by ``(suite,
dim, trials, seed)``; ``wall_ms`` is the only field that varies between
identical runs.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Optional

import numpy as np

from . import domar
from .algebra import (
    ball_margins,
    ball_samples,
    block_diagonal_algebra,
    block_ideal_subspace,
    full_matrix_algebra,
    generated_algebra,
    ideal_identity,
    idempotent_witnesses,
    quotient_cone_lift,
    quotient_norm,
    ws_battery,
)
from .calculus import matrix_powers
from .examples import example_rdr, example_two_dim, volterra, volterra_norm
from .matcore import (
    ITER_TOL,
    CrossCheckError,
    linear_combination,
    matrix_span,
    matrix_to_json,
    operator_norm,
    operator_norm_at_most,
    rank_cutoff,
    rounding_allowance,
    spectral_radius,
    to_jsonable,
)
from .ocpmap import (
    dilation_bound,
    disk_test,
    matrix_map_from_kraus,
    ocp_falsify,
    stinespring,
    transpose_map,
)
from .sampling import (
    complex_normal,
    random_contraction,
    random_normal_singular_cone_element,
    random_span_element,
)
from .spectral import sharp_neumann
from .support import join_supports, support_projection, support_projection_routes

__all__ = [
    "SuiteConfig",
    "SuiteReport",
    "SUITE_NAMES",
    "run_suite",
]


@dataclasses.dataclass(frozen=True)
class SuiteConfig:
    """Configuration for one suite run; unset fields take suite defaults."""

    suite: str
    dim: Optional[int] = None
    trials: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.dim is not None and self.dim < 1:
            raise ValueError("dim must be positive")
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclasses.dataclass(frozen=True)
class SuiteReport:
    suite: str
    config: dict
    cases: list
    failures: list
    wall_ms: float

    @property
    def passed(self) -> bool:
        return all(case["status"] == "pass" for case in self.cases)


@dataclasses.dataclass
class _Run:
    """One suite run: its resolved inputs and the case recorder.

    Every observation folds into its case's worst margin (a NaN margin
    sticks, so it fails the case); cases keep the order of their first
    observation.  A failing observation calls its ``replay`` to build the
    failure record, so passing trials serialize nothing.
    """

    dim: int
    trials: int
    rng: np.random.Generator
    margins: dict = dataclasses.field(default_factory=dict)  # name -> [margin, tol]
    failures: list = dataclasses.field(default_factory=list)

    def case(self, name, margin, tol, replay=None) -> bool:
        """Fold ``margin`` into case ``name``; a negative or NaN margin fails it."""
        entry = self.margins.setdefault(name, [math.inf, tol])
        if not (math.isnan(entry[0]) or margin >= entry[0]):
            entry[0] = margin
        return self._record(name, not margin >= 0.0, replay)

    def bound(self, name, value, tol, replay=None) -> bool:
        """An observation that must stay at most ``tol``."""
        return self.case(name, tol - value, tol, replay)

    def count(self, name, bad, replay=None) -> bool:
        """Count-only case: each bad observation costs one unit of margin."""
        entry = self.margins.setdefault(name, [0.0, 0.0])
        if bad:
            entry[0] -= 1.0
        return self._record(name, bool(bad), replay)

    def _record(self, name, failed, replay) -> bool:
        if failed and replay is not None:
            self.fail(name, replay())
        return failed

    def fail(self, name, data) -> None:
        """Append a failure record, for one case or a group of cases."""
        self.failures.append({"case": name, "data": data})

    def cases(self) -> list:
        return [
            {
                "name": name,
                "status": "pass" if margin >= 0.0 else "fail",
                # +0.0 normalizes a negative zero margin.
                "margin": float(margin) + 0.0,
                "tol": float(tol),
            }
            for name, (margin, tol) in self.margins.items()
        ]


# --------------------------------------------------------------------------
# suite runners (each reports its observations to a _Run)

_ROOT_EXPONENTS = (0.5, 1.0 / 3.0, 0.25, 0.2)


def _suite_roots(run):
    for trial in range(run.trials):
        d = int(run.rng.integers(1, run.dim + 1))
        x = np.eye(d) + random_contraction(run.rng, d)
        eye = np.eye(d, dtype=complex)
        roots = matrix_powers(x, _ROOT_EXPONENTS)
        half_root = roots[_ROOT_EXPONENTS.index(0.5)]
        square_err = operator_norm(half_root @ half_root - x)
        run.bound("half-root-squares", square_err, 1e-6,
                  lambda: {"trial": trial, "x": matrix_to_json(x)})
        span = generated_algebra(x).span
        y_roots = matrix_powers(x / 2.0, _ROOT_EXPONENTS)
        for r, root, y_root in zip(_ROOT_EXPONENTS, roots, y_roots):
            vec = root.reshape(-1)
            member_res = span.residual(vec) / max(1.0, float(np.linalg.norm(vec)))
            if any([
                run.bound("roots-stay-in-cone", operator_norm(eye - root) - 1.0, 1e-8),
                run.bound("half-cone-roots-stay", operator_norm(eye - 2.0 * y_root) - 1.0, 1e-8),
                run.bound("roots-in-generated-span", member_res, 1e-8),
            ]):
                run.fail("root-bounds", {"trial": trial, "r": r, "x": matrix_to_json(x)})


def _suite_support_routes(run):
    # Reported even when every draw is skipped as zero.
    run.case("route-agreement", math.inf, 1e-6)
    for trial in range(run.trials):
        d = int(run.rng.integers(1, run.dim + 1))
        if trial % 2 == 0 and d > 1:
            x = random_normal_singular_cone_element(run.rng, d)
        else:
            x = np.eye(d) + random_contraction(run.rng, d)
        if operator_norm_at_most(x, rank_cutoff()):
            continue
        residuals = support_projection_routes(x)["residuals"]
        run.bound("route-agreement", max(residuals.values()), 1e-6,
                  lambda: {"trial": trial, "x": matrix_to_json(x), "residuals": residuals})


def _suite_support_join(run):
    for trial in range(run.trials):
        d = int(run.rng.integers(2, run.dim + 1))
        count = int(run.rng.integers(2, 5))
        family = [np.eye(d) + random_contraction(run.rng, d) for _ in range(count)]
        joined = join_supports(family)
        # Random positive coefficients: the support of the combination must
        # still be the join (positive combinations cannot cancel ranges).
        coeffs = run.rng.uniform(0.1, 2.0, size=count)
        combo = sum(c * x for c, x in zip(coeffs, family))
        p_combo = support_projection(combo)
        gap = max(float(joined["residual"]), operator_norm(p_combo - joined["join"]))
        run.bound("join-identity", gap, 1e-6, lambda: {
            "trial": trial,
            "coeffs": [float(c) for c in coeffs],
            "family": [matrix_to_json(x) for x in family],
        })


def _suite_sharp_neumann(run):
    for trial in range(run.trials):
        d = int(run.rng.integers(1, run.dim + 1))
        if trial % 2 == 0 and d > 1:
            t_mat = random_normal_singular_cone_element(run.rng, d)
            expect_singular = True
        else:
            t_mat = np.eye(d) + random_contraction(run.rng, d, radius=0.9)
            expect_singular = False
        result = sharp_neumann(t_mat)  # raises CrossCheckError on clash
        run.count("classifier-vs-rank-oracle", result.singular != expect_singular,
                  lambda: {"trial": trial, "t": matrix_to_json(t_mat)})


def _suite_closure_battery(run):
    cap = min(run.dim, 6)
    for trial in range(run.trials):
        d = int(run.rng.integers(2, cap + 1))
        x = np.eye(d) + random_contraction(run.rng, d)
        report = ws_battery(x)
        run.count("random-consistency", not report.consistent,
                  lambda: {"trial": trial, "x": matrix_to_json(x), "report": to_jsonable(report)})

    # Nilpotent (+) invertible family: isolated spectral origin without a
    # relative inverse in the generated (non-semisimple) algebra.
    for nil_dim in (2, 3):
        shift = np.zeros((nil_dim, nil_dim), dtype=complex)
        for k in range(nil_dim - 1):
            shift[k, k + 1] = 1.0
        for inv_dim in (1, 2):
            x = np.zeros((nil_dim + inv_dim,) * 2, dtype=complex)
            x[:nil_dim, :nil_dim] = shift
            x[nil_dim:, nil_dim:] = 2.0 * np.eye(inv_dim)
            report = ws_battery(x, require_cone=False)
            ok = (
                report.conditions["vii"]
                and not report.conditions["vi"]
                and not report.semisimple
                and report.consistent
            )
            run.count("gap-without-inverse-family", not ok,
                      lambda: {"nil_dim": nil_dim, "inv_dim": inv_dim, "report": to_jsonable(report)})


def _suite_nonunital_battery(run):
    # The two reference algebras fix their own dimensions.  A sample passes
    # when all five ball conditions hold (margins above the rounding
    # allowance); one that breaks any, or an idempotent witness, reads -1.
    algebra = example_two_dim()
    draws = np.random.default_rng(int(run.rng.integers(0, 2**31)))
    samples = ball_samples(draws, algebra, run.trials)
    if not samples:
        run.case("two-dim-margins", -math.inf, 1e-3, lambda: {"samples": 0})
    for trial, a in enumerate(samples):
        margins = ball_margins(a, algebra.unit)
        held = all(m > rounding_allowance() for m in margins.values())
        run.case("two-dim-margins", min(margins.values()) - 1e-3 if held else -1.0, 1e-3,
                 lambda: {"trial": trial, "a": matrix_to_json(a), "margins": margins})
    for b in idempotent_witnesses(algebra):
        run.case("two-dim-margins", -1.0, 1e-3, lambda: {"witness": matrix_to_json(b)})

    # Negative control: the full matrix algebra must fail, with an explicit
    # idempotent witness (E11 fails every ball condition).
    m2 = full_matrix_algebra(2)
    run.count("full-matrix-control", not idempotent_witnesses(m2),
              lambda: {"basis": to_jsonable(m2.basis)})


def _suite_projection_truncation(run):
    for n in range(2, 9):
        ex = example_rdr(n)
        value = ex.min_commutator
        run.case("min-commutator", value - 1e-6, 1e-6, lambda: {"n": n, "value": value})


def _suite_volterra(run):
    dim = run.dim
    # The spectral radius is exactly 1/(2n); gate on the distance to it.
    rho = spectral_radius(volterra(100))
    run.bound("spectral-radius-100", abs(rho - 0.005), rounding_allowance(), lambda: {"rho": rho})
    norm = volterra_norm(dim)
    exact = 1.0 / (2.0 * dim * math.tan(math.pi / (4.0 * dim)))
    if abs(norm - exact) > 1e-12 * exact:
        raise CrossCheckError(
            f"matrix-free ||V_{dim}|| = {norm!r} is off the closed form {exact!r}"
        )
    err = abs(norm - 2.0 / math.pi)
    run.bound("norm-limit", err, 1e-3, lambda: {"size": dim, "error": err})


# Grid step of the functions the domar-titchmarsh suite draws.
_TITCHMARSH_STEP = 0.05


def _titchmarsh_draw(rng: np.random.Generator) -> domar.GridFunction:
    """A grid function with a random offset and a leading coefficient of
    modulus in ``[0.5, 1.5]``, which the relative support threshold of
    :func:`~oalab.domar.alpha_index` cannot misclassify."""
    offset = int(rng.integers(0, 30))
    length = int(rng.integers(1, 25))
    body = complex_normal(rng, length)
    body[0] = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
    coeffs = np.concatenate([np.zeros(offset, dtype=complex), body])
    return domar.GridFunction(h=_TITCHMARSH_STEP, coeffs=coeffs)


def _suite_domar_titchmarsh(run):
    # alpha(f*g) = alpha(f) + alpha(g) on grid indices, so exactly: the
    # leading coefficient of f*g is h f[k_f] g[k_g], a product of two
    # nonzero numbers, and convolve keeps the full support.
    draws = np.random.default_rng(int(run.rng.integers(0, 2**31)))
    for trial in range(run.trials):
        f = _titchmarsh_draw(draws)
        g = _titchmarsh_draw(draws)
        expected = domar.alpha_index(f) + domar.alpha_index(g)
        got = domar.alpha_index(domar.convolve(f, g))
        run.count("support-additivity", got != expected, lambda: {
            "trial": trial, "expected_index": expected, "got_index": got,
            "f": to_jsonable(f), "g": to_jsonable(g),
        })


def _suite_domar_criterion(run):
    w = domar.make_weight("gaussian")
    report = domar.domar_criterion_check(w, 1.0)
    closed = math.exp(-2.0) / 4.0
    if any([
        run.bound("gaussian-ratio-integral", abs(report.ratio_integral - closed), 1e-6),
        run.count("gaussian-shape", not (report.eta_convex and report.tail_superlinear)),
    ]):
        run.fail("gaussian-criterion", to_jsonable(report))
    exp_weight = domar.make_weight(
        "custom", omega=lambda t: np.exp(-np.asarray(t)), horizon=24.0
    )
    exp_report = domar.domar_criterion_check(exp_weight, 1.0)
    # Negative control: eta(t) = t is convex but not superlinear.
    control_ok = exp_report.eta_convex and not exp_report.tail_superlinear
    run.count("exponential-control", not control_ok, lambda: to_jsonable(exp_report))


def _suite_domar_quasinilpotence(run):
    w = domar.make_weight("gaussian")
    f = domar.grid_indicator(0.05, 1.0, 2.0)
    roots = domar.quasinilpotence_estimate(f, w, 8)
    decrease = min(roots[n] - roots[n + 1] for n in range(1, 7))
    bound_margin = min(
        domar.quasinilpotence_root_bound(f, w, n + 1) - roots[n]
        for n in range(8)
    )
    if any([
        run.case("roots-decrease", decrease, 0.0),
        run.case("roots-below-bound", bound_margin, 0.0),
    ]):
        run.fail("root-decay", {"roots": [float(r) for r in roots]})


def _suite_domar_bump(run):
    w = domar.make_weight("gaussian")
    probe = domar.grid_indicator(0.01, 1.0, 2.0)
    report = domar.bump_cai_check([0.4, 0.2, 0.1], w, [probe])
    masses = [row["l1_norm"] for row in report.rows]
    margin_mass = min(masses[2] - 0.99, 1.0 - masses[2])
    defects = [row["probe_defects"][0] for row in report.rows]
    margin_defect = min(defects[i] - defects[i + 1] for i in range(2))
    if any([
        run.case("narrow-bump-mass", margin_mass, 0.01),
        run.case("probe-defect-decreases", margin_defect, 0.0),
    ]):
        run.fail("bump-identity", to_jsonable(report))


def _suite_domar_density(run):
    w = domar.make_weight("gaussian")
    rng = run.rng
    for trial in range(run.trials):
        h = 0.02
        a_t, len_t = int(rng.integers(5, 15)), int(rng.integers(3, 10))
        tc = np.zeros(a_t + len_t, dtype=complex)
        # Keep the forward substitution contractive: the trailing mass must
        # stay below the leading coefficient or the solve conditioning
        # degrades geometrically with the length of g.
        tc[a_t:] = 0.05 * complex_normal(rng, len_t)
        tc[a_t] = 1.0 + 0.5 * rng.uniform()
        a_g, len_g = a_t + int(rng.integers(1, 10)), int(rng.integers(5, 40))
        gc = np.zeros(a_g + len_g, dtype=complex)
        gc[a_g:] = complex_normal(rng, len_g)
        t_f = domar.GridFunction(h=h, coeffs=tc)
        g = domar.GridFunction(h=h, coeffs=gc)
        result = domar.principal_density_check(t_f, g, w)
        run.bound("triangular-solve", result.residual, 1e-8, lambda: {
            "trial": trial, "t_f": to_jsonable(t_f), "g": to_jsonable(g), "residual": result.residual
        })


def _random_cp_map(rng: np.random.Generator):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    count = int(rng.integers(1, 4))
    return matrix_map_from_kraus([complex_normal(rng, (m, n)) for _ in range(count)])


_TRANSPOSE_BOUNDS = (1.0, 2.0, 5.0)
# Falsifier budget per level for each CP map: 10^3 evaluations in all, a
# soundness check on the dilation certificate rather than the evidence.
_CP_BUDGETS = ((1, 200), (2, 300), (3, 500))


def _ocp_falsify_draws(rng: np.random.Generator, trials: int):
    """The ocp-falsify suite's inputs, in draw order.

    One falsifier seed per transpose bound, then per trial a random CP map,
    its natural bound ``c = ||T(1)||`` and a falsifier seed.
    """
    seeds = [int(rng.integers(0, 2**31)) for _ in _TRANSPOSE_BOUNDS]
    cp_draws = []
    for _ in range(trials):
        cp_map = _random_cp_map(rng)
        c = max(operator_norm(cp_map.apply(np.eye(cp_map.in_dim))), 1e-6)
        cp_draws.append((cp_map, c, int(rng.integers(0, 2**31))))
    return seeds, cp_draws


def _suite_ocp_falsify(run):
    seeds, cp_draws = _ocp_falsify_draws(run.rng, run.trials)
    t = transpose_map(2)
    for c, seed in zip(_TRANSPOSE_BOUNDS, seeds):
        witness = ocp_falsify(t, c, k=2, budget=200, seed=seed)
        err = np.inf if witness is None else abs(witness["margin"] - 1.0)
        run.bound("transpose-witness", err, 1e-9, lambda: {"bound": c, "witness": witness})

    # Completely positive maps obey ||c 1 - T_k(x)|| <= c = ||T(1)|| on the
    # cone at every level: the Stinespring dilation proves it up to rounding,
    # and the margin is ITER_TOL minus that excess.  The falsifier still runs
    # at levels 1..3; a witness contradicts the certificate and fails the case.
    for trial, (cp_map, c, seed) in enumerate(cp_draws):
        excess = dilation_bound(cp_map, c) - c
        witnesses = [
            ocp_falsify(cp_map, c, k=k, budget=share, seed=seed)
            for k, share in _CP_BUDGETS
        ]
        found = any(w is not None for w in witnesses)
        run.bound("cp-no-witness", math.inf if found else excess, ITER_TOL, lambda: {
            "trial": trial, "map": to_jsonable(cp_map), "excess": excess, "witnesses": witnesses
        })


def _suite_stinespring(run):
    for trial in range(run.trials):
        cp_map = _random_cp_map(run.rng)
        triple = stinespring(cp_map)
        vnorm2 = operator_norm(triple.v.conj().T @ triple.v)
        t_one = operator_norm(cp_map.apply(np.eye(cp_map.in_dim)))
        if any([
            run.bound("choi-residual", triple.residual, 1e-10),
            run.bound("dilation-norm", abs(vnorm2 - t_one), 1e-9),
        ]):
            run.fail("factorization", {"trial": trial, "map": to_jsonable(cp_map)})


def _suite_disk_test(run):
    for trial in range(run.trials):
        d = int(run.rng.integers(1, run.dim + 1))
        z = complex_normal(run.rng, (d, d))
        kind = trial % 3
        if kind == 0:
            x = z @ z.conj().T
            x = x / (operator_norm(x) * (1.0 + run.rng.uniform()))
        elif kind == 1:
            x = (z + z.conj().T) / 2.0
        else:
            x = z / max(operator_norm(z), 1e-30)
        report = disk_test(x, circle_points=150)
        run.count("disk-vs-psd-oracle", report.member != report.hermitian_psd,
                  lambda: {"trial": trial, "x": matrix_to_json(x)})


def _ball_element(rng: np.random.Generator, algebra) -> np.ndarray:
    c = random_span_element(rng, algebra.basis, 1.0)
    return np.zeros_like(algebra.unit) if c is None else c


def _suite_quotient_cone(run):
    rng = run.rng
    for trial in range(run.trials):
        while True:
            blocks = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(2, 4)))]
            if sum(blocks) <= run.dim:
                break
        ideal_count = int(rng.integers(1, len(blocks)))
        ideal_blocks = list(rng.choice(len(blocks), size=ideal_count, replace=False))
        algebra = block_diagonal_algebra(blocks)
        ideal = block_ideal_subspace(blocks, ideal_blocks)
        e = ideal_identity(algebra, ideal)
        unit, comp = algebra.unit, algebra.unit - e
        j_mats = ideal.basis.reshape(ideal.dim, *unit.shape)
        draws = np.random.default_rng(int(rng.integers(0, 2**31)))
        where = {"trial": trial, "blocks": blocks, "ideal_blocks": [int(b) for b in ideal_blocks]}
        # Each sample is an excess over the cone, read as 0 inside it; an
        # INCONCLUSIVE quotient norm reads 1.
        for _ in range(8):
            # Forward: the coset of a cone element lies in the quotient cone.
            x = unit - _ball_element(draws, algebra)
            qn = quotient_norm(unit - x, ideal)
            excess = max(qn.value - 1.0, 0.0 if qn.status == "CERTIFIED" else 1.0)
            run.bound("block-inclusions", excess, 1e-6, lambda: {
                **where, "x": matrix_to_json(x), "status": qn.status, "quotient_norm": qn.value,
            })
            # Backward: a representative with a wild ideal part, whose coset
            # lies in the quotient cone, lifts into the cone within its coset.
            rep = comp @ (unit - _ball_element(draws, algebra)) @ comp + linear_combination(
                complex_normal(draws, ideal.dim), j_mats
            )
            qn = quotient_norm(unit - rep, ideal)
            if qn.status != "CERTIFIED":
                excess = 1.0
            elif qn.value <= 1.0 + ITER_TOL:
                excess = max(quotient_cone_lift(algebra, ideal, e, rep))
            else:
                continue
            run.bound("block-inclusions", excess, 1e-6, lambda: {
                **where, "rep": matrix_to_json(rep), "status": qn.status, "quotient_norm": qn.value,
            })

    # Closed-form control: quotient of upper-triangular 2x2 matrices by the
    # strictly-upper ideal has norm max(|a11|, |a22|).
    for _ in range(10):
        a = np.triu(complex_normal(rng, (2, 2)))
        ideal = matrix_span([np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)])
        result = quotient_norm(a, ideal)
        expected = max(abs(a[0, 0]), abs(a[1, 1]))
        gap = max(result.gap, abs(result.value - expected))
        if result.status != "CERTIFIED":
            gap = np.inf
        run.bound("closed-form-gap", gap, 1e-6,
                  lambda: {"a": matrix_to_json(a), "status": result.status})


# suite -> (runner, default dim, default trials, smallest dim the runner accepts)
_REGISTRY: dict = {
    "roots": (_suite_roots, 8, 200, 1),
    "support-routes": (_suite_support_routes, 8, 200, 1),
    "support-join": (_suite_support_join, 6, 100, 2),
    "sharp-neumann": (_suite_sharp_neumann, 6, 500, 1),
    "closure-battery": (_suite_closure_battery, 6, 200, 2),
    "nonunital-battery": (_suite_nonunital_battery, 2, 500, 1),
    "projection-truncation": (_suite_projection_truncation, 8, 1, 1),
    "volterra": (_suite_volterra, 2000, 1, 2),
    "domar-titchmarsh": (_suite_domar_titchmarsh, 1, 500, 1),
    "domar-criterion": (_suite_domar_criterion, 1, 1, 1),
    "domar-quasinilpotence": (_suite_domar_quasinilpotence, 1, 1, 1),
    "domar-bump": (_suite_domar_bump, 1, 1, 1),
    "domar-density": (_suite_domar_density, 1, 20, 1),
    "ocp-falsify": (_suite_ocp_falsify, 1, 50, 1),
    "stinespring": (_suite_stinespring, 1, 50, 1),
    "disk-test": (_suite_disk_test, 4, 500, 2),
    "quotient-cone": (_suite_quotient_cone, 6, 50, 3),
}

SUITE_NAMES = tuple(sorted(_REGISTRY))


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Execute a registered suite; deterministic given (suite, dim, trials, seed)."""
    if cfg.suite not in _REGISTRY:
        raise KeyError(
            f"unknown suite {cfg.suite!r}; registered: {', '.join(SUITE_NAMES)}"
        )
    runner, default_dim, default_trials, min_dim = _REGISTRY[cfg.suite]
    dim = cfg.dim if cfg.dim is not None else default_dim
    if dim < min_dim:
        raise ValueError(f"suite {cfg.suite!r} needs dim >= {min_dim}, got {dim}")
    trials = cfg.trials if cfg.trials is not None else default_trials
    run = _Run(dim, trials, np.random.default_rng(cfg.seed))
    start = time.perf_counter()
    runner(run)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return SuiteReport(
        suite=cfg.suite,
        config={
            "dim": int(dim),
            "trials": int(trials),
            "seed": int(cfg.seed),
        },
        cases=run.cases(),
        failures=run.failures,
        wall_ms=wall_ms,
    )
