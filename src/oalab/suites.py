"""Named verification suites with deterministic seeding and JSON reports.

Each suite packages one family of library invariants as a list of cases
``{"name", "status", "margin", "tol"}`` where ``margin`` is the remaining
headroom against ``tol`` (negative margin = failure).  Failing cases append
reproduction data -- the offending matrices and the draw seed -- to the
report's ``failures`` list, so every red result is replayable.  Outcomes
are fully determined by ``(suite, dim, trials, seed)``; ``wall_ms`` is the
only field that varies between identical runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from typing import Optional

import numpy as np

from . import domar
from .algebra import (
    block_diagonal_algebra,
    block_ideal_subspace,
    full_matrix_algebra,
    generated_algebra,
    nor_battery,
    quotient_cone_check,
    quotient_norm,
    ws_battery,
)
from .calculus import matrix_power_r
from .examples import example_rdr, example_two_dim, volterra, volterra_norm
from .matcore import (
    DEFAULT_TOL,
    CrossCheckError,
    JsonReport,
    Tolerances,
    matrix_span,
    matrix_to_json,
    operator_norm,
    spectral_radius,
    to_jsonable,
)
from .ocpmap import (
    disk_test,
    matrix_map_from_kraus,
    ocp_falsify,
    stinespring,
    transpose_map,
)
from .sampling import complex_normal, random_contraction, random_normal_singular_cone_element
from .spectral import sharp_neumann
from .support import join_supports, support_projection, support_projection_routes

__all__ = [
    "SuiteConfig",
    "SuiteReport",
    "SUITE_NAMES",
    "run_suite",
    "emit_report",
]


@dataclasses.dataclass(frozen=True)
class SuiteConfig:
    """Configuration for one suite run; unset fields take suite defaults."""

    suite: str
    dim: Optional[int] = None
    trials: Optional[int] = None
    seed: int = 0
    tol: Tolerances = DEFAULT_TOL
    out: Optional[str] = None

    def __post_init__(self):
        if self.dim is not None and self.dim < 1:
            raise ValueError("dim must be positive")
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be positive")


@dataclasses.dataclass(frozen=True)
class SuiteReport(JsonReport):
    suite: str
    config: dict
    cases: list
    failures: list
    wall_ms: float

    @property
    def passed(self) -> bool:
        return all(case["status"] == "pass" for case in self.cases)


def _case(name: str, margin: float, tol: float) -> dict:
    return {
        "name": name,
        "status": "pass" if margin >= 0.0 else "fail",
        # +0.0 normalizes the negative zero produced by count-based margins.
        "margin": float(margin) + 0.0,
        "tol": float(tol),
    }


# --------------------------------------------------------------------------
# suite runners (each: cfg-resolved dim/trials, rng, tol -> cases, failures)

_ROOT_EXPONENTS = (0.5, 1.0 / 3.0, 0.25, 0.2)


def _suite_roots(dim, trials, rng, tol):
    worst_square = -np.inf
    worst_cone = -np.inf
    worst_half = -np.inf
    worst_member = -np.inf
    failures = []
    for trial in range(trials):
        d = int(rng.integers(1, dim + 1))
        x = np.eye(d) + random_contraction(rng, d)
        eye = np.eye(d, dtype=complex)
        half_root = matrix_power_r(x, 0.5, tol)
        square_err = operator_norm(half_root @ half_root - x)
        worst_square = max(worst_square, square_err)
        if square_err > 1e-6:
            failures.append(
                {"case": "half-root-squares", "data": {"trial": trial, "x": matrix_to_json(x)}}
            )
        span = generated_algebra(x, tol).span
        y = x / 2.0
        for r in _ROOT_EXPONENTS:
            root = matrix_power_r(x, r, tol)
            cone_excess = operator_norm(eye - root) - 1.0
            worst_cone = max(worst_cone, cone_excess)
            half_excess = operator_norm(eye - 2.0 * matrix_power_r(y, r, tol)) - 1.0
            worst_half = max(worst_half, half_excess)
            vec = root.reshape(-1)
            member_res = span.residual(vec) / max(1.0, float(np.linalg.norm(vec)))
            worst_member = max(worst_member, member_res)
            if max(cone_excess, half_excess) > 1e-8 or member_res > 1e-8:
                failures.append(
                    {
                        "case": "root-bounds",
                        "data": {"trial": trial, "r": r, "x": matrix_to_json(x)},
                    }
                )
    cases = [
        _case("half-root-squares", 1e-6 - worst_square, 1e-6),
        _case("roots-stay-in-cone", 1e-8 - worst_cone, 1e-8),
        _case("half-cone-roots-stay", 1e-8 - worst_half, 1e-8),
        _case("roots-in-generated-span", 1e-8 - worst_member, 1e-8),
    ]
    return cases, failures


def _suite_support_routes(dim, trials, rng, tol):
    worst = -np.inf
    failures = []
    for trial in range(trials):
        d = int(rng.integers(1, dim + 1))
        if trial % 2 == 0 and d > 1:
            x = random_normal_singular_cone_element(rng, d)
        else:
            x = np.eye(d) + random_contraction(rng, d)
        if operator_norm(x) <= tol.rank_tol:
            continue
        routes = support_projection_routes(x, tol)
        gap = max(routes["residuals"].values())
        worst = max(worst, gap)
        if gap > 1e-6:
            failures.append(
                {
                    "case": "route-agreement",
                    "data": {"trial": trial, "x": matrix_to_json(x), "residuals": routes["residuals"]},
                }
            )
    return [_case("route-agreement", 1e-6 - worst, 1e-6)], failures


def _suite_support_join(dim, trials, rng, tol):
    worst = -np.inf
    failures = []
    for trial in range(trials):
        d = int(rng.integers(2, dim + 1))
        count = int(rng.integers(2, 5))
        family = [np.eye(d) + random_contraction(rng, d) for _ in range(count)]
        joined = join_supports(family, tol)
        # Random positive coefficients: the support of the combination must
        # still be the join (positive combinations cannot cancel ranges).
        coeffs = rng.uniform(0.1, 2.0, size=count)
        combo = sum(c * x for c, x in zip(coeffs, family))
        p_combo = support_projection(combo, tol).projection
        gap = max(
            float(joined["residual"]),
            operator_norm(p_combo - joined["join"]),
        )
        worst = max(worst, gap)
        if gap > 1e-6:
            failures.append(
                {
                    "case": "join-identity",
                    "data": {
                        "trial": trial,
                        "coeffs": [float(c) for c in coeffs],
                        "family": [matrix_to_json(x) for x in family],
                    },
                }
            )
    return [_case("join-identity", 1e-6 - worst, 1e-6)], failures


def _suite_sharp_neumann(dim, trials, rng, tol):
    disagreements = 0
    failures = []
    for trial in range(trials):
        d = int(rng.integers(1, dim + 1))
        if trial % 2 == 0 and d > 1:
            t_mat = random_normal_singular_cone_element(rng, d)
            expect_singular = True
        else:
            t_mat = np.eye(d) + random_contraction(rng, d, radius=0.9)
            expect_singular = False
        result = sharp_neumann(t_mat, tol)  # raises CrossCheckError on clash
        if result.singular != expect_singular:
            disagreements += 1
            failures.append(
                {
                    "case": "classifier-vs-rank-oracle",
                    "data": {"trial": trial, "t": matrix_to_json(t_mat)},
                }
            )
    return [_case("classifier-vs-rank-oracle", -float(disagreements), 0.0)], failures


def _suite_closure_battery(dim, trials, rng, tol):
    inconsistent = 0
    failures = []
    cap = min(dim, 6)
    for trial in range(trials):
        d = int(rng.integers(2, cap + 1))
        x = np.eye(d) + random_contraction(rng, d)
        report = ws_battery(x, generated_algebra(x, tol), tol)
        if not report.consistent:
            inconsistent += 1
            failures.append(
                {
                    "case": "random-consistency",
                    "data": {"trial": trial, "x": matrix_to_json(x), "report": to_jsonable(report)},
                }
            )
    cases = [_case("random-consistency", -float(inconsistent), 0.0)]

    # Nilpotent (+) invertible family: isolated spectral origin without a
    # relative inverse in the generated (non-semisimple) algebra.
    family_bad = 0
    for nil_dim in (2, 3):
        shift = np.zeros((nil_dim, nil_dim), dtype=complex)
        for k in range(nil_dim - 1):
            shift[k, k + 1] = 1.0
        for inv_dim in (1, 2):
            x = np.zeros((nil_dim + inv_dim,) * 2, dtype=complex)
            x[:nil_dim, :nil_dim] = shift
            x[nil_dim:, nil_dim:] = 2.0 * np.eye(inv_dim)
            report = ws_battery(x, generated_algebra(x, tol), tol, require_cone=False)
            ok = (
                report.conditions["vii"]
                and not report.conditions["vi"]
                and not report.semisimple
                and report.consistent
            )
            if not ok:
                family_bad += 1
                failures.append(
                    {
                        "case": "gap-without-inverse-family",
                        "data": {"nil_dim": nil_dim, "inv_dim": inv_dim, "report": to_jsonable(report)},
                    }
                )
    cases.append(_case("gap-without-inverse-family", -float(family_bad), 0.0))
    return cases, failures


def _suite_nonunital_battery(dim, trials, rng, tol):
    del dim  # the two reference algebras fix their own dimensions
    failures = []
    seed = int(rng.integers(0, 2**31))
    report = nor_battery(
        example_two_dim(tol), trials, seed=seed, tol=tol, rejection_margin=0.1
    )
    worst = min(report.worst_margins().values()) if not report.vacuous else -np.inf
    margin = worst - 1e-3 if report.all_pass else -1.0
    if margin < 0:
        failures.append(
            {"case": "two-dim-margins", "data": to_jsonable(report)}
        )
    cases = [_case("two-dim-margins", margin, 1e-3)]

    m2 = nor_battery(
        full_matrix_algebra(2),
        max(trials // 5, 20),
        seed=seed + 1,
        tol=tol,
        rejection_margin=0.1,
    )
    # Negative control: the full matrix algebra must fail, with an explicit
    # idempotent witness recorded.
    control_ok = (not m2.all_pass) and bool(m2.idempotent_witnesses)
    if not control_ok:
        failures.append(
            {"case": "full-matrix-control", "data": to_jsonable(m2)}
        )
    cases.append(_case("full-matrix-control", 0.0 if control_ok else -1.0, 0.0))
    return cases, failures


def _suite_projection_truncation(dim, trials, rng, tol):
    del dim, trials, rng, tol
    worst = np.inf
    failures = []
    for n in range(2, 9):
        ex = example_rdr(n)
        worst = min(worst, ex.min_commutator)
        if ex.min_commutator <= 1e-6:
            failures.append(
                {"case": "min-commutator", "data": {"n": n, "value": ex.min_commutator}}
            )
    return [_case("min-commutator", worst - 1e-6, 1e-6)], failures


def _suite_volterra(dim, trials, rng, tol):
    del trials, rng
    failures = []
    # The spectral radius is exactly 1/(2n); gate on the distance to it.
    rho = spectral_radius(volterra(100))
    margin_rho = tol.exact_tol - abs(rho - 0.005)
    if margin_rho < 0:
        failures.append({"case": "spectral-radius-100", "data": {"rho": rho}})
    norm = volterra_norm(dim)
    exact = 1.0 / (2.0 * dim * math.tan(math.pi / (4.0 * dim)))
    if abs(norm - exact) > 1e-12 * exact:
        raise CrossCheckError(
            f"Lanczos ||V_{dim}|| = {norm!r} is off the closed form {exact!r}"
        )
    err = abs(norm - 2.0 / math.pi)
    margin_norm = 1e-3 - err
    if margin_norm < 0:
        failures.append({"case": "norm-limit", "data": {"size": dim, "error": err}})
    return (
        [
            _case("spectral-radius-100", margin_rho, tol.exact_tol),
            _case("norm-limit", margin_norm, 1e-3),
        ],
        failures,
    )


def _suite_domar_titchmarsh(dim, trials, rng, tol):
    del dim
    seed = int(rng.integers(0, 2**31))
    report = domar.titchmarsh_check(trials, seed=seed, tol=tol)
    failures = [
        {"case": "support-additivity", "data": f} for f in report.failures
    ]
    mismatches = report.trials - report.exact_matches
    return [_case("support-additivity", -float(mismatches), 0.0)], failures


def _suite_domar_criterion(dim, trials, rng, tol):
    del dim, trials, rng
    failures = []
    w = domar.make_weight("gaussian")
    report = domar.domar_criterion_check(w, 1.0, tol=tol)
    closed = math.exp(-2.0) / 4.0
    margin_int = 1e-6 - abs(report.ratio_integral - closed)
    ok_shape = report.eta_convex and report.tail_superlinear
    if margin_int < 0 or not ok_shape:
        failures.append(
            {"case": "gaussian-criterion", "data": to_jsonable(report)}
        )
    cases = [
        _case("gaussian-ratio-integral", margin_int, 1e-6),
        _case("gaussian-shape", 0.0 if ok_shape else -1.0, 0.0),
    ]
    exp_weight = domar.make_weight(
        "custom", omega=lambda t: np.exp(-np.asarray(t)), horizon=24.0
    )
    exp_report = domar.domar_criterion_check(exp_weight, 1.0, tol=tol)
    # Negative control: eta(t) = t is convex but not superlinear.
    control_ok = exp_report.eta_convex and not exp_report.tail_superlinear
    if not control_ok:
        failures.append(
            {"case": "exponential-control", "data": to_jsonable(exp_report)}
        )
    cases.append(_case("exponential-control", 0.0 if control_ok else -1.0, 0.0))
    return cases, failures


def _suite_domar_quasinilpotence(dim, trials, rng, tol):
    del dim, trials, rng
    failures = []
    w = domar.make_weight("gaussian")
    f = domar.grid_indicator(0.05, 1.0, 2.0)
    roots = domar.quasinilpotence_estimate(f, w, 8, tol)
    decrease = min(roots[n] - roots[n + 1] for n in range(1, 7))
    bound_margin = min(
        domar.quasinilpotence_root_bound(f, w, n + 1, tol) - roots[n]
        for n in range(8)
    )
    if decrease <= 0 or bound_margin < 0:
        failures.append(
            {"case": "root-decay", "data": {"roots": [float(r) for r in roots]}}
        )
    return (
        [
            _case("roots-decrease", decrease, 0.0),
            _case("roots-below-bound", bound_margin, 0.0),
        ],
        failures,
    )


def _suite_domar_bump(dim, trials, rng, tol):
    del dim, trials, rng, tol
    failures = []
    w = domar.make_weight("gaussian")
    probe = domar.grid_indicator(0.01, 1.0, 2.0)
    report = domar.bump_cai_check([0.4, 0.2, 0.1], w, [probe])
    masses = [row["l1_norm"] for row in report.rows]
    margin_mass = min(masses[2] - 0.99, 1.0 - masses[2])
    defects = [row["probe_defects"][0] for row in report.rows]
    margin_defect = min(defects[i] - defects[i + 1] for i in range(2))
    if margin_mass < 0 or margin_defect <= 0:
        failures.append({"case": "bump-identity", "data": to_jsonable(report)})
    return (
        [
            _case("narrow-bump-mass", margin_mass, 0.01),
            _case("probe-defect-decreases", margin_defect, 0.0),
        ],
        failures,
    )


def _suite_domar_density(dim, trials, rng, tol):
    del dim
    w = domar.make_weight("gaussian")
    worst = -np.inf
    failures = []
    for trial in range(trials):
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
        result = domar.principal_density_check(t_f, g, w, tol=tol)
        worst = max(worst, result.residual)
        if result.residual > 1e-8:
            failures.append(
                {
                    "case": "triangular-solve",
                    "data": {
                        "trial": trial,
                        "t_f": to_jsonable(t_f),
                        "g": to_jsonable(g),
                        "residual": result.residual,
                    },
                }
            )
    return [_case("triangular-solve", 1e-8 - worst, 1e-8)], failures


def _random_cp_map(rng: np.random.Generator):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    count = int(rng.integers(1, 4))
    return matrix_map_from_kraus([complex_normal(rng, (m, n)) for _ in range(count)])


def _suite_ocp_falsify(dim, trials, rng, tol):
    del dim
    failures = []
    worst_margin_err = -np.inf
    t = transpose_map(2)
    for c in (1.0, 2.0, 5.0):
        witness = ocp_falsify(t, c, k=2, budget=200, seed=int(rng.integers(0, 2**31)), tol=tol)
        err = np.inf if witness is None else abs(witness["margin"] - 1.0)
        worst_margin_err = max(worst_margin_err, err)
        if err > 1e-9:
            failures.append(
                {"case": "transpose-witness", "data": {"bound": c, "witness": witness}}
            )
    cases = [_case("transpose-witness", 1e-9 - worst_margin_err, 1e-9)]

    # Schwarz inequality: completely positive maps admit no witness at
    # their natural bound c = ||T(1)|| at any level; budget 10^4 per map,
    # split across levels 1..3.
    spurious = 0
    for trial in range(trials):
        cp_map = _random_cp_map(rng)
        c = max(operator_norm(cp_map.apply(np.eye(cp_map.in_dim))), 1e-6)
        seed = int(rng.integers(0, 2**31))
        for k, share in ((1, 2000), (2, 3000), (3, 5000)):
            witness = ocp_falsify(cp_map, c, k=k, budget=share, seed=seed, tol=tol)
            if witness is not None:
                spurious += 1
                failures.append(
                    {
                        "case": "cp-no-witness",
                        "data": {"trial": trial, "k": k, "map": json.loads(cp_map.to_json()), "witness": witness},
                    }
                )
    cases.append(_case("cp-no-witness", -float(spurious), 0.0))
    return cases, failures


def _suite_stinespring(dim, trials, rng, tol):
    del dim
    worst_residual = -np.inf
    worst_norm_err = -np.inf
    failures = []
    for trial in range(trials):
        cp_map = _random_cp_map(rng)
        triple = stinespring(cp_map, tol)
        vnorm2 = operator_norm(triple.v.conj().T @ triple.v)
        t_one = operator_norm(cp_map.apply(np.eye(cp_map.in_dim)))
        worst_residual = max(worst_residual, triple.residual)
        worst_norm_err = max(worst_norm_err, abs(vnorm2 - t_one))
        if triple.residual > 1e-10 or abs(vnorm2 - t_one) > 1e-9:
            failures.append(
                {
                    "case": "factorization",
                    "data": {"trial": trial, "map": json.loads(cp_map.to_json())},
                }
            )
    return (
        [
            _case("choi-residual", 1e-10 - worst_residual, 1e-10),
            _case("dilation-norm", 1e-9 - worst_norm_err, 1e-9),
        ],
        failures,
    )


def _suite_disk_test(dim, trials, rng, tol):
    mismatches = 0
    failures = []
    for trial in range(trials):
        d = int(rng.integers(1, dim + 1))
        z = complex_normal(rng, (d, d))
        kind = trial % 3
        if kind == 0:
            x = z @ z.conj().T
            x = x / (operator_norm(x) * (1.0 + rng.uniform()))
        elif kind == 1:
            x = (z + z.conj().T) / 2.0
        else:
            x = z / max(operator_norm(z), 1e-30)
        lam = np.linalg.eigvalsh((x + x.conj().T) / 2.0)
        oracle = (
            operator_norm(x - x.conj().T) <= tol.exact_tol
            and lam[0] >= -tol.exact_tol
            and lam[-1] <= 1.0 + tol.exact_tol
        )
        report = disk_test(x, circle_points=150, tol=tol)
        if report.member != oracle:
            mismatches += 1
            failures.append(
                {"case": "disk-vs-psd-oracle", "data": {"trial": trial, "x": matrix_to_json(x)}}
            )
    return [_case("disk-vs-psd-oracle", -float(mismatches), 0.0)], failures


def _suite_quotient_cone(dim, trials, rng, tol):
    failures = []
    worst_excess = -np.inf
    for trial in range(trials):
        while True:
            blocks = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(2, 4)))]
            if sum(blocks) <= dim:
                break
        ideal_count = int(rng.integers(1, len(blocks)))
        ideal_blocks = list(rng.choice(len(blocks), size=ideal_count, replace=False))
        algebra = block_diagonal_algebra(blocks, tol)
        ideal = block_ideal_subspace(blocks, ideal_blocks, tol)
        report = quotient_cone_check(
            algebra, ideal, samples=8, seed=int(rng.integers(0, 2**31)), tol=tol
        )
        gap = max(
            report.forward_excess,
            report.backward_lift_excess,
            report.backward_membership_residual,
            float(report.inconclusive_quotients),
        )
        worst_excess = max(worst_excess, gap)
        if gap > 1e-6:
            failures.append(
                {
                    "case": "block-inclusions",
                    "data": {"trial": trial, "blocks": blocks, "ideal_blocks": [int(b) for b in ideal_blocks], "report": to_jsonable(report)},
                }
            )
    cases = [_case("block-inclusions", 1e-6 - worst_excess, 1e-6)]

    # Closed-form control: quotient of upper-triangular 2x2 matrices by the
    # strictly-upper ideal has norm max(|a11|, |a22|).
    worst_gap = -np.inf
    for _ in range(10):
        a = np.triu(complex_normal(rng, (2, 2)))
        ideal = matrix_span([np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)], tol)
        result = quotient_norm(a, ideal, tol)
        expected = max(abs(a[0, 0]), abs(a[1, 1]))
        gap = max(result.gap, abs(result.value - expected))
        if result.status != "CERTIFIED":
            gap = np.inf
        worst_gap = max(worst_gap, gap)
        if gap > 1e-6:
            failures.append(
                {"case": "closed-form-gap", "data": {"a": matrix_to_json(a), "status": result.status}}
            )
    cases.append(_case("closed-form-gap", 1e-6 - worst_gap, 1e-6))
    return cases, failures


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
    rng = np.random.default_rng(cfg.seed)
    start = time.perf_counter()
    cases, failures = runner(dim, trials, rng, cfg.tol)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return SuiteReport(
        suite=cfg.suite,
        config={
            "dim": int(dim),
            "trials": int(trials),
            "seed": int(cfg.seed),
            "iter_tol": float(cfg.tol.iter_tol),
        },
        cases=cases,
        failures=failures,
        wall_ms=wall_ms,
    )


def emit_report(report: SuiteReport, path: str) -> None:
    """Write the JSON report; identical runs differ only in ``wall_ms``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
        handle.write("\n")
