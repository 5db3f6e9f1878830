"""Inputs, job lists and reference checks for the three oalab workloads.

Every random matrix and subspace is drawn here from the run's seed with
numpy alone; ``oalab`` only ever receives finished matrices, subspaces or
``SuiteConfig``s.  Each job is one timed call into a public ``oalab``
function plus a check of its output against a reference that does not go
through ``oalab`` (closed forms, constructions with a known answer,
``scipy``/``numpy`` routines, or the suite verdicts pinned in
``verdicts.json``).

Calls look functions up on their module at call time, so a tracer that
rebinds module attributes sees them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from oalab import algebra, calculus, cone, matcore, ocpmap, spectral, suites, support

VERDICTS_PATH = Path(__file__).resolve().parent / "verdicts.json"


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    # Returns None when the output matches its reference, else the reason.
    check: Callable[[object], Optional[str]]
    # Set on jobs whose result carries a CERTIFIED/INCONCLUSIVE status.
    verdict: bool = False
    # The registered suite a ``run_suite`` job runs.
    suite: Optional[str] = None


# --------------------------------------------------------------------------
# samplers (numpy only)


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def contraction(rng: np.random.Generator, n: int, norm: float) -> np.ndarray:
    """``U diag(d)`` with ``U`` Haar: its singular values are ``|d|``, the top one ``norm``."""
    d = rng.uniform(0.0, norm, size=n)
    d[0] = norm
    return haar_unitary(rng, n) * d


def cone_element(rng: np.random.Generator, n: int, norm: float) -> np.ndarray:
    """A generic (non-normal) ``x`` with ``||1 - x|| = norm``."""
    return np.eye(n, dtype=complex) + contraction(rng, n, norm)


def singular_element(rng: np.random.Generator, n: int, k: int, norm: float):
    """``x`` in the cone with a ``k``-dimensional kernel.

    ``x = Q (0_k (+) (1 + c)) Q*`` with ``Q`` Haar and ``||c|| = norm < 1``,
    so ``||1 - x|| = 1`` and ``ker x`` is spanned by the first ``k`` columns
    of ``Q``.  Returns ``(x, Q, 1 + c)``.
    """
    q = haar_unitary(rng, n)
    inner = cone_element(rng, n - k, norm)
    rest = q[:, k:]
    return rest @ inner @ rest.conj().T, q, inner


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b, 2) / max(1.0, np.linalg.norm(b, 2)))


# --------------------------------------------------------------------------
# suite jobs


def suite_job(name: str, trials: Optional[int], seed: int, dim: Optional[int] = None, job_name: Optional[str] = None) -> Job:
    cfg = suites.SuiteConfig(suite=name, trials=trials, seed=seed, dim=dim)

    def check(report) -> Optional[str]:
        pinned = json.loads(VERDICTS_PATH.read_text(encoding="utf-8"))[name]
        got = {case["name"]: case["status"] for case in report.cases}
        if got != pinned:
            return f"verdicts {got} differ from pinned {pinned}"
        if name == "volterra":
            return _check_volterra(report)
        return None

    return Job(job_name or f"suite:{name}", lambda: suites.run_suite(cfg), check, suite=name)


def volterra_norm(n: int) -> float:
    """Closed form ``||V_n|| = 1 / (2n tan(pi / 4n))`` of the discretized Volterra operator."""
    return 1.0 / (2.0 * n * math.tan(math.pi / (4.0 * n)))


def _check_volterra(report) -> Optional[str]:
    # The suite reports margin = 1e-3 - | ||V_n|| - 2/pi |.
    size = report.config["dim"]
    case = next(c for c in report.cases if c["name"] == "norm-limit")
    reported = 1e-3 - case["margin"]
    exact = abs(volterra_norm(size) - 2.0 / math.pi)
    if abs(reported - exact) > 1e-12:
        return f"volterra norm error {reported!r} vs closed form {exact!r}"
    return None


# --------------------------------------------------------------------------
# kernel jobs


ROOT_EXPONENTS = (1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0, 1.0 / 5.0)


def power_job(name: str, x: np.ndarray, r: float) -> Job:
    p = round(1.0 / r)

    def check(y) -> Optional[str]:
        back = _rel(np.linalg.matrix_power(y, p), x)
        ref = _rel(y, scipy.linalg.fractional_matrix_power(x, r))
        if back > 1e-9 or ref > 1e-9:
            return f"y^{p} vs x {back:.2e}, y vs scipy {ref:.2e}"
        return None

    return Job(name, lambda: calculus.matrix_power_r(x, r), check)


def singular_power_job(name: str, x: np.ndarray, q: np.ndarray, inner: np.ndarray, k: int, r: float) -> Job:
    p = round(1.0 / r)

    def check(y) -> Optional[str]:
        back = _rel(np.linalg.matrix_power(y, p), x)
        on_kernel = float(np.linalg.norm(y @ q[:, :k], 2))
        rest = q[:, k:]
        ref = _rel(rest.conj().T @ y @ rest, scipy.linalg.fractional_matrix_power(inner, r))
        if back > 1e-9 or on_kernel > 1e-9 or ref > 1e-9:
            return f"y^{p} vs x {back:.2e}, y on kernel {on_kernel:.2e}, y vs scipy {ref:.2e}"
        return None

    return Job(name, lambda: calculus.matrix_power_r(x, r), check)


def ocp_falsify_job(name: str, t, c: float, k: int, budget: int, seed: int, margin: Optional[float]) -> Job:
    """``margin`` None: no witness may exist (a completely positive map at
    ``c = ||T(1)||``, by the Schwarz inequality); else the witness margin."""

    def check(witness) -> Optional[str]:
        if margin is None:
            return None if witness is None else f"witness {witness['value']!r} against a completely positive map"
        if witness is None or abs(witness["margin"] - margin) > 1e-9:
            return f"witness {witness} (want margin {margin})"
        return None

    return Job(name, lambda: ocpmap.ocp_falsify(t, c, k=k, budget=budget, seed=seed), check)


def numerical_range_job(name: str, x: np.ndarray, theta_count: int) -> Job:
    def check(sample) -> Optional[str]:
        thetas = np.linspace(0.0, 2.0 * np.pi, theta_count, endpoint=False)
        worst = 0.0
        for j in range(0, theta_count, theta_count // 8):
            phase = np.exp(-1j * thetas[j])
            h = (phase * x + np.conj(phase) * x.conj().T) / 2.0
            worst = max(worst, abs(np.linalg.eigvalsh(h)[-1] - sample.support_values[j]))
        if worst > 1e-10 * max(1.0, np.linalg.norm(x, 2)):
            return f"support values off eigvalsh by {worst:.2e}"
        return None

    return Job(name, lambda: spectral.numerical_range(x, theta_count), check)


def cone_constant_job(name: str, x: np.ndarray) -> Job:
    eye = np.eye(x.shape[0])

    def check(c) -> Optional[str]:
        if c is None:
            return "no cone constant for a cone element"
        inside = np.linalg.norm(eye - c * x, 2)
        outside = np.linalg.norm(eye - c * (1.0 + 1e-6) * x, 2)
        if inside > 1.0 + 1e-8 or outside <= 1.0:
            return f"||1 - Cx|| = {inside!r}, ||1 - (C + d)x|| = {outside!r}"
        return None

    return Job(name, lambda: cone.cone_constant(x), check)


def in_f_job(name: str, x: np.ndarray, expected: bool) -> Job:
    def check(member) -> Optional[str]:
        return None if member == expected else f"in_F = {member}, construction says {expected}"

    return Job(name, lambda: cone.in_F(x), check)


def support_routes_job(name: str, x: np.ndarray, q: np.ndarray, k: int) -> Job:
    n = x.shape[0]
    expected = np.eye(n) - q[:, :k] @ q[:, :k].conj().T

    def check(routes) -> Optional[str]:
        proj = routes["svd"]
        rank = round(float(np.trace(proj).real))
        gap = float(np.linalg.norm(proj - expected, 2))
        worst = max(routes["residuals"].values())
        if rank != n - k or gap > 1e-8 or worst > 1e-6:
            return f"support rank {rank} (want {n - k}), projection gap {gap:.2e}, route gap {worst:.2e}"
        return None

    return Job(name, lambda: support.support_projection_routes(x), check)


def sharp_neumann_job(name: str, x: np.ndarray, singular: bool) -> Job:
    def check(result) -> Optional[str]:
        return None if result.singular == singular else f"singular = {result.singular}, construction says {singular}"

    return Job(name, lambda: spectral.sharp_neumann(x), check)


def quotient_norm_job(name: str, a: np.ndarray, j_mats: list, closed_form: Optional[float]) -> Job:
    subspace = matcore.matrix_span(j_mats)
    basis = subspace.basis.reshape(subspace.dim, *a.shape)

    def check(result) -> Optional[str]:
        if result.status not in ("CERTIFIED", "INCONCLUSIVE"):
            return f"status {result.status!r}"
        attained = np.linalg.norm(a - np.tensordot(result.minimizer_coeffs, basis, axes=1), 2)
        if abs(attained - result.upper) > 1e-9 * max(1.0, result.upper):
            return f"upper {result.upper!r} is not attained: ||a - j|| = {attained!r}"
        if result.lower > result.upper + 1e-12:
            return f"interval [{result.lower!r}, {result.upper!r}] is empty"
        if (
            result.status == "CERTIFIED"
            and closed_form is not None
            and not result.lower - 1e-9 <= closed_form <= result.upper + 1e-9
        ):
            return f"certified [{result.lower!r}, {result.upper!r}] misses closed form {closed_form!r}"
        return None

    return Job(name, lambda: algebra.quotient_norm(a, subspace), check, verdict=True)


def random_subspace_job(rng: np.random.Generator, n: int, k: int) -> Job:
    """``a`` and a random ``k``-dimensional subspace ``J`` of ``M_n``; no closed form."""
    return quotient_norm_job(
        f"quotient_norm:random:n{n}k{k}",
        _ginibre(rng, n),
        [_ginibre(rng, n) for _ in range(k)],
        None,
    )


def block_ideal_job(rng: np.random.Generator, blocks: tuple, ideal: tuple) -> Job:
    """Block-diagonal ``a`` modulo the full blocks at ``ideal``: the norm is the
    largest norm of the other blocks."""
    n = sum(blocks)
    a = np.zeros((n, n), dtype=complex)
    j_mats, rest = [], []
    start = 0
    for b, size in enumerate(blocks):
        block = _ginibre(rng, size)
        a[start : start + size, start : start + size] = block
        if b in ideal:
            for i in range(start, start + size):
                for j in range(start, start + size):
                    unit = np.zeros((n, n), dtype=complex)
                    unit[i, j] = 1.0
                    j_mats.append(unit)
        else:
            rest.append(np.linalg.norm(block, 2))
        start += size
    return quotient_norm_job(f"quotient_norm:block:{blocks}", a, j_mats, max(rest))


# --------------------------------------------------------------------------
# workloads


def suites_small(rng: np.random.Generator) -> list:
    """The small-matrix suites plus ocp_falsify on maps of fixed shapes.

    A pass is kept short (a few seconds) so that a run makes several passes
    and each job's median over them damps the speed changes of a shared
    machine.  The
    direct ocp_falsify jobs have fixed shapes; the suites draw their sizes
    from their own seeds, which come from the run's seed, so the work in a
    pass varies somewhat with the seed.
    """
    plan = [
        ("ocp-falsify", 1),
        ("nonunital-battery", 30),
        ("disk-test", 40),
        ("sharp-neumann", 100),
        ("support-routes", 50),
        ("support-join", 30),
        ("stinespring", 20),
        ("domar-titchmarsh", 100),
        ("domar-criterion", None),
        ("domar-quasinilpotence", None),
        ("domar-bump", None),
        ("domar-density", None),
    ]
    jobs = [suite_job(name, trials, int(rng.integers(2**31))) for name, trials in plan]
    transpose = ocpmap.transpose_map(2)
    for c in (1.0, 2.0, 5.0):
        # The transpose on M_2 beats every bound c at level 2 by exactly 1.
        jobs.append(ocp_falsify_job("ocpmap.ocp_falsify.transpose", transpose, c, 2, 200, int(rng.integers(2**31)), 1.0))
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            kraus = [rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)) for _ in range(2)]
            c = float(np.linalg.norm(sum(k @ k.conj().T for k in kraus), 2))
            cp_map = ocpmap.matrix_map_from_kraus(kraus)
            for level, budget in ((1, 400), (2, 600), (3, 1000)):
                jobs.append(
                    ocp_falsify_job(f"ocpmap.ocp_falsify.cp{n}x{m}", cp_map, c, level, budget, int(rng.integers(2**31)), None)
                )
    return jobs


# The kernels-large jobs, one per (kernel, size) point; each is also a
# per-layer metric ``<point>.s``.
POINTS = (
    "calculus.matrix_power_r.n64.generic",
    "calculus.matrix_power_r.n128.generic",
    "calculus.matrix_power_r.n64.singular",
    "calculus.matrix_power_r.n128.singular",
    "spectral.numerical_range.n128",
    "cone.cone_constant.n256",
    "cone.in_F.n1000",
    "support.support_projection_routes.n256",
    "spectral.sharp_neumann.n256",
    "suites.run_suite.n1000",
)


def kernels_large(rng: np.random.Generator) -> list:
    """A few large inputs, one job per (kernel, size) point.

    Sized so that a pass takes about 10 s and a 30 s run makes two passes.
    """
    jobs = []
    for n in (64, 128):
        x = cone_element(rng, n, rng.uniform(0.5, 0.95))
        jobs.append(power_job(f"calculus.matrix_power_r.n{n}.generic", x, 0.5))
    for n in (64, 128):
        x, q, inner = singular_element(rng, n, n // 4, rng.uniform(0.5, 0.95))
        jobs.append(singular_power_job(f"calculus.matrix_power_r.n{n}.singular", x, q, inner, n // 4, 0.25))
    jobs.append(numerical_range_job("spectral.numerical_range.n128", cone_element(rng, 128, 0.9), 240))
    jobs.append(cone_constant_job("cone.cone_constant.n256", cone_element(rng, 256, rng.uniform(0.5, 0.95))))
    jobs.append(in_f_job("cone.in_F.n1000", cone_element(rng, 1000, 0.9), True))
    x, q, _ = singular_element(rng, 256, 64, rng.uniform(0.5, 0.95))
    jobs.append(support_routes_job("support.support_projection_routes.n256", x, q, 64))
    jobs.append(sharp_neumann_job("spectral.sharp_neumann.n256", x, True))
    jobs.append(suite_job("volterra", None, int(rng.integers(2**31)), dim=1000, job_name="suites.run_suite.n1000"))
    return jobs


# (block sizes, indices of the blocks in the ideal) of the block-ideal
# quotient_norm jobs: two or three blocks of size 1 to 3 with n <= 6, as
# the quotient-cone suite draws them, but fixed, so that only the entries
# come from the seed.
BLOCK_IDEALS = (
    ((1, 1), (0,)),
    ((2, 1), (1,)),
    ((1, 3), (0,)),
    ((2, 2), (0,)),
    ((3, 2), (1,)),
    ((3, 3), (0,)),
    ((1, 1, 1), (0, 2)),
    ((1, 2, 1), (1,)),
    ((2, 1, 3), (0, 1)),
    ((2, 2, 2), (2,)),
)


def certify_mid(rng: np.random.Generator) -> list:
    """Many small fractional powers and quotient-norm certificates.

    The direct jobs have fixed sizes and the seed draws only their entries.
    It also draws the seeds from which the three suites draw their own
    sizes, so the work in a pass varies somewhat with the seed.
    """
    jobs = [
        # dim 6 like the other two suites, not the suite's default 8: at
        # d = 8, generated_algebra returns all of M_8 for near-scalar
        # elements (a known defect, see CHANGES.md).  The roots suite still
        # passes then, but the call costs ~0.4 s and ~30 MB, and whether a
        # seed draws such an element splits wall_s and peak_rss_mb across
        # seeds into two groups.
        suite_job("roots", 10, int(rng.integers(2**31)), dim=6),
        suite_job("closure-battery", 20, int(rng.integers(2**31))),
        suite_job("quotient-cone", 10, int(rng.integers(2**31))),
    ]
    for d in range(2, 9):
        for _ in range(12):
            x = cone_element(rng, d, rng.uniform(0.1, 0.95))
            jobs += [power_job(f"calculus.matrix_power_r.d{d}", x, r) for r in ROOT_EXPONENTS]
    for i in range(12):
        n = 3 + i % 4
        jobs.append(random_subspace_job(rng, n, 1 + (i // 4) % n))
    jobs += [block_ideal_job(rng, blocks, ideal) for blocks, ideal in BLOCK_IDEALS]
    return jobs


WORKLOADS = {
    "suites-small": suites_small,
    "kernels-large": kernels_large,
    "certify-mid": certify_mid,
}
