"""Tests for the suite runner and command-line driver."""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from oalab.algebra import ball_samples
from oalab.cli import main
from oalab.domar import GridFunction
from oalab.examples import example_two_dim
from oalab.matcore import EXACT_TOL, ConvergenceError, matrix_from_json, to_jsonable
from oalab.suites import SUITE_NAMES, SuiteConfig, run_suite


class TestRunSuite:
    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            run_suite(SuiteConfig(suite="not-a-suite"))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SuiteConfig(suite="roots", trials=0)
        with pytest.raises(ValueError):
            SuiteConfig(suite="roots", dim=-1)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SuiteConfig(suite="roots", seed=-1)
        for bad in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match="iter_tol must be finite and strictly positive"):
                SuiteConfig(suite="roots", iter_tol=bad)

    def test_registry_names(self):
        assert SUITE_NAMES == tuple(sorted(SUITE_NAMES))
        for expected in (
            "roots",
            "sharp-neumann",
            "support-routes",
            "support-join",
            "closure-battery",
            "nonunital-battery",
            "projection-truncation",
            "volterra",
            "domar-titchmarsh",
            "ocp-falsify",
            "stinespring",
            "disk-test",
            "quotient-cone",
        ):
            assert expected in SUITE_NAMES

    def test_report_shape(self):
        report = run_suite(SuiteConfig(suite="roots", dim=3, trials=5, seed=0))
        payload = to_jsonable(report)
        assert set(payload) == {"suite", "config", "cases", "failures", "wall_ms"}
        for case in payload["cases"]:
            assert set(case) == {"name", "status", "margin", "tol"}
            assert case["status"] in {"pass", "fail"}
        assert payload["config"]["seed"] == 0

    def test_deterministic_outcomes(self):
        first = run_suite(SuiteConfig(suite="support-routes", dim=4, trials=25, seed=3))
        second = run_suite(SuiteConfig(suite="support-routes", dim=4, trials=25, seed=3))
        assert first.cases == second.cases
        assert first.failures == second.failures

    def test_failing_case_embeds_matrix(self, monkeypatch):
        # Force the closed-form quotient case to fail and confirm the
        # failure entry carries the offending matrix for reproduction.
        import oalab.suites as suites_mod
        from oalab.algebra import QuotientNormResult

        monkeypatch.setattr(
            suites_mod,
            "quotient_norm",
            lambda a, J, iter_tol, **kw: QuotientNormResult(
                lower=0.0, upper=10.0, status="INCONCLUSIVE", minimizer_coeffs=None
            ),
        )
        report = run_suite(SuiteConfig(suite="quotient-cone", dim=4, trials=2, seed=0))
        assert not report.passed
        matrix_failures = [
            f for f in report.failures if f["case"] == "closed-form-gap"
        ]
        assert matrix_failures
        assert "entries" in matrix_failures[0]["data"]["a"]

    @staticmethod
    def _forced(monkeypatch, suite, target, broken, **cfg):
        # Run ``suite`` with the suite module's ``target`` (a dotted path
        # such as ``domar.convolve`` reaches into a module it imports)
        # post-processed by ``broken``, and return the failing cases and the
        # failure records as ``(case, sorted data keys)`` pairs.
        import oalab.suites as suites_mod

        *path, name = target.split(".")
        owner = suites_mod
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: broken(original(*a, **k)))
        report = run_suite(SuiteConfig(suite=suite, seed=0, **cfg))
        failed = {c["name"]: c["margin"] for c in report.cases if c["status"] == "fail"}
        records = [(f["case"], sorted(f["data"])) for f in report.failures]
        return failed, records, report.failures

    def test_failure_records_name_case_and_replay_keys(self, monkeypatch):
        # Bounded case: every route residual is pushed past the 1e-6 gate,
        # so each observed trial fails and records its matrix and residuals.
        def shifted(routes):
            routes["residuals"] = {k: v + 1e-3 for k, v in routes["residuals"].items()}
            return routes

        failed, records, _ = self._forced(
            monkeypatch, "support-routes", "support_projection_routes", shifted, dim=3, trials=4
        )
        assert list(failed) == ["route-agreement"]
        assert -1e-3 <= failed["route-agreement"] < 0.0
        assert records == [("route-agreement", ["residuals", "trial", "x"])] * 4

        # Count-only case: a flipped classifier verdict is one disagreement
        # per trial, and the margin counts them.
        def flipped(result):
            return dataclasses.replace(result, singular=not result.singular)

        failed, records, _ = self._forced(
            monkeypatch, "sharp-neumann", "sharp_neumann", flipped, dim=3, trials=4
        )
        assert failed == {"classifier-vs-rank-oracle": -4.0}
        assert records == [("classifier-vs-rank-oracle", ["t", "trial"])] * 4

        # Grouped record: the three root gates of one (trial, r) share one
        # ``root-bounds`` entry carrying the exponent.  The suite takes every
        # root of one element from one matrix_powers call; each is shifted.
        failed, records, failures = self._forced(
            monkeypatch, "roots", "matrix_powers", lambda roots: [root + 0.5 for root in roots], dim=3, trials=2
        )
        assert {"half-root-squares", "roots-in-generated-span"} <= set(failed)
        assert records == (
            [("half-root-squares", ["trial", "x"])]
            + [("root-bounds", ["r", "trial", "x"])] * 4
        ) * 2
        grouped = [f["data"] for f in failures if f["case"] == "root-bounds"]
        assert [(d["trial"], d["r"]) for d in grouped] == [
            (trial, r) for trial in range(2) for r in (0.5, 1.0 / 3.0, 0.25, 0.2)
        ]

    def test_each_sampled_element_carries_its_failure_record(self, monkeypatch):
        # Ball conditions: every margin pushed below zero fails each sampled
        # element, and its record holds the element the sampler drew.
        failed, records, failures = self._forced(
            monkeypatch, "nonunital-battery", "ball_margins",
            lambda margins: {k: v - 2.0 for k, v in margins.items()}, trials=4,
        )
        assert failed == {"two-dim-margins": -1.0}
        assert records == [("two-dim-margins", ["a", "margins", "trial"])] * 4
        draws = np.random.default_rng(int(np.random.default_rng(0).integers(0, 2**31)))
        samples = ball_samples(draws, example_two_dim(), 4)
        for record, a in zip(failures, samples):
            assert "entries" in record["data"]["a"]
            assert np.array_equal(matrix_from_json(record["data"]["a"]), a)

        # Support additivity: a convolution shifted by one grid step breaks
        # every pair, and each record holds both grid functions.
        failed, records, failures = self._forced(
            monkeypatch, "domar-titchmarsh", "domar.convolve",
            lambda fg: GridFunction(h=fg.h, coeffs=np.concatenate([[0.0], fg.coeffs])), trials=3,
        )
        assert failed == {"support-additivity": -3.0}
        assert records == [("support-additivity", ["expected_index", "f", "g", "got_index", "trial"])] * 3
        for record in failures:
            assert record["data"]["got_index"] == record["data"]["expected_index"] + 1
            assert {"h", "coeffs"} <= set(record["data"]["f"]) and "coeffs" in record["data"]["g"]

        # Quotient cone: an INCONCLUSIVE quotient norm fails each forward
        # sample x and each backward representative rep, one record apiece.
        failed, records, failures = self._forced(
            monkeypatch, "quotient-cone", "quotient_norm",
            lambda result: dataclasses.replace(result, status="INCONCLUSIVE"), dim=4, trials=2,
        )
        assert set(failed) == {"block-inclusions", "closed-form-gap"}
        assert failed["block-inclusions"] == 1e-6 - 1.0
        keys = ["blocks", "ideal_blocks", "quotient_norm", "status", "trial"]
        assert records == (
            [("block-inclusions", sorted(keys + ["x"])), ("block-inclusions", sorted(keys + ["rep"]))] * 16
            + [("closed-form-gap", ["a", "status"])] * 10
        )
        for record in failures[:32]:
            data = record["data"]
            assert "entries" in data.get("x", data.get("rep"))
            assert data["status"] == "INCONCLUSIVE"

    def test_nan_observation_fails_its_case(self, monkeypatch):
        # A NaN is never folded away as "not worse": it fails the case and
        # records its replay data.
        def poisoned(routes):
            routes["residuals"] = {k: float("nan") for k in routes["residuals"]}
            return routes

        failed, records, _ = self._forced(
            monkeypatch, "support-routes", "support_projection_routes", poisoned, dim=3, trials=2
        )
        assert list(failed) == ["route-agreement"]
        assert math.isnan(failed["route-agreement"])
        assert records == [("route-agreement", ["residuals", "trial", "x"])] * 2

    def test_zero_margin_passes_without_a_failure_record(self, monkeypatch):
        # A case passes at margin 0, so no runner writes a failure record
        # there: a commutator exactly at the 1e-6 gate, a root sequence
        # that stalls for one step, and two equal probe defects.
        import oalab.suites as suites_mod
        from oalab import domar

        rdr = suites_mod.example_rdr
        estimate, bump = domar.quasinilpotence_estimate, domar.bump_cai_check

        def stalled(*args):
            roots = estimate(*args)
            roots[1] = roots[2]
            return roots

        def tied(*args):
            report = bump(*args)
            report.rows[2]["probe_defects"][0] = report.rows[1]["probe_defects"][0]
            return report

        monkeypatch.setattr(
            suites_mod, "example_rdr", lambda n: dataclasses.replace(rdr(n), min_commutator=1e-6)
        )
        monkeypatch.setattr(domar, "quasinilpotence_estimate", stalled)
        monkeypatch.setattr(domar, "bump_cai_check", tied)
        for suite, case in (
            ("projection-truncation", "min-commutator"),
            ("domar-quasinilpotence", "roots-decrease"),
            ("domar-bump", "probe-defect-decreases"),
        ):
            report = run_suite(SuiteConfig(suite=suite, seed=0))
            margins = {c["name"]: c["margin"] for c in report.cases}
            assert margins[case] == 0.0, (suite, margins)
            assert report.passed and report.failures == [], suite

    def test_undersized_volterra_fails_honestly(self):
        report = run_suite(SuiteConfig(suite="volterra", dim=5, seed=0))
        names = {c["name"]: c["status"] for c in report.cases}
        assert names["spectral-radius-100"] == "pass"
        assert names["norm-limit"] == "fail"
        assert any(f["case"] == "norm-limit" for f in report.failures)

    def test_volterra_norm_is_matrix_free(self):
        # A dense V_100000 would take 160 GB; the power iteration takes ~0.05 s.
        start = time.perf_counter()
        report = run_suite(SuiteConfig(suite="volterra", dim=100_000, seed=0))
        elapsed = time.perf_counter() - start
        assert [c["status"] for c in report.cases] == ["pass", "pass"]
        assert elapsed < 1.0

    def test_volterra_radius_gate_is_off_the_true_value(self):
        # rho(V_100) = 1/200 exactly; the case gates |rho - 1/200| against
        # EXACT_TOL instead of rho against 1/200 itself.
        report = run_suite(SuiteConfig(suite="volterra", dim=5, seed=0))
        case = next(c for c in report.cases if c["name"] == "spectral-radius-100")
        assert case["tol"] == EXACT_TOL
        assert 0.0 < case["margin"] <= case["tol"]


class TestEmitReport:
    def test_byte_identical_except_wall_ms(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            argv = ["run", "--suite", "domar-titchmarsh", "--trials", "40", "--seed", "1"]
            assert main(argv + ["--out", str(path)]) == 0
        payloads = [json.loads(p.read_text()) for p in paths]
        for payload in payloads:
            payload.pop("wall_ms")
        assert json.dumps(payloads[0], sort_keys=True) == json.dumps(
            payloads[1], sort_keys=True
        )

    def test_failing_report_is_strict_json(self, tmp_path, monkeypatch, capsys):
        # An INCONCLUSIVE quotient norm fails closed-form-gap at margin -inf;
        # the report spells it "-inf", never a bare -Infinity token.
        import oalab.suites as suites_mod
        from oalab.algebra import QuotientNormResult

        monkeypatch.setattr(
            suites_mod,
            "quotient_norm",
            lambda a, J, iter_tol, **kw: QuotientNormResult(
                lower=0.0, upper=10.0, status="INCONCLUSIVE", minimizer_coeffs=None
            ),
        )
        out = tmp_path / "report.json"
        argv = ["run", "--suite", "quotient-cone", "--dim", "4", "--trials", "2"]
        assert main(argv + ["--out", str(out)]) == 1
        assert "quotient-cone/closed-form-gap: fail (margin -inf" in capsys.readouterr().out

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads(out.read_text(), parse_constant=refuse)
        margins = {c["name"]: c["margin"] for c in payload["cases"]}
        assert margins["closed-form-gap"] == "-inf"
        assert float(margins["closed-form-gap"]) == -math.inf


class TestCli:
    def test_run_pass_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["run", "--suite", "roots", "--dim", "3", "--trials", "5",
             "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "roots/half-root-squares: pass" in printed

    def test_run_fail_exit_one(self):
        assert main(["run", "--suite", "volterra", "--dim", "5"]) == 1

    def test_unknown_suite_exit_two(self, capsys):
        assert main(["run", "--suite", "nope"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown suite 'nope'")

    def test_negative_seed_exit_two(self, capsys):
        assert main(["run", "--suite", "roots", "--seed", "-1"]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["support-join", "closure-battery", "disk-test", "quotient-cone"])
    def test_dim_below_suite_minimum_exit_two(self, suite, capsys):
        minimum = 3 if suite == "quotient-cone" else 2
        assert main(["run", "--suite", suite, "--dim", str(minimum - 1)]) == 2
        err = capsys.readouterr().err
        assert suite in err and f"dim >= {minimum}" in err
        assert "low >= high" not in err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tol_exit_two(self, tol, capsys):
        assert main(["run", "--suite", "roots", "--tol", tol]) == 2
        assert "iter_tol must be finite and strictly positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "suite, code",
        [("closure-battery", 0), ("nonunital-battery", 0), ("roots", 0), ("quotient-cone", 1)],
    )
    def test_tiny_tol_writes_a_report(self, suite, code, tmp_path, capsys):
        # The unit, xyx and commutator residuals are judged by the rank and
        # rounding rules, not by iter_tol.  quotient-cone fails honestly:
        # its quotient norms do not certify to a width of 1e-17.
        out = tmp_path / "tiny.json"
        argv = ["run", "--suite", suite, "--trials", "3", "--tol", "1e-17", "--out", str(out)]
        assert main(argv) == code

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads(out.read_text(), parse_constant=refuse)
        assert payload["config"]["iter_tol"] == 1e-17
        failing = {c["name"] for c in payload["cases"] if c["status"] == "fail"}
        assert failing <= {"block-inclusions", "closed-form-gap"} and bool(failing) == bool(code)
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("tol", [1e-17, 1e-13, 1e-9, 1e-6, 1e-3])
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_tol_sweep_exits_zero_or_one(self, suite, tol, request):
        # Every --tol gives a report.  The fails are certificates that cannot
        # close to so small a width, still open (direction 11): ocp-falsify's
        # Stinespring excess and quotient-cone's quotient norms.
        if (suite, tol) == ("support-routes", 1e-17):
            request.applymarker(pytest.mark.xfail(
                raises=ConvergenceError, strict=True,
                reason="the power limit's absolute stop cannot settle to 1e-17 (directions 15, 17)",
            ))
        fails = {("ocp-falsify", 1e-17), ("ocp-falsify", 1e-13), ("quotient-cone", 1e-17)}
        code = main(["run", "--suite", suite, "--trials", "5", "--tol", repr(tol)])
        assert code == (1 if (suite, tol) in fails else 0)

    @pytest.mark.parametrize("tol", ["1e-17", "1e-13", "1e-9", "1e-3", "0.5"])
    def test_sharp_neumann_band_does_not_read_tol(self, tol, tmp_path):
        reports = []
        for extra in ([], ["--tol", tol]):
            out = tmp_path / f"sharp{len(extra)}.json"
            argv = ["run", "--suite", "sharp-neumann", "--trials", "5", "--out", str(out), *extra]
            assert main(argv) == 0
            reports.append(json.loads(out.read_text()))
        default, swept = reports
        assert swept["config"]["iter_tol"] == float(tol)
        assert (swept["cases"], swept["failures"]) == (default["cases"], default["failures"])

    def test_missing_flag_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run"])
        assert excinfo.value.code == 2

    def test_example_rdr(self, tmp_path):
        out = tmp_path / "rdr.json"
        assert main(["example", "rdr", "--size", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["example"] == "rdr"
        assert payload["payload"]["n"] == 3
        assert payload["payload"]["min_commutator"] == pytest.approx(0.5, abs=1e-10)
        assert len(payload["payload"]["basis"]) == 3

    def test_example_two_dim(self, tmp_path):
        out = tmp_path / "alg.json"
        assert main(["example", "two-dim", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["payload"]["ambient_dim"] == 2
        assert len(payload["payload"]["basis"]) == 2

    def test_example_two_dim_rejects_size(self, tmp_path, capsys):
        out = tmp_path / "alg.json"
        assert main(["example", "two-dim", "--size", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: example 'two-dim' takes no --size\n"
        assert not out.exists()

    def test_example_volterra(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["example", "volterra", "--size", "10", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["payload"]["spectral_radius"] == pytest.approx(0.05, abs=1e-12)
        assert payload["payload"]["matrix"]["dim"] == 10

    def test_unknown_example_exit_two(self, capsys):
        assert main(["example", "bogus", "--out", "/tmp/unused.json"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown example 'bogus'")

    def test_unwritable_out_exit_two(self):
        code = main(
            ["run", "--suite", "domar-bump", "--out", "/nonexistent-dir/x.json"]
        )
        assert code == 2
