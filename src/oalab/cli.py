"""Command-line driver: verification suites and example constructors.

``oalab run --suite NAME [--dim N] [--trials K] [--seed S] [--tol X]
[--out PATH]`` executes one registered suite and prints one line per case;
``oalab example NAME [--size N] --out PATH`` writes a constructed example
as JSON (``--size`` for ``rdr`` and ``volterra`` only).  Exit codes: 0 all
cases pass, 1 at least one assertion failed, 2 usage error (unknown suite or
example, invalid flags).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .examples import example_rdr, example_two_dim, volterra
from .matcore import ITER_TOL, spectral_radius, to_jsonable
from .suites import SUITE_NAMES, SuiteConfig, run_suite

__all__ = ["main", "build_parser"]

_EXAMPLE_NAMES = ("two-dim", "rdr", "volterra")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oalab",
        description="Verification suites for the operator-cone laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a named verification suite")
    run_parser.add_argument(
        "--suite", required=True, help=f"one of: {', '.join(SUITE_NAMES)}"
    )
    run_parser.add_argument("--dim", type=int, help="matrix dimension cap")
    run_parser.add_argument("--trials", type=int, help="sample count")
    run_parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    run_parser.add_argument(
        "--tol", type=float, default=ITER_TOL,
        help=f"the iterative tolerance iter_tol (default {ITER_TOL:g})",
    )
    run_parser.add_argument("--out", help="write the JSON report to this path")

    example_parser = sub.add_parser("example", help="emit a constructed example as JSON")
    example_parser.add_argument("name", help=f"one of: {', '.join(_EXAMPLE_NAMES)}")
    example_parser.add_argument("--size", type=int, help="example size parameter")
    example_parser.add_argument("--out", required=True, help="output JSON path")
    return parser


def _example_payload(name: str, size: Optional[int]) -> dict:
    if name == "two-dim":
        if size is not None:
            raise ValueError("example 'two-dim' takes no --size")
        return {"example": name, "payload": example_two_dim()}
    if name == "rdr":
        n = size if size is not None else 4
        return {"example": name, "size": n, "payload": example_rdr(n)}
    if name == "volterra":
        n = size if size is not None else 100
        v = volterra(n)
        return {
            "example": name,
            "size": n,
            "payload": {"matrix": v, "spectral_radius": spectral_radius(v)},
        }
    raise ValueError(f"unknown example {name!r}; registered: {', '.join(_EXAMPLE_NAMES)}")


def _write_json(path: str, value, what: str) -> bool:
    """Write ``value``'s :func:`to_jsonable` form to ``path``; report a failure."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(to_jsonable(value), handle, sort_keys=True, indent=2, allow_nan=False)
            handle.write("\n")
    except OSError as exc:
        print(f"error: cannot write {what}: {exc}", file=sys.stderr)
        return False
    print(f"{what} written to {path}")
    return True


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            cfg = SuiteConfig(
                suite=args.suite, dim=args.dim, trials=args.trials, seed=args.seed,
                iter_tol=args.tol,
            )
            report = run_suite(cfg)
        except (KeyError, ValueError) as exc:
            # str() of a KeyError is the repr of its message, quotes and all
            message = exc.args[0] if isinstance(exc, KeyError) else exc
            print(f"error: {message}", file=sys.stderr)
            return 2
        for case in report.cases:
            print(
                f"{report.suite}/{case['name']}: {case['status']}"
                f" (margin {case['margin']:.3e}, tol {case['tol']:.1e})"
            )
        if args.out and not _write_json(args.out, report, "report"):
            return 2
        return 0 if report.passed else 1

    if args.command == "example":
        try:
            payload = _example_payload(args.name, args.size)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0 if _write_json(args.out, payload, "example") else 2

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
