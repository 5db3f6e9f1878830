"""Pinned suite outcomes: the one place that runs, rewrites and compares them.

``tests/golden/suites.json`` holds per registered suite a list of runs
``{"config", "cases", "failures"}``: first its reduced config at seed 3, then
its default config ``{}``, each config giving only the ``SuiteConfig`` fields
that differ from the suite's defaults.  From the repository root,

    python3 tests/pins.py           # rerun the configs, rewrite it and oabench/verdicts.json
    python3 tests/pins.py --check   # rerun the configs, write nothing, exit 1 if one moved

Both print every moved entry.  The rewrite pins a registered suite that the
file lacks at ``{}``; a run entered with no cases gains its outcome.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "suites.json"

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "oabench"))
    import run  # noqa: F401  (pins the BLAS to one thread and puts src/ on sys.path)

from oalab.suites import SUITE_NAMES, SuiteConfig, run_suite  # noqa: E402

# A pinned margin may move by REL times max(|pinned margin|, tol).
REL = 1e-6


def rerun(suite: str, configs: list) -> list:
    """Run ``suite`` at each config; the runs as the golden file records them."""
    reports = [run_suite(SuiteConfig(suite=suite, **config)) for config in configs]
    return [{"config": c, "cases": r.cases, "failures": r.failures} for c, r in zip(configs, reports)]


def moved(suite: str, pinned: list, runs: list, rel: float = REL) -> list:
    """Every ``(suite, config, case, old, new)`` in which ``runs`` differ from ``pinned``.

    Runs pair up in order.  Failures, case names and order, statuses and tols
    must match exactly; a margin may move by ``rel`` times ``max(|pinned
    margin|, tol)``.  ``old`` and ``new`` hold the moved fields, or a whole case.
    """
    entries = []
    for old, new in zip(pinned, runs):
        config, failures = old["config"], old["failures"]
        olds = {case["name"]: case for case in old["cases"]}
        news = {case["name"]: case for case in new["cases"]}
        for name in {**olds, **news}:
            a, b = olds.get(name), news.get(name)
            if a is None or b is None:
                entries.append((suite, config, name, a, b))
                continue
            fields = [key for key in ("margin", "status", "tol") if a[key] != b[key]]
            if abs(b["margin"] - a["margin"]) <= rel * max(abs(a["margin"]), a["tol"]):
                fields = [key for key in fields if key != "margin"]
            if fields:
                entries.append((suite, config, name, {k: a[k] for k in fields}, {k: b[k] for k in fields}))
        if list(olds) != list(news) and olds.keys() == news.keys():
            entries.append((suite, config, "case order", list(olds), list(news)))
        if failures != new["failures"]:
            entries.append((suite, config, "failures", failures, new["failures"]))
    return entries


def pin(suite: str, golden: dict, rel: float = REL) -> tuple:
    """Rerun the pinned configs of ``suite``: its runs, and every entry that moved."""
    if suite not in SUITE_NAMES:
        return [], [(suite, None, None, "pinned", "not a registered suite")]
    pinned = golden.get(suite) or [{"config": {}, "cases": [], "failures": []}]
    runs = rerun(suite, [run["config"] for run in pinned])
    return runs, moved(suite, pinned, runs, rel)


def describe(entry: tuple) -> str:
    suite, config, case, old, new = entry
    where = [suite, json.dumps(config, sort_keys=True), case]
    return " ".join(part for part in where if part not in (None, "null")) + f": {old!r} -> {new!r}"


def main(check: bool = False) -> int:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    runs, entries = {}, []
    for suite in sorted(set(SUITE_NAMES) | set(golden)):
        suite_runs, suite_moved = pin(suite, golden, REL if check else 0.0)
        if suite_runs:
            runs[suite] = suite_runs
        entries += suite_moved
    print(*map(describe, entries), f"{len(entries)} pinned entries moved", sep="\n", flush=True)
    if check:
        return 1 if entries else 0
    GOLDEN.write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return subprocess.call([sys.executable, str(ROOT / "oabench" / "pin_verdicts.py")], cwd=ROOT)


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: python3 tests/pins.py [--check]")
    sys.exit(main(check=sys.argv[1:] == ["--check"]))
