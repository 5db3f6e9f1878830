"""The committed golden suite outcomes and the benchmark's pinned verdicts
name the same cases with the same statuses, so a renamed, added or dropped
case fails here before the benchmark refuses a run over it."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "suites_reduced.json"
VERDICTS = ROOT / "oabench" / "verdicts.json"


def test_golden_cases_match_pinned_verdicts():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    pinned = json.loads(VERDICTS.read_text(encoding="utf-8"))
    assert set(pinned) <= set(golden)
    for suite, verdicts in pinned.items():
        got = {case["name"]: case["status"] for case in golden[suite]["cases"]}
        assert got == verdicts, suite
