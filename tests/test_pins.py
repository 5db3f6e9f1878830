"""The pins: the golden suite runs name the same cases with the same statuses
as the benchmark's pinned verdicts, so a renamed, added or dropped case fails
here before the benchmark refuses a run over it; and ``tests/pins.py
--check`` names every moved entry, and writes nothing, when an outcome moves."""

import json
import re

import pins
from oalab import suites


def test_golden_cases_match_pinned_verdicts():
    golden = json.loads(pins.GOLDEN.read_text(encoding="utf-8"))
    pinned = json.loads((pins.ROOT / "oabench" / "verdicts.json").read_text(encoding="utf-8"))
    for suite, verdicts in pinned.items():
        for run in golden[suite]:
            assert {case["name"]: case["status"] for case in run["cases"]} == verdicts, (suite, run)


def test_check_names_every_moved_entry(monkeypatch, capsys):
    runner, *rest = suites._REGISTRY["roots"]

    def changed(run):
        runner(run)
        run.margins["half-root-squares"][0] *= 2.0
        run.margins["roots-stay-in-cone"][0] = -1.0
        run.margins["half-cone-roots-stay"][1] = 0.5
        del run.margins["roots-in-generated-span"]
        run.case("added-case", 1.0, 0.0)

    monkeypatch.setitem(suites._REGISTRY, "roots", (changed, *rest))
    before = pins.GOLDEN.read_bytes()
    assert pins.main(check=True) == 1
    assert pins.GOLDEN.read_bytes() == before
    moves = [
        r"half-root-squares: \{'margin': \S+\} -> \{'margin': \S+\}",
        r"roots-stay-in-cone: \{'margin': \S+, 'status': 'pass'\} -> \{'margin': -1.0, 'status': 'fail'\}",
        r"half-cone-roots-stay: \{'tol': 1e-08\} -> \{'tol': 0.5\}",
        r"roots-in-generated-span: \{.*\} -> None",
        r"added-case: None -> \{.*\}",
    ]
    runs = json.loads(before)["roots"]
    expected = [re.escape(f"roots {json.dumps(run['config'])} ") + move for run in runs for move in moves]
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"{len(expected)} pinned entries moved"
    assert len(lines) == len(expected) + 1 and all(map(re.fullmatch, expected, lines)), lines


def test_check_fails_on_unpinned_and_unregistered_suites(monkeypatch, tmp_path, capsys):
    runs = json.loads(pins.GOLDEN.read_text(encoding="utf-8"))["domar-criterion"]
    monkeypatch.setattr(pins, "SUITE_NAMES", ("domar-criterion",))
    monkeypatch.setattr(pins, "GOLDEN", tmp_path / "suites.json")
    for golden, named in (
        ({}, "domar-criterion {} gaussian-ratio-integral: None -> {"),
        ({"domar-criterion": runs, "extra": runs}, "extra: 'pinned' -> 'not a registered suite'"),
    ):
        pins.GOLDEN.write_text(json.dumps(golden), encoding="utf-8")
        assert pins.main(check=True) == 1
        assert named in capsys.readouterr().out
