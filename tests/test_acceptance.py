"""Acceptance: every registered suite reproduces its pinned outcomes (the
rule of ``pins.moved``) at its reduced and default configs, and a rerun of
its reduced config byte for byte; and the ocp-falsify suite's 50 completely
positive maps withstand the falsifier's full budget."""

import json

import numpy as np
import pytest

import pins
from oalab.matcore import ITER_TOL
from oalab.ocpmap import dilation_bound, ocp_falsify
from oalab.suites import SUITE_NAMES, _ocp_falsify_draws

_GOLDEN = json.loads(pins.GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("suite", sorted(set(SUITE_NAMES) | set(_GOLDEN)))
def test_pinned_outcomes(suite):
    _, moved = pins.pin(suite, _GOLDEN)
    assert moved == [], "\n".join(map(pins.describe, moved))


def test_12_reruns_reproduce_outcomes():
    # Two runs of each suite's reduced config give byte-identical cases and failures.
    for suite in SUITE_NAMES:
        configs = [_GOLDEN[suite][0]["config"]]
        assert json.dumps(pins.rerun(suite, configs)) == json.dumps(pins.rerun(suite, configs)), suite


def test_cp_maps_withstand_the_full_falsifier_budget():
    # The ocp-falsify suite's 50 maps at its defaults, each certified by the
    # Stinespring dilation and searched with 10^4 evaluations per map, split
    # across levels 1..3 (the suite itself spends 10^3 per map).
    _, cp_draws = _ocp_falsify_draws(np.random.default_rng(0), 50)
    for trial, (cp_map, c, seed) in enumerate(cp_draws):
        assert dilation_bound(cp_map, c) - c <= ITER_TOL, trial
        for k, budget in ((1, 2000), (2, 3000), (3, 5000)):
            witness = ocp_falsify(cp_map, c, k=k, budget=budget, seed=seed)
            assert witness is None, (trial, k, witness)
