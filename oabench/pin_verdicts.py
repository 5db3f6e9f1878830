"""Record the verdict of every suite the workloads run, as this commit gives it.

Runs each suite job of every workload for several seeds, requires the case
statuses to agree across seeds, and writes them to ``verdicts.json``, which
the benchmark's checks compare against.  Run from the repository root:

    python3 oabench/pin_verdicts.py
"""

from __future__ import annotations

import json
import sys

import run  # noqa: F401  (pins the BLAS threads and puts src/ on sys.path)

import numpy as np

from workloads import VERDICTS_PATH, WORKLOADS

SEEDS = range(5)


def main() -> int:
    verdicts: dict = {}
    for seed in SEEDS:
        for build in WORKLOADS.values():
            for job in build(np.random.default_rng(seed)):
                if job.suite is None:
                    continue
                report = job.call()
                got = {case["name"]: case["status"] for case in report.cases}
                if verdicts.setdefault(job.suite, got) != got:
                    print(f"error: {job.suite} verdicts differ at seed {seed}: {got}", file=sys.stderr)
                    return 1
                print(f"seed {seed} {job.suite}: {got}", flush=True)
    VERDICTS_PATH.write_text(json.dumps(verdicts, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {VERDICTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
