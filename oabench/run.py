"""oalab benchmark: time to verdict on three workloads, self time per layer.

Run from the repository root:

    python3 oabench/run.py --workload suites-small --seed 1 --seconds 30 --trace 0

``--trace 0`` makes as many passes over the workload's job list as fit in
``--seconds`` (at least two) with tracing off, and reports the end-to-end
metrics.  ``wall_s`` is the time of one pass, taken as the sum over the
jobs of each job's median time over the passes: where passes are few and
long, as on kernels-large, it spread across seeds less than the median or
mean pass time did.

Times are scaled to a fixed host speed.  On a shared host, other tenants
slow every kind of code (pure Python and LAPACK alike, with no steal time
and CPU time equal to wall time) by up to 1.6x, in phases that last from a
second to minutes, so that whole runs land in a slow phase.  So the
benchmark times a fixed numpy-only reference loop (``HostSpeed``) between
jobs, at least every ``CALIBRATE_EVERY_S`` seconds of job time, and scales
the job times between two samples by ``REFERENCE_S`` over their mean: a
time reads as it would on a host where the loop takes ``REFERENCE_S``.  The
reference loop never calls ``oalab``, so a change to ``oalab`` cannot move
it.  Over two minutes of passes on one seed this cut the spread of pass
times from a coefficient of variation of 0.08-0.12 to 0.04.  Each pass line
prints the unscaled time too.  ``setup_s`` is not scaled: its import runs
in a child process, whose speed samples taken in this one did not track.

``--trace 1`` makes an untraced, a traced and another untraced pass,
reports the per-layer metrics from the traced one, and writes its spans to
``.oabench/``.  Every job's output is checked against its reference in
every pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those listed in ``BENCHMARK.json``.  The lines before it give the
run's provenance, one line per pass and every failure.

The whole load runs in this one process, with the BLAS pinned to one thread
before numpy is first imported.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Set before numpy is first imported, which happens inside main().
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

SETUP_REPEATS = 7
# The reference loop's time on the 2-vCPU Xeon VM (2.0 GHz, scipy-openblas
# on one thread) the benchmark was tuned on, in its faster phases.
REFERENCE_S = 0.016
CALIBRATE_EVERY_S = 0.5
MIN_PASSES = 2
WORKLOAD_NAMES = ("suites-small", "kernels-large", "certify-mid")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="oalab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def provenance() -> dict:
    import numpy as np
    import scipy

    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip()
        except OSError:
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


class HostSpeed:
    """A fixed reference loop of pure Python, small SVDs and one mid-sized
    eigensolve, the mix of work that ``oalab`` does, timed to gauge how fast
    the shared host runs at the moment."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self.mid = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        for _ in range(3):
            self.sample()

    def sample(self) -> float:
        import numpy as np

        start = time.perf_counter()
        total = 0
        for i in range(60000):
            total += i * i
        for _ in range(300):
            np.linalg.svd(self.small, compute_uv=False)
        np.linalg.eigvals(self.mid)
        return time.perf_counter() - start

    def scale(self, before: float, after: float) -> float:
        """Factor from time measured between samples ``before`` and ``after``
        to time at the reference speed."""
        return REFERENCE_S / ((before + after) / 2.0)


def import_seconds() -> float:
    """Wall time of ``import oalab`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import oalab"], cwd=ROOT, env=env, check=True, timeout=120)
    return time.perf_counter() - start


def run_pass(jobs, speed: HostSpeed, tracer=None) -> dict:
    """One pass over ``jobs``: time the calls alone, then check each output.

    The job times since the last host-speed sample are scaled by it and
    the next one, taken once they add up to ``CALIBRATE_EVERY_S`` and at
    the end of the pass.
    """
    failures = []
    verdicts = certified = 0
    points = {}
    raw = segment = 0.0
    times, pending = [], []
    last = speed.sample()
    for job in jobs:
        first_span = len(tracer.spans) if tracer else 0
        start = time.perf_counter()
        try:
            out = job.call()
        except Exception as exc:  # a job that raises is a failed job
            out = exc
        pending.append(time.perf_counter() - start)
        segment += pending[-1]
        if isinstance(out, Exception):
            failures.append(f"{job.name}: raised {out!r}")
        else:
            if tracer:
                points[job.name] = tracer.duration(first_span)
            reason = job.check(out)
            if reason:
                failures.append(f"{job.name}: {reason}")
            if job.verdict:
                verdicts += 1
                certified += out.status == "CERTIFIED"
        if segment >= CALIBRATE_EVERY_S or job is jobs[-1]:
            now = speed.sample()
            factor = speed.scale(last, now)
            times += [t * factor for t in pending]
            raw += segment
            last, segment, pending = now, 0.0, []
    return {
        "wall_s": sum(times),
        "raw_s": raw,
        "times": times,
        "failures": failures,
        # With no job that can be inconclusive, none was.
        "certified_ratio": certified / verdicts if verdicts else 1.0,
        "points": points,
    }


def select(values: dict, listed: list) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oalab" / "__init__.py").is_file():
        print(f"error: no oalab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    import numpy as np

    import oalab
    from tracing import Tracer
    from workloads import POINTS, WORKLOADS

    if Path(oalab.__file__).resolve().parent != SRC / "oalab":
        print(f"error: imported oalab from {oalab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True))

    build = WORKLOADS[args.workload]
    speed = HostSpeed()
    imports, generations = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        # Drop the previous inputs first, so that peak memory is not set
        # by two sets of them at once.
        jobs = None
        start = time.perf_counter()
        jobs = build(np.random.default_rng(args.seed))
        generations.append(time.perf_counter() - start)
    setup_s = statistics.median(imports) + statistics.median(generations)

    passes = []
    tracer = None
    if args.trace:
        # Untraced passes on both sides of the traced one, so that a drift
        # in machine speed cancels out of the tracing overhead.
        passes.append(run_pass(jobs, speed))
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(jobs, speed, tracer))
        finally:
            tracer.uninstall()
        passes.append(run_pass(jobs, speed))
    else:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(jobs, speed))
            used = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and used + used / len(passes) > args.seconds:
                break

    failures = [f for p in passes for f in p["failures"]]
    attempted = len(jobs) * len(passes)
    for i, p in enumerate(passes):
        print(f"pass {i}: wall_s {p['wall_s']:.4f} unscaled {p['raw_s']:.4f} failures {len(p['failures'])}")
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"failed_ratio {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted} jobs)")

    if args.trace:
        before, traced, after = passes
        values = tracer.metrics()
        values["trace.overhead_s"] = traced["wall_s"] - (before["wall_s"] + after["wall_s"]) / 2.0
        values.update({f"{point}.s": traced["points"].get(point, 0.0) for point in POINTS})
        metrics = select(values, spec["per_layer"])
        tracer.write(ROOT / ".oabench" / f"spans-{args.workload}-seed{args.seed}.npz", prov)
    else:
        values = {
            "wall_s": sum(map(statistics.median, zip(*(p["times"] for p in passes)))),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "certified_ratio": passes[0]["certified_ratio"],
        }
        metrics = select(values, spec["end_to_end"])
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
