"""Closed-loop benchmark of the avalanche-chain package.

Run from the repository root:

    python3 bench/run.py --workload mc_short --seed 1 --seconds 15 --trace 0

One caller runs whole rounds of the workload's operations until
`--seconds` have passed, each call waiting for the one before.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with
`--trace 1`.  The line before it records the run: versions, seed,
sample counts, quartiles and the per-operation counts.

`--workload all` runs the four workloads one after another, each in
its own process, and prints a table of every end-to-end metric.
"""

import os

# One caller, one thread: OpenBLAS's idle worker spins on the second core
# after each call and slows the Python code that follows by 10-30% here.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5


def _import_program():
    """Import `avalanche` from ./src, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "avalanche" / "__init__.py").is_file():
        sys.exit(f"no avalanche package under {src}; run from the "
                 "repository root")
    sys.path.insert(0, str(src))
    import avalanche
    if Path(avalanche.__file__).resolve().parent != src / "avalanche":
        sys.exit(f"imported avalanche from {avalanche.__file__}, not {src}")


def _setup_seconds(workload: str) -> tuple[list[float], list[float]]:
    """Scaled and raw set-up times of fresh processes."""
    from calibration import slowdown
    from workloads import CLI_ARGS
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = slowdown()["all"]
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_time.py"), *CLI_ARGS[workload]],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * 2 / (before + slowdown()["all"]))
    return scaled, raw


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _versions() -> dict:
    import mpmath
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0))}


def _summary(values: list[float]) -> dict:
    quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"count": len(values), "median": statistics.median(values),
            "quartiles": quartiles}


def run(args, spec) -> tuple[dict, dict]:
    from calibration import slowdown
    from tracer import Tracer
    from workloads import Workload

    setups, raw_setups = _setup_seconds(args.workload)
    workload = Workload(args.workload, args.seed)
    problems = workload.prechecks()
    tracer = Tracer() if args.trace else None
    plain_s = traced_s = 0.0
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        workload.round(rounds, slowdown)
        plain_s += (time.perf_counter() - t0) / workload.slowdowns[-1]
        if tracer is not None:
            # the same inputs again, traced: the pair gives the overhead
            tracer.install()
            t0 = time.perf_counter()
            try:
                workload.round(rounds, slowdown)
            finally:
                tracer.uninstall()
            traced_s += (time.perf_counter() - t0) / workload.slowdowns[-1]
        rounds += 1
    problems += workload.problems()

    samples = workload.samples()
    samples["setup_s"] = setups
    samples["peak_rss_mb"] = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    metrics = {}
    if tracer is None:
        for m in spec["end_to_end"]:
            values = samples[m["name"]]
            if not values:
                problems.append(f"no sample for {m['name']}")
                continue
            metrics[m["name"]] = {"value": statistics.median(values),
                                  "unit": m["unit"]}
    else:
        for m in spec["per_layer"]:
            if m["name"] == "tracing.overhead":
                value = 100.0 * (traced_s / plain_s - 1.0)
            else:
                value = tracer.value(m["name"]) / rounds
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
        "git_sha": _git_sha(), **_versions(),
        "attempted": workload.attempted, "failed": workload.failed,
        "operations": workload.details(),
        "samples": {k: _summary(v) for k, v in samples.items() if v},
        "raw_samples": {k: _summary(v) for k, v in
                        {**workload.raw(), "setup_s": raw_setups}.items() if v},
        "slowdown": _summary(workload.slowdowns),
        "problems": problems,
    }
    result = {"correct": not problems, "attempted": workload.attempted,
              "failed": workload.failed, "metrics": metrics}
    return record, result


def run_all(args, spec) -> int:
    """Each workload in its own process; a table of end-to-end metrics."""
    rows, ok = {}, True
    for name in [w["name"] for w in spec["workloads"]]:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        print(done.stdout.strip().splitlines()[-2])
        rows[name] = json.loads(done.stdout.strip().splitlines()[-1])
        ok = ok and rows[name]["correct"]
    names = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':28s}{'unit':>8s}" + "".join(f"{w:>14s}" for w in rows))
    for m in names:
        unit = rows[next(iter(rows))]["metrics"][m]["unit"]
        print(f"{m:28s}{unit:>8s}" + "".join(
            f"{r['metrics'][m]['value']:14.5g}" for r in rows.values()))
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r in rows.values()),
                      "failed": sum(r["failed"] for r in rows.values()),
                      "metrics": {f"{w}.{m}": v for w, r in rows.items()
                                  for m, v in r["metrics"].items()}}))
    return 0


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit("BENCHMARK.json not found; run from the repository root")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args, spec)
    _import_program()
    record, result = run(args, spec)
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
