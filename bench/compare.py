"""Compare end-to-end metrics between two sets of benchmark runs.

Each argument is a directory of saved standard outputs, one file per
run (`bench/run.py ... > DIR/<workload>.<seed>.out`).  For every
workload and metric it prints both medians, the change, and a verdict
against the metric's bound in BENCHMARK.json:

    python3 bench/compare.py parent_runs/ change_runs/

`worse` means the change's median is worse than the parent's by more
than the bound; `unresolved` means the parent's own spread (distance
between quartiles over median) is wider than the bound, so no verdict
can be drawn, unless every run of the change beats every run of the
parent (`better`); otherwise `ok`.
"""

from collections import defaultdict
import json
from pathlib import Path
import statistics
import sys


def load(directory: str) -> dict:
    """{(workload, metric): [values]} plus failed shares per workload."""
    values = defaultdict(list)
    for path in sorted(Path(directory).glob("*.out")):
        lines = path.read_text().strip().splitlines()
        run, result = json.loads(lines[-2])["run"], json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values[(run["workload"], name)].append(metric["value"])
        values[(run["workload"], "failed_share")].append(
            result["failed"] / result["attempted"])
    return values


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    print(f"{'workload':10s}{'metric':24s}{'parent':>13s}{'change':>13s}"
          f"{'change%':>9s}{'spread%':>9s}  verdict")
    for key in sorted(parent):
        workload, name = key
        a, b = parent[key], change.get(key, [])
        if not b:
            print(f"{workload:10s}{name:24s} missing in the change")
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        rel = (mb - ma) / ma if ma else 0.0
        if name == "failed_share":
            verdict = "ok" if set(a) == set(b) else "differs"
            spread = 0.0
        else:
            m = meta[name]
            q = statistics.quantiles(a, n=4) if len(a) > 1 else [ma] * 3
            spread = (q[2] - q[0]) / ma
            lower = m["better"] == "lower"
            if spread > m["bound"]:
                # only a change that beats every parent run still counts
                beats = max(b) < min(a) if lower else min(b) > max(a)
                verdict = "better" if beats else "unresolved"
            else:
                worse = rel if lower else -rel
                verdict = "worse" if worse > m["bound"] else "ok"
        print(f"{workload:10s}{name:24s}{ma:13.5g}{mb:13.5g}"
              f"{100 * rel:9.1f}{100 * spread:9.1f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
