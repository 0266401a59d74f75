"""Compare two sets of benchmark results, per workload and metric.

    python3 perfbench/compare.py BASE.txt... --vs NEW.txt...

Each file is the standard output of one `perfbench/run.py` run. For every
workload and end-to-end metric the medians of both sides are compared
against the metric's bound in BENCHMARK.json; a worse median by more than
the bound is a regression (exit 1). Results measured with different kernel
backends are not comparable and are refused (exit 2).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    reports = []
    for path in paths:
        for line in Path(path).read_text().splitlines():
            if line.startswith('{"report"'):
                reports.append(json.loads(line)["report"])
    return reports


def backend(report):
    prov = report["provenance"]
    return prov["kernel_backend"], prov["have_numba"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", nargs="+")
    ap.add_argument("--vs", nargs="+", required=True, dest="new")
    args = ap.parse_args(argv)
    base = [r for r in load(args.base) if r["trace"] == 0]
    new = [r for r in load(args.new) if r["trace"] == 0]
    if not base or not new:
        print("compare: no untraced results on one side", file=sys.stderr)
        return 2
    backends = {backend(r) for r in base + new}
    if len(backends) > 1:
        print("compare: refusing results from different kernel backends: %s"
              % sorted(backends), file=sys.stderr)
        return 2

    metrics = json.loads(SPEC.read_text())["end_to_end"]
    regressed = False
    print("%-13s %-12s %12s %12s %8s  %s"
          % ("workload", "metric", "base", "new", "change", "verdict"))
    for workload in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            continue
        for m in metrics:
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b)
            mn = statistics.median(r["metrics"][m["name"]]["value"] for r in n)
            change = (mn - mb) / mb
            worse = change if m["better"] == "lower" else -change
            verdict = "regression" if worse > m["bound"] else "ok"
            regressed = regressed or verdict == "regression"
            print("%-13s %-12s %12.5g %12.5g %+7.1f%%  %s (%d vs %d runs)"
                  % (workload, m["name"], mb, mn, 100 * change, verdict,
                     len(b), len(n)))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
