"""rsadyn benchmark: four workloads over the CLI and the probe API.

    python3 perfbench/run.py --workload census --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; the program measured is that checkout's
`src/rsadyn`. Workloads (BENCHMARK.json records why each was chosen):

  census        `rsadyn salem` and `rsadyn verify --j 1` over a degree-
                stratified sample of (n, m), 3 <= n <= 10, nm <= 40
  linearize     `rsadyn linearize` at degrees 8, 12, 16, plus two
                obstruction commands that must exit 5
  raster        a deep raster at one and two threads, a shallow wide raster
  domain-probe  the rotation-domain probe API, in this process

With `--trace 0` the workload runs round(--seconds / nominal pass length)
passes over the same inputs, at least one, and the end-to-end metrics are
reported. With `--trace 1` one untraced pass is followed by one pass
with the layer tracer (perfbench/tracer.py) installed in every command, and
the per-layer metrics are reported; `trace_overhead_s` is the difference of
the two pass walls.

The line before last is the full report: provenance, every metric with its
sample count, the per-command latency (median and tail, with the tail's
percentile), fail_ratio and the workload's own throughput (members_per_s,
cells_per_s). The last line is the summary
`{"correct", "attempted", "failed", "metrics"}`.

This is not `rsadyn bench`, which compares the numba and numpy kernels on
one grid and stays as it is.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import tracer
import workloads

SETUP_REPEATS = 5
MAX_MEASURE_S = 120     # never plan passes beyond this, whatever --seconds

# The gated end-to-end metrics. Per-command latency (median and tail) is
# printed in the report but not gated: on a shared 2-CPU host its spread
# over ten seeds reached 0.2-0.3 of its median, at or past the largest
# bound a gate may have (0.25).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# the workload's own name for work_per_s
THROUGHPUT_NAME = {"census": "members_per_s", "raster": "cells_per_s"}


def tail(latencies):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, or the maximum when that would not lie above the median
    (fewer than 21 samples)."""
    lat = sorted(latencies)
    n = len(lat)
    k = n - 11 if n >= 21 else n - 1
    return lat[k], 100.0 * (k + 1) / n


def provenance(seed, sizes):
    mods = workloads.import_rsadyn()
    import mpmath
    import numpy
    commit = None
    if (workloads.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                timeout=30).stdout.decode().strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "kernel_backend": mods["_kernels"].BACKEND,
        "have_numba": mods["_kernels"].HAVE_NUMBA,
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "seed": seed,
        "sizes": sizes,
    }


def run_pass(wl, seed, tmp, traced=False, small=False, state=None):
    if wl.jobs is not None:
        return workloads.run_cli_pass(wl.jobs(seed, small), tmp, wl.work,
                                      wl.cross_check, traced)
    mods, params, cands = state
    inputs = workloads.domain_inputs(seed, small)
    if not traced:
        return workloads.run_domain_pass(mods, params, cands, inputs)
    tr = tracer.Tracer()
    tr.install("rsadyn")
    try:
        done = workloads.run_domain_pass(mods, params, cands, inputs)
    finally:
        tr.uninstall()
    done.outcomes[0].spans = {"spans": tr.spans, "counts": tr.counts}
    return done


def sizes_of(wl, seed):
    if wl.jobs is not None:
        jobs = wl.jobs(seed)
        return {"commands": len(jobs),
                "inputs": [" ".join(j.argv) for j in jobs]}
    return dict(workloads.domain_inputs(seed), member=workloads.PROBE_MEMBER,
                mp_budget=workloads.MP_BUDGET,
                slice_budget=workloads.SLICE_BUDGET)


def end_to_end(wl, seed, seconds, tmp, state):
    setup = [workloads.measure_setup(wl, tmp) for _ in range(SETUP_REPEATS)]
    planned = max(1, round(min(seconds, MAX_MEASURE_S) / wl.nominal_pass_s))
    passes = [run_pass(wl, seed, tmp, state=state) for _ in range(planned)]

    latencies = [o.seconds for p in passes for o in p.outcomes]
    tail_value, tail_pct = tail(latencies)
    work = sum(p.work for p in passes)
    wall_total = sum(p.wall for p in passes)
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(p.wall for p in passes), len(passes)),
        "work_per_s": (work / wall_total, len(passes)),
        "peak_rss_mb": (max(p.peak_rss_mb for p in passes), len(passes)),
    }
    extra = {"latency": {
                 "cmd_p50_s": {"value": statistics.median(latencies),
                               "unit": "s", "samples": len(latencies)},
                 "cmd_tail_s": {"value": tail_value, "unit": "s",
                                "samples": len(latencies),
                                "percentile": tail_pct}},
             "passes": len(passes), "work_unit": wl.work_unit}
    if wl.name in THROUGHPUT_NAME:
        extra[THROUGHPUT_NAME[wl.name]] = work / wall_total
    return values, dict(END_TO_END), extra, passes


def per_layer(wl, seed, tmp, state):
    plain = run_pass(wl, seed, tmp, state=state)
    traced = run_pass(wl, seed, tmp, traced=True, state=state)
    total, per_command = {}, {}
    process_s = 0.0
    for out in traced.outcomes:
        if out.spans is None:
            continue
        summary = tracer.summarize(out.spans["spans"], out.spans["counts"])
        tracer.merge(total, summary)
        if wl.jobs is not None:
            inside = sum(s[4] - s[3] for s in out.spans["spans"]
                         if s[0] == tracer.CLI_SPAN)
            process_s += out.seconds - inside
            kind = per_command.setdefault(out.kind, {"n": 0})
            kind["n"] += 1
            for key, value in summary.items():
                if key.endswith(".calls"):
                    kind[key] = kind.get(key, 0) + value
    metrics = tracer.per_layer_metrics(total)
    metrics["cli.process_s"] = process_s
    metrics["trace_overhead_s"] = traced.wall - plain.wall
    values = {name: (metrics[name], 1) for name, _ in tracer.PER_LAYER}
    calls_per_command = {
        kind: {k: v / d["n"] for k, v in d.items() if k != "n"}
        for kind, d in per_command.items()}
    extra = {"untraced_wall_s": plain.wall, "traced_wall_s": traced.wall,
             "calls_per_command": calls_per_command}
    return values, dict(tracer.PER_LAYER), extra, [plain, traced]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (workloads.SRC / "rsadyn" / "cli.py").is_file():
        print("perfbench: no rsadyn source under %s" % workloads.SRC,
              file=sys.stderr)
        return 2

    # one BLAS thread here too, set before numpy loads: domain-probe runs
    # numpy in this process
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    wl = workloads.WORKLOADS[args.workload]
    tmp = workloads.ROOT / ".perfbench_tmp" / ("%s-%d"
                                               % (wl.name, os.getpid()))
    tmp.mkdir(parents=True)
    try:
        state = None
        if wl.jobs is None:
            mods = workloads.import_rsadyn()
            state = (mods,) + workloads.domain_setup(mods)
        if args.trace:
            values, units, extra, passes = per_layer(wl, args.seed, tmp,
                                                     state)
        else:
            values, units, extra, passes = end_to_end(
                wl, args.seed, args.seconds, tmp, state)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if o.problem is not None]
    counts = {}
    for p in passes[-1:]:
        for o in p.outcomes:
            for key, value in o.counts.items():
                counts[key] = counts.get(key, 0) + value
    report = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed, sizes_of(wl, args.seed)),
        "metrics": {name: {"value": v, "unit": units[name], "samples": k}
                    for name, (v, k) in values.items()},
        "fail_ratio": len(failed) / len(outcomes),
        "work_counts_per_pass": counts,
        "problems": ["%s: %s" % (o.label, o.problem) for o in failed[:20]],
    }
    report.update(extra)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": units[name]}
                    for name, (v, _) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
