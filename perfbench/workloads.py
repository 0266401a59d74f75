"""Workloads of the rsadyn benchmark: seeded inputs and output oracles.

A workload is a pass over a list of inputs. `census`, `linearize` and
`raster` run each input as its own `rsadyn` command in a fresh interpreter,
one at a time, the way users run them; `domain-probe` calls the probe API in
the benchmark's own process. Every command or call is checked against an
oracle after the pass, outside the timed region; an outcome whose exit code
or output misses its expectation carries the reason in `problem`.

The same seed gives the same inputs. `small=True` gives the smallest sizes,
used by the smoke test.
"""

import csv
import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

COMMAND_TIMEOUT_S = 170


def child_env():
    """Environment of every child: one BLAS thread (np.roots calls LAPACK),
    a fixed hash seed, and the source tree of the checkout being measured."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=str(SRC))
    return env


@dataclass
class Job:
    """One rsadyn command and the oracle its output must satisfy."""

    argv: list                # "{tmp}" stands for the pass's output directory
    expect_rc: int
    oracle: str
    member: tuple = None
    ref: str = None           # key into refs.json for raster outputs


@dataclass
class Outcome:
    """One command or API call, timed, with its oracle verdict."""

    label: str
    seconds: float
    problem: str = None
    counts: dict = field(default_factory=dict)
    spans: dict = None        # traced commands only: the dumped trace
    kind: str = None          # command and expected exit code


@dataclass
class Pass:
    wall: float
    peak_rss_mb: float
    outcomes: list
    work: int


def _rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0      # KiB on Linux


# ---------------------------------------------------------------------------
# exact family polynomial and its leading root (independent of rsadyn)
# ---------------------------------------------------------------------------

def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divexact(num, den):
    """Quotient of ascending integer coefficient lists; den is monic."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = num[k + len(den) - 1]
        for i, d in enumerate(den):
            num[k + i] -= q[k] * d
    if any(num):
        raise ArithmeticError("inexact division")
    return q


def family_polynomial(n, m):
    """t(t^nm - 1)(t^n - 2t^(n-1) + 1) / ((t^n - 1)(t - 1)) + 1, ascending."""
    num = _mul(_mul([0, 1], [-1] + [0] * (n * m - 1) + [1]),
               [1] + [0] * (n - 2) + [-2, 1])
    q = _divexact(_divexact(num, [-1] + [0] * (n - 1) + [1]), [-1, 1])
    q[0] += 1
    return q


def log_leading_root(coeffs):
    """log of the largest real root, Newton-refined at 60 digits."""
    import mpmath
    import numpy as np
    desc = coeffs[::-1]
    guess = max(np.roots(desc), key=abs).real
    with mpmath.workdps(60):
        return mpmath.log(mpmath.findroot(lambda x: mpmath.polyval(desc, x),
                                          mpmath.mpf(guess)))


# ---------------------------------------------------------------------------
# census: salem + verify over a degree-stratified sample of the family
# ---------------------------------------------------------------------------

CENSUS_DEGREES = (6, 12, 20, 30, 40)


def census_members():
    """Every family member (n, m) with 3 <= n <= 10 and nm <= 40."""
    return [(n, m) for n in range(3, 11) for m in range(1, 41)
            if n * m <= 40 and (n, m) != (3, 1)]


def census_jobs(seed, small=False):
    rng = random.Random(seed)
    by_degree = {}
    for n, m in census_members():
        by_degree.setdefault(n * m, []).append((n, m))
    sample = [rng.choice(by_degree[d]) for d in ((4,) if small
                                                 else CENSUS_DEGREES)]
    rng.shuffle(sample)

    def nm(n, m):
        return ["--n", str(n), "--m", str(m)]
    # (3, 1) is constructible but not Salem (exit 3), and outside the
    # verifiable family (exit 2)
    jobs = [Job(["salem"] + nm(3, 1), 3, "not_salem", (3, 1)),
            Job(["verify"] + nm(3, 1) + ["--j", "1"], 2, "rc_only", (3, 1))]
    for n, m in sample:
        jobs.append(Job(["salem"] + nm(n, m), 0, "salem", (n, m)))
        jobs.append(Job(["verify"] + nm(n, m) + ["--j", "1"], 0, "verify",
                        (n, m)))
    # the perturbed verify reuses the degree-20 member, so its cost does
    # not depend on the seed
    n, m = sample[0] if small else next(mem for mem in sample
                                        if mem[0] * mem[1] == 20)
    jobs.append(Job(["verify"] + nm(n, m) + ["--j", "1", "--perturb", "1e-5"],
                    4, "perturbed", (n, m)))
    return jobs


def _check_salem(report, n, m, salem):
    coeffs = [int(c) for c in report["coefficients"]]
    if coeffs != family_polynomial(n, m):
        return "coefficients differ from the exact polynomial"
    if report["salem"] is not salem:
        return "salem flag is %r" % (report["salem"],)
    if salem:
        import mpmath
        with mpmath.workdps(60):
            gap = abs(mpmath.mpf(report["entropy"]) - log_leading_root(coeffs))
        if not gap < mpmath.mpf(10) ** -30:
            return "entropy differs from log lambda by %s" \
                % mpmath.nstr(gap, 3)
    return None


def census_work(outcomes, jobs):
    """Family members whose salem and verify both met expectations."""
    met = {}
    for job, out in zip(jobs, outcomes):
        if job.oracle in ("salem", "verify"):
            met.setdefault(job.member, []).append(out.problem is None)
    return sum(1 for oks in met.values() if len(oks) == 2 and all(oks))


# ---------------------------------------------------------------------------
# linearize: corner and line-point conjugacy solves
# ---------------------------------------------------------------------------

LINEARIZE_MEMBERS = ((4, 1, 1), (5, 1, 1), (7, 2, 1))
LINEARIZE_DEGREES = (8, 12, 16)
CONJUGACY_LIMIT = 1e-20


def linearize_jobs(seed, small=False):
    rng = random.Random(seed)
    members = LINEARIZE_MEMBERS[:1] if small else LINEARIZE_MEMBERS
    degrees = (4,) if small else LINEARIZE_DEGREES
    jobs = []
    for n, m, j in members:
        for d in degrees:
            jobs.append(Job(["linearize", "--n", str(n), "--m", str(m),
                             "--j", str(j), "--degree", str(d),
                             "--seed", str(rng.randrange(1 << 16))],
                            0, "conjugacy", (n, m, j)))
    base = ["linearize", "--n", "4", "--m", "1", "--j", "1"]
    jobs.append(Job(base + ["--demo-resonant"], 5, "demo_obstruction"))
    jobs.append(Job(base + ["--mismatch-c", "0.01"], 5,
                    "mismatch_obstruction"))
    rng.shuffle(jobs)
    return jobs


def linearize_work(outcomes, jobs):
    """linearize commands that met expectations."""
    return sum(1 for out in outcomes if out.problem is None)


# ---------------------------------------------------------------------------
# raster: deep line raster at one and two threads, shallow wide raster
# ---------------------------------------------------------------------------

def _raster(ref, n, window, res, budget, threads, name):
    return Job(["raster", "--n", str(n), "--m", "1", "--j", "1",
                "--chart", "line", "--window", window, "--res", res,
                "--budget", str(budget), "--eps", "1e-3",
                "--threads", str(threads), "--out", "{tmp}/%s.pgm" % name,
                "--csv", "{tmp}/%s.csv" % name],
               0, "raster", ref=ref)


def raster_jobs(seed, small=False):
    if small:
        jobs = [_raster("smoke", 4, "0.2,1.3,0.0,0.05", "8x8", 64, 1, "s1"),
                _raster("smoke", 4, "0.2,1.3,0.0,0.05", "8x8", 64, 2, "s2")]
    else:
        jobs = [_raster("deep", 5, "0.2,1.3,0.0,1.0", "48x48", 10 ** 4, 1,
                        "deep1"),
                _raster("deep", 5, "0.2,1.3,0.0,1.0", "48x48", 10 ** 4, 2,
                        "deep2"),
                _raster("shallow", 4, "0.2,1.3,0.0,0.05", "128x128", 2048, 1,
                        "shallow")]
    random.Random(seed).shuffle(jobs)
    return jobs


def _refs():
    return json.loads((HERE / "refs.json").read_text())


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _raster_map_steps(csv_path, n, candidates):
    """Computed map-steps: n * (return step if recurrent, else the largest
    candidate) summed over cells; indeterminate cells count 0."""
    total = 0
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            cls = int(row["class"])
            if cls == 2:
                total += int(row["return_step"])
            elif cls == 0:
                total += max(candidates)
    return n * total


def raster_work(outcomes, jobs):
    """Raster cells classified by commands that met expectations."""
    return sum(out.counts.get("cells", 0) for out in outcomes
               if out.problem is None)


def raster_cross_check(outcomes, jobs, tmp):
    """Thread counts must not change a single output byte."""
    by_ref = {}
    for job, out in zip(jobs, outcomes):
        if out.problem is None:
            by_ref.setdefault(job.ref, []).append((job, out))
    for pairs in by_ref.values():
        first = pairs[0][0]
        for job, out in pairs[1:]:
            for idx in (-3, -1):          # the --out and --csv paths
                a = Path(first.argv[idx].replace("{tmp}", str(tmp)))
                b = Path(job.argv[idx].replace("{tmp}", str(tmp)))
                if a.read_bytes() != b.read_bytes():
                    out.problem = "output differs across thread counts"


# ---------------------------------------------------------------------------
# oracles for CLI outcomes
# ---------------------------------------------------------------------------

def check_cli(job, rc, stdout, tmp):
    """(problem or None, work counts) for one finished command."""
    if rc != job.expect_rc:
        return "exit %d, expected %d" % (rc, job.expect_rc), {}
    if job.oracle == "rc_only":
        return None, {}
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON report", {}
    oracle = job.oracle
    if oracle in ("salem", "not_salem"):
        n, m = job.member
        return (_check_salem(report, n, m, oracle == "salem"),
                {"poly_degree": len(report["coefficients"]) - 1})
    if oracle == "verify":
        return (None if report.get("pass") is True
                else "verify did not pass"), {}
    if oracle == "perturbed":
        ok = report.get("pass") is False \
            and report["checks"]["landing"]["pass"] is False
        return None if ok else "perturbed landing was not rejected", {}
    if oracle == "conjugacy":
        d = int(job.argv[job.argv.index("--degree") + 1])
        if report["degree"] != d:
            return "degree %r, expected %d" % (report["degree"], d), {}
        for part in ("corner", "line_point"):
            res = report[part].get("conjugacy_residual")
            if res is None or not float(res) < CONJUGACY_LIMIT:
                return "%s conjugacy residual %r" % (part, res), {}
        return None, {"series_degree": d}
    if oracle == "demo_obstruction":
        ok = report["linearization"]["obstruction"] is not None
        return None if ok else "no obstruction reported", {}
    if oracle == "mismatch_obstruction":
        ok = report["corner"]["linearization"]["obstruction"] is not None
        return None if ok else "no obstruction reported", {}
    if oracle == "raster":
        pgm = job.argv[job.argv.index("--out") + 1].replace("{tmp}", str(tmp))
        csv_path = job.argv[job.argv.index("--csv") + 1].replace(
            "{tmp}", str(tmp))
        w, h = report["resolution"]
        if sum(report["counts"].values()) != w * h:
            return "class counts do not cover the grid", {}
        ref = _refs()[job.ref]
        if _sha256(pgm) != ref["pgm"] or _sha256(csv_path) != ref["csv"]:
            return "raster bytes differ from the stored SHA-256", {}
        n = int(job.argv[job.argv.index("--n") + 1])
        return None, {"cells": w * h,
                      "map_steps": _raster_map_steps(
                          csv_path, n, report["candidates"]),
                      "raster_bytes": os.path.getsize(pgm)
                      + os.path.getsize(csv_path)}
    raise ValueError("unknown oracle %r" % (oracle,))


def run_cli_pass(jobs, tmp, work, cross_check=None, traced=False):
    """Run the jobs one at a time; time each, then check each."""
    env = child_env()
    runs = []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        argv = [a.replace("{tmp}", str(tmp)) for a in job.argv]
        spans = tmp / ("spans-%d.json" % i)
        cmd = ([sys.executable, str(HERE / "traced_cli.py"), str(spans), "--"]
               if traced else [sys.executable, "-m", "rsadyn.cli"]) + argv
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env, cwd=tmp,
                              timeout=COMMAND_TIMEOUT_S)
        runs.append((job, proc, time.perf_counter() - t0, spans))
    wall = time.perf_counter() - start

    outcomes = []
    for job, proc, seconds, spans in runs:
        problem, counts = check_cli(job, proc.returncode,
                                    proc.stdout.decode(), tmp)
        out = Outcome(" ".join(job.argv), seconds, problem, counts,
                      kind="%s exit %d" % (job.argv[0], job.expect_rc))
        if traced:
            out.spans = json.loads(spans.read_text()) if spans.exists() \
                else {"spans": [], "counts": {}}
            if not spans.exists() and out.problem is None:
                out.problem = "traced command wrote no spans"
        outcomes.append(out)
    if cross_check is not None:
        cross_check(outcomes, jobs, tmp)
    return Pass(wall, _rss_mb(resource.RUSAGE_CHILDREN), outcomes,
                work(outcomes, jobs))


# ---------------------------------------------------------------------------
# domain-probe: the rotation-domain probe of acceptance criterion 8, in process
# ---------------------------------------------------------------------------

PROBE_MEMBER = (4, 1, 1)
MP_GRID = 32                  # the 32x32 grid of the precision-doubling test
MP_WINDOW = (0.25, 1.25, 0.0, 0.04)
MP_BUDGET = 128
SLICE_BUDGET = 2048


def domain_inputs(seed, small=False):
    """Seeded near-identity samples, slice leaves and an 8x8 subgrid.

    The subgrid takes every fourth row of the 32x32 grid and one column at
    random from each of 8 equal blocks of columns. The return step, and so
    the cost of a point, changes across rows (step 4 on the invariant line,
    9 just off it, 31 beyond) and hardly along them, so every seed gets the
    same mix of costs.
    """
    rng = random.Random(seed)
    k = 2 if small else 8
    block = MP_GRID // k
    return {
        "near_seed": rng.randrange(1 << 31),
        "near_samples": 4 if small else 100,
        "leaves": [round(rng.uniform(0.35, 1.25), 3)
                   for _ in range(1 if small else 3)],
        "cols": [b * block + rng.randrange(block) for b in range(k)],
        "rows": [b * block for b in range(k)],
    }


def domain_setup(rsadyn_modules):
    """The (4, 1, 1) parameter pack and the mp classifier's candidates."""
    family, probes = rsadyn_modules["family"], rsadyn_modules["probes"]
    params = family.build_params(*PROBE_MEMBER)
    cands = probes.candidate_times(params.lam, MP_BUDGET)
    return params, cands


def run_domain_pass(mods, params, cands, inputs):
    """One pass of probe calls, each timed alone, checked after the pass.

    A call is one near-identity measurement, one slice bracket, or one grid
    point classified at 256 and 512 bits and in hardware precision.
    """
    import numpy as np
    probes, kernels = mods["probes"], mods["_kernels"]
    delta, c, n = complex(params.delta), complex(params.c), params.n
    x0, x1, y0, y1 = MP_WINDOW
    us = np.linspace(x0, x1, MP_GRID)
    vs = np.linspace(y0, y1, MP_GRID)
    calls = []

    def timed(label, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        calls.append([label, time.perf_counter() - t0, result])
        return result

    def classify_three(point, u, v):
        """One grid point at 256 and 512 bits and in hardware precision."""
        return (probes.classify_point_mp(params, point, cands, 1e-3,
                                         precision_bits=256),
                probes.classify_point_mp(params, point, cands, 1e-3,
                                         precision_bits=512),
                kernels.classify_point(v, 1.0, u, delta, c, n, cands, 1e-3))

    start = time.perf_counter()
    timed("near_identity_returns", probes.near_identity_returns, params,
          n_candidates=5, n_samples=inputs["near_samples"],
          seed=inputs["near_seed"])
    for w in inputs["leaves"]:
        timed("slice_radius w=%g" % w, probes.slice_radius, params, w,
              budget=SLICE_BUDGET)
    for r in inputs["rows"]:
        for col in inputs["cols"]:
            u, v = float(us[col]), float(vs[r])
            timed("classify point (%d,%d)" % (r, col), classify_three,
                  (v, 1, u), u, v)
    wall = time.perf_counter() - start

    outcomes = []
    for label, seconds, result in calls:
        out = Outcome(label, seconds)
        if label == "near_identity_returns":
            sups = result["sup_distances"]
            if not (len(sups) == 5 and sups[0] / sups[4] >= 10):
                out.problem = "near-identity sups do not decay tenfold"
            out.counts["h_map_steps"] = \
                n * sum(result["candidates"]) * inputs["near_samples"]
        elif label.startswith("slice_radius"):
            if result["inconclusive"] or not \
                    0 < result["r_lo"] <= result["r_hi"] < math.inf:
                out.problem = "slice radius bracket is not finite and positive"
            out.counts["slice_probes"] = result["probes"]
        elif len({cls for cls, _ in result}) != 1:
            out.problem = "256-bit, 512-bit and hardware classes disagree"
        outcomes.append(out)
    work = sum(1 for out in outcomes if out.problem is None)
    return Pass(wall, _rss_mb(resource.RUSAGE_SELF), outcomes, work)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CLI_SETUP = "import time, rsadyn.cli; print(time.perf_counter())"
DOMAIN_SETUP = ("import time, rsadyn.cli; from rsadyn import family; "
                "family.build_params(4, 1, 1); print(time.perf_counter())")


@dataclass
class Workload:
    name: str
    setup_code: str
    work_unit: str
    # Length of one pass at the parent commit on a 2-CPU machine. A run
    # makes round(--seconds / nominal_pass_s) passes, at least one, so two
    # commits measured with the same --seconds do the same work.
    nominal_pass_s: float
    jobs: object = None           # CLI workloads: seed, small -> [Job]
    work: object = None
    cross_check: object = None


WORKLOADS = {
    "census": Workload("census", CLI_SETUP, "members", 10, census_jobs,
                       census_work),
    "linearize": Workload("linearize", CLI_SETUP, "commands", 25,
                          linearize_jobs, linearize_work),
    "raster": Workload("raster", CLI_SETUP, "cells", 21, raster_jobs,
                       raster_work, raster_cross_check),
    "domain-probe": Workload("domain-probe", DOMAIN_SETUP, "calls", 7),
}


def measure_setup(workload, tmp):
    """Seconds from spawning a fresh interpreter until rsadyn.cli is
    imported (and, for domain-probe, the (4, 1, 1) pack is built)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", workload.setup_code],
                          stdout=subprocess.PIPE, env=child_env(), cwd=tmp,
                          timeout=COMMAND_TIMEOUT_S, check=True)
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child on Linux
    return float(proc.stdout.decode().split()[-1]) - t0


def import_rsadyn():
    """The checkout's rsadyn modules, imported into this process."""
    import importlib
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {name: importlib.import_module("rsadyn." + name)
            for name in ("family", "probes", "_kernels")}
