"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import subprocess
import sys

import pytest
from mpmath import mp, mpf, workprec

from rsadyn import (NotSalemError, build_params, fixed_points,
                    multipliers_at_fixed, orbit_identities, salem_certificate,
                    salem_polynomial, with_mismatched_c)
from rsadyn.blowup import build_linear_model, landing_condition
from rsadyn.numeric import totient
from rsadyn.picard import (bareiss_det, berkowitz_charpoly,
                           intersection_matrix_S, is_negative_definite,
                           quadratic_growth_fixture, t_action_matrix)
from rsadyn.probes import near_identity_returns, siegel_raster, slice_radius
from rsadyn.series import corner_return_map, linearize_diagonal, verify_conjugacy
from rsadyn import _kernels

GRID = [(n, m) for n in range(4, 9) for m in range(1, 11) if n * m <= 40]


def report(num, ok, detail=""):
    line = "ACCEPTANCE %2d: %s%s" % (num, "PASS" if ok else "FAIL",
                                     " -- " + detail if detail else "")
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_charpoly_identity():
    bad = [(n, m) for (n, m) in GRID
           if berkowitz_charpoly(t_action_matrix(n, m))
           != salem_polynomial(n, m)]
    report(1, not bad, "exact characteristic-polynomial identity on %d "
                       "grid points" % len(GRID))


def test_criterion_02_determinant_and_definiteness():
    ok = True
    for n in range(3, 13):
        s = intersection_matrix_S(n, 1)
        ok = ok and bareiss_det(s) == (3 - n) * 3 ** (n - 1)
        if n >= 4:
            ok = ok and is_negative_definite(s)
    report(2, ok, "det = (3-n)3^(n-1) for 3<=n<=12, negative definite n>=4")


def test_criterion_03_salem_certification():
    ok = True
    for (n, m) in GRID:
        cert = salem_certificate(salem_polynomial(n, m), 256)
        with workprec(256):
            ok = ok and cert.lambda_root > 1
            ok = ok and len(cert.unit_roots) == n * m - 2
    try:
        salem_certificate(salem_polynomial(3, 1), 256)
        rejected = False
        reason = ""
    except NotSalemError as exc:
        rejected = True
        reason = exc.reason
    ok = ok and rejected and "roots of unity" in reason
    report(3, ok, "certified %d polynomials at 256 bits, tolerance 2^-128; "
                  "(3,1) rejected naming roots of unity" % len(GRID))


def test_criterion_04_landing_sharpness():
    p = build_params(4, 1, 1)
    with workprec(256):
        at_root = landing_condition(4, 1, p.delta)
        perturbed = landing_condition(4, 1, p.delta * (1 + mpf(10) ** -5))
        ok = at_root < mpf(10) ** -30 and perturbed > mpf(10) ** -7
    report(4, ok, "residual %.2e at the root, %.2e perturbed"
           % (float(at_root), float(perturbed)))


def test_criterion_05_orbit_identities():
    cases = [(4, 1, 1), (5, 1, 1), (5, 1, 2), (6, 1, 1), (7, 2, 1)]
    ok = True
    notes = []
    for (n, m, j) in cases:
        p = build_params(n, m, j)
        with workprec(256):
            res = orbit_identities(p)["max_residual"]
            ok = ok and res < mpf(10) ** -30
            md = multipliers_at_fixed(p, fixed_points(p)[0])
            notes.append("(%d,%d,%d): res %.1e, rank2 %s"
                         % (n, m, j, float(res), md.rank2_criterion))
    report(5, ok, "; ".join(notes))


def test_criterion_06_linearization_pipeline():
    p = build_params(4, 1, 1)
    with workprec(256):
        h, rep = corner_return_map(p, 12)
        lin_ok = rep["linear_residual"] < mpf(10) ** -25
        res_ok = rep["max_resonant_coefficient"] < mpf(2) ** -64
        sol = linearize_diagonal(h, rep["eta"][0], rep["eta"][1], 12,
                                 rc=rep["resonance"], precision_bits=256)
        no_obstruction = sol.obstruction is None
        conj = verify_conjugacy(h, sol.phi, rep["eta"][0], rep["eta"][1], 12,
                                precision_bits=256)
        conj_ok = conj < mpf(10) ** -20

        bad = with_mismatched_c(p, 1 + mpf(10) ** -2)
        hb, repb = corner_return_map(bad, 8)
        solb = linearize_diagonal(hb, repb["eta"][0], repb["eta"][1], 8,
                                  rc=repb["resonance"], precision_bits=256)
        obstructed = solb.obstruction is not None
    ok = lin_ok and res_ok and no_obstruction and conj_ok and obstructed
    report(6, ok, "linear %.1e, resonant %.1e, conjugacy %.1e, mismatched-c "
                  "obstruction %s"
           % (float(rep["linear_residual"]),
              float(rep["max_resonant_coefficient"]), float(conj),
              obstructed))


def test_criterion_07_multiplier_suite():
    p = build_params(4, 1, 1)
    ok = True
    with workprec(256):
        for fp in fixed_points(p):
            md = multipliers_at_fixed(p, fp)
            ok = ok and abs(md.lambda1 * md.lambda2 - p.delta) < mpf(10) ** -25
            ok = ok and md.jacobian_residual < mpf(10) ** -25
        tree = build_linear_model(p)
        corner = tree.find("e1_x_e2")
        ok = ok and {corner.exp_along, corner.exp_normal} == {2, -1}
        ok = ok and abs(corner.mult_along - p.lam ** 2) < mpf(10) ** -25
        ok = ok and abs(corner.mult_normal - 1 / p.lam) < mpf(10) ** -25
    report(7, ok, "products, Jacobian cross-check, and corner multipliers "
                  "{lambda^2, 1/lambda}")


def test_criterion_08_rotation_domain_probe():
    p = build_params(4, 1, 1)
    near = near_identity_returns(p, n_candidates=5, n_samples=100)
    sups = near["sup_distances"]
    decay_ok = sups[0] / sups[4] >= 10

    grid = siegel_raster(p, "line", (0.2, 1.3, 0.0, 0.03), (128, 128),
                         budget=2048, eps=1e-3)
    row = grid.classes[0]
    row_ok = bool((row == _kernels.CLASS_RECURRENT).all())

    slice_ok = True
    brackets = []
    for w in (0.45, 0.7, 1.1):
        out = slice_radius(p, w, budget=2048)
        slice_ok = slice_ok and not out["inconclusive"] \
            and 0 < out["r_lo"] <= out["r_hi"] < float("inf")
        brackets.append((w, out["r_lo"], out["r_hi"]))
    ok = decay_ok and row_ok and slice_ok
    report(8, ok, "near-identity decay x%.0f, line row 128/128 recurrent, "
                  "slice brackets %s"
           % (sups[0] / sups[4],
              ["%.3g..%.3g" % (lo, hi) for (_, lo, hi) in brackets]))


def test_criterion_09_quadratic_growth_fixture():
    rep = quadratic_growth_fixture()
    ok = (sum(totient(d) * mult for d, mult in rep["cyclotomic_factors"])
          == 11
          and rep["jordan_blocks_ge3"] >= 1
          and rep["growth_degree"] == 2)
    report(9, ok, "spectrum cyclotomic, size-3 Jordan block, growth degree "
                  "%d" % rep["growth_degree"])


def test_criterion_10_determinism(tmp_path):
    cli = [sys.executable, "-m", "rsadyn.cli"]
    base = ["raster", "--n", "4", "--m", "1", "--j", "1",
            "--window", "0.2,1.3,0.0,0.03", "--res", "48x24",
            "--budget", "256", "--eps", "1e-3"]
    paths = [tmp_path / name for name in ("a.pgm", "b.pgm", "c.pgm")]
    outs = []
    for path, threads in zip(paths, ("1", "4", "1")):
        outs.append(subprocess.run(
            cli + base + ["--out", str(path), "--threads", threads],
            capture_output=True, text=True))
    ok = all(o.returncode == 0 for o in outs)
    blobs = [path.read_bytes() for path in paths]
    ok = ok and blobs[0] == blobs[1] == blobs[2]

    # reports reproducible from the flag set alone
    r1 = subprocess.run(cli + ["salem", "--n", "5", "--m", "1"],
                        capture_output=True, text=True)
    r2 = subprocess.run(cli + ["salem", "--n", "5", "--m", "1"],
                        capture_output=True, text=True)
    v1 = subprocess.run(cli + ["verify", "--n", "4", "--m", "1", "--j", "1"],
                        capture_output=True, text=True)
    v2 = subprocess.run(cli + ["verify", "--n", "4", "--m", "1", "--j", "1"],
                        capture_output=True, text=True)
    lin = ["linearize", "--n", "4", "--m", "1", "--j", "1", "--degree", "8"]
    l1 = subprocess.run(cli + lin, capture_output=True, text=True)
    l2 = subprocess.run(cli + lin, capture_output=True, text=True)
    ok = ok and r1.stdout == r2.stdout and v1.stdout == v2.stdout
    ok = ok and l1.returncode == 0 and l1.stdout == l2.stdout
    report(10, ok, "raster bytes identical across threads and reruns; "
                   "salem, verify and linearize reports byte-reproducible")
