"""Command-line front end.

One subcommand per verifiable claim cluster: `salem` (polynomial
construction and certification), `verify` (orbit identities, landing
criterion, fiber orbit pattern, push-forward characteristic polynomial,
multiplier suite), `linearize` (return maps, conjugacy solve, residuals,
Birkhoff curve), `raster` (recurrence rasters to PGM/CSV).

Contract: a single JSON report on stdout, diagnostics on stderr. Exit
codes: 0 success, 2 argument validation, 3 not-Salem, 4 verification
failure, 5 linearization obstruction, 6 I/O failure. A non-finite
`--perturb` or `--mismatch-c`, a nonzero `--mismatch-c` outside
2^(-precision/4) <= |mismatch| < 1, `--demo-resonant` with a `--degree`
below 3, and a raster with an unparseable or non-finite window,
resolution or base point, a negative budget, fewer than one thread, an
eps outside (0, 1), or a base point with the line chart, are argument
errors (exit 2), each reported once through `main`. Only `linearize`,
whose Birkhoff average draws samples, takes `--seed`. Only `raster` needs
numpy (the `raster` extra); without it the command exits 2 and names the
extra.
A negative value in exponent notation, or a window list that starts with
a negative value, is given in the `--flag=value` form (`--perturb=-1e-3`):
separated by a space, the parser reads it as an option name.
`verify` passes a residual below 2^(-precision/2); its multiplier residuals
come from the Jacobian of `family.map_affine` by central differences. c
takes the principal sqrt(delta): the other square-root branch is `--j` n-j.
"""

import argparse
import json
import math
import sys

from mpmath import mp, mpf, workprec

from . import blowup, family, picard, salem, series
from .errors import NotSalemError, RsadynError, ValidationError
from .numeric import float_log2, tolerance_for

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_NOT_SALEM = 3
EXIT_VERIFY = 4
EXIT_OBSTRUCTION = 5
EXIT_IO = 6


def _diag(msg):
    print(msg, file=sys.stderr)


def _emit(report):
    json.dump(report, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def _add_family_flags(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--root-index", type=int, default=0)
    p.add_argument("--precision", type=int, default=256)


def build_parser():
    ap = argparse.ArgumentParser(prog="rsadyn")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("salem", help="construct and certify the family "
                                     "polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--precision", type=int, default=256)

    p = sub.add_parser("verify", help="run the verification suite for one "
                                      "family member")
    _add_family_flags(p)
    p.add_argument("--perturb", type=float, default=0.0,
                   help="relative perturbation of delta for the landing "
                        "sharpness check; give a negative value in exponent "
                        "notation as --perturb=-1e-3")

    p = sub.add_parser("linearize", help="return maps and conjugacy solve")
    _add_family_flags(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the Birkhoff-average samples")
    p.add_argument("--degree", type=int, default=12)
    p.add_argument("--demo-resonant", action="store_true",
                   help="run the synthetic obstruction fixture instead; its "
                        "resonant monomial x^2 y needs --degree >= 3")
    p.add_argument("--mismatch-c", type=float, default=0.0,
                   help="relative scaling of c by 1 + mismatch: a nonzero "
                        "value leaves the parameter locus and must produce "
                        "an obstruction; its modulus must be at least "
                        "2^(-precision/4) and below 1; give a negative value "
                        "in exponent notation as --mismatch-c=-1e-3")

    p = sub.add_parser("raster", help="recurrence raster to PGM/CSV")
    _add_family_flags(p)
    p.add_argument("--chart", default="line", choices=("line", "affine"))
    p.add_argument("--window", default="0.2,1.3,0.0,0.05",
                   help="x0,x1,y0,y1 in chart coordinates; a list that "
                        "starts with a negative value needs the = form, "
                        "--window=-0.5,0.5,0,0.05")
    p.add_argument("--res", default="128x128", help="WxH")
    p.add_argument("--budget", type=int, default=0,
                   help="iteration budget; 0 = first candidate >= 10^4")
    p.add_argument("--eps", type=float, default=1e-3,
                   help="recurrence radius in projective distance, in (0, 1)")
    p.add_argument("--out", required=True, help="output PGM path")
    p.add_argument("--csv", default=None, help="optional CSV path")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads over the raster rows; the lockstep "
                        "numpy loop holds the interpreter lock between its "
                        "many small array calls, so more than one thread "
                        "does not pay")
    p.add_argument("--basepoint", default=None,
                   help="re1,im1,re2,im2 base point for the affine chart")
    return ap


def cmd_salem(args):
    # n = 3, m = 1 is constructible but fails certification (exit 3);
    # n < 3 is outside the family entirely (salem_polynomial raises, exit 2)
    poly = salem.salem_polynomial(args.n, args.m)
    try:
        cert = salem.salem_certificate(poly, args.precision)
    except NotSalemError as exc:
        _emit({"n": args.n, "m": args.m, "coefficients": poly.to_json(),
               "salem": False, "reason": exc.reason})
        return EXIT_NOT_SALEM
    with workprec(args.precision):
        ent = picard.entropy(args.n, args.m, args.precision)
        report = {
            "n": args.n, "m": args.m,
            "coefficients": poly.to_json(),
            "salem": True,
            "certificate": cert.to_json(),
            "entropy": mp.nstr(ent, 40),
        }
    _emit(report)
    return EXIT_OK


def _check_finite(flag, value):
    if not math.isfinite(value):
        raise ValidationError("%s must be finite, got %r" % (flag, value))


def cmd_verify(args):
    _check_finite("--perturb", args.perturb)
    params = family.build_params(args.n, args.m, args.j, args.root_index,
                                 args.precision)
    checks = {}

    with workprec(args.precision):
        tol = tolerance_for(args.precision)
        idents = family.orbit_identities(params)
        checks["orbit_identities"] = {
            "max_residual": mp.nstr(idents["max_residual"], 8),
            "pass": idents["max_residual"] < tol,
        }

        delta_probe = params.delta * (1 + mpf(args.perturb)) \
            if args.perturb else params.delta
        landing = blowup.landing_condition(args.n, args.m, delta_probe,
                                           args.precision)
        checks["landing"] = {
            "residual": mp.nstr(landing, 8),
            "log2_residual": float_log2(landing),
            "pass": landing < tol,
        }

        try:
            orbit_report = blowup.fiber_orbit_check(params)
            checks["fiber_orbit"] = {"pass": True,
                                     "chain_landing_residual": mp.nstr(
                                         orbit_report["chain_landing_residual"], 8)}
        except RsadynError as exc:
            checks["fiber_orbit"] = {"pass": False, "error": str(exc)}

        chi = salem.salem_polynomial(args.n, args.m)
        char = picard.berkowitz_charpoly(
            picard.t_action_matrix(args.n, args.m))
        checks["charpoly_equal"] = (char == chi)

        fps = family.fixed_points(params)
        mult_entries = []
        mult_ok = True
        for fp in fps:
            md = family.multipliers_at_fixed(params, fp)
            prod_res = abs(md.jacobian_det - params.delta)
            ok = prod_res < tol and md.jacobian_residual < tol
            mult_ok = mult_ok and ok
            mult_entries.append({
                "product_residual": mp.nstr(prod_res, 8),
                "jacobian_residual": mp.nstr(md.jacobian_residual, 8),
                "unit_modulus": md.unit_modulus,
                "rank2_criterion": md.rank2_criterion,
                "pass": ok,
            })
        checks["multipliers"] = {"fixed_points": mult_entries,
                                 "pass": mult_ok}

    # charpoly_equal is a bare bool, every other check a dict with "pass"
    failed = [name for name, entry in checks.items()
              if not (entry["pass"] if isinstance(entry, dict) else entry)]
    _emit({"params": params.to_json(), "checks": checks, "pass": not failed})
    if failed:
        _diag("verification failed at check: %s" % failed[0])
        return EXIT_VERIFY
    return EXIT_OK


def cmd_linearize(args):
    _check_finite("--mismatch-c", args.mismatch_c)
    bits = args.precision
    if args.demo_resonant:
        # synthetic resonant map (lam x + x^2 y, y/lam) with the (1,1)
        # relation: the (2,1) coefficient sits on the resonant line with
        # nonvanishing forcing, so no formal conjugacy exists
        if args.degree < 3:
            raise ValidationError(
                "--demo-resonant needs --degree >= 3 (its resonant monomial "
                "x^2 y has degree 3), got %d" % args.degree)
        params = family.build_params(args.n, args.m, args.j, args.root_index,
                                     bits)
        with workprec(bits):
            lam = params.lam
            d = args.degree
            h1 = series.BivariateSeries(d, {(1, 0): lam, (2, 1): 1})
            h2 = series.BivariateSeries(d, {(0, 1): 1 / lam})
            result = series.linearize_diagonal(
                (h1, h2), lam, 1 / lam, d, rc=series.ResonanceClass(1, 1),
                precision_bits=bits)
        _emit({"demo_resonant": True,
               "linearization": result.to_json(bits)})
        return EXIT_OBSTRUCTION if result.obstruction else EXIT_OK

    params = family.build_params(args.n, args.m, args.j, args.root_index,
                                 bits)
    if args.mismatch_c:
        with workprec(bits):
            # the factor is formed at working precision (in float, 1 + a
            # mismatch below about 1e-16 is exactly 1); below the solver's
            # vanish floor the forcing it leaves would read as zero; from
            # modulus 1 on the factor can vanish, give -c (the member j ->
            # n-j) or push the forcing under that floor
            mismatch = mpf(args.mismatch_c)
            if not mpf(2) ** (-(bits // 4)) <= abs(mismatch) < 1:
                raise ValidationError(
                    "a nonzero --mismatch-c must be at least 2^-%d and below "
                    "1 in modulus at --precision %d, got %r"
                    % (bits // 4, bits, args.mismatch_c))
            params = family.with_mismatched_c(params, 1 + mismatch)
    d = args.degree
    with workprec(bits):
        h_corner, corner_rep = series.corner_return_map(
            params, d, strict_linear=not args.mismatch_c)
        eta1, eta2 = corner_rep["eta"]
        corner_entry = {
            "linear_residual": mp.nstr(corner_rep["linear_residual"], 8),
            "max_resonant_coefficient":
                mp.nstr(corner_rep["max_resonant_coefficient"], 8),
        }
        corner_lin = _solve_return_map(corner_entry, h_corner, eta1, eta2,
                                       d, corner_rep["resonance"], bits)

        report = {"params": params.to_json(), "degree": d,
                  "corner": corner_entry}

        if not args.mismatch_c:
            w0 = _line_basepoint(params)
            h_line, line_rep = series.infinity_return_map(params, w0, d)
            line_entry = {
                "basepoint": mp.nstr(w0, 12),
                "multiplier_residual":
                    mp.nstr(line_rep["multiplier_residual"], 8),
            }
            _solve_return_map(line_entry, h_line, params.lam, 1, d, None,
                              bits)
            report["line_point"] = line_entry

            md = family.multipliers_at_fixed(
                params, family.fixed_points(params)[0])
            if md.rank2_criterion and md.unit_modulus:
                birk = family.birkhoff_linearize(params, md, seed=args.seed)
                report["birkhoff"] = {
                    "n_values": birk["n_values"],
                    "residuals": birk["residuals"],
                    "dropped_samples": birk["dropped_samples"],
                }
            else:
                report["birkhoff"] = {"skipped":
                                      "fixed point is not rank-2/unit-modulus"}

    _emit(report)
    if corner_lin.obstruction:
        _diag("linearization obstruction at %r" %
              (corner_lin.obstruction[1],))
        return EXIT_OBSTRUCTION
    return EXIT_OK


def _solve_return_map(entry, h, eta1, eta2, d, rc, bits):
    """Solve the conjugacy of return map h to diag(eta1, eta2) up to degree
    d; add its "linearization" and, when it solved, its
    "conjugacy_residual" to entry, and return the solve."""
    lin = series.linearize_diagonal(h, eta1, eta2, d, rc=rc,
                                    precision_bits=bits)
    entry["linearization"] = lin.to_json(bits)
    if not lin.obstruction:
        res = series.verify_conjugacy(h, lin.phi, eta1, eta2, d,
                                      precision_bits=bits)
        entry["conjugacy_residual"] = mp.nstr(res, 8)
    return lin


def _line_basepoint(params):
    """A deterministic base point on the invariant line away from the
    blown-up points."""
    with workprec(params.precision_bits):
        for cand in (mpf("0.37") + mpf("0.11") * 1j,
                     mpf("0.53") - mpf("0.21") * 1j,
                     mpf("1.23") + mpf("0.31") * 1j):
            good = abs(cand) > mpf("0.1")
            w = cand
            for _ in range(params.n):
                if min(abs(w - ws) for ws in params.orbit) < mpf("0.05") \
                        or abs(w) < mpf("0.05"):
                    good = False
                    break
                w = family.line_map(params, w)
            if good:
                return cand
    raise ValidationError("no clean base point found on the invariant line")


def cmd_raster(args):
    try:
        from . import probes
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        _diag("raster needs numpy: pip install rsadyn[raster]")
        return EXIT_ARGS
    params = family.build_params(args.n, args.m, args.j, args.root_index,
                                 args.precision)
    try:
        x0, x1, y0, y1 = (float(v) for v in args.window.split(","))
        w, h = (int(v) for v in args.res.lower().split("x"))
    except ValueError:
        raise ValidationError("--window needs x0,x1,y0,y1 and --res WxH, "
                              "got %r and %r" % (args.window, args.res))
    basepoint = None
    if args.basepoint:
        try:
            re1, im1, re2, im2 = (float(v) for v in args.basepoint.split(","))
        except ValueError:
            raise ValidationError("--basepoint needs re1,im1,re2,im2, got %r"
                                  % args.basepoint)
        basepoint = (complex(re1, im1), complex(re2, im2))
    budget = args.budget or None      # 0 = default; negatives are rejected
    grid = probes.siegel_raster(params, args.chart, (x0, x1, y0, y1), (w, h),
                                budget=budget, eps=args.eps,
                                threads=args.threads, basepoint=basepoint)
    try:
        grid.write_pgm(args.out)
        if args.csv:
            grid.write_csv(args.csv)
    except OSError as exc:
        _diag("cannot write output: %s" % exc)
        return EXIT_IO
    counts = grid.counts()
    _emit({
        "chart": grid.chart, "window": list(grid.window),
        "resolution": list(grid.resolution), "budget": grid.budget,
        "eps": grid.eps, "candidates": list(grid.candidates),
        "counts": counts, "out": args.out, "csv": args.csv,
        "threads": args.threads,
    })
    return EXIT_OK


COMMANDS = {"salem": cmd_salem, "verify": cmd_verify,
            "linearize": cmd_linearize, "raster": cmd_raster}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except NotSalemError as exc:
        _diag("not a Salem polynomial: %s" % exc.reason)
        _emit({"salem": False, "reason": exc.reason})
        return EXIT_NOT_SALEM
    except ValidationError as exc:
        _diag("invalid arguments: %s" % exc)
        return EXIT_ARGS
    except OSError as exc:
        _diag("i/o failure: %s" % exc)
        return EXIT_IO
    except RsadynError as exc:
        _diag("verification failure: %s" % exc)
        return EXIT_VERIFY


if __name__ == "__main__":
    raise SystemExit(main())
