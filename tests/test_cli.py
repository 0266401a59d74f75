"""CLI contract: exit codes, JSON reports, file outputs, determinism."""

import cmath
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rsadyn import build_params
from rsadyn.cli import build_parser
from rsadyn.errors import NotSalemError, RsadynError, ValidationError

CLI = [sys.executable, "-m", "rsadyn.cli"]


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          **kw)


def test_children_import_this_tree():
    # the CLI children these tests start import this checkout's src, not
    # an installed rsadyn, with or without PYTHONPATH set by the caller
    out = subprocess.run([sys.executable, "-c",
                          "import rsadyn; print(rsadyn.__file__)"],
                         capture_output=True, text=True)
    src = Path(__file__).resolve().parents[1] / "src"
    assert out.returncode == 0, out.stderr
    assert Path(out.stdout.strip()).resolve().is_relative_to(src)


def test_public_names_resolve():
    # a stale __all__ entry makes `from rsadyn import *` raise AttributeError
    import rsadyn
    namespace = {}
    exec("from rsadyn import *", namespace)
    for name in rsadyn.__all__:
        assert namespace[name] is getattr(rsadyn, name)


def test_salem_41():
    out = run("salem", "--n", "4", "--m", "1")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["coefficients"] == ["1", "-1", "-1", "-1", "1"]
    assert report["salem"] is True
    assert float(report["entropy"]) > 0


def test_salem_31_exit_3():
    out = run("salem", "--n", "3", "--m", "1")
    assert out.returncode == 3
    report = json.loads(out.stdout)
    assert "roots of unity" in report["reason"]


def test_salem_out_of_range_exit_2():
    out = run("salem", "--n", "2", "--m", "1")
    assert out.returncode == 2
    assert out.stdout.strip() == ""      # report only on success paths


# pass thresholds follow --precision: 2^(-precision/2)
PRECISIONS = ["64", "96", "256"]
FIBER_ORBIT_RESIDUALS = ("level1_cycle_residual", "level1_transverse_residual",
                         "entry_direction_residual",
                         "last_step_jacobian_residual")


@pytest.mark.parametrize("precision", PRECISIONS)
def test_verify_default_passes(precision):
    out = run("verify", "--n", "4", "--m", "1", "--j", "1",
              "--precision", precision)
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["pass"] is True
    assert report["checks"]["charpoly_equal"] is True
    # fiber_orbit prints what it computes, each residual below the
    # check's 2^(-precision/4)
    entry = report["checks"]["fiber_orbit"]
    assert set(entry) == {"pass", *FIBER_ORBIT_RESIDUALS,
                          "last_step_jacobian"}
    bound = 2.0 ** -(int(precision) / 4)
    for key in FIBER_ORBIT_RESIDUALS:
        assert float(entry[key]) < bound, key
    assert float(entry["last_step_jacobian"]) > 0.5


@pytest.mark.parametrize("precision", PRECISIONS)
def test_verify_perturbed_fails_landing(precision):
    out = run("verify", "--n", "4", "--m", "1", "--j", "1",
              "--perturb", "1e-5", "--precision", precision)
    assert out.returncode == 4
    report = json.loads(out.stdout)
    assert report["checks"]["landing"]["pass"] is False
    assert "landing" in out.stderr


def test_verify_perturb_above_the_rounding_floor_runs():
    # 1 + 1e-60 differs from 1 at 256 bits, though 1e-60 lies below the
    # --mismatch-c floor 2^-64: the landing residual is the perturbation's,
    # not the unperturbed member's, and still passes
    out = run("verify", "--n", "4", "--m", "1", "--perturb", "1e-60")
    assert out.returncode == 0
    residual = float(json.loads(out.stdout)["checks"]["landing"]["residual"])
    assert 1e-61 < residual < 1e-59


def test_verify_failing_fiber_orbit_exit_4(monkeypatch, capsys):
    # in process, with a level-1 chart map whose fiber coordinate is off by
    # 1 + 1e-6: fiber_orbit_check raises, and verify reports the failure
    # under its own check and exits 4
    from rsadyn import blowup, cli
    level1 = blowup.fiber_map_level1

    def wrong(params, s, s1, e1):
        s1, e1 = level1(params, s, s1, e1)
        return s1, e1 * (1 + 1e-6)

    monkeypatch.setattr(blowup, "fiber_map_level1", wrong)
    rc = cli.main(["verify", "--n", "4", "--m", "1", "--j", "1"])
    out = capsys.readouterr()
    assert rc == 4
    report = json.loads(out.out)
    entry = report["checks"]["fiber_orbit"]
    assert set(entry) == {"pass", "error"} and entry["pass"] is False
    assert "1/lambda" in entry["error"]
    assert report["pass"] is False
    assert "verification failed at check: fiber_orbit" in out.err


@pytest.mark.parametrize("error,rc,prefix,stdout", [
    (ValidationError("bad"), 2, "invalid arguments:", None),
    (NotSalemError("bad"), 3, "not a Salem polynomial:",
     {"salem": False, "reason": "bad"}),
    (RsadynError("bad"), 4, "verification failure:", None),
], ids=["validation", "not-salem", "rsadyn"])
def test_exit_code_per_error_class(monkeypatch, capsys, error, rc, prefix,
                                   stdout):
    # main tells the three error classes apart by exit code alone
    from rsadyn import cli, family

    def fail(*args, **kw):
        raise error

    monkeypatch.setattr(family, "build_params", fail)
    assert cli.main(["verify", "--n", "4", "--m", "1", "--j", "1"]) == rc
    out = capsys.readouterr()
    assert out.err.startswith(prefix)
    assert (json.loads(out.out) if out.out else None) == stdout


# degree >= 35: at 64 bits lambda^nm * 2^-64 alone is above the absolute
# tolerance 2^-32, so the root residual is checked as a backward error
@pytest.mark.parametrize("n,m", [(8, 5), (10, 4)])
def test_high_degree_certifies_at_64_bits(n, m):
    member = ("--n", str(n), "--m", str(m))
    out = run("salem", *member, "--precision", "64")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["salem"] is True
    out = run("verify", *member, "--j", "1", "--precision", "64")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["pass"] is True
    out = run("verify", *member, "--j", "1", "--precision", "64",
              "--perturb", "1e-5")
    assert out.returncode == 4
    assert json.loads(out.stdout)["checks"]["landing"]["pass"] is False


# degree 80: the rounding floor of p(z), about lambda^80 * 2^-(working bits),
# lies above an absolute Aberth target, so each root's target is scaled
def test_degree_80_certifies_at_64_bits():
    member = ("--n", "4", "--m", "20", "--precision", "64")
    out = run("salem", *member)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["salem"] is True
    out = run("verify", *member, "--j", "1")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["pass"] is True


# numpy is needed only by `probes` and `_kernels`: with its import
# blocked, these commands give the same report and exit code. linearize
# (4,1,1) runs the Birkhoff average, (7,2,1) skips it
NO_NUMPY = ("import sys; sys.modules['numpy'] = None; "
            "from rsadyn.cli import main; raise SystemExit(main(sys.argv[1:]))")


@pytest.mark.parametrize("args,rc", [
    ("salem --n 4 --m 1", 0),
    ("verify --n 4 --m 1 --j 1", 0),
    ("linearize --n 4 --m 1 --j 1 --degree 8", 0),
    ("linearize --n 7 --m 2 --j 1 --degree 8", 0),
    ("linearize --n 4 --m 1 --j 1 --demo-resonant", 5),
    ("linearize --n 4 --m 1 --j 1 --degree 8 --mismatch-c 0.01", 5),
], ids=["salem", "verify", "linearize-411", "linearize-721", "demo-resonant",
        "mismatch-c"])
def test_commands_run_without_numpy(args, rc):
    blocked = subprocess.run([sys.executable, "-c", NO_NUMPY] + args.split(),
                             capture_output=True, text=True)
    assert blocked.returncode == rc, blocked.stderr
    assert blocked.stdout == run(*args.split()).stdout


def test_raster_without_numpy_exits_2(tmp_path):
    # raster is the one command that needs numpy: without it the command
    # names the extra that installs it and writes nothing
    pgm = tmp_path / "r.pgm"
    blocked = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, "raster", "--n", "4", "--m", "1",
         "--j", "1", "--res", "4x4", "--out", str(pgm)],
        capture_output=True, text=True)
    assert blocked.returncode == 2, blocked.stderr
    assert blocked.stdout == ""
    assert "pip install rsadyn[raster]" in blocked.stderr
    assert not pgm.exists()


def test_cli_import_leaves_numpy_out():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, rsadyn, rsadyn.cli; "
                               "print('numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr


def test_modules_import_without_numpy():
    # every module but the raster path imports with numpy blocked, so a
    # stray top-level numpy import cannot load it into salem, verify or
    # linearize
    code = ("import pkgutil, sys; sys.modules['numpy'] = None; "
            "import rsadyn; "
            "names = sorted(m.name for m in pkgutil.iter_modules("
            "rsadyn.__path__) if m.name not in ('probes', '_kernels')); "
            "[__import__('rsadyn.' + name) for name in names]; "
            "print(' '.join(names))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert set(out.stdout.split()) >= {"blowup", "cli", "errors", "family",
                                       "numeric", "picard", "salem",
                                       "series"}


def test_verify_rejects_bad_j():
    out = run("verify", "--n", "4", "--m", "1", "--j", "2")
    assert out.returncode == 2


def test_linearize_default():
    out = run("linearize", "--n", "4", "--m", "1", "--j", "1",
              "--degree", "10")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert float(report["corner"]["conjugacy_residual"]) < 1e-20
    assert float(report["corner"]["linearization"]["min_divisor"]) > 0
    assert report["corner"]["linearization"]["obstruction"] is None
    assert float(report["line_point"]["conjugacy_residual"]) < 1e-20
    birk = report["birkhoff"]["residuals"]
    assert birk[-1] < birk[0]


@pytest.mark.parametrize("n,m,j", [(11, 2, 1), (12, 1, 1), (13, 3, 5),
                                   (40, 1, 1)])
def test_linearize_beyond_n_10(n, m, j):
    # the line point is the fixed point sqrt(delta) e^(i pi j/n) of the line
    # map, clear of the blown-up points on every member
    out = run("linearize", "--n", str(n), "--m", str(m), "--j", str(j),
              "--degree", "6")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    for part in ("corner", "line_point"):
        assert float(report[part]["conjugacy_residual"]) < 1e-20
    got = complex(report["line_point"]["basepoint"].replace(" ", ""))
    want = (cmath.sqrt(complex(build_params(n, m, j).delta))
            * cmath.exp(1j * math.pi * j / n))
    assert abs(got - want) < 1e-11 * abs(want)


@pytest.mark.parametrize("n,m,j", [(12, 3, 5), (40, 1, 1)])
def test_verify_beyond_n_10(n, m, j):
    out = run("verify", "--n", str(n), "--m", str(m), "--j", str(j))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["pass"] is True


def test_linearize_demo_resonant_exit_5():
    out = run("linearize", "--n", "4", "--m", "1", "--j", "1",
              "--demo-resonant")
    assert out.returncode == 5
    report = json.loads(out.stdout)
    assert report["linearization"]["obstruction"]["monomial"] == [2, 1]


@pytest.mark.parametrize("degree,rc", [(0, 2), (2, 2), (3, 5)])
def test_linearize_demo_resonant_degree_bound(degree, rc):
    # the resonant monomial x^2 y has degree 3: below that the demo cannot
    # show its obstruction, so the degree is refused
    out = run("linearize", "--n", "4", "--m", "1", "--j", "1",
              "--demo-resonant", "--degree", str(degree))
    assert out.returncode == rc
    if rc == 2:
        assert out.stdout == ""
        assert "--degree >= 3" in out.stderr
    else:
        report = json.loads(out.stdout)
        assert report["linearization"]["obstruction"]["monomial"] == [2, 1]


def test_linearize_mismatch_exit_5():
    out = run("linearize", "--n", "4", "--m", "1", "--j", "1",
              "--degree", "8", "--mismatch-c", "0.01")
    assert out.returncode == 5


def test_linearize_tiny_mismatch():
    # 1e-17 is lost in float (1 + 1e-17 == 1.0) but not at 256 bits, and it
    # lies above the solver's vanish floor 2^-64: still an obstruction
    base = ("linearize", "--n", "4", "--m", "1", "--j", "1", "--degree", "6")
    out = run(*base, "--mismatch-c", "1e-17")
    assert out.returncode == 5
    assert json.loads(out.stdout)["corner"]["linearization"]["obstruction"]
    # below the vanish floor no obstruction can be reported: exit 2
    out = run(*base, "--mismatch-c", "1e-300")
    assert out.returncode == 2
    assert out.stdout == ""


# the parser reads a space-separated "-1e-3" as an option name; the
# --flag=value form documented in --help and README passes it as a value
@pytest.mark.parametrize("command,rc", [
    (["verify", "--perturb=-1e-3"], 4),
    (["linearize", "--degree", "6", "--mismatch-c=-1e-3"], 5),
    (["raster", "--window=-0.5,0.5,0,0.05", "--res", "4x4", "--budget",
      "16"], 0),
], ids=["verify-perturb", "linearize-mismatch-c", "raster-window"])
def test_negative_value_equals_form(command, rc, tmp_path):
    if command[0] == "raster":
        command = command + ["--out", str(tmp_path / "x.pgm")]
    out = run(command[0], "--n", "4", "--m", "1", *command[1:])
    assert out.returncode == rc, out.stderr
    report = json.loads(out.stdout)
    if command[0] == "raster":
        assert report["window"] == [-0.5, 0.5, 0.0, 0.05]
        assert (tmp_path / "x.pgm").exists()


@pytest.mark.parametrize("command", [
    ["verify", "--perturb", "nan"],
    ["verify", "--perturb", "inf"],
    ["linearize", "--degree", "6", "--mismatch-c", "nan"],
    ["linearize", "--degree", "6", "--mismatch-c", "inf"],
], ids=["verify-perturb-nan", "verify-perturb-inf", "linearize-mismatch-nan",
        "linearize-mismatch-inf"])
def test_non_finite_flag_exit_2(command):
    # a NaN perturbation would put a bare NaN into the JSON report, and a
    # NaN mismatch would report a conjugacy with no obstruction
    out = run(command[0], "--n", "4", "--m", "1", *command[1:])
    assert out.returncode == 2
    assert out.stdout == ""


@pytest.mark.parametrize("mismatch", ["-2", "-1", "1e20", "1e80"])
def test_mismatch_c_modulus_one_exit_2(mismatch):
    # 1 + mismatch scales c: from modulus 1 on it can vanish (-1), turn c
    # into -c, the member with j -> n-j (-2), push the forcing under the
    # 2^-64 floor (1e20) or divide by zero in the solve (1e80). 0.01 and
    # -1e-3 still exit 5 (test_linearize_mismatch_exit_5,
    # test_negative_value_equals_form)
    out = run("linearize", "--n", "4", "--m", "1", "--j", "1", "--degree",
              "6", "--mismatch-c=" + mismatch)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "below 1" in out.stderr


def test_verify_takes_no_seed():
    # the fiber-orbit check runs at one fixed fiber point and draws nothing
    out = run("verify", "--n", "4", "--m", "1", "--j", "1", "--seed", "1")
    assert out.returncode == 2
    assert out.stdout == ""


@pytest.mark.parametrize("command", ["verify", "linearize", "raster"])
def test_sqrt_branch_flag_is_gone(command, tmp_path):
    # the other square-root branch is the member with j -> n - j
    pgm = tmp_path / "x.pgm"
    out = run(command, "--n", "4", "--m", "1", "--sqrt-branch", "-1",
              *(["--out", str(pgm)] if command == "raster" else []))
    assert out.returncode == 2
    assert out.stdout == ""
    assert not pgm.exists()


def test_raster_outputs_and_determinism(tmp_path):
    args = ["raster", "--n", "4", "--m", "1", "--j", "1",
            "--window", "0.2,1.3,0.0,0.03", "--res", "32x16",
            "--budget", "128", "--eps", "1e-3"]
    p1 = tmp_path / "a.pgm"
    p2 = tmp_path / "b.pgm"
    p3 = tmp_path / "c.pgm"
    csv = tmp_path / "a.csv"
    out1 = run(*args, "--out", str(p1), "--csv", str(csv), "--threads", "1")
    out2 = run(*args, "--out", str(p2), "--threads", "4")
    out3 = run(*args, "--out", str(p3), "--threads", "1")
    assert out1.returncode == out2.returncode == out3.returncode == 0
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()
    report = json.loads(out1.stdout)
    assert sum(report["counts"].values()) == 32 * 16
    assert csv.exists()


def test_raster_unwritable_exit_6(tmp_path):
    out = run("raster", "--n", "4", "--m", "1", "--j", "1",
              "--window", "0.2,1.3,0.0,0.03", "--res", "8x8",
              "--budget", "64", "--out", str(tmp_path / "missing" / "x.pgm"))
    assert out.returncode == 6
    assert out.stdout == ""
    assert out.stderr.startswith("i/o failure: ")


def test_raster_bad_window_exit_2(tmp_path):
    out = run("raster", "--n", "4", "--m", "1", "--j", "1",
              "--window", "oops", "--res", "8x8",
              "--out", str(tmp_path / "x.pgm"))
    assert out.returncode == 2


@pytest.mark.parametrize("command", [
    ["salem", "--n", "4", "--m", "1"],
    ["verify", "--n", "4", "--m", "1", "--j", "1"],
    ["linearize", "--n", "4", "--m", "1", "--j", "1", "--degree", "4"],
    ["raster", "--n", "4", "--m", "1", "--j", "1", "--res", "4x4",
     "--budget", "16"],
], ids=lambda command: command[0])
def test_low_precision_exit_2(command, tmp_path):
    pgm = tmp_path / "x.pgm"
    if command[0] == "raster":
        command = command + ["--out", str(pgm)]
    out = run(*command, "--precision", "32")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "precision" in out.stderr
    assert not pgm.exists()


def test_raster_negative_eps_exit_2(tmp_path):
    pgm = tmp_path / "x.pgm"
    out = run("raster", "--n", "4", "--m", "1", "--j", "1", "--res", "4x4",
              "--budget", "16", "--eps", "-1", "--out", str(pgm))
    assert out.returncode == 2
    assert out.stdout == ""
    assert not pgm.exists()


@pytest.mark.parametrize("flags", [
    ["--budget", "-5"],
    ["--threads", "-3", "--budget", "16"],
    ["--window", "0,1,0,nan", "--budget", "16"],
    ["--window", "0,inf,0,1", "--budget", "16"],
    ["--window", "1e308,-1e308,0,1", "--budget", "16"],
    ["--chart", "affine", "--basepoint", "nan,0,0,0", "--budget", "16"],
    ["--basepoint", "5,0,5,0", "--budget", "16"],
    ["--eps", "2", "--budget", "16"],
    ["--eps", "1e300", "--budget", "16"],
    ["--res", "2by2", "--budget", "16"],
    ["--chart", "affine", "--basepoint", "1,2", "--budget", "16"],
    ["--seed", "1", "--budget", "16"],
], ids=["budget-negative", "threads-negative", "window-nan", "window-inf",
        "window-overflow", "basepoint-nan", "basepoint-line-chart", "eps-2",
        "eps-1e300", "res-unparsed", "basepoint-unparsed", "seed"])
def test_raster_malformed_input_exit_2(flags, tmp_path):
    # only --budget 0 means "default"; a non-finite window or base point
    # would put a bare NaN into the JSON report, and a finite window whose
    # grid overflows would classify NaN start points; the line chart has no
    # base point, so one given there would be silently ignored; eps >= 1
    # passes every cell, and a huge eps overflowed eps^2; a raster draws
    # no random samples, so it takes no --seed
    pgm = tmp_path / "x.pgm"
    out = run("raster", "--n", "4", "--m", "1", "--j", "1", "--res", "2x2",
              "--out", str(pgm), *flags)
    assert out.returncode == 2
    assert out.stdout == ""
    assert not pgm.exists()


@pytest.mark.parametrize("args", [
    ["salem", "--n", "2", "--m", "1"],
    ["raster", "--n", "4", "--m", "1", "--window", "oops"],
    ["raster", "--n", "4", "--m", "1", "--chart", "affine",
     "--basepoint", "1,2"],
    ["linearize", "--n", "4", "--m", "1", "--demo-resonant",
     "--mismatch-c", "0.01"],
    ["linearize", "--n", "4", "--m", "1", "--demo-resonant", "--seed", "7"],
    ["linearize", "--n", "4", "--m", "1", "--mismatch-c", "0.01",
     "--seed", "7"],
    ["verify", "--n", "4", "--m", "1", "--perturb", "1e-100"],
    ["linearize", "--n", "4", "--m", "1", "--degree", "3"],
], ids=["salem-range", "raster-window", "raster-basepoint",
        "demo-resonant-mismatch-c", "demo-resonant-seed", "mismatch-c-seed",
        "perturb-below-precision", "linearize-degree-3"])
def test_argument_errors_share_one_report(args, tmp_path):
    # every argument error leaves through main's one exit-2 diagnostic; the
    # synthetic demo map has no c, so a mismatch given with it is refused;
    # neither the demo nor a mismatched c draws Birkhoff samples, so a seed
    # given with them would be dropped without a word; at 256 bits
    # 1 + 1e-100 is 1, so that perturbation would probe the unperturbed
    # delta; the corner return map needs degree 4, the demo only 3
    pgm = tmp_path / "x.pgm"
    if args[0] == "raster":
        args = args + ["--out", str(pgm)]
    out = run(*args)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("invalid arguments: ")
    assert out.stderr.count("\n") == 1
    assert not pgm.exists()


@pytest.mark.parametrize("flags", [
    ["--threads", "0"],
    ["--basepoint", "0,0,0,0"],
], ids=["threads-0", "basepoint-line-chart"])
def test_raster_refuses_options_before_pack_and_grid(monkeypatch, capsys,
                                                     flags, tmp_path):
    # in process: an option no grid can satisfy exits 2 before the
    # certificate or the grid is built, whatever the resolution asks for
    from rsadyn import cli, family, probes
    calls = []
    monkeypatch.setattr(family, "build_params",
                        lambda *args: calls.append("pack"))
    monkeypatch.setattr(probes, "_chart_states",
                        lambda *args: calls.append("grid"))
    pgm = tmp_path / "x.pgm"
    rc = cli.main(["raster", "--n", "4", "--m", "1", "--res", "100000x100000",
                   "--budget", "64", "--out", str(pgm), *flags])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == "" and out.err.startswith("invalid arguments: ")
    assert calls == []
    assert not pgm.exists()


def test_raster_grid_out_of_memory_exit_2(monkeypatch, capsys, tmp_path):
    # a grid too large to allocate is an argument error naming --res, not
    # a numpy traceback; the allocation is simulated, never attempted
    from rsadyn import cli, probes

    def no_memory(*args):
        raise MemoryError("simulated")

    monkeypatch.setattr(probes, "_chart_states", no_memory)
    pgm = tmp_path / "x.pgm"
    rc = cli.main(["raster", "--n", "4", "--m", "1", "--res", "100000x100000",
                   "--budget", "64", "--out", str(pgm)])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert out.err.startswith("invalid arguments: --res 100000x100000")
    assert out.err.count("\n") == 1
    assert not pgm.exists()


def test_readme_command_lines_parse():
    # every `rsadyn ...` line of README's Command line block, with its
    # backslash continuations joined; argparse exits 2 on a stale line
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line, comments=True)[1:]
                for line in block.splitlines()
                if line.strip().startswith("rsadyn ")]
    assert len(commands) >= 7
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_reports_are_single_json_documents():
    out = run("salem", "--n", "5", "--m", "1")
    json.loads(out.stdout)               # parses as one document
    out = run("verify", "--n", "4", "--m", "1", "--j", "1")
    json.loads(out.stdout)
