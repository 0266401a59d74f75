"""CLI contract: exit codes, JSON reports, file outputs, determinism."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rsadyn.cli import build_parser

CLI = [sys.executable, "-m", "rsadyn.cli"]


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          **kw)


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


@pytest.mark.parametrize("precision", PRECISIONS)
def test_verify_default_passes(precision):
    out = run("verify", "--n", "4", "--m", "1", "--j", "1",
              "--precision", precision)
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["pass"] is True
    assert report["checks"]["charpoly_equal"] is True


@pytest.mark.parametrize("precision", PRECISIONS)
def test_verify_perturbed_fails_landing(precision):
    out = run("verify", "--n", "4", "--m", "1", "--j", "1",
              "--perturb", "1e-5", "--precision", precision)
    assert out.returncode == 4
    report = json.loads(out.stdout)
    assert report["checks"]["landing"]["pass"] is False
    assert "landing" in out.stderr


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
              "--budget", "64", "--out", "/nonexistent-dir/x.pgm")
    assert out.returncode == 6


def test_raster_bad_window_exit_2():
    out = run("raster", "--n", "4", "--m", "1", "--j", "1",
              "--window", "oops", "--res", "8x8", "--out", "/tmp/x.pgm")
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
    ["--chart", "affine", "--basepoint", "nan,0,0,0", "--budget", "16"],
    ["--basepoint", "5,0,5,0", "--budget", "16"],
    ["--eps", "2", "--budget", "16"],
    ["--eps", "1e300", "--budget", "16"],
    ["--res", "2by2", "--budget", "16"],
    ["--chart", "affine", "--basepoint", "1,2", "--budget", "16"],
    ["--seed", "1", "--budget", "16"],
], ids=["budget-negative", "threads-negative", "window-nan", "window-inf",
        "basepoint-nan", "basepoint-line-chart", "eps-2", "eps-1e300",
        "res-unparsed", "basepoint-unparsed", "seed"])
def test_raster_malformed_input_exit_2(flags, tmp_path):
    # only --budget 0 means "default"; a non-finite window or base point
    # would put a bare NaN into the JSON report; the line chart has no
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
], ids=["salem-range", "raster-window", "raster-basepoint"])
def test_argument_errors_share_one_report(args, tmp_path):
    # every argument error leaves through main's one exit-2 diagnostic
    pgm = tmp_path / "x.pgm"
    if args[0] == "raster":
        args = args + ["--out", str(pgm)]
    out = run(*args)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("invalid arguments: ")
    assert out.stderr.count("\n") == 1
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
