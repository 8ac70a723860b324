"""Command-line interface: output contracts, exit codes, and determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from multiortho import cli, kernels, rmt
from multiortho.cli import main
from multiortho.hermite import HermiteSpec
from multiortho.kernels import build_kernel, eval_cd
from multiortho.laguerre import LaguerreSpec
from multiortho.presets import (
    KERNEL_AGREEMENT_TOL_CONTOUR,
    KERNEL_AGREEMENT_TOL_SUM,
    CheckResult,
    standard_grid,
    verify_battery,
)


HERMITE_11 = ("--family", "hermite", "--a", "1,-1", "--n", "1,1")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# poly


def test_poly_hermite_example(capsys):
    code, out, _ = run(capsys, "poly", "--family", "hermite", "--a", "0", "--n", "2")
    assert code == 0
    assert "-1, 0, 1" in out


def test_poly_laguerre_example(capsys):
    code, out, _ = run(capsys, "poly", "--family", "laguerre", "--beta", "1", "--n", "1")
    assert code == 0
    assert "-1, 1" in out


def test_poly_json_schema(capsys):
    code, out, _ = run(
        capsys, "poly", "--family", "hermite", "--a", "0", "--n", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["type_ii"]["coefficients_ascending"] == ["-1", "0", "1"]
    assert doc["type_i"][0]["prefactor"]["two_pi_half"] == -1


POLY_HERMITE_TEXT = """\
family: hermite
a: 1/2,-1
n: 2,0
type II monic polynomial, degree 2
  coefficients (ascending): -3/4, -1, 1
type I linear form, one term per weight
  component 1 (a=1/2):
    prefactor: 1 * (2*pi)^(-1/2) * exp(-1/8)
    coefficients (ascending): -1/2, 1
  component 2 (a=-1):
    prefactor: 1 * (2*pi)^(-1/2) * exp(-1/2)
    coefficients (ascending): 0
"""

POLY_HERMITE_DOC = {
    "schema_version": 1,
    "command": "poly",
    "family": "hermite",
    "parameters": {"a": ["1/2", "-1"], "n": [2, 0]},
    "type_ii": {"degree": 2, "coefficients_ascending": ["-3/4", "-1", "1"]},
    "type_i": [
        {
            "component": 1,
            "weight": {"a": "1/2"},
            "prefactor": {"rational": "1", "two_pi_half": -1, "exp_arg": "-1/8"},
            "coefficients_ascending": ["-1/2", "1"],
        },
        {
            "component": 2,
            "weight": {"a": "-1"},
            "prefactor": {"rational": "1", "two_pi_half": -1, "exp_arg": "-1/2"},
            "coefficients_ascending": [],
        },
    ],
}

POLY_LAGUERRE_TEXT = """\
family: laguerre
beta: 1,2
n: 1,1
p: 1
type II monic polynomial, degree 2
  coefficients (ascending): 3, -9/2, 1
type I linear form, one term per weight
  component 1 (beta=1, p=1):
    prefactor: 1 * (2*pi)^(0/2) * exp(0)
    coefficients (ascending): 1
  component 2 (beta=2, p=1):
    prefactor: 1 * (2*pi)^(0/2) * exp(0)
    coefficients (ascending): -4
"""

POLY_LAGUERRE_DOC = {
    "schema_version": 1,
    "command": "poly",
    "family": "laguerre",
    "parameters": {"beta": ["1", "2"], "n": [1, 1], "p": 1},
    "type_ii": {"degree": 2, "coefficients_ascending": ["3", "-9/2", "1"]},
    "type_i": [
        {
            "component": k,
            "weight": {"beta": beta, "p": 1},
            "prefactor": {"rational": "1", "two_pi_half": 0, "exp_arg": "0"},
            "coefficients_ascending": [coeff],
        }
        for k, beta, coeff in ((1, "1", "1"), (2, "2", "-4"))
    ],
}


@pytest.mark.parametrize(
    "argv, text, doc",
    [
        (("--family", "hermite", "--a", "1/2,-1", "--n", "2,0"), POLY_HERMITE_TEXT, POLY_HERMITE_DOC),
        (
            ("--family", "laguerre", "--beta", "1,2", "--n", "1,1", "--p", "1"),
            POLY_LAGUERRE_TEXT,
            POLY_LAGUERRE_DOC,
        ),
    ],
    ids=["hermite", "laguerre"],
)
def test_poly_output_pinned(capsys, argv, text, doc):
    """poly's text and JSON, byte for byte: each type I prefactor is
    r * (2*pi)^(h/2) * exp(q), the reciprocal of its weight's normalizing
    constant for Hermite and 1 for Laguerre, and a zero component prints
    its prefactor and the coefficient 0."""
    assert run(capsys, "poly", *argv) == (0, text, "")
    assert run(capsys, "poly", *argv, "--format", "json") == (0, json.dumps(doc, indent=2) + "\n", "")


def test_poly_negative_n_exit_2(capsys):
    code, _, err = run(capsys, "poly", "--family", "hermite", "--a", "0", "--n", "-1")
    assert code == 2
    assert "error" in err


def test_poly_missing_family_exit_2(capsys):
    code, _, _ = run(capsys, "poly", "--n", "2")
    assert code == 2


def test_poly_wrong_parameter_kind_exit_2(capsys):
    code, _, _ = run(capsys, "poly", "--family", "laguerre", "--a", "1", "--n", "1")
    assert code == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_single_spec_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "hermite", "--a", "1,-1", "--n", "1,1"
    )
    assert code == 0
    assert "overall: pass" in out


def test_verify_sweep_passes(capsys):
    code, out, _ = run(capsys, "verify", "--sweep")
    assert code == 0
    assert "overall: pass" in out
    assert "laguerre" in out and "hermite" in out


def test_verify_inject_fault(capsys, tmp_path, monkeypatch):
    battery = cli.verify_battery

    def failing_battery(family, spec):
        return [*battery(family, spec), CheckResult("injected-fault", False, "synthetic failure")]

    monkeypatch.setattr(cli, "verify_battery", failing_battery)
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", *HERMITE_11, "--out", str(report))
    assert code == 1
    assert "overall: fail" in out
    doc = json.loads(report.read_text())
    assert doc["overall"] == "fail"
    names = {c["name"]: c["status"] for c in doc["specs"][0]["checks"]}
    assert names["injected-fault"] == "fail"
    assert all(c["seconds"] == 0.0 for c in doc["specs"][0]["checks"])


def test_verify_check_that_raises_fails_alone(capsys, monkeypatch):
    """A check that raises becomes one failed result naming the exception;
    the battery runs on and verify exits 1."""

    def boom(K):
        raise RuntimeError("boom")

    monkeypatch.setattr(kernels, "kernel_trace", boom)
    results = {r.name: r for r in verify_battery("hermite", HermiteSpec.of([1, -1], [2, 1]))}
    trace = results.pop("kernel-trace")
    assert not trace.passed
    assert trace.detail == "raised RuntimeError: boom"
    assert trace.seconds >= 0.0
    assert trace.exact_residuals == ()
    assert trace.float_discrepancy == 0.0
    assert len(results) == 6 and all(r.passed for r in results.values())
    code, out, _ = run(capsys, "verify", "--family", "hermite", "--a", "1,-1", "--n", "2,1")
    assert code == 1
    assert "[FAIL] hermite a=1,-1 n=2,1 :: kernel-trace - raised RuntimeError: boom (" in out
    assert "overall: fail" in out


@pytest.mark.parametrize(
    "flags",
    [["--family", "hermite", "--a", "5", "--n", "9"], ["--beta", "1"], ["--p", "0"]],
    ids=["a-n", "beta", "p"],
)
def test_verify_sweep_refuses_spec_flags(capsys, flags):
    """--sweep checks the standard specs only, so a spec it would not check
    is a usage error, not a pass."""
    code, out, err = run(capsys, "verify", "--sweep", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --sweep runs the standard specs")


@pytest.mark.parametrize(
    "flags",
    [["--family", "hermite", "--a", "1,-1", "--n", "1,1"], ["--sweep"]],
    ids=["single", "sweep"],
)
def test_verify_json_stdout_is_one_document(capsys, flags):
    code, out, err = run(capsys, "verify", *flags, "--format", "json")
    assert code == 0
    assert json.loads(out)["overall"] == "pass"
    assert "overall: pass" in err


# ---------------------------------------------------------------------------
# kernel


def test_kernel_grid_rows_and_agreement(capsys):
    code, out, _ = run(
        capsys,
        "kernel",
        "--family",
        "hermite",
        "--a",
        "1,-1",
        "--n",
        "1,1",
        "--grid",
        "-2:2:3",
        "--nodes",
        "512",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,cd,sum,contour,|cd-contour|"
    assert len(lines) == 10  # header + 3x3 rows
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 6
        assert float(fields[5]) < 1e-7


def test_kernel_laguerre_conjugated_column(capsys):
    code, out, _ = run(
        capsys,
        "kernel",
        "--family",
        "laguerre",
        "--beta",
        "1,2",
        "--n",
        "1,1",
        "--p",
        "1",
        "--grid",
        "0.5:2.5:3",
        "--nodes",
        "256",
    )
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        assert float(line.split(",")[5]) < 1e-7


def test_kernel_empty_grid_exit_2(capsys):
    code, _, err = run(
        capsys, "kernel", "--family", "hermite", "--a", "0", "--n", "1", "--grid", "0:1:0"
    )
    assert code == 2
    assert "empty" in err


@pytest.mark.parametrize("tolerance", ["-1", "0", "nan"])
def test_kernel_nonpositive_tolerance_exit_2(capsys, tolerance):
    code, out, err = run(
        capsys, "kernel", "--family", "hermite", "--a", "0", "--n", "1",
        "--grid", "0:1:2", "--tolerance", tolerance,
    )
    assert code == 2
    assert out == ""
    assert "tolerance" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("correlate", *HERMITE_11, "--points", "nan,1"),
        ("correlate", *HERMITE_11, "--points", "0.5,-inf"),
        ("kernel", *HERMITE_11, "--grid", "0:1:2", "--tolerance", "inf"),
    ],
    ids=["points-nan", "points-minus-inf", "tolerance-inf"],
)
def test_non_finite_number_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_kernel_refuses_unplaceable_circle_pair(capsys):
    """At rates (1e-16, 1) the contour's best-scored circle pair misses
    rate 1 at (100, 100): kernel prints no row and one error line."""
    code, out, err = run(
        capsys, "kernel", "--family", "laguerre", "--beta", "1/10000000000000000,1",
        "--n", "1,1", "--p", "1", "--grid=100:100:1,100:100:1", "--nodes", "16",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_density_grid_takes_one_range_exit_2(capsys):
    code, out, err = run(capsys, "density", *HERMITE_11, "--grid=1,0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --grid takes one range")


def test_kernel_laguerre_positivity_exit_2(capsys):
    code, _, err = run(
        capsys,
        "kernel",
        "--family",
        "laguerre",
        "--beta",
        "1,2",
        "--n",
        "1,1",
        "--grid",
        "-1:1:3",
    )
    assert code == 2
    assert "positive" in err


HERMITE_21 = ("--family", "hermite", "--a", "1,-1", "--n", "2,1")
LAGUERRE_11 = ("--family", "laguerre", "--beta", "1,2", "--n", "1,1")
LAGUERRE_11_P2 = ("--family", "laguerre", "--beta", "1,2", "--n", "1,1", "--p", "2")


@pytest.mark.parametrize(
    "argv, where",
    [
        (("density", *HERMITE_21, "--grid=-1e200:1e200:3", "--format", "json"), "x=-1e+200"),
        (("density", *HERMITE_21, "--grid=-1e200:1e200:3"), "x=-1e+200"),
        (("density", *LAGUERRE_11_P2, "--grid=1e308:1e308:1"), "x=1e+308"),
        (("correlate", *HERMITE_21, "--points", "1e200,1"), "[1e+200, 1.0]"),
        (("kernel", *LAGUERRE_11, "--grid=2000:2000:1", "--nodes", "32"), "x=2000.0, y=2000.0"),
    ],
    ids=["density-json", "density-csv", "density-pow", "correlate", "kernel"],
)
def test_non_finite_result_exit_1(capsys, argv, where):
    """A float kernel that overflows to nan is refused, naming the point."""
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "not finite" in err and where in err


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", *HERMITE_21, "--grid=1e200:1e200:1,0:0:1", "--nodes", "64"),
        ("density", *LAGUERRE_11_P2, "--grid=1e200:1e200:1"),
        ("correlate", *LAGUERRE_11_P2, "--points", "1e200,1"),
    ],
    ids=["kernel", "density", "correlate"],
)
def test_overflow_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: float overflow")


def test_kernel_overflow_names_the_point(capsys):
    code, out, err = run(capsys, "kernel", *HERMITE_21, "--grid=1e200:1e200:1,0:0:1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: float overflow: kernel at x=1e+200, y=0.0: ")


def test_kernel_far_from_the_shifts(capsys):
    """With the line through x the contour stays finite and accurate far
    from the shifts, where a line left of the circle overflowed."""
    code, out, err = run(capsys, "kernel", *HERMITE_21, "--grid=36:36:1,0:0:1", "--format", "json")
    assert code == 0, err
    (row,) = json.loads(out)["rows"]
    assert abs(row["cd"] - row["contour"]) <= 1e-7


def test_kernel_laguerre_large_x(capsys):
    """Large x picks a small s-circle; a circle around the rates' circle
    meets e^{xs} at e^{12 * 2} and more and did not settle."""
    code, out, err = run(
        capsys, "kernel", "--family", "laguerre", "--beta", "1,2", "--n", "1,1",
        "--grid=12:12:1,0.5:0.5:1", "--format", "json",
    )
    assert code == 0, err
    (row,) = json.loads(out)["rows"]
    assert abs(row["cd"] - row["contour"]) <= 1e-9


def test_cli_import_loads_no_scipy():
    """scipy.stats costs ~1 s to import; the CLI defers it to the chi-square."""
    probe = "import sys, multiortho.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_simulate_runs_without_scipy(tmp_path):
    """The Monte Carlo verdict needs no scipy: with every scipy import
    blocked, simulate still computes its threshold and passes."""
    probe = (
        "import sys; sys.modules['scipy'] = None; from multiortho.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    args = ["simulate", "--family", "hermite", "--a", "1,-1", "--n", "2,1", "--seed", "1",
            "--samples", "2000", "--out", str(tmp_path / "hist.csv")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert math.isfinite(doc["threshold"])
    assert doc["verdict"] == "pass"


@pytest.mark.parametrize(
    "family, spec_flags",
    [
        ("hermite", ("--a", "1,-1", "--n", "2,1")),
        ("laguerre", ("--beta", "1,2", "--n", "1,1", "--p", "1")),
    ],
    ids=["hermite", "laguerre"],
)
def test_kernel_default_grid(capsys, family, spec_flags):
    """Without --grid, kernel evaluates the 5 x 5 standard grid, x major,
    and its three routes agree within the verify battery's tolerances."""
    code, out, err = run(capsys, "kernel", "--family", family, *spec_flags, "--format", "json")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    grid = standard_grid(family).tolist()
    assert [(r["x"], r["y"]) for r in rows] == [(x, y) for x in grid for y in grid]
    for r in rows:
        assert abs(r["cd"] - r["sum"]) <= KERNEL_AGREEMENT_TOL_SUM
        assert abs(r["cd"] - r["contour"]) <= KERNEL_AGREEMENT_TOL_CONTOUR
        assert r["abs_diff"] == abs(r["cd"] - r["contour"])


def test_kernel_not_settled_exit_1(capsys, monkeypatch, tmp_path):
    """A contour that does not settle by the node cap is refused: exit 1,
    the reason on stderr, and no row written."""
    monkeypatch.setattr(kernels, "CONTOUR_CAP_NODES", kernels.CONTOUR_START_NODES)
    target = tmp_path / "k.csv"
    argv = ("kernel", *HERMITE_11, "--grid=0.5:0.5:1,0:0:1", "--out", str(target))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "did not settle" in err
    assert not target.exists()


def test_kernel_refuses_disagreeing_routes(capsys, tmp_path):
    """At hermite n=(16,16) the float routes lose their digits: on a 3 x 3
    grid kernel writes no row and exits 1, naming the first point whose
    routes disagree past the verify battery's tolerances and both gaps."""
    target = tmp_path / "k.csv"
    argv = ("--a", "1,-1", "--n", "16,16", "--grid=-2:2:3,-2:2:3", "--out", str(target))
    code, out, err = run(capsys, "kernel", "--family", "hermite", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "x=-2.0, y=-2.0:" in err
    gap_sum, gap_contour = (
        float(err.split(label)[1].split(",")[0]) for label in ("|cd-sum| ", "|cd-contour| ")
    )
    assert gap_sum > KERNEL_AGREEMENT_TOL_SUM and gap_contour > KERNEL_AGREEMENT_TOL_CONTOUR
    assert not target.exists()


def test_kernel_adaptive_grid_far_from_the_rates(capsys):
    """A default-node grid whose routes agree passes the refusal: laguerre
    beta=(1,2,3), n=(1,1,6), p=2 at x = 0.5, far below the rates."""
    argv = ("--beta", "1,2,3", "--n", "1,1,6", "--p", "2", "--grid=0.5:0.5:1,0.5:4.5:5")
    code, out, err = run(capsys, "kernel", "--family", "laguerre", *argv, "--format", "json")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert len(rows) == 5
    for r in rows:
        assert abs(r["cd"] - r["sum"]) <= KERNEL_AGREEMENT_TOL_SUM
        assert r["abs_diff"] <= KERNEL_AGREEMENT_TOL_CONTOUR


def test_kernel_explicit_nodes_prints_the_contour_gap(capsys):
    """An explicit --nodes asks for that discretization: at 32 nodes the
    contour misses cd by more than the default gate, and kernel prints it."""
    code, out, err = run(capsys, "kernel", *HERMITE_11, "--nodes", "32", "--format", "json")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert max(r["abs_diff"] for r in rows) > KERNEL_AGREEMENT_TOL_CONTOUR
    assert all(abs(r["cd"] - r["sum"]) <= KERNEL_AGREEMENT_TOL_SUM for r in rows)


@pytest.mark.parametrize(
    "argv, header",
    [
        (("kernel", *HERMITE_11, "--grid=-1:1:3"), "x,y,cd,sum,contour,|cd-contour|"),
        (("density", *HERMITE_11), "x,density"),
        (("density", "--family", "laguerre", "--beta", "1,2", "--n", "2,1", "--p", "1"),
         "x,density"),
    ],
    ids=["kernel", "density-hermite", "density-laguerre"],
)
def test_csv_and_json_carry_the_same_rows(capsys, argv, header):
    """Each CSV row is the JSON row's values at 17 significant digits, in
    order, under the documented header."""
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    lines = out.splitlines()
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert lines[0] == header
    assert [line.split(",") for line in lines[1:]] == [
        [format(v, ".17g") for v in row.values()] for row in rows
    ]


# ---------------------------------------------------------------------------
# density


def test_density_integrates_to_weight(capsys):
    code, out, _ = run(
        capsys,
        "density",
        "--family",
        "hermite",
        "--a",
        "1,-1",
        "--n",
        "1,1",
        "--grid",
        "-5:5:201",
    )
    assert code == 0
    rows = np.array(
        [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
    )
    integral = np.trapezoid(rows[:, 1], rows[:, 0])
    assert integral == pytest.approx(2.0, rel=0.02)


@pytest.mark.parametrize(
    "spec, spec_flags",
    [
        (HermiteSpec.of([1, -1, 2], [3, 3, 2]), ("--a", "1,-1,2", "--n", "3,3,2")),
        (LaguerreSpec.of([1, 2], [2, 3], 1), ("--beta", "1,2", "--n", "2,3", "--p", "1")),
    ],
    ids=["hermite", "laguerre"],
)
def test_density_is_eval_cd_on_the_diagonal_bitwise(capsys, spec, spec_flags):
    """On its default grid, density prints eval_cd(K, x, x) to the bit."""
    code, out, _ = run(capsys, "density", "--family", spec.family, *spec_flags, "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 101
    K = build_kernel(spec.family, spec)
    got = np.array([row["density"] for row in rows])
    want = np.array([eval_cd(K, row["x"], row["x"]) for row in rows])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_density_laguerre_integrates(capsys):
    code, out, _ = run(
        capsys,
        "density",
        "--family",
        "laguerre",
        "--beta",
        "1,2",
        "--n",
        "1,1",
        "--p",
        "1",
        "--grid",
        "0.01:12:301",
    )
    assert code == 0
    rows = np.array(
        [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
    )
    assert np.trapezoid(rows[:, 1], rows[:, 0]) == pytest.approx(2.0, rel=0.02)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_deterministic_and_passing(capsys, tmp_path):
    csv1, csv2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "simulate",
        "--family",
        "hermite",
        "--a",
        "1,-1",
        "--n",
        "1,1",
        "--samples",
        "20000",
        "--seed",
        "91",
    ]
    code1, out1, _ = run(capsys, *args, "--out", str(csv1))
    code2, out2, _ = run(capsys, *args, "--out", str(csv2))
    assert code1 == 0 and code2 == 0
    assert csv1.read_bytes() == csv2.read_bytes()
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert doc1["verdict"] == "pass"
    assert doc1["chi_square"] == doc2["chi_square"]
    header = csv1.read_text().split("\n")[0]
    assert header == "x,empirical,predicted,stderr,observed_count,expected_count"


def test_simulate_insufficient_samples(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "simulate",
        "--family",
        "hermite",
        "--a",
        "1,-1",
        "--n",
        "1,1",
        "--samples",
        "10",
        "--seed",
        "3",
        "--out",
        str(tmp_path / "t.csv"),
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "insufficient-samples"


def test_simulate_requires_out_and_seed(capsys, tmp_path):
    code, _, _ = run(
        capsys, "simulate", "--family", "hermite", "--a", "1,-1", "--n", "1,1", "--seed", "1"
    )
    assert code == 2
    code2, _, _ = run(
        capsys,
        "simulate",
        "--family",
        "hermite",
        "--a",
        "1,-1",
        "--n",
        "1,1",
        "--out",
        str(tmp_path / "x.csv"),
    )
    assert code2 == 2


def test_simulate_grid_sets_the_bins(capsys, tmp_path):
    """--grid=lo:hi:count gives count bins over [lo, hi]; a second axis is
    a usage error."""
    target = tmp_path / "bins.csv"
    args = ["simulate", *HERMITE_11, "--samples", "20000", "--seed", "91"]
    code, out, err = run(capsys, *args, "--grid=-4:4:20", "--out", str(target))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["bin_count"] == 20
    assert doc["bin_range"] == [-4.0, 4.0]
    lines = target.read_text().splitlines()
    assert len(lines) == 1 + 20
    centers = [float(line.split(",")[0]) for line in lines[1:]]
    assert centers == pytest.approx(np.linspace(-3.8, 3.8, 20).tolist(), abs=1e-12)
    code, _, err = run(capsys, *args, "--grid=-4:4:20,0:1:2", "--out", str(target))
    assert code == 2
    assert "single" in err


# ---------------------------------------------------------------------------
# correlate


def test_correlate_single_point_is_density(capsys):
    """One point gives the density K(x, x); more give det[K(x_i, x_j)].
    0 lies inside the Hermite support, so it is a valid point."""
    K = build_kernel("hermite", HermiteSpec.of([1, -1], [1, 1]))
    for points in ("0.8", "0", "0,0.8"):
        code, out, _ = run(capsys, "correlate", *HERMITE_11, "--points", points)
        assert code == 0
        pts = [float(v) for v in points.split(",")]
        want = np.linalg.det([[eval_cd(K, x, y) for y in pts] for x in pts])
        assert json.loads(out)["determinant"] == pytest.approx(want, rel=1e-14)


def test_correlate_duplicate_point_zero(capsys):
    code, out, _ = run(
        capsys,
        "correlate",
        "--family",
        "hermite",
        "--a",
        "1,-1",
        "--n",
        "1,1",
        "--points",
        "0.8,0.8",
    )
    assert code == 0
    assert json.loads(out)["determinant"] == 0.0


def test_correlate_conjugation_reported(capsys):
    """At 0.5, 1e-320 the factor (x_i / x_j)^p is 5e319, past the float
    range, while the conjugated entries and determinant are finite."""
    for points in ("0.7,1.9", "0.5,1e-320"):
        code, out, _ = run(
            capsys,
            "correlate",
            "--family",
            "laguerre",
            "--beta",
            "1,2",
            "--n",
            "1,1",
            "--p",
            "1",
            "--points",
            points,
        )
        assert code == 0
        doc = json.loads(out)
        assert math.isfinite(doc["conjugated_determinant"])
        assert doc["conjugation_relative_difference"] <= 1e-10


# ---------------------------------------------------------------------------
# config files


def test_config_file_and_override(capsys, tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(
        json.dumps(
            {
                "family": "laguerre",
                "beta": ["1", "2"],
                "n": [1, 1],
                "p": 1,
                "grid": "0.5:2.5:2",
                "nodes": 128,
            }
        )
    )
    code, out, _ = run(capsys, "kernel", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().split("\n")) == 5  # header + 2x2

    code2, out2, _ = run(capsys, "kernel", "--config", str(cfg), "--grid", "1:2:3")
    assert code2 == 0
    assert len(out2.strip().split("\n")) == 10  # flags override the file


def test_config_unknown_field_exit_2(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"family": "hermite", "a": ["0"], "n": [2], "oops": 1}))
    code, _, err = run(capsys, "poly", "--config", str(cfg))
    assert code == 2
    assert "oops" in err


@pytest.mark.parametrize(
    "fields",
    [{"n": [1.7, 1]}, {"p": 1.9}, {"p": True}, {"n": [True, 1]}],
    ids=["n-float", "p-float", "p-bool", "n-bool"],
)
def test_config_integer_fields_not_truncated(capsys, tmp_path, fields):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"family": "laguerre", "beta": [1, 2], "n": [1, 1], **fields}))
    code, out, err = run(capsys, "poly", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "expected an integer" in err


def test_config_bool_rational_exit_2(capsys, tmp_path):
    """A JSON true among the shifts is refused by the spec, not read as 1."""
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"family": "hermite", "a": [True, -1], "n": [1, 1]}))
    code, out, err = run(capsys, "poly", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_float_and_string_rationals(capsys, tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"family": "hermite", "a": [0.5, "-1"], "n": [1, 1]}))
    code, out, err = run(capsys, "poly", "--config", str(cfg))
    assert code == 0, err
    assert "a: 1/2,-1\n" in out


@pytest.mark.parametrize("out", [None, 7], ids=["null", "number"])
def test_config_out_must_be_a_string(capsys, tmp_path, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"family": "hermite", "a": [0], "n": [2], "out": out}))
    code, stdout, err = run(capsys, "poly", "--config", str(cfg))
    assert code == 2
    assert stdout == ""
    assert "expected a string" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]


@pytest.mark.parametrize(
    "command, fields",
    [
        ("correlate", {"points": [0.5, float("nan")]}),
        ("correlate", {"points": ["1", "inf"]}),
        ("kernel", {"tolerance": float("inf"), "grid": "0:1:2"}),
    ],
    ids=["points-nan", "points-inf-string", "tolerance-inf"],
)
def test_config_non_finite_number_exit_2(capsys, tmp_path, command, fields):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"family": "hermite", "a": [1, -1], "n": [1, 1], **fields}))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "k.csv"
    code, out, _ = run(
        capsys,
        "density",
        "--family",
        "hermite",
        "--a",
        "0",
        "--n",
        "1",
        "--grid",
        "0:1:2",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    body = target.read_text().strip().split("\n")
    assert body[0] == "x,density"
    assert float(body[1].split(",")[1]) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ("density", *HERMITE_11, "--grid=0:1:2"),
        ("simulate", *HERMITE_11, "--seed", "1", "--samples", "2000"),
    ],
    ids=["density", "simulate"],
)
def test_unwritable_out_exit_2(tmp_path, argv):
    """An --out path that cannot be opened is a usage error: exit 2 and one
    error line, no traceback."""
    target = tmp_path / "missing" / "x.csv"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-m", "multiortho.cli", *argv, "--out", str(target)],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 2
    assert done.stderr.startswith(f"error: cannot write {target}: ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def test_unwritable_out_refused_before_verify_runs(tmp_path):
    """verify checks --out before the battery: no progress line and no
    "overall: pass" on stdout ahead of the usage error."""
    target = tmp_path / "missing" / "r.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-m", "multiortho.cli", "verify", *HERMITE_11, "--out", str(target)],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith(f"error: cannot write {target}")
    assert done.stderr.count("\n") == 1


def test_unwritable_out_refused_before_simulate_samples(capsys, tmp_path, monkeypatch):
    def sampler(cfg):
        pytest.fail("simulate sampled before checking --out")

    monkeypatch.setitem(rmt.SAMPLERS, "hermite", sampler)
    target = tmp_path / "missing" / "h.csv"
    code, out, err = run(
        capsys, "simulate", *HERMITE_11, "--seed", "1", "--samples", "100", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")


# ---------------------------------------------------------------------------
# flags each command reads


def exit_code(argv):
    """main's exit code; argparse refuses a flag by raising SystemExit(2)."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", *HERMITE_11, "--nodes", "16", "--grid=0:1:0", "--tolerance", "-1"),
        ("poly", *HERMITE_11, "--grid", "0:1:2"),
        ("density", *HERMITE_11, "--nodes", "16"),
        ("simulate", *HERMITE_11, "--seed", "1", "--out", "unused.csv", "--format", "json"),
        ("correlate", *HERMITE_11, "--points", "1", "--format", "csv"),
        ("kernel", *HERMITE_11, "--samples", "10"),
        ("kernel", "--config", "points.json"),
    ],
    ids=["verify", "poly-grid", "density-nodes", "simulate-format", "correlate-format",
         "kernel-samples", "kernel-config-points"],
)
def test_unread_flag_exit_2(capsys, tmp_path, monkeypatch, argv):
    """A flag or config key the command does not read is refused, not ignored."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "points.json").write_text(
        json.dumps({"family": "hermite", "a": [1, -1], "n": [1, 1], "points": [1.0]})
    )
    assert exit_code(list(argv)) == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "unused.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("poly", *HERMITE_11, "--p", "0"),
        ("poly", "--family", "gauss", "--a", "1", "--n", "1"),
        ("poly", *HERMITE_11, "--format", "xml"),
        ("kernel", *HERMITE_11, "--nodes", "abc"),
    ],
    ids=["hermite-p-0", "family", "format", "integer"],
)
def test_bad_spec_or_value_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("spec", [HERMITE_11, LAGUERRE_11], ids=["hermite", "laguerre"])
def test_kernel_nodes_above_cap_exit_2(capsys, spec):
    """One cap bounds the explicit node count and the adaptive doubling."""
    code, out, err = run(capsys, "kernel", *spec, "--grid=1:1:1", "--nodes", "16384")
    assert code == 2
    assert out == ""
    assert err == "error: node count must be <= 8192, got 16384\n"
