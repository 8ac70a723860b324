"""Command-line interface: output contracts, exit codes, and determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from multiortho.cli import main
from multiortho.hermite import HermiteSpec
from multiortho.kernels import build_kernel, eval_cd
from multiortho.laguerre import LaguerreSpec


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


def test_verify_inject_fault(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify",
        "--family",
        "hermite",
        "--a",
        "1,-1",
        "--n",
        "1,1",
        "--inject-fault",
        "--out",
        str(report),
    )
    assert code == 1
    assert "overall: fail" in out
    doc = json.loads(report.read_text())
    assert doc["overall"] == "fail"
    names = {c["name"]: c["status"] for c in doc["specs"][0]["checks"]}
    assert names["injected-fault"] == "fail"
    assert all(c["seconds"] == 0.0 for c in doc["specs"][0]["checks"])


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


HERMITE_11 = ("--family", "hermite", "--a", "1,-1", "--n", "1,1")


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
LAGUERRE_11_P2 = ("--family", "laguerre", "--beta", "1,2", "--n", "1,1", "--p", "2")


@pytest.mark.parametrize(
    "argv, where",
    [
        (("density", *HERMITE_21, "--grid=-1e200:1e200:3", "--format", "json"), "x=-1e+200"),
        (("density", *HERMITE_21, "--grid=-1e200:1e200:3"), "x=-1e+200"),
        (("correlate", *HERMITE_21, "--points", "1e200,1"), "[1e+200, 1.0]"),
    ],
    ids=["density-json", "density-csv", "correlate"],
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
        ("kernel", *HERMITE_21, "--grid=40:40:1,0:0:1", "--nodes", "64"),
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
    code, out, err = run(capsys, "kernel", *HERMITE_21, "--grid=36:36:1,0:0:1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: float overflow: kernel at x=36.0, y=0.0: ")


def test_cli_import_loads_no_scipy():
    """scipy.stats costs ~1 s to import; the CLI defers it to the chi-square."""
    probe = "import sys, multiortho.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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


# ---------------------------------------------------------------------------
# correlate


def test_correlate_single_point_is_density(capsys):
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
        "0.8",
    )
    assert code == 0
    doc = json.loads(out)
    K = build_kernel("hermite", HermiteSpec.of([1, -1], [1, 1]))
    assert doc["determinant"] == pytest.approx(eval_cd(K, 0.8, 0.8), rel=1e-14)


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
        "0.7,1.9",
    )
    assert code == 0
    doc = json.loads(out)
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
