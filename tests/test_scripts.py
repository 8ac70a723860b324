"""Smoke tests for the experiment scripts, loaded by path and run on tiny
inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_kernel_grid_smoke(capsys):
    code = _main("kernel_grid")(["--node-counts", "64"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0].startswith("spec: hermite HermiteSpec(")
    assert lines[1] == "nodes  max|cd-contour|   max|cd-sum|"
    assert lines[2].split()[0] == "64"


def test_kernel_grid_joins_leading_minus_value(capsys):
    main = _main("kernel_grid")
    assert main(["--node-counts", "64", "--grid=-2:2:3"]) == 0
    joined = capsys.readouterr().out
    assert main(["--node-counts", "64", "--grid", "-2:2:3"]) == 0
    assert capsys.readouterr().out == joined


def test_simulate_density_joins_leading_minus_value(capsys):
    main = _main("simulate_density")
    args = ["--samples-list", "200", "--a", "-1,1"]
    assert main([*args, "--bins=-4:4:8"]) == 0
    joined = capsys.readouterr().out
    assert main([*args, "--bins", "-4:4:8"]) == 0
    assert capsys.readouterr().out == joined
    assert "bins -4:4:8" in joined


def test_simulate_density_smoke(capsys, tmp_path):
    out = tmp_path / "hist.csv"
    code = _main("simulate_density")(
        ["--family", "laguerre", "--p", "1", "--samples-list", "200", "--out", str(out)]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0].startswith("spec: laguerre LaguerreSpec(")
    assert lines[0].endswith("seed 20260814, bins 0.05:6:40")
    assert lines[1] == "      S      chi2       dof  threshold  verdict"
    assert lines[2].split()[0] == "200"
    assert out.read_text().splitlines()[0] == "x,empirical,predicted,stderr"


def test_verify_sweep_smoke(capsys):
    code = _main("verify_sweep")(["--max-m", "2", "--max-weight", "2", "--skip-battery"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0].startswith("exact sweep: 60 hermite + 114 laguerre specs, 0 failures")
    assert lines[-1] == "overall: pass"


@pytest.mark.parametrize(
    "name, argv, code, message",
    [
        ("kernel_grid", ["--grid=1,0", "--node-counts", "32"], 2, "error: --grid takes one range"),
        ("kernel_grid", ["--grid=1e200:1e200:1", "--node-counts", "32"], 1, "error: float overflow: "),
        ("simulate_density", ["--family", "laguerre", "--p", "-1"], 2, "error: invalid spec: "),
        ("verify_sweep", ["--shift-pool", "1,x", "--skip-battery"], 2, "error: Invalid literal"),
    ],
    ids=["kernel_grid-usage", "kernel_grid-overflow", "simulate_density-usage", "verify_sweep-usage"],
)
def test_script_errors_exit_with_error_line(capsys, name, argv, code, message):
    assert _main(name)(argv) == code
    assert capsys.readouterr().err.splitlines()[-1].startswith(message)
