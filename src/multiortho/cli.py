"""Command-line front end.

Commands
    poly       print exact type II / type I coefficients for one spec
    verify     run the exact + numeric cross-check battery (exit 1 on failure)
    kernel     CSV grid of the kernel in all three forms
    density    CSV grid of the one-point density K(x, x)
    simulate   Monte Carlo eigenvalue histogram vs kernel prediction
    correlate  determinant of [K(x_i, x_j)] at given points

Every command reads the spec flags (SPEC_FLAGS) and --config; COMMANDS
names the rest, and FLAGS converts each.  A --config file holds the same
keys as the command's flags, switches aside.

Exit codes: 0 success, 1 verification/statistical failure, 2 usage or
configuration error, a flag or config key the command does not read and an
--out file that cannot be written among them.  Rational values cross this
boundary as "num/den" strings; floats are printed with 17 significant
digits.  File outputs are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, fields
from fractions import Fraction
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import kernels as _kernels
from . import rmt as _rmt
from .core import LinearFormTerm, MultiIndex, RatPoly, mi_chain
from .quad import ConvergenceError
from .hermite import HermiteSpec
from .laguerre import LaguerreSpec
from .presets import (
    KERNEL_AGREEMENT_TOL_CONTOUR,
    KERNEL_AGREEMENT_TOL_SUM,
    CheckResult,
    standard_grid,
    standard_specs,
    verify_battery,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DEFAULT_BIN_COUNT = 40
DEFAULT_BIN_RANGE = {"hermite": (-4.0, 4.0), "laguerre": (0.05, 6.0)}
DEFAULT_SAMPLES = 20_000


class UsageError(ValueError):
    """Bad flags or configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# flags and config


def _parse_int(value: Any) -> int:
    """An integer from a flag string or a JSON number; bools and
    non-integral numbers are rejected instead of truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise UsageError(f"expected an integer, got {value!r}")
    return int(value)


def _parse_finite(value: Any) -> float:
    """A float that is neither nan nor infinite (JSON has no such numbers)."""
    x = float(value)
    if not math.isfinite(x):
        raise UsageError(f"expected a finite number, got {value!r}")
    return x


def _parse_text(value: Any) -> str:
    """A string as given; a JSON null or number is refused, not stringified."""
    if not isinstance(value, str):
        raise UsageError(f"expected a string, got {value!r}")
    return value


def _parse_format(value: Any) -> str:
    if value not in ("csv", "json"):
        raise UsageError(f"unknown format {value!r} (expected csv or json)")
    return value


def _require_finite(where: str, *values: float) -> None:
    """Refuse to print a value that overflowed the float routes."""
    if not all(math.isfinite(v) for v in values):
        raise OverflowError(f"{where} is not finite")


def _list_of(convert: Callable[[Any], Any] | None = None) -> Callable[[Any], tuple]:
    """A non-empty list from a comma-separated flag or a JSON array, each
    item through convert, or as given when the spec coerces it."""

    def parse(value: Any) -> tuple:
        if isinstance(value, str):
            value = [s for s in value.split(",") if s.strip()]
        if not isinstance(value, (list, tuple)) or not value:
            raise UsageError(f"expected a non-empty comma-separated list, got {value!r}")
        return tuple(value) if convert is None else tuple(map(convert, value))

    return parse


class Flag(NamedTuple):
    """One converter for a flag's command-line string and its config-file
    value; a flag without one is a command-line switch."""

    convert: Callable[[Any], Any] | None
    help: str


FLAGS = {
    "family": Flag(_parse_text, "hermite or laguerre"),
    "a": Flag(_list_of(), "comma-separated rationals (hermite shifts)"),
    "beta": Flag(_list_of(), "comma-separated positive rationals (laguerre rates)"),
    "n": Flag(_list_of(_parse_int), "comma-separated non-negative integers (multi-index)"),
    "p": Flag(_parse_int, "laguerre exponent offset (default 0)"),
    "sweep": Flag(None, "run the standard spec battery"),
    "grid": Flag(
        _parse_text, "xmin:xmax:count[,ymin:ymax:count]; for simulate, count is the bin count"
    ),
    "nodes": Flag(
        _parse_int,
        f"even contour node count, 16 to {_kernels.CONTOUR_CAP_NODES} (default adaptive)",
    ),
    "tolerance": Flag(_parse_finite, "adaptive contour tolerance"),
    "samples": Flag(_parse_int, "Monte Carlo sample count"),
    "seed": Flag(_parse_int, "RNG seed"),
    "points": Flag(_list_of(_parse_finite), "comma-separated evaluation points"),
    "format": Flag(_parse_format, "csv (text for poly) or json"),
    "out": Flag(_parse_text, "output path (default stdout)"),
}

# Every command reads these; COMMANDS lists the rest.
SPEC_FLAGS = ("family", "a", "beta", "n", "p")

SPECS = {cls.family: cls for cls in (HermiteSpec, LaguerreSpec)}


def _load_config_file(path: str, keys: Sequence[str]) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = sorted(set(raw).difference(keys))
    if unknown:
        raise UsageError(f"unknown config fields: {', '.join(unknown)}")
    return raw


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """The command's flags, each converted once through FLAGS: config file
    values first, command-line flags override.  The file takes the
    command's flags but not its switches."""
    names = (*SPEC_FLAGS, *COMMANDS[args.command].flags)
    keys = [k for k in names if FLAGS[k].convert is not None]
    raw = _load_config_file(args.config, keys) if args.config else {}
    raw.update((k, getattr(args, k)) for k in keys if getattr(args, k) is not None)
    cfg = argparse.Namespace(command=args.command, **{k: getattr(args, k) for k in names})
    for key, value in raw.items():
        try:
            setattr(cfg, key, FLAGS[key].convert(value))
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad value for {key!r}: {exc}") from exc
    return cfg


def _build_spec(cfg: argparse.Namespace):
    """Family + validated spec from the spec flags; exit-code-2 errors on
    a flag the family's spec lacks or a missing field without default."""
    spec_cls = SPECS.get(cfg.family)
    if spec_cls is None:
        raise UsageError("--family must be hermite or laguerre")
    params = {f.name: f for f in fields(spec_cls)}
    for key in SPEC_FLAGS[1:]:
        is_given = getattr(cfg, key) is not None
        if is_given and key not in params:
            raise UsageError(f"--{key} does not apply to the {cfg.family} family")
        if not is_given and key in params and params[key].default is MISSING:
            raise UsageError(f"--{key} is required for the {cfg.family} family")
    given = {k: getattr(cfg, k) for k in params if getattr(cfg, k) is not None}
    try:
        return cfg.family, spec_cls.of(**given)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid spec: {exc}") from exc


def _parse_axis(text: str) -> tuple[float, float, int]:
    bits = text.split(":")
    if len(bits) != 3:
        raise UsageError(f"grid range {text!r} is not min:max:count")
    try:
        lo, hi, count = float(bits[0]), float(bits[1]), int(bits[2])
    except ValueError as exc:
        raise UsageError(f"grid range {text!r} is not min:max:count") from exc
    if count < 1:
        raise UsageError(f"grid range {text!r} is empty")
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi < lo:
        raise UsageError(f"grid range {text!r} has no extent")
    return lo, hi, count


def _parse_grid(text: str, axes: int) -> list[np.ndarray]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts or len(parts) > axes:
        raise UsageError(
            f"--grid takes {'one range' if axes == 1 else 'one or two ranges'}, got {text!r}"
        )
    ranges = [np.linspace(*_parse_axis(p)) for p in parts]
    while len(ranges) < axes:
        ranges.append(ranges[0])
    return ranges


def _check_positive_grid(family: str, values: np.ndarray) -> None:
    if _kernels.FAMILIES[family].HALF_LINE and np.any(values <= 0.0):
        raise UsageError("laguerre grids must stay strictly positive")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _check_out(out: str | None) -> None:
    """Refuse, before any work, an --out path that is a directory or whose
    directory does not exist; _emit reports a write that fails later."""
    if out is not None and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        raise UsageError(f"cannot write {out}: it is a directory or its directory does not exist")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def _csv(header: Sequence[str], rows: Iterable[Iterable[float]]) -> str:
    """CSV text under header, each value through _fmt."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _doc_value(value: Any) -> Any:
    """A spec or weight field as the JSON documents carry it."""
    if isinstance(value, MultiIndex):
        return list(value)
    if isinstance(value, tuple):
        return [str(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def _fields_doc(obj) -> dict[str, Any]:
    return {f.name: _doc_value(getattr(obj, f.name)) for f in fields(obj)}


def _spec_doc(command: str, spec, **rest: Any) -> dict[str, Any]:
    """The JSON document of a one-spec command: the common header, then rest."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "family": spec.family,
        "parameters": _fields_doc(spec),
        **rest,
    }


def _emit_rows(
    cfg: argparse.Namespace, spec, header: Sequence[str], rows: list[dict[str, float]]
) -> None:
    """The grid rows as the command's JSON document or as CSV under header."""
    if cfg.format == "json":
        _emit(_json_text(_spec_doc(cfg.command, spec, rows=rows)), cfg.out)
    else:
        _emit(_csv(header, [row.values() for row in rows]), cfg.out)


def _spec_label(spec) -> str:
    params = _fields_doc(spec)
    inner = " ".join(f"{k}={','.join(map(str, v)) if isinstance(v, list) else v}" for k, v in params.items())
    return f"{spec.family} {inner}"


# ---------------------------------------------------------------------------
# commands


def _prefactor_doc(term: LinearFormTerm) -> dict[str, str | int]:
    """The term's prefactor r / Z as r * (2*pi)^(two_pi_half/2) * e^exp_arg,
    Z being its weight's normalizing constant."""
    w = term.weight
    return {
        "rational": str(term.prefactor),
        "two_pi_half": -w.two_pi_half,
        "exp_arg": str(-w.exp_arg),
    }


def _coeff_strings(poly: RatPoly) -> list[str]:
    return [str(c) for c in poly.coeffs]


def cmd_poly(cfg: argparse.Namespace) -> int:
    family, spec = _build_spec(cfg)
    mod = _kernels.FAMILIES[family]
    P = mod.type_ii_poly(spec)
    form = mod.type_i_form(spec)

    type_i_docs = [
        {
            "component": k,
            "weight": _fields_doc(term.weight),
            "prefactor": _prefactor_doc(term),
            "coefficients_ascending": _coeff_strings(term.poly),
        }
        for k, term in enumerate(form.terms, 1)
    ]
    doc = _spec_doc(
        "poly",
        spec,
        type_ii={"degree": P.degree, "coefficients_ascending": _coeff_strings(P)},
        type_i=type_i_docs,
    )
    if cfg.format == "json":
        _emit(_json_text(doc), cfg.out)
        return EXIT_OK

    lines = [f"family: {family}"]
    for key, value in doc["parameters"].items():
        lines.append(f"{key}: {','.join(map(str, value)) if isinstance(value, list) else value}")
    lines.append(f"type II monic polynomial, degree {P.degree}")
    lines.append(f"  coefficients (ascending): {', '.join(_coeff_strings(P)) or '0'}")
    lines.append("type I linear form, one term per weight")
    for td in type_i_docs:
        w = ", ".join(f"{k}={v}" for k, v in td["weight"].items())
        pf = td["prefactor"]
        lines.append(f"  component {td['component']} ({w}):")
        lines.append(
            f"    prefactor: {pf['rational']} * (2*pi)^({pf['two_pi_half']}/2) * exp({pf['exp_arg']})"
        )
        lines.append(
            f"    coefficients (ascending): {', '.join(td['coefficients_ascending']) or '0'}"
        )
    _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK


def _check_doc(res: CheckResult, zero_timings: bool) -> dict[str, Any]:
    return {
        "name": res.name,
        "status": "pass" if res.passed else "fail",
        "detail": res.detail,
        "exact_residuals": list(res.exact_residuals),
        "float_discrepancy": res.float_discrepancy,
        "seconds": 0.0 if zero_timings else round(res.seconds, 6),
    }


def cmd_verify(cfg: argparse.Namespace) -> int:
    if cfg.sweep:
        given = [f"--{k}" for k in SPEC_FLAGS[1:] if getattr(cfg, k) is not None]
        if given:
            raise UsageError(f"--sweep runs the standard specs and takes no {'/'.join(given)}")
        families = [cfg.family] if cfg.family else list(_kernels.FAMILIES)
        if any(f not in _kernels.FAMILIES for f in families):
            raise UsageError("--family must be hermite or laguerre")
        jobs = [(f, spec) for f in families for spec in standard_specs(f)]
    else:
        jobs = [_build_spec(cfg)]

    # A JSON document on stdout must be the only thing there.
    progress = sys.stderr if cfg.format == "json" and cfg.out is None else sys.stdout
    spec_docs = []
    for family, spec in jobs:
        results = verify_battery(family, spec)
        label = _spec_label(spec)
        for r in results:
            status = "pass" if r.passed else "FAIL"
            print(f"[{status}] {label} :: {r.name} - {r.detail} ({r.seconds:.2f}s)", file=progress)
        spec_docs.append(
            {
                "family": family,
                "parameters": _fields_doc(spec),
                "status": "pass" if all(r.passed for r in results) else "fail",
                "checks": [_check_doc(r, zero_timings=cfg.out is not None) for r in results],
            }
        )
    overall = "pass" if all(d["status"] == "pass" for d in spec_docs) else "fail"
    print(f"overall: {overall}", file=progress)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "overall": overall,
        "specs": spec_docs,
    }
    if cfg.out is not None or cfg.format == "json":
        _emit(_json_text(doc), cfg.out)
    return EXIT_OK if overall == "pass" else EXIT_FAIL


def cmd_kernel(cfg: argparse.Namespace) -> int:
    family, spec = _build_spec(cfg)
    if cfg.grid is not None:
        xs, ys = _parse_grid(cfg.grid, axes=2)
    else:
        xs = ys = standard_grid(family)
    _check_positive_grid(family, xs)
    _check_positive_grid(family, ys)
    tol = cfg.tolerance if cfg.tolerance is not None else _kernels.CONTOUR_DOUBLING_TOL
    if not tol > 0.0:
        raise UsageError(f"--tolerance must be a positive number, got {tol}")
    K = _kernels.build_kernel(family, spec)
    chain = mi_chain(spec.n)

    rows = []
    for x in xs:
        for y in ys:
            cd, s, ct = _kernels.kernel_point(K, chain, float(x), float(y), cfg.nodes, tol)
            diff = abs(cd - ct)
            # An explicit --nodes asks for that discretization, so its
            # contour gap is printed, not judged; cd and sum must agree.
            if abs(cd - s) > KERNEL_AGREEMENT_TOL_SUM or (
                cfg.nodes is None and diff > KERNEL_AGREEMENT_TOL_CONTOUR
            ):
                print(
                    f"error: the kernel routes disagree at x={float(x)}, y={float(y)}: "
                    f"|cd-sum| {abs(cd - s):.3g}, |cd-contour| {diff:.3g}",
                    file=sys.stderr,
                )
                return EXIT_FAIL
            rows.append(
                {"x": float(x), "y": float(y), "cd": cd, "sum": s, "contour": ct, "abs_diff": diff}
            )
    _emit_rows(cfg, spec, ["x", "y", "cd", "sum", "contour", "|cd-contour|"], rows)
    return EXIT_OK


def cmd_density(cfg: argparse.Namespace) -> int:
    family, spec = _build_spec(cfg)
    if cfg.grid is not None:
        (xs,) = _parse_grid(cfg.grid, axes=1)
    else:
        xs = standard_grid(family, count=101)
    _check_positive_grid(family, xs)
    K = _kernels.build_kernel(family, spec)
    rows = []
    for x in xs:
        try:
            value = _kernels.eval_cd(K, x, x)
        except OverflowError as exc:
            raise OverflowError(f"density at x={float(x)} is not finite") from exc
        _require_finite(f"density at x={float(x)}", value)
        rows.append({"x": float(x), "density": value})
    _emit_rows(cfg, spec, ["x", "density"], rows)
    return EXIT_OK


def cmd_simulate(cfg: argparse.Namespace) -> int:
    family, spec = _build_spec(cfg)
    if cfg.out is None:
        raise UsageError("simulate writes its per-bin CSV to --out; the flag is required")
    if cfg.seed is None:
        raise UsageError("simulate requires --seed for reproducibility")
    samples = cfg.samples if cfg.samples is not None else DEFAULT_SAMPLES
    if cfg.grid is not None:
        if "," in cfg.grid:
            raise UsageError("simulate --grid takes a single min:max:count range")
        lo, hi, bin_count = _parse_axis(cfg.grid)
        bin_range = (lo, hi)
    else:
        bin_range = DEFAULT_BIN_RANGE[family]
        bin_count = DEFAULT_BIN_COUNT
    _check_positive_grid(family, np.asarray(bin_range))

    ens = _rmt.EnsembleConfig(
        family=family,
        spec=spec,
        samples=samples,
        seed=cfg.seed,
        bin_range=bin_range,
        bin_count=bin_count,
    )
    batch = _rmt.SAMPLERS[family](ens)
    K = _kernels.build_kernel(family, spec)
    comparison = _rmt.compare_density(batch, K, ens)

    rows = zip(
        comparison.bin_centers, comparison.empirical, comparison.predicted,
        comparison.stderr, comparison.observed_counts, comparison.expected_counts,
    )
    header = ["x", "empirical", "predicted", "stderr", "observed_count", "expected_count"]
    _emit(_csv(header, rows), cfg.out)
    doc = _spec_doc(
        "simulate",
        spec,
        samples=samples,
        seed=cfg.seed,
        bin_range=[bin_range[0], bin_range[1]],
        bin_count=bin_count,
        chi_square=comparison.chi_square,
        dof=comparison.dof,
        threshold=comparison.threshold,
        verdict=comparison.verdict,
        csv=cfg.out,
    )
    sys.stdout.write(_json_text(doc))
    return EXIT_OK if comparison.verdict == "pass" else EXIT_FAIL


def cmd_correlate(cfg: argparse.Namespace) -> int:
    family, spec = _build_spec(cfg)
    if not cfg.points:
        raise UsageError("--points is required (comma-separated evaluation points)")
    points = list(cfg.points)
    _check_positive_grid(family, np.asarray(points))
    K = _kernels.build_kernel(family, spec)
    det = _kernels.correlation_det(K, points)
    _require_finite(f"determinant at points {points}", det)
    doc = _spec_doc("correlate", spec, points=points, determinant=det)
    if spec.p:
        conj = _kernels.correlation_det(K, points, conjugated=True)
        _require_finite(f"conjugated determinant at points {points}", conj)
        doc["conjugated_determinant"] = conj
        scale = max(abs(det), abs(conj), 1e-300)
        doc["conjugation_relative_difference"] = abs(det - conj) / scale
    _emit(_json_text(doc), cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    flags: tuple[str, ...]  # besides SPEC_FLAGS and --config


COMMANDS = {
    "poly": Command(cmd_poly, "print exact type II / type I coefficients", ("format", "out")),
    "verify": Command(cmd_verify, "run the cross-check battery", ("sweep", "format", "out")),
    "kernel": Command(
        cmd_kernel,
        "kernel grid in all three forms (CSV)",
        ("grid", "nodes", "tolerance", "format", "out"),
    ),
    "density": Command(cmd_density, "one-point density grid (CSV)", ("grid", "format", "out")),
    "simulate": Command(
        cmd_simulate,
        "Monte Carlo histogram vs kernel prediction",
        ("grid", "samples", "seed", "out"),
    ),
    "correlate": Command(
        cmd_correlate, "correlation determinant at given points", ("points", "out")
    ),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiortho",
        description="multiple orthogonal polynomials, correlation kernels, and checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        sub.add_argument("--config", help="JSON object of this command's flags; flags override it")
        for key in (*SPEC_FLAGS, *command.flags):
            flag = FLAGS[key]
            if flag.convert is None:
                sub.add_argument(f"--{key}", action="store_true", help=flag.help)
            else:
                sub.add_argument(f"--{key}", help=flag.help)
    return parser


_VALUE_FLAGS = ("--a", "--beta", "--n", "--grid", "--points")


def _join_leading_minus(argv: list[str]) -> list[str]:
    """Rewrite ["--grid", "-3:3:5"] as ["--grid=-3:3:5"] for each of
    _VALUE_FLAGS, so values that start with a minus sign survive argparse."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    tokens = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(_join_leading_minus(tokens))
    try:
        cfg = _merge_config(args)
        _check_out(cfg.out)
        return COMMANDS[args.command].run(cfg)
    except ValueError as exc:  # UsageError and ExactMathError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OverflowError as exc:
        print(f"error: float overflow: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
