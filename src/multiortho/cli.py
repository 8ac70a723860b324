"""Command-line front end.

Commands
    poly       print exact type II / type I coefficients for one spec
    verify     run the exact + numeric cross-check battery (exit 1 on failure)
    kernel     CSV grid of the kernel in all three forms
    density    CSV grid of the one-point density K(x, x)
    simulate   Monte Carlo eigenvalue histogram vs kernel prediction
    correlate  determinant of [K(x_i, x_j)] at given points

Exit codes: 0 success, 1 verification/statistical failure, 2 usage or
configuration error.  Rational values cross this boundary as "num/den"
strings; floats are printed with 17 significant digits.  File outputs are
deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

from . import kernels as _kernels
from . import rmt as _rmt
from .core import ExactMathError, MultiIndex, RatPoly, ScaledConstant, as_fraction, mi_chain
from .quad import ConvergenceError
from .hermite import HermiteSpec
from .laguerre import LaguerreSpec
from .presets import CheckResult, standard_grid, standard_specs, verify_battery

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
# config plumbing


@dataclass(frozen=True)
class JobConfig:
    """Validated job description; mirrors the JSON config file schema.

    Rationals (entries of a/beta) are Fraction; the JSON file carries them
    as "num/den" strings or integers.  Unknown file fields are rejected.
    """

    command: str
    family: str | None = None
    a: tuple[Fraction, ...] | None = None
    beta: tuple[Fraction, ...] | None = None
    n: tuple[int, ...] | None = None
    p: int | None = None
    grid: str | None = None
    nodes: int | None = None
    samples: int | None = None
    seed: int | None = None
    out: str | None = None
    format: str = "csv"
    points: tuple[float, ...] | None = None
    tolerance: float | None = None


_CONFIG_FILE_KEYS = tuple(f.name for f in fields(JobConfig) if f.name != "command")


def _rational_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _parse_rational(value: Any) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value.strip())
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, float):
            return as_fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {value!r}: {exc}") from exc
    raise UsageError(f"bad rational {value!r}")


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


def _require_finite(where: str, *values: float) -> None:
    """Refuse to print a value that overflowed the float routes."""
    if not all(math.isfinite(v) for v in values):
        raise OverflowError(f"{where} is not finite")


def _parse_list(value: Any, convert: Callable[[Any], Any]) -> tuple:
    if isinstance(value, str):
        value = [s for s in value.split(",") if s.strip()]
    if not isinstance(value, (list, tuple)) or not value:
        raise UsageError(f"expected a non-empty comma-separated list, got {value!r}")
    return tuple(convert(v) for v in value)


def _load_config_file(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = sorted(set(raw).difference(_CONFIG_FILE_KEYS))
    if unknown:
        raise UsageError(f"unknown config fields: {', '.join(unknown)}")
    return raw


def _merge_config(args: argparse.Namespace) -> JobConfig:
    """Config file values first, command-line flags override."""
    raw: dict[str, Any] = {}
    if getattr(args, "config", None):
        raw.update(_load_config_file(args.config))
    for key in _CONFIG_FILE_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            raw[key] = flag

    cfg = JobConfig(command=args.command)
    converters: dict[str, Callable[[Any], Any]] = {
        "a": lambda v: _parse_list(v, _parse_rational),
        "beta": lambda v: _parse_list(v, _parse_rational),
        "n": lambda v: _parse_list(v, _parse_int),
        "points": lambda v: _parse_list(v, _parse_finite),
        "p": _parse_int,
        "nodes": _parse_int,
        "samples": _parse_int,
        "seed": _parse_int,
        "tolerance": _parse_finite,
        "family": str,
        "grid": str,
        "out": str,
        "format": str,
    }
    updates: dict[str, Any] = {}
    for key, value in raw.items():
        try:
            updates[key] = converters[key](value)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad value for {key!r}: {exc}") from exc
    cfg = replace(cfg, **updates)
    if cfg.format not in ("csv", "json"):
        raise UsageError(f"unknown format {cfg.format!r} (expected csv or json)")
    return cfg


def _build_spec(cfg: JobConfig):
    """Family + validated spec from a config; exit-code-2 errors on misuse."""
    if cfg.family not in ("hermite", "laguerre"):
        raise UsageError("--family must be hermite or laguerre")
    if cfg.n is None:
        raise UsageError("--n is required")
    try:
        if cfg.family == "hermite":
            if cfg.a is None:
                raise UsageError("--a is required for the hermite family")
            if cfg.beta is not None:
                raise UsageError("--beta does not apply to the hermite family")
            if cfg.p not in (None, 0):
                raise UsageError("--p does not apply to the hermite family")
            return "hermite", HermiteSpec.of(cfg.a, cfg.n)
        if cfg.beta is None:
            raise UsageError("--beta is required for the laguerre family")
        if cfg.a is not None:
            raise UsageError("--a does not apply to the laguerre family")
        return "laguerre", LaguerreSpec.of(cfg.beta, cfg.n, cfg.p or 0)
    except (ExactMathError, ValueError, TypeError) as exc:
        if isinstance(exc, UsageError):
            raise
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


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _doc_value(value: Any) -> Any:
    """A spec or weight field as the JSON documents carry it."""
    if isinstance(value, MultiIndex):
        return list(value.parts)
    if isinstance(value, tuple):
        return [_rational_str(v) for v in value]
    if isinstance(value, Fraction):
        return _rational_str(value)
    return value


def _fields_doc(obj) -> dict[str, Any]:
    return {f.name: _doc_value(getattr(obj, f.name)) for f in fields(obj)}


def _spec_label(spec) -> str:
    params = _fields_doc(spec)
    inner = " ".join(f"{k}={','.join(map(str, v)) if isinstance(v, list) else v}" for k, v in params.items())
    return f"{spec.family} {inner}"


# ---------------------------------------------------------------------------
# commands


def _prefactor_doc(c: ScaledConstant) -> dict[str, str | int]:
    return {
        "rational": _rational_str(c.r),
        "two_pi_half": c.two_pi_half,
        "exp_arg": _rational_str(c.exp_arg),
    }


def _prefactor_text(c: ScaledConstant) -> str:
    return (
        f"{_rational_str(c.r)} * (2*pi)^({c.two_pi_half}/2)"
        f" * exp({_rational_str(c.exp_arg)})"
    )


def _coeff_strings(poly: RatPoly) -> list[str]:
    return [_rational_str(c) for c in poly.coeffs]


def cmd_poly(cfg: JobConfig) -> int:
    family, spec = _build_spec(cfg)
    mod = _kernels.FAMILIES[family]
    P = mod.type_ii_poly(spec)
    form = mod.type_i_form(spec)

    type_i_docs = []
    for term in form.terms:
        type_i_docs.append(
            {
                "component": term.k + 1,
                "weight": _fields_doc(term.weight),
                "prefactor": _prefactor_doc(term.prefactor),
                "coefficients_ascending": _coeff_strings(term.poly),
            }
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "poly",
        "family": family,
        "parameters": _fields_doc(spec),
        "type_ii": {
            "degree": P.degree,
            "coefficients_ascending": _coeff_strings(P),
        },
        "type_i": type_i_docs,
    }
    if cfg.format == "json":
        _emit(_json_text(doc), cfg.out)
        return EXIT_OK

    lines = [f"family: {family}"]
    for key, value in _fields_doc(spec).items():
        lines.append(f"{key}: {','.join(map(str, value)) if isinstance(value, list) else value}")
    lines.append(f"type II monic polynomial, degree {P.degree}")
    lines.append(f"  coefficients (ascending): {', '.join(_coeff_strings(P)) or '0'}")
    lines.append("type I linear form, one term per weight")
    for td in type_i_docs:
        w = ", ".join(f"{k}={v}" for k, v in td["weight"].items())
        term = form.terms[td["component"] - 1]
        lines.append(f"  component {td['component']} ({w}):")
        lines.append(f"    prefactor: {_prefactor_text(term.prefactor)}")
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


def cmd_verify(cfg: JobConfig, sweep: bool, inject_fault: bool) -> int:
    if sweep:
        families = [cfg.family] if cfg.family else list(_kernels.FAMILIES)
        if any(f not in _kernels.FAMILIES for f in families):
            raise UsageError("--family must be hermite or laguerre")
        jobs = [(f, spec) for f in families for spec in standard_specs(f)]
    else:
        jobs = [_build_spec(cfg)]

    # A JSON document on stdout must be the only thing there.
    progress = sys.stderr if cfg.format == "json" and cfg.out is None else sys.stdout
    spec_docs = []
    all_passed = True
    for family, spec in jobs:
        results = list(verify_battery(family, spec))
        if inject_fault:
            results.append(
                CheckResult(
                    "injected-fault", False, "synthetic failure requested via --inject-fault"
                )
            )
        ok = all(r.passed for r in results)
        all_passed = all_passed and ok
        label = _spec_label(spec)
        for r in results:
            status = "pass" if r.passed else "FAIL"
            print(f"[{status}] {label} :: {r.name} - {r.detail} ({r.seconds:.2f}s)", file=progress)
        spec_docs.append(
            {
                "family": family,
                "parameters": _fields_doc(spec),
                "status": "pass" if ok else "fail",
                "checks": [_check_doc(r, zero_timings=cfg.out is not None) for r in results],
            }
        )
    overall = "pass" if all_passed else "fail"
    print(f"overall: {overall}", file=progress)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "overall": overall,
        "specs": spec_docs,
    }
    if cfg.out is not None or cfg.format == "json":
        _emit(_json_text(doc), cfg.out)
    return EXIT_OK if all_passed else EXIT_FAIL


def cmd_kernel(cfg: JobConfig) -> int:
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
    p = getattr(spec, "p", 0)

    rows = []
    json_rows = []
    for x in xs:
        for y in ys:
            where = f"kernel at x={float(x)}, y={float(y)}"
            try:
                cd = _kernels.eval_cd(K, float(x), float(y))
                s = _kernels.eval_sum(family, spec, chain, float(x), float(y))
                if cfg.nodes is not None:
                    ct = _kernels.eval_contour(family, spec, float(x), float(y), nodes=cfg.nodes)
                else:
                    ct = _kernels.eval_contour(family, spec, float(x), float(y), tol=tol)
                if p:
                    # report the contour value in the CD normalization so the
                    # agreement column is directly meaningful
                    ct *= (float(y) / float(x)) ** p
            except OverflowError as exc:
                raise OverflowError(f"{where}: {exc}") from exc
            _require_finite(where, cd, s, ct)
            diff = abs(cd - ct)
            rows.append([_fmt(x), _fmt(y), _fmt(cd), _fmt(s), _fmt(ct), _fmt(diff)])
            json_rows.append(
                {"x": float(x), "y": float(y), "cd": cd, "sum": s, "contour": ct, "abs_diff": diff}
            )
    if cfg.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "kernel",
            "family": family,
            "parameters": _fields_doc(spec),
            "rows": json_rows,
        }
        _emit(_json_text(doc), cfg.out)
    else:
        _emit(_csv(["x", "y", "cd", "sum", "contour", "|cd-contour|"], rows), cfg.out)
    return EXIT_OK


def cmd_density(cfg: JobConfig) -> int:
    family, spec = _build_spec(cfg)
    if cfg.grid is not None:
        (xs,) = _parse_grid(cfg.grid, axes=1)
    else:
        xs = standard_grid(family, count=101)
    _check_positive_grid(family, xs)
    K = _kernels.build_kernel(family, spec)
    values = [_kernels.eval_cd(K, float(x), float(x)) for x in xs]
    for x, v in zip(xs, values):
        _require_finite(f"density at x={float(x)}", v)
    if cfg.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "density",
            "family": family,
            "parameters": _fields_doc(spec),
            "rows": [{"x": float(x), "density": v} for x, v in zip(xs, values)],
        }
        _emit(_json_text(doc), cfg.out)
    else:
        rows = [[_fmt(x), _fmt(v)] for x, v in zip(xs, values)]
        _emit(_csv(["x", "density"], rows), cfg.out)
    return EXIT_OK


def cmd_simulate(cfg: JobConfig) -> int:
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

    try:
        ens = _rmt.EnsembleConfig(
            family=family,
            spec=spec,
            samples=samples,
            seed=cfg.seed,
            bin_range=bin_range,
            bin_count=bin_count,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    batch = _rmt.SAMPLERS[family](ens)
    K = _kernels.build_kernel(family, spec)
    comparison = _rmt.compare_density(batch, K, ens)

    rows = [
        [
            _fmt(comparison.bin_centers[i]),
            _fmt(comparison.empirical[i]),
            _fmt(comparison.predicted[i]),
            _fmt(comparison.stderr[i]),
            _fmt(comparison.observed_counts[i]),
            _fmt(comparison.expected_counts[i]),
        ]
        for i in range(comparison.bin_centers.size)
    ]
    _emit(
        _csv(
            ["x", "empirical", "predicted", "stderr", "observed_count", "expected_count"],
            rows,
        ),
        cfg.out,
    )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "family": family,
        "parameters": _fields_doc(spec),
        "samples": samples,
        "seed": cfg.seed,
        "bin_range": [bin_range[0], bin_range[1]],
        "bin_count": bin_count,
        "chi_square": comparison.chi_square,
        "dof": comparison.dof,
        "threshold": comparison.threshold,
        "verdict": comparison.verdict,
        "csv": cfg.out,
    }
    sys.stdout.write(_json_text(doc))
    return EXIT_OK if comparison.verdict == "pass" else EXIT_FAIL


def cmd_correlate(cfg: JobConfig) -> int:
    family, spec = _build_spec(cfg)
    if not cfg.points:
        raise UsageError("--points is required (comma-separated evaluation points)")
    points = list(cfg.points)
    _check_positive_grid(family, np.asarray(points))
    K = _kernels.build_kernel(family, spec)
    det = _kernels.correlation_det(K, points)
    _require_finite(f"determinant at points {points}", det)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "correlate",
        "family": family,
        "parameters": _fields_doc(spec),
        "points": points,
        "determinant": det,
    }
    if getattr(spec, "p", 0):
        conj = _kernels.correlation_det(K, points, conjugated=True)
        _require_finite(f"conjugated determinant at points {points}", conj)
        doc["conjugated_determinant"] = conj
        scale = max(abs(det), abs(conj), 1e-300)
        doc["conjugation_relative_difference"] = abs(det - conj) / scale
    _emit(_json_text(doc), cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file mirroring JobConfig; flags override")
    sub.add_argument("--family", choices=["hermite", "laguerre"])
    sub.add_argument("--a", help="comma-separated rationals (hermite shifts)")
    sub.add_argument("--beta", help="comma-separated positive rationals (laguerre rates)")
    sub.add_argument("--n", help="comma-separated non-negative integers (multi-index)")
    sub.add_argument("--p", type=int, help="laguerre exponent offset (default 0)")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--format", choices=["csv", "json"], help="output format where applicable")
    sub.add_argument("--seed", type=int, help="RNG seed (simulate)")
    sub.add_argument("--nodes", type=int, help="contour node count (default adaptive)")
    sub.add_argument("--samples", type=int, help="Monte Carlo sample count")
    sub.add_argument(
        "--grid",
        help="xmin:xmax:count[,ymin:ymax:count]; for simulate, count is the bin count",
    )
    sub.add_argument("--tolerance", type=float, help="adaptive contour tolerance")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiortho",
        description="multiple orthogonal polynomials, correlation kernels, and checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("poly", help="print exact type II / type I coefficients")
    _add_common(sp)

    sv = subs.add_parser("verify", help="run the cross-check battery")
    _add_common(sv)
    sv.add_argument("--sweep", action="store_true", help="run the standard spec battery")
    sv.add_argument(
        "--inject-fault",
        action="store_true",
        help="append a synthetic failing check (harness self-test)",
    )

    sk = subs.add_parser("kernel", help="kernel grid in all three forms (CSV)")
    _add_common(sk)

    sd = subs.add_parser("density", help="one-point density grid (CSV)")
    _add_common(sd)

    ss = subs.add_parser("simulate", help="Monte Carlo histogram vs kernel prediction")
    _add_common(ss)

    sc = subs.add_parser("correlate", help="correlation determinant at given points")
    _add_common(sc)
    sc.add_argument("--points", help="comma-separated evaluation points")

    return parser


_VALUE_FLAGS = ("--a", "--beta", "--n", "--grid", "--points")


def _join_leading_minus(argv: list[str], flags: Sequence[str] = _VALUE_FLAGS) -> list[str]:
    """Rewrite ["--grid", "-3:3:5"] as ["--grid=-3:3:5"] for each of flags,
    so values that start with a minus sign survive argparse."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in flags and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run_guarded(command: Callable[..., int], *args: Any) -> int:
    """command(*args), with the package's errors turned into an "error:" line
    on stderr and the exit code they map to."""
    try:
        return command(*args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OverflowError as exc:
        print(f"error: float overflow: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ExactMathError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _run(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    if args.command == "poly":
        return cmd_poly(cfg)
    if args.command == "verify":
        return cmd_verify(cfg, sweep=args.sweep, inject_fault=args.inject_fault)
    if args.command == "kernel":
        return cmd_kernel(cfg)
    if args.command == "density":
        return cmd_density(cfg)
    if args.command == "simulate":
        return cmd_simulate(cfg)
    if args.command == "correlate":
        return cmd_correlate(cfg)
    raise UsageError(f"unknown command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    tokens = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(_join_leading_minus(tokens))
    return run_guarded(_run, args)


if __name__ == "__main__":
    sys.exit(main())
