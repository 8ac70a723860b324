#!/usr/bin/env python3
"""Exhaustive exact verification sweep.

Enumerates every spec with up to --max-m components (distinct parameters
drawn from a configurable pool), multi-index weight up to --max-weight, and
for the half-line family exponent p up to --max-p, then checks exactly:

  * type II residuals vanish and type I conditions are (0, ..., 0, 1);
  * closed-form vs moment-based normalization constants h_k and the
    h-ratio identities (n_k, resp. n_k (|n|+p) / beta_k^2);
  * the biorthogonality matrix is the identity.

On top of the exact sweep it runs the floating-point battery (kernel
three-way agreement, trace, derivative identity, ...) on the standard specs.
Exit status 0 when everything passes, 1 otherwise.
"""

import argparse
import itertools
import json
import sys
import time
from fractions import Fraction

from multiortho.cli import run_guarded
from multiortho.core import ExactMathError
from multiortho.hermite import HermiteSpec
from multiortho.kernels import (
    FAMILIES,
    check_biorthogonality,
    moment_norm_ratio,
    type_ii_residuals,
)
from multiortho.laguerre import LaguerreSpec
from multiortho.presets import standard_specs, verify_battery


def multi_indices(m: int, max_weight: int) -> list[tuple[int, ...]]:
    out = []
    for total in range(1, max_weight + 1):
        for cuts in itertools.combinations(range(total + m - 1), m - 1):
            parts, prev = [], -1
            for c in cuts + (total + m - 1,):
                parts.append(c - prev - 1)
                prev = c
            out.append(tuple(parts))
    return out


def sweep_specs(args):
    shift_pool = [Fraction(v) for v in args.shift_pool.split(",")]
    rate_pool = [Fraction(v) for v in args.rate_pool.split(",")]
    for m in range(1, args.max_m + 1):
        for n in multi_indices(m, args.max_weight):
            if args.family in ("hermite", "both"):
                for a in itertools.combinations(shift_pool, m):
                    yield "hermite", HermiteSpec.of(a, n)
            if args.family in ("laguerre", "both"):
                for beta in itertools.combinations(rate_pool, m):
                    for p in range(args.max_p + 1):
                        yield "laguerre", LaguerreSpec.of(beta, n, p)


def check_exact(family: str, spec) -> list[str]:
    mod = FAMILIES[family]
    problems = []
    P = mod.type_ii_poly(spec)
    if any(r != 0 for r in type_ii_residuals(P, spec)):
        problems.append("type II residual nonzero")
    cond = mod.type_i_form(spec).moments(spec.n.weight)
    if cond[:-1] != [Fraction(0)] * (len(cond) - 1) or cond[-1] != 1:
        problems.append(f"type I conditions {cond}")
    for k in range(spec.m):
        if spec.n[k] == 0:
            continue
        down = spec.with_n(spec.n.drop(k))
        try:
            ratio = moment_norm_ratio(spec, k, P, mod.type_ii_poly(down))
        except ExactMathError as exc:
            problems.append(f"{exc} at k={k}")
            continue
        if ratio != mod.norm_ratio(spec, k):
            problems.append(f"h ratio != closed form at k={k}")
    w = spec.n.weight
    M = check_biorthogonality(family, spec)
    if any(M[i][j] != (1 if i == j else 0) for i in range(w) for j in range(w)):
        problems.append("biorthogonality matrix not identity")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--family", choices=("hermite", "laguerre", "both"), default="both")
    parser.add_argument("--max-m", type=int, default=3)
    parser.add_argument("--max-weight", type=int, default=5)
    parser.add_argument("--max-p", type=int, default=2)
    parser.add_argument("--shift-pool", default="-2,-1,0,1,2")
    parser.add_argument("--rate-pool", default="1/2,1,2,3")
    parser.add_argument("--skip-battery", action="store_true", help="exact sweep only")
    parser.add_argument("--out", help="write a JSON summary here")
    return run_guarded(run, parser.parse_args(argv))


def run(args) -> int:
    start = time.perf_counter()
    failures = []
    counts = {"hermite": 0, "laguerre": 0}
    for family, spec in sweep_specs(args):
        problems = check_exact(family, spec)
        counts[family] += 1
        for text in problems:
            failures.append(f"{family} {spec}: {text}")
            print(f"FAIL {family} {spec}: {text}")
    sweep_seconds = time.perf_counter() - start
    print(
        f"exact sweep: {counts['hermite']} hermite + {counts['laguerre']} laguerre "
        f"specs, {len(failures)} failures, {sweep_seconds:.1f}s"
    )

    battery_checks = 0
    if not args.skip_battery:
        families = tuple(FAMILIES) if args.family == "both" else (args.family,)
        for family in families:
            for spec in standard_specs(family):
                for check in verify_battery(family, spec):
                    battery_checks += 1
                    status = "pass" if check.passed else "FAIL"
                    print(f"{status} {family} {spec.n.parts} {check.name}: {check.detail}")
                    if not check.passed:
                        failures.append(f"{family} {spec}: {check.name}")

    ok = not failures
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {
                    "specs": counts,
                    "battery_checks": battery_checks,
                    "failures": failures,
                    "sweep_seconds": round(sweep_seconds, 3),
                    "overall": "pass" if ok else "fail",
                },
                handle,
                indent=2,
            )
            handle.write("\n")
    print(f"overall: {'pass' if ok else 'fail'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
