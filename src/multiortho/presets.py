"""Standard specs, grids, and the cross-check battery shared by the CLI and
the test suite.

The standard specs are the smallest two-component instances of each family;
their kernel values, traces, and Monte Carlo densities exercise every code
path.  ``verify_battery`` runs the full exact + numeric check list on one
spec and returns machine-readable results.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels as _kernels
from .core import CHAIN_STRATEGIES, mi_chain
from .hermite import HermiteSpec
from .laguerre import LaguerreSpec

# Grid windows covering the bulk of each family's spectral support.
GRID_RANGE = {"hermite": (-3.0, 3.0), "laguerre": (0.5, 4.5)}

_STANDARD_SPECS = {
    "hermite": (HermiteSpec.of([1, -1], [1, 1]), HermiteSpec.of([1, -1], [2, 1])),
    "laguerre": (LaguerreSpec.of([1, 2], [1, 1], 0), LaguerreSpec.of([1, 2], [1, 1], 1)),
}

# The dK/dx + dK/dy identity holds for the Gaussian weights only.
_DERIVATIVE_IDENTITY_FAMILIES = {"hermite"}

KERNEL_AGREEMENT_TOL_SUM = 1e-10
KERNEL_AGREEMENT_TOL_CONTOUR = 1e-7
CHAIN_AGREEMENT_TOL = 1e-12


def standard_specs(family: str) -> list:
    return list(_STANDARD_SPECS[family])


def standard_grid(family: str, count: int = 5) -> np.ndarray:
    lo, hi = GRID_RANGE[family]
    return np.linspace(lo, hi, count)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    exact_residuals: tuple[str, ...] = ()
    float_discrepancy: float = 0.0
    seconds: float = 0.0


def _timed(name: str, fn: Callable[[], CheckResult]) -> CheckResult:
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # module errors become failed checks, not crashes
        elapsed = time.perf_counter() - t0
        return CheckResult(
            name, False, f"raised {type(exc).__name__}: {exc}", seconds=elapsed
        )
    elapsed = time.perf_counter() - t0
    return CheckResult(
        out.name, out.passed, out.detail, out.exact_residuals, out.float_discrepancy, elapsed
    )


def verify_battery(family: str, spec) -> list[CheckResult]:
    """Full cross-check list for one spec: exact orthogonality both types,
    normalization ratios, biorthogonality, chain independence, kernel
    three-way agreement, and (Gaussian family) the derivative identity."""
    mod = _kernels.family_module(family, spec)
    results: list[CheckResult] = []

    def check_type2() -> CheckResult:
        P = mod.type_ii_poly(spec)
        res = mod.type_ii_residuals(P, spec)
        ok = all(v == 0 for v in res) and P.degree == spec.n.weight and P.is_monic
        return CheckResult(
            "type-ii-orthogonality",
            ok,
            f"monic degree {P.degree}, {len(res)} residuals",
            tuple(str(v) for v in res),
        )

    def check_type1() -> CheckResult:
        form = mod.type_i_form(spec)
        vec = mod.type_i_conditions(form, spec)
        want = [0] * (spec.n.weight - 1) + [1]
        ok = [int(v) if v.denominator == 1 else v for v in vec] == want
        degs_ok = all(
            t.poly.degree <= n_k - 1 for t, n_k in zip(form.terms, spec.n)
        )
        return CheckResult(
            "type-i-conditions",
            ok and degs_ok,
            f"condition vector length {len(vec)}",
            tuple(str(v) for v in vec),
        )

    def check_ratios() -> CheckResult:
        K = _kernels.build_kernel(family, spec)  # has the exact assertions inside
        return CheckResult(
            "normalization-ratios",
            True,
            "closed-form h ratios equal moment-based ratios",
            tuple(str(r) for r in K.ratios),
        )

    def check_biorth() -> CheckResult:
        w = spec.n.weight
        ok = True
        for strategy in CHAIN_STRATEGIES:
            M = _kernels.check_biorthogonality(family, spec, mi_chain(spec.n, strategy))
            ok = ok and all(
                M[i][j] == (1 if i == j else 0) for i in range(w) for j in range(w)
            )
        return CheckResult("biorthogonality", ok, f"{w}x{w} exact identity, both chains")

    def check_kernels() -> CheckResult:
        K = _kernels.build_kernel(family, spec)
        grid = standard_grid(family)
        chains = [mi_chain(spec.n, s) for s in CHAIN_STRATEGIES]
        worst_sum = worst_contour = worst_chain = 0.0
        p = getattr(spec, "p", 0)
        for x in grid:
            for y in grid:
                cd = _kernels.eval_cd(K, x, y)
                sums = [_kernels.eval_sum(family, spec, c, x, y) for c in chains]
                ct = _kernels.eval_contour(family, spec, x, y, nodes=512)
                if p:
                    ct *= (y / x) ** p
                worst_sum = max(worst_sum, abs(cd - sums[0]))
                worst_chain = max(worst_chain, max(abs(s - sums[0]) for s in sums))
                worst_contour = max(worst_contour, abs(cd - ct))
        ok = (
            worst_sum <= KERNEL_AGREEMENT_TOL_SUM
            and worst_chain <= CHAIN_AGREEMENT_TOL
            and worst_contour <= KERNEL_AGREEMENT_TOL_CONTOUR
        )
        return CheckResult(
            "kernel-three-way",
            ok,
            f"|cd-sum| {worst_sum:.2e}, chains {worst_chain:.2e}, |cd-contour| {worst_contour:.2e}",
            float_discrepancy=max(worst_sum, worst_contour),
        )

    def check_trace() -> CheckResult:
        K = _kernels.build_kernel(family, spec)
        tr = _kernels.kernel_trace(K)
        err = abs(tr - spec.n.weight)
        return CheckResult(
            "kernel-trace",
            err <= 1e-6,
            f"trace {tr:.12f} vs |n| = {spec.n.weight}",
            float_discrepancy=err,
        )

    def check_dxdy() -> CheckResult:
        rng = np.random.Generator(np.random.Philox(key=20260814))
        worst = 0.0
        for _ in range(5):
            x, y = rng.uniform(-2.0, 2.0, size=2)
            if abs(x - y) < 0.05:
                y += 0.25
            r1, r2 = _kernels.check_dxdy_identity(spec, x, y, 1e-4)
            worst = max(worst, r1, r2)
        return CheckResult(
            "derivative-identity",
            worst <= 1e-6,
            f"worst central-difference residual {worst:.2e}",
            float_discrepancy=worst,
        )

    results.append(_timed("type-ii-orthogonality", check_type2))
    results.append(_timed("type-i-conditions", check_type1))
    results.append(_timed("normalization-ratios", check_ratios))
    results.append(_timed("biorthogonality", check_biorth))
    results.append(_timed("kernel-three-way", check_kernels))
    results.append(_timed("kernel-trace", check_trace))
    if family in _DERIVATIVE_IDENTITY_FAMILIES:
        results.append(_timed("derivative-identity", check_dxdy))
    return results
