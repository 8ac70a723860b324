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
from typing import Callable

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


CheckOutcome = tuple[bool, str, tuple[str, ...], float]


def _timed(name: str, check: Callable[[], CheckOutcome]) -> CheckResult:
    """Time one check, which returns (passed, detail, exact residuals, float
    discrepancy); an exception becomes a failed result, not a crash."""
    t0 = time.perf_counter()
    try:
        passed, detail, residuals, discrepancy = check()
    except Exception as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        residuals, discrepancy = (), 0.0
    return CheckResult(name, passed, detail, residuals, discrepancy, time.perf_counter() - t0)


def verify_battery(family: str, spec) -> list[CheckResult]:
    """Full cross-check list for one spec: exact orthogonality both types,
    normalization ratios, biorthogonality, chain independence, kernel
    three-way agreement, and (Gaussian family) the derivative identity."""
    mod = _kernels.family_module(family, spec)

    def check_type2() -> CheckOutcome:
        P = mod.type_ii_poly(spec)
        res = _kernels.type_ii_residuals(P, spec)
        ok = all(v == 0 for v in res) and P.degree == spec.n.weight and P.is_monic
        return ok, f"monic degree {P.degree}, {len(res)} residuals", tuple(map(str, res)), 0.0

    def check_type1() -> CheckOutcome:
        form = mod.type_i_form(spec)
        vec = form.moments(spec.n.weight)
        want = [0] * (spec.n.weight - 1) + [1]
        ok = [int(v) if v.denominator == 1 else v for v in vec] == want
        degs_ok = all(
            t.poly.degree <= n_k - 1 for t, n_k in zip(form.terms, spec.n)
        )
        return ok and degs_ok, f"condition vector length {len(vec)}", tuple(map(str, vec)), 0.0

    def check_ratios() -> CheckOutcome:
        K = _kernels.build_kernel(family, spec)  # has the exact assertions inside
        detail = "closed-form h ratios equal moment-based ratios"
        return True, detail, tuple(map(str, K.ratios)), 0.0

    def check_biorth() -> CheckOutcome:
        w = spec.n.weight
        ok = True
        for strategy in CHAIN_STRATEGIES:
            M = _kernels.check_biorthogonality(family, spec, mi_chain(spec.n, strategy))
            ok = ok and all(
                M[i][j] == (1 if i == j else 0) for i in range(w) for j in range(w)
            )
        return ok, f"{w}x{w} exact identity, both chains", (), 0.0

    def check_kernels() -> CheckOutcome:
        K = _kernels.build_kernel(family, spec)
        grid = standard_grid(family)
        chains = [mi_chain(spec.n, s) for s in CHAIN_STRATEGIES]
        worst_sum = worst_contour = worst_chain = 0.0
        for x in grid:
            for y in grid:
                cd, sm, ct = _kernels.kernel_point(K, chains[0], float(x), float(y), nodes=512)
                sums = [sm] + [_kernels.eval_sum(family, spec, c, x, y) for c in chains[1:]]
                worst_sum = max(worst_sum, abs(cd - sums[0]))
                worst_chain = max(worst_chain, max(abs(s - sums[0]) for s in sums))
                worst_contour = max(worst_contour, abs(cd - ct))
        ok = (
            worst_sum <= KERNEL_AGREEMENT_TOL_SUM
            and worst_chain <= CHAIN_AGREEMENT_TOL
            and worst_contour <= KERNEL_AGREEMENT_TOL_CONTOUR
        )
        detail = f"|cd-sum| {worst_sum:.2e}, chains {worst_chain:.2e}, |cd-contour| {worst_contour:.2e}"
        return ok, detail, (), max(worst_sum, worst_contour)

    def check_trace() -> CheckOutcome:
        K = _kernels.build_kernel(family, spec)
        tr = _kernels.kernel_trace(K)
        err = abs(tr - spec.n.weight)
        return err <= 1e-6, f"trace {tr:.12f} vs |n| = {spec.n.weight}", (), err

    def check_dxdy() -> CheckOutcome:
        rng = np.random.Generator(np.random.Philox(key=20260814))
        worst = 0.0
        for _ in range(5):
            x, y = rng.uniform(-2.0, 2.0, size=2)
            if abs(x - y) < 0.05:
                y += 0.25
            r1, r2 = _kernels.check_dxdy_identity(spec, x, y, 1e-4)
            worst = max(worst, r1, r2)
        return worst <= 1e-6, f"worst central-difference residual {worst:.2e}", (), worst

    checks = [
        ("type-ii-orthogonality", check_type2),
        ("type-i-conditions", check_type1),
        ("normalization-ratios", check_ratios),
        ("biorthogonality", check_biorth),
        ("kernel-three-way", check_kernels),
        ("kernel-trace", check_trace),
    ]
    if family in _DERIVATIVE_IDENTITY_FAMILIES:
        checks.append(("derivative-identity", check_dxdy))
    return [_timed(name, check) for name, check in checks]
