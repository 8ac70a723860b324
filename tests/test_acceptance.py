"""Acceptance battery: eight end-to-end criteria, one pass/fail line each.

Each test records its verdict with :mod:`acceptance_report` before asserting,
so the terminal summary always lists all eight criteria.  The parameter
sweep is every Hermite spec with m <= 3 components, distinct integer shifts
from {-2, -1, 0, 1, 2}, and 1 <= |n| <= 5, together with every Laguerre spec
with m <= 3 distinct rates from {1/2, 1, 2, 3}, exponent p <= 2, and the
same multi-index range.
"""

import itertools
import math
import statistics
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np

import acceptance_report
from oracles import hermite_recurrence_oracle, laguerre_recurrence_oracle

from multiortho import hermite as hermite_mod
from multiortho import laguerre as laguerre_mod
from multiortho.core import CHAIN_STRATEGIES, mi_chain
from multiortho.hermite import HermiteSpec
from multiortho.kernels import (
    build_kernel,
    check_biorthogonality,
    check_dxdy_identity,
    correlation_det,
    eval_cd,
    eval_contour,
    eval_sum,
    kernel_trace,
)
from multiortho.laguerre import LaguerreSpec
from multiortho.presets import standard_grid, standard_specs
from multiortho.rmt import EnsembleConfig, compare_density, sample_gue_source, sample_wishart

HERMITE_SHIFT_POOL = (-2, -1, 0, 1, 2)
LAGUERRE_RATE_POOL = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
SWEEP_MAX_WEIGHT = 5
SWEEP_MAX_COMPONENTS = 3
SWEEP_MAX_P = 2

RNG_KEY = 20260814
MC_SAMPLES = 200_000


def _record(criterion: int, ok: bool, detail: str) -> None:
    acceptance_report.record(criterion, ok, detail)
    assert ok, f"criterion {criterion}: {detail}"


def _multi_indices(m: int) -> list[tuple[int, ...]]:
    out = []
    for total in range(1, SWEEP_MAX_WEIGHT + 1):
        for cuts in itertools.combinations(range(total + m - 1), m - 1):
            parts = []
            prev = -1
            for c in cuts + (total + m - 1,):
                parts.append(c - prev - 1)
                prev = c
            out.append(tuple(parts))
    return out


@lru_cache(maxsize=1)
def hermite_sweep() -> tuple[HermiteSpec, ...]:
    specs = []
    for m in range(1, SWEEP_MAX_COMPONENTS + 1):
        for a in itertools.combinations(HERMITE_SHIFT_POOL, m):
            for n in _multi_indices(m):
                specs.append(HermiteSpec.of(a, n))
    return tuple(specs)


@lru_cache(maxsize=1)
def laguerre_sweep() -> tuple[LaguerreSpec, ...]:
    specs = []
    for m in range(1, SWEEP_MAX_COMPONENTS + 1):
        for beta in itertools.combinations(LAGUERRE_RATE_POOL, m):
            for p in range(SWEEP_MAX_P + 1):
                for n in _multi_indices(m):
                    specs.append(LaguerreSpec.of(beta, n, p))
    return tuple(specs)


def _module_of(spec):
    return hermite_mod if isinstance(spec, HermiteSpec) else laguerre_mod


# ---------------------------------------------------------------------------
# 1. exact orthogonality over the full sweep


def test_criterion_1_exact_orthogonality():
    start = time.perf_counter()
    checked = 0
    bad = None
    for spec in hermite_sweep() + laguerre_sweep():
        mod = _module_of(spec)
        P = mod.type_ii_poly(spec)
        if any(r != 0 for r in mod.type_ii_residuals(P, spec)):
            bad = f"type II residual nonzero for {spec}"
            break
        cond = mod.type_i_conditions(mod.type_i_form(spec), spec)
        if cond[:-1] != [Fraction(0)] * (len(cond) - 1) or cond[-1] != 1:
            bad = f"type I conditions {cond} for {spec}"
            break
        checked += 1
    elapsed = time.perf_counter() - start
    ok = bad is None and elapsed < 60.0
    detail = bad or (
        f"{checked} specs ({len(hermite_sweep())} hermite, {len(laguerre_sweep())} "
        f"laguerre): all residuals exactly 0, conditions exactly (0,...,0,1); "
        f"{elapsed:.1f}s"
    )
    _record(1, ok, detail)


# ---------------------------------------------------------------------------
# 2. normalization constants and ratios, exactly


def test_criterion_2_normalization_identities():
    start = time.perf_counter()
    pairs = ratios = 0
    bad = None
    for spec in hermite_sweep():
        P = hermite_mod.type_ii_poly(spec)
        for k in range(spec.m):
            if spec.n[k] == 0:
                continue
            closed = hermite_mod.norm_constant(spec, k)
            from_moments = hermite_mod.norm_constant_from_moments(spec, k, P)
            if closed != from_moments:
                bad = f"hermite h mismatch at {spec}, k={k}"
                break
            pairs += 1
            down = spec.with_n(spec.n.drop(k))
            h_down = hermite_mod.norm_constant_from_moments(
                down, k, hermite_mod.type_ii_poly(down)
            )
            if (from_moments / h_down).as_fraction() != spec.n[k]:
                bad = f"hermite ratio != n_k at {spec}, k={k}"
                break
            ratios += 1
        if bad:
            break
    if bad is None:
        for spec in laguerre_sweep():
            P = laguerre_mod.type_ii_poly(spec)
            w, p = spec.n.weight, spec.p
            for k in range(spec.m):
                if spec.n[k] == 0:
                    continue
                down = spec.with_n(spec.n.drop(k))
                h_up = laguerre_mod.norm_constant(spec, k, P)
                h_down = laguerre_mod.norm_constant(down, k, laguerre_mod.type_ii_poly(down))
                want = Fraction(spec.n[k] * (w + p)) / spec.beta[k] ** 2
                if h_up / h_down != want or laguerre_mod.norm_ratio(spec, k) != want:
                    bad = f"laguerre ratio != n_k(|n|+p)/beta_k^2 at {spec}, k={k}"
                    break
                ratios += 1
            if bad:
                break
    elapsed = time.perf_counter() - start
    ok = bad is None
    detail = bad or (
        f"{pairs} hermite closed-vs-moment h pairs equal, {ratios} ratio identities "
        f"exact over the full sweep; {elapsed:.1f}s"
    )
    _record(2, ok, detail)


# ---------------------------------------------------------------------------
# 3. three evaluation routes agree on the standard specs


def test_criterion_3_kernel_three_way_agreement():
    start = time.perf_counter()
    worst_sum = worst_contour = 0.0
    for family in ("hermite", "laguerre"):
        grid = standard_grid(family, count=5)
        for spec in standard_specs(family):
            K = build_kernel(family, spec)
            chain = mi_chain(spec.n)
            p = getattr(spec, "p", 0)
            for x in grid:
                for y in grid:
                    cd = eval_cd(K, x, y)
                    sm = eval_sum(family, spec, chain, x, y)
                    ct = eval_contour(family, spec, x, y, nodes=512)
                    if p:
                        ct *= (y / x) ** p
                    worst_sum = max(worst_sum, abs(cd - sm))
                    worst_contour = max(worst_contour, abs(cd - ct))
    elapsed = time.perf_counter() - start
    ok = worst_sum <= 1e-10 and worst_contour <= 1e-7 and elapsed < 30.0
    detail = (
        f"4 standard specs on 5x5 grids: max |cd-sum| = {worst_sum:.3e} (<= 1e-10), "
        f"max |cd-contour| = {worst_contour:.3e} (<= 1e-7) at 512 nodes; {elapsed:.1f}s"
    )
    _record(3, ok, detail)


# ---------------------------------------------------------------------------
# 4. chain independence and exact biorthogonality


def test_criterion_4_chain_independence_and_biorthogonality():
    start = time.perf_counter()
    worst = 0.0
    for family in ("hermite", "laguerre"):
        grid = standard_grid(family, count=5)
        for spec in standard_specs(family):
            chains = [mi_chain(spec.n, strategy=s) for s in CHAIN_STRATEGIES]
            for x in grid:
                for y in grid:
                    values = [eval_sum(family, spec, c, x, y) for c in chains]
                    worst = max(worst, max(values) - min(values))
    bad = None
    checked = 0
    for spec in hermite_sweep() + laguerre_sweep():
        M = check_biorthogonality(spec.family, spec)
        w = spec.n.weight
        if any(M[i][j] != (1 if i == j else 0) for i in range(w) for j in range(w)):
            bad = f"biorthogonality matrix not identity for {spec}"
            break
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and bad is None
    detail = bad or (
        f"chain strategies agree to {worst:.3e} (<= 1e-12); biorthogonality matrix "
        f"exactly the identity for all {checked} sweep specs; {elapsed:.1f}s"
    )
    _record(4, ok, detail)


# ---------------------------------------------------------------------------
# 5. derivative identity with measured second-order convergence


def test_criterion_5_derivative_identity():
    h = 1e-4
    worst_res = 0.0
    ratios = []
    for spec in standard_specs("hermite"):
        rng = np.random.Generator(np.random.Philox(key=RNG_KEY))
        points = rng.uniform(-2.5, 2.5, size=(10, 2))
        for x, y in points:
            r1, r2 = check_dxdy_identity(spec, x, y, h)
            big1, big2 = check_dxdy_identity(spec, x, y, 2 * h)
            worst_res = max(worst_res, r1, r2)
            ratios.extend((big1 / r1, big2 / r2))
    ok = worst_res < 1e-6 and all(3.5 <= r <= 4.5 for r in ratios)
    detail = (
        f"20 random points, h = 1e-4: max residual = {worst_res:.3e} (< 1e-6); "
        f"Richardson ratios in [{min(ratios):.3f}, {max(ratios):.3f}] "
        f"(median {statistics.median(ratios):.3f}, required 4 +/- 0.5)"
    )
    _record(5, ok, detail)


# ---------------------------------------------------------------------------
# 6. trace normalization and conjugation invariance


def test_criterion_6_trace_and_conjugation():
    worst_trace = 0.0
    for family in ("hermite", "laguerre"):
        for spec in standard_specs(family):
            K = build_kernel(family, spec)
            worst_trace = max(worst_trace, abs(kernel_trace(K) - spec.n.weight))
    spec = next(s for s in standard_specs("laguerre") if s.p == 1)
    K = build_kernel("laguerre", spec)
    points = [0.7, 1.9]
    plain = correlation_det(K, points)
    conj = correlation_det(K, points, conjugated=True)
    rel = abs(plain - conj) / max(abs(plain), abs(conj), 1e-300)
    ok = worst_trace <= 1e-6 and rel <= 1e-10
    detail = (
        f"max |trace - |n|| = {worst_trace:.3e} (<= 1e-6) over 4 standard specs; "
        f"conjugated determinant relative difference = {rel:.3e} (<= 1e-10) "
        f"at points {points}"
    )
    _record(6, ok, detail)


# ---------------------------------------------------------------------------
# 7. Monte Carlo densities match the kernel prediction


def test_criterion_7_monte_carlo_density():
    start = time.perf_counter()
    gue_cfg = EnsembleConfig(
        family="hermite",
        spec=HermiteSpec.of([1, -1], [1, 1]),
        samples=MC_SAMPLES,
        seed=RNG_KEY,
        bin_range=(-4.0, 4.0),
        bin_count=40,
    )
    gue_batch = sample_gue_source(gue_cfg)
    gue = compare_density(gue_batch, build_kernel("hermite", gue_cfg.spec), gue_cfg)

    wishart_cfg = EnsembleConfig(
        family="laguerre",
        spec=LaguerreSpec.of([1, 2], [1, 1], 0),
        samples=MC_SAMPLES,
        seed=RNG_KEY,
        bin_range=(0.05, 6.0),
        bin_count=40,
    )
    wishart = compare_density(
        sample_wishart(wishart_cfg), build_kernel("laguerre", wishart_cfg.spec), wishart_cfg
    )

    control = compare_density(
        gue_batch, build_kernel("hermite", HermiteSpec.of([2, -2], [1, 1])), gue_cfg
    )
    elapsed = time.perf_counter() - start
    ok = (
        gue.verdict == "pass"
        and wishart.verdict == "pass"
        and control.verdict == "reject"
        and elapsed < 90.0
    )
    detail = (
        f"S = {MC_SAMPLES}: hermite chi2 = {gue.chi_square:.1f} <= {gue.threshold:.1f} "
        f"({gue.verdict}), laguerre chi2 = {wishart.chi_square:.1f} <= "
        f"{wishart.threshold:.1f} ({wishart.verdict}); mismatched-kernel control "
        f"chi2 = {control.chi_square:.1f} ({control.verdict}); {elapsed:.1f}s"
    )
    _record(7, ok, detail)


# ---------------------------------------------------------------------------
# 8. single-weight reductions and type II confluence


def test_criterion_8_classical_reductions():
    bad = None
    checked = 0
    for a in HERMITE_SHIFT_POOL:
        for degree in range(8):
            got = hermite_mod.type_ii_poly(HermiteSpec.of([a], [degree]))
            if list(got.coeffs) != hermite_recurrence_oracle(a, degree):
                bad = f"hermite m=1 mismatch at a={a}, degree={degree}"
                break
            checked += 1
        if bad:
            break
    if bad is None:
        for beta in LAGUERRE_RATE_POOL:
            for p in range(SWEEP_MAX_P + 1):
                for degree in range(8):
                    got = laguerre_mod.type_ii_poly(LaguerreSpec.of([beta], [degree], p))
                    if list(got.coeffs) != laguerre_recurrence_oracle(beta, p, degree):
                        bad = f"laguerre m=1 mismatch at beta={beta}, p={p}, degree={degree}"
                        break
                    checked += 1
                if bad:
                    break
            if bad:
                break
    merges = 0
    if bad is None:
        confluence_cases = [
            (HermiteSpec.of([1, 1], [2, 1]), HermiteSpec.of([1], [3])),
            (HermiteSpec.of([-2, -2], [1, 1]), HermiteSpec.of([-2], [2])),
            (HermiteSpec.of([1, 1, 0], [2, 1, 1]), HermiteSpec.of([1, 0], [3, 1])),
            (HermiteSpec.of([0, 2, 0], [1, 2, 2]), HermiteSpec.of([0, 2], [3, 2])),
        ]
        for repeated, merged in confluence_cases:
            if hermite_mod.type_ii_poly(repeated) != hermite_mod.type_ii_poly(merged):
                bad = f"confluence failed: {repeated} vs {merged}"
                break
            merges += 1
    ok = bad is None
    detail = bad or (
        f"{checked} m=1 polynomials equal their three-term recurrence oracles "
        f"exactly (degrees 0..7); {merges} repeated-shift merges exact"
    )
    _record(8, ok, detail)
