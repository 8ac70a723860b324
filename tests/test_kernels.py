"""Correlation kernels: CD form, biorthogonal sum, contour quadrature, and
the identities tying them together."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiortho import hermite as hm
from multiortho import kernels as kn
from multiortho import laguerre as lg
from multiortho.core import CHAIN_STRATEGIES, ExactMathError, mi_chain
from multiortho.hermite import HermiteSpec
from multiortho.laguerre import LaguerreSpec
from multiortho.quad import ContourError, ConvergenceError

H11 = HermiteSpec.of([1, -1], [1, 1])
H21 = HermiteSpec.of([1, -1], [2, 1])
L11_P0 = LaguerreSpec.of([1, 2], [1, 1], 0)
L11_P1 = LaguerreSpec.of([1, 2], [1, 1], 1)

INV_ROOT_2PI = 1 / math.sqrt(2 * math.pi)


# ---------------------------------------------------------------------------
# model construction


def test_build_kernel_ratio_examples():
    K = kn.build_kernel("hermite", HermiteSpec.of([0], [1]))
    assert K.ratios == (F(1),)
    K2 = kn.build_kernel("hermite", H11)
    assert K2.ratios == (F(1), F(1))
    assert K2.P.coeffs == (F(-2), F(0), F(1))
    K3 = kn.build_kernel("laguerre", LaguerreSpec.of([1], [1], 0))
    assert K3.ratios == (F(1),)


def test_build_kernel_rejects_zero_component():
    with pytest.raises(kn.DegenerateIndexError):
        kn.build_kernel("hermite", HermiteSpec.of([1, -1], [1, 0]))


def test_family_mismatch_rejected():
    with pytest.raises(ExactMathError):
        kn.build_kernel("hermite", L11_P0)


# ---------------------------------------------------------------------------
# CD evaluation


def test_eval_cd_pinned_values():
    K = kn.build_kernel("hermite", HermiteSpec.of([0], [1]))
    assert kn.eval_cd(K, 0.0, 0.0) == pytest.approx(INV_ROOT_2PI, rel=1e-14)
    KL = kn.build_kernel("laguerre", LaguerreSpec.of([1], [1], 0))
    assert kn.eval_cd(KL, 1.0, 1.0) == pytest.approx(math.exp(-1), rel=1e-14)


@given(st.floats(-3, 3), st.floats(-3, 3))
def test_cd_quotient_numerator_consistency(x, y):
    """(x-y) * eval_cd recovers the bilinear numerator whichever way the
    difference is written; checked against the model's own components."""
    K = kn.build_kernel("hermite", H21)
    numerator = K.P(x) * K.Q(y) - sum(
        float(r) * pd(x) * qu(y)
        for r, pd, qu in zip(K.ratios, K.P_down, K.Q_up)
    )
    lhs = (x - y) * kn.eval_cd(K, x, y)
    assert lhs == pytest.approx(numerator, rel=1e-9, abs=1e-12)
    assert -(y - x) * kn.eval_cd(K, x, y) == lhs


def test_diagonal_limit_matches_nearby_quotient():
    K = kn.build_kernel("hermite", H21)
    for x in (-1.5, 0.0, 0.9):
        diag = kn.eval_cd(K, x, x)
        near = kn.eval_cd(K, x + 5e-7, x - 5e-7)
        assert diag == pytest.approx(near, rel=1e-5)


def test_laguerre_domain_guard():
    KL = kn.build_kernel("laguerre", L11_P0)
    with pytest.raises(ExactMathError):
        kn.eval_cd(KL, -1.0, 1.0)


# ---------------------------------------------------------------------------
# biorthogonal sum form


def test_eval_sum_single_term():
    spec = HermiteSpec.of([0], [1])
    chain = mi_chain(spec.n)
    got = kn.eval_sum("hermite", spec, chain, 0.0, 0.0)
    assert got == pytest.approx(INV_ROOT_2PI, rel=1e-14)


def test_chain_strategies_agree():
    rng = np.random.Generator(np.random.Philox(key=5))
    chains = [mi_chain(H11.n, s) for s in ("round-robin", "lexicographic-first")]
    for _ in range(20):
        x, y = rng.uniform(-3, 3, size=2)
        vals = [kn.eval_sum("hermite", H11, c, x, y) for c in chains]
        assert abs(vals[0] - vals[1]) <= 1e-12


def test_sum_agrees_with_cd():
    rng = np.random.Generator(np.random.Philox(key=6))
    for family, spec in (
        ("hermite", H11),
        ("hermite", H21),
        ("laguerre", L11_P0),
        ("laguerre", L11_P1),
    ):
        K = kn.build_kernel(family, spec)
        chain = mi_chain(spec.n)
        for _ in range(10):
            if family == "hermite":
                x, y = rng.uniform(-3, 3, size=2)
            else:
                x, y = rng.uniform(0.2, 4.0, size=2)
            assert abs(kn.eval_cd(K, x, y) - kn.eval_sum(family, spec, chain, x, y)) <= 1e-10


def test_eval_sum_rejects_bad_chain():
    with pytest.raises(ExactMathError):
        kn.eval_sum("hermite", H11, [H11.n], 0.0, 0.0)  # no chain back to 0


# ---------------------------------------------------------------------------
# contour form


def test_contour_hermite_pinned():
    spec = HermiteSpec.of([0], [1])
    got = kn.eval_contour("hermite", spec, 0.0, 0.0, nodes=256)
    assert got == pytest.approx(INV_ROOT_2PI, abs=1e-8)


def test_contour_hermite_doubling_settles():
    v256 = kn.eval_contour("hermite", H11, 0.4, -0.3, nodes=256)
    v512 = kn.eval_contour("hermite", H11, 0.4, -0.3, nodes=512)
    assert abs(v512 - v256) < 1e-10


def test_contour_hermite_imag_part_small():
    val = hm._contour_complex(H11, 0.7, -1.1, 256, None)
    assert abs(val.imag) < 1e-10


def test_contour_laguerre_pinned():
    spec = LaguerreSpec.of([1], [1], 0)
    got = kn.eval_contour("laguerre", spec, 1.0, 1.0, nodes=256)
    assert got == pytest.approx(math.exp(-1), abs=1e-8)


def test_contour_laguerre_conjugation_factor():
    """With p > 0 the contour kernel differs from CD by exactly x^p y^-p."""
    spec = LaguerreSpec.of([1], [1], 1)
    K = kn.build_kernel("laguerre", spec)
    x, y = 1.0, 2.0
    contour = kn.eval_contour("laguerre", spec, x, y, nodes=256)
    assert contour == pytest.approx((x / y) * kn.eval_cd(K, x, y), abs=1e-8)


def test_contour_laguerre_imag_part_small():
    val = lg._contour_complex(L11_P1, 0.8, 2.3, 256, None)
    assert abs(val.imag) < 1e-10


def test_contour_adaptive_dispatch():
    K = kn.build_kernel("hermite", H11)
    got = kn.eval_contour("hermite", H11, 1.2, -0.4)
    assert got == pytest.approx(kn.eval_cd(K, 1.2, -0.4), abs=1e-7)


def test_contour_adaptive_reports_nonconvergence():
    """The doubling loop stops at the cap and reports its last value,
    delta and node count when the tolerance cannot be met."""
    with pytest.raises(ConvergenceError) as err:
        kn.eval_contour("hermite", H11, 1.2, -0.4, tol=0.0, cap=1024)
    assert err.value.nodes == 1024
    assert 0.0 <= err.value.delta < 1e-9
    K = kn.build_kernel("hermite", H11)
    assert err.value.best == pytest.approx(kn.eval_cd(K, 1.2, -0.4), abs=1e-7)


def test_contour_geometry_validation():
    geo = hm.HermiteContourGeometry.default_for(H11)
    geo.validate(H11)
    bad = hm.HermiteContourGeometry(geo.circle_center + geo.circle_radius, geo.circle_center, geo.circle_radius)
    with pytest.raises(ContourError):
        bad.validate(H11)
    lgeo = lg.LaguerreContourGeometry.default_for(L11_P0)
    lgeo.validate(L11_P0)
    with pytest.raises(ContourError):
        lg.LaguerreContourGeometry(5.0, lgeo.outer_center, lgeo.outer_radius).validate(L11_P0)


def test_contour_custom_geometry_consistent():
    geo = hm.HermiteContourGeometry(-4.0, 0.0, 2.5)
    K = kn.build_kernel("hermite", H11)
    got = kn.eval_contour("hermite", H11, 0.5, 0.1, nodes=512, geometry=geo)
    assert got == pytest.approx(kn.eval_cd(K, 0.5, 0.1), abs=1e-7)


# ---------------------------------------------------------------------------
# derivative identity


def test_dxdy_identity_examples():
    r1, r2 = kn.check_dxdy_identity(HermiteSpec.of([0], [1]), 0.3, -0.7, 1e-4)
    assert r1 < 1e-7 and r2 < 1e-7


def test_dxdy_residual_scales_quadratically():
    big = kn.check_dxdy_identity(H11, 0.9, -0.4, 2e-4)
    small = kn.check_dxdy_identity(H11, 0.9, -0.4, 1e-4)
    ratio = big[0] / small[0]
    assert 3.5 <= ratio <= 4.5


def test_dxdy_identity_on_diagonal():
    r1, r2 = kn.check_dxdy_identity(H11, 0.6, 0.6, 1e-4)
    assert r1 < 1e-6 and r2 < 1e-6


# ---------------------------------------------------------------------------
# determinants, biorthogonality, trace


def test_correlation_det_single_and_duplicate():
    K = kn.build_kernel("hermite", H11)
    x = 0.8
    assert kn.correlation_det(K, [x]) == pytest.approx(kn.eval_cd(K, x, x), rel=1e-14)
    assert kn.correlation_det(K, [x, x]) == 0.0


def test_correlation_det_conjugation_invariance():
    K = kn.build_kernel("laguerre", L11_P1)
    pts = [0.7, 1.9]
    plain = kn.correlation_det(K, pts)
    conj = kn.correlation_det(K, pts, conjugated=True)
    assert abs(plain - conj) <= 1e-10 * abs(plain)


def test_biorthogonality_examples():
    M = kn.check_biorthogonality("hermite", HermiteSpec.of([0], [2]))
    assert M == [[1, 0], [0, 1]]
    for strategy in ("round-robin", "lexicographic-first"):
        M2 = kn.check_biorthogonality("hermite", H11, mi_chain(H11.n, strategy))
        assert M2 == [[1, 0], [0, 1]]
    M3 = kn.check_biorthogonality("laguerre", L11_P1)
    assert M3 == [[1, 0], [0, 1]]


def test_kernel_trace_standard_specs():
    for family, spec in (
        ("hermite", H11),
        ("hermite", H21),
        ("laguerre", L11_P0),
        ("laguerre", L11_P1),
    ):
        K = kn.build_kernel(family, spec)
        assert kn.kernel_trace(K) == pytest.approx(spec.n.weight, abs=1e-6)


@pytest.mark.parametrize(
    "family, spec",
    [
        ("hermite", H21),
        ("hermite", HermiteSpec.of(["1/2", -1, 2], [3, 3, 2])),
        ("laguerre", L11_P0),
        ("laguerre", LaguerreSpec.of([1, 2], [2, 1], 1)),
        ("laguerre", LaguerreSpec.of(["1/2", 2], [1, 2], 3)),
    ],
    ids=["h21", "h332", "l-p0", "l-p1", "l-p3"],
)
def test_kernel_trace_matches_scalar_loop_bitwise(family, spec):
    """The one-pass trace equals the fsum of scalar eval_cd terms to the bit."""
    K = kn.build_kernel(family, spec)
    rule = kn.FAMILIES[family].trace_rule(spec, 200)
    want = math.fsum(
        w * kn.eval_cd(K, x, x) for x, w in zip(rule.nodes, rule.lifted) if w != 0.0
    )
    assert kn.kernel_trace(K) == want


# ---------------------------------------------------------------------------
# exact CD identity: the numerator block of each weight is (x - y) C_k


def _nonzero(block):
    return {key: v for key, v in block.items() if v != 0}


def _weight_blocks(products, m):
    """Per weight k, the sum of factor * p(x) * A_k(y) over (factor, p, form)
    as {(i, j): coefficient of x^i y^j}.  Each prefactor is made rational by
    its weight's scale, so block k multiplies w_k(y) / scale_k."""
    blocks = [{} for _ in range(m)]
    for factor, p, form in products:
        for k, t in enumerate(form.terms):
            c = factor * (t.prefactor * t.weight.scale).as_fraction()
            for i, u in enumerate(p.coeffs):
                for j, v in enumerate(t.poly.coeffs):
                    blocks[k][i, j] = blocks[k].get((i, j), 0) + c * u * v
    return [_nonzero(b) for b in blocks]


def _times_x_minus_y(block):
    out = {}
    for (i, j), v in block.items():
        out[i + 1, j] = out.get((i + 1, j), 0) + v
        out[i, j + 1] = out.get((i, j + 1), 0) - v
    return _nonzero(out)


@pytest.mark.parametrize(
    "family, spec",
    [
        ("hermite", H21),
        ("hermite", HermiteSpec.of(["1/2", -1, 2], [2, 3, 1])),
        ("laguerre", L11_P1),
        ("laguerre", LaguerreSpec.of(["1/2", 2, 3], [2, 2, 1], 2)),
    ],
    ids=["h21", "h231", "l11-p1", "l221-p2"],
)
def test_cd_numerator_is_x_minus_y_times_chain_sum_exactly(family, spec):
    """K(x, y) = sum_k w_k(y) C_k(x, y): C_k from the chain sum is the same
    for both chain strategies, and the CD numerator block B_k of
    P(x) Q(y) - sum_l ratio_l P_down_l(x) Q_up_l(y) equals (x - y) C_k."""
    fam = kn.FAMILIES[family]
    K = kn.build_kernel(family, spec)
    B = _weight_blocks(
        [(1, K.P, K.Q)] + [(-r, Pd, Qu) for r, Pd, Qu in zip(K.ratios, K.P_down, K.Q_up)],
        spec.m,
    )
    chain_sums = []
    for strategy in CHAIN_STRATEGIES:
        chain = [spec.with_n(c) for c in mi_chain(spec.n, strategy)]
        products = [
            (1, fam.type_ii_poly(lo), fam.type_i_form(hi)) for lo, hi in zip(chain, chain[1:])
        ]
        chain_sums.append(_weight_blocks(products, spec.m))
    assert chain_sums[0] == chain_sums[1]
    for Bk, Ck in zip(B, chain_sums[0]):
        assert Ck
        assert Bk == _times_x_minus_y(Ck)
