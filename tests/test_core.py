"""Exact arithmetic layer: multi-indices, rational polynomials, truncated
series, scaled constants, and weight moments."""

from fractions import Fraction as F

import math
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiortho.core import (
    ExactMathError,
    MultiIndex,
    PolySeries,
    RatPoly,
    ScaledConstant,
    ScaleMismatchError,
    SeriesOrderMismatchError,
    SingularExpansionError,
    as_fraction,
    gamma_moment,
    gaussian_moment,
    mi_chain,
)
from oracles import gamma_moment_oracle, gaussian_moment_oracle

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)
small_polys = st.lists(rationals, min_size=0, max_size=6).map(RatPoly.of)


# ---------------------------------------------------------------------------
# MultiIndex


def test_weight_examples():
    assert MultiIndex.of([0, 0]).weight == 0
    assert MultiIndex.of([1, 1]).weight == 2
    assert MultiIndex.of([2, 1]).weight == 3


def test_multi_index_validation():
    with pytest.raises(ExactMathError):
        MultiIndex.of([-1])
    with pytest.raises(ExactMathError):
        MultiIndex.of([])


def test_bump_drop():
    n = MultiIndex.of([2, 1])
    assert n.bump(0).parts == (3, 1)
    assert n.drop(1).parts == (2, 0)
    with pytest.raises(ExactMathError):
        n.drop(1).drop(1)


def test_chain_examples():
    assert [c.parts for c in mi_chain(MultiIndex.of([2, 1]), "lexicographic-first")] == [
        (0, 0),
        (1, 0),
        (2, 0),
        (2, 1),
    ]
    assert [c.parts for c in mi_chain(MultiIndex.of([1, 1]), "round-robin")] == [
        (0, 0),
        (1, 0),
        (1, 1),
    ]
    for strategy in ("round-robin", "lexicographic-first"):
        assert [c.parts for c in mi_chain(MultiIndex.of([1]), strategy)] == [(0,), (1,)]


@given(st.lists(st.integers(0, 4), min_size=1, max_size=4))
def test_chain_is_monotone_unit_step(parts):
    n = MultiIndex.of(parts)
    for strategy in ("round-robin", "lexicographic-first"):
        chain = mi_chain(n, strategy)
        assert len(chain) == n.weight + 1
        assert chain[0].parts == (0,) * n.m
        assert chain[-1] == n
        for lo, hi in zip(chain, chain[1:]):
            diffs = [b - a for a, b in zip(lo, hi)]
            assert sorted(diffs) == [0] * (n.m - 1) + [1]


# ---------------------------------------------------------------------------
# RatPoly


def test_poly_examples():
    xm1 = RatPoly.of([-1, 1])
    xp1 = RatPoly.of([1, 1])
    assert xm1 * xp1 == RatPoly.of([-1, 0, 1])
    assert RatPoly.of([-2, 0, 1]).derivative() == RatPoly.of([0, 2])
    assert RatPoly.of([0, 0, 1]).shift(1) == RatPoly.of([1, 2, 1])


def test_poly_canonical_and_calls():
    assert RatPoly.of([1, 0, 0]).coeffs == (F(1),)
    assert RatPoly.zero().degree == -1
    p = RatPoly.of([F(1, 3), 2])
    assert p(F(1, 2)) == F(4, 3)
    assert p(0.5) == pytest.approx(4 / 3)


@given(small_polys, small_polys, small_polys)
def test_poly_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p - p == RatPoly.zero()


@given(small_polys, rationals, rationals)
def test_shift_is_composition(p, c, x):
    assert p.shift(c)(x) == p(x + c)


@given(small_polys, small_polys)
def test_derivative_product_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


# ---------------------------------------------------------------------------
# PolySeries


def test_series_examples():
    one_plus = PolySeries.binomial(1, 1, 2)
    one_minus = PolySeries.of(2, [RatPoly.one(), RatPoly.constant(-1)])
    prod = one_plus * one_minus
    assert [prod.coeff_at(j) for j in range(3)] == [
        RatPoly.one(),
        RatPoly.zero(),
        RatPoly.constant(-1),
    ]
    geom = PolySeries.binomial_inverse(1, 1, 2)
    assert [geom.coeff_at(j).coeff(0) for j in range(3)] == [1, -1, 1]


def test_binomial_inverse_examples():
    s = PolySeries.binomial_inverse(2, 1, 1)
    assert [s.coeff_at(j).coeff(0) for j in range(2)] == [F(1, 2), F(-1, 4)]
    # expected values from differentiating the geometric series: (1+t)^-2 =
    # 1 - 2t + 3t^2 - ...
    s2 = PolySeries.binomial_inverse(1, 2, 2)
    assert [s2.coeff_at(j).coeff(0) for j in range(3)] == [1, -2, 3]


def test_truncation_contract():
    t = 3
    p = PolySeries.binomial(1, t, t)
    prod = p * p  # (1+tau)^(2t) truncated at t
    for j in range(t + 1):
        assert prod.coeff_at(j) == RatPoly.constant(math.comb(2 * t, j))


@given(st.integers(1, 6), st.integers(0, 5))
def test_binomial_inverse_inverts_binomial(n, order):
    c = F(3, 2)
    prod = PolySeries.binomial(c, n, order) * PolySeries.binomial_inverse(c, n, order)
    assert prod.coeff_at(0) == RatPoly.one()
    for j in range(1, order + 1):
        assert prod.coeff_at(j) == RatPoly.zero()


def test_exp_series_examples():
    assert PolySeries.exp_linear_quadratic(RatPoly.zero(), 0, 3).coeff_at(0) == RatPoly.one()
    s = PolySeries.exp_linear_quadratic(RatPoly.x(), 0, 2)
    assert s.coeff_at(1) == RatPoly.x()
    assert s.coeff_at(2) == RatPoly.of([0, 0, F(1, 2)])
    # oracle: multiply the e^(x*tau) and e^(-tau^2/2) series by hand
    s2 = PolySeries.exp_linear_quadratic(RatPoly.x(), F(-1, 2), 2)
    assert s2.coeff_at(2) == RatPoly.of([F(-1, 2), 0, F(1, 2)])


def test_series_errors():
    with pytest.raises(SingularExpansionError):
        PolySeries.binomial_inverse(0, 1, 2)
    with pytest.raises(SeriesOrderMismatchError):
        PolySeries.one(2) * PolySeries.one(3)


# ---------------------------------------------------------------------------
# ScaledConstant


def test_scaled_constant_algebra():
    c = ScaledConstant.of(2, 1, F(1, 2))
    d = ScaledConstant.of(3, -1, F(-1, 2))
    prod = c * d
    assert (prod.r, prod.two_pi_half, prod.exp_arg) == (F(6), 0, F(0))
    assert prod.as_fraction() == F(6)
    ratio = c / d
    assert (ratio.r, ratio.two_pi_half, ratio.exp_arg) == (F(2, 3), 2, F(1))
    assert (c + c).r == F(4)
    with pytest.raises(ScaleMismatchError):
        c + d
    with pytest.raises(ExactMathError):
        c.as_fraction()
    assert ScaledConstant.of(0, 5, 7).is_zero


@given(rationals, st.integers(-3, 3), rationals)
def test_scaled_constant_mul_div_roundtrip(r, h, q):
    c = ScaledConstant.of(r, h, q)
    d = ScaledConstant.of(F(3, 7), 1, F(1, 3))
    if not c.is_zero:
        assert (c * d) / c == d


# ---------------------------------------------------------------------------
# weight moments


def test_gaussian_moment_examples():
    assert gaussian_moment(0) == 1
    assert gaussian_moment(1) == 0
    assert gaussian_moment(4) == 3


def test_gamma_moment_examples():
    assert gamma_moment(0, 1) == 1
    assert gamma_moment(1, 1) == 1
    assert gamma_moment(3, 2) == F(6, 16)


@given(st.integers(0, 20))
def test_gaussian_moment_matches_oracle(j):
    assert gaussian_moment(j) == gaussian_moment_oracle(j)


@given(st.integers(0, 15), st.fractions(min_value=F(1, 8), max_value=8, max_denominator=16))
def test_gamma_moment_matches_oracle(j, beta):
    assert gamma_moment(j, beta) == gamma_moment_oracle(j, beta)


@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_as_fraction_roundtrip(x):
    q = as_fraction(x)
    assert abs(float(q) - x) <= 1e-12 * (1 + abs(x))
