"""Exact arithmetic layer: multi-indices, rational polynomials, truncated
scalar series, scaled constants, and weight moments."""

from fractions import Fraction as F

import math
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiortho.core import (
    ExactMathError,
    HermiteWeight,
    LaguerreWeight,
    LinearForm,
    LinearFormTerm,
    MultiIndex,
    RatPoly,
    ScaledConstant,
    ScaleMismatchError,
    SingularExpansionError,
    as_fraction,
    mi_chain,
    power_series,
    series_mul,
)
from oracles import gamma_moment_oracle, shifted_gaussian_moment

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
    assert RatPoly.of([1, 2, 3]).dot([F(1, 2), 1, 5, 7]) == F(35, 2)
    assert RatPoly.zero().dot([]) == 0
    with pytest.raises(ExactMathError):
        RatPoly.of([1, 2, 3]).dot([1, 1])  # too few moments


def test_poly_canonical_and_calls():
    assert RatPoly.of([1, 0, 0]).coeffs == (F(1),)
    assert RatPoly.zero().degree == -1
    p = RatPoly.of([F(1, 3), 2])
    assert p(F(1, 2)) == F(4, 3)
    assert p(0.5) == pytest.approx(4 / 3)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@given(small_polys, st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5))
def test_float_evaluation_is_reference_horner_bitwise(p, xs):
    """Float evaluation, scalar and ndarray, is Horner over float(c) from the
    highest degree down, bit for bit."""

    def horner(x):
        acc = 0.0
        for c in reversed(p.coeffs):
            acc = acc * x + float(c)
        return acc

    want = _bits([horner(x) for x in xs])
    assert _bits([p(x) for x in xs]) == want
    arr = np.array(xs)
    # the zero polynomial evaluates to the scalar 0.0
    assert _bits(np.broadcast_to(p(arr), arr.shape)) == want


@given(small_polys, small_polys, small_polys)
def test_poly_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p - p == RatPoly.zero()


@given(small_polys, small_polys)
def test_derivative_product_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


# ---------------------------------------------------------------------------
# scalar power series


def test_series_examples():
    one_plus = power_series(1, 1, 2)
    one_minus = [F(1), F(-1), F(0)]
    assert series_mul(one_plus, one_minus) == [1, 0, -1]
    assert power_series(1, -1, 2) == [1, -1, 1]


def test_binomial_inverse_examples():
    assert power_series(2, -1, 1) == [F(1, 2), F(-1, 4)]
    # expected values from differentiating the geometric series: (1+t)^-2 =
    # 1 - 2t + 3t^2 - ...
    assert power_series(1, -2, 2) == [1, -2, 3]


def test_truncation_contract():
    t = 3
    p = power_series(1, t, t)
    prod = series_mul(p, p)  # (1+tau)^(2t) truncated at t
    assert prod == [math.comb(2 * t, j) for j in range(t + 1)]


@given(st.integers(1, 6), st.integers(0, 5))
def test_binomial_inverse_inverts_binomial(n, order):
    c = F(3, 2)
    prod = series_mul(power_series(c, n, order), power_series(c, -n, order))
    assert prod == [1] + [0] * order


def test_series_errors():
    with pytest.raises(SingularExpansionError):
        power_series(0, -1, 2)


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
    assert HermiteWeight(F(0)).moments(5) == [1, 0, 1, 0, 3]
    assert HermiteWeight(F(2)).moments(3) == [1, 2, 5]  # E[(Z+2)^2] = 1 + 4
    assert HermiteWeight(F(1, 2)).scale == ScaledConstant.of(1, 1, F(1, 8))
    assert HermiteWeight(F(1)).moments(0) == []


def test_gamma_moment_examples():
    assert LaguerreWeight(F(1), 0).moments(2) == [1, 1]
    assert LaguerreWeight(F(2), 0).moments(4)[3] == F(6, 16)
    assert LaguerreWeight(F(2), 1).moments(3) == [F(1, 4), F(1, 4), F(3, 8)]
    assert LaguerreWeight(F(2), 1).scale == ScaledConstant.one()


@given(st.integers(0, 20), st.fractions(min_value=-4, max_value=4, max_denominator=8))
def test_gaussian_moment_matches_oracle(count, a):
    assert HermiteWeight(a).moments(count) == [shifted_gaussian_moment(j, a) for j in range(count)]


@given(
    st.integers(0, 15),
    st.fractions(min_value=F(1, 8), max_value=8, max_denominator=16),
    st.integers(0, 3),
)
def test_gamma_moment_matches_oracle(count, beta, p):
    assert LaguerreWeight(beta, p).moments(count) == [
        gamma_moment_oracle(j + p, beta) for j in range(count)
    ]


def test_form_moments_reject_wrong_prefactor_scale():
    """A Hermite term integrates to a rational only when its prefactor
    cancels the weight's sqrt(2*pi) * e^(a^2/2)."""
    weight = HermiteWeight(F(1))

    def form(prefactor):
        return LinearForm((LinearFormTerm(0, prefactor, RatPoly.one(), weight),))

    assert form(ScaledConstant.of(1, -1, F(-1, 2))).moments(3) == [1, 1, 2]
    for prefactor in (ScaledConstant.of(1, -1, 0), ScaledConstant.of(1, 0, F(-1, 2))):
        with pytest.raises(ScaleMismatchError):
            form(prefactor).moments(3)


@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_as_fraction_roundtrip(x):
    q = as_fraction(x)
    assert abs(float(q) - x) <= 1e-12 * (1 + abs(x))
