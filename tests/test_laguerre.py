"""Half-line-family constructions against independent moment-system oracles."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiortho import laguerre as lg
from multiortho.core import ExactMathError, LaguerreWeight, RatPoly, ScaledConstant
from multiortho.kernels import moment_norm_constant, type_ii_residuals
from multiortho.laguerre import LaguerreSpec
from oracles import (
    gamma_moment_oracle,
    laguerre_recurrence_oracle,
    type_i_oracle,
    type_ii_oracle,
)


def _spec_strategy():
    rates = st.lists(
        st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
        min_size=1,
        max_size=3,
        unique=True,
    )
    return st.tuples(rates, st.integers(0, 2)).flatmap(
        lambda bp: st.lists(st.integers(0, 3), min_size=len(bp[0]), max_size=len(bp[0]))
        .filter(lambda n: 1 <= sum(n) <= 5)
        .map(lambda n: LaguerreSpec.of(bp[0], n, bp[1]))
    )


# ---------------------------------------------------------------------------
# spec validation


def test_spec_validation():
    with pytest.raises(ExactMathError):
        LaguerreSpec.of([1, 1], [1, 1])  # coincident rates never allowed
    with pytest.raises(ExactMathError):
        LaguerreSpec.of([0], [1])  # rates must be positive
    with pytest.raises(ExactMathError):
        LaguerreSpec.of([1], [1], -1)  # p must be >= 0


# ---------------------------------------------------------------------------
# type II


def test_type_ii_examples():
    assert lg.type_ii_poly(LaguerreSpec.of([1], [1], 0)) == RatPoly.of([-1, 1])
    assert lg.type_ii_poly(LaguerreSpec.of([1], [1], 1)) == RatPoly.of([-2, 1])
    # frozen from the moment-system oracle
    assert lg.type_ii_poly(LaguerreSpec.of([1, 2], [1, 1], 0)) == RatPoly.of([1, -3, 1])
    assert lg.type_ii_poly(LaguerreSpec.of([1, 2], [1, 1], 1)) == RatPoly.of([3, F(-9, 2), 1])


@given(_spec_strategy())
def test_type_ii_matches_oracle(spec):
    P = lg.type_ii_poly(spec)
    assert P.coeffs == tuple(type_ii_oracle("laguerre", spec.beta, spec.n.parts, spec.p))


@given(
    st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
    st.integers(0, 2),
    st.integers(0, 7),
)
def test_type_ii_m1_is_classical(beta, p, deg):
    P = lg.type_ii_poly(LaguerreSpec.of([beta], [deg], p))
    assert P.coeffs == tuple(laguerre_recurrence_oracle(beta, p, deg))


def test_residual_examples():
    assert type_ii_residuals(RatPoly.of([-1, 1]), LaguerreSpec.of([1], [1], 0)) == [0]
    assert type_ii_residuals(RatPoly.of([-2, 1]), LaguerreSpec.of([1], [1], 1)) == [0]
    # negative control: integral of (x-1)*x*e^(-x) = 2! - 1! = 1
    assert type_ii_residuals(RatPoly.of([-1, 1]), LaguerreSpec.of([1], [1], 1)) == [1]


# ---------------------------------------------------------------------------
# type I


def test_type_i_examples():
    form = lg.type_i_form(LaguerreSpec.of([1], [1], 0))
    (term,) = form.terms
    assert term.poly * term.prefactor.as_fraction() == RatPoly.one()

    form2 = lg.type_i_form(LaguerreSpec.of([2], [1], 1))
    (term2,) = form2.terms
    assert term2.poly * term2.prefactor.as_fraction() == RatPoly.of([4])

    # frozen from the moment-system oracle: A_1 = x - 1
    form3 = lg.type_i_form(LaguerreSpec.of([1], [2], 0))
    (term3,) = form3.terms
    assert term3.poly * term3.prefactor.as_fraction() == RatPoly.of([-1, 1])

    # frozen from the moment-system oracle: A_1 = 2, A_2 = -4
    form4 = lg.type_i_form(LaguerreSpec.of([1, 2], [1, 1], 0))
    t1, t2 = form4.terms
    assert t1.poly * t1.prefactor.as_fraction() == RatPoly.of([2])
    assert t2.poly * t2.prefactor.as_fraction() == RatPoly.of([-4])


def test_type_i_condition_examples():
    for spec in (
        LaguerreSpec.of([1], [1], 0),
        LaguerreSpec.of([2], [1], 1),
    ):
        assert lg.type_i_form(spec).moments(1) == [1]
    spec2 = LaguerreSpec.of([1, 2], [1, 1], 0)
    assert lg.type_i_form(spec2).moments(2) == [0, 1]
    spec3 = LaguerreSpec.of([1], [2], 0)
    assert lg.type_i_form(spec3).moments(2) == [0, 1]


@given(_spec_strategy())
def test_type_i_matches_oracle(spec):
    form = lg.type_i_form(spec)
    oracle_vectors = type_i_oracle("laguerre", spec.beta, spec.n.parts, spec.p)
    for term, n_k, vec in zip(form.terms, spec.n, oracle_vectors):
        if n_k == 0:
            assert term.poly.is_zero
            continue
        assert (term.poly * term.prefactor.as_fraction()).coeffs == tuple(vec)
    w = spec.n.weight
    assert form.moments(w) == [0] * (w - 1) + [1]
    for term, n_k in zip(form.terms, spec.n):
        assert term.poly.degree <= n_k - 1


def test_type_i_zero_component():
    spec = LaguerreSpec.of([1, 3], [0, 2], 1)
    form = lg.type_i_form(spec)
    assert form.terms[0].poly.is_zero
    assert form.moments(2) == [0, 1]


# ---------------------------------------------------------------------------
# normalization constants


def test_norm_examples():
    spec = LaguerreSpec.of([1], [1], 0)
    assert moment_norm_constant(spec, 0, RatPoly.of([-1, 1])) == ScaledConstant.one()
    spec0 = LaguerreSpec.of([1], [0], 0)
    assert moment_norm_constant(spec0, 0, RatPoly.one()) == ScaledConstant.one()
    assert lg.norm_constant(spec, 0) == lg.norm_constant(spec0, 0) == ScaledConstant.one()
    assert lg.norm_ratio(spec, 0) == 1


@given(_spec_strategy())
def test_norm_closed_form_equals_moments(spec):
    P = lg.type_ii_poly(spec)
    for k in range(spec.n.m):
        assert lg.norm_constant(spec, k) == moment_norm_constant(spec, k, P)


@given(_spec_strategy())
def test_norm_ratio_closed_form(spec):
    P = lg.type_ii_poly(spec)
    for k in range(spec.n.m):
        if spec.n[k] == 0:
            continue
        down = spec.with_n(spec.n.drop(k))
        Pd = lg.type_ii_poly(down)
        ratio = moment_norm_constant(spec, k, P) / moment_norm_constant(down, k, Pd)
        ratio = ratio.as_fraction()
        assert ratio == lg.norm_ratio(spec, k)
        assert ratio == F(spec.n[k] * (spec.n.weight + spec.p)) / spec.beta[k] ** 2


# ---------------------------------------------------------------------------
# integrals


@given(
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4), min_size=1, max_size=4),
    st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
    st.integers(0, 2),
)
def test_half_line_integral_matches_oracle(coeffs, beta, p):
    poly = RatPoly.of(coeffs)
    expected = sum(c * gamma_moment_oracle(j + p, beta) for j, c in enumerate(poly.coeffs))
    assert poly.dot(LaguerreWeight(beta, p).moments(len(poly.coeffs))) == expected
