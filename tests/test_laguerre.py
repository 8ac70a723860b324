"""Half-line-family constructions against independent moment-system oracles."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from multiortho import laguerre as lg
from multiortho.core import ExactMathError, LaguerreWeight, RatPoly
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


def _scaled(term):
    """The coefficients of A_k times its rational prefactor."""
    return [term.prefactor * c for c in term.poly.coeffs]


def test_type_i_examples():
    form = lg.type_i_form(LaguerreSpec.of([1], [1], 0))
    (term,) = form.terms
    assert _scaled(term) == [1]

    form2 = lg.type_i_form(LaguerreSpec.of([2], [1], 1))
    (term2,) = form2.terms
    assert _scaled(term2) == [4]

    # frozen from the moment-system oracle: A_1 = x - 1
    form3 = lg.type_i_form(LaguerreSpec.of([1], [2], 0))
    (term3,) = form3.terms
    assert _scaled(term3) == [-1, 1]

    # frozen from the moment-system oracle: A_1 = 2, A_2 = -4
    form4 = lg.type_i_form(LaguerreSpec.of([1, 2], [1, 1], 0))
    t1, t2 = form4.terms
    assert _scaled(t1) == [2]
    assert _scaled(t2) == [-4]


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
        assert _scaled(term) == list(vec)
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
    assert moment_norm_constant(spec, 0, RatPoly.of([-1, 1])) == F(1)
    spec0 = LaguerreSpec.of([1], [0], 0)
    assert moment_norm_constant(spec0, 0, RatPoly.of([1])) == F(1)
    assert lg.norm_constant(spec, 0) == lg.norm_constant(spec0, 0) == F(1)


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
        assert ratio == lg.norm_constant(spec, k) / lg.norm_constant(down, k)
        assert ratio == F(spec.n[k] * (spec.n.weight + spec.p)) / spec.beta[k] ** 2


@given(_spec_strategy())
def test_lowering_identity_exactly(spec):
    """Q_{n-e_k} from Q_n: each term's A_l becomes
    ((|n|+p-1) / (-beta_k)) (A_l - beta_k sum_j A_l^(j) / beta_l^(j+1)), as
    exact polynomials, written out here, and ``lower_type_i`` gives the
    constructor's form.  Negative control: with the derivatives' signs
    flipped ((-1)^j A_l^(j)) it fails wherever some A_l has degree >= 1."""
    assume(spec.n.weight >= 2)
    Q = lg.type_i_form(spec)
    factor = spec.n.weight + spec.p - 1
    moves = any(t.poly.degree >= 1 for t in Q.terms)
    for k, beta_k in enumerate(spec.beta):
        if spec.n[k] == 0:
            continue
        down = lg.type_i_form(spec.with_n(spec.n.drop(k)))
        want = [t.poly for t in down.terms]
        for sign in (1, -1):
            got = []
            for t in Q.terms:
                A, beta_l = list(t.poly.coeffs), t.weight.beta
                new = list(A)
                j = 0
                while A:
                    for i, c in enumerate(A):
                        new[i] -= sign**j * beta_k * c / beta_l ** (j + 1)
                    A, j = [i * c for i, c in enumerate(A)][1:], j + 1
                got.append(RatPoly.of([factor * c / -beta_k for c in new]))
            assert (got == want) == (sign == 1 or not moves)
        assert lg.lower_type_i(spec, spec.n.parts, Q, k) == down


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
