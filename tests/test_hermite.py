"""Gaussian-family constructions against independent moment-system oracles."""

import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiortho import hermite as hm
from multiortho.core import ExactMathError, HermiteWeight, RatPoly, ScaledConstant
from multiortho.hermite import HermiteSpec
from multiortho.kernels import moment_norm_constant, type_ii_residuals
from oracles import (
    hermite_recurrence_oracle,
    shifted_gaussian_moment,
    type_i_oracle,
    type_ii_oracle,
)


def _mp(q: F) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def _spec_strategy():
    shifts = st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        min_size=1,
        max_size=3,
        unique=True,
    )
    return shifts.flatmap(
        lambda a: st.lists(st.integers(0, 3), min_size=len(a), max_size=len(a))
        .filter(lambda n: 1 <= sum(n) <= 5)
        .map(lambda n: HermiteSpec.of(a, n))
    )


def _assert_type_i_matches_oracle(spec):
    form = hm.type_i_form(spec)
    oracle_vectors = type_i_oracle("hermite", spec.a, spec.n.parts)
    for term, a_k, n_k, vec in zip(form.terms, spec.a, spec.n, oracle_vectors):
        pf = term.prefactor
        if n_k == 0:
            assert term.poly.is_zero
            continue
        assert pf.two_pi_half == -1
        assert pf.exp_arg == -(a_k**2) / 2
        assert (term.poly * pf.r).coeffs == tuple(vec)


# ---------------------------------------------------------------------------
# spec validation


def test_spec_validation():
    with pytest.raises(ExactMathError):
        HermiteSpec.of([1, 2], [1])  # length mismatch
    spec = HermiteSpec.of([1, 1], [1, 1])  # coincident shifts allowed for type II
    assert hm.type_ii_poly(spec).degree == 2
    with pytest.raises(ExactMathError):
        hm.type_i_form(spec)  # but not for type I


# ---------------------------------------------------------------------------
# type II


def test_type_ii_examples():
    assert hm.type_ii_poly(HermiteSpec.of([0], [2])) == RatPoly.of([-1, 0, 1])
    assert hm.type_ii_poly(HermiteSpec.of([F(3, 2)], [1])) == RatPoly.of([F(-3, 2), 1])
    assert hm.type_ii_poly(HermiteSpec.of([1, -1], [1, 1])) == RatPoly.of([-2, 0, 1])


@given(_spec_strategy())
def test_type_ii_matches_oracle(spec):
    P = hm.type_ii_poly(spec)
    assert P.coeffs == tuple(type_ii_oracle("hermite", spec.a, spec.n.parts))


@given(st.fractions(min_value=-3, max_value=3, max_denominator=6), st.integers(0, 7))
def test_type_ii_m1_is_classical(a, deg):
    P = hm.type_ii_poly(HermiteSpec.of([a], [deg]))
    assert P.coeffs == tuple(hermite_recurrence_oracle(a, deg))


@given(_spec_strategy())
def test_nearest_neighbour_recurrence_exactly(spec):
    """P_{n+e_k} = (x - a_k) P_n - sum_j n_j P_{n-e_j} for every k (Van Assche,
    J. Approx. Theory 163 (2011)), as an equality of exact polynomials."""
    P = hm.type_ii_poly(spec)
    lower = RatPoly.zero()
    for j, n_j in enumerate(spec.n):
        if n_j:
            lower = lower + hm.type_ii_poly(spec.with_n(spec.n.drop(j))).scale(n_j)
    for k, a_k in enumerate(spec.a):
        up = hm.type_ii_poly(spec.with_n(spec.n.bump(k)))
        assert up == RatPoly.of([-a_k, 1]) * P - lower


def test_residual_examples():
    spec = HermiteSpec.of([0], [2])
    assert type_ii_residuals(RatPoly.of([-1, 0, 1]), spec) == [0, 0]
    spec2 = HermiteSpec.of([1, -1], [1, 1])
    assert type_ii_residuals(RatPoly.of([-2, 0, 1]), spec2) == [0, 0]
    # negative control: the wrong polynomial leaves a nonzero residual
    assert any(v != 0 for v in type_ii_residuals(RatPoly.of([-1, 0, 1]), spec2))


# ---------------------------------------------------------------------------
# type I


def test_type_i_examples():
    form = hm.type_i_form(HermiteSpec.of([0], [1]))
    (term,) = form.terms
    assert term.prefactor == ScaledConstant.of(1, -1, 0)
    assert term.poly == RatPoly.one()

    form2 = hm.type_i_form(HermiteSpec.of([0], [2]))
    (term2,) = form2.terms
    assert term2.poly * term2.prefactor.r == RatPoly.of([0, 1])

    # frozen from the moment-system oracle: scaled vectors (1/2) and (-1/2)
    form3 = hm.type_i_form(HermiteSpec.of([1, -1], [1, 1]))
    t1, t2 = form3.terms
    assert t1.poly * t1.prefactor.r == RatPoly.of([F(1, 2)])
    assert t2.poly * t2.prefactor.r == RatPoly.of([F(-1, 2)])


def test_type_i_condition_examples():
    spec = HermiteSpec.of([0], [1])
    assert hm.type_i_form(spec).moments(1) == [1]
    spec2 = HermiteSpec.of([1, -1], [1, 1])
    assert hm.type_i_form(spec2).moments(2) == [0, 1]
    spec3 = HermiteSpec.of([0], [2])
    assert hm.type_i_form(spec3).moments(2) == [0, 1]


@given(_spec_strategy())
def test_type_i_matches_oracle(spec):
    _assert_type_i_matches_oracle(spec)
    form = hm.type_i_form(spec)
    w = spec.n.weight
    assert form.moments(w) == [0] * (w - 1) + [1]
    for term, n_k in zip(form.terms, spec.n):
        assert term.poly.degree <= n_k - 1


def test_type_i_zero_component():
    spec = HermiteSpec.of([0, 2], [2, 0])
    form = hm.type_i_form(spec)
    assert form.terms[1].poly.is_zero
    assert form.moments(2) == [0, 1]


# ---------------------------------------------------------------------------
# normalization constants


def test_norm_constant_examples():
    c = hm.norm_constant(HermiteSpec.of([0], [1]), 0)
    assert (c.r, c.two_pi_half, c.exp_arg) == (F(1), 1, F(0))
    c2 = hm.norm_constant(HermiteSpec.of([1, -1], [1, 1]), 0)
    assert (c2.r, c2.two_pi_half, c2.exp_arg) == (F(2), 1, F(1, 2))


def test_norm_constant_from_moments_examples():
    spec = HermiteSpec.of([0], [1])
    assert moment_norm_constant(spec, 0, RatPoly.of([0, 1])) == ScaledConstant.of(1, 1, 0)
    spec2 = HermiteSpec.of([1, -1], [1, 1])
    P2 = RatPoly.of([-2, 0, 1])
    assert moment_norm_constant(spec2, 0, P2) == ScaledConstant.of(2, 1, F(1, 2))


@given(_spec_strategy())
def test_norm_closed_form_equals_moments(spec):
    P = hm.type_ii_poly(spec)
    for k in range(spec.n.m):
        assert hm.norm_constant(spec, k) == moment_norm_constant(spec, k, P)


@given(_spec_strategy())
def test_norm_ratio_is_component(spec):
    for k in range(spec.n.m):
        if spec.n[k] == 0:
            continue
        down = spec.with_n(spec.n.drop(k))
        ratio = hm.norm_constant(spec, k) / hm.norm_constant(down, k)
        assert ratio.as_fraction() == spec.n[k]


# ---------------------------------------------------------------------------
# integrals and evaluation


@given(
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4), min_size=1, max_size=4),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)
def test_gaussian_weight_integral_matches_oracle(coeffs, a):
    poly = RatPoly.of(coeffs)
    expected = sum(c * shifted_gaussian_moment(j, a) for j, c in enumerate(poly.coeffs))
    assert poly.dot(HermiteWeight(a).moments(len(poly.coeffs))) == expected


def test_eval_form_examples():
    spec = HermiteSpec.of([0], [1])
    assert hm.type_i_form(spec)(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-14)
    spec2 = HermiteSpec.of([0], [2])
    assert hm.type_i_form(spec2)(0.0) == 0.0
    spec3 = HermiteSpec.of([1, -1], [1, 1])
    assert hm.type_i_form(spec3)(0.0) == pytest.approx(0.0, abs=1e-16)


@given(_spec_strategy(), st.floats(-3, 3))
def test_eval_form_matches_direct_sum(spec, x):
    """form(x) folds each prefactor's e^q into the weight; the unfolded sum
    r * (2*pi)^(h/2) * poly(x) * exp(q - x^2/2 + a x) is its reference.  The
    terms can cancel (close shifts), so the reference is summed in 40-digit
    arithmetic: a double-precision sum would carry the cancellation error."""
    form = hm.type_i_form(spec)
    with mpmath.workdps(40):
        direct = mpmath.mpf(0)
        for term, a_k in zip(form.terms, spec.a):
            pf = term.prefactor
            expo = pf.exp_arg - F(x) * F(x) / 2 + a_k * F(x)
            direct += (
                _mp(pf.r)
                * (2 * mpmath.pi) ** (mpmath.mpf(pf.two_pi_half) / 2)
                * _mp(term.poly(F(x)))
                * mpmath.exp(_mp(expo))
            )
        direct = float(direct)
    assert form(x) == pytest.approx(direct, rel=1e-12, abs=1e-300)
