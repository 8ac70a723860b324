"""Gaussian-family constructions against independent moment-system oracles."""

import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from multiortho import hermite as hm
from multiortho.core import ExactMathError, HermiteWeight, RatPoly
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
        assert term.weight == HermiteWeight(a_k)
        assert tuple(pf * c for c in term.poly.coeffs) == tuple(vec)


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
    P = hm.type_ii_poly(spec).coeffs
    lower = [F(0)] * len(P)
    for j, n_j in enumerate(spec.n):
        if n_j:
            for i, c in enumerate(hm.type_ii_poly(spec.with_n(spec.n.drop(j))).coeffs):
                lower[i] += n_j * c
    for k, a_k in enumerate(spec.a):
        want = [-a_k * c - l for c, l in zip(P, lower)] + [F(0)]
        for i, c in enumerate(P):
            want[i + 1] += c
        assert hm.type_ii_poly(spec.with_n(spec.n.bump(k))).coeffs == tuple(want)


def _derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


@given(_spec_strategy())
def test_raising_identity_exactly(spec):
    """P_{n+e_k} = (x - a_k) P_n - P_n' for every k (the heat flow turns
    multiplication by x into x - D), as an equality of exact polynomials,
    written out here and as the last step of ``type_ii_walk`` up a chain
    to n + e_k.  Negative control: with the derivative's sign flipped it
    fails."""
    P = hm.type_ii_poly(spec)
    steps = [l for l, n_l in enumerate(spec.n) for _ in range(n_l)]
    for k, a_k in enumerate(spec.a):
        up = hm.type_ii_poly(spec.with_n(spec.n.bump(k)))
        for sign in (-1, 1):
            want = [F(0)] + list(P.coeffs)
            for i, c in enumerate(P.coeffs):
                want[i] -= a_k * c
            for i, c in enumerate(_derivative(P.coeffs)):
                want[i] += sign * c
            assert (RatPoly.of(want) == up) == (sign == -1)
        *_, last = hm.type_ii_walk(spec, steps + [k])
        assert last == up


@given(_spec_strategy())
def test_lowering_identity_exactly(spec):
    """Q_{n-e_k} from Q_n: each term's rational part A_l (prefactor times
    polynomial) becomes A_l' + (a_l - a_k) A_l, as exact polynomials,
    written out here, and ``lower_type_i`` gives the constructor's form.
    Negative control: with the derivative's sign flipped it fails wherever
    some A_l has a nonzero derivative."""
    assume(spec.n.weight >= 2)
    Q = hm.type_i_form(spec)
    moves = any(t.poly.degree >= 1 for t in Q.terms)
    for k, a_k in enumerate(spec.a):
        if spec.n[k] == 0:
            continue
        down = hm.type_i_form(spec.with_n(spec.n.drop(k)))
        want = [RatPoly.of([t.prefactor * c for c in t.poly.coeffs]) for t in down.terms]
        for sign in (1, -1):
            got = []
            for t in Q.terms:
                A = [t.prefactor * c for c in t.poly.coeffs]
                new = [(t.weight.a - a_k) * c for c in A]
                for i, c in enumerate(_derivative(A)):
                    new[i] += sign * c
                got.append(RatPoly.of(new))
            assert (got == want) == (sign == 1 or not moves)
        assert hm.lower_type_i(spec, spec.n.parts, Q, k) == down


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
    assert term.prefactor == 1 and term.weight == HermiteWeight(F(0))
    assert term.poly.coeffs == (1,)

    form2 = hm.type_i_form(HermiteSpec.of([0], [2]))
    (term2,) = form2.terms
    assert [term2.prefactor * c for c in term2.poly.coeffs] == [0, 1]

    # frozen from the moment-system oracle: scaled vectors (1/2) and (-1/2)
    form3 = hm.type_i_form(HermiteSpec.of([1, -1], [1, 1]))
    t1, t2 = form3.terms
    assert [t1.prefactor * c for c in t1.poly.coeffs] == [F(1, 2)]
    assert [t2.prefactor * c for c in t2.poly.coeffs] == [F(-1, 2)]


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
    """h_k in units of w_k's normalizing constant (2*pi)^(h/2) * e^q."""
    spec = HermiteSpec.of([0], [1])
    w = spec.weights[0]
    assert (hm.norm_constant(spec, 0), w.two_pi_half, w.exp_arg) == (F(1), 1, F(0))
    spec2 = HermiteSpec.of([1, -1], [1, 1])
    w2 = spec2.weights[0]
    assert (hm.norm_constant(spec2, 0), w2.two_pi_half, w2.exp_arg) == (F(2), 1, F(1, 2))


def test_norm_constant_from_moments_examples():
    spec = HermiteSpec.of([0], [1])
    assert moment_norm_constant(spec, 0, RatPoly.of([0, 1])) == F(1)
    spec2 = HermiteSpec.of([1, -1], [1, 1])
    P2 = RatPoly.of([-2, 0, 1])
    assert moment_norm_constant(spec2, 0, P2) == F(2)


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
        assert hm.norm_constant(spec, k) / hm.norm_constant(down, k) == spec.n[k]


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
    """form(x) folds each weight's normalizing constant (2*pi)^(h/2) * e^q
    into the exponent; the unfolded sum
    r * (2*pi)^(-h/2) * poly(x) * exp(-q - x^2/2 + a x) is its reference.  The
    terms can cancel (close shifts), so the reference is summed in 40-digit
    arithmetic: a double-precision sum would carry the cancellation error."""
    form = hm.type_i_form(spec)
    with mpmath.workdps(40):
        direct = mpmath.mpf(0)
        for term, a_k in zip(form.terms, spec.a):
            w = term.weight
            expo = -w.exp_arg - F(x) * F(x) / 2 + a_k * F(x)
            poly_x = sum(c * F(x) ** j for j, c in enumerate(term.poly.coeffs))
            direct += (
                _mp(term.prefactor)
                * (2 * mpmath.pi) ** (-mpmath.mpf(w.two_pi_half) / 2)
                * _mp(poly_x)
                * mpmath.exp(_mp(expo))
            )
        direct = float(direct)
    assert form(x) == pytest.approx(direct, rel=1e-12, abs=1e-300)
