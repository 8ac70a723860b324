"""Exact arithmetic layer: multi-indices, rational polynomials, truncated
scalar series, weight moments and normalizing constants, and linear forms."""

from fractions import Fraction as F

import math
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiortho.core import (
    ExactMathError,
    FormTable,
    HermiteWeight,
    LaguerreWeight,
    LinearForm,
    LinearFormTerm,
    MultiIndex,
    RatPoly,
    RatVec,
    SingularExpansionError,
    as_fraction,
    mi_chain,
    power_series,
    _x_memo,
    _y_memo,
    series_mul,
)
from multiortho import hermite as hm
from multiortho import laguerre as lg
from multiortho.hermite import HermiteSpec
from multiortho.kernels import build_kernel
from multiortho.laguerre import LaguerreSpec
from oracles import gamma_moment_oracle, shifted_gaussian_moment

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)
small_polys = st.lists(rationals, min_size=0, max_size=6).map(RatPoly.of)

# Zeros, negative values and pairwise coprime denominators (including a
# large prime), so that common denominators are products, not just lcms
# of small numbers.
mixed_rationals = st.one_of(
    st.just(F(0)),
    rationals,
    st.builds(F, st.integers(-60, 60), st.sampled_from([2, 3, 5, 7, 11, 13, 9973])),
)
mixed_polys = st.lists(mixed_rationals, min_size=0, max_size=7).map(RatPoly.of)
nonzero_rationals = mixed_rationals.filter(lambda q: q != 0)


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: MultiIndex.of([1.5, 2]),
        lambda: MultiIndex.of([True, 1]),
        lambda: MultiIndex.of(["2"]),
        lambda: HermiteSpec.of([1, -1], [1.5, 1]),
        lambda: LaguerreSpec.of([1], [1], 1.5),
        lambda: HermiteSpec.of(["1/0"], [1]),
        lambda: MultiIndex(5),
        lambda: MultiIndex(b"12"),
        lambda: HermiteSpec.of("12", [1, 1]),
        lambda: LaguerreSpec.of(b"12", [1, 1]),
        lambda: HermiteSpec.of([1], 1),
        lambda: as_fraction(float("nan")),
        lambda: as_fraction(None),
        lambda: MultiIndex.of([2, 1]).bump(5),
        lambda: mi_chain(MultiIndex.of([1, 1]), "bogus"),
        lambda: hm.type_i_form(HermiteSpec.of([1, -1], [0, 0])),
        lambda: lg.type_i_form(LaguerreSpec.of([1, 2], [0, 0])),
    ],
    ids=["index-float", "index-bool", "index-str", "spec-n-float", "laguerre-p-float",
         "zero-denominator", "index-int", "index-bytes", "spec-param-str",
         "laguerre-param-bytes", "spec-n-int", "fraction-nan", "fraction-none",
         "bump-component", "chain-strategy", "hermite-type-i-empty", "laguerre-type-i-empty"],
)
def test_exact_values_refused_not_changed(build):
    """Each exact value is coerced once, in its constructor, which refuses
    what it would otherwise truncate or let through to a later raw error;
    an exact operation refuses an index or a strategy it does not have."""
    with pytest.raises(ExactMathError):
        build()


def test_multi_index_is_a_tuple_of_ints():
    n = MultiIndex.of([np.int64(2), 1])
    assert n == (2, 1) and hash(n) == hash((2, 1))
    assert all(type(v) is int for v in n)
    assert repr(n.drop(0)) == "(1, 1)"


def test_spec_constructor_coerces_its_fields():
    """The dataclass constructor is the one coercion point: strings and
    lists give the spec that Fractions and a MultiIndex give, with the same
    hash and the same cached kernel."""
    spec = HermiteSpec(a=["1/2", 1], n=[2, 1])
    want = HermiteSpec.of([F(1, 2), 1], [2, 1])
    assert spec == want and hash(spec) == hash(want)
    assert isinstance(spec.n, MultiIndex) and spec.a == (F(1, 2), F(1))
    assert build_kernel("hermite", spec) is build_kernel("hermite", want)
    assert HermiteSpec.p == 0 and LaguerreSpec.of([1], [1], np.int64(2)).p == 2


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
    assert RatPoly.of(RatVec.of([-1, 0, 1, 0])) == RatPoly.of([-1, 0, 1])
    assert RatPoly.of([-2, 0, 1]).derivative() == RatPoly.of([0, 2])
    assert RatPoly.of([1, 2, 3]).dot(RatVec.of([F(1, 2), 1, 5, 7])) == F(35, 2)
    assert RatPoly.zero().dot(RatVec.of([])) == 0
    with pytest.raises(ExactMathError):
        RatPoly.of([1, 2, 3]).dot(RatVec.of([1, 1]))  # too few moments


def test_poly_canonical_and_calls():
    assert RatPoly.of([1, 0, 0]).coeffs == (F(1),)
    assert RatPoly.zero().degree == -1
    p = RatPoly.of([F(1, 3), 2])
    assert (p.nums, p.den) == ((1, 6), 3)
    assert p.coeffs == (F(1, 3), F(2)) and all(type(c) is F for c in p.coeffs)
    acc = 0.0
    for c in p._float_coeffs:
        acc = acc * 0.5 + c
    assert acc == pytest.approx(4 / 3)


def test_poly_canonical_form():
    """(nums, den) is reduced, den > 0 and there is no trailing zero
    numerator, however the polynomial was given, so equal polynomials are
    equal objects with equal hashes."""
    want = RatPoly((1, 2), 3)
    forms = (
        RatPoly((2, 4), 6),  # unreduced
        RatPoly((-1, -2), -3),  # negative denominator
        RatPoly((1, 2, 0, 0), 3),  # trailing zeros
        RatPoly((-4, -8, 0), -12),
        RatPoly.of([F(1, 3), F(2, 3), 0]),
    )
    for same in forms:
        assert (same.nums, same.den) == ((1, 2), 3)
        assert same == want and hash(same) == hash(want)
    zero = RatPoly.zero()
    assert (zero.nums, zero.den) == ((), 1) and zero.is_zero
    assert RatPoly((0, 0), -7) == zero and RatPoly.of([]) == zero
    with pytest.raises(ExactMathError):
        RatPoly((1, 2), 0)
    d = RatPoly((1, 2), 2).derivative()
    assert (d.nums, d.den) == ((1,), 1)
    assert RatPoly((3, 5), 5).is_monic and RatPoly((4, -6), -6).is_monic
    assert not RatPoly((3, 4), 5).is_monic
    assert not RatPoly.of([0, 2]).is_monic and not zero.is_monic


@given(mixed_polys, st.integers(1, 10**6), st.sampled_from([1, -1]))
def test_poly_of_is_canonical(p, k, sign):
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    scaled = RatPoly(tuple(sign * k * c for c in p.nums) + (0,), sign * k * p.den)
    assert scaled == p and hash(scaled) == hash(p)
    assert RatPoly.of(p.coeffs) == p


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@given(small_polys, st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5))
def test_float_evaluation_is_reference_horner_bitwise(p, xs):
    """Float evaluation of a polynomial, the P side of a FormTable row, scalar
    and ndarray, is Horner over float(c) from the highest degree down, bit
    for bit.  The row's form is exp(-y), which is exactly 1.0 at y = 0."""

    def horner(x):
        acc = 0.0
        for c in reversed(p.coeffs):
            acc = acc * x + float(c)
        return acc

    one = LinearForm((LinearFormTerm(F(1), RatPoly.of([1]), LaguerreWeight(F(1), 0)),))
    table = FormTable.of([(1, p, one)])
    want = _bits([horner(x) for x in xs])
    assert _bits([table(x, 0.0) for x in xs]) == want
    arr = np.array(xs)
    # the zero polynomial evaluates to the scalar 0.0
    assert _bits(np.broadcast_to(table(arr, 0.0), arr.shape)) == want


@given(small_polys, small_polys)
def test_derivative_product_rule(p, q):
    dp, dq = p.derivative().coeffs, q.derivative().coeffs
    want = _fraction_sum(_fraction_product(dp, q.coeffs), _fraction_product(p.coeffs, dq))
    assert RatPoly.of(_fraction_product(p.coeffs, q.coeffs)).derivative() == RatPoly.of(want)


# ---------------------------------------------------------------------------
# scalar power series


def test_series_examples():
    one_plus = power_series(1, 1, 2)
    one_minus = RatVec.of([F(1), F(-1), F(0)])
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
# integer numerators against plain Fraction loops, compared with ==


def _fraction_product(p, q):
    if not p or not q:
        return ()
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _fraction_sum(p, q):
    out = [F(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return tuple(out)


def _fraction_dot(coeffs, moments):
    total = F(0)
    for c, m in zip(coeffs, moments):
        total += c * m
    return total


def test_ratvec_examples():
    v = RatVec.of([F(1, 2), F(-1, 3), 0])
    assert (v.nums, v.den) == ((3, -2, 0), 6)
    assert v == [F(1, 2), F(-1, 3), 0] and v[1] == F(-1, 3)
    assert v[1:] == (F(-1, 3), 0) and v[1:].den == 6
    assert RatVec.of([]) == [] and RatVec.of([]).den == 1
    assert power_series(F(-2, 3), -2, 2).den > 0


@given(mixed_polys, mixed_polys)
def test_poly_product_matches_fraction_loop(p, q):
    """The integer convolution behind series_mul gives the full product of
    two polynomials once both are padded with zeros to its length."""
    a, b = p.coeffs, q.coeffs
    size = len(a) + len(b) - 1 if a and b else 0

    def padded(v):
        return RatVec.of(v[:size] + (0,) * (size - len(v)))

    assert series_mul(padded(a), padded(b)) == list(_fraction_product(a, b))


@given(mixed_polys, st.lists(mixed_rationals, max_size=10))
def test_poly_dot_matches_fraction_loop(p, moments):
    if len(moments) < len(p.coeffs):
        with pytest.raises(ExactMathError):
            p.dot(RatVec.of(moments))
        return
    got = p.dot(RatVec.of(moments))
    assert got == _fraction_dot(p.coeffs, moments) and type(got) is F


@given(st.lists(st.tuples(mixed_rationals, mixed_rationals), max_size=7))
def test_series_mul_matches_fraction_loop(pairs):
    a = [u for u, _ in pairs]
    b = [v for _, v in pairs]
    want = [_fraction_dot(a[: i + 1], b[i::-1]) for i in range(len(a))]
    assert series_mul(RatVec.of(a), RatVec.of(b)) == want


@given(nonzero_rationals, st.integers(-6, 6), st.integers(0, 6))
def test_power_series_matches_fraction_loop(c, e, order):
    want = [c**e]
    for j in range(order):
        want.append(want[j] * (e - j) / ((j + 1) * c))
    got = power_series(c, e, order)
    assert got == want and got.den > 0


def _fraction_moments(weight, count):
    """E[(Z + a)^j] by m_{j+1} = a m_j + j m_{j-1}, or (j+p)! / beta^(j+p+1)."""
    if isinstance(weight, LaguerreWeight):
        return [F(math.factorial(j + weight.p)) / weight.beta ** (j + weight.p + 1) for j in range(count)]
    a = weight.a
    out = [F(1), a]
    for j in range(1, count - 1):
        out.append(a * out[j] + j * out[j - 1])
    return out[:count]


@given(st.integers(0, 24), mixed_rationals)
def test_gaussian_moments_match_fraction_loop(count, a):
    weight = HermiteWeight(a)
    assert weight.moments(count) == _fraction_moments(weight, count)


@given(st.integers(0, 20), nonzero_rationals.map(abs), st.integers(0, 3))
def test_gamma_moments_match_fraction_loop(count, beta, p):
    weight = LaguerreWeight(beta, p)
    assert weight.moments(count) == _fraction_moments(weight, count)


weights = st.one_of(
    mixed_rationals.map(HermiteWeight),
    st.builds(LaguerreWeight, nonzero_rationals.map(abs), st.integers(0, 2)),
)


@given(st.lists(st.tuples(weights, mixed_polys, mixed_rationals), max_size=3), st.integers(0, 6))
def test_form_moments_match_fraction_loop(terms, count):
    form = LinearForm(tuple(LinearFormTerm(r, poly, weight) for weight, poly, r in terms))
    want = [F(0)] * count
    for weight, poly, r in terms:
        if poly.is_zero:
            continue
        mom = _fraction_moments(weight, len(poly.coeffs) + count)
        for j in range(count):
            want[j] += r * _fraction_dot(poly.coeffs, mom[j:])
    assert form.moments(count) == want


@given(
    st.lists(
        st.tuples(mixed_rationals, mixed_polys, st.lists(st.tuples(weights, mixed_polys, mixed_rationals), max_size=3)),
        min_size=1,
        max_size=3,
    )
)
def test_form_table_sides_agree_at_signed_zero(rows):
    """The scalar sides are memoized by the float's value, under which -0.0
    and 0.0 share a key: each gives the same x side and the same y side,
    bit for bit, and every point of the four is the same with the memos
    cold or warm."""
    table = FormTable.of(
        (c, P, LinearForm(tuple(LinearFormTerm(r, poly, w) for w, poly, r in terms)))
        for c, P, terms in rows
    )
    assert _bits(table.x_side(-0.0)) == _bits(table.x_side(0.0))
    assert _bits(table.y_side(-0.0)) == _bits(table.y_side(0.0))
    points = [(x, y) for x in (-0.0, 0.0) for y in (-0.0, 0.0)]
    cold = []
    for x, y in points:
        _x_memo.cache_clear()
        _y_memo.cache_clear()
        cold.append(table(x, y))
    assert _bits([table(x, y) for x, y in points]) == _bits(cold)


# ---------------------------------------------------------------------------
# weight moments


def test_gaussian_moment_examples():
    assert HermiteWeight(F(0)).moments(5) == [1, 0, 1, 0, 3]
    assert HermiteWeight(F(2)).moments(3) == [1, 2, 5]  # E[(Z+2)^2] = 1 + 4
    w = HermiteWeight(F(1, 2))
    assert (w.two_pi_half, w.exp_arg) == (1, F(1, 8))
    assert HermiteWeight(F(1)).moments(0) == []
    # the prefactor 1 in units of 1 / (sqrt(2 pi) e^(1/2)) makes w's integral 1
    one = LinearForm((LinearFormTerm(F(1), RatPoly.of([1]), HermiteWeight(F(1))),))
    assert one.moments(3) == [1, 1, 2]


def test_gamma_moment_examples():
    assert LaguerreWeight(F(1), 0).moments(2) == [1, 1]
    assert LaguerreWeight(F(2), 0).moments(4)[3] == F(6, 16)
    assert LaguerreWeight(F(2), 1).moments(3) == [F(1, 4), F(1, 4), F(3, 8)]
    w = LaguerreWeight(F(2), 1)
    assert (w.two_pi_half, w.exp_arg) == (0, 0)


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


@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_as_fraction_roundtrip(x):
    q = as_fraction(x)
    assert abs(float(q) - x) <= 1e-12 * (1 + abs(x))


def test_public_api():
    """Every name in multiortho.__all__ resolves, and the package exports
    no constant algebra: prefactors and norm constants are plain Fractions."""
    import multiortho
    from multiortho import core

    for name in multiortho.__all__:
        getattr(multiortho, name)
    for gone in ("ScaledConstant", "ScaleMismatchError"):
        assert gone not in multiortho.__all__
        assert not hasattr(multiortho, gone) and not hasattr(core, gone)
