"""Correlation kernels: CD form, biorthogonal sum, contour quadrature, and
the identities tying them together."""

import hashlib
import itertools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from multiortho import core
from multiortho import hermite as hm
from multiortho import kernels as kn
from multiortho import laguerre as lg
from multiortho.cli import main
from multiortho.core import CHAIN_STRATEGIES, ExactMathError, HermiteWeight, MultiIndex, mi_chain
from multiortho.hermite import HermiteSpec
from multiortho.kernels import LEVEL_MEMO
from multiortho.laguerre import LaguerreSpec
from multiortho.presets import standard_grid
from multiortho.quad import (
    MAX_LINE_NODES,
    UNIT_NODES_MEMO,
    ContourError,
    ConvergenceError,
    concentric_row,
    line_rule_nodes,
    unit_nodes,
)
from oracles import cd_kernel_oracle, nearest_neighbour_coefficients, nearest_neighbour_residual
from test_acceptance import hermite_sweep, laguerre_sweep

H11 = HermiteSpec.of([1, -1], [1, 1])
H21 = HermiteSpec.of([1, -1], [2, 1])
L11_P0 = LaguerreSpec.of([1, 2], [1, 1], 0)
L11_P1 = LaguerreSpec.of([1, 2], [1, 1], 1)

INV_ROOT_2PI = 1 / math.sqrt(2 * math.pi)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


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


@pytest.mark.parametrize(
    "family, spec",
    [
        ("hermite", HermiteSpec.of([F(7, 3), F(-5, 2)], [2, 3])),
        ("laguerre", LaguerreSpec.of([F(7, 3), F(5, 2)], [2, 3], 2)),
    ],
    ids=["hermite", "laguerre"],
)
def test_build_kernel_checks_closed_h_at_down_index(family, spec, monkeypatch):
    """build_kernel compares the closed-form h at n - e_k, not only at n,
    with its moments: a norm_constant off by one only there is refused."""
    mod = kn.FAMILIES[family]
    closed = mod.norm_constant
    down = spec.n.drop(1)
    monkeypatch.setattr(mod, "norm_constant", lambda s, k: closed(s, k) + (s.n == down))
    with pytest.raises(ExactMathError):
        kn.build_kernel(family, spec)


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
    numerator = _ref_horner(K.P, x) * K.Q(y) - sum(
        float(r) * _ref_horner(pd, x) * qu(y)
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


def _outcome(f, *args):
    """The bits of f's float value, or the type of the exception it raised."""
    try:
        return _bits(np.ravel(f(*args)))
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


@pytest.mark.parametrize(
    "family, spec",
    [("hermite", H21), ("laguerre", L11_P0), ("laguerre", LaguerreSpec.of([1, 2], [1, 1], 2))],
    ids=["h21", "l-p0", "l-p2"],
)
def test_diagonal_array_pass_matches_eval_cd_bitwise(family, spec):
    """eval_cd_diagonal at t is eval_cd(K, t, t), the same bits or the same
    exception: at the nearby-quotient points, on the standard grid, and at
    t = 1e308, where a midpoint 0.5 * (x + y) would overflow to inf."""
    K = kn.build_kernel(family, spec)
    points = [0.9, 1e308] + [float(t) for t in standard_grid(family, 11)]
    if family == "hermite":
        points += [-1.5, 0.0]
    for t in points:
        want = _outcome(kn.eval_cd, K, t, t)
        assert _outcome(kn.eval_cd_diagonal, K, np.array([t])) == want, t


def test_eval_cd_diagonal_refuses_past_a_nan():
    """A nan element does not hide an element off the half line: the array
    pass refuses it, naming it, as eval_cd does; a nan alone propagates."""
    K = kn.build_kernel("laguerre", L11_P1)
    with pytest.raises(ExactMathError, match=r"\(-1\.0, -1\.0\)"):
        kn.eval_cd_diagonal(K, np.array([np.nan, -1.0]))
    with pytest.raises(ExactMathError):
        kn.eval_cd(K, -1.0, -1.0)
    got = kn.eval_cd_diagonal(K, np.array([np.nan, 1.0]))
    assert math.isnan(got[0]) and got[1] == kn.eval_cd(K, 1.0, 1.0)


def test_eval_cd_diagonal_at_subnormal_points():
    """On the diagonal eval_cd takes the limit at x itself, also at an odd
    subnormal x, where 0.5 * x + 0.5 * x is the next subnormal up; so it
    keeps eval_cd_diagonal's bits there."""
    K = kn.build_kernel("laguerre", LaguerreSpec.of([1, 2], [2, 1], 1))
    for t in (5e-324, 1.5e-323, 2.5e-323, 1e-320):
        assert kn.eval_cd(K, t, t) == kn.eval_cd_diagonal(K, np.array([t]))[0], t


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
    """A bad chain is refused on every call, not only the first."""
    zero, n = MultiIndex.zeros(2), H11.n
    for chain in ([n], [zero, zero, n], (zero, MultiIndex.of([1, 0]), MultiIndex.of([2, 0]))):
        for _ in range(2):
            with pytest.raises(ExactMathError):
                kn.eval_sum("hermite", H11, chain, 0.0, 0.0)


@pytest.mark.parametrize("strategy", CHAIN_STRATEGIES)
def test_chain_walk_equals_constructors_exactly(strategy):
    """Every (P, Q) pair of the chain walk equals the family constructors'
    objects at that chain index, over the acceptance sweep and three large
    specs."""
    large = (
        HermiteSpec.of([1, -1], [16, 16]),
        HermiteSpec.of([0, 1, 2], [6, 6, 6]),
        LaguerreSpec.of([1, 2], [8, 8], 1),
    )
    for spec in hermite_sweep() + laguerre_sweep() + large:
        fam = kn.FAMILIES[spec.family]
        chain = mi_chain(spec.n, strategy)
        want = tuple(
            (fam.type_ii_poly(spec.with_n(lo)), fam.type_i_form(spec.with_n(hi)))
            for lo, hi in zip(chain, chain[1:])
        )
        assert kn._chain_factors(spec, tuple(chain)) == want, spec


def test_spec_hash_is_the_field_hash():
    """A spec computes its hash once; it is still the hash of its fields,
    so an equal spec built apart keys the same cache entries."""
    for spec, fields in ((H21, (H21.a, H21.n)), (L11_P1, (L11_P1.beta, L11_P1.n, L11_P1.p))):
        assert hash(spec) == hash(fields) == hash(spec.with_n(MultiIndex(spec.n.parts)))


def _reference_sum(spec, chain, x, y):
    fam = kn.FAMILIES[spec.family]
    total = 0.0
    for j in range(spec.n.weight):
        p = fam.type_ii_poly(spec.with_n(chain[j]))
        q = fam.type_i_form(spec.with_n(chain[j + 1]))
        total += _ref_horner(p, x) * q(y)
    return total


@pytest.mark.parametrize("strategy", CHAIN_STRATEGIES)
@pytest.mark.parametrize(
    "family, spec",
    [
        ("hermite", HermiteSpec.of([0], [12])),
        ("hermite", HermiteSpec.of([1, -1], [7, 5])),
        ("hermite", HermiteSpec.of(["1/2", -1, 2], [5, 4, 3])),
        ("laguerre", LaguerreSpec.of([1, 2], [8, 4], 1)),
        ("laguerre", LaguerreSpec.of(["1/2", 2, 3], [3, 4, 5], 2)),
    ],
    ids=["h12", "h75", "h543", "l84-p1", "l345-p2"],
)
def test_eval_sum_matches_reference_loop_bitwise(family, spec, strategy):
    """eval_sum equals the loop that builds each chain step's factors on
    the spot, bit for bit, with the chain given as a list or a tuple."""
    chain = mi_chain(spec.n, strategy)
    grid = standard_grid(family)
    pts = [(x, y) for x in grid for y in grid]
    want = _bits([_reference_sum(spec, chain, x, y) for x, y in pts])
    assert _bits([kn.eval_sum(family, spec, chain, x, y) for x, y in pts]) == want
    assert _bits([kn.eval_sum(family, spec, tuple(chain), x, y) for x, y in pts]) == want


def _ref_horner(poly, x):
    acc = 0.0
    for c in reversed(poly.coeffs):
        acc = acc * x + float(c)
    return acc


def _ref_form(form, y):
    """The type I form at y from its exact term data: per nonzero term,
    r * (2 pi)^(-h/2) * y^p * A_k(y) * exp(exponent), where the weight's
    normalizing constant is (2 pi)^(h/2) e^q and its e^(-q) joins the
    weight's exponent, summed over the terms in order."""
    total = 0.0
    for t in form.terms:
        if t.poly.is_zero:
            continue
        w = t.weight
        h = -w.two_pi_half
        scale = float(t.prefactor) * (2 * math.pi) ** (h // 2)
        if h % 2:
            scale *= math.sqrt(2 * math.pi)
        if isinstance(w, HermiteWeight):
            a = float(w.a)
            expo = -0.5 * (y - a) * (y - a) + float(w.a * w.a / 2 - w.exp_arg)
            total += scale * _ref_horner(t.poly, y) * math.exp(expo)
        else:
            expo = float(-w.exp_arg) - float(w.beta) * y
            total += scale * y**w.p * _ref_horner(t.poly, y) * math.exp(expo)
    return total


def _ref_cd(K, x, y):
    """The CD quotient, or its diagonal limit at the midpoint, from the
    model's exact polynomials and forms."""
    if abs(x - y) < kn.DIAGONAL_EPS:
        t = 0.5 * x + 0.5 * y
        lead = _ref_horner(K.P.derivative(), t) * _ref_form(K.Q, t)
        for r, pd, qu in zip(K.ratios, K.P_down, K.Q_up):
            lead = lead - float(r) * _ref_horner(pd.derivative(), t) * _ref_form(qu, t)
        return lead
    lead = _ref_horner(K.P, x) * _ref_form(K.Q, y)
    for r, pd, qu in zip(K.ratios, K.P_down, K.Q_up):
        lead = lead - float(r) * _ref_horner(pd, x) * _ref_form(qu, y)
    return lead / (x - y)


def _ref_dxdy(K, x, y, h):
    """check_dxdy_identity's two residuals from the reference loops."""
    D = (_ref_cd(K, x + h, y) - _ref_cd(K, x - h, y)) / (2.0 * h)
    D += (_ref_cd(K, x, y + h) - _ref_cd(K, x, y - h)) / (2.0 * h)
    first = (x - y) * _ref_cd(K, x, y) - _ref_horner(K.P, x) * _ref_form(K.Q, y)
    second = 0.0
    for r, pd, qu in zip(K.ratios, K.P_down, K.Q_up):
        second = second - float(r) * _ref_horner(pd, x) * _ref_form(qu, y)
    return abs(D - first), abs(D - second)


@st.composite
def _spec_and_points(draw):
    family = draw(st.sampled_from(["hermite", "laguerre"]))
    m = draw(st.integers(1, 3))
    n = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    if family == "hermite":
        pool = ["-2", "-1", "-1/2", "0", "1/3", "1", "2"]
        a = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m, unique=True))
        spec, points = HermiteSpec.of(a, n), st.floats(-4, 4)
    else:
        pool = ["1/2", "1", "3/2", "2", "3"]
        beta = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m, unique=True))
        spec, points = LaguerreSpec.of(beta, n, draw(st.integers(0, 2))), st.floats(0.05, 8)
    return family, spec, draw(st.lists(points, min_size=1, max_size=3))


@given(_spec_and_points())
@example(("hermite", HermiteSpec.of(["1/2", -1, 2], [2, 3, 1]), [-1.3, 0.4, 2.2]))
@example(("laguerre", LaguerreSpec.of(["1/2", 2, 3], [2, 2, 1], 2), [0.3, 1.7, 4.1]))
@example(("hermite", HermiteSpec.of(["1/2", -1, 2], [2, 3, 1]), [-40.0, 0.5, 40.0]))
@example(("laguerre", LaguerreSpec.of(["1/2", 2, 3], [2, 2, 1], 2), [0.3, 1.7, 1500.0]))
def test_float_routes_match_term_formula_bitwise(case):
    """eval_cd (off and on the diagonal), the type I form at a float and at
    an ndarray, eval_sum and, for the Gaussian family, check_dxdy_identity's
    two residuals equal, bit for bit, loops written from the exact term
    data, independently of the package's float evaluator.  The examples at
    x = +-40 and x = 1500 are where the weights' exponentials underflow."""
    family, spec, pts = case
    K = kn.build_kernel(family, spec)
    chain = mi_chain(spec.n)
    want_q = _bits([_ref_form(K.Q, x) for x in pts])
    assert _bits([K.Q(x) for x in pts]) == want_q
    assert _bits(K.Q(np.array(pts))) == want_q
    for x in pts:
        for y in pts:
            assert _bits([kn.eval_cd(K, x, y)]) == _bits([_ref_cd(K, x, y)])
            fam, want = kn.FAMILIES[family], 0.0
            for lo, hi in zip(chain, chain[1:]):
                p, q = fam.type_ii_poly(spec.with_n(lo)), fam.type_i_form(spec.with_n(hi))
                want += _ref_horner(p, x) * _ref_form(q, y)
            assert _bits([kn.eval_sum(family, spec, chain, x, y)]) == _bits([want])
            if family == "hermite":
                got = kn.check_dxdy_identity(spec, x, y, 1e-4)
                assert _bits(got) == _bits(_ref_dxdy(K, x, y, 1e-4))


# The scalar x and y sides of core.FormTable are kept per grid row in these
# bounded memos.
FORM_MEMOS = {core._x_memo: core.X_MEMO, core._y_memo: core.Y_MEMO}
# Both axes of each grid hold a near-diagonal pair (eval_cd's limit branch
# at the midpoint) and a nan; the Hermite axes hold -0.0 and 0.0, which
# share a memo key.
FORM_GRIDS = {
    "hermite": (HermiteSpec.of(["1/2", -1, 2], [2, 3, 1]), (-0.0, 0.0, -1.5, 0.75, 0.75 + 5e-9, math.nan, 3.0)),
    "laguerre": (LaguerreSpec.of(["1/2", 2, 3], [2, 2, 1], 2), (0.5, 1.25, 1.25 + 5e-9, math.nan, 3.5)),
}


def _clear_form_memos():
    for memo in FORM_MEMOS:
        memo.cache_clear()


def _form_bits(family, spec, points, cold):
    """eval_cd, eval_sum on each chain strategy and the type I form at y,
    as hex strings, per point."""
    K = kn.build_kernel(family, spec)
    chains = [mi_chain(spec.n, strategy) for strategy in CHAIN_STRATEGIES]
    out = {}
    for x, y in points:
        if cold:
            _clear_form_memos()
        values = [kn.eval_cd(K, x, y), *(kn.eval_sum(family, spec, c, x, y) for c in chains), K.Q(y)]
        out[x.hex(), y.hex()] = [v.hex() for v in values]
    return out


@pytest.mark.parametrize("family", ["hermite", "laguerre"])
def test_form_bits_do_not_depend_on_evaluation_order(family):
    """The sides kept along a grid row give the bits a cold evaluation
    gives, in row-major, column-major, reversed and shuffled order alike,
    and -0.0 and 0.0 give the same values, in x and in y, also cold."""
    spec, axis = FORM_GRIDS[family]
    by_row = [(x, y) for x in axis for y in axis]
    shuffled = by_row[:]
    random.Random(1).shuffle(shuffled)
    orders = [by_row, [(x, y) for y in axis for x in axis], by_row[::-1], shuffled]
    cold = _form_bits(family, spec, by_row, cold=True)
    _clear_form_memos()
    for points in orders:
        assert _form_bits(family, spec, points, cold=False) == cold
    if family == "hermite":
        zeros = [(-0.0).hex(), (0.0).hex()]
        for v in [z.hex() for z in axis]:
            assert cold[zeros[0], v] == cold[zeros[1], v]
            assert cold[v, zeros[0]] == cold[v, zeros[1]]


def test_form_memos_hit_along_a_row():
    """A row computes each table's x side once, and every row after the
    first finds all of its y sides."""
    K = kn.build_kernel("hermite", H21)
    ys = [float(v) for v in standard_grid("hermite")]
    _clear_form_memos()
    for row, x in enumerate([0.3, 1.1], start=1):
        for y in ys:
            kn.eval_cd(K, x, y)
        xi, yi = core._x_memo.cache_info(), core._y_memo.cache_info()
        assert (xi.misses, xi.hits) == (row, row * (len(ys) - 1))
        assert (yi.misses, yi.hits) == (len(ys), (row - 1) * len(ys))


def test_form_memos_bounded_and_hold_tuples():
    """The y memo holds a 101-point row (the density default) for two
    tables; both memos stay at their maxsize past it, and hold each side as
    a tuple of floats, one per table row, with the bits of the side
    computed directly."""
    assert core.Y_MEMO >= 2 * 101
    K = kn.build_kernel("hermite", H21)
    chain = mi_chain(H21.n)
    _clear_form_memos()
    for x in np.linspace(0.1, 0.9, 2 * core.X_MEMO):
        for y in np.linspace(-3, 3, core.Y_MEMO):
            kn.eval_cd(K, float(x), float(y))
            kn.eval_sum("hermite", H21, chain, float(x), float(y))
    for memo, maxsize in FORM_MEMOS.items():
        info = memo.cache_info()
        assert info.maxsize == maxsize == info.currsize
    for table in (K._cd, K._diag, kn._chain_table(H21, tuple(chain))):
        for memo, side in [(core._x_memo, table.x_side), (core._y_memo, table.y_side)]:
            got = memo(table, 0.5)
            assert type(got) is tuple and len(got) == len(table.rows)
            assert all(type(v) is float for v in got)
            assert _bits(got) == _bits(side(0.5))


def _nearest_neighbour_residuals(spec, b, a):
    """The recurrence's residual at each k, from the package's type II
    polynomials at n, n + e_k and each n - e_j."""
    fam = kn.FAMILIES[spec.family]

    def coeffs(n):
        return list(fam.type_ii_poly(spec.with_n(n)).coeffs)

    down = [coeffs(spec.n.drop(j)) if n_j else None for j, n_j in enumerate(spec.n)]
    P = coeffs(spec.n)
    return [nearest_neighbour_residual(P, coeffs(spec.n.bump(k)), down, b[k], a) for k in range(spec.m)]


def _recurrence_sweep():
    """The acceptance sweep's specs with m >= 2, each with its recurrence
    coefficients."""
    for spec in hermite_sweep() + laguerre_sweep():
        if spec.m >= 2:
            params = getattr(spec, spec.param_name)
            yield spec, nearest_neighbour_coefficients(spec.family, params, spec.n, spec.p)


def test_type_ii_nearest_neighbour_recurrences_exactly():
    """Over the acceptance sweep's specs with m >= 2, in both families,
    x P_n = P_{n+e_k} + b_{n,k} P_n + sum_j a_{n,j} P_{n-e_j} holds exactly
    at every k, and wherever the kernel exists each a_{n,j} is its CD ratio
    h_j(n)/h_j(n - e_j), checked with no norm constant."""
    kernels = 0
    for spec, (b, a) in _recurrence_sweep():
        assert _nearest_neighbour_residuals(spec, b, a) == [[]] * spec.m, spec
        if all(spec.n):
            assert list(kn.build_kernel(spec.family, spec).ratios) == a, spec
            kernels += 1
    assert kernels > 0


@pytest.mark.parametrize(
    "spec",
    [HermiteSpec.of(["1/2", -1, 2], [2, 3, 1]), LaguerreSpec.of(["1/2", 2, 3], [2, 0, 1], 2)],
    ids=["hermite", "laguerre"],
)
def test_type_ii_nearest_neighbour_negative_control(spec):
    """With any one coefficient off by one (each b_{n,k}, and each a_{n,j}
    with n_j > 0) the recurrence fails."""
    b, a = nearest_neighbour_coefficients(spec.family, getattr(spec, spec.param_name), spec.n, spec.p)
    assert _nearest_neighbour_residuals(spec, b, a) == [[]] * spec.m
    for coeffs in (b, a):
        for i in range(spec.m):
            if coeffs is a and not spec.n[i]:
                continue
            coeffs[i] += 1
            assert any(_nearest_neighbour_residuals(spec, b, a)), (coeffs, i)
            coeffs[i] -= 1


def _type_i_coefficients(spec):
    """(b, a) of the type I recurrence at n: b[k] = b_{n-e_k,k} (None where
    n_k = 0) and a[j] = a_{n,j}, the type II coefficients."""
    params, p = getattr(spec, spec.param_name), getattr(spec, "p", 0)
    b = [
        nearest_neighbour_coefficients(spec.family, params, spec.n.drop(k), p)[0][k] if n_k else None
        for k, n_k in enumerate(spec.n)
    ]
    return b, nearest_neighbour_coefficients(spec.family, params, spec.n, p)[1]


def _type_i_residuals(spec, b, a):
    """For each k with n_k > 0, the first |n| + m moments of
    x Q_n - Q_{n-e_k} - b[k] Q_n - sum_j a[j] Q_{n+e_j}.  That residual is
    sum_l A_l w_l with deg A_l <= n_l, and in these AT systems index
    n + (1, ..., 1) is normal, so the only such form whose first |n| + m
    moments vanish is 0: all-zero moments mean the recurrence holds."""
    fam = kn.FAMILIES[spec.family]
    count = spec.n.weight + spec.m

    def moments(n, extra=0):
        return list(fam.type_i_form(spec.with_n(n)).moments(count + extra))

    Q = moments(spec.n, 1)
    up = [moments(spec.n.bump(j)) for j in range(spec.m)]
    out = []
    for k, b_k in enumerate(b):
        if b_k is not None:
            down = moments(spec.n.drop(k))
            tail = [sum(a_j * u[i] for a_j, u in zip(a, up)) for i in range(count)]
            out.append([Q[i + 1] - down[i] - b_k * Q[i] - tail[i] for i in range(count)])
    return out


def test_type_i_nearest_neighbour_recurrences_exactly():
    """Over the acceptance sweep's specs with m >= 2 and |n| >= 2, in both
    families, x Q_n = Q_{n-e_k} + b_{n-e_k,k} Q_n + sum_j a_{n,j} Q_{n+e_j}
    holds exactly at every k with n_k > 0, with the type II coefficients
    (Van Assche, J. Approx. Theory 163, 2011, derives it from the type II
    recurrence by biorthogonality): for Hermite
    x Q_n = Q_{n-e_k} + a_k Q_n + sum_j n_j Q_{n+e_j}."""
    checked = 0
    for spec in hermite_sweep() + laguerre_sweep():
        if spec.m >= 2 and spec.n.weight >= 2:
            residuals = _type_i_residuals(spec, *_type_i_coefficients(spec))
            assert all(r == [0] * len(r) for r in residuals), spec
            checked += len(residuals)
    assert checked > 0


@pytest.mark.parametrize(
    "spec",
    [HermiteSpec.of(["1/2", -1, 2], [2, 3, 1]), LaguerreSpec.of(["1/2", 2, 3], [2, 0, 1], 2)],
    ids=["hermite", "laguerre"],
)
def test_type_i_nearest_neighbour_negative_control(spec):
    """With any one coefficient off by one (each b_{n-e_k,k} with n_k > 0,
    and each a_{n,j} with n_j > 0) the type I recurrence fails."""
    b, a = _type_i_coefficients(spec)
    assert not any(any(r) for r in _type_i_residuals(spec, b, a))
    for coeffs in (b, a):
        for i in range(spec.m):
            if not spec.n[i]:
                continue
            coeffs[i] += 1
            assert any(any(r) for r in _type_i_residuals(spec, b, a)), (coeffs, i)
            coeffs[i] -= 1


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
    val = next(kn.contour_levels(H11, 0.7, -1.1, 256, hm.contour_geometry(H11, 0.7, -1.1, 256)))
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
    val = next(kn.contour_levels(L11_P1, 0.8, 2.3, 256, lg.contour_geometry(L11_P1, 0.8, 2.3, 256)))
    assert abs(val.imag) < 1e-10


def test_contour_adaptive_dispatch():
    K = kn.build_kernel("hermite", H11)
    got = kn.eval_contour("hermite", H11, 1.2, -0.4)
    assert got == pytest.approx(kn.eval_cd(K, 1.2, -0.4), abs=1e-7)


def test_contour_adaptive_reports_nonconvergence():
    """The doubling loop stops at the cap and reports its last value,
    delta and node count when the tolerance cannot be met: at (-4, 0) the
    levels keep differing by a rounding step of ~3e-17."""
    with pytest.raises(ConvergenceError) as err:
        kn.eval_contour("hermite", H11, -4.0, 0.0, tol=1e-17)
    assert err.value.nodes == kn.CONTOUR_CAP_NODES
    assert 0.0 <= err.value.delta < 1e-9
    K = kn.build_kernel("hermite", H11)
    assert err.value.best == pytest.approx(kn.eval_cd(K, -4.0, 0.0), abs=1e-7)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
def test_contour_refuses_nonpositive_tolerance(tol):
    """A tolerance no delta can fall below is refused before any level is
    computed, not reported as a contour that did not settle at the cap."""
    with pytest.raises(ExactMathError, match="tolerance"):
        kn.eval_contour("hermite", H11, 1.2, -0.4, tol=tol)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda nodes: kn.eval_contour("hermite", H11, 0.4, -0.3, nodes=nodes),
        lambda nodes: line_rule_nodes("gaussian", nodes).nodes,
    ],
    ids=["eval_contour", "line_rule_nodes"],
)
def test_node_counts_are_integers(evaluate):
    """A node count is coerced through as_int: a numpy integer gives the
    int's result, and a float or a bool is refused, not passed on."""
    assert np.array_equal(evaluate(np.int64(16)), evaluate(16))
    for bad in (16.0, True):
        with pytest.raises(ExactMathError):
            evaluate(bad)


# Circle pairs (s_center, s_radius, t_center, t_radius) around the rates
# (1, 2): disjoint and nested either way, and four that cannot carry the
# kernel.
LAGUERRE_PAIRS = {
    "disjoint": (0.0, 0.5, 1.5, 0.75),
    "s-inside": (0.0, 0.25, 0.0, 2.5),
    "t-inside": (1.0, 3.0, 1.0, 1.25),
    "t-inside-off-centre": (-0.5, 4.0, 1.5, 1.0),
}
LAGUERRE_REJECTED_PAIRS = {
    "touching": (0.0, 0.5, 1.5, 1.0),
    "rate-outside": (0.0, 0.5, 1.5, 0.4),
    "zero-outside": (0.6, 0.5, 1.5, 0.75),
    "equal": (0.0, 2.0, 0.0, 2.0),
}


def test_contour_geometry_validation():
    """``_valid`` accepts the pairs that agree with cd, all in one call."""
    pairs = np.array([*LAGUERRE_PAIRS.values()])
    assert lg._valid(L11_P0, *pairs.T).tolist() == [True] * len(LAGUERRE_PAIRS)


@pytest.mark.parametrize(
    "circles", LAGUERRE_REJECTED_PAIRS.values(), ids=LAGUERRE_REJECTED_PAIRS.keys()
)
def test_contour_laguerre_geometry_rejected(circles):
    """``_valid`` rejects a pair that touches, misses a rate, misses 0, or
    equals the other circle."""
    assert not lg._valid(L11_P0, *circles)


# Every rate set and every shift set drawn from the README sweep pools and
# the hypothesis pools.
RATE_SETS = [
    beta
    for m in range(1, 6)
    for beta in itertools.combinations([F(1, 2), F(1), F(3, 2), F(2), F(3)], m)
]
SHIFT_SETS = [
    a
    for m in range(1, 8)
    for a in itertools.combinations([-2, -1, F(-1, 2), 0, F(1, 3), 1, 2], m)
]
# Rates at which the best-scored circle pair can miss rate 1 in float.
TINY_RATES = LaguerreSpec.of([F(1, 10**16), 1], [1, 1], 1)


def test_contour_laguerre_candidates_valid_on_pool_rates():
    """Every candidate pair of every pool rate set can carry the kernel;
    at rates (1e-16, 1) some cannot."""
    for beta in RATE_SETS:
        spec = LaguerreSpec.of(beta, [1] * len(beta), 0)
        valid = lg._valid(spec, *lg._candidates(spec))
        assert valid.size == 52 and valid.all(), beta
    assert not lg._valid(TINY_RATES, *lg._candidates(TINY_RATES)).all()


def test_contour_hermite_geometry_clears_the_circle():
    """The chosen circle has r > 0 and holds every shift strictly inside,
    and the line keeps |sigma - c| >= r + LINE_GAP, at and beside the
    circle, at both zeros and far out.  Where the line is moved to
    c + copysign(r + LINE_GAP, x - c), rounding that sum can take one ulp
    off the gap (a = (1/3, 2), x = c + r + LINE_GAP); it never lets the
    line touch the circle."""
    for a in SHIFT_SETS:
        spec = HermiteSpec.of(a, [1] * len(a))
        geo = hm.contour_geometry(spec, 0.0, 0.0, 512)
        c, r = geo.circle_center, geo.circle_radius
        assert r > 0.0 and all(abs(float(a_k) - c) < r for a_k in a), a
        reach = r + hm.LINE_GAP
        for x in (-0.0, 0.0, c - reach, c + reach, -1e300, 1e300):
            geo = hm.contour_geometry(spec, x, 0.0, 512)
            assert (geo.circle_center, geo.circle_radius) == (c, r)
            gap = abs(geo.line_abscissa - c)
            assert gap > r and gap >= reach - math.ulp(abs(c) + reach), (a, x)


@pytest.mark.parametrize("circles", LAGUERRE_PAIRS.values(), ids=LAGUERRE_PAIRS.keys())
def test_contour_laguerre_circle_pairs_agree_with_cd(circles):
    """Disjoint and nested circle pairs, either way round, give the same
    kernel: the Moebius map to circles around 0 keeps the node sum exact."""
    K = kn.build_kernel("laguerre", L11_P0)
    geometry = tuple(float(v) for v in lg._coaxal(*circles))
    got = next(kn.contour_levels(L11_P0, 0.7, 1.9, 256, geometry)).real
    assert got == pytest.approx(kn.eval_cd(K, 0.7, 1.9), abs=1e-12)


@pytest.mark.parametrize(
    "x, y, nodes", [(100.0, 100.0, 16), (100.0, 100.0, 64), (100.0, 100.0, 512), (20.0, 100.0, 16)]
)
def test_contour_laguerre_refuses_pair_that_misses_a_rate(x, y, nodes):
    """At rates (1e-16, 1) the best-scored pair is disjoint, and its
    t-circle misses rate 1 in float.  The kernel refuses it, naming the
    point and the rates, rather than print a number from another pair:
    the best-scored valid pair there gives 1.1e12 to -8.2e54, where cd is
    3.7e-42.  The cold search
    runs in eval_contour's silenced floating point state, so its
    overflowing candidates warn nothing."""
    _clear_contour_memos("laguerre")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContourError, match=rf"x={x}, y={y}.* 1/10000000000000000, 1$"):
            kn.eval_contour("laguerre", TINY_RATES, x, y, nodes)


@pytest.mark.parametrize(
    "spec, x, y",
    [(LaguerreSpec.of([1, 2], [8, 8], 1), 30.0, 0.5), (L11_P0, 100.0, 0.5)],
    ids=["8-8-p1", "1-1-p0"],
)
def test_contour_laguerre_search_warns_nothing(spec, x, y):
    """A cold adaptive point warns nothing: the search runs in
    eval_contour's silenced state, and at x = 100 its e^{xs} overflows on
    some candidates."""
    _clear_contour_memos("laguerre")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kn.eval_contour("laguerre", spec, x, y)


def test_contour_laguerre_mapped_sum_matches_direct_node_sum():
    """The mapped FFT sum is the double node sum at the preimages of the
    equispaced image nodes, summed directly."""
    spec, x, y, N = LaguerreSpec.of([1, 2], [2, 1], 1), 3.0, 2.0, 128
    geometry = tuple(float(v) for v in lg._coaxal(0.0, 0.5, 1.5, 0.75))
    lam, mu, r_s, r_t, sign = geometry
    w = np.exp(2j * np.pi * np.arange(N) / N)
    s = (r_s * w + lam) / (1 + mu * r_s * w)
    t = (r_t * w + lam) / (1 + mu * r_t * w)
    ds = (1 - lam * mu) / (1 + mu * r_s * w) ** 2 * r_s * w
    dt = sign * (1 - lam * mu) / (1 + mu * r_t * w) ** 2 * r_t * w
    f = np.exp(x * s) * s ** -4 * (s - 1) ** 2 * (s - 2)
    g = np.exp(-y * t) * t**4 / ((t - 1) ** 2 * (t - 2))
    direct = (f * ds) @ (1.0 / (s[:, None] - t)) @ (g * dt) / N**2
    got = next(kn.contour_levels(spec, x, y, N, geometry))
    assert abs(got - direct) <= 1e-14 * abs(direct)


def test_contour_custom_geometry_consistent():
    geo = hm.HermiteContourGeometry(-4.0, 0.0, 2.5)
    K = kn.build_kernel("hermite", H11)
    got = next(kn.contour_levels(H11, 0.5, 0.1, 512, geo)).real
    assert got == pytest.approx(kn.eval_cd(K, 0.5, 0.1), abs=1e-7)
    # a circle so small against the line's distance that every rho / (s - c)
    # underflows to 0; K(x, 0) = Q_1(0) = 1/sqrt(2 pi) for a=(0), n=(1)
    geo = hm.HermiteContourGeometry(1e300, 0.0, 1e-300)
    got = next(kn.contour_levels(HermiteSpec.of([0], [1]), 1e300, 0.0, 64, geo)).real
    assert got == pytest.approx(INV_ROOT_2PI, abs=1e-12)


def _hermite_pass_row(spec, x, geo, N, offset):
    """The row on the N circle nodes theta = 2 pi (j + offset) / N of the
    levels that start at N nodes: the first level's row at offset 0, the
    odd entries of the next level's at offset 1/2."""
    if offset:
        return kn._contour_level(spec, x, geo, 2 * N, N).row[1::2]
    return kn._contour_level(spec, x, geo, N, N).row


def _hermite_line_factors(spec, x, geo, line_nodes):
    """The line factors A and nodes s of the line side, rebuilt here: the
    rule's weights times exp(iu(sigma-x)) prod_k (s - a_k)^{n_k}, less the
    nodes below LINE_TERM_FLOOR times the largest factor."""
    rule = line_rule_nodes("gaussian", line_nodes)
    sigma = geo.line_abscissa
    s = sigma + 1j * rule.nodes
    A = rule.weights * np.exp(1j * rule.nodes * (sigma - x))
    for a_k, n_k in zip(spec.a, spec.n):
        A = A * (s - float(a_k)) ** n_k
    keep = ~(np.abs(A) < hm.LINE_TERM_FLOOR * np.abs(A).max())
    return A[keep], s[keep]


# Two default geometries, whose row sums serve every pass from 512 nodes on
# (below, K exceeds the nodes and each pass folds exactly), and a custom line
# 0.01 from the circle, q_max ~ 0.99, whose K exceeds 16 to 512 nodes (the
# exact fold) and stays below 8192 (the pass sums its own K powers).
FOLDED_ROW_CASES = [
    (H21, 0.75, None),
    (HermiteSpec.of([1, -1, 2], [3, 3, 2]), 0.5, None),
    (H21, 0.0, hm.HermiteContourGeometry(1.51, 0.0, 1.5)),
]


@pytest.mark.parametrize("N", [16, 64, 512, 8192])
def test_contour_hermite_folded_row_matches_dense_row(N):
    """Each pass's row from one inverse FFT of the folded power sums equals
    the dense A @ (1/(s[:, None] - t)) at every circle node, relative to
    the entry's term mass sum_i |A_i| / |s_i - t_j|, within
    4 eps / (1 - q_max): rounding a node t by about eps |t| moves a term by
    up to that relative amount, and the dense row sees the rounded nodes."""
    eps = np.finfo(float).eps
    line_nodes = min(N, MAX_LINE_NODES)
    for spec, x, geo in FOLDED_ROW_CASES:
        geo = geo or hm.contour_geometry(spec, x, 0.0, N)
        _, _, K, sums = hm._line_side(spec, x, geo, line_nodes)
        assert (sums is not None) == (K <= line_nodes)
        if geo.line_abscissa == 1.51:
            assert (K > N) == (N <= 512)
        A, s = _hermite_line_factors(spec, x, geo, line_nodes)
        bound = 4 * eps / (1 - np.abs(geo.circle_radius / (s - geo.circle_center)).max())
        for offset in (0.0, 0.5):
            row = _hermite_pass_row(spec, x, geo, N, offset)
            t = geo.circle_center + geo.circle_radius * np.exp(2j * math.pi * (np.arange(N) + offset) / N)
            inv = 1.0 / (s[:, None] - t)
            mass = np.abs(A) @ np.abs(inv)
            assert np.all(np.abs(row - A @ inv) <= bound * mass), (spec, N, offset)


def test_contour_hermite_folded_row_against_40_digits():
    """A 64-node row at the exact circle nodes c + rho e^{2 pi i (j + offset)/64},
    summed at 40 digits over the same float A and s, within 4 eps of each
    entry's term mass; and the circle factors' unit nodes within eps of
    the exact ones, at 64 nodes and at 24, where N/4 is not an integer.
    The unit nodes nest with their bits: the odd nodes of 2N are those of N
    turned by half a step, and the even ones those of N, at 16 to 8192."""
    eps = np.finfo(float).eps
    geo = hm.contour_geometry(H21, 0.75, 0.0, 64)
    A, s = _hermite_line_factors(H21, 0.75, geo, 64)
    with mpmath.workdps(40):
        As = [mpmath.mpc(complex(v)) for v in A]
        ss = [mpmath.mpc(complex(v)) for v in s]
        for offset in (0.0, 0.5):
            row = _hermite_pass_row(H21, 0.75, geo, 64, offset)
            for j in range(64):
                t = geo.circle_center + geo.circle_radius * mpmath.expjpi(2 * (j + mpmath.mpf(offset)) / 64)
                exact = mpmath.fsum(a / (si - t) for a, si in zip(As, ss))
                mass = mpmath.fsum(abs(a) / abs(si - t) for a, si in zip(As, ss))
                assert abs(row[j] - exact) <= 4 * eps * mass, (offset, j)
            for N in (24, 64):
                unit = unit_nodes(N, offset)
                for j in range(N):
                    assert abs(unit[j] - mpmath.expjpi(2 * (j + mpmath.mpf(offset)) / N)) <= eps, (N, offset, j)
    for N in 2 ** np.arange(4, 14):
        unit = unit_nodes(N, 0.0)
        assert _bits(unit[1::2].copy().view(float)) == _bits(unit_nodes(N // 2, 0.5).view(float)), N
        assert _bits(unit[::2].copy().view(float)) == _bits(unit_nodes(N // 2, 0.0).view(float)), N


def test_contour_hermite_pass_holds_no_dense_node_matrix():
    """One cold 8192-node pass at hermite a=(1,-1), n=(2,1), x=0 allocates
    less at its peak than one line-nodes x circle-nodes complex matrix."""
    geo = hm.contour_geometry(H21, 0.0, 0.0, 8192)
    matrix_bytes = len(_hermite_line_factors(H21, 0.0, geo, 512)[0]) * 8192 * 16
    _clear_contour_memos("hermite")
    tracemalloc.start()
    try:
        kn._contour_level(H21, 0.0, geo, 8192, 8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < matrix_bytes


@pytest.mark.parametrize("N", [16, 64, 512])
def test_concentric_sum_matches_bilinear_sum(N):
    """The FFT row is the node sum over two circles around 0, either one the
    larger: on radii 3 and 2, row @ B matches the dense
    A @ (1/(s[:, None] - t)) @ B, and on every pair each row entry matches
    the dense row relative to its term mass sum_i |A_i| / |s_i - t_j|
    within 4 eps / (1 - q), q the ratio of the radii, also near q = 1 where
    the 1/(1 - q^N) fold matters.  Stacked rows that mix the two
    orientations have the bits of the single rows."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(N)
    w = np.exp(2j * np.pi * np.arange(N) / N)
    radii = [(3.0, 2.0), (2.0, 3.0), (1.0, 0.99), (0.99, 1.0), (0.5, 2.0), (1.25, 1.0), (4.0, 0.75)]
    r_s, r_t = np.array(radii).T
    As = rng.standard_normal((len(radii), N)) + 1j * rng.standard_normal((len(radii), N))
    Bs = rng.standard_normal((len(radii), N)) + 1j * rng.standard_normal((len(radii), N))
    stacked = concentric_row(As, r_s, r_t)
    for A, B, (r_s, r_t), got in zip(As, Bs, radii, stacked):
        row = concentric_row(A, r_s, r_t)
        assert _bits(got.view(float)) == _bits(row.view(float))
        inv = 1.0 / ((r_s * w)[:, None] - r_t * w)
        bound = 4 * eps / (1 - min(r_s, r_t) / max(r_s, r_t))
        assert np.all(np.abs(row - A @ inv) <= bound * (np.abs(A) @ np.abs(inv))), (r_s, r_t)
        if {r_s, r_t} == {2.0, 3.0}:
            direct = A @ inv @ B
            assert abs(row @ B - direct) <= 1e-14 * abs(direct), (r_s, r_t)


def test_contour_nested_level_matches_fresh_evaluation():
    """Level 2N adds the odd circle nodes to level N's sum; that is the
    2N-node evaluation.  The Laguerre levels take level N's node values as
    the even nodes of level 2N, which have the same bits, so there the
    nested value equals the fresh one, with either circle pair inside."""
    spec = HermiteSpec.of([1, -2, -1], [1, 4, 2])
    geo = hm.contour_geometry(spec, 3.0, 0.0, 512)
    levels = kn.contour_levels(spec, 3.0, 0.0, 512, geo)
    next(levels)
    nested = next(levels)
    fresh = next(kn.contour_levels(spec, 3.0, 0.0, 1024, geo))
    assert abs(nested - fresh) <= 1e-14 * abs(fresh)
    spec = LaguerreSpec.of([1, 2], [2, 1], 1)
    for x, y, circles in [(3.0, 2.0, (0.0, 0.5, 1.5, 0.75)), (0.7, 1.9, (1.0, 3.0, 1.0, 1.25))]:
        geo = tuple(float(v) for v in lg._coaxal(*circles))
        levels = kn.contour_levels(spec, x, y, 512, geo)
        next(levels)
        assert next(levels) == next(kn.contour_levels(spec, x, y, 1024, geo))


# The x side of the node sums is kept per grid row in these bounded memos,
# on circle nodes kept per node count and offset.
CONTOUR_MEMOS = {
    "hermite": {
        kn._contour_level: LEVEL_MEMO,
        unit_nodes: UNIT_NODES_MEMO,
    },
    "laguerre": {
        lg._search_side: lg.SEARCH_MEMO,
        kn._contour_level: LEVEL_MEMO,
        unit_nodes: UNIT_NODES_MEMO,
    },
}
# 5 x 5 grids; the Hermite ones hold x = -0.0 and x = 0.0.  For H21 the
# circle centre is 0, so the sign of zero picks the side of the line and the
# values differ at y = 0.5; for a = (1, 2) the centre is 1.5, both zeros
# share one line and one memo entry, and every value is the same.
ORDER_GRIDS = {
    "hermite": (H21, (-0.0, 0.0, -1.5, 0.75, 3.0), (0.5, -0.0, -2.0, 1.25, 4.0)),
    "laguerre": (L11_P1, (0.5, 1.25, 2.0, 3.5, 5.0), (0.5, 1.0, 2.5, 4.0, 6.0)),
}
OFF_CENTRE_GRID = (HermiteSpec.of([1, 2], [2, 1]),) + ORDER_GRIDS["hermite"][1:]


def _clear_contour_memos(family):
    for memo in CONTOUR_MEMOS[family]:
        memo.cache_clear()


def _contour_bits(family, spec, points, nodes, cold):
    out = {}
    for x, y in points:
        if cold:
            _clear_contour_memos(family)
        out[x.hex(), y.hex()] = kn.eval_contour(family, spec, x, y, nodes).hex()
    return out


ORDER_NODES = pytest.mark.parametrize(
    "nodes", [None, 16, 512, 1024, 8192], ids=["adaptive", "16", "512", "1024", "8192"]
)


@ORDER_NODES
@pytest.mark.parametrize("family", ["hermite", "laguerre"])
def test_contour_bits_do_not_depend_on_evaluation_order(family, nodes):
    """The x side kept along a grid row gives the bits a cold evaluation
    gives, in row-major and column-major order alike.  Around a circle
    centre of 0, -0.0 and 0.0 (in either order) do not share it; off centre
    they share it and every value."""
    grids = [ORDER_GRIDS[family]] + ([OFF_CENTRE_GRID] if family == "hermite" else [])
    for spec, xs, ys in grids:
        by_row = [(x, y) for x in xs for y in ys]
        by_column = [(x, y) for y in ys for x in xs]
        _clear_contour_memos(family)
        row_major = _contour_bits(family, spec, by_row, nodes, cold=False)
        column_major = _contour_bits(family, spec, by_column, nodes, cold=False)
        cold = _contour_bits(family, spec, by_row, nodes, cold=True)
        assert row_major == column_major == cold
        if spec is H21:
            assert cold[(-0.0).hex(), (0.5).hex()] != cold[(0.0).hex(), (0.5).hex()]
        elif family == "hermite":
            assert all(cold[(-0.0).hex(), y.hex()] == cold[(0.0).hex(), y.hex()] for y in ys)
            _clear_contour_memos(family)
            kn.eval_contour(family, spec, -0.0, 0.5, nodes)
            misses = kn._contour_level.cache_info().misses
            kn.eval_contour(family, spec, 0.0, 0.5, nodes)
            assert kn._contour_level.cache_info().misses == misses


@ORDER_NODES
def test_contour_bits_do_not_depend_on_alternating_families(nodes):
    """Hermite and Laguerre points taken in turn share the one level memo,
    and each gives the bits of its cold evaluation."""
    points = {f: [(x, y) for x in xs for y in ys] for f, (_, xs, ys) in ORDER_GRIDS.items()}
    cold = {f: _contour_bits(f, ORDER_GRIDS[f][0], points[f], nodes, cold=True) for f in points}
    _clear_contour_memos("hermite")
    _clear_contour_memos("laguerre")
    turns = {"hermite": {}, "laguerre": {}}
    for pair in zip(points["hermite"], points["laguerre"]):
        for family, point in zip(turns, pair):
            spec = ORDER_GRIDS[family][0]
            turns[family].update(_contour_bits(family, spec, [point], nodes, cold=False))
    assert turns == cold


def test_contour_memos_hit_along_a_row():
    """Points 2-5 of a row reuse the x side the first point built.  The
    first point finds only what it built itself: each nested level it
    builds hits the level before."""
    for family, spec, x, ys, memo, nested in [
        ("hermite", H21, 0.75, ORDER_GRIDS["hermite"][2], kn._contour_level, True),
        ("laguerre", L11_P1, 2.0, ORDER_GRIDS["laguerre"][2], lg._search_side, False),
    ]:
        _clear_contour_memos(family)
        infos = []
        for y in ys:
            kn.eval_contour(family, spec, x, y)
            infos.append(memo.cache_info())
        assert infos[0].hits == (infos[0].misses - 1 if nested else 0)
        assert all(info.misses == infos[0].misses for info in infos[1:])
        assert all(b.hits > a.hits for a, b in zip(infos, infos[1:]))


def test_contour_memos_bounded_and_read_only(capsys, monkeypatch):
    """After 11 x 11 kernel grids each memo holds at most its small constant
    maxsize, and the arrays it hands out cannot be written: every level the
    shared level memo handed out on both grids (first and nested ones of
    both families), and an entry of each other memo."""
    level_memo, handed_out = kn._contour_level, {}

    def recorded(*key):
        level = level_memo(*key)
        handed_out[id(level)] = level
        return level

    monkeypatch.setattr(kn, "_contour_level", recorded)
    for family, params, grid in [
        ("hermite", ("--a", "1,-1"), "-3:3:11,-3:3:11"),
        ("laguerre", ("--beta", "1,2", "--p", "1"), "0.5:5:11,0.5:5:11"),
    ]:
        assert main(["kernel", "--family", family, *params, "--n", "2,1", f"--grid={grid}"]) == 0
        for memo, maxsize in CONTOUR_MEMOS[family].items():
            info = memo.cache_info()
            assert info.maxsize == maxsize <= 8
            assert 0 < info.currsize <= maxsize
    capsys.readouterr()
    assert level_memo.cache_info().currsize <= LEVEL_MEMO
    kinds = {(type(level), level.norm in (512, 512 * 512)) for level in handed_out.values()}
    assert kinds == {(hm._Level, True), (hm._Level, False), (lg._Level, True), (lg._Level, False)}
    cached = [*handed_out.values(), lg._search_side(L11_P1, 2.0, 32), unit_nodes(512, 0.5)]
    for arr in _arrays_in(cached):
        with pytest.raises(ValueError):
            arr[...] = 0.0


def _arrays_in(value):
    """Every ndarray in a memo value, through its nested tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays_in(item)


def _spec(family, params, n, p):
    return HermiteSpec.of(params, n) if family == "hermite" else LaguerreSpec.of(params, n, p)


def _contour_as_cd(spec, x, y, **kwargs):
    ct = kn.eval_contour(spec.family, spec, x, y, **kwargs)
    p = getattr(spec, "p", 0)
    return ct * (y / x) ** p if p else ct


@pytest.mark.parametrize(
    "family, params, n, p",
    [("hermite", (1, -1), (12, 12), 0), ("laguerre", (1, 2), (8, 8), 1)],
    ids=["hermite-12-12", "laguerre-8-8-p1"],
)
def test_contour_against_reference(family, params, n, p):
    """512-node contour values (in the CD normalization) against the 60-digit
    CD reference on the 5x5 standard grid."""
    spec = _spec(family, params, n, p)
    grid = [float(v) for v in standard_grid(family)]
    for x in grid:
        for y in grid:
            ct = _contour_as_cd(spec, x, y, nodes=512)
            assert abs(ct - cd_kernel_oracle(family, params, n, p, x, y)) <= 1e-9, (x, y)


@pytest.mark.parametrize(
    "n, p, tol",
    [((1, 1), 1, 1e-9), ((8, 8), 1, 1e-8)],
    ids=["1-1-p1", "8-8-p1"],
)
def test_contour_laguerre_64_nodes_against_reference(n, p, tol):
    """At 64 nodes the geometry search weighs the trapezoid rule's aliasing
    at that node count, not only the rounding of the node sum."""
    spec = LaguerreSpec.of((1, 2), n, p)
    grid = [float(v) for v in standard_grid("laguerre")]
    for x in grid:
        for y in grid:
            ct = _contour_as_cd(spec, x, y, nodes=64)
            assert abs(ct - cd_kernel_oracle("laguerre", (1, 2), n, p, x, y)) <= tol, (x, y)


@pytest.mark.parametrize(
    "beta, n", [((3, F(1, 2), 1), (1, 1, 2)), ((1, F(1, 2)), (1, 4))], ids=["3-rates", "2-rates"]
)
def test_contour_laguerre_search_nests_its_levels_below_32_nodes(beta, n):
    """Below 32 nodes the geometry search compares 16 and 32 of its nodes,
    two nested trapezoid sums, whatever the node count; at 24 nodes it once
    compared 32 and 64 nodes, scaled as 24 and 48, and picked a pair that
    missed this kernel value by 327.5."""
    spec = LaguerreSpec.of(beta, n, 1)
    x, y = 3.5, 2.5
    cd = kn.eval_cd(kn.build_kernel("laguerre", spec), x, y)
    errors = {nodes: abs(_contour_as_cd(spec, x, y, nodes=nodes) - cd) for nodes in range(16, 32, 2)}
    assert all(err <= 10 * errors[16] for err in errors.values()), errors


@pytest.mark.parametrize(
    "spec, y, h",
    [
        (LaguerreSpec.of([1, 2], [3, 2], 1), 2.5, 32),
        (L11_P1, 0.5, 16),
        (LaguerreSpec.of([1, 2, 3], [2, 2, 2], 1), 4.0, 32),
        (LaguerreSpec.of([F(1, 2), 3, 1], [1, 2, 1], 2), 1.0, 8),
    ],
)
def test_contour_laguerre_search_t_side_per_distinct_circle(spec, y, h):
    """The search side keeps its y-free t-node factors once per distinct
    t-circle image, fewer rows than candidates, and gathers them per
    candidate by t_index.  The t-factors, the term masses and the 2h- and
    h-node sums have the bits of the t-node rows built per candidate."""
    def bits(v):
        return _bits(np.asarray(v).view(float))

    side = lg._search_side(spec, 1.5, h)
    lam, mu, r_s, r_t, _ = side.coaxal
    assert side.t_nodes.t.shape[0] < lam.size
    w = unit_nodes(lg.SEARCH_NODES, 0.0)
    b = lg._t_factors(lg._t_nodes(spec, lam[:, None], mu[:, None], r_t[:, None] * w), y)
    assert bits(lg._t_factors(side.t_nodes, y)[side.t_index]) == bits(b)
    mass = side.a_mass * np.abs(b).sum(-1) / np.abs(r_s - r_t) / lg.SEARCH_NODES**2
    sums = [
        side.scale * (row * b[:, :: lg.SEARCH_NODES // n]).sum(-1) / n**2
        for row, n in zip(side.levels, (2 * h, h))
    ]
    for got, want in zip(lg._search_terms(side, y, h), [mass, *sums]):
        assert bits(got) == bits(want)


@pytest.mark.parametrize(
    "n, p, x, y",
    [
        ((1, 1), 0, 12.0, 0.5),
        ((1, 1), 0, 12.0, 12.0),
        ((1, 1), 0, 30.0, 0.5),
        ((1, 1), 0, 30.0, 30.0),
        ((8, 8), 1, 12.0, 0.5),
        ((8, 8), 1, 12.0, 12.0),
    ],
)
def test_contour_laguerre_large_arguments(n, p, x, y):
    """Large x needs the s-circle small (inside the t-circle, or beside it
    when y is large too): a circle around the t-circle meets e^{xs} at
    e^{x max beta} or more."""
    spec = LaguerreSpec.of((1, 2), n, p)
    ct = _contour_as_cd(spec, x, y)
    assert abs(ct - cd_kernel_oracle("laguerre", (1, 2), n, p, x, y)) <= 1e-9


@pytest.mark.parametrize(
    "family, params, n, p, x, y",
    [
        ("laguerre", (1, 2, 3), (1, 1, 6), 2, 0.5, 0.5),
        ("laguerre", (1, 2, 3), (1, 1, 6), 2, 0.5, 1.5),
        ("hermite", (1, -2, -1), (1, 4, 2), 0, 3.0, -3.0),
        ("hermite", (1, -2, -1), (1, 4, 2), 0, 3.0, -1.5),
        ("hermite", (1, -2, -1), (1, 4, 2), 0, 3.0, 0.0),
        ("hermite", (1, -2, -1), (1, 4, 2), 0, 3.0, 1.5),
    ],
)
def test_contour_adaptive_settles_where_fixed_geometry_failed(family, params, n, p, x, y):
    """Points where the fixed geometries did not settle or settled wrong."""
    spec = _spec(family, params, n, p)
    ct = _contour_as_cd(spec, x, y)
    assert abs(ct - cd_kernel_oracle(family, params, n, p, x, y)) <= 1e-7


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


@pytest.mark.parametrize(
    "family, spec",
    [
        ("hermite", HermiteSpec.of([1, -1], [16, 16])),
        ("hermite", HermiteSpec.of([1, -1, 2], [6, 6, 6])),
        ("laguerre", LaguerreSpec.of([1, 2], [8, 8], 1)),
    ],
    ids=["h16-16", "h6-6-6", "l8-8-p1"],
)
def test_exact_layer_at_large_weight(family, spec):
    """Where the float routes lose accuracy, the exact layer still holds
    exactly: the biorthogonality matrix is the identity under both chain
    strategies, and build_kernel's ratios equal the closed forms n_k
    (Gaussian) and n_k (|n| + p) / beta_k^2 (half-line)."""
    K = kn.build_kernel(family, spec)
    closed = tuple(
        F(n_k) if family == "hermite" else n_k * (spec.n.weight + spec.p) / spec.beta[k] ** 2
        for k, n_k in enumerate(spec.n)
    )
    assert K.ratios == closed
    w = spec.n.weight
    identity = [[int(i == j) for j in range(w)] for i in range(w)]
    for strategy in CHAIN_STRATEGIES:
        assert kn.check_biorthogonality(family, spec, mi_chain(spec.n, strategy)) == identity


def _exact_outputs(spec):
    """(name, values) of every exact output the package builds for spec."""
    mod = kn.FAMILIES[spec.family]
    yield "P", mod.type_ii_poly(spec).coeffs
    form = mod.type_i_form(spec)
    for t in form.terms:
        # the prefactor r / Z as (r, h, q) of r * (2 pi)^(h/2) * e^q
        w = t.weight
        yield "A", (t.prefactor, -w.two_pi_half, -w.exp_arg) + t.poly.coeffs
    yield "Qm", tuple(form.moments(3))
    yield "B", tuple(itertools.chain.from_iterable(kn.check_biorthogonality(spec.family, spec)))
    if all(spec.n):
        K = kn.build_kernel(spec.family, spec)
        yield "ratios", K.ratios
        yield "dP", K.P.derivative().coeffs


# SHA-256 of the exact outputs over the acceptance sweep and three large
# specs: type II and type I coefficients, the type I prefactors, the first
# Q moments, the biorthogonality matrices, and the kernel ratios and P'.
# Frozen from the implementation that stored coefficients as Fraction
# tuples; every later form must give the same Fractions.
EXACT_OUTPUTS_SHA256 = "ad9233645472c3f6bb3816eb41805b762ab6978ddfdbbbfe8f9dfcf9988c6dbd"


def test_exact_outputs_fingerprint():
    large = (
        HermiteSpec.of([1, -1], [16, 16]),
        HermiteSpec.of([0, 1, 2], [6, 6, 6]),
        LaguerreSpec.of([1, 2], [8, 8], 1),
    )
    digest = hashlib.sha256()
    for spec in hermite_sweep() + laguerre_sweep() + large:
        for name, values in _exact_outputs(spec):
            digest.update((name + " " + " ".join(map(str, values)) + "\n").encode())
    assert digest.hexdigest() == EXACT_OUTPUTS_SHA256


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
    as {(i, j): coefficient of x^i y^j}.  Each prefactor is a rational in
    units of 1 / Z_k, Z_k the weight's normalizing constant, so block k
    multiplies w_k(y) / Z_k."""
    blocks = [{} for _ in range(m)]
    for factor, p, form in products:
        for k, t in enumerate(form.terms):
            c = factor * t.prefactor
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


def _chain_sum_blocks(family, spec, strategy="round-robin"):
    """C_k of K(x, y) = sum_k w_k(y) C_k(x, y), from the chain sum."""
    fam = kn.FAMILIES[family]
    chain = [spec.with_n(c) for c in mi_chain(spec.n, strategy)]
    products = [(1, fam.type_ii_poly(lo), fam.type_i_form(hi)) for lo, hi in zip(chain, chain[1:])]
    return _weight_blocks(products, spec.m)


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
    K = kn.build_kernel(family, spec)
    B = _weight_blocks(
        [(1, K.P, K.Q)] + [(-r, Pd, Qu) for r, Pd, Qu in zip(K.ratios, K.P_down, K.Q_up)],
        spec.m,
    )
    chain_sums = [_chain_sum_blocks(family, spec, strategy) for strategy in CHAIN_STRATEGIES]
    assert chain_sums[0] == chain_sums[1]
    for Bk, Ck in zip(B, chain_sums[0]):
        assert Ck
        assert Bk == _times_x_minus_y(Ck)


def _shifted_derivative(block, a_k):
    """(d/dx + d/dy + a_k - y) applied to a block {(i, j): coefficient}."""
    out = {}
    for (i, j), v in block.items():
        for key, c in (((i - 1, j), i * v), ((i, j - 1), j * v), ((i, j), a_k * v), ((i, j + 1), -v)):
            out[key] = out.get(key, 0) + c
    return _nonzero(out)


@pytest.mark.parametrize(
    "spec",
    [
        H21,
        HermiteSpec.of(["1/2", -1, 2], [2, 3, 1]),
        HermiteSpec.of([0, "4/3", "5/4"], [1, 2, 2]),
    ],
    ids=["h21", "h231", "h122"],
)
def test_derivative_identity_exactly(spec):
    """(d/dx + d/dy) K(x, y) = -sum_l ratio_l P_down_l(x) Q_up_l(y), weight
    by weight: d/dy w_k = (a_k - y) w_k, so block k of the right side is
    (d/dx + d/dy + a_k - y) C_k."""
    K = kn.build_kernel("hermite", spec)
    rhs = _weight_blocks(
        [(-r, Pd, Qu) for r, Pd, Qu in zip(K.ratios, K.P_down, K.Q_up)], spec.m
    )
    for a_k, Ck, Rk in zip(spec.a, _chain_sum_blocks("hermite", spec), rhs):
        assert Rk
        assert _shifted_derivative(Ck, a_k) == Rk
