"""Multiple Hermite polynomials for the weights w_k(x) = exp(-x^2/2 + a_k x).

Type II: the monic polynomial P of degree |n| with
integral(P(x) * x^j * w_k(x) dx) = 0 for j < n_k, all k.
Type I: polynomials A_k, deg A_k <= n_k - 1, such that
Q(x) = sum_k A_k(x) w_k(x) has integral(x^j Q) = 0 for j < |n| - 1 and
integral(x^(|n|-1) Q) = 1.

Both are built exactly.  Type II is P_n(x) = E[prod_k (x + iZ - a_k)^{n_k}],
Z ~ N(0, 1), so one more factor x + iZ - a_k is one exact step
P -> (x - a_k) P - P', and P_n is n_k such steps in each component from
P_0 = 1, on integer numerators.  Type I takes the residue at each a_k: the
tau^(n_k - 1) coefficient of e^{x tau} times one scalar series
(``core.residue_poly``).  The weights' exact moments
(``core.HermiteWeight``) turn every verification integral into rational
arithmetic: each type I prefactor is a rational in units of 1 / Z_k and
each norm constant h_k one in units of Z_k, where
Z_k = sqrt(2*pi) * e^(a_k^2/2) is w_k's normalizing constant.  Both
constructors are cached per spec.

Along a chain of indices the same objects follow one exact step per index.
Up: P_{c+e_k} = (x - a_k) P_c - P_c' (``type_ii_walk``, by ``_raise``).
Down: Q_c = (2 pi)^(-1/2) (1/2 pi i) times the contour integral of
e^{-(t-x)^2/2} / prod_l (t - a_l)^{c_l} around the shifts, and multiplying
the integrand by (t - a_k) gives Q_{c-e_k}, whose terms' rational parts are
A_l' + (a_l - a_k) A_l (``lower_type_i``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    ExactMathError,
    HermiteWeight,
    LinearForm,
    LinearFormTerm,
    MultiIndex,
    RatPoly,
    RatVec,
    SingularExpansionError,
    Spec,
    power_series,
    residue_poly,
    series_mul,
)
from .quad import MAX_LINE_NODES, LineRule, line_rule_nodes, read_only, unit_nodes

# The weights live on the whole real line (no half-line domain check).
HALF_LINE = False


@dataclass(frozen=True)
class HermiteSpec(Spec):
    """Shift parameters a = (a_1, ..., a_m) and a multi-index of the same
    length.  Coincident a_k are allowed for type II (indices then merge);
    type I construction requires them pairwise distinct."""

    family: ClassVar[str] = "hermite"
    param_name: ClassVar[str] = "a"
    a: tuple[Fraction, ...]
    n: MultiIndex

    __hash__ = Spec.__hash__

    @property
    def weights(self) -> tuple[HermiteWeight, ...]:
        return tuple(HermiteWeight(a_k) for a_k in self.a)

    def require_distinct(self) -> None:
        if len(set(self.a)) != len(self.a):
            raise SingularExpansionError(
                f"shift parameters must be pairwise distinct, got {self.a}"
            )


def _raise(nums: Sequence[int], a_k: Fraction) -> list[int]:
    """The integer numerators of (x - a_k) P - P' over v times P's
    denominator, from P's (a_k = u/v): E[iZ f(x + iZ)] = -E[f'(x + iZ)] for
    Z ~ N(0, 1), so multiplying the integrand by x + iZ - a_k maps P to
    (x - a_k) P - P'."""
    u, v = a_k.numerator, a_k.denominator
    out = [0] * (len(nums) + 1)
    for i, c in enumerate(nums):
        out[i] -= u * c
        out[i + 1] += v * c
        if i:
            out[i - 1] -= v * i * c
    return out


@lru_cache(maxsize=None)
def type_ii_poly(spec: HermiteSpec) -> RatPoly:
    """Monic type II polynomial of degree |n|, exactly: P_0 = 1 raised by
    ``_raise`` n_k times in each component, on integer numerators over
    prod_k v_k^{n_k} (a_k = u_k/v_k), then reduced once."""
    nums, den = [1], 1
    for a_k, n_k in zip(spec.a, spec.n):
        for _ in range(n_k):
            nums = _raise(nums, a_k)
        den *= a_k.denominator**n_k
    P = RatPoly(tuple(nums), den)
    if P.degree != spec.n.weight or not P.is_monic:
        raise ExactMathError("type II construction lost monicity")  # unreachable
    return P


@lru_cache(maxsize=None)
def type_i_form(spec: HermiteSpec) -> LinearForm:
    """Type I form Q = sum_k A_k w_k with A_k = c_k * Ahat_k.

    Around t = a_k + tau the residue data is e^{x tau} d(tau) with
    d = e^{-a_k tau - tau^2/2} prod_{l != k} ((a_k - a_l) + tau)^(-n_l).
    Ahat_k = ``residue_poly(d, 1, 0)`` is (n_k - 1)! times the
    tau^(n_k - 1) coefficient and the prefactor is
    c_k = (1/(n_k-1)!) * (2*pi)^(-1/2) * e^(-a_k^2/2), stored as the
    rational 1/(n_k-1)! in units of 1 / Z_k.
    """
    if spec.n.weight < 1:
        raise ExactMathError("type I needs |n| >= 1")
    spec.require_distinct()
    terms = []
    for k, (a_k, n_k) in enumerate(zip(spec.a, spec.n)):
        if n_k == 0:
            terms.append(LinearFormTerm(Fraction(1), RatPoly.zero(), HermiteWeight(a_k)))
            continue
        T = n_k - 1
        # d starts as e^{-a_k tau - tau^2/2} = sum_j He_j(-a_k) tau^j / j!, numerators
        # r_j over v^T T! (a_k = u/v): He_{j+1}(y) = y He_j(y) - j He_{j-1}(y) becomes
        # r_{j+1} = -(u r_j + v r_{j-1}) / (v (j+1)), an exact integer division
        u, v = a_k.numerator, a_k.denominator
        r = [0, v**T * math.factorial(T)]
        for j in range(T):
            r.append(-(u * r[-1] + v * r[-2]) // (v * (j + 1)))
        d = RatVec(tuple(r[1:]), r[1])
        for l, (a_l, n_l) in enumerate(zip(spec.a, spec.n)):
            if l != k:
                d = series_mul(d, power_series(a_k - a_l, -n_l, T))
        a_hat = residue_poly(d, 1, 0)
        terms.append(LinearFormTerm(Fraction(1, math.factorial(T)), a_hat, HermiteWeight(a_k)))
    return LinearForm(tuple(terms))


# ---------------------------------------------------------------------------
# chain steps


def type_ii_walk(spec: HermiteSpec, steps: Sequence[int]) -> Iterator[RatPoly]:
    """The type II polynomials up a chain from the zero index, which raises
    component steps[j] at step j: P_0 = 1, then P_{c+e_k} =
    (x - a_k) P_c - P_c' by ``_raise`` on P_c's numerators, over the
    denominator v * den (a_k = u/v)."""
    P = RatPoly((1,))
    yield P
    for k in steps:
        a_k = spec.a[k]
        P = RatPoly(tuple(_raise(P.nums, a_k)), P.den * a_k.denominator)
        yield P


def lower_type_i(spec: HermiteSpec, c: Sequence[int], Q: LinearForm, k: int) -> LinearForm:
    """Q_{c-e_k} from Q = Q_c, |c| >= 2.

    Multiplying the integrand e^{-(t-x)^2/2} / prod_l (t - a_l)^{c_l} by
    (t - a_k) lowers the index by e_k.  At t = a_l + tau the factor is
    (a_l - a_k) + tau, and tau is d/dx of the residue's exponential, so
    each term's rational part A_l = poly_l / (c_l - 1)! becomes
    A_l' + (a_l - a_k) A_l.  The prefactor is re-split as 1/(c_l - 1)!
    for the new c_l, and a term that reaches c_l = 0 gets the zero term."""
    a_k, c_k = spec.a[k], c[k]
    terms = []
    for l, t in enumerate(Q.terms):
        nums, den = t.poly.nums, t.poly.den
        deriv = [i * w for i, w in enumerate(nums) if i]
        if l == k:
            # A_k' alone, with (c_k - 2)! / (c_k - 1)! = 1 / (c_k - 1)
            poly = RatPoly(tuple(deriv), den * (c_k - 1)) if c_k > 1 else RatPoly.zero()
            t = LinearFormTerm(Fraction(1, math.factorial(max(c_k - 2, 0))), poly, t.weight)
        elif nums:
            r = t.weight.a - a_k
            u, v = r.numerator, r.denominator
            out = [u * w for w in nums]
            for i, w in enumerate(deriv):
                out[i] += v * w
            t = LinearFormTerm(t.prefactor, RatPoly(tuple(out), den * v), t.weight)
        terms.append(t)
    return LinearForm(tuple(terms))


def norm_constant(spec: HermiteSpec, k: int) -> Fraction:
    """Closed form of h_k = integral(P(x) x^{n_k} w_k(x) dx) in units of
    Z_k = sqrt(2*pi) * e^(a_k^2/2): n_k! * prod_{l != k} (a_k - a_l)^{n_l}."""
    spec.n._check_component(k)
    a_k = spec.a[k]
    r = Fraction(math.factorial(spec.n[k]))
    for l, (a_l, n_l) in enumerate(zip(spec.a, spec.n)):
        if l != k:
            r *= (a_k - a_l) ** n_l
    return r


def trace_rule(spec: HermiteSpec, nodes: int) -> LineRule:
    """Gauss rule over the weights' support, for the kernel trace."""
    return line_rule_nodes("gaussian", nodes)


# ---------------------------------------------------------------------------
# double-contour kernel


# The circle clears every shift by CIRCLE_MARGIN; the line stays at least
# LINE_GAP away from the circle.  Line nodes whose factor is below
# LINE_TERM_FLOOR times the largest are dropped: their terms lie far below
# the rounding error of the largest term.
CIRCLE_MARGIN = 1.0
LINE_GAP = 0.5
LINE_TERM_FLOOR = 1e-30

# The x side of the node sum (``_line_side``: the line's power sums;
# ``_circle_side``: each pass's row and circle factors) is kept for the
# points that follow on the same grid row: a row is one x and one geometry,
# with up to five circle passes (512 nodes, then the new halves up to the
# 8192-node cap).  Sized for about one row, so a later row evicts it.  The
# keys hold x and the geometry, so x = -0.0 and 0.0 share an entry when
# their geometries are equal; then sigma - x, A and the row have the same
# bits.  Around a circle centre of 0 the sign of zero picks the
# line's side (sigma = -reach or +reach), which keeps the keys apart.
LINE_MEMO = 2
CIRCLE_MEMO = 6


@dataclass(frozen=True)
class HermiteContourGeometry:
    """Vertical line Re s = line_abscissa paired with a circle |t - c| = r.

    The circle must enclose every shift parameter a_k.  The line factor
    times the circle factor is exp((t-x)^2/2 - (t-y)^2/2) (the products
    over the shifts cancel), which is entire, so the line may pass on
    either side of the circle with no residue term; it must only not cut
    or touch it.
    """

    line_abscissa: float
    circle_center: float
    circle_radius: float


def contour_geometry(spec: HermiteSpec, x: float, y: float, nodes: int) -> HermiteContourGeometry:
    """The geometry for kernel argument x (y and nodes do not move it): the
    circle clears the shifts by CIRCLE_MARGIN, and the line runs through x,
    where the Gaussian factor exp((s-x)^2/2) has its saddle, when that
    clears the circle by LINE_GAP; otherwise it runs at that gap on the
    circle's nearer side."""
    a = [float(v) for v in spec.a]
    lo, hi = min(a), max(a)
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo) + CIRCLE_MARGIN
    reach = r + LINE_GAP
    sigma = x if abs(x - c) >= reach else c + math.copysign(reach, x - c)
    return HermiteContourGeometry(sigma, c, r)


def _power_sums(w: np.ndarray, q: np.ndarray, count: int) -> np.ndarray:
    """sum_i w[i] q[i]^k for k < count, with the powers filled by doubling:
    rows m to 2m - 1 are rows 0 to m - 1 times q^m."""
    V = np.empty((count, len(q)), dtype=complex)
    V[0] = 1.0
    m = 1
    while m < count:
        step = min(m, count - m)
        np.multiply(V[:step], V[m - 1] * q, out=V[m : m + step])
        m += step
    return V @ w


@lru_cache(maxsize=LINE_MEMO)
def _line_side(
    spec: HermiteSpec, x: float, geom: HermiteContourGeometry, line_nodes: int
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray | None]:
    """The line side (w, q, K, M) of x and geom.  The line factors A are the
    rule's weights times exp(iu(sigma-x)) prod_k (s - a_k)^{n_k} at
    s = sigma + i u on the Gauss rule's nodes u, less the nodes deep in the
    Gaussian tail.  With z_i = s_i - c at the kept nodes, w_i = A_i / z_i
    and q_i = rho / z_i (|q_i| < 1, as the line clears the circle); K is
    the least k with q_max^k <= eps (1 - q_max); and M holds the power sums
    M_k = sum_i w_i q_i^k for k < K when K <= line_nodes, else None.  From
    q^K on, a node's series sums to at most eps |w_i|, below 2 eps times
    its term mass |A_i| / |s_i - t| at any circle node t.  Every pass has
    at least line_nodes circle nodes, so kept sums serve every pass of the
    row."""
    line = line_rule_nodes("gaussian", line_nodes)
    u = line.nodes
    sigma = geom.line_abscissa
    s = sigma + 1j * u
    A = line.weights * np.exp(1j * u * (sigma - x))
    for a_k, n_k in zip(spec.a, spec.n):
        if n_k:
            A = A * (s - float(a_k)) ** n_k
    # Line nodes deep in the Gaussian tail carry no weight.  Non-finite
    # entries of A are never dropped, so the level value turns non-finite.
    keep = ~(np.abs(A) < LINE_TERM_FLOOR * np.abs(A).max())
    z = s[keep] - geom.circle_center
    w, q = A[keep] / z, geom.circle_radius / z
    q_max = float(np.abs(q).max())
    eps = np.finfo(float).eps
    K = max(1, math.ceil(math.log(eps * (1.0 - q_max)) / math.log(q_max))) if q_max else 1
    sums = None
    if K <= line_nodes:
        sums = _power_sums(w, q, K)
        read_only(sums)
    read_only(w, q)
    return w, q, K, sums


def _row(
    w: np.ndarray, q: np.ndarray, K: int, sums: np.ndarray | None, nodes: int, offset: float
) -> np.ndarray:
    """The line side's row against the pass's circle nodes,
    row[j] = sum_i A_i / (z_i - rho e^{i theta_j}) with
    theta_j = 2 pi (j + offset) / nodes, offset 0 or 1/2, from one inverse
    FFT.  Expanding 1 / (z - rho e^{i theta}) = sum_k q^k e^{ik theta} / z
    and folding k mod nodes gives
    row = nodes * ifft(e^{2 pi i k offset / nodes} M_k), where each term of
    M_k takes the factor 1 / (1 - sign q_i^nodes), sign = e^{2 pi i offset}.
    For K <= nodes the terms from K on and that factor are below rounding,
    so the first K sums serve, zero-padded; otherwise all nodes of them
    are summed with the factor, which is exact."""
    count = min(K, nodes)
    if sums is None:
        if K > nodes:
            sign = -1.0 if offset else 1.0
            w = w / (1.0 - sign * q**nodes)
        sums = _power_sums(w, q, count)
    X = np.zeros(nodes, dtype=complex)
    X[:count] = sums * np.exp(1j * (2.0 * math.pi * offset / nodes) * np.arange(count)) if offset else sums
    return nodes * np.fft.ifft(X)


class _CircleSide(NamedTuple):
    """One pass's circle nodes t, the circle factors that do not depend on
    y, (t - c) and (t - a_k)^{n_k} for each n_k > 0, and the line side's
    row against t from ``_row``."""

    t: np.ndarray
    centred: np.ndarray
    poles: tuple[np.ndarray, ...]
    row: np.ndarray


@lru_cache(maxsize=CIRCLE_MEMO)
def _circle_side(
    spec: HermiteSpec,
    x: float,
    geom: HermiteContourGeometry,
    line_nodes: int,
    nodes: int,
    offset: float,
) -> _CircleSide:
    """``_CircleSide`` of x and geom at theta = 2 pi (j + offset) / nodes,
    j < nodes.  None of it depends on y.  ``_row`` gives the row at the
    ideal nodes, so the circle factors see them too (``quad.unit_nodes``)."""
    c, rho = geom.circle_center, geom.circle_radius
    t = c + rho * unit_nodes(nodes, offset)
    poles = tuple((t - float(a_k)) ** n_k for a_k, n_k in zip(spec.a, spec.n) if n_k)
    side = _CircleSide(t, t - c, poles, _row(*_line_side(spec, x, geom, line_nodes), nodes, offset))
    read_only(t, side.centred, *poles, side.row)
    return side


def contour_levels(
    spec: HermiteSpec,
    x: float,
    y: float,
    nodes: int,
    geometry: HermiteContourGeometry,
) -> Iterator[complex]:
    """Double-contour kernel values at nodes, 2*nodes, 4*nodes, ... circle
    nodes on geometry, whose circle encloses every shift and which the
    line neither cuts nor touches (``contour_geometry`` builds one).

    The vertical-line direction substitutes s = sigma + i u, so the Gaussian
    factor exp((s-x)^2/2) splits into exp((sigma-x)^2/2) * exp(iu(sigma-x))
    times the Gaussian weight absorbed by the line rule, which keeps the
    first level's min(nodes, MAX_LINE_NODES) nodes less the weightless
    tail.  The circle direction uses the trapezoid rule, and the levels are
    nested: level 2N adds the N new circle nodes theta = 2 pi (j + 1/2) / N
    to level N's node sum.  The imaginary part is a pure discretization
    diagnostic (the kernel is real on real inputs).

    Each pass over circle nodes splits into an x side and a y side.  The x
    side is the line factors' row sum_i A[i] / (s[i] - t_j) over the pass's
    circle nodes, from power sums of the line nodes computed once per grid
    row (``_line_side``) and one inverse FFT per pass (``_row``), and the
    circle factors that do not depend on y (``_circle_side``); both are
    kept for the rest of the grid row in memos keyed by x and the geometry.
    The y side is exp(-(t - y)^2 / 2) times those factors, against the row,
    added to 0j so that a zero sum reads +0.
    """
    line_nodes = min(nodes, MAX_LINE_NODES)

    def circle_sum(offset: float) -> complex:
        side = _circle_side(spec, x, geometry, line_nodes, nodes, offset)
        B = side.centred * np.exp(-0.5 * (side.t - y) ** 2)
        for pole in side.poles:
            B = B / pole
        return 0j + complex(side.row @ B)

    factor = math.exp(0.5 * (geometry.line_abscissa - x) ** 2) / (2.0 * math.pi)
    total = circle_sum(0.0)
    while True:
        yield factor * total / nodes
        total += circle_sum(0.5)
        nodes *= 2
