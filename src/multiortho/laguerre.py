"""Multiple Laguerre polynomials for the weights w_k(x) = x^p exp(-beta_k x)
on (0, inf), with a shared exponent p >= 0 and pairwise distinct rates.

Type II comes from a single residue at s = 0 of
e^{xs} s^{-(|n|+p+1)} G(s), G = prod_k (s - beta_k)^{n_k}, whose integer
coefficients are built one factor (s - beta_k) at a time from G = 1
(``_raise``); type I from residues at each beta_k, e^{-x tau} times one
scalar power series.  Both read their polynomial off the series with
``core.residue_poly``.  Unlike the Hermite family there are no
transcendental prefactors: every coefficient is a plain rational, and
every verification integral is a dot product with the weights' gamma
moments (``core.LaguerreWeight``).  Both constructors are cached per spec.

Along a chain of indices the same objects follow one exact step per index.
Up, the walk carries G_c = prod_l (s - beta_l)^{c_l}, multiplies it by
(s - beta_k) by the same step and takes the residue at 0 again
(``type_ii_walk``).  Down,
Q_c is scale_c x^p (1/2 pi i) times the contour integral of
e^{-xt} t^{|c|+p-1} / prod_l (t - beta_l)^{c_l} around the rates, and
multiplying the integrand by (t - beta_k) / t gives Q_{c-e_k}, whose terms
are ((|c|+p-1) / (-beta_k)) (A_l - beta_k sum_j A_l^(j) / beta_l^(j+1))
(``lower_type_i``).
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
    LaguerreWeight,
    LinearForm,
    LinearFormTerm,
    MultiIndex,
    RatPoly,
    RatVec,
    SingularExpansionError,
    Spec,
    as_int,
    power_series,
    residue_poly,
    series_mul,
)
from .quad import (
    ContourError, LineRule, concentric_row, interleave, line_rule_nodes, read_only, unit_nodes,
)

# The weights live on (0, inf): kernel arguments must be > 0.
HALF_LINE = True


@dataclass(frozen=True)
class LaguerreSpec(Spec):
    """Rates beta = (beta_1, ..., beta_m), all > 0 and pairwise distinct,
    a multi-index of the same length, and the shared exponent p >= 0."""

    family: ClassVar[str] = "laguerre"
    param_name: ClassVar[str] = "beta"
    beta: tuple[Fraction, ...]
    n: MultiIndex
    p: int = 0

    __hash__ = Spec.__hash__

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "p", as_int(self.p))
        if any(b <= 0 for b in self.beta):
            raise ExactMathError(f"rates must be > 0, got {self.beta}")
        if len(set(self.beta)) != len(self.beta):
            raise SingularExpansionError(f"rates must be pairwise distinct, got {self.beta}")
        if self.p < 0:
            raise ExactMathError(f"weight exponent p must be >= 0, got {self.p}")

    @property
    def weights(self) -> tuple[LaguerreWeight, ...]:
        return tuple(LaguerreWeight(beta_k, self.p) for beta_k in self.beta)


def _raise(g: list[int], beta_k: Fraction) -> list[int]:
    """The integer coefficients of G(s) (v s - u), ascending, from those of
    G (beta_k = u/v): one more factor s - beta_k, up to the factor v, which
    cancels in the residue polynomial (``type_ii_poly``)."""
    u, v = beta_k.numerator, beta_k.denominator
    return [v * lo - u * hi for lo, hi in zip([0] + g, g + [0])]


@lru_cache(maxsize=None)
def type_ii_poly(spec: LaguerreSpec) -> RatPoly:
    """Monic type II polynomial of degree |n|, exactly: the residue at s = 0
    of e^{xs} s^{-(|n|+p+1)} G(s), G = prod_k (s - beta_k)^{n_k}, is
    P(x) = ((|n|+p)! / G(0)) sum_j (x^j / (j+p)!) [s^{|n|-j}] G(s), which is
    ``residue_poly`` of G / G(0) with p, on G's integer coefficients up to a
    common factor (``_raise`` n_k times in each component from G = 1)."""
    g = [1]
    for beta_k, n_k in zip(spec.beta, spec.n):
        for _ in range(n_k):
            g = _raise(g, beta_k)
    P = residue_poly(RatVec(tuple(g), g[0]), 1, spec.p)
    if P.degree != spec.n.weight or not P.is_monic:
        raise ExactMathError("type II construction lost monicity")  # unreachable
    return P


@lru_cache(maxsize=None)
def type_i_form(spec: LaguerreSpec) -> LinearForm:
    """Type I form Q = sum_k A_k(x) x^p e^{-beta_k x} with plain rational A_k.

    Around t = beta_k + tau the residue data is e^{-x tau} d(tau) with
    d = (beta_k + tau)^{|n|+p-1} prod_{l != k} ((beta_k - beta_l) + tau)^(-n_l);
    A_k is scale = -(prod_l (-beta_l)^{n_l} / (|n|+p-1)!) times its
    tau^(n_k - 1) coefficient, so [x^j] A_k = scale * d_{n_k-1-j} * (-1)^j / j!:
    ``residue_poly`` of d * scale / (n_k - 1)! with sign -1.
    """
    w, p = spec.n.weight, spec.p
    if w < 1:
        raise ExactMathError("type I needs |n| >= 1")
    lead = math.prod((-beta_l) ** n_l for beta_l, n_l in zip(spec.beta, spec.n))
    scale = -lead / math.factorial(w + p - 1)
    terms = []
    for k, (beta_k, n_k) in enumerate(zip(spec.beta, spec.n)):
        weight = LaguerreWeight(beta_k, p)
        if n_k == 0:
            terms.append(LinearFormTerm(Fraction(1), RatPoly.zero(), weight))
            continue
        T = n_k - 1
        d = power_series(beta_k, w + p - 1, T)
        for l, (beta_l, n_l) in enumerate(zip(spec.beta, spec.n)):
            if l != k:
                d = series_mul(d, power_series(beta_k - beta_l, -n_l, T))
        num, den = scale.numerator, scale.denominator * math.factorial(T)
        d = RatVec(tuple(num * c for c in d.nums), den * d.den)
        terms.append(LinearFormTerm(Fraction(1), residue_poly(d, -1, 0), weight))
    return LinearForm(tuple(terms))


# ---------------------------------------------------------------------------
# chain steps


def type_ii_walk(spec: LaguerreSpec, steps: Sequence[int]) -> Iterator[RatPoly]:
    """The type II polynomials up a chain from the zero index, which raises
    component steps[j] at step j.  There is no first-order relation
    between P_c and P_{c+e_k} alone, so the walk carries the integer
    coefficients of G_c = prod_l (s - beta_l)^{c_l}, raises them by
    ``_raise`` and applies ``residue_poly`` at each index."""
    g = [1]
    yield residue_poly(RatVec(tuple(g), g[0]), 1, spec.p)
    for k in steps:
        g = _raise(g, spec.beta[k])
        yield residue_poly(RatVec(tuple(g), g[0]), 1, spec.p)


def lower_type_i(spec: LaguerreSpec, c: Sequence[int], Q: LinearForm, k: int) -> LinearForm:
    """Q_{c-e_k} from Q = Q_c, |c| >= 2.

    Q_c is scale_c x^p (1/2 pi i) times the contour integral of
    e^{-xt} t^{|c|+p-1} / prod_l (t - beta_l)^{c_l}, and lowering by e_k
    multiplies the integrand by (t - beta_k) / t = 1 - beta_k / t, whose
    expansion at t = beta_l + tau is 1 - beta_k sum_j (-tau)^j / beta_l^(j+1);
    (-tau)^j is (d/dx)^j of the residue's e^{-x tau}.  With
    scale_{c-e_k} = scale_c (|c|+p-1) / (-beta_k), each term's A_l becomes
    ((|c|+p-1) / (-beta_k)) (A_l - beta_k T_l), T_l = sum_j A_l^(j) / beta_l^(j+1),
    and T_l solves T_l = (A_l + T_l') / beta_l from the top degree down."""
    W = sum(c) + spec.p - 1
    uk, vk = spec.beta[k].numerator, spec.beta[k].denominator
    terms = []
    for t in Q.terms:
        a, den = t.poly.nums, t.poly.den
        if a:
            # T_i = s_i u^i / (den u^(d+1)) with s_i = v (a_i u^(d-i) + (i+1) s_{i+1}), beta_l = u/v
            u, v = t.weight.beta.numerator, t.weight.beta.denominator
            d = len(a) - 1
            s, out = 0, [0] * (d + 1)
            for i in range(d, -1, -1):
                s = v * (a[i] * u ** (d - i) + (i + 1) * s)
                out[i] = -W * u**i * (vk * a[i] * u ** (d + 1 - i) - uk * s)
            poly = RatPoly(tuple(out), uk * den * u ** (d + 1))
            t = LinearFormTerm(t.prefactor, poly, t.weight)
        terms.append(t)
    return LinearForm(tuple(terms))


def norm_constant(spec: LaguerreSpec, k: int) -> Fraction:
    """Closed form of h_k = integral(P(x) x^{n_k} w_k(x) dx), a plain rational:
    n_k! (|n|+p)! / beta_k^(|n|+p+1+n_k) * prod_{l != k} (1 - beta_k/beta_l)^{n_l}.

    The Laplace transform of P(x) x^p is (|n|+p)! prod_l (1 - s/beta_l)^{n_l}
    / s^(|n|+p+1) (its numerator vanishes to order n_l at each beta_l), and
    h_k is (-d/ds)^{n_k} of it at s = beta_k."""
    spec.n._check_component(k)
    wp, beta_k, n_k = spec.n.weight + spec.p, spec.beta[k], spec.n[k]
    r = Fraction(math.factorial(n_k) * math.factorial(wp)) / beta_k ** (wp + 1 + n_k)
    for l, (beta_l, n_l) in enumerate(zip(spec.beta, spec.n)):
        if l != k:
            r *= (1 - beta_k / beta_l) ** n_l
    return r


def trace_rule(spec: LaguerreSpec, nodes: int) -> LineRule:
    """Gauss rule over the weights' support, for the kernel trace."""
    return line_rule_nodes("exponential", nodes, beta=min(spec.beta))


# ---------------------------------------------------------------------------
# double-contour kernel


# Candidate circle pairs, scored per point on SEARCH_NODES nodes (see
# ``contour_geometry``).  RADIUS_STEPS scale the radii of the pairs around
# half the largest rate, SADDLE_STEPS shrink the s-circle inside a t-circle
# around 0 towards the saddle of e^{xs} s^{-(|n|+p)}, and DISJOINT_S and
# DISJOINT_GAP (fractions of the smallest rate) give the s-circle around 0
# and the t-circle's margin around the rates.
RADIUS_STEPS = np.array([1.25, 1.5, 2.0, 3.0])
SADDLE_STEPS = np.array([1.25, 2.0, 4.0, 8.0, 16.0, 32.0])
DISJOINT_S = np.array([0.0625, 0.125, 0.25, 0.5])
DISJOINT_GAP = np.array([0.1, 0.25, 0.4])
SEARCH_NODES = 64

# What the candidate search needs of x alone, with the y-free t-node
# factors (``_search_side``), is kept for the points that follow on the same
# grid row: one search pass for one x, so a later row evicts it.  (The levels
# of each chosen pair are kept by ``kernels``.)  The keys hold the floats;
# x > 0 and ``_coaxal`` never yields -0.0 for the candidates, so no two
# signs of zero share an entry of a chosen pair.
SEARCH_MEMO = 1


def _candidates(spec: LaguerreSpec) -> tuple[np.ndarray, ...]:
    """(s_center, s_radius, t_center, t_radius) arrays of the candidate
    pairs: the t-circle inside the s-circle, both around half the largest
    rate (where the s-circle's reach to the right, where e^{xs} peaks, is
    least); the s-circle inside a t-circle, both around 0 (for x large
    against y); and disjoint circles, the s-circle around 0 (for x and y
    both large, where e^{xs} and e^{-yt} must both stay small)."""
    b = [float(v) for v in spec.beta]
    lo, hi = min(b), max(b)
    c = 0.5 * hi
    t_out = np.repeat(c * RADIUS_STEPS, RADIUS_STEPS.size)
    s_out = t_out * np.tile(RADIUS_STEPS, RADIUS_STEPS.size)
    t_in = np.repeat(hi * RADIUS_STEPS, SADDLE_STEPS.size)
    s_in = t_in / np.tile(SADDLE_STEPS, RADIUS_STEPS.size)
    s_dis = np.repeat(lo * DISJOINT_S, DISJOINT_GAP.size)
    t_dis = 0.5 * (hi - lo) + lo * np.tile(DISJOINT_GAP, DISJOINT_S.size)
    s_center = np.concatenate([np.full(t_out.size, c), np.zeros(t_in.size + s_dis.size)])
    t_center = np.concatenate(
        [np.full(t_out.size, c), np.zeros(t_in.size), np.full(s_dis.size, 0.5 * (lo + hi))]
    )
    s_radius = np.concatenate([s_out, s_in, s_dis])
    return s_center, s_radius, t_center, np.concatenate([t_out, t_in, t_dis])


def _valid(spec: LaguerreSpec, sc, sr, tc, tr) -> np.ndarray:
    """Where the circle pairs |s - sc| = sr and |t - tc| = tr (float arrays)
    can carry the kernel: the s-circle encloses 0 and the t-circle every
    rate, nested either way or disjoint; they must not cut or touch
    (``contour_level``)."""
    d = np.abs(tc - sc)
    bad = (sr <= 0.0) | (tr <= 0.0) | (np.abs(sc) >= sr) | ((np.abs(sr - tr) <= d) & (d <= sr + tr))
    for b_k in spec.beta:
        bad |= np.abs(float(b_k) - tc) >= tr
    return ~bad


def _coaxal(s_center, s_radius, t_center, t_radius) -> tuple[np.ndarray, ...]:
    """The Moebius map u = (s - lam) / (1 - mu s) that sends the s-circle and
    the t-circle (nested or disjoint, broadcast arrays) to circles around 0:
    lam is the limit point of the pair inside the s-circle and 1/mu the
    other one (mu = 0 for concentric circles, whose map is the shift by
    their centre).  Returns lam, mu, the radii r_s and r_t of the images,
    and the t image's orientation, -1 where the inside of the t-circle (it
    holds 1/mu when the circles are disjoint) maps to the outside."""
    sc, sr, tc, tr = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (s_center, s_radius, t_center, t_radius))
    )
    concentric = tc == sc
    with np.errstate(divide="ignore", invalid="ignore"):
        # The limit points p, p' are inverse to each other in both circles:
        # (p - sc)(p' - sc) = sr^2 and (p - tc)(p' - tc) = tr^2.
        total = (sr * sr - tr * tr + tc * tc - sc * sc) / (tc - sc)
        product = sr * sr + sc * total - sc * sc
        far = 0.5 * (total + np.copysign(np.sqrt(total * total - 4.0 * product), total))
        near = product / far
        near_in_s = np.abs(near - sc) < sr
        lam = np.where(concentric, sc, np.where(near_in_s, near, far))
        mu = np.where(concentric, 0.0, 1.0 / np.where(near_in_s, far, near))
    r_s = np.abs((sc + sr - lam) / (1.0 - mu * (sc + sr)))
    r_t = np.abs((tc + tr - lam) / (1.0 - mu * (tc + tr)))
    sign = np.where(np.abs(lam - tc) < tr, 1.0, -1.0)
    return lam, mu, r_s, r_t, sign


def _alias_ratio(spec: LaguerreSpec, lam, mu, r_s, r_t) -> np.ndarray:
    """Largest ratio, over the singular points of the mapped integrands, of
    the smaller to the larger of |u| and the radius of the circle they meet:
    the pole s = t (each circle against the other), s = 0 (u = -lam), the
    rates, and s = infinity (u = -1/mu).  The trapezoid rule's error falls
    like this ratio to the node count."""

    def ratio(p, r):
        return np.minimum(p, r) / np.maximum(p, r)

    with np.errstate(divide="ignore"):
        at_inf = 1.0 / np.abs(mu)
    worst = np.maximum.reduce(
        [ratio(r_t, r_s), ratio(np.abs(lam), r_s), ratio(at_inf, r_s), ratio(at_inf, r_t)]
    )
    for b_k in spec.beta:
        worst = np.maximum(worst, ratio(np.abs((float(b_k) - lam) / (1.0 - mu * float(b_k))), r_t))
    return worst


def _s_factors(spec: LaguerreSpec, x: float, lam, mu, u) -> np.ndarray:
    """a = f(s) u / (1 + mu u) at the image nodes u, where
    s = (u + lam) / (1 + mu u); the map's parameters broadcast against the
    trailing node axis."""
    ju = 1.0 + mu * u
    s = (u + lam) / ju
    A = u / ju * np.exp(x * s) * s ** (-(spec.n.weight + spec.p))
    for b_k, n_k in zip(spec.beta, spec.n):
        if n_k:
            A = A * (s - float(b_k)) ** n_k
    return A


class _TNodes(NamedTuple):
    """The parts of the t-factors b that do not depend on y: the nodes
    t = (v + lam) / (1 + mu v) at the image nodes v, the Jacobian part
    v / (1 + mu v), t^{|n|+p}, and (t - beta_k)^{n_k} for each n_k > 0.
    The map's parameters broadcast against the trailing node axis."""

    t: np.ndarray
    jacobian: np.ndarray
    power: np.ndarray
    poles: tuple[np.ndarray, ...]


def _t_nodes(spec: LaguerreSpec, lam, mu, v) -> _TNodes:
    jv = 1.0 + mu * v
    t = (v + lam) / jv
    poles = tuple((t - float(b_k)) ** n_k for b_k, n_k in zip(spec.beta, spec.n) if n_k)
    return _TNodes(t, v / jv, t ** (spec.n.weight + spec.p), poles)


def _t_factors(t_nodes: _TNodes, y: float) -> np.ndarray:
    """b = g(t) v / (1 + mu v) on the nodes of ``_t_nodes``."""
    B = t_nodes.jacobian * np.exp(-y * t_nodes.t) * t_nodes.power
    for pole in t_nodes.poles:
        B = B / pole
    return B


class _SearchSide(NamedTuple):
    """What the candidate search needs of x alone: whether each candidate
    pair (``_candidates``) can carry the kernel (``_valid``), the map's lam,
    mu, r_s, r_t and sign (``_coaxal``) and its scale |1 - lam mu|, the
    pair's ``_alias_ratio``, the term mass scale * sum|a| of its s-factors a
    on SEARCH_NODES nodes, and the rows (``quad.concentric_row``) of a on
    the 2h and h nodes that ``contour_geometry`` compares.  The t side is
    kept per distinct t-circle image, since the concentric candidates share
    few of them: ``_t_nodes`` on each distinct (lam, mu, r_t), and t_index,
    the distinct row of each candidate."""

    valid: np.ndarray
    coaxal: tuple[np.ndarray, ...]
    scale: np.ndarray
    alias: np.ndarray
    a_mass: np.ndarray
    t_nodes: _TNodes
    t_index: np.ndarray
    levels: tuple[np.ndarray, np.ndarray]


@lru_cache(maxsize=SEARCH_MEMO)
def _search_side(spec: LaguerreSpec, x: float, h: int) -> _SearchSide:
    """``_SearchSide`` for x and the coarser of the two compared node
    counts, h."""
    circles = _candidates(spec)
    valid = _valid(spec, *circles)
    coaxal = _coaxal(*circles)
    lam, mu, r_s, r_t, _ = coaxal
    scale = np.abs(1.0 - lam * mu)
    alias = _alias_ratio(spec, lam, mu, r_s, r_t)
    # one row of nodes per candidate on the s side, per distinct t-circle on the t side
    w = unit_nodes(SEARCH_NODES, 0.0)
    a = _s_factors(spec, x, lam[:, None], mu[:, None], r_s[:, None] * w)
    t_maps, t_index = np.unique(np.stack([lam, mu, r_t]), axis=1, return_inverse=True)
    t_lam, t_mu, t_r = t_maps[:, :, None]
    t_nodes = _t_nodes(spec, t_lam, t_mu, t_r * w)
    a_mass = scale * np.abs(a).sum(-1)
    levels = tuple(concentric_row(a[:, :: SEARCH_NODES // n], r_s, r_t) for n in (2 * h, h))
    side = _SearchSide(valid, coaxal, scale, alias, a_mass, t_nodes, t_index, levels)
    read_only(side)
    return side


def _search_terms(side: _SearchSide, y: float, h: int) -> tuple[np.ndarray, ...]:
    """Each candidate's term mass sum|a| sum|b| / |r_s - r_t| (over the node
    count squared) and its node sums on the 2h and h nodes, for y.  The
    t-factors b are computed once per distinct t-circle and gathered per
    candidate by t_index; every row reduction is its own, so the values
    are those of one b row per candidate."""
    r_s, r_t = side.coaxal[2:4]
    b = _t_factors(side.t_nodes, y)
    mass = side.a_mass * np.abs(b).sum(-1)[side.t_index] / np.abs(r_s - r_t) / SEARCH_NODES**2
    fine, coarse = (
        side.scale * (row * b[side.t_index, :: SEARCH_NODES // n]).sum(-1) / n**2
        for row, n in zip(side.levels, (2 * h, h))
    )
    return mass, fine, coarse


def contour_geometry(spec: LaguerreSpec, x: float, y: float, nodes: int) -> tuple[float, ...]:
    """The circle pair for the kernel arguments (x, y) at the given node
    count, as its map's lam, mu, r_s, r_t and sign (``_coaxal``): the
    candidate pair (``_candidates``) with the smallest estimated error, all
    found from one SEARCH_NODES-node pass.  ContourError if that pair
    cannot carry the kernel (``_valid``).

    The estimate is the term mass sum|a| sum|b| / |r_s - r_t| of the
    mapped node sum (its rounding error scales with it) times eps plus
    the trapezoid rule's relative aliasing error at nodes nodes.  That
    is the larger of the relative difference of the h- and 2h-node sums
    to the power nodes / h, and ``_alias_ratio`` to the power nodes;
    h is the largest power of two <= min(nodes, SEARCH_NODES / 2), so
    both sums are trapezoid rules on nested subsets of the
    SEARCH_NODES nodes.  Everything but the t-factors b and the
    score is kept per x (``_search_side``), the y-free t-node factors
    once per distinct t-circle: the concentric candidates share them,
    so 52 candidates need only 20 rows of b (``_search_terms``), the
    only part that depends on y.
    """
    h = 1 << (min(nodes, SEARCH_NODES // 2).bit_length() - 1)
    side = _search_side(spec, x, h)
    mass, fine, coarse = _search_terms(side, y, h)
    measured = np.minimum(np.abs(fine - coarse) / mass, 1.0) ** (nodes / h)
    alias = np.maximum(measured, side.alias ** nodes)
    score = mass * (np.finfo(float).eps + alias)
    i = np.argmin(np.where(np.isnan(score), np.inf, score))
    if not side.valid[i]:
        rates = ", ".join(map(str, spec.beta))
        raise ContourError(
            f"the best-scored circle pair at x={x}, y={y} is no contour: "
            f"its circles cut or touch, or miss 0 or a rate of {rates}"
        )
    return tuple(float(v[i]) for v in side.coaxal)


class _Level(NamedTuple):
    """A level's x side: its s-factors a, their row against the level's t
    nodes (``quad.concentric_row``), the level's factor sign (1 - lam mu)
    and norm (its node count squared), and the ``_t_nodes`` of the nodes it
    adds."""

    a: np.ndarray
    row: np.ndarray
    scale: float
    norm: int
    t_nodes: _TNodes


def contour_level(
    spec: LaguerreSpec, x: float, geometry: tuple[float, ...], nodes: int, before: _Level | None
) -> _Level:
    """``_Level`` on nodes nodes per circle, for x and the circle pair whose
    map's floats lam, mu, r_s, r_t and sign (``_coaxal``) are geometry, a
    pair that ``_valid`` accepts: the first level when before is None, else
    the level that nests on before, the level on nodes / 2 nodes.

    The s-factor f(s) = e^{xs} s^{-(|n|+p)} prod_k (s - beta_k)^{n_k} and the
    t-factor g(t) = e^{-yt} t^{|n|+p} / prod_k (t - beta_k)^{n_k} multiply to
    e^{(x-y)t}, which is entire, so the circles may lie either way round
    with no residue term.  Any such pair belongs to one coaxal family: the
    Moebius map S of ``_coaxal`` sends both circles to circles around 0.
    With s = S(u), t = S(v),
    ds dt / (s - t) = (1 - lam mu) du dv / ((1 + mu u)(1 + mu v)(u - v)), so
    both directions are trapezoid rules on the image circles around 0, and
    each level's row is two FFTs, O(N log N).  Note the contour
    normalization differs from the CD kernel by the factor x^p y^(-p); they
    agree exactly when p = 0.

    A nested level takes its even s-factors from before and computes only
    those at its new odd nodes, which are before's nodes turned by half a
    step, with the same bits (``quad.unit_nodes``)."""
    lam, mu, r_s, r_t, sign = geometry
    w = unit_nodes(nodes, 0.0) if before is None else unit_nodes(nodes // 2, 0.5)
    a = _s_factors(spec, x, lam, mu, r_s * w)
    if before is not None:
        a = interleave(before.a, a)
    t_nodes = _t_nodes(spec, lam, mu, r_t * w)
    return _Level(a, concentric_row(a, r_s, r_t), sign * (1.0 - lam * mu), nodes * nodes, t_nodes)


def circle_factors(level: _Level, y: float) -> np.ndarray:
    """The t-factors b at the t nodes the level adds (``_t_factors``)."""
    return _t_factors(level.t_nodes, y)
