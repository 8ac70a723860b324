"""Multiple Laguerre polynomials for the weights w_k(x) = x^p exp(-beta_k x)
on (0, inf), with a shared exponent p >= 0 and pairwise distinct rates.

Type II comes from a single residue at s = 0 of
e^{xs} s^{-(|n|+p+1)} prod_k (s - beta_k)^{n_k}; type I from residues at
each beta_k, carried out in truncated power series.  Unlike the Hermite
family there are no transcendental prefactors: every coefficient is a
plain rational, and all verification integrals are sums of gamma moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import ClassVar, Iterable

import numpy as np

from .core import (
    ExactMathError,
    LaguerreWeight,
    LinearForm,
    LinearFormTerm,
    MultiIndex,
    PolySeries,
    RatPoly,
    RationalLike,
    ScaledConstant,
    SingularExpansionError,
    as_fraction,
    gamma_moment,
)
from .quad import ContourError, LineRule, bilinear_sum, line_rule_nodes

# The weights live on (0, inf): kernel arguments must be > 0.
HALF_LINE = True


@dataclass(frozen=True)
class LaguerreSpec:
    """Rates beta = (beta_1, ..., beta_m), all > 0 and pairwise distinct,
    a multi-index of the same length, and the shared exponent p >= 0."""

    family: ClassVar[str] = "laguerre"
    beta: tuple[Fraction, ...]
    n: MultiIndex
    p: int = 0

    def __post_init__(self) -> None:
        beta = tuple(as_fraction(v) for v in self.beta)
        object.__setattr__(self, "beta", beta)
        if len(beta) != self.n.m:
            raise ExactMathError(
                f"got {len(beta)} rates for a multi-index of length {self.n.m}"
            )
        if any(b <= 0 for b in beta):
            raise ExactMathError(f"rates must be > 0, got {beta}")
        if len(set(beta)) != len(beta):
            raise SingularExpansionError(f"rates must be pairwise distinct, got {beta}")
        if self.p < 0:
            raise ExactMathError(f"weight exponent p must be >= 0, got {self.p}")

    @classmethod
    def of(cls, beta: Iterable[RationalLike], n: Iterable[int], p: int = 0) -> "LaguerreSpec":
        return cls(tuple(as_fraction(v) for v in beta), MultiIndex.of(n), p)

    @property
    def m(self) -> int:
        return self.n.m

    def with_n(self, n: MultiIndex) -> "LaguerreSpec":
        return replace(self, n=n)


def type_ii_poly(spec: LaguerreSpec) -> RatPoly:
    """Monic type II polynomial of degree |n|, exactly.

    With G(s) = prod_k (s - beta_k)^{n_k}, the residue at s = 0 gives
    P(x) = C * sum_j (x^j / (j+p)!) * [s^{|n|-j}] G(s),
    C = (|n|+p)! / prod_k (-beta_k)^{n_k}.
    """
    w, p = spec.n.weight, spec.p
    G = RatPoly.one()
    C = Fraction(math.factorial(w + p))
    for beta_k, n_k in zip(spec.beta, spec.n):
        if n_k:
            G = G * RatPoly.of([-beta_k, 1]) ** n_k
            C /= (-beta_k) ** n_k
    coeffs = [C * G.coeff(w - j) / math.factorial(j + p) for j in range(w + 1)]
    P = RatPoly.of(coeffs)
    if P.degree != w or not P.is_monic:
        raise ExactMathError("type II construction lost monicity")  # unreachable
    return P


def type_i_form(spec: LaguerreSpec) -> LinearForm:
    """Type I form Q = sum_k A_k(x) x^p e^{-beta_k x} with plain rational A_k.

    Around t = beta_k + tau the residue data is
    e^{-x tau} (beta_k + tau)^{|n|+p-1} prod_{l != k} ((beta_k - beta_l) + tau)^(-n_l);
    A_k is -(prod_l (-beta_l)^{n_l} / (|n|+p-1)!) times its tau^(n_k - 1)
    coefficient.
    """
    w, p = spec.n.weight, spec.p
    if w < 1:
        raise ExactMathError("type I needs |n| >= 1")
    lead = Fraction(1)
    for beta_l, n_l in zip(spec.beta, spec.n):
        lead *= (-beta_l) ** n_l
    scale = -lead / math.factorial(w + p - 1)
    terms = []
    for k, (beta_k, n_k) in enumerate(zip(spec.beta, spec.n)):
        weight = LaguerreWeight(beta_k, p)
        if n_k == 0:
            terms.append(LinearFormTerm(k, ScaledConstant.one(), RatPoly.zero(), weight))
            continue
        T = n_k - 1
        series = PolySeries.exp_linear_quadratic(RatPoly.of([0, -1]), 0, T)
        series = series * PolySeries.binomial(beta_k, w + p - 1, T)
        for l, (beta_l, n_l) in enumerate(zip(spec.beta, spec.n)):
            if l != k and n_l:
                series = series * PolySeries.binomial_inverse(beta_k - beta_l, n_l, T)
        a_k = series.coeff_at(T).scale(scale)
        terms.append(LinearFormTerm(k, ScaledConstant.one(), a_k, weight))
    return LinearForm(tuple(terms))


def half_line_integral(poly: RatPoly, beta: RationalLike, p: int) -> Fraction:
    """integral(poly(x) * x^p * e^{-beta x} dx) over (0, inf), exactly."""
    beta = as_fraction(beta)
    return sum(
        (c * gamma_moment(i + p, beta) for i, c in enumerate(poly.coeffs) if c != 0),
        Fraction(0),
    )


def norm_constant(spec: LaguerreSpec, k: int, P: RatPoly) -> Fraction:
    """h_k = integral(P(x) x^{n_k} w_k(x) dx), a plain rational."""
    spec.n._check_component(k)
    return half_line_integral(P * RatPoly.monomial(spec.n[k]), spec.beta[k], spec.p)


def norm_ratio(spec: LaguerreSpec, k: int) -> Fraction:
    """Closed-form ratio h_k(n) / h_k(n - e_k) = n_k (|n| + p) / beta_k^2."""
    spec.n._check_component(k)
    if spec.n[k] == 0:
        raise ExactMathError("ratio needs n_k >= 1")
    return spec.n[k] * (spec.n.weight + spec.p) / spec.beta[k] ** 2


def moment_norm_ratio(spec: LaguerreSpec, k: int, P: RatPoly, P_down: RatPoly) -> Fraction:
    """h_k(n) / h_k(n - e_k) from the moment engine, given the type II
    polynomials at n and n - e_k."""
    return norm_constant(spec, k, P) / norm_constant(spec.with_n(spec.n.drop(k)), k, P_down)


def type_ii_residuals(P: RatPoly, spec: LaguerreSpec) -> list[Fraction]:
    """Orthogonality integrals, k ascending then j = 0 .. n_k - 1.
    All must vanish exactly for the type II polynomial."""
    out = []
    for k, (beta_k, n_k) in enumerate(zip(spec.beta, spec.n)):
        for j in range(n_k):
            out.append(half_line_integral(P * RatPoly.monomial(j), beta_k, spec.p))
    return out


def form_integral(form: LinearForm, poly: RatPoly) -> Fraction:
    """Exact integral(poly(x) * Q(x) dx) over (0, inf)."""
    v = Fraction(0)
    for t in form.terms:
        if t.poly.is_zero or poly.is_zero:
            continue
        v += t.prefactor.as_fraction() * half_line_integral(
            t.poly * poly, t.weight.beta, t.weight.p
        )
    return v


def type_i_conditions(form: LinearForm, spec: LaguerreSpec) -> list[Fraction]:
    """Exact values of integral(x^j Q dx) for j = 0 .. |n| - 1."""
    return [form_integral(form, RatPoly.monomial(j)) for j in range(spec.n.weight)]


def trace_rule(spec: LaguerreSpec, nodes: int) -> LineRule:
    """Gauss rule over the weights' support, for the kernel trace."""
    return line_rule_nodes("exponential", nodes, beta=min(spec.beta))


# ---------------------------------------------------------------------------
# double-contour kernel


@dataclass(frozen=True)
class LaguerreContourGeometry:
    """Two disjoint counterclockwise circles: one of radius inner_radius
    around the origin (inside Re s < min beta), and one around the rates,
    kept in the right half-plane away from the origin."""

    inner_radius: float
    outer_center: float
    outer_radius: float

    @classmethod
    def default_for(cls, spec: LaguerreSpec) -> "LaguerreContourGeometry":
        b = [float(v) for v in spec.beta]
        lo, hi = min(b), max(b)
        return cls(0.5 * lo, 0.5 * (lo + hi), 0.5 * (hi - lo) + 0.25 * lo)

    def validate(self, spec: LaguerreSpec) -> None:
        bmin = min(float(v) for v in spec.beta)
        if not 0.0 < self.inner_radius < bmin:
            raise ContourError(
                f"inner radius must lie in (0, min rate) = (0, {bmin}), got {self.inner_radius}"
            )
        if self.outer_radius <= 0.0:
            raise ContourError("outer radius must be positive")
        if self.outer_center - self.outer_radius <= 0.0:
            raise ContourError("outer circle must stay in the right half-plane, away from 0")
        if self.outer_center - self.outer_radius <= self.inner_radius:
            raise ContourError("the two circles must be disjoint")
        for b_k in spec.beta:
            if abs(float(b_k) - self.outer_center) >= self.outer_radius:
                raise ContourError(f"rate {b_k} is not inside the outer circle")


def _contour_complex(
    spec: LaguerreSpec,
    x: float,
    y: float,
    nodes: int,
    geometry: LaguerreContourGeometry | None,
) -> complex:
    """Double-contour kernel value; the imaginary part is a pure
    discretization diagnostic.

    Both directions are trapezoid rules on circles.  Note the contour
    normalization differs from the CD kernel by the factor x^p y^(-p);
    they agree exactly when p = 0.
    """
    geom = geometry if geometry is not None else LaguerreContourGeometry.default_for(spec)
    geom.validate(spec)
    r, c, rho = geom.inner_radius, geom.outer_center, geom.outer_radius
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    s = r * np.exp(1j * theta)
    t = c + rho * np.exp(1j * theta)
    wp = spec.n.weight + spec.p

    A = s * np.exp(x * s) * s ** (-wp)
    B = (t - c) * np.exp(-y * t) * t**wp
    for b_k, n_k in zip(spec.beta, spec.n):
        if n_k:
            A = A * (s - float(b_k)) ** n_k
            B = B / (t - float(b_k)) ** n_k
    factor = 1.0 / (nodes * nodes)
    return factor * bilinear_sum(A, s, t, B)
