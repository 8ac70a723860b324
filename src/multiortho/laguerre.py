"""Multiple Laguerre polynomials for the weights w_k(x) = x^p exp(-beta_k x)
on (0, inf), with a shared exponent p >= 0 and pairwise distinct rates.

Type II comes from a single residue at s = 0 of
e^{xs} s^{-(|n|+p+1)} prod_k (s - beta_k)^{n_k}; type I from residues at
each beta_k, where e^{-x tau} times one scalar power series gives each
coefficient of A_k in closed form.  Unlike the Hermite
family there are no transcendental prefactors: every coefficient is a
plain rational, and every verification integral is a dot product with the
weights' gamma moments (``core.LaguerreWeight``).
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
    RatPoly,
    RationalLike,
    ScaledConstant,
    SingularExpansionError,
    as_fraction,
    power_series,
    series_mul,
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

    @property
    def weights(self) -> tuple[LaguerreWeight, ...]:
        return tuple(LaguerreWeight(beta_k, self.p) for beta_k in self.beta)

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

    Around t = beta_k + tau the residue data is e^{-x tau} d(tau) with
    d = (beta_k + tau)^{|n|+p-1} prod_{l != k} ((beta_k - beta_l) + tau)^(-n_l);
    A_k is scale = -(prod_l (-beta_l)^{n_l} / (|n|+p-1)!) times its
    tau^(n_k - 1) coefficient, so [x^j] A_k = scale * d_{n_k-1-j} * (-1)^j / j!.
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
        d = power_series(beta_k, w + p - 1, T)
        for l, (beta_l, n_l) in enumerate(zip(spec.beta, spec.n)):
            if l != k:
                d = series_mul(d, power_series(beta_k - beta_l, -n_l, T))
        a_k = RatPoly.of([scale * d[T - j] * (-1) ** j / math.factorial(j) for j in range(T + 1)])
        terms.append(LinearFormTerm(k, ScaledConstant.one(), a_k, weight))
    return LinearForm(tuple(terms))


def norm_constant(spec: LaguerreSpec, k: int) -> ScaledConstant:
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
    return ScaledConstant.of(r)


def norm_ratio(spec: LaguerreSpec, k: int) -> Fraction:
    """Closed-form ratio h_k(n) / h_k(n - e_k) = n_k (|n| + p) / beta_k^2."""
    spec.n._check_component(k)
    if spec.n[k] == 0:
        raise ExactMathError("ratio needs n_k >= 1")
    return spec.n[k] * (spec.n.weight + spec.p) / spec.beta[k] ** 2


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
