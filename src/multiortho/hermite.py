"""Multiple Hermite polynomials for the weights w_k(x) = exp(-x^2/2 + a_k x).

Type II: the monic polynomial P of degree |n| with
integral(P(x) * x^j * w_k(x) dx) = 0 for j < n_k, all k.
Type I: polynomials A_k, deg A_k <= n_k - 1, such that
Q(x) = sum_k A_k(x) w_k(x) has integral(x^j Q) = 0 for j < |n| - 1 and
integral(x^(|n|-1) Q) = 1.

Both are built exactly: type II from the Gaussian moment expansion of
prod_k (x - a_k + v)^{n_k}, type I from a residue expansion around each a_k
carried out in truncated power series.  The weights' exact moments
(``core.HermiteWeight``) turn every verification integral into rational
arithmetic: each type I prefactor cancels its weight's sqrt(2*pi) * e^(a^2/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import ClassVar, Iterable

import numpy as np

from .core import (
    ExactMathError,
    HermiteWeight,
    LinearForm,
    LinearFormTerm,
    MultiIndex,
    PolySeries,
    RatPoly,
    RationalLike,
    ScaledConstant,
    SingularExpansionError,
    as_fraction,
)
from .quad import MAX_LINE_NODES, ContourError, LineRule, bilinear_sum, line_rule_nodes

# The weights live on the whole real line (no half-line domain check).
HALF_LINE = False


@dataclass(frozen=True)
class HermiteSpec:
    """Shift parameters a = (a_1, ..., a_m) and a multi-index of the same
    length.  Coincident a_k are allowed for type II (indices then merge);
    type I construction requires them pairwise distinct."""

    family: ClassVar[str] = "hermite"
    a: tuple[Fraction, ...]
    n: MultiIndex

    def __post_init__(self) -> None:
        a = tuple(as_fraction(v) for v in self.a)
        object.__setattr__(self, "a", a)
        if len(a) != self.n.m:
            raise ExactMathError(
                f"got {len(a)} shift parameters for a multi-index of length {self.n.m}"
            )

    @classmethod
    def of(cls, a: Iterable[RationalLike], n: Iterable[int]) -> "HermiteSpec":
        return cls(tuple(as_fraction(v) for v in a), MultiIndex.of(n))

    @property
    def m(self) -> int:
        return self.n.m

    @property
    def weights(self) -> tuple[HermiteWeight, ...]:
        return tuple(HermiteWeight(a_k) for a_k in self.a)

    def with_n(self, n: MultiIndex) -> "HermiteSpec":
        return replace(self, n=n)

    def require_distinct(self) -> None:
        if len(set(self.a)) != len(self.a):
            raise SingularExpansionError(
                f"shift parameters must be pairwise distinct, got {self.a}"
            )


def type_ii_poly(spec: HermiteSpec) -> RatPoly:
    """Monic type II polynomial of degree |n|, exactly.

    Expand prod_k (x - a_k + v)^{n_k} = sum_j c_j(x) v^j and pair v^j with
    the normalized Gaussian moment of order j (i^j from the vertical line of
    integration turns even moments into (-1)^(j/2) (j-1)!!).
    """
    T = spec.n.weight
    prod = PolySeries.one(T)
    for a_k, n_k in zip(spec.a, spec.n):
        if n_k:
            factor = PolySeries.of(T, [RatPoly.of([-a_k, 1]), RatPoly.one()])
            prod = prod * factor**n_k
    P = RatPoly.zero()
    moments = HermiteWeight(Fraction(0)).moments(T + 1)
    for j in range(0, T + 1, 2):
        sign = -1 if (j // 2) % 2 else 1
        P = P + prod.coeff_at(j).scale(sign * moments[j])
    if P.degree != T or not P.is_monic:
        raise ExactMathError("type II construction lost monicity")  # unreachable
    return P


def type_i_form(spec: HermiteSpec) -> LinearForm:
    """Type I form Q = sum_k A_k w_k with A_k = c_k * Ahat_k.

    Around t = a_k + tau the residue data is the truncated series
    exp((x - a_k) tau - tau^2/2) * prod_{l != k} ((a_k - a_l) + tau)^(-n_l);
    Ahat_k is (n_k - 1)! times its tau^(n_k - 1) coefficient and the
    prefactor c_k = (1/(n_k-1)!) * (2*pi)^(-1/2) * e^(-a_k^2/2).
    """
    if spec.n.weight < 1:
        raise ExactMathError("type I needs |n| >= 1")
    spec.require_distinct()
    terms = []
    for k, (a_k, n_k) in enumerate(zip(spec.a, spec.n)):
        q = -a_k * a_k / 2
        if n_k == 0:
            terms.append(
                LinearFormTerm(k, ScaledConstant.of(1, -1, q), RatPoly.zero(), HermiteWeight(a_k))
            )
            continue
        T = n_k - 1
        series = PolySeries.exp_linear_quadratic(RatPoly.of([-a_k, 1]), Fraction(-1, 2), T)
        for l, (a_l, n_l) in enumerate(zip(spec.a, spec.n)):
            if l != k and n_l:
                series = series * PolySeries.binomial_inverse(a_k - a_l, n_l, T)
        a_hat = series.coeff_at(T).scale(math.factorial(T))
        prefactor = ScaledConstant.of(Fraction(1, math.factorial(T)), -1, q)
        terms.append(LinearFormTerm(k, prefactor, a_hat, HermiteWeight(a_k)))
    return LinearForm(tuple(terms))


def norm_constant(spec: HermiteSpec, k: int) -> ScaledConstant:
    """Closed form of h_k = integral(P(x) x^{n_k} w_k(x) dx):
    sqrt(2*pi) * n_k! * e^(a_k^2/2) * prod_{l != k} (a_k - a_l)^{n_l}."""
    spec.n._check_component(k)
    a_k = spec.a[k]
    r = Fraction(math.factorial(spec.n[k]))
    for l, (a_l, n_l) in enumerate(zip(spec.a, spec.n)):
        if l != k:
            r *= (a_k - a_l) ** n_l
    return ScaledConstant.of(r, 1, a_k * a_k / 2)


def norm_ratio(spec: HermiteSpec, k: int) -> Fraction:
    """Closed-form ratio h_k(n) / h_k(n - e_k) = n_k."""
    spec.n._check_component(k)
    if spec.n[k] == 0:
        raise ExactMathError("ratio needs n_k >= 1")
    return Fraction(spec.n[k])


def trace_rule(spec: HermiteSpec, nodes: int) -> LineRule:
    """Gauss rule over the weights' support, for the kernel trace."""
    return line_rule_nodes("gaussian", nodes)


# ---------------------------------------------------------------------------
# double-contour kernel


@dataclass(frozen=True)
class HermiteContourGeometry:
    """Vertical line Re s = line_abscissa paired with a circle |t - c| = r.

    The line must lie strictly left of the circle and the circle must
    enclose every shift parameter a_k.
    """

    line_abscissa: float
    circle_center: float
    circle_radius: float

    @classmethod
    def default_for(cls, spec: HermiteSpec) -> "HermiteContourGeometry":
        a = [float(v) for v in spec.a]
        lo, hi = min(a), max(a)
        return cls(lo - 2.0, 0.5 * (lo + hi), 0.5 * (hi - lo) + 1.0)

    def validate(self, spec: HermiteSpec) -> None:
        if self.circle_radius <= 0.0:
            raise ContourError("circle radius must be positive")
        if self.line_abscissa >= self.circle_center - self.circle_radius:
            raise ContourError(
                "vertical line must lie strictly left of the circle "
                f"(abscissa {self.line_abscissa}, circle reaches "
                f"{self.circle_center - self.circle_radius})"
            )
        for a_k in spec.a:
            if abs(float(a_k) - self.circle_center) >= self.circle_radius:
                raise ContourError(f"shift parameter {a_k} is not inside the circle")


def _contour_complex(
    spec: HermiteSpec,
    x: float,
    y: float,
    nodes: int,
    geometry: HermiteContourGeometry | None,
) -> complex:
    """Double-contour kernel value; the imaginary part is a pure
    discretization diagnostic (the kernel is real on real inputs).

    The vertical-line direction substitutes s = sigma + i u so the Gaussian
    factor exp((s-x)^2/2) splits into exp((sigma-x)^2/2) * exp(iu(sigma-x))
    times the Gaussian weight absorbed by the line rule; the circle
    direction uses the trapezoid rule.  The line rule saturates at
    MAX_LINE_NODES while the circle keeps refining.
    """
    geom = geometry if geometry is not None else HermiteContourGeometry.default_for(spec)
    geom.validate(spec)
    sigma, c, rho = geom.line_abscissa, geom.circle_center, geom.circle_radius
    line = line_rule_nodes("gaussian", min(nodes, MAX_LINE_NODES))
    u = line.nodes
    s = sigma + 1j * u
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    t = c + rho * np.exp(1j * theta)

    A = line.weights * np.exp(1j * u * (sigma - x))
    B = (t - c) * np.exp(-0.5 * (t - y) ** 2)
    for a_k, n_k in zip(spec.a, spec.n):
        if n_k:
            A = A * (s - float(a_k)) ** n_k
            B = B / (t - float(a_k)) ** n_k
    factor = math.exp(0.5 * (sigma - x) ** 2) / (2.0 * math.pi * nodes)
    return factor * bilinear_sum(A, s, t, B)
