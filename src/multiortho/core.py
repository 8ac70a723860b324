"""Exact arithmetic foundation: multi-indices, rational polynomials,
truncated power series with polynomial coefficients, and scaled constants.

Everything here is immutable and exact.  Rational scalars are
``fractions.Fraction`` (unbounded integers, canonical reduced form), so
polynomial and series arithmetic is reproducible bit for bit.  Floating
point enters only through the explicit evaluation hooks used by the
numeric layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

RationalLike = Union[Fraction, int, str, float]

TWO_PI = 2.0 * math.pi

# Denominator bound for accepting floats as rationals (documented
# continued-fraction rationalization step; floats are never used directly).
RATIONALIZE_MAX_DENOMINATOR = 10**12


class ExactMathError(ValueError):
    """Base class for violations of exact-layer contracts."""


class SeriesOrderMismatchError(ExactMathError):
    """Arithmetic between truncated series of different orders."""


class SingularExpansionError(ExactMathError):
    """Expansion around a singular point (zero base, coincident nodes)."""


class ScaleMismatchError(ExactMathError):
    """Sum of scaled constants whose transcendental parts differ."""


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce to Fraction.  Floats go through continued-fraction
    rationalization with denominator bound 10**12; exact types pass through."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ExactMathError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ExactMathError(f"cannot rationalize non-finite float {value!r}")
        return Fraction(value).limit_denominator(RATIONALIZE_MAX_DENOMINATOR)
    raise ExactMathError(f"cannot interpret {value!r} as a rational scalar")


# ---------------------------------------------------------------------------
# multi-indices


@dataclass(frozen=True)
class MultiIndex:
    """Tuple of nonnegative integers n = (n_1, ..., n_m), m >= 1."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(v) for v in self.parts)
        if len(parts) < 1:
            raise ExactMathError("multi-index needs at least one component")
        if any(v < 0 for v in parts):
            raise ExactMathError(f"multi-index components must be >= 0, got {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def of(cls, parts: Iterable[int]) -> "MultiIndex":
        return cls(tuple(parts))

    @classmethod
    def zeros(cls, m: int) -> "MultiIndex":
        return cls((0,) * m)

    @property
    def m(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        """|n| = n_1 + ... + n_m."""
        return sum(self.parts)

    def bump(self, k: int) -> "MultiIndex":
        """n + e_k (k is a 0-based component index throughout the package)."""
        self._check_component(k)
        return MultiIndex(self.parts[:k] + (self.parts[k] + 1,) + self.parts[k + 1 :])

    def drop(self, k: int) -> "MultiIndex":
        """n - e_k; errors if the component is already 0."""
        self._check_component(k)
        if self.parts[k] == 0:
            raise ExactMathError(f"component {k} of {self.parts} is already 0")
        return MultiIndex(self.parts[:k] + (self.parts[k] - 1,) + self.parts[k + 1 :])

    def _check_component(self, k: int) -> None:
        if not 0 <= k < self.m:
            raise ExactMathError(f"component {k} out of range for m={self.m}")

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, k: int) -> int:
        return self.parts[k]


CHAIN_STRATEGIES = ("round-robin", "lexicographic-first")


def mi_chain(n: MultiIndex, strategy: str = "round-robin") -> list[MultiIndex]:
    """Monotone chain 0 = n_0 < n_1 < ... < n_{|n|} = n with unit steps.

    "lexicographic-first" exhausts component 1, then component 2, and so on.
    "round-robin" (default) cycles through the components, bumping each
    non-exhausted one in turn.
    """
    if strategy not in CHAIN_STRATEGIES:
        raise ExactMathError(f"unknown chain strategy {strategy!r}")
    cur = [0] * n.m
    chain = [MultiIndex.zeros(n.m)]
    if strategy == "lexicographic-first":
        for k in range(n.m):
            for _ in range(n[k]):
                cur[k] += 1
                chain.append(MultiIndex(tuple(cur)))
    else:
        while sum(cur) < n.weight:
            for k in range(n.m):
                if cur[k] < n[k]:
                    cur[k] += 1
                    chain.append(MultiIndex(tuple(cur)))
    return chain


# ---------------------------------------------------------------------------
# dense rational polynomials


def _strip(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    last = len(coeffs)
    while last > 0 and coeffs[last - 1] == 0:
        last -= 1
    return tuple(coeffs[:last])


@dataclass(frozen=True)
class RatPoly:
    """Dense univariate polynomial with Fraction coefficients, ascending
    order, canonical form (no trailing zeros; the zero polynomial is ()).

    degree() of the zero polynomial is the sentinel -1.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = _strip([as_fraction(c) for c in self.coeffs])
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def of(cls, coeffs: Iterable[RationalLike]) -> "RatPoly":
        return cls(tuple(as_fraction(c) for c in coeffs))

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((Fraction(1),))

    @classmethod
    def x(cls) -> "RatPoly":
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def constant(cls, c: RationalLike) -> "RatPoly":
        return cls((as_fraction(c),))

    @classmethod
    def monomial(cls, degree: int, coeff: RationalLike = 1) -> "RatPoly":
        c = as_fraction(coeff)
        if c == 0:
            return cls.zero()
        return cls((Fraction(0),) * degree + (c,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ExactMathError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == 1

    def coeff(self, j: int) -> Fraction:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(tuple(out))

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other: Union["RatPoly", RationalLike]) -> "RatPoly":
        if not isinstance(other, RatPoly):
            return self.scale(other)
        if self.is_zero or other.is_zero:
            return RatPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(tuple(out))

    def __rmul__(self, other: RationalLike) -> "RatPoly":
        return self.scale(other)

    def scale(self, c: RationalLike) -> "RatPoly":
        c = as_fraction(c)
        return RatPoly(tuple(c * v for v in self.coeffs))

    def __pow__(self, exponent: int) -> "RatPoly":
        if exponent < 0:
            raise ExactMathError("polynomial powers must be >= 0")
        result = RatPoly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def derivative(self) -> "RatPoly":
        return RatPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def shift(self, c: RationalLike) -> "RatPoly":
        """Compose with x + c: returns q(x) = p(x + c), exactly."""
        c = as_fraction(c)
        result = RatPoly.zero()
        xc = RatPoly.of([c, 1])
        for coeff in reversed(self.coeffs):
            result = result * xc + RatPoly.constant(coeff)
        return result

    def __call__(self, x):
        """Horner evaluation: exact for Fraction/int input, float otherwise."""
        if isinstance(x, (Fraction, int)) and not isinstance(x, bool):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            terms.append(f"{c}" if i == 0 else f"{c}*x^{i}")
        return " + ".join(terms)


# ---------------------------------------------------------------------------
# truncated power series with RatPoly coefficients

@dataclass(frozen=True)
class PolySeries:
    """Power series in tau, truncated at order T, whose coefficients are
    RatPoly in x.  The residue-calculus workhorse: products drop every term
    of order > T, so coefficient extraction at order <= T is exact.
    """

    order: int
    coeffs: tuple[RatPoly, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ExactMathError("series truncation order must be >= 0")
        coeffs = tuple(self.coeffs)
        if len(coeffs) != self.order + 1:
            raise ExactMathError(
                f"series of order {self.order} needs {self.order + 1} coefficients, "
                f"got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def of(cls, order: int, coeffs: Iterable[RatPoly]) -> "PolySeries":
        cs = list(coeffs)
        if len(cs) > order + 1:
            raise ExactMathError("more coefficients than the truncation order admits")
        cs += [RatPoly.zero()] * (order + 1 - len(cs))
        return cls(order, tuple(cs))

    @classmethod
    def zero(cls, order: int) -> "PolySeries":
        return cls.of(order, [])

    @classmethod
    def one(cls, order: int) -> "PolySeries":
        return cls.of(order, [RatPoly.one()])

    @classmethod
    def binomial(cls, c: RationalLike, m: int, order: int) -> "PolySeries":
        """(c + tau)^m for integer m >= 0, truncated."""
        if m < 0:
            raise ExactMathError("binomial exponent must be >= 0; use binomial_inverse")
        c = as_fraction(c)
        coeffs = [
            RatPoly.constant(math.comb(m, j) * c ** (m - j))
            for j in range(min(m, order) + 1)
        ]
        return cls.of(order, coeffs)

    @classmethod
    def binomial_inverse(cls, c: RationalLike, n: int, order: int) -> "PolySeries":
        """(c + tau)^(-n) for integer n >= 1, truncated; requires c != 0."""
        c = as_fraction(c)
        if c == 0:
            raise SingularExpansionError("cannot expand (0 + tau)^(-n) around tau = 0")
        if n < 1:
            raise ExactMathError("inverse binomial exponent must be >= 1")
        coeffs = [
            RatPoly.constant((-1) ** j * math.comb(n + j - 1, j) * c ** (-n - j))
            for j in range(order + 1)
        ]
        return cls.of(order, coeffs)

    @classmethod
    def exp_linear_quadratic(
        cls, alpha: RatPoly, gamma: RationalLike, order: int
    ) -> "PolySeries":
        """exp(alpha(x)*tau + gamma*tau^2), truncated.

        Coefficients follow from S' = (alpha + 2*gamma*tau)*S:
        (j+1) c_{j+1} = alpha*c_j + 2*gamma*c_{j-1}.
        """
        gamma = as_fraction(gamma)
        coeffs = [RatPoly.one()]
        for j in range(order):
            nxt = alpha * coeffs[j]
            if j >= 1:
                nxt = nxt + coeffs[j - 1].scale(2 * gamma)
            coeffs.append(nxt.scale(Fraction(1, j + 1)))
        return cls(order, tuple(coeffs))

    def coeff_at(self, j: int) -> RatPoly:
        if not 0 <= j <= self.order:
            raise ExactMathError(f"order-{self.order} series has no tau^{j} term")
        return self.coeffs[j]

    def _check_order(self, other: "PolySeries") -> None:
        if self.order != other.order:
            raise SeriesOrderMismatchError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: "PolySeries") -> "PolySeries":
        self._check_order(other)
        return PolySeries(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other: "PolySeries") -> "PolySeries":
        self._check_order(other)
        out = [RatPoly.zero() for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return PolySeries(self.order, tuple(out))

    def scale(self, c: RationalLike) -> "PolySeries":
        return PolySeries(self.order, tuple(p.scale(c) for p in self.coeffs))

    def __pow__(self, exponent: int) -> "PolySeries":
        if exponent < 0:
            raise ExactMathError("series powers must be >= 0")
        result = PolySeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


# ---------------------------------------------------------------------------
# scaled constants r * (2*pi)^(h/2) * exp(q)


@dataclass(frozen=True)
class ScaledConstant:
    """Exact constant of the form r * (2*pi)^(h/2) * e^q with r, q rational
    and h an integer.  Products and exact ratios are closed; sums are only
    defined when the transcendental parts (h, q) agree.
    """

    r: Fraction
    two_pi_half: int = 0
    exp_arg: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        r = as_fraction(self.r)
        h = int(self.two_pi_half)
        q = as_fraction(self.exp_arg)
        if r == 0:
            h, q = 0, Fraction(0)  # canonical zero
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "two_pi_half", h)
        object.__setattr__(self, "exp_arg", q)

    @classmethod
    def of(cls, r: RationalLike, two_pi_half: int = 0, exp_arg: RationalLike = 0) -> "ScaledConstant":
        return cls(as_fraction(r), two_pi_half, as_fraction(exp_arg))

    @classmethod
    def one(cls) -> "ScaledConstant":
        return cls(Fraction(1))

    @property
    def is_zero(self) -> bool:
        return self.r == 0

    def __mul__(self, other: Union["ScaledConstant", RationalLike]) -> "ScaledConstant":
        if isinstance(other, ScaledConstant):
            return ScaledConstant(
                self.r * other.r,
                self.two_pi_half + other.two_pi_half,
                self.exp_arg + other.exp_arg,
            )
        return ScaledConstant(self.r * as_fraction(other), self.two_pi_half, self.exp_arg)

    def __rmul__(self, other: RationalLike) -> "ScaledConstant":
        return self * other

    def __truediv__(self, other: "ScaledConstant") -> "ScaledConstant":
        if other.is_zero:
            raise ExactMathError("division by the zero constant")
        return ScaledConstant(
            self.r / other.r,
            self.two_pi_half - other.two_pi_half,
            self.exp_arg - other.exp_arg,
        )

    def __add__(self, other: "ScaledConstant") -> "ScaledConstant":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if (self.two_pi_half, self.exp_arg) != (other.two_pi_half, other.exp_arg):
            raise ScaleMismatchError(
                "cannot add scaled constants with different transcendental parts"
            )
        return ScaledConstant(self.r + other.r, self.two_pi_half, self.exp_arg)

    def as_fraction(self) -> Fraction:
        """Exact rational value; defined only when the scale is trivial."""
        if not self.is_zero and (self.two_pi_half != 0 or self.exp_arg != 0):
            raise ScaleMismatchError(
                f"constant carries (2*pi)^({self.two_pi_half}/2) * e^({self.exp_arg})"
            )
        return self.r


# ---------------------------------------------------------------------------
# exact weight moments


def gaussian_moment(j: int) -> Fraction:
    """(1/sqrt(2*pi)) * integral of u^j * exp(-u^2/2) du over R.

    Zero for odd j; the double factorial (j-1)!! for even j ((-1)!! = 1).
    """
    if j < 0:
        raise ExactMathError("moment order must be >= 0")
    if j % 2:
        return Fraction(0)
    val = 1
    for i in range(1, j, 2):
        val *= i
    return Fraction(val)


def gamma_moment(j: int, beta: RationalLike) -> Fraction:
    """integral of u^j * exp(-beta*u) du over (0, inf) = j! / beta^(j+1)."""
    if j < 0:
        raise ExactMathError("moment order must be >= 0")
    beta = as_fraction(beta)
    if beta <= 0:
        raise ExactMathError(f"exponential rate must be > 0, got {beta}")
    return Fraction(math.factorial(j)) / beta ** (j + 1)


# ---------------------------------------------------------------------------
# weighted linear forms sum_k prefactor_k * poly_k(x) * w_k(x)


@dataclass(frozen=True)
class HermiteWeight:
    """w(x) = exp(-x^2/2 + a*x) on the real line."""

    a: Fraction


@dataclass(frozen=True)
class LaguerreWeight:
    """w(x) = x^p * exp(-beta*x) on (0, inf)."""

    beta: Fraction
    p: int

    def log_at(self, x: float) -> float:
        # excludes the x^p factor, which is applied polynomially
        return -float(self.beta) * x


@dataclass(frozen=True)
class LinearFormTerm:
    k: int
    prefactor: ScaledConstant
    poly: RatPoly
    weight: Union[HermiteWeight, LaguerreWeight]


@dataclass(frozen=True)
class LinearForm:
    """Q(x) = sum_k prefactor_k * poly_k(x) * w_k(x), one term per weight.

    Evaluation folds each prefactor's exponential into the weight exponent:
    for a Hermite term with prefactor r * (2*pi)^(-1/2) * e^(-a^2/2) this
    yields r * poly(x) * exp(-(x-a)^2/2) / sqrt(2*pi), which stays finite
    where the naive product of huge and tiny factors would not.
    """

    terms: tuple[LinearFormTerm, ...]

    def __call__(self, x: float) -> float:
        x = float(x)
        total = 0.0
        for t in self.terms:
            if t.poly.is_zero:
                continue
            pf = t.prefactor
            h = pf.two_pi_half
            scale = float(pf.r) * TWO_PI ** (h // 2)
            if h % 2:
                scale *= math.sqrt(TWO_PI)
            if isinstance(t.weight, HermiteWeight):
                a = float(t.weight.a)
                # exp_arg + a^2/2 is exactly 0 for constructed forms; keep the
                # general fold so hand-built forms evaluate correctly too
                residue = float(pf.exp_arg + t.weight.a * t.weight.a / 2)
                expo = -0.5 * (x - a) * (x - a) + residue
            else:
                expo = float(pf.exp_arg) + t.weight.log_at(x)
                scale *= x ** t.weight.p
            total += scale * t.poly(x) * math.exp(expo)
        return total
