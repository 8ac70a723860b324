"""Exact arithmetic foundation: multi-indices, rational polynomials,
truncated scalar power series, scaled constants, and the weights with
their exact moment sequences.

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
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

RationalLike = Union[Fraction, int, str, float]

TWO_PI = 2.0 * math.pi

# Denominator bound for accepting floats as rationals (documented
# continued-fraction rationalization step; floats are never used directly).
RATIONALIZE_MAX_DENOMINATOR = 10**12


class ExactMathError(ValueError):
    """Base class for violations of exact-layer contracts."""


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

    def dot(self, moments: Sequence[Fraction]) -> Fraction:
        """sum_i coeff_i * moments[i]: the value at this polynomial of the
        linear functional whose moment sequence is moments, exactly."""
        if len(moments) < len(self.coeffs):
            raise ExactMathError(f"{len(moments)} moments for a degree-{self.degree} polynomial")
        return sum((c * m for c, m in zip(self.coeffs, moments)), Fraction(0))

    def __call__(self, x):
        """Horner evaluation: exact for Fraction/int input, float otherwise
        (a float or, elementwise, a float ndarray).  The float path reads
        the coefficients as floats, converted once per polynomial."""
        if isinstance(x, (Fraction, int)) and not isinstance(x, bool):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = 0.0
        for c in self._float_coeffs:
            acc = acc * x + c
        return acc

    @cached_property
    def _float_coeffs(self) -> tuple[float, ...]:
        """float(c) for each coefficient, highest degree first."""
        return tuple(float(c) for c in reversed(self.coeffs))


# ---------------------------------------------------------------------------
# truncated scalar power series in tau, as lists of Fractions


def power_series(c: RationalLike, e: int, order: int) -> list[Fraction]:
    """(c + tau)^e for any integer e, truncated after tau^order: the
    coefficients binom(e, j) * c^(e - j), by the ratio of consecutive terms,
    which needs a nonzero base c (SingularExpansionError otherwise)."""
    c = as_fraction(c)
    if c == 0:
        raise SingularExpansionError(f"cannot expand (0 + tau)^({e}) around tau = 0")
    out = [c**e]
    for j in range(order):
        out.append(out[j] * (e - j) / ((j + 1) * c))
    return out


def series_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Product of two power series truncated at the same order."""
    return [sum((a[j] * b[i - j] for j in range(i + 1)), Fraction(0)) for i in range(len(a))]


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
# weighted linear forms sum_k prefactor_k * poly_k(x) * w_k(x)


@dataclass(frozen=True)
class HermiteWeight:
    """w(x) = exp(-x^2/2 + a*x) on the real line.

    integral(x^j w(x) dx) = scale * moments(...)[j] with
    scale = sqrt(2*pi) * e^(a^2/2) and moments E[(Z + a)^j], Z ~ N(0, 1).
    """

    a: Fraction

    @property
    def scale(self) -> ScaledConstant:
        return ScaledConstant.of(1, 1, self.a * self.a / 2)

    def moments(self, count: int) -> list[Fraction]:
        """E[(Z + a)^j] for j < count, by m_{j+1} = a*m_j + j*m_{j-1}."""
        m = [Fraction(1), self.a]
        for j in range(1, count - 1):
            m.append(self.a * m[j] + j * m[j - 1])
        return m[:count]


@dataclass(frozen=True)
class LaguerreWeight:
    """w(x) = x^p * exp(-beta*x) on (0, inf); its moments
    integral(x^j w(x) dx) = (j+p)! / beta^(j+p+1) are rational (scale 1)."""

    beta: Fraction
    p: int

    scale = ScaledConstant.one()

    def moments(self, count: int) -> list[Fraction]:
        return [
            Fraction(math.factorial(j + self.p)) / self.beta ** (j + self.p + 1)
            for j in range(count)
        ]


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

    def moments(self, count: int) -> list[Fraction]:
        """integral(x^j Q(x) dx) for j < count, exactly: each term's
        coefficients dotted with its weight's moments from j on, times
        prefactor * scale, which must be rational (ScaleMismatchError)."""
        out = [Fraction(0)] * count
        for t in self.terms:
            if t.poly.is_zero:
                continue
            c = (t.prefactor * t.weight.scale).as_fraction()
            mom = t.weight.moments(len(t.poly.coeffs) + count)
            out = [v + c * t.poly.dot(mom[j:]) for j, v in enumerate(out)]
        return out

    def __call__(self, x):
        """Q at a float x, or at each element of a float ndarray x.  The array
        path maps math.exp and Python's ** over the elements, because numpy's
        exp and power can differ from them in the last ulp; each element is
        then the scalar value bit for bit."""
        if isinstance(x, np.ndarray):
            exp, power = _map_exp, _map_pow
        else:
            x = float(x)
            exp, power = math.exp, pow
        total = 0.0
        for poly, scale, shift, offset, p in self._float_terms:
            if p is None:
                expo = -0.5 * (x - shift) * (x - shift) + offset
            else:
                expo = offset + shift * x
                scale *= power(x, p)
            total += scale * poly(x) * exp(expo)
        return total

    @cached_property
    def _float_terms(self) -> tuple:
        """(poly, scale, shift, offset, p) per nonzero term, converted to
        float once.  A Hermite term (p None) is
        scale * poly(x) * exp(-(x - shift)^2 / 2 + offset), with
        offset = exp_arg + a^2/2, which is exactly 0 for constructed forms
        (the general fold keeps hand-built forms right); a half-line term is
        scale * x^p * poly(x) * exp(offset + shift * x), shift = -beta."""
        out = []
        for t in self.terms:
            if t.poly.is_zero:
                continue
            pf = t.prefactor
            h = pf.two_pi_half
            scale = float(pf.r) * TWO_PI ** (h // 2)
            if h % 2:
                scale *= math.sqrt(TWO_PI)
            w = t.weight
            if isinstance(w, HermiteWeight):
                out.append((t.poly, scale, float(w.a), float(pf.exp_arg + w.a * w.a / 2), None))
            else:
                out.append((t.poly, scale, -float(w.beta), float(pf.exp_arg), w.p))
        return tuple(out)


def _elementwise(f, nargs: int):
    """f applied to each element of its float ndarray arguments as Python
    floats, returning a float ndarray."""
    ufunc = np.frompyfunc(f, nargs, 1)
    return lambda *args: ufunc(*args).astype(float)


_map_exp = _elementwise(math.exp, 1)
_map_pow = _elementwise(pow, 2)
