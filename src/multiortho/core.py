"""Exact arithmetic foundation: multi-indices and the base of both
families' specs (the one place their exact values are coerced), rational
polynomials, truncated scalar power series and their residue polynomial,
the weights with their exact moment sequences and normalizing constants,
the weighted linear forms, and the one float evaluator of the kernels.

Everything here is immutable and exact.  Rational scalars are
``fractions.Fraction`` (unbounded integers, canonical reduced form).
Sequences of rationals are integer numerators over one denominator: a
``RatVec`` (series, moments, integer-coefficient products) or a
``RatPoly``, whose denominator is the least common one, so each
polynomial has one canonical form.  Series products, dot products with
moments and the moments of a linear form are then one integer sum per
result and one Fraction at the end, the same canonical Fraction that
Fraction arithmetic gives, and each weight's moment sequence comes from a
module-level cache.  Each weight has one normalizing constant Z, the unit
its moments are measured in (moments(count)[j] = integral(x^j w(x) dx) / Z):
sqrt(2*pi) * e^(a^2/2) = integral(w(x) dx) for a Gaussian weight and 1
for a half-line weight, whose integrals are rational.  A type I prefactor
is a rational in units of 1/Z and a norm constant one in units of Z, so
every exact integral stays rational.  Floating point enters only through
``FormTable``, the one evaluator of sum_i c_i P_i(x) Q_i(y) over
polynomials P_i and linear forms Q_i; a linear form alone is its one row
1 * 1 * Q.  A point is an x side (each c_i P_i(x), by Horner) against a y
side (each Q_i(y): each weight's exponential and y^p once, then Horner per
term).  At float arguments both sides come from small bounded memos keyed
by table and value, so the later points of a grid row, and the rows after
the first, compute only the products, with the bits of a cold evaluation;
ndarray arguments compute the same sides directly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import repeat
from operator import mul
from typing import ClassVar, Iterable, Iterator, Sequence, Union

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
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ExactMathError(f"bad rational {value!r}: {exc}") from None
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ExactMathError(f"cannot rationalize non-finite float {value!r}")
        return Fraction(value).limit_denominator(RATIONALIZE_MAX_DENOMINATOR)
    raise ExactMathError(f"cannot interpret {value!r} as a rational scalar")


def as_int(value) -> int:
    """Coerce to int through ``operator.index`` (numpy integers pass);
    bools, floats and strings are refused, never truncated."""
    if isinstance(value, bool):
        raise ExactMathError("bool is not an integer")
    try:
        return operator.index(value)
    except TypeError:
        raise ExactMathError(f"cannot interpret {value!r} as an integer") from None


def _values(value, what: str) -> Iterator:
    """Iterate a sequence-valued exact field.  A string or bytes, which
    would split into characters, and a non-iterable are refused."""
    if not isinstance(value, (str, bytes, bytearray)):
        try:
            return iter(value)
        except TypeError:
            pass
    raise ExactMathError(f"{what} must be a sequence of values, got {value!r}")


# ---------------------------------------------------------------------------
# multi-indices


class MultiIndex(tuple):
    """Tuple of nonnegative integers n = (n_1, ..., n_m), m >= 1.  Each
    component is coerced once, here, through ``as_int``; hashing and
    equality are the tuple's."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]) -> "MultiIndex":
        self = super().__new__(cls, map(as_int, _values(parts, "multi-index")))
        if not self:
            raise ExactMathError("multi-index needs at least one component")
        if any(v < 0 for v in self):
            raise ExactMathError(f"multi-index components must be >= 0, got {self}")
        return self

    of = classmethod(type.__call__)  # the constructor, under the name callers use

    @classmethod
    def zeros(cls, m: int) -> "MultiIndex":
        return cls((0,) * m)

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def m(self) -> int:
        return len(self)

    @property
    def weight(self) -> int:
        """|n| = n_1 + ... + n_m."""
        return sum(self)

    def bump(self, k: int) -> "MultiIndex":
        """n + e_k (k is a 0-based component index throughout the package)."""
        self._check_component(k)
        return MultiIndex(self[:k] + (self[k] + 1,) + self[k + 1 :])

    def drop(self, k: int) -> "MultiIndex":
        """n - e_k; errors if the component is already 0."""
        self._check_component(k)
        if self[k] == 0:
            raise ExactMathError(f"component {k} of {self} is already 0")
        return MultiIndex(self[:k] + (self[k] - 1,) + self[k + 1 :])

    def _check_component(self, k: int) -> None:
        if not 0 <= k < self.m:
            raise ExactMathError(f"component {k} out of range for m={self.m}")


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
                chain.append(MultiIndex(cur))
    else:
        while sum(cur) < n.weight:
            for k in range(n.m):
                if cur[k] < n[k]:
                    cur[k] += 1
                    chain.append(MultiIndex(cur))
    return chain


# ---------------------------------------------------------------------------
# the families' specs


class Spec:
    """The base of both families' frozen spec dataclasses: rational weight
    parameters, in the field named by ``param_name``, and a multi-index n
    of the same length, both coerced here and nowhere else.  A subclass
    body repeats ``__hash__ = Spec.__hash__``, which the dataclass
    decorator would otherwise replace."""

    family: ClassVar[str]
    param_name: ClassVar[str]
    p = 0  # the weight exponent, for a family without one

    def __post_init__(self) -> None:
        name = self.param_name
        values = _values(getattr(self, name), f"{type(self).__name__}.{name}")
        params = tuple(map(as_fraction, values))
        n = MultiIndex(self.n)
        object.__setattr__(self, name, params)
        object.__setattr__(self, "n", n)
        if len(params) != n.m:
            raise ExactMathError(
                f"got {len(params)} values of {name} for a multi-index of length {n.m}"
            )

    of = classmethod(type.__call__)  # the constructor, under the name callers use

    @property
    def m(self) -> int:
        return self.n.m

    def with_n(self, n: MultiIndex):
        return replace(self, n=n)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass field hash, computed once per spec: hashing a
        Fraction runs Python code, and specs key the exact-layer caches."""
        return hash(tuple(getattr(self, f.name) for f in fields(self)))


# ---------------------------------------------------------------------------
# rationals over one common denominator


@dataclass(frozen=True, eq=False)
class RatVec:
    """An immutable sequence of rationals nums[i] / den, integer numerators
    over one nonzero common denominator.  Indexing gives a Fraction,
    slicing a RatVec over the same denominator, and a RatVec equals any
    list, tuple or RatVec of the same rational values."""

    nums: tuple[int, ...]
    den: int

    @classmethod
    def of(cls, values: Iterable[RationalLike]) -> "RatVec":
        """values over their least common denominator."""
        fracs = [as_fraction(v) for v in values]
        den = math.lcm(*(f.denominator for f in fracs))
        return cls(tuple(f.numerator * (den // f.denominator) for f in fracs), den)

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RatVec(self.nums[index], self.den)
        return Fraction(self.nums[index], self.den)

    def __iter__(self) -> Iterator[Fraction]:
        return (Fraction(v, self.den) for v in self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RatVec, list, tuple)):
            return NotImplemented
        return list(self) == list(other)


def _convolve(a: Sequence[int], b: Sequence[int], count: int) -> list[int]:
    """The first count coefficients of the product of the integer
    sequences a and b (ascending), one integer sum each."""
    rb, last = b[::-1], len(b) - 1
    out = []
    for k in range(count):
        lo = max(0, k - last)
        out.append(sum(map(mul, a[lo : k + 1], rb[last - k + lo :])))
    return out


# ---------------------------------------------------------------------------
# dense rational polynomials


@dataclass(frozen=True)
class RatPoly:
    """Dense univariate polynomial with coefficients nums[i] / den, ascending:
    integer numerators with no trailing zero over their least common
    denominator den > 0 (gcd(den, *nums) == 1), so equal polynomials are
    equal objects.  The zero polynomial is ((), 1); its degree is the
    sentinel -1."""

    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self) -> None:
        nums, den = list(self.nums), self.den
        if den == 0:
            raise ExactMathError("polynomial with denominator 0")
        while nums and nums[-1] == 0:
            nums.pop()
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        object.__setattr__(self, "nums", tuple(c // g for c in nums))
        object.__setattr__(self, "den", den // g)

    @classmethod
    def of(cls, coeffs: Iterable[RationalLike]) -> "RatPoly":
        v = RatVec.of(coeffs)
        return cls(v.nums, v.den)

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.nums[-1] == self.den

    def derivative(self) -> "RatPoly":
        return RatPoly(tuple(i * c for i, c in enumerate(self.nums) if i), self.den)

    def dot(self, moments: RatVec) -> Fraction:
        """sum_i coeff_i * moments[i]: the value at this polynomial of the
        linear functional whose moment sequence is moments, exactly, as one
        integer sum over the product of the two denominators."""
        if len(moments) < len(self.nums):
            raise ExactMathError(f"{len(moments)} moments for a degree-{self.degree} polynomial")
        return Fraction(sum(map(mul, self.nums, moments.nums)), self.den * moments.den)

    @cached_property
    def _float_coeffs(self) -> tuple[float, ...]:
        """Each coefficient as the nearest float, highest degree first (int
        division is correctly rounded, as float(Fraction) is)."""
        return tuple(c / self.den for c in reversed(self.nums))


# ---------------------------------------------------------------------------
# truncated scalar power series in tau, as RatVecs


def power_series(c: RationalLike, e: int, order: int) -> RatVec:
    """(c + tau)^e for any integer e, truncated after tau^order: the
    coefficients binom(e, j) * c^(e - j), which for e < 0 need a nonzero
    base c (SingularExpansionError otherwise).  With c = u/v they are
    binom(e, j) u^(e-j) v^j / v^e for e >= 0 and, for e < 0,
    binom(e, j) v^(j-e) u^(order-j) / u^(order-e)."""
    c = as_fraction(c)
    if c == 0 and e < 0:
        raise SingularExpansionError(f"cannot expand (0 + tau)^({e}) around tau = 0")
    u, v = c.numerator, c.denominator
    if e >= 0:
        nums = [math.comb(e, j) * u ** (e - j) * v**j for j in range(min(e, order) + 1)]
        return RatVec(tuple(nums) + (0,) * (order - e), v**e)
    if u < 0:
        u, v = -u, -v  # keeps the denominator positive
    # binom(e, j) = (-1)^j binom(j - e - 1, j)
    nums = [(-1) ** j * math.comb(j - e - 1, j) * v ** (j - e) * u ** (order - j) for j in range(order + 1)]
    return RatVec(tuple(nums), u ** (order - e))


def series_mul(a: RatVec, b: RatVec) -> RatVec:
    """Product of two power series truncated at the same order."""
    return RatVec(tuple(_convolve(a.nums, b.nums, len(a))), a.den * b.den)


def residue_poly(d: RatVec, sign: int, p: int) -> RatPoly:
    """sum_j sign^j (T+p)!/(j+p)! d_{T-j} x^j, T = len(d) - 1, which for
    p = 0 is T! [tau^T] e^{sign x tau} d(tau): the residue polynomial of
    every contour-integral construction."""
    T = len(d) - 1
    nums = (sign**j * math.perm(T + p, T - j) * c for j, c in enumerate(reversed(d.nums)))
    return RatPoly(tuple(nums), d.den)


# ---------------------------------------------------------------------------
# weighted linear forms sum_k (prefactor_k / Z_k) * poly_k(x) * w_k(x)


@dataclass(frozen=True)
class HermiteWeight:
    """w(x) = exp(-x^2/2 + a*x) on the real line.

    integral(x^j w(x) dx) = integral(w(x) dx) * moments(...)[j] with
    moments E[(Z + a)^j], Z ~ N(0, 1), and the normalizing constant
    integral(w(x) dx) = (2*pi)^(two_pi_half/2) * e^exp_arg = sqrt(2*pi) * e^(a^2/2).
    """

    a: Fraction

    two_pi_half: ClassVar[int] = 1

    @property
    def exp_arg(self) -> Fraction:
        return self.a * self.a / 2

    def moments(self, count: int) -> RatVec:
        """E[(Z + a)^j] for j < count."""
        return _hermite_moments(self.a, count)


@dataclass(frozen=True)
class LaguerreWeight:
    """w(x) = x^p * exp(-beta*x) on (0, inf); its moments
    integral(x^j w(x) dx) = (j+p)! / beta^(j+p+1) are rational, so its
    normalizing constant (2*pi)^(two_pi_half/2) * e^exp_arg is 1."""

    beta: Fraction
    p: int

    two_pi_half: ClassVar[int] = 0
    exp_arg: ClassVar[Fraction] = Fraction(0)

    def moments(self, count: int) -> RatVec:
        return _laguerre_moments(self.beta, self.p, count)


@lru_cache(maxsize=None)
def _hermite_moments(a: Fraction, count: int) -> RatVec:
    """E[(Z + a)^j] for j < count over the denominator v^(count-1), a = u/v.
    E[(Z + a)^j] = N_j / v^j with N_{j+1} = u*N_j + j*v^2*N_{j-1}, from
    m_{j+1} = a*m_j + j*m_{j-1}."""
    u, v = a.numerator, a.denominator
    nums = [1, u]
    for j in range(1, count - 1):
        nums.append(u * nums[j] + j * v * v * nums[j - 1])
    top = max(count - 1, 0)
    return RatVec(tuple(num * v ** (top - j) for j, num in enumerate(nums[:count])), v**top)


@lru_cache(maxsize=None)
def _laguerre_moments(beta: Fraction, p: int, count: int) -> RatVec:
    """(j+p)! / beta^(j+p+1) for j < count over the denominator
    u^(count+p), beta = u/v: the numerators (j+p)! v^(j+p+1) u^(count-1-j)."""
    u, v = beta.numerator, beta.denominator
    out, fact, v_pow = [], math.factorial(p), v ** (p + 1)
    for j in range(count):
        out.append(fact * v_pow * u ** (count - 1 - j))
        fact *= j + p + 1
        v_pow *= v
    return RatVec(tuple(out), u ** (count + p))


@dataclass(frozen=True)
class LinearFormTerm:
    """(prefactor / Z) * poly(x) * w(x), with the prefactor a rational in
    units of 1/Z, Z the weight's normalizing constant."""

    prefactor: Fraction
    poly: RatPoly
    weight: Union[HermiteWeight, LaguerreWeight]


@dataclass(frozen=True)
class LinearForm:
    """Q(x) = sum_k (prefactor_k / Z_k) * poly_k(x) * w_k(x), one term per
    weight, in component order; Z_k is w_k's normalizing constant.

    A Hermite term r * poly(x) * w(x) / (sqrt(2*pi) * e^(a^2/2)) is
    evaluated as r * poly(x) * exp(-(x-a)^2/2) / sqrt(2*pi), which stays
    finite where the naive product of huge and tiny factors would not.
    """

    terms: tuple[LinearFormTerm, ...]

    def moments(self, count: int) -> RatVec:
        """integral(x^j Q(x) dx) for j < count, exactly: each term's
        coefficients correlated with its weight's moments from j on (the
        integrals over Z), times its prefactor (in units of 1/Z).  The
        terms are summed in integers over one common denominator."""
        parts = []
        for t in self.terms:
            if t.poly.is_zero:
                continue
            c = t.prefactor
            poly = t.poly
            mom = t.weight.moments(len(poly.nums) + count)
            corr = [sum(map(mul, poly.nums, mom.nums[j:])) for j in range(count)]
            parts.append((c.numerator, c.denominator * poly.den * mom.den, corr))
        den = math.lcm(*(d for _, d, _ in parts))
        parts = [(c * (den // d), corr) for c, d, corr in parts]
        return RatVec(tuple(sum(c * corr[j] for c, corr in parts) for j in range(count)), den)

    def __call__(self, x):
        """Q at a float x, or at each element of a float ndarray x: the
        FormTable of the one row 1 * 1 * Q."""
        x = x if isinstance(x, np.ndarray) else float(x)
        return self._table(x, x)

    @cached_property
    def _float_terms(self) -> tuple:
        """((shift, p), scale, coefficients highest degree first) per nonzero
        term, converted to float once.  A Hermite term (p None) is
        scale * poly(x) * exp(-(x - shift)^2 / 2), shift = a, with the
        scale r / sqrt(2*pi) rounded as r * (2*pi)^-1 * sqrt(2*pi); a
        half-line term is scale * x^p * poly(x) * exp(shift * x),
        shift = -beta, with the scale r."""
        out = []
        for t in self.terms:
            if t.poly.is_zero:
                continue
            w, scale = t.weight, float(t.prefactor)
            if isinstance(w, HermiteWeight):
                weight, scale = (float(w.a), None), scale * TWO_PI**-1 * math.sqrt(TWO_PI)
            else:
                weight = (-float(w.beta), w.p)
            out.append((weight, scale, t.poly._float_coeffs))
        return tuple(out)

    @cached_property
    def _table(self) -> "FormTable":
        return FormTable.of([(1, RatPoly((1,)), self)])


# ``FormTable`` keeps a point's scalar x side and y side for the points
# that follow: ``kernel``, ``verify`` and ``correlate`` walk their grids x by
# x, so one x side serves a whole row, and a row's y sides serve every row
# after it.  X_MEMO holds the x sides of a row's few tables (cd, its
# diagonal limit, the chain sum); Y_MEMO holds a 101-point row's y sides for
# two tables, so a later row evicts nothing it needs.
X_MEMO = 8
Y_MEMO = 256


@dataclass(frozen=True, eq=False)
class FormTable:
    """Float evaluation data of a bilinear sum sum_i c_i P_i(x) Q_i(y) of
    polynomials P_i and linear forms Q_i: each distinct weight (shift, p)
    of the forms' ``LinearForm._float_terms`` once, and per i one row
    (c_i, P_i's float coefficients highest degree first, Q_i's terms as
    (weight index, scale, coefficients)).  The forms of one kernel or one
    chain share their m weights, so a y side computes each weight's
    exponential, and y^p, once.

    A point is its x side (each c_i P_i(x)) against its y side (each
    Q_i(y)).  At a float argument the side comes from a bounded module
    memo (``_x_memo``, ``_y_memo``), keyed by the table, which hashes by
    identity, and the float's value: 0.0 and -0.0 share a key, and they
    give the same side bit for bit, because each Horner loop ends by adding
    a constant coefficient, which is 0.0 or nonzero, and a zero Q term adds
    nothing to a sum that is never -0.0.  At an ndarray the side is
    computed directly."""

    weights: tuple[tuple[float, Union[int, None]], ...]
    rows: tuple[tuple[float, tuple[float, ...], tuple[tuple[int, float, tuple[float, ...]], ...]], ...]

    @classmethod
    def of(cls, rows: Iterable[tuple[RationalLike, RatPoly, LinearForm]]) -> "FormTable":
        """The table of the (c, P, Q) triples, in order."""
        index: dict = {}

        def terms(Q: LinearForm) -> tuple:
            return tuple((index.setdefault(w, len(index)), s, cs) for w, s, cs in Q._float_terms)

        rows = tuple((float(c), P._float_coeffs, terms(Q)) for c, P, Q in rows)
        return cls(tuple(index), rows)

    def __call__(self, x, y):
        """sum_i c_i P_i(x) Q_i(y) at floats x, y, or elementwise at float
        ndarrays: the products (c_i P_i(x)) Q_i(y) of the two sides added
        in row order to -0.0, which keeps each one's bits (-0.0 + v is v,
        signed zeros included)."""
        xs = self.x_side(x) if isinstance(x, np.ndarray) else _x_memo(self, x)
        qs = self.y_side(y) if isinstance(y, np.ndarray) else _y_memo(self, y)
        total = -0.0
        for cp, q in zip(xs, qs):
            total += cp * q
        return total

    def x_side(self, x) -> tuple:
        """c_i P_i(x) per row, P_i(x) by Horner."""
        out = []
        for c, P, _ in self.rows:
            acc = 0.0
            for a in P:
                acc = acc * x + a
            out.append(c * acc)
        return tuple(out)

    def y_side(self, y) -> tuple:
        """Q_i(y) per row: the sum from 0.0 over its terms of
        scale * y^p * poly(y) * exp(...), poly(y) by Horner."""
        array = isinstance(y, np.ndarray)
        exp, power = (partial(_map, math.exp), partial(_map, pow)) if array else (math.exp, pow)
        yps, exps = [], []  # y^0 and a Hermite weight's 1.0 are exact (scale * 1.0 is scale)
        for shift, p in self.weights:
            if p is None:
                yps.append(1.0)
                exps.append(exp(-0.5 * (y - shift) * (y - shift)))
            else:
                yps.append(power(y, p) if p else 1.0)
                exps.append(exp(shift * y))
        out = []
        for _, _, terms in self.rows:
            q = 0.0
            for i, scale, coeffs in terms:
                acc = 0.0
                for a in coeffs:
                    acc = acc * y + a
                q += scale * yps[i] * acc * exps[i]
            out.append(q)
        return tuple(out)


_x_memo = lru_cache(maxsize=X_MEMO)(FormTable.x_side)
_y_memo = lru_cache(maxsize=Y_MEMO)(FormTable.y_side)


def _map(f, t: np.ndarray, *args) -> np.ndarray:
    """f(v, *args) for each element v of t as a Python float, so each is the
    scalar value bit for bit (numpy's exp and power can differ in the last ulp)."""
    flat = t.ravel().tolist()
    return np.fromiter(map(f, flat, *map(repeat, args)), float, t.size).reshape(t.shape)
