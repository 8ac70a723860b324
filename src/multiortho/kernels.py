"""Correlation kernels in three equivalent forms, plus their cross-checks.

The kernel of the determinantal eigenvalue process is computed as

1. the Christoffel-Darboux quotient
   K(x, y) = [P(x) Q(y) - sum_k ratio_k P_down_k(x) Q_up_k(y)] / (x - y),
   built from exact polynomial data (``eval_cd``), with an analytic limit
   branch on the diagonal;
2. the biorthogonal sum K(x, y) = sum_j P_{c_j}(x) Q_{c_{j+1}}(y) along a
   monotone chain of multi-indices (``eval_sum``), whose factors come from
   one walk of the chain each way: P up from P_0 = 1 and Q down from Q_n,
   one exact step per index through the family module's ``type_ii_walk``
   and ``lower_type_i`` (see ``hermite`` and ``laguerre``);
3. a double-contour quadrature, spectrally accurate in the node count
   (``eval_contour``): for the Gaussian family a vertical line through x
   (or beside the circle, on either side) times a circle around the
   shifts; for the half-line family a circle around 0 and one around the
   rates (nested either way or disjoint), which a Moebius map sends to two
   circles around 0.  ``eval_contour`` chooses the geometry once per
   point, by the family's ``contour_geometry`` (for the half-line family
   the best-scored of a fixed candidate set, refused with ContourError
   when that pair cannot carry the kernel), and passes it to the family's
   ``contour_levels``.  Both take the node count up by nested doubling.
   Each node sum splits into an x side, the line or s-circle factors'
   row sum_i A_i / (s_i - t_j) against the circle nodes, and a y side, the
   circle factors b, so that the sum is row @ b.  The Gaussian family
   takes the row from the line nodes' power sums once per row and one
   inverse FFT per pass, the half-line family from one FFT and one
   inverse FFT of the s-factors per level (``quad.concentric_row``).  Each family keeps the
   x side, with the circle factors' y-free parts, in small bounded memos
   keyed by x and the geometry's floats and sized for about one grid row,
   so the later points of a row (``kernel`` and ``verify`` walk their
   grids x by x) compute only what depends on y, with the same bits as a
   cold evaluation.  The half-line levels nest: the nodes of level 2N are
   those of level N at the even indices, with the same bits, so each level
   evaluates its factors only at the N new odd nodes and reuses the rest.

All polynomial ingredients are exact rationals; floats appear only at the
final evaluation step.  The cd numerator, its diagonal limit and the chain
sum are each a bilinear sum sum_i c_i P_i(x) Q_i(y), evaluated by one
``core.FormTable`` built once per kernel, or per spec and chain, as an x
side (each c_i P_i(x) by Horner over float coefficients) against a y side
(each weight's exponential once, then each Q_i(y)).  ``core`` keeps both
scalar sides in small bounded memos, so along a grid row the x side is
computed once per table and, from the second row on, every y side is
found, with the same bits in any evaluation order; the diagonal's points
change both arguments, so each of them computes both sides.  The array
routes (``eval_cd_diagonal``, ``kernel_trace``) compute the same sides on
ndarrays.  The module also provides the derivative identity check,
correlation determinants, exact biorthogonality matrices, and the trace
rule integral(K(x,x) dx) = |n|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import hermite as _hermite
from . import laguerre as _laguerre
from .core import ExactMathError, FormTable, LinearForm, MultiIndex, RatPoly, Spec, as_int, mi_chain
from .hermite import HermiteSpec
from .laguerre import LaguerreSpec
from .quad import ContourError, ConvergenceError

# The family table: each spec class names its family, and each family
# module exposes the same construction, closed-form h, trace-rule and
# contour names.
FAMILIES = {HermiteSpec.family: _hermite, LaguerreSpec.family: _laguerre}

# Below this separation the CD quotient switches to its analytic limit.
DIAGONAL_EPS = 1e-8

# Contour-quadrature refinement policy: start at 512 nodes and double until
# two successive values differ by less than the tolerance.
CONTOUR_START_NODES = 512
CONTOUR_CAP_NODES = 8192
CONTOUR_DOUBLING_TOL = 1e-9

# Gauss nodes of the kernel-trace quadrature.
TRACE_NODES = 200


class DegenerateIndexError(ExactMathError):
    """Kernel build with some n_k = 0; that component has no down-neighbor."""


def family_module(family: str, spec: Spec):
    """The family module of spec, after checking that family names it."""
    if family != spec.family:
        raise ExactMathError(f"family {family!r} does not match spec type {type(spec).__name__}")
    return FAMILIES[family]


# ---------------------------------------------------------------------------
# exact integrals: coefficient dot products with the weights' moments


def type_ii_residuals(P: RatPoly, spec: Spec) -> list[Fraction]:
    """integral(P(x) x^j w_k(x) dx) / Z_k, Z_k w_k's normalizing constant,
    k ascending then j = 0 .. n_k - 1.  All must vanish exactly for the
    type II polynomial."""
    out = []
    for w, n_k in zip(spec.weights, spec.n):
        mom = w.moments(len(P.nums) + n_k)
        out.extend(P.dot(mom[j:]) for j in range(n_k))
    return out


def moment_norm_constant(spec: Spec, k: int, P: RatPoly) -> Fraction:
    """h_k = integral(P(x) x^{n_k} w_k(x) dx) in units of w_k's normalizing
    constant, from w_k's moments, given the type II polynomial P of spec."""
    w, n_k = spec.weights[k], spec.n[k]
    return P.dot(w.moments(len(P.nums) + n_k)[n_k:])


# ---------------------------------------------------------------------------
# Christoffel-Darboux model


@dataclass(frozen=True)
class KernelModel:
    """Exact ingredients of the CD kernel for one spec.

    P and Q carry the top multi-index n; for each component k,
    P_down[k] has index n - e_k, Q_up[k] has index n + e_k, and ratios[k]
    is the exact normalization ratio h_n(k) / h_{n-e_k}(k).
    dP / dP_down are the formal derivatives used by the diagonal limit.
    The float tables of the CD numerator, of its diagonal limit and of the
    numerator's two parts (for the derivative identity) are built once
    per kernel.
    """

    spec: Spec
    P: RatPoly
    Q: LinearForm
    P_down: tuple[RatPoly, ...]
    Q_up: tuple[LinearForm, ...]
    ratios: tuple[Fraction, ...]
    dP: RatPoly
    dP_down: tuple[RatPoly, ...]

    @cached_property
    def _cd(self) -> FormTable:
        """N(x, y) = P(x) Q(y) - sum_k ratio_k P_down_k(x) Q_up_k(y)."""
        return FormTable.of([(1, self.P, self.Q), *self._down_terms(self.P_down)])

    @cached_property
    def _diag(self) -> FormTable:
        """dN/dx, which at x = y = t is K(t, t): N vanishes on the diagonal."""
        return FormTable.of([(1, self.dP, self.Q), *self._down_terms(self.dP_down)])

    @cached_property
    def _lead(self) -> FormTable:
        """P(x) Q(y), the numerator's first row on its own."""
        return FormTable.of([(1, self.P, self.Q)])

    @cached_property
    def _down(self) -> FormTable:
        """-sum_k ratio_k P_down_k(x) Q_up_k(y), the numerator's other rows."""
        return FormTable.of(self._down_terms(self.P_down))

    def _down_terms(self, P_down: Sequence[RatPoly]) -> list[tuple]:
        """The rows (-ratio_k, P_down[k], Q_up_k) of the numerator's sum."""
        return [(-r, p, q) for r, p, q in zip(self.ratios, P_down, self.Q_up)]


@lru_cache(maxsize=None)
def build_kernel(family: str, spec: Spec) -> KernelModel:
    """Construct all CD ingredients exactly.

    ratio_k is h_k(n) / h_k(n - e_k), both from the family's closed-form
    ``norm_constant`` (the quotient is n_k for the Gaussian family and
    n_k (|n| + p) / beta_k^2 for the half-line family), and each h is
    checked against its moment value before use.
    """
    fam = family_module(family, spec)
    n = spec.n
    for k, n_k in enumerate(n):
        if n_k == 0:
            raise DegenerateIndexError(
                f"n[{k}] = 0: drop component {k} from the multi-index before building the kernel"
            )
    P = fam.type_ii_poly(spec)
    Q = fam.type_i_form(spec)
    P_down, Q_up, ratios = [], [], []
    for k in range(n.m):
        spec_down = spec.with_n(n.drop(k))
        Pd = fam.type_ii_poly(spec_down)
        P_down.append(Pd)
        Q_up.append(fam.type_i_form(spec.with_n(n.bump(k))))
        h, h_down = fam.norm_constant(spec, k), fam.norm_constant(spec_down, k)
        if (h, h_down) != (moment_norm_constant(spec, k, P), moment_norm_constant(spec_down, k, Pd)):
            raise ExactMathError(f"closed-form h disagrees with moment h at component {k}")  # unreachable
        ratios.append(h / h_down)
    return KernelModel(
        spec=spec,
        P=P,
        Q=Q,
        P_down=tuple(P_down),
        Q_up=tuple(Q_up),
        ratios=tuple(ratios),
        dP=P.derivative(),
        dP_down=tuple(p.derivative() for p in P_down),
    )


def _check_domain(spec: Spec, x: float, y: float) -> None:
    if FAMILIES[spec.family].HALF_LINE and (x <= 0.0 or y <= 0.0):
        raise ExactMathError(
            f"half-line kernel needs x, y > 0, got ({x}, {y})"
        )


def eval_cd(K: KernelModel, x: float, y: float) -> float:
    """CD kernel value at (x, y).

    Away from the diagonal this is the quotient N(x, y) / (x - y) with
    N(x, y) = P(x) Q(y) - sum_k ratio_k P_down_k(x) Q_up_k(y).  Within
    DIAGONAL_EPS of the diagonal it returns the limit dN/dx evaluated at the
    midpoint: N vanishes on the diagonal, so K(x, x) = dN/dx |_{y=x}, which
    needs only the exact polynomial derivatives of P and P_down.  The
    midpoint is x on the diagonal, even at a subnormal x, and 0.5 * x +
    0.5 * y off it: finite for all finite x, y and 0.5 * (x + y) wherever
    x + y neither overflows nor goes subnormal.
    """
    x, y = float(x), float(y)
    _check_domain(K.spec, x, y)
    if abs(x - y) < DIAGONAL_EPS:
        t = x if x == y else 0.5 * x + 0.5 * y
        return K._diag(t, t)
    return K._cd(x, y) / (x - y)


def eval_cd_diagonal(K: KernelModel, t):
    """K(t, t) at each point of the float ndarray t, in one array pass over
    the exact ingredients; element i is eval_cd(K, t[i], t[i]) bit for bit,
    and an overflow to inf or nan warns no more than it does there.  The
    domain check names the least element that is not nan."""
    if t.size:
        lo = float(np.fmin.reduce(t, axis=None))
        _check_domain(K.spec, lo, lo)
    with np.errstate(all="ignore"):
        return K._diag(t, t)


# ---------------------------------------------------------------------------
# biorthogonal sum form


def _check_chain(chain: Sequence[MultiIndex], n: MultiIndex) -> list[int]:
    """Check that chain runs from the zero index to n in unit steps, and
    return the component each step raises."""
    if len(chain) != n.weight + 1:
        raise ExactMathError(f"chain length {len(chain)} != |n| + 1 = {n.weight + 1}")
    if chain[0] != MultiIndex.zeros(n.m) or chain[-1] != n:
        raise ExactMathError("chain must run from the zero index to n")
    steps = []
    for prev, cur in zip(chain, chain[1:]):
        diff = [c - p for p, c in zip(prev, cur)]
        if len(cur) != n.m or sorted(diff) != [0] * (n.m - 1) + [1]:
            raise ExactMathError(f"chain step {prev} -> {cur} is not a unit increment")
        steps.append(diff.index(1))
    return steps


@lru_cache(maxsize=None)
def _chain_factors(
    spec: Spec, chain: tuple[MultiIndex, ...]
) -> tuple[tuple[RatPoly, LinearForm], ...]:
    """(P_{chain[j]}, Q_{chain[j+1]}) for j < |n|, after checking the chain
    (a bad chain raises and is not cached, so every call refuses it).

    The chain is walked once each way, one exact step per index: P up from
    P_0 = 1 by the family's ``type_ii_walk``, Q down from Q_n =
    ``type_i_form(spec)`` by its ``lower_type_i``.  The results equal the
    family constructors' at each index; only Q_n comes from their cache,
    and nothing built here goes into it."""
    steps = _check_chain(chain, spec.n)
    if not steps:
        return ()
    fam = FAMILIES[spec.family]
    P = list(fam.type_ii_walk(spec, steps[:-1]))
    Q = [fam.type_i_form(spec)]
    c = list(spec.n)
    for k in reversed(steps[1:]):
        Q.append(fam.lower_type_i(spec, c, Q[-1], k))
        c[k] -= 1
    return tuple(zip(P, reversed(Q)))


@lru_cache(maxsize=None)
def _chain_table(spec: Spec, chain: tuple[MultiIndex, ...]) -> FormTable:
    """The FormTable of sum_j 1 * P_{chain[j]}(x) Q_{chain[j+1]}(y), built
    once per spec and chain."""
    return FormTable.of((1, p, q) for p, q in _chain_factors(spec, chain))


def eval_sum(family: str, spec: Spec, chain: Sequence[MultiIndex], x: float, y: float) -> float:
    """Biorthogonal sum sum_{j<|n|} P_{chain[j]}(x) * Q_{chain[j+1]}(y).

    Every factor is built exactly (and cached, as is the float table of
    each spec and chain), then evaluated in float.  The value is
    chain-independent; the chain only reindexes the same span.
    """
    family_module(family, spec)
    table = _chain_table(spec, tuple(chain))
    x, y = float(x), float(y)
    _check_domain(spec, x, y)
    return table(x, y)


# ---------------------------------------------------------------------------
# double-contour quadrature


def eval_contour(
    family: str,
    spec: Spec,
    x: float,
    y: float,
    nodes: int | None = None,
    tol: float = CONTOUR_DOUBLING_TOL,
) -> float:
    """Double-contour kernel value (real part): vertical line x circle for
    the Gaussian family, two circles for the half-line family, whose
    contour normalization differs from the CD kernel by x^p y^(-p).  The
    geometry is chosen here, once per point, by the family's
    ``contour_geometry`` for the starting node count, and passed in.

    The values come from the family's ``contour_levels`` on that
    geometry, one per node doubling.  With an explicit integer node count,
    which the cap bounds too, this is its first level.  With nodes=None the levels start at
    CONTOUR_START_NODES and the value is the first one within tol of the
    level before, raising ConvergenceError (carrying the best value) if
    CONTOUR_CAP_NODES is reached first.  A tol that is not > 0 (nan
    included) raises ContourError, as does a half-line geometry that
    cannot carry the kernel, and a non-finite level OverflowError.
    """
    fam = family_module(family, spec)
    if not tol > 0:
        raise ContourError(f"contour tolerance must be > 0, got {tol}")
    x, y = float(x), float(y)
    _check_domain(spec, x, y)
    if nodes is not None:
        nodes = as_int(nodes)
        if nodes < 16 or nodes % 2:
            raise ContourError(f"node count must be even and >= 16, got {nodes}")
        if nodes > CONTOUR_CAP_NODES:
            raise ContourError(f"node count must be <= {CONTOUR_CAP_NODES}, got {nodes}")
    n = CONTOUR_START_NODES if nodes is None else nodes
    with np.errstate(all="ignore"):
        geometry = fam.contour_geometry(spec, x, y, n)
        values = (_finite_real(v) for v in fam.contour_levels(spec, x, y, n, geometry))
        prev = next(values)
        if nodes is not None:
            return prev
        delta = math.inf
        while n < CONTOUR_CAP_NODES:
            n *= 2
            cur = next(values)
            delta = abs(cur - prev)
            if delta < tol:
                return cur
            prev = cur
    raise ConvergenceError(f"contour kernel did not settle below {tol} by {n} nodes", prev, delta, n)


def _finite_real(value: complex) -> float:
    if not math.isfinite(value.real):
        raise OverflowError("contour kernel value is not finite")
    return value.real


def kernel_point(
    K: KernelModel,
    chain: Sequence[MultiIndex],
    x: float,
    y: float,
    nodes: int | None = None,
    tol: float = CONTOUR_DOUBLING_TOL,
) -> tuple[float, float, float]:
    """(cd, sum, contour) at (x, y), the contour value (eval_contour at the
    given nodes and tol) times (y / x)^p into the CD normalization so the
    three compare directly.  An overflow or a non-finite value raises
    OverflowError naming the point."""
    spec = K.spec
    where = f"kernel at x={x}, y={y}"
    try:
        cd = eval_cd(K, x, y)
        s = eval_sum(spec.family, spec, chain, x, y)
        ct = eval_contour(spec.family, spec, x, y, nodes, tol)
        if spec.p:
            ct *= (y / x) ** spec.p
    except OverflowError as exc:
        raise OverflowError(f"{where}: {exc}") from exc
    if not all(math.isfinite(v) for v in (cd, s, ct)):
        raise OverflowError(f"{where} is not finite")
    return cd, s, ct


# ---------------------------------------------------------------------------
# identity checks and derived quantities


def check_dxdy_identity(
    spec: HermiteSpec, x: float, y: float, h: float
) -> tuple[float, float]:
    """Residuals of the two expressions for dK/dx + dK/dy (Gaussian family).

    D is the central-difference sum with step h.  Returns
    (|D - [(x-y) K - P(x) Q(y)]|, |D + sum_k n_k P_down_k(x) Q_up_k(y)|);
    both vanish like h^2.
    """
    K = build_kernel(spec.family, spec)
    x, y = float(x), float(y)
    D = (eval_cd(K, x + h, y) - eval_cd(K, x - h, y)) / (2.0 * h)
    D += (eval_cd(K, x, y + h) - eval_cd(K, x, y - h)) / (2.0 * h)
    first = (x - y) * eval_cd(K, x, y) - K._lead(x, y)
    second = K._down(x, y)
    return abs(D - first), abs(D - second)


def correlation_det(K: KernelModel, points: Sequence[float], conjugated: bool = False) -> float:
    """det[ K(x_i, x_j) ] over the given points, by partial-pivot elimination.

    With conjugated=True the entries carry the extra (x_i / x_j)^p factor
    (half-line family); the determinant is unchanged because the factor is
    a diagonal similarity.  It is applied through math.frexp of the points,
    so no intermediate step overflows or underflows.
    """
    pts = [float(v) for v in points]
    n = len(pts)
    p = K.spec.p if conjugated else 0
    a = [[eval_cd(K, xi, xj) for xj in pts] for xi in pts]
    if p:
        fr = [math.frexp(v) for v in pts]
        a = [
            [math.ldexp(v * (mi / mj) ** p, p * (ei - ej)) for v, (mj, ej) in zip(row, fr)]
            for row, (mi, ei) in zip(a, fr)
        ]
    det = 1.0
    for col in range(n):
        piv = max(range(col, n), key=lambda row: abs(a[row][col]))
        if a[piv][col] == 0.0:
            return 0.0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for row in range(col + 1, n):
            f = a[row][col] / a[col][col]
            for j in range(col + 1, n):
                a[row][j] -= f * a[col][j]
    return det


def check_biorthogonality(
    family: str, spec: Spec, chain: Sequence[MultiIndex] | None = None
) -> list[list[Fraction]]:
    """Exact matrix integral(p_i(x) q_j(x) dx), which must be the identity.

    p_i is the type II polynomial at chain[i], q_j the type I form at
    chain[j+1]; each entry is p_i's coefficients dotted with q_j's moments.
    """
    family_module(family, spec)
    if chain is None:
        chain = mi_chain(spec.n)
    factors = _chain_factors(spec, tuple(chain))
    moments = [q.moments(spec.n.weight) for _, q in factors]
    return [[p.dot(m) for m in moments] for p, _ in factors]


def kernel_trace(K: KernelModel) -> float:
    """Quadrature value of integral(K(x, x) dx) over the family's support.

    Uses the lifted rule weights (weights times exp(+W)) so the kernel's own
    weight decay is divided out analytically; the exact value is |n|.
    """
    rule = FAMILIES[K.spec.family].trace_rule(K.spec, TRACE_NODES)
    keep = rule.lifted != 0.0
    return math.fsum(rule.lifted[keep] * eval_cd_diagonal(K, rule.nodes[keep]))
