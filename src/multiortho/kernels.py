"""Correlation kernels in three equivalent forms, plus their cross-checks.

The kernel of the determinantal eigenvalue process is computed as

1. the Christoffel-Darboux quotient
   K(x, y) = [P(x) Q(y) - sum_k ratio_k P_down_k(x) Q_up_k(y)] / (x - y),
   built from exact polynomial data (``eval_cd``), with an analytic limit
   branch on the diagonal;
2. the biorthogonal sum K(x, y) = sum_j P_{c_j}(x) Q_{c_{j+1}}(y) along a
   monotone chain of multi-indices (``eval_sum``);
3. a double-contour quadrature (vertical line x circle for the Gaussian
   family, circle x circle for the half-line family), spectrally accurate
   in the node count (``eval_contour``).

All polynomial ingredients are exact rationals; floats appear only at the
final evaluation step.  The module also provides the derivative identity
check, correlation determinants, exact biorthogonality matrices, and the
trace rule integral(K(x,x) dx) = |n|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from . import hermite as _hermite
from . import laguerre as _laguerre
from .core import ExactMathError, LinearForm, MultiIndex, RatPoly, mi_chain
from .hermite import HermiteSpec
from .laguerre import LaguerreSpec
from .quad import ContourError, ConvergenceError

Spec = Union[HermiteSpec, LaguerreSpec]

# The family table: each spec class names its family, and each family
# module exposes the same construction, moment, trace-rule and contour names.
FAMILIES = {HermiteSpec.family: _hermite, LaguerreSpec.family: _laguerre}

# Below this separation the CD quotient switches to its analytic limit.
DIAGONAL_EPS = 1e-8

# Contour-quadrature refinement policy: start at 512 nodes and double until
# two successive values differ by less than the tolerance.
CONTOUR_START_NODES = 512
CONTOUR_CAP_NODES = 8192
CONTOUR_DOUBLING_TOL = 1e-9


class DegenerateIndexError(ExactMathError):
    """Kernel build with some n_k = 0; that component has no down-neighbor."""


def family_module(family: str, spec: Spec):
    """The family module of spec, after checking that family names it."""
    if family != spec.family:
        raise ExactMathError(f"family {family!r} does not match spec type {type(spec).__name__}")
    return FAMILIES[family]


@lru_cache(maxsize=None)
def _type2(spec: Spec) -> RatPoly:
    return FAMILIES[spec.family].type_ii_poly(spec)


@lru_cache(maxsize=None)
def _type1(spec: Spec) -> LinearForm:
    return FAMILIES[spec.family].type_i_form(spec)


# ---------------------------------------------------------------------------
# Christoffel-Darboux model


@dataclass(frozen=True)
class KernelModel:
    """Exact ingredients of the CD kernel for one spec.

    P and Q carry the top multi-index n; for each component k,
    P_down[k] has index n - e_k, Q_up[k] has index n + e_k, and ratios[k]
    is the exact normalization ratio h_n(k) / h_{n-e_k}(k).
    dP / dP_down are the formal derivatives used by the diagonal limit.
    """

    spec: Spec
    P: RatPoly
    Q: LinearForm
    P_down: tuple[RatPoly, ...]
    Q_up: tuple[LinearForm, ...]
    ratios: tuple[Fraction, ...]
    dP: RatPoly
    dP_down: tuple[RatPoly, ...]


@lru_cache(maxsize=None)
def build_kernel(family: str, spec: Spec) -> KernelModel:
    """Construct all CD ingredients exactly and assert the ratio identity.

    The closed-form ratio (n_k for the Gaussian family,
    n_k (|n| + p) / beta_k^2 for the half-line family) is checked against
    the ratio of moment-based normalization constants before use.
    """
    fam = family_module(family, spec)
    n = spec.n
    for k, n_k in enumerate(n):
        if n_k == 0:
            raise DegenerateIndexError(
                f"n[{k}] = 0: drop component {k} from the multi-index before building the kernel"
            )
    P = _type2(spec)
    Q = _type1(spec)
    P_down, Q_up, ratios = [], [], []
    for k in range(n.m):
        spec_down = spec.with_n(n.drop(k))
        spec_up = spec.with_n(n.bump(k))
        Pd = _type2(spec_down)
        P_down.append(Pd)
        Q_up.append(_type1(spec_up))
        closed = fam.norm_ratio(spec, k)
        moment_ratio = fam.moment_norm_ratio(spec, k, P, Pd)
        if moment_ratio != closed:
            raise ExactMathError(
                f"normalization ratio mismatch for component {k}: "
                f"closed form {closed}, moments {moment_ratio}"
            )  # unreachable
        ratios.append(closed)
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
    needs only the exact polynomial derivatives of P and P_down.
    """
    x, y = float(x), float(y)
    _check_domain(K.spec, x, y)
    if abs(x - y) < DIAGONAL_EPS:
        t = 0.5 * (x + y)
        val = K.dP(t) * K.Q(t)
        for r, dPd, Qu in zip(K.ratios, K.dP_down, K.Q_up):
            val -= float(r) * dPd(t) * Qu(t)
        return val
    num = K.P(x) * K.Q(y)
    for r, Pd, Qu in zip(K.ratios, K.P_down, K.Q_up):
        num -= float(r) * Pd(x) * Qu(y)
    return num / (x - y)


# ---------------------------------------------------------------------------
# biorthogonal sum form


def _check_chain(chain: Sequence[MultiIndex], n: MultiIndex) -> None:
    if len(chain) != n.weight + 1:
        raise ExactMathError(f"chain length {len(chain)} != |n| + 1 = {n.weight + 1}")
    if chain[0].weight != 0 or chain[-1] != n:
        raise ExactMathError("chain must run from the zero index to n")
    for prev, cur in zip(chain, chain[1:]):
        diff = [c - p for p, c in zip(prev, cur)]
        if sorted(diff) != [0] * (n.m - 1) + [1]:
            raise ExactMathError(f"chain step {prev} -> {cur} is not a unit increment")


def eval_sum(family: str, spec: Spec, chain: Sequence[MultiIndex], x: float, y: float) -> float:
    """Biorthogonal sum sum_{j<|n|} P_{chain[j]}(x) * Q_{chain[j+1]}(y).

    Every factor is built exactly (and cached), then evaluated in float.
    The value is chain-independent; the chain only reindexes the same span.
    """
    family_module(family, spec)
    _check_chain(chain, spec.n)
    x, y = float(x), float(y)
    _check_domain(spec, x, y)
    total = 0.0
    for j in range(spec.n.weight):
        p = _type2(spec.with_n(chain[j]))
        q = _type1(spec.with_n(chain[j + 1]))
        total += p(x) * q(y)
    return total


# ---------------------------------------------------------------------------
# double-contour quadrature


def eval_contour(
    family: str,
    spec: Spec,
    x: float,
    y: float,
    nodes: int | None = None,
    geometry=None,
    tol: float = CONTOUR_DOUBLING_TOL,
    cap: int = CONTOUR_CAP_NODES,
) -> float:
    """Double-contour kernel value (real part): vertical line x circle for
    the Gaussian family, circle x circle for the half-line family, whose
    contour normalization differs from the CD kernel by x^p y^(-p).

    With an explicit node count this is a single evaluation.  With
    nodes=None it doubles from CONTOUR_START_NODES until two successive
    values differ by less than tol, raising ConvergenceError (carrying the
    best value) if the cap is reached first.
    """
    contour = family_module(family, spec)._contour_complex
    x, y = float(x), float(y)
    _check_domain(spec, x, y)
    if nodes is not None:
        if nodes < 16 or nodes % 2:
            raise ContourError(f"node count must be even and >= 16, got {nodes}")
        return contour(spec, x, y, nodes, geometry).real
    n = CONTOUR_START_NODES
    prev = contour(spec, x, y, n, geometry).real
    delta = math.inf
    while n < cap:
        n *= 2
        cur = contour(spec, x, y, n, geometry).real
        delta = abs(cur - prev)
        if delta < tol:
            return cur
        prev = cur
    raise ConvergenceError(
        f"contour kernel did not settle below {tol} by {cap} nodes", prev, delta, cap
    )


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
    K = build_kernel("hermite", spec)
    x, y = float(x), float(y)
    D = (eval_cd(K, x + h, y) - eval_cd(K, x - h, y)) / (2.0 * h)
    D += (eval_cd(K, x, y + h) - eval_cd(K, x, y - h)) / (2.0 * h)
    first = (x - y) * eval_cd(K, x, y) - K.P(x) * K.Q(y)
    second = 0.0
    for r, Pd, Qu in zip(K.ratios, K.P_down, K.Q_up):
        second += float(r) * Pd(x) * Qu(y)
    return abs(D - first), abs(D + second)


def correlation_det(K: KernelModel, points: Sequence[float], conjugated: bool = False) -> float:
    """det[ K(x_i, x_j) ] over the given points, by partial-pivot elimination.

    With conjugated=True the entries carry the extra (x_i / x_j)^p factor
    (half-line family); the determinant is unchanged because the factor is
    a diagonal similarity.
    """
    pts = [float(v) for v in points]
    n = len(pts)
    p = getattr(K.spec, "p", 0) if conjugated else 0
    a = [[eval_cd(K, xi, xj) * (xi / xj) ** p for xj in pts] for xi in pts]
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
    chain[j+1]; all integrals reduce to rational moment sums.
    """
    mod = family_module(family, spec)
    if chain is None:
        chain = mi_chain(spec.n)
    _check_chain(chain, spec.n)
    w = spec.n.weight
    polys = [_type2(spec.with_n(chain[i])) for i in range(w)]
    forms = [_type1(spec.with_n(chain[j + 1])) for j in range(w)]
    return [[mod.form_integral(q, p) for q in forms] for p in polys]


def kernel_trace(K: KernelModel, nodes: int = 200) -> float:
    """Quadrature value of integral(K(x, x) dx) over the family's support.

    Uses the lifted rule weights (weights times exp(+W)) so the kernel's own
    weight decay is divided out analytically; the exact value is |n|.
    """
    rule = FAMILIES[K.spec.family].trace_rule(K.spec, nodes)
    return math.fsum(
        w * eval_cd(K, xi, xi) for xi, w in zip(rule.nodes, rule.lifted) if w != 0.0
    )
