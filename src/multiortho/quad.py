"""Quadrature primitives for the double-contour kernel integrals.

Circles use the periodic trapezoid rule, which is spectrally accurate for
analytic integrands, on nodes from ``unit_nodes``, kept per node count and
offset.  On two circles around 0 the double node sum folds into two FFTs
per level: ``concentric_row`` gives the row sum_i A_i / (s_i - t_j)
of the first factor against the second circle's nodes, so the sum against
any B is row @ B.  The row does not depend on the second kernel argument,
so ``kernels`` keeps it with its level for a grid row, in a memo that hands
out read-only arrays (``read_only``), as ``unit_nodes`` hands out its nodes.
The same q^k series folded mod N serves a line against a circle: the
Gaussian family sums each line node's powers of rho / (s - c) once per row
and takes each level's row from one inverse FFT (``hermite._row``).  The
levels nest: the values on 2N nodes are those on N at the even indices
(``interleave``).

Lines carrying a Gaussian (exp(-u^2/2)) or exponential (exp(-beta*u))
weight use Gauss rules built from the classical orthonormal three-term
recurrences (Golub & Welsch, Math. Comp. 23, 1969): the nodes are the
eigenvalues of the symmetric tridiagonal Jacobi matrix, polished by one
Newton step on the recurrence, and the weights come from the Christoffel
sums evaluated in log space with overflow-safe rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import ExactMathError, as_fraction, as_int

MAX_LINE_NODES = 512
# (nodes, offset) pairs whose circle nodes are kept (``unit_nodes``)
UNIT_NODES_MEMO = 8
# rescale recurrence state beyond this bound so squares stay representable;
# Newton ratios are scale invariant and the tracked log-scale keeps the
# Christoffel sums meaningful
_RESCALE_AT = 1e150
_RESCALE_BY = 2.0**-1024
_RESCALE_LOG = -1024.0 * math.log(2.0)


class ContourError(RuntimeError):
    """No candidate contour can carry the kernel at this point."""


class ConvergenceError(RuntimeError):
    """Iteration hit its cap; carries the best value seen."""

    def __init__(self, message: str, best, delta: float, nodes: int):
        super().__init__(message)
        self.best = best
        self.delta = delta
        self.nodes = nodes


def read_only(*values) -> None:
    """Mark the ndarrays among values read-only, through nested tuples (None
    and scalars pass): a cached array is shared by every caller."""
    for value in values:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        elif isinstance(value, tuple):
            read_only(*value)


def interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The node values of a nested level from those of the level before
    (its even nodes) and those of the nodes it adds (its odd ones)."""
    out = np.empty(even.size + odd.size, dtype=complex)
    out[0::2], out[1::2] = even, odd
    return out


@lru_cache(maxsize=UNIT_NODES_MEMO)
def unit_nodes(nodes: int, offset: float) -> np.ndarray:
    """e^{2 pi i (j + offset) / nodes} for j < nodes, each within about an
    ulp: each angle splits into an exact quarter turn i^q and a remainder
    2 pi r with |r| <= 1/8, whose rounding is 8 times smaller than that of
    an angle up to 2 pi.  The remainder only scales by a power of two when
    the count and offset do, so nested and strided node sets keep their
    bits: unit_nodes(2N, 0)[1::2] is unit_nodes(N, 1/2) and
    unit_nodes(2N, 0)[::2] is unit_nodes(N, 0).  The contour routes use a
    handful of (nodes, offset) pairs, so the node sets are memoized and
    handed out read-only."""
    m = np.arange(nodes) + offset
    quarter = np.rint(4.0 * m / nodes)
    r = (4.0 * m - quarter * nodes) / (4.0 * nodes)
    w = np.array([1.0, 1j, -1.0, -1j])[quarter.astype(int) % 4] * np.exp(1j * (2.0 * math.pi * r))
    read_only(w)
    return w


def concentric_row(A: np.ndarray, r_s, r_t) -> np.ndarray:
    """row[j] = sum_i A[i] / (s_i - t_j) for N equispaced nodes on two
    circles around 0, s_i = r_s w^i and t_j = r_t w^j with w = e^{2 pi i / N}
    and r_s != r_t, so the node sum against any B on the t nodes is
    row @ B.  The nodes run along the last axis; the radii have the leading
    shape, and each row takes its own orientation.

    With Ahat = fft(A), q = min(r_s, r_t) / R and R = max(r_s, r_t), both
    orientations give row_j = sum_k c_k Ahat_{k+1} w^{kj}, one inverse FFT
    of c roll(Ahat, -1).  For r_s > r_t, expanding
    1/(s_i - t_j) = sum_m q^m w^{m(j-i) - i} / r_s and folding m mod N gives
    c_k = q^k / (R (1 - q^N)).  For r_s < r_t, expanding
    -1/(t_j (1 - s_i / t_j)) instead gives the terms
    -q^m Ahat_{-m} w^{-(m+1)j} / R; with k = N - 1 - m mod N,
    Ahat_{-m} = Ahat_{k+1} and w^{-(m+1)j} = w^{kj}, so they fold into the
    same sum with the coefficients reversed and negated,
    c_k = -q^{N-1-k} / (R (1 - q^N)).  The phase w^{-j} of the swapped
    rows thus costs no rounding and no second transform.
    """
    r_s, r_t = np.asarray(r_s, dtype=float), np.asarray(r_t, dtype=float)
    R = np.maximum(r_s, r_t)
    q = np.minimum(r_s, r_t) / R
    N = A.shape[-1]
    c = q[..., None] ** np.arange(N) / (R * (1.0 - q**N))[..., None]
    c = np.where((r_s < r_t)[..., None], -c[..., ::-1], c)
    F = np.fft.fft(A)
    return np.fft.ifft(c * np.concatenate((F[..., 1:], F[..., :1]), axis=-1), norm="forward")


# ---------------------------------------------------------------------------
# Gauss rules for exp(-u^2/2) on R and exp(-beta*u) on (0, inf)


@dataclass(frozen=True)
class LineRule:
    """Nodes and weights with sum_i weights[i] * f(nodes[i]) approximating
    integral f(u) * weight(u) du; exact for polynomials of degree <= 2N-1.

    lifted[i] = weights[i] * exp(+W(nodes[i])) (W the weight exponent) are
    computed in log space during generation, so integral g(u) du over the
    weight's support is sum_i lifted[i] * g(nodes[i]) without overflow.
    """

    nodes: np.ndarray
    weights: np.ndarray
    lifted: np.ndarray


def _jacobi_coeffs(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the n x n Jacobi matrix of the
    orthonormal recurrence x p_j = b_{j+1} p_{j+1} + a_j p_j + b_j p_{j-1}.

    gaussian (weight e^{-u^2/2}): a_j = 0, b_j = sqrt(j)
    exponential (weight e^{-u}):  a_j = 2j+1, b_j = j
    """
    if kind == "gaussian":
        return np.zeros(n), np.sqrt(np.arange(1.0, n))
    return 2.0 * np.arange(n) + 1.0, np.arange(1.0, n)


def _poly_eval(kind: str, n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate (p_n, p_n', log of the Christoffel sum) at x, vectorized,
    rescaling lanes whose recurrence values grow past the overflow guard."""
    x = np.asarray(x, dtype=float)
    a, off = _jacobi_coeffs(kind, n + 1)
    b = np.concatenate(([0.0], off))
    p = np.full_like(x, (2.0 * math.pi) ** -0.25 if kind == "gaussian" else 1.0)
    pm = np.zeros_like(x)
    dp = np.zeros_like(x)
    dpm = np.zeros_like(x)
    ssq = p * p
    logs = np.zeros_like(x)
    for j in range(n):
        p, pm = ((x - a[j]) * p - b[j] * pm) / b[j + 1], p
        dp, dpm = ((x - a[j]) * dp + pm - b[j] * dpm) / b[j + 1], dp
        if j < n - 1:
            ssq = ssq + p * p
        big = np.abs(p) > _RESCALE_AT
        if big.any():
            f = np.where(big, _RESCALE_BY, 1.0)
            p, pm, dp, dpm = p * f, pm * f, dp * f, dpm * f
            ssq = ssq * (f * f)
            logs = logs + np.where(big, _RESCALE_LOG, 0.0)
    return p, dp, np.log(ssq) - 2.0 * logs


def _gauss_rule(kind: str, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix; one
    Newton step on p_n polishes them to the recurrence's own roots."""
    diag, off = _jacobi_coeffs(kind, n)
    z = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    p, dp, _ = _poly_eval(kind, n, z)
    z = z - p / dp
    if kind == "gaussian":
        z[np.abs(z) < 1e-13] = 0.0
    _, _, log_ssq = _poly_eval(kind, n, z)
    with np.errstate(under="ignore"):
        weights = np.exp(-log_ssq)
        expo = 0.5 * z * z if kind == "gaussian" else z
        lifted = np.exp(expo - log_ssq)
    return z, weights, lifted


@lru_cache(maxsize=None)
def _line_rule_cached(kind: str, n: int, beta: Fraction) -> LineRule:
    nodes, weights, lifted = _gauss_rule(kind, n)
    if kind == "exponential":
        b = float(beta)
        if b != 1.0:
            nodes = nodes / b
            weights = weights / b
            lifted = lifted / b
    read_only(nodes, weights, lifted)
    return LineRule(nodes, weights, lifted)


def line_rule_nodes(kind: str, n: int, beta=1) -> LineRule:
    """Gauss rule of n nodes for the named weight.  kind is "gaussian"
    (exp(-u^2/2) on R) or "exponential" (exp(-beta*u) on (0, inf))."""
    if kind not in ("gaussian", "exponential"):
        raise ExactMathError(f"unknown line rule kind {kind!r}")
    n = as_int(n)
    if not 1 <= n <= MAX_LINE_NODES:
        raise ExactMathError(f"line rules support 1..{MAX_LINE_NODES} nodes, got {n}")
    beta = as_fraction(beta)
    if beta <= 0:
        raise ExactMathError(f"exponential rate must be > 0, got {beta}")
    return _line_rule_cached(kind, n, beta)
