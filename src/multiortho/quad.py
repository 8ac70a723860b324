"""Quadrature primitives for the double-contour kernel integrals.

Circles use the periodic trapezoid rule, which is spectrally accurate for
analytic integrands.  Lines carrying a Gaussian (exp(-u^2/2)) or exponential
(exp(-beta*u)) weight use Gauss rules built from the classical orthonormal
three-term recurrences (Golub & Welsch, Math. Comp. 23, 1969): the nodes are
the eigenvalues of the symmetric tridiagonal Jacobi matrix, polished by one
Newton step on the recurrence, and the weights come from the Christoffel
sums evaluated in log space with overflow-safe rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import ExactMathError, as_fraction

MAX_LINE_NODES = 512
# rescale recurrence state beyond this bound so squares stay representable;
# Newton ratios are scale invariant and the tracked log-scale keeps the
# Christoffel sums meaningful
_RESCALE_AT = 1e150
_RESCALE_BY = 2.0**-1024
_RESCALE_LOG = -1024.0 * math.log(2.0)


class ContourError(ExactMathError):
    """Invalid contour geometry or node configuration."""


class ConvergenceError(RuntimeError):
    """Iteration hit its cap; carries the best value seen."""

    def __init__(self, message: str, best, delta: float, nodes: int):
        super().__init__(message)
        self.best = best
        self.delta = delta
        self.nodes = nodes


# Column-chunk bound so the 1/(s - t) node matrix never exceeds ~64 MB.
_CHUNK_ENTRIES = 4_000_000


def bilinear_sum(A: np.ndarray, s: np.ndarray, t: np.ndarray, B: np.ndarray) -> complex:
    """sum_{i,j} A[i] * B[j] / (s[i] - t[j]), the double-contour node sum, with
    bounded memory and summed in a fixed chunk order for determinism."""
    cols = max(1, _CHUNK_ENTRIES // max(1, s.size))
    total = 0.0 + 0.0j
    for j0 in range(0, t.size, cols):
        block = 1.0 / (s[:, None] - t[None, j0 : j0 + cols])
        total += complex(A @ block @ B[j0 : j0 + cols])
    return total


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

    kind: str
    beta: Fraction
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
    for arr in (nodes, weights, lifted):
        arr.setflags(write=False)
    return LineRule(kind, beta, nodes, weights, lifted)


def line_rule_nodes(kind: str, n: int, beta=1) -> LineRule:
    """Gauss rule of n nodes for the named weight.  kind is "gaussian"
    (exp(-u^2/2) on R) or "exponential" (exp(-beta*u) on (0, inf))."""
    if kind not in ("gaussian", "exponential"):
        raise ContourError(f"unknown line rule kind {kind!r}")
    if not 1 <= n <= MAX_LINE_NODES:
        raise ContourError(f"line rules support 1..{MAX_LINE_NODES} nodes, got {n}")
    beta = as_fraction(beta)
    if beta <= 0:
        raise ContourError(f"exponential rate must be > 0, got {beta}")
    return _line_rule_cached(kind, n, beta)
