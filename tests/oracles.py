"""Independent oracles for the test suite.

Everything here is deliberately built from first principles with plain
Fraction coefficient lists (ascending order) and exact Gaussian
elimination, sharing no series/residue machinery with the package:

- weight moments from the textbook recurrences (Gaussian m_j = (j-1) m_{j-2},
  Gamma by integration by parts),
- type II polynomials as solutions of the orthogonality linear system,
- type I coefficient vectors as solutions of the moment linear system,
- classical monic three-term recurrences for the m = 1 reductions,
- Hermitian eigenvalues by cyclic complex Jacobi rotations,
- Gauss nodes by 40-digit Newton steps on the monic He_n / L_n recurrences.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np

Poly = list[Fraction]  # ascending coefficients


# ---------------------------------------------------------------------------
# plain polynomial helpers


def pconst(c) -> Poly:
    return [Fraction(c)]


def pmul(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def padd(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    n = max(len(p), len(q))
    return [
        (p[i] if i < len(p) else Fraction(0)) + (q[i] if i < len(q) else Fraction(0))
        for i in range(n)
    ]


def pscale(p: Sequence[Fraction], c) -> Poly:
    c = Fraction(c)
    return [a * c for a in p]


def ptrim(p: Sequence[Fraction]) -> Poly:
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# exact weight moments


def gaussian_moment_oracle(j: int) -> Fraction:
    """E[X^j] for X ~ N(0,1) via the recurrence m_j = (j-1) m_{j-2}."""
    if j < 0:
        raise ValueError("negative moment order")
    if j % 2 == 1:
        return Fraction(0)
    m = Fraction(1)
    for k in range(2, j + 1, 2):
        m *= k - 1
    return m


def shifted_gaussian_moment(j: int, a: Fraction) -> Fraction:
    """E[(X + a)^j], binomial expansion over central moments."""
    a = Fraction(a)
    return sum(
        Fraction(math.comb(j, i)) * a**i * gaussian_moment_oracle(j - i)
        for i in range(j + 1)
    )


def gamma_moment_oracle(j: int, beta: Fraction) -> Fraction:
    """integral of x^j e^(-beta x) over (0, inf), by parts: I_j = (j/beta) I_{j-1}."""
    beta = Fraction(beta)
    if beta <= 0:
        raise ValueError("beta must be positive")
    val = Fraction(1, 1) / beta
    for k in range(1, j + 1):
        val = val * k / beta
    return val


# ---------------------------------------------------------------------------
# exact linear algebra


def solve_fraction_system(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Gaussian elimination with partial (first nonzero) pivoting, exact."""
    n = len(matrix)
    M = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


# ---------------------------------------------------------------------------
# multiple orthogonal polynomials via moment linear systems


def _component_moment(family: str, param: Fraction, p: int, order: int) -> Fraction:
    if family == "hermite":
        return shifted_gaussian_moment(order, param)
    return gamma_moment_oracle(order + p, param)


def type_ii_oracle(family: str, params: Sequence, n_parts: Sequence[int], p: int = 0) -> Poly:
    """Monic degree-|n| polynomial killing x^j (j < n_k) against weight k,
    found by solving the orthogonality system exactly."""
    params = [Fraction(v) for v in params]
    w = sum(n_parts)
    if w == 0:
        return [Fraction(1)]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for k, nk in enumerate(n_parts):
        for j in range(nk):
            rows.append(
                [_component_moment(family, params[k], p, i + j) for i in range(w)]
            )
            rhs.append(-_component_moment(family, params[k], p, w + j))
    coeffs = solve_fraction_system(rows, rhs)
    return coeffs + [Fraction(1)]


def type_i_oracle(
    family: str, params: Sequence, n_parts: Sequence[int], p: int = 0
) -> list[Poly]:
    """Per-component coefficient vectors of the normalized linear form.

    For the Gaussian family the k-th returned vector is the coefficients of
    C_k where the form term is (2*pi)^(-1/2) e^(-a_k^2/2) C_k(x) w_k(x); for
    the half-line family it is the coefficients of A_k directly.  Both make
    the moment conditions integral(form * x^j) = delta_{j,|n|-1} rational.
    """
    params = [Fraction(v) for v in params]
    w = sum(n_parts)
    if w < 1:
        raise ValueError("need |n| >= 1")
    slots = [(k, i) for k, nk in enumerate(n_parts) for i in range(nk)]
    rows = []
    rhs = []
    for j in range(w):
        rows.append(
            [_component_moment(family, params[k], p, i + j) for (k, i) in slots]
        )
        rhs.append(Fraction(1) if j == w - 1 else Fraction(0))
    sol = solve_fraction_system(rows, rhs)
    vectors: list[Poly] = []
    pos = 0
    for nk in n_parts:
        vectors.append(list(sol[pos : pos + nk]))
        pos += nk
    return vectors


# ---------------------------------------------------------------------------
# classical three-term recurrences (monic, adapted measures)


def hermite_recurrence_oracle(a: Fraction, degree: int) -> Poly:
    """Monic orthogonal polynomial for weight e^(-x^2/2 + a x):
    P_{k+1} = (x - a) P_k - k P_{k-1}."""
    a = Fraction(a)
    prev: Poly = [Fraction(1)]
    if degree == 0:
        return prev
    cur: Poly = [-a, Fraction(1)]
    for k in range(1, degree):
        nxt = padd(pmul([-a, Fraction(1)], cur), pscale(prev, -k))
        prev, cur = cur, nxt
    return cur


def laguerre_recurrence_oracle(beta: Fraction, p: int, degree: int) -> Poly:
    """Monic orthogonal polynomial for weight x^p e^(-beta x) on (0, inf):
    P_{k+1} = (x - (2k+p+1)/beta) P_k - k(k+p)/beta^2 P_{k-1}."""
    beta = Fraction(beta)
    prev: Poly = [Fraction(1)]
    if degree == 0:
        return prev
    cur: Poly = [Fraction(-(p + 1), 1) / beta, Fraction(1)]
    for k in range(1, degree):
        b_k = Fraction(2 * k + p + 1) / beta
        c_k = Fraction(k * (k + p)) / beta**2
        nxt = padd(pmul([-b_k, Fraction(1)], cur), pscale(prev, -c_k))
        prev, cur = cur, nxt
    return cur


# ---------------------------------------------------------------------------
# Hermitian eigenvalues

JACOBI_TOL = 1e-12


def jacobi_eigenvalues(A: np.ndarray) -> np.ndarray:
    """Cyclic complex Jacobi on a Hermitian matrix (trusted input), the
    independent oracle for the samplers' LAPACK eigensolve.

    Each rotation phases the pivot entry real, then applies the classical
    symmetric rotation that annihilates it; sweeps repeat until the
    off-diagonal Frobenius norm falls below JACOBI_TOL times the matrix
    norm.  Returns eigenvalues sorted ascending.
    """
    n = A.shape[0]
    if n == 1:
        return A.real.ravel().copy()
    A = A.copy()
    scale = float(np.linalg.norm(A.ravel()))
    if scale == 0.0:
        return np.zeros(n)
    for _ in range(40):
        off = A.copy()
        off[np.diag_indices(n)] = 0.0
        if float(np.linalg.norm(off.ravel())) <= JACOBI_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                r = abs(apq)
                if r <= 1e-300:
                    continue
                phase = apq / r
                tau = (A[q, q].real - A[p, p].real) / (2.0 * r)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                # columns: A <- A U, with U = [[c, s], [-s e^{-i phi}, c e^{-i phi}]]
                col_p = c * A[:, p] - s * np.conj(phase) * A[:, q]
                col_q = s * A[:, p] + c * np.conj(phase) * A[:, q]
                A[:, p], A[:, q] = col_p, col_q
                # rows: A <- U* A
                row_p = c * A[p, :] - s * phase * A[q, :]
                row_q = s * A[p, :] + c * phase * A[q, :]
                A[p, :], A[q, :] = row_p, row_q
                A[p, q] = 0.0
                A[q, p] = 0.0
    else:
        raise RuntimeError("Jacobi sweep limit reached without convergence")
    lam = np.sort(A.diagonal().real)
    return lam


# ---------------------------------------------------------------------------
# Gauss nodes


def gauss_node_oracle(kind: str, n: int, guesses: Sequence[float]) -> list[mpmath.mpf]:
    """Roots of the monic degree-n orthogonal polynomial as mpmath numbers:
    three Newton steps at 40 digits from the given float guesses, with p and
    p' from the monic three-term recurrence

      "gaussian"    (He, weight e^{-x^2/2}):  p_{j+1} = x p_j - j p_{j-1}
      "exponential" (L, weight e^{-x}):       p_{j+1} = (x - 2j - 1) p_j - j^2 p_{j-1}.
    """
    roots = []
    with mpmath.workdps(40):
        for guess in guesses:
            x = mpmath.mpf(guess)
            for _ in range(3):
                p, pm, dp, dpm = mpmath.mpf(1), 0, 0, 0
                for j in range(n):
                    u, b = (x, j) if kind == "gaussian" else (x - (2 * j + 1), j * j)
                    p, pm, dp, dpm = u * p - b * pm, p, u * dp + p - b * dpm, dp
                x -= p / dp
            roots.append(x)
    return roots
