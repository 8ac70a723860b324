"""Monte Carlo validation of the kernel predictions.

Samplers for the two matrix ensembles whose eigenvalue processes the
kernels describe:

- Gaussian Hermitian matrices plus a fixed diagonal source: M = H + diag(a)
  with H drawn from density exp(-Tr H^2 / 2), one a_k repeated n_k times;
- complex sample-covariance matrices M = X X^H where the n x (n+p) matrix X
  has independent complex-Gaussian columns with covariance diag(1/beta_k),
  each beta_k repeated n_k times.

Eigenvalues come from a self-contained cyclic Jacobi solver (no external
eigenroutine), and ``compare_density`` tests the empirical spectral density
against the kernel prediction K(x, x) / |n| with a chi-square statistic.

Reproducibility: each sample i uses its own counter-based substream
(Philox keyed by the seed, jumped i times), so batches are bit-identical
for a fixed seed regardless of batching or parallel plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.stats import chi2 as _chi2_dist

from .hermite import HermiteSpec
from .kernels import KernelModel, eval_cd, family_module
from .laguerre import LaguerreSpec

Spec = Union[HermiteSpec, LaguerreSpec]

MAX_EIGEN_DIM = 64
JACOBI_TOL = 1e-12
MIN_EXPECTED_COUNT = 10.0
CHI2_CONFIDENCE = 0.99

# 3-point Gauss-Legendre rule on [-1, 1], used to integrate the predicted
# density over each histogram bin.
_GL3_NODES = (-math.sqrt(0.6), 0.0, math.sqrt(0.6))
_GL3_WEIGHTS = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)


@dataclass(frozen=True)
class EnsembleConfig:
    """Sampling plan: which spec, how many samples, the seed, and the
    histogram geometry used by the density comparison."""

    family: str
    spec: Spec
    samples: int
    seed: int
    bin_range: tuple[float, float]
    bin_count: int

    def __post_init__(self) -> None:
        family_module(self.family, self.spec)
        if self.samples < 1:
            raise ValueError("need at least one sample")
        lo, hi = self.bin_range
        if not (lo < hi):
            raise ValueError(f"empty bin range {self.bin_range}")
        if self.bin_count < 1:
            raise ValueError("need at least one bin")


@dataclass(frozen=True, eq=False)
class DensityComparison:
    """Per-bin empirical vs predicted density and the chi-square verdict.

    empirical is normalized over the in-range eigenvalues (it integrates to
    one across the bins); expected counts use the unconditional prediction
    S * n * integral(K(x,x)/|n| dx) over each bin.  Bins enter the
    chi-square only when their expected count is at least
    MIN_EXPECTED_COUNT; verdict is "insufficient-samples" when none does.
    """

    bin_centers: np.ndarray
    empirical: np.ndarray
    predicted: np.ndarray
    stderr: np.ndarray
    observed_counts: np.ndarray
    expected_counts: np.ndarray
    chi_square: float
    dof: int
    threshold: float
    verdict: str


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


def _repeat_parts(values, n: "Sequence[int]") -> np.ndarray:
    return np.repeat([float(v) for v in values], list(n))


def sample_gue_source(cfg: EnsembleConfig) -> np.ndarray:
    """Eigenvalue batch of M = H + diag(a), shape (samples, |n|), each row
    sorted ascending.

    Draw order per sample: the d diagonal entries, then the real parts of
    the strict upper triangle (row-major), then the imaginary parts.
    Off-diagonal real/imaginary parts have variance 1/2, matching the
    density exp(-Tr H^2 / 2).
    """
    if cfg.family != HermiteSpec.family:
        raise ValueError("sample_gue_source needs a hermite config")
    spec: HermiteSpec = cfg.spec
    d = spec.n.weight
    if d > MAX_EIGEN_DIM:
        raise ValueError(f"dimension {d} exceeds the eigensolver limit {MAX_EIGEN_DIM}")
    source = _repeat_parts(spec.a, spec.n)
    iu, ju = np.triu_indices(d, k=1)
    n_off = iu.size
    out = np.empty((cfg.samples, d))
    for i in range(cfg.samples):
        g = _substream(cfg.seed, i)
        diag = g.standard_normal(d)
        z = g.standard_normal(2 * n_off) * math.sqrt(0.5)
        M = np.zeros((d, d), dtype=complex)
        M[iu, ju] = z[:n_off] + 1j * z[n_off:]
        M += M.conj().T
        M[np.diag_indices(d)] = diag + source
        out[i] = _jacobi_eigenvalues(M)
    return out


def sample_wishart(cfg: EnsembleConfig) -> np.ndarray:
    """Eigenvalue batch of M = X X^H, shape (samples, |n|), rows sorted
    ascending, clamped at 0 (M is positive semidefinite by construction).

    X is |n| x (|n| + p); draw order per sample: all real parts of X
    (row-major), then all imaginary parts.  Row i of X is scaled by
    1/sqrt(beta at row i), giving column covariance diag(1/beta_k).
    """
    if cfg.family != LaguerreSpec.family:
        raise ValueError("sample_wishart needs a laguerre config")
    spec: LaguerreSpec = cfg.spec
    d = spec.n.weight
    if d > MAX_EIGEN_DIM:
        raise ValueError(f"dimension {d} exceeds the eigensolver limit {MAX_EIGEN_DIM}")
    cols = d + spec.p
    row_scale = (1.0 / np.sqrt(_repeat_parts(spec.beta, spec.n)))[:, None]
    out = np.empty((cfg.samples, d))
    for i in range(cfg.samples):
        g = _substream(cfg.seed, i)
        z = g.standard_normal(2 * d * cols) * math.sqrt(0.5)
        X = (z[: d * cols] + 1j * z[d * cols :]).reshape(d, cols) * row_scale
        M = X @ X.conj().T
        M = 0.5 * (M + M.conj().T)
        lam = _jacobi_eigenvalues(M)
        np.maximum(lam, 0.0, out=lam)
        out[i] = lam
    return out


# The sampler of each family's matrix ensemble.
SAMPLERS = {"hermite": sample_gue_source, "laguerre": sample_wishart}


def _jacobi_eigenvalues(A: np.ndarray) -> np.ndarray:
    """Cyclic complex Jacobi on a Hermitian matrix (trusted input).

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


def chi_square_statistic(
    observed: np.ndarray, expected: np.ndarray, min_expected: float = MIN_EXPECTED_COUNT
) -> tuple[float, int]:
    """Pearson chi-square over the bins whose expected count reaches
    min_expected; returns (statistic, number of bins used)."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    use = expected >= min_expected
    dof = int(use.sum())
    if dof == 0:
        return 0.0, 0
    diff = observed[use] - expected[use]
    return float(np.sum(diff * diff / expected[use])), dof


def predicted_bin_masses(K: KernelModel, edges: np.ndarray) -> np.ndarray:
    """integral(K(x,x)/|n| dx) over each bin by 3-point Gauss-Legendre."""
    w = K.spec.n.weight
    masses = np.empty(edges.size - 1)
    for b in range(masses.size):
        lo, hi = float(edges[b]), float(edges[b + 1])
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        acc = 0.0
        for u, gw in zip(_GL3_NODES, _GL3_WEIGHTS):
            acc += gw * eval_cd(K, mid + half * u, mid + half * u)
        masses[b] = acc * half / w
    return masses


def compare_density(batch: np.ndarray, K: KernelModel, cfg: EnsembleConfig) -> DensityComparison:
    """Chi-square comparison of the empirical eigenvalue density against the
    kernel prediction K(x, x) / |n|.

    Expected counts are S * |n| times the predicted bin masses; the verdict
    is "pass"/"reject" at the CHI2_CONFIDENCE quantile of chi-square with
    one degree of freedom per qualifying bin ("insufficient-samples" when
    no bin qualifies).  Eigenvalue repulsion makes bin counts
    under-dispersed relative to Poisson, so the test is conservative.
    """
    values = np.asarray(batch, dtype=float).ravel()
    lo, hi = cfg.bin_range
    edges = np.linspace(lo, hi, cfg.bin_count + 1)
    counts, _ = np.histogram(values, bins=edges)
    counts = counts.astype(float)
    width = edges[1] - edges[0]
    centers = 0.5 * (edges[:-1] + edges[1:])

    in_range = float(counts.sum())
    empirical = counts / (in_range * width) if in_range > 0 else np.zeros_like(counts)

    total = float(values.size)
    masses = predicted_bin_masses(K, edges)
    expected = total * masses
    predicted = masses / width
    stderr = np.sqrt(np.maximum(expected, 0.0)) / max(in_range, 1.0) / width

    stat, dof = chi_square_statistic(counts, expected)
    if dof == 0:
        verdict, threshold = "insufficient-samples", math.nan
    else:
        threshold = float(_chi2_dist.ppf(CHI2_CONFIDENCE, dof))
        verdict = "pass" if stat <= threshold else "reject"
    return DensityComparison(
        bin_centers=centers,
        empirical=empirical,
        predicted=predicted,
        stderr=stderr,
        observed_counts=counts,
        expected_counts=expected,
        chi_square=stat,
        dof=dof,
        threshold=threshold,
        verdict=verdict,
    )
