"""Monte Carlo validation of the kernel predictions.

Samplers for the two matrix ensembles whose eigenvalue processes the
kernels describe:

- Gaussian Hermitian matrices plus a fixed diagonal source: M = H + diag(a)
  with H drawn from density exp(-Tr H^2 / 2), one a_k repeated n_k times;
- complex sample-covariance matrices M = X X^H where the n x (n+p) matrix X
  has independent complex-Gaussian columns with covariance diag(1/beta_k),
  each beta_k repeated n_k times.

Eigenvalues come from LAPACK's Hermitian solver (``np.linalg.eigvalsh``),
called once per chunk of at most CHUNK_BYTES of matrices; the test suite
checks it against an independent cyclic Jacobi solver.  ``compare_density``
tests the empirical spectral density against the kernel prediction
K(x, x) / |n| with a chi-square statistic, at a threshold the package
computes itself (``chi2_quantile``, standard library only).

Reproducibility: sample i draws from its own counter-based substream,
Philox keyed by the seed with counter [0, 0, i, 0], which is the state
``Philox(key=seed).jumped(i)`` reaches (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11).  Batches are bit-identical for a
fixed seed regardless of batch size or chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterator, Sequence

import numpy as np

from .core import Spec
from .hermite import HermiteSpec
from .kernels import KernelModel, eval_cd_diagonal, family_module
from .laguerre import LaguerreSpec

MAX_EIGEN_DIM = 64
MIN_EXPECTED_COUNT = 10.0
CHI2_CONFIDENCE = 0.99

# Complex matrix storage per eigensolve chunk.  Peak sampler memory is a
# small multiple of this (draws, matrices, LAPACK output) plus the
# (samples, |n|) result, whatever the sample count.
CHUNK_BYTES = 8 << 20

# 3-point Gauss-Legendre rule on [-1, 1], used to integrate the predicted
# density over each histogram bin.
_GL3_NODES = (-math.sqrt(0.6), 0.0, math.sqrt(0.6))
_GL3_WEIGHTS = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)

# Stirling series of log Gamma(a) - ((a - 1/2) log a - a + log(2 pi) / 2):
# the coefficients of 1/a, 1/a^3, ..., 1/a^9.  Used from a = 15, where the
# first omitted term is below 2.2e-16.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
_STIRLING_FROM = 15.0
_NEWTON_STEPS = 50
_EPS = math.ulp(1.0)
_TINY = 1e-300


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


class Substreams:
    """The per-sample Philox substreams of one seed.

    One bit generator is reset to counter [0, 0, i, 0] with an empty output
    buffer for each sample, instead of being built and jumped i times.
    """

    def __init__(self, seed: int):
        self.bit_generator = np.random.Philox(key=seed)
        self._state = self.bit_generator.state
        self._counter = self._state["state"]["counter"]
        self._generator = np.random.Generator(self.bit_generator)

    def at(self, index: int) -> np.random.Generator:
        """The generator at the start of substream index (0 <= index < 2**64)."""
        self._counter[2] = index
        self.bit_generator.state = self._state
        return self._generator

    def normals(self, start: int, out: np.ndarray) -> np.ndarray:
        """Row j of out <- the first standard normals of substream start + j."""
        for j, row in enumerate(out, start):
            self.at(j).standard_normal(out=row)
        return out


def _repeat_parts(values, n: "Sequence[int]") -> np.ndarray:
    return np.repeat([float(v) for v in values], list(n))


def _check_dimension(d: int) -> None:
    if d > MAX_EIGEN_DIM:
        raise ValueError(f"dimension {d} exceeds the eigensolver limit {MAX_EIGEN_DIM}")


def _chunks(samples: int, bytes_per_sample: int) -> Iterator[tuple[int, int]]:
    size = max(1, CHUNK_BYTES // bytes_per_sample)
    for start in range(0, samples, size):
        yield start, min(start + size, samples)


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
    _check_dimension(d)
    source = _repeat_parts(spec.a, spec.n)
    iu, ju = np.triu_indices(d, k=1)
    n_off = iu.size
    diag = np.arange(d)
    streams = Substreams(cfg.seed)
    out = np.empty((cfg.samples, d))
    for start, stop in _chunks(cfg.samples, 16 * d * d):
        z = streams.normals(start, np.empty((stop - start, d + 2 * n_off)))
        off = z[:, d:] * math.sqrt(0.5)
        # eigvalsh reads the lower triangle only: M[j, i] = conj(M[i, j]).
        M = np.zeros((stop - start, d, d), dtype=complex)
        M.real[:, ju, iu] = off[:, :n_off]
        M.imag[:, ju, iu] = -off[:, n_off:]
        M.real[:, diag, diag] = z[:, :d] + source
        out[start:stop] = np.linalg.eigvalsh(M, UPLO="L")
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
    _check_dimension(d)
    cols = d + spec.p
    row_scale = (1.0 / np.sqrt(_repeat_parts(spec.beta, spec.n)))[:, None]
    streams = Substreams(cfg.seed)
    out = np.empty((cfg.samples, d))
    for start, stop in _chunks(cfg.samples, 16 * d * (d + cols)):
        z = streams.normals(start, np.empty((stop - start, 2 * d * cols)))
        z *= math.sqrt(0.5)
        X = (z[:, : d * cols] + 1j * z[:, d * cols :]).reshape(-1, d, cols) * row_scale
        M = X @ X.conj().swapaxes(1, 2)
        lam = np.linalg.eigvalsh(M, UPLO="L")
        np.maximum(lam, 0.0, out=lam)
        out[start:stop] = lam
    return out


# The sampler of each family's matrix ensemble.
SAMPLERS = {"hermite": sample_gue_source, "laguerre": sample_wishart}


def _gamma_scale(a: float, y: float) -> float:
    """y^a e^{-y} / Gamma(a), to a few ulps for every a: the direct
    exponent a log y - y - lgamma(a) cancels to within a*eps of itself,
    so large a goes through the Stirling form around y = a."""
    if a < _STIRLING_FROM:
        return math.exp(a * math.log(y) - y - math.lgamma(a))
    mu = 0.0
    for c in reversed(_STIRLING):
        mu = mu / (a * a) + c
    d = y - a
    log_ratio = math.log1p(d / a) if abs(d) < 0.5 * a else math.log(y / a)
    return math.sqrt(a / (2.0 * math.pi)) * math.exp(a * log_ratio - d - mu / a)


def _gamma_tails(a: float, y: float) -> tuple[float, float, float]:
    """(P, Q, y^a e^{-y} / Gamma(a)) for the regularized incomplete gamma
    functions P(a, y) + Q(a, y) = 1: P by its power series below a + 1, Q by
    its continued fraction (modified Lentz) above (Press et al., Numerical
    Recipes, section 6.2)."""
    scale = _gamma_scale(a, y)
    if y < a + 1.0:
        term = total = 1.0 / a
        k = a
        while abs(term) > abs(total) * _EPS:
            k += 1.0
            term *= y / k
            total += term
        lower = scale * total
        return lower, 1.0 - lower, scale
    b = y + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    frac = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) >= _TINY else _TINY
        frac *= d * c
        if abs(d * c - 1.0) <= _EPS:
            break
    upper = scale * frac
    return 1.0 - upper, upper, scale


def chi2_quantile(p: float, dof: int) -> float:
    """The p-quantile of chi-square with dof degrees of freedom, 0 < p < 1.

    Starts from Wilson and Hilferty's cube-root normal approximation (PNAS 17,
    1931) and takes Newton steps on y = x / 2 against the tail of gamma(dof / 2)
    that p leaves the smaller: log P(a, y) against log y when p <= 1/2, and
    log Q(a, y) against y above.  Within a few ulps of a 40-digit root for
    dof up to 1000 at p = 0.05, 0.5 and 0.99 (tests/test_rmt.py); raises
    ArithmeticError where the root or its tail probability underflows.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level {p} is not in (0, 1)")
    if dof < 1:
        raise ValueError(f"need at least one degree of freedom, got {dof}")
    a = 0.5 * dof
    v = 2.0 / (9.0 * dof)
    y = a * max(1.0 - v + NormalDist().inv_cdf(p) * math.sqrt(v), 0.0) ** 3
    if p <= 0.5:
        # P(a, y) <= y^a / Gamma(a + 1), so this start is at or below the
        # root; it beats Wilson-Hilferty in the far lower tail.
        y = max(y, math.exp((math.log(p) + math.lgamma(a + 1.0)) / a))
    for _ in range(_NEWTON_STEPS):
        if y <= 0.0:
            break
        lower, upper, scale = _gamma_tails(a, y)
        tail, target = (lower, p) if p <= 0.5 else (upper, 1.0 - p)
        if tail <= 0.0 or scale <= 0.0:
            break
        step = (math.log(tail) - math.log(target)) * tail / scale
        if p <= 0.5:
            y *= math.exp(-step)
        else:
            y = y + step * y if step > -1.0 else 0.5 * y
        if abs(step) <= 1e-12:
            return 2.0 * y
    raise ArithmeticError(f"chi-square quantile at p={p}, dof={dof} underflows")


def chi_square_statistic(observed: np.ndarray, expected: np.ndarray) -> tuple[float, int]:
    """Pearson chi-square over the bins whose expected count reaches
    MIN_EXPECTED_COUNT; returns (statistic, number of bins used)."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    use = expected >= MIN_EXPECTED_COUNT
    dof = int(use.sum())
    if dof == 0:
        return 0.0, 0
    diff = observed[use] - expected[use]
    return float(np.sum(diff * diff / expected[use])), dof


def predicted_bin_masses(K: KernelModel, edges: np.ndarray) -> np.ndarray:
    """integral(K(x,x)/|n| dx) over each bin by 3-point Gauss-Legendre, with
    the kernel evaluated at all 3 * bins nodes in one array pass."""
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * np.array(_GL3_NODES)
    values = eval_cd_diagonal(K, nodes.ravel()).reshape(nodes.shape)
    acc = 0.0
    for j, gw in enumerate(_GL3_WEIGHTS):
        acc = acc + gw * values[:, j]
    return acc * half / K.spec.n.weight


def compare_density(batch: np.ndarray, K: KernelModel, cfg: EnsembleConfig) -> DensityComparison:
    """Chi-square comparison of the empirical eigenvalue density against the
    kernel prediction K(x, x) / |n|.

    Expected counts are S * |n| times the predicted bin masses; the verdict
    is "pass"/"reject" at the CHI2_CONFIDENCE quantile of chi-square with
    one degree of freedom per qualifying bin, computed in-package by
    ``chi2_quantile`` ("insufficient-samples" when
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
        threshold = chi2_quantile(CHI2_CONFIDENCE, dof)
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
