"""Matrix-ensemble samplers, the Jacobi eigensolver, and the chi-square
density comparison."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiortho import rmt
from multiortho.hermite import HermiteSpec
from multiortho.kernels import build_kernel
from multiortho.laguerre import LaguerreSpec

H11 = HermiteSpec.of([1, -1], [1, 1])
L11 = LaguerreSpec.of([1, 2], [1, 1], 0)


def hermite_cfg(spec, samples, seed):
    return rmt.EnsembleConfig("hermite", spec, samples, seed, (-4.0, 4.0), 40)


def laguerre_cfg(spec, samples, seed):
    return rmt.EnsembleConfig("laguerre", spec, samples, seed, (0.05, 6.0), 40)


# ---------------------------------------------------------------------------
# eigensolver


def test_eigen_diagonal():
    vals = rmt._jacobi_eigenvalues(np.diag([2.0, 3.0]).astype(complex))
    assert list(vals) == pytest.approx([2, 3])


def test_eigen_offdiagonal():
    vals = rmt._jacobi_eigenvalues(np.array([[0, 1], [1, 0]], dtype=complex))
    assert list(vals) == pytest.approx([-1, 1], abs=1e-12)


def test_eigen_trace_and_frobenius_oracle():
    rng = np.random.Generator(np.random.Philox(key=11))
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    M = 0.5 * (z + z.conj().T)
    vals = rmt._jacobi_eigenvalues(M)
    assert vals.sum() == pytest.approx(np.trace(M).real, abs=1e-10)
    assert (vals**2).sum() == pytest.approx(np.linalg.norm(M, "fro") ** 2, abs=1e-10)
    assert np.all(np.diff(vals) >= 0)


def test_eigen_dimension_cap():
    big = [rmt.MAX_EIGEN_DIM // 2 + 1, rmt.MAX_EIGEN_DIM // 2]
    with pytest.raises(ValueError, match="eigensolver limit"):
        rmt.sample_gue_source(hermite_cfg(HermiteSpec.of([1, -1], big), 1, 0))
    with pytest.raises(ValueError, match="eigensolver limit"):
        rmt.sample_wishart(laguerre_cfg(LaguerreSpec.of([1, 2], big, 0), 1, 0))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_eigen_matches_trace_identities(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    M = 0.5 * (z + z.conj().T)
    vals = rmt._jacobi_eigenvalues(M)
    assert vals.sum() == pytest.approx(np.trace(M).real, abs=1e-9)
    assert (vals**2).sum() == pytest.approx((np.abs(M) ** 2).sum(), abs=1e-9)


# ---------------------------------------------------------------------------
# samplers


def test_gue_mean_zero_source_free():
    spec = HermiteSpec.of([0], [1])
    cfg = hermite_cfg(spec, 100_000, 1)
    batch = rmt.sample_gue_source(cfg)
    assert batch.shape == (100_000, 1)
    assert float(batch.mean()) == pytest.approx(0.0, abs=0.01)


def test_gue_source_trace_moments():
    cfg = hermite_cfg(H11, 100_000, 2)
    batch = rmt.sample_gue_source(cfg)
    traces = batch.sum(axis=1)
    assert float(traces.mean()) == pytest.approx(0.0, abs=0.02)
    assert float(traces.var()) == pytest.approx(2.0, abs=0.05)


def test_wishart_mean_and_positivity():
    spec = LaguerreSpec.of([1], [1], 0)
    cfg = laguerre_cfg(spec, 100_000, 3)
    batch = rmt.sample_wishart(cfg)
    assert float(batch.mean()) == pytest.approx(1.0, abs=0.01)
    assert float(batch.min()) >= 0.0

    spec2 = LaguerreSpec.of([1], [1], 1)
    cfg2 = laguerre_cfg(spec2, 100_000, 4)
    batch2 = rmt.sample_wishart(cfg2)
    assert float(batch2.mean()) == pytest.approx(2.0, abs=0.02)


def test_sampler_determinism():
    cfg = hermite_cfg(H11, 500, 42)
    a = rmt.sample_gue_source(cfg)
    b = rmt.sample_gue_source(cfg)
    assert np.array_equal(a, b)
    lcfg = laguerre_cfg(L11, 500, 42)
    c = rmt.sample_wishart(lcfg)
    d = rmt.sample_wishart(lcfg)
    assert np.array_equal(c, d)


def test_substreams_are_independent_of_batch_split():
    """Sample i depends only on (seed, i), not on how many samples are drawn."""
    big = rmt.sample_gue_source(hermite_cfg(H11, 50, 9))
    small = rmt.sample_gue_source(hermite_cfg(H11, 10, 9))
    assert np.array_equal(big[:10], small)


def test_config_validation():
    with pytest.raises(ValueError):
        rmt.EnsembleConfig("hermite", L11, 10, 0, (-4.0, 4.0), 40)
    with pytest.raises(ValueError):
        rmt.EnsembleConfig("hermite", H11, 0, 0, (-4.0, 4.0), 40)
    with pytest.raises(ValueError):
        rmt.EnsembleConfig("hermite", H11, 10, 0, (4.0, -4.0), 40)


# ---------------------------------------------------------------------------
# chi-square machinery


def test_chi_square_zero_on_identical():
    counts = np.full(10, 50.0)
    stat, dof = rmt.chi_square_statistic(counts, counts)
    assert stat == 0.0
    assert dof == 10


def test_chi_square_skips_thin_bins():
    observed = np.array([50.0, 1.0])
    expected = np.array([50.0, 0.5])
    stat, dof = rmt.chi_square_statistic(observed, expected)
    assert dof == 1
    assert stat == 0.0


def test_predicted_masses_sum_to_one_over_support():
    K = build_kernel("hermite", H11)
    edges = np.linspace(-8, 8, 161)
    masses = rmt.predicted_bin_masses(K, edges)
    assert float(masses.sum()) == pytest.approx(1.0, abs=1e-6)


def test_density_comparison_pass_and_determinism():
    cfg = hermite_cfg(H11, 20_000, 91)
    batch = rmt.sample_gue_source(cfg)
    K = build_kernel("hermite", H11)
    cmp1 = rmt.compare_density(batch, K, cfg)
    cmp2 = rmt.compare_density(batch, K, cfg)
    assert cmp1.verdict == "pass"
    assert cmp1.chi_square == cmp2.chi_square
    assert cmp1.dof == 40
    width = 8.0 / 40
    assert float(cmp1.empirical.sum() * width) == pytest.approx(1.0, rel=1e-12)


def test_density_negative_control_rejects():
    cfg = hermite_cfg(H11, 20_000, 91)
    batch = rmt.sample_gue_source(cfg)
    wrong = build_kernel("hermite", HermiteSpec.of([2, -2], [1, 1]))
    cmp = rmt.compare_density(batch, wrong, cfg)
    assert cmp.verdict == "reject"
    assert cmp.chi_square > cmp.threshold


def test_density_insufficient_samples():
    cfg = hermite_cfg(H11, 10, 5)
    batch = rmt.sample_gue_source(cfg)
    K = build_kernel("hermite", H11)
    cmp = rmt.compare_density(batch, K, cfg)
    assert cmp.verdict == "insufficient-samples"
    assert cmp.dof == 0
