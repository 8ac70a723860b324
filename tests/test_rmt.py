"""Matrix-ensemble samplers against the Jacobi oracle, their Philox
substreams and chunking, and the chi-square density comparison."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiortho import rmt
from multiortho.core import ExactMathError
from multiortho.hermite import HermiteSpec
from multiortho.kernels import build_kernel, eval_cd
from multiortho.laguerre import LaguerreSpec
from oracles import jacobi_eigenvalues

H11 = HermiteSpec.of([1, -1], [1, 1])
L11 = LaguerreSpec.of([1, 2], [1, 1], 0)


def hermite_cfg(spec, samples, seed):
    return rmt.EnsembleConfig("hermite", spec, samples, seed, (-4.0, 4.0), 40)


def laguerre_cfg(spec, samples, seed):
    return rmt.EnsembleConfig("laguerre", spec, samples, seed, (0.05, 6.0), 40)


# ---------------------------------------------------------------------------
# Jacobi oracle


def test_eigen_diagonal():
    vals = jacobi_eigenvalues(np.diag([2.0, 3.0]).astype(complex))
    assert list(vals) == pytest.approx([2, 3])


def test_eigen_offdiagonal():
    vals = jacobi_eigenvalues(np.array([[0, 1], [1, 0]], dtype=complex))
    assert list(vals) == pytest.approx([-1, 1], abs=1e-12)


def test_eigen_trace_and_frobenius_oracle():
    rng = np.random.Generator(np.random.Philox(key=11))
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    M = 0.5 * (z + z.conj().T)
    vals = jacobi_eigenvalues(M)
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
    vals = jacobi_eigenvalues(M)
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


def _rebuilt_matrix(family, spec, seed, index):
    """Sample `index` rebuilt from a jumped Philox and the documented draw order."""
    g = np.random.Generator(np.random.Philox(key=seed).jumped(index))
    d = spec.n.weight
    if family == "hermite":
        diag = g.standard_normal(d)
        iu, ju = np.triu_indices(d, k=1)
        z = g.standard_normal(2 * iu.size) * math.sqrt(0.5)
        M = np.zeros((d, d), dtype=complex)
        M[iu, ju] = z[: iu.size] + 1j * z[iu.size :]
        M += M.conj().T
        M[np.diag_indices(d)] = diag + np.repeat([float(a) for a in spec.a], list(spec.n))
        return M
    cols = d + spec.p
    z = g.standard_normal(2 * d * cols) * math.sqrt(0.5)
    X = (z[: d * cols] + 1j * z[d * cols :]).reshape(d, cols)
    X /= np.sqrt(np.repeat([float(b) for b in spec.beta], list(spec.n)))[:, None]
    M = X @ X.conj().T
    return 0.5 * (M + M.conj().T)


@pytest.mark.parametrize(
    "cfg",
    [
        hermite_cfg(HermiteSpec.of([1, -1], [2, 1]), 3000, 17),
        hermite_cfg(HermiteSpec.of(["1/2", -1, 2], [3, 3, 2]), 300, 18),
        laguerre_cfg(LaguerreSpec.of([1, 2], [1, 1], 1), 3000, 19),
        laguerre_cfg(LaguerreSpec.of([1, 2, 3], [2, 2, 1], 3), 300, 20),
    ],
    ids=["gue-3", "gue-8", "wishart-2", "wishart-5"],
)
def test_sampler_rows_match_jacobi_oracle(cfg):
    batch = rmt.SAMPLERS[cfg.family](cfg)
    rows = np.random.default_rng(cfg.seed).choice(cfg.samples, 12, replace=False)
    for i in [0, cfg.samples - 1, *rows]:
        want = jacobi_eigenvalues(_rebuilt_matrix(cfg.family, cfg.spec, cfg.seed, int(i)))
        if cfg.family == "laguerre":
            want = np.maximum(want, 0.0)
        assert np.allclose(batch[i], want, rtol=0, atol=1e-10), i


@pytest.mark.parametrize("seed", [0, 1, 9, 20260814, 2**64 - 1, 2**128 - 1])
def test_counter_stream_matches_jumped(seed):
    streams = rmt.Substreams(seed)
    for i in [*range(2001), 2**63 - 1, 2**63, 2**64 - 1]:
        jumped = np.random.Philox(key=seed).jumped(i)
        g = streams.at(i)
        got, want = streams.bit_generator.state, jumped.state
        assert np.array_equal(got["state"]["counter"], want["state"]["counter"]), i
        assert np.array_equal(got["state"]["key"], want["state"]["key"]), i
        for field in ("buffer_pos", "has_uint32", "uinteger"):
            assert got[field] == want[field], (i, field)
        assert np.array_equal(g.standard_normal(5), np.random.Generator(jumped).standard_normal(5))


@pytest.mark.parametrize("family", ["hermite", "laguerre"])
def test_chunk_boundaries_do_not_change_rows(family, monkeypatch):
    cfg = hermite_cfg(H11, 50, 7) if family == "hermite" else laguerre_cfg(L11, 50, 7)
    sampler = rmt.SAMPLERS[family]
    whole = sampler(cfg)
    d = cfg.spec.n.weight
    per_sample = 16 * d * d if family == "hermite" else 16 * d * (2 * d + cfg.spec.p)
    assert rmt.CHUNK_BYTES // per_sample > cfg.samples  # one chunk by default
    for size in (1, 7, 49):
        monkeypatch.setattr(rmt, "CHUNK_BYTES", size * per_sample)
        chunks = list(rmt._chunks(cfg.samples, per_sample))
        assert max(stop - start for start, stop in chunks) == size
        rows = np.concatenate([np.arange(start, stop) for start, stop in chunks])
        assert np.array_equal(rows, np.arange(cfg.samples)), size
        assert np.array_equal(sampler(cfg), whole), size


def test_config_validation():
    with pytest.raises(ValueError):
        rmt.EnsembleConfig("hermite", L11, 10, 0, (-4.0, 4.0), 40)
    with pytest.raises(ValueError):
        rmt.EnsembleConfig("hermite", H11, 0, 0, (-4.0, 4.0), 40)
    with pytest.raises(ValueError):
        rmt.EnsembleConfig("hermite", H11, 10, 0, (4.0, -4.0), 40)


# ---------------------------------------------------------------------------
# chi-square machinery


@pytest.mark.parametrize("p", [0.05, 0.5, 0.99])
def test_chi2_quantile_matches_mpmath_root(p):
    """Against a 40-digit root of Q(k/2, x/2) = 1 - p.  The regularized
    upper gamma is monotone in x, so the bracket around the float value
    holds the one root; p = 0.05 and 0.5 put the root in the series branch
    of Q, and p = 0.99 in its continued-fraction branch."""
    worst = 0.0
    with mpmath.workdps(40):
        target = 1 - mpmath.mpf(p)
        for k in [*range(1, 201), 500, 1000]:
            x = rmt.chi2_quantile(p, k)
            root = mpmath.findroot(
                lambda t: mpmath.gammainc(mpmath.mpf(k) / 2, t / 2, mpmath.inf, regularized=True) - target,
                (mpmath.mpf(x) * 0.999, mpmath.mpf(x) * 1.001),
                solver="anderson",
            )
            worst = max(worst, float(abs(x - root) / root))
    assert worst <= 1e-14


def test_chi2_quantile_rejects_bad_input():
    with pytest.raises(ValueError, match="not in"):
        rmt.chi2_quantile(1.0, 3)
    with pytest.raises(ValueError, match="degree of freedom"):
        rmt.chi2_quantile(0.5, 0)
    with pytest.raises(ArithmeticError, match="underflows"):
        rmt.chi2_quantile(1e-300, 1)  # the root is near 1e-600


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


def _scalar_bin_masses(K, edges):
    """The bin masses by one eval_cd call per Gauss node."""
    nodes = (-math.sqrt(0.6), 0.0, math.sqrt(0.6))
    weights = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)
    masses = np.empty(edges.size - 1)
    for b in range(masses.size):
        lo, hi = float(edges[b]), float(edges[b + 1])
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        acc = 0.0
        for u, gw in zip(nodes, weights):
            acc += gw * eval_cd(K, mid + half * u, mid + half * u)
        masses[b] = acc * half / K.spec.n.weight
    return masses


@pytest.mark.parametrize("bins", [7, 40, 160])
@pytest.mark.parametrize(
    "family, spec, bin_range",
    [
        ("hermite", HermiteSpec.of([1, -1], [2, 1]), (-4.0, 4.0)),
        ("hermite", HermiteSpec.of(["1/2", -1, 2], [3, 3, 2]), (-5.0, 5.0)),
        ("laguerre", LaguerreSpec.of([1, 2], [1, 1], 0), (0.05, 6.0)),
        ("laguerre", LaguerreSpec.of([1, 2], [2, 1], 1), (0.05, 8.0)),
        ("laguerre", LaguerreSpec.of(["1/2", 2], [1, 2], 3), (0.01, 20.0)),
    ],
    ids=["h21", "h332", "l-p0", "l-p1", "l-p3"],
)
def test_bin_masses_match_scalar_loop_bitwise(family, spec, bin_range, bins):
    K = build_kernel(family, spec)
    edges = np.linspace(*bin_range, bins + 1)
    got = rmt.predicted_bin_masses(K, edges)
    want = _scalar_bin_masses(K, edges)
    assert got.tobytes() == want.tobytes()


def test_bin_masses_half_line_domain():
    K = build_kernel("laguerre", L11)
    for masses in (rmt.predicted_bin_masses, _scalar_bin_masses):
        with pytest.raises(ExactMathError, match="half-line"):
            masses(K, np.linspace(-0.5, 6.0, 41))
        with pytest.raises(ExactMathError, match="half-line"):
            masses(K, np.array([-0.5, 0.5, 1.0]))  # a node at exactly 0


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
