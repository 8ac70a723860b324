"""The benchmark's three workloads.

Each workload draws its op inputs from the workload seed, runs one op by
calling the package's public functions the way the CLI commands do, and
checks each op's output against an independent reference just after the
op, outside its timed region.  Every library call goes through
``call(name, fn, *args)`` so that a traced run can record one span per
call; the span name is the layer metric it feeds (``kernels.cd`` feeds
``kernels.cd_s``).

Inputs come in cycles.  The timed phase only stops at a cycle boundary, so
every run covers whole cycles and its op mix does not depend on where the
clock ran out.  ``spec_sweep`` and ``contour_grid`` run the same input set
in every cycle, and each input carries an ``index`` that names it, so the
set of distinct inputs a run checks (and which of them fail) depends on the
seed only, not on how many cycles fitted into the run.

``host_scaled`` says whether run.py reports the op times at the reference
host speed (see perfbench/README.md, Noise).

A check returns None or (kind, message).  ``known_defects`` names the kinds
that fail at the parent commit from defects already on the ROADMAP; a
failure of any other kind, or an op that raises anything but a known
defect, makes the run's result incorrect.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from multiortho import core, hermite, kernels, laguerre, rmt
from multiortho.cli import DEFAULT_BIN_COUNT, DEFAULT_BIN_RANGE
from multiortho.core import mi_chain
from multiortho.hermite import HermiteSpec
from multiortho.laguerre import LaguerreSpec
from multiortho.presets import standard_grid
from multiortho.quad import MAX_LINE_NODES

Call = Callable[..., Any]

# The README sweep pools.
SHIFTS = (-2, -1, 0, 1, 2)
RATES = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
EXPONENTS = (0, 1, 2)

# Correctness contracts the checks hold every op to.
SUM_TOL = 1e-10
CONTOUR_TOL = 1e-7
TRACE_TOL = 1e-6
EIG_TOL = 1e-10
# |n| = 12 Hermite specs already sit at 5e-11 to 9e-11 of SUM_TOL; flag
# anything within this factor of it in the report so drift shows early.
NEAR_EDGE = 0.5


def _rng(*parts: Any) -> random.Random:
    # String seeds go through SHA-512, so draws do not depend on hash salting.
    return random.Random("/".join(str(p) for p in parts))


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Uniform composition of total into parts positive integers."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _make_spec(family: str, params, n, p: int):
    if family == "hermite":
        return HermiteSpec.of(params, n)
    return LaguerreSpec.of(params, n, p)


def _draw_spec(rng: random.Random, family: str, m: int, w: int, p: int):
    n = _composition(rng, w, m)
    return _make_spec(family, rng.sample(SHIFTS if family == "hermite" else RATES, m), n, p)


def _clear_exact_caches() -> None:
    """Empty every functools cache defined in the package's exact and kernel
    modules (not the Gauss-rule cache in ``quad``, which set-up pre-warms)."""
    for mod in (core, hermite, laguerre, kernels):
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) == mod.__name__ and hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _module(family: str):
    return hermite if family == "hermite" else laguerre


def _fraction_text(values) -> list[str]:
    return [str(Fraction(v)) for v in values]


def describe_spec(family: str, spec) -> dict[str, Any]:
    if family == "hermite":
        return {"family": family, "a": _fraction_text(spec.a), "n": list(spec.n.parts)}
    return {
        "family": family,
        "beta": _fraction_text(spec.beta),
        "n": list(spec.n.parts),
        "p": spec.p,
    }


# ---------------------------------------------------------------------------
# mc_density


@dataclass(frozen=True)
class McInput:
    index: Any
    key: int
    rows: tuple[int, ...]
    configs: tuple  # one rmt.EnsembleConfig per ensemble


class McDensity:
    """One simulate-style validation pair per op: S GUE-with-source and S
    Wishart matrices drawn from a per-op Philox key, each histogram compared
    with its cached kernel at the CLI's default bins."""

    name = "mc_density"
    samples = 256
    oracle_rows = 2
    ensembles = (
        ("hermite", HermiteSpec.of([1, -1], [2, 1]), rmt.sample_gue_source, "rmt.gue"),
        ("laguerre", LaguerreSpec.of([1, 2], [1, 1], 1), rmt.sample_wishart, "rmt.wishart"),
    )
    rules: tuple = ()
    known_defects: frozenset = frozenset()
    host_scaled = True

    def __init__(self, seed: int):
        self.seed = seed

    def kernel_specs(self) -> list:
        return [(family, spec) for family, spec, _, _ in self.ensembles]

    def _input(self, index: Any) -> McInput:
        rng = _rng(self.name, self.seed, index)
        key = rng.getrandbits(64)
        configs = tuple(
            rmt.EnsembleConfig(
                family=family,
                spec=spec,
                samples=self.samples,
                seed=key,
                bin_range=DEFAULT_BIN_RANGE[family],
                bin_count=DEFAULT_BIN_COUNT,
            )
            for family, spec, _, _ in self.ensembles
        )
        rows = tuple(rng.sample(range(self.samples), self.oracle_rows))
        return McInput(index, key, rows, configs)

    def warmup_input(self) -> McInput:
        return self._input("warmup")

    def cycle(self, index: int) -> list[McInput]:
        return [self._input(index)]

    def run(self, inp: McInput, call: Call) -> dict[str, Any]:
        out = {}
        for (family, spec, sampler, span), cfg in zip(self.ensembles, inp.configs):
            batch = call(span, sampler, cfg)
            K = call("kernels.build", kernels.build_kernel, family, spec)
            comparison = call("rmt.compare", rmt.compare_density, batch, K, cfg)
            out[family] = (
                batch[list(inp.rows)],
                comparison.chi_square,
                comparison.dof,
                comparison.verdict,
            )
        return out

    def check(self, inp: McInput, out: dict[str, Any], bias: float) -> tuple[str, str] | None:
        for family, spec, _, _ in self.ensembles:
            rows, chi_square, dof, _ = out[family]
            for i, got in zip(inp.rows, rows):
                want = _oracle_eigenvalues(family, spec, inp.key, i) + bias
                err = np.abs(got - want)
                if np.any(err > EIG_TOL * np.maximum(1.0, np.abs(want))):
                    return "eigenvalues", f"{family} sample {i}: eigenvalues off by {err.max():.3e}"
            if not math.isfinite(chi_square) or dof <= 0:
                return "chi_square", f"{family}: chi-square {chi_square} with {dof} dof"
        return None

    def near_edge(self, inp: McInput, out: dict[str, Any]) -> float:
        return 0.0

    def describe(self, inp: McInput) -> dict[str, Any]:
        return {"key": inp.key, "oracle_rows": list(inp.rows)}

    def counters(self, inp: McInput, out: dict[str, Any]) -> dict[str, int]:
        rejects = sum(out[family][3] == "reject" for family, *_ in self.ensembles)
        return {"rmt.reject_count": rejects, "rmt.matrices": self.samples * len(self.ensembles)}


def _oracle_eigenvalues(family: str, spec, key: int, index: int) -> np.ndarray:
    """Sample `index` rebuilt from the draw order the samplers document,
    solved by LAPACK instead of the package's own eigensolver."""
    g = np.random.Generator(np.random.Philox(key=key).jumped(index))
    d = spec.n.weight
    if family == "hermite":
        diag = g.standard_normal(d)
        iu, ju = np.triu_indices(d, k=1)
        z = g.standard_normal(2 * iu.size) * math.sqrt(0.5)
        M = np.zeros((d, d), dtype=complex)
        M[iu, ju] = z[: iu.size] + 1j * z[iu.size :]
        M = M + M.conj().T + np.diag(diag + np.repeat([float(a) for a in spec.a], list(spec.n)))
        return np.linalg.eigvalsh(M)
    cols = d + spec.p
    z = g.standard_normal(2 * d * cols) * math.sqrt(0.5)
    X = (z[: d * cols] + 1j * z[d * cols :]).reshape(d, cols)
    X = X / np.sqrt(np.repeat([float(b) for b in spec.beta], list(spec.n)))[:, None]
    return np.maximum(np.linalg.eigvalsh(X @ X.conj().T), 0.0)


# ---------------------------------------------------------------------------
# spec_sweep


@dataclass(frozen=True)
class SweepInput:
    index: int
    family: str
    spec: Any
    chain: tuple
    points: tuple[float, ...]


class SpecSweep:
    """One spec per op, run cold, through the poly, verify, kernel, density,
    trace and correlate paths.

    Op cost is set mostly by the family, m and |n|, so the run's input set
    holds two distinct specs per (family, m, |n|) cell, drawn by the seed,
    in a seeded order; p cycles through 0..2 across cells.  Every cycle runs the
    whole set, and before every cycle but the first the package's
    exact-layer caches are emptied, so each cycle builds every spec cold,
    as a process that has not seen it would, and times the same mix.
    """

    name = "spec_sweep"
    max_weight = 12
    specs_per_cell = 2
    rules = (
        ("gaussian", 200, 1),
        *(("exponential", 200, beta) for beta in RATES),
    )
    # Large-|n| cancellation in the cd route (ROADMAP item 3).
    known_defects = frozenset({"cd_sum"})
    host_scaled = True

    def __init__(self, seed: int):
        self.seed = seed
        self.grids = {f: [float(v) for v in standard_grid(f, 11)] for f in ("hermite", "laguerre")}
        self.diagonals = {f: [float(v) for v in standard_grid(f, 51)] for f in ("hermite", "laguerre")}
        rng = _rng(self.name, self.seed)
        drawn = []
        for family in ("hermite", "laguerre"):
            for m in (2, 3):
                for w in range(m, self.max_weight + 1):
                    specs = []
                    while len(specs) < self.specs_per_cell:
                        p = EXPONENTS[(w + m + seed + len(specs)) % len(EXPONENTS)]
                        spec = _draw_spec(rng, family, m, w, p if family == "laguerre" else 0)
                        if spec not in specs:
                            specs.append(spec)
                    drawn += [(family, spec) for spec in specs]
        rng.shuffle(drawn)
        self.inputs = [self._input(i, rng, family, spec) for i, (family, spec) in enumerate(drawn)]

    def kernel_specs(self) -> list:
        return []

    def _input(self, index: int, rng: random.Random, family: str, spec) -> SweepInput:
        lo, hi = self.grids[family][0], self.grids[family][-1]
        points = tuple(sorted(rng.uniform(lo, hi) for _ in range(3)))
        return SweepInput(index, family, spec, tuple(mi_chain(spec.n)), points)

    def warmup_input(self) -> SweepInput:
        # |n| = 1 lies outside every cell, so the warm-up spec is never timed.
        spec = LaguerreSpec.of([1], [1], 1)
        return self._input(-1, _rng(self.name, self.seed, "warmup"), "laguerre", spec)

    def cycle(self, index: int) -> list[SweepInput]:
        if index:
            _clear_exact_caches()
        return self.inputs

    def run(self, inp: SweepInput, call: Call) -> dict[str, Any]:
        family, spec, chain = inp.family, inp.spec, list(inp.chain)
        mod = _module(family)
        grid, diagonal = self.grids[family], self.diagonals[family]
        P = call(f"{family}.type_ii", mod.type_ii_poly, spec)
        form = call(f"{family}.type_i", mod.type_i_form, spec)
        K = call("kernels.build", kernels.build_kernel, family, spec)
        biorth = call("kernels.biorth", kernels.check_biorthogonality, family, spec)
        cd = [[call("kernels.cd", kernels.eval_cd, K, x, y) for y in grid] for x in grid]
        sums = [
            [call("kernels.sum", kernels.eval_sum, family, spec, chain, x, y) for y in grid]
            for x in grid
        ]
        diag = [call("kernels.diag", kernels.eval_cd, K, x, x) for x in diagonal]
        trace = call("kernels.trace", kernels.kernel_trace, K)
        det = call("kernels.correlate", kernels.correlation_det, K, inp.points)
        return {
            "P": P,
            "form": form,
            "K": K,
            "biorth": biorth,
            "cd": cd,
            "sum": sums,
            "diag": diag,
            "trace": trace,
            "det": det,
        }

    def check(self, inp: SweepInput, out: dict[str, Any], bias: float) -> tuple[str, str] | None:
        family, spec = inp.family, inp.spec
        w = spec.n.weight
        P, form = out["P"], out["form"]
        if P.degree != w or not P.is_monic or P != out["K"].P or len(form.terms) != spec.m:
            return "poly", "type II is not the monic degree-|n| kernel polynomial"
        M = out["biorth"]
        if any(M[i][j] != (1 if i == j else 0) for i in range(w) for j in range(w)):
            return "biorth", "biorthogonality matrix is not the identity"
        grid = self.grids[family]
        worst, where = 0.0, None
        for i, x in enumerate(grid):
            for j, y in enumerate(grid):
                err = abs(out["cd"][i][j] - (out["sum"][i][j] + bias))
                if err > worst:
                    worst, where = err, (x, y)
        if worst > SUM_TOL:
            return "cd_sum", f"|cd-sum| {worst:.3e} at {where}"
        chain = list(inp.chain)
        for x, v in zip(self.diagonals[family], out["diag"]):
            ref = kernels.eval_sum(family, spec, chain, x, x)
            if abs(v - ref) > SUM_TOL:
                return "cd_sum", f"diagonal |cd-sum| {abs(v - ref):.3e} at x={x}"
        if abs(out["trace"] - w) > TRACE_TOL:
            return "trace", f"trace {out['trace']:.12f} vs |n| = {w}"
        pts = inp.points
        ref = np.array([[kernels.eval_sum(family, spec, chain, a, b) for b in pts] for a in pts])
        want = float(np.linalg.det(ref))
        # Each entry may be off by SUM_TOL; the 3x3 determinant's expansion
        # scales that by at most a few times the entries' size squared.
        scale = max(1.0, float(np.abs(ref).max())) ** len(pts)
        if abs(out["det"] - want) > 10 * SUM_TOL * scale:
            return "det", f"correlation det {out['det']:.12e} vs {want:.12e}"
        return None

    def near_edge(self, inp: SweepInput, out: dict[str, Any]) -> float:
        return max(abs(c - s) for rc, rs in zip(out["cd"], out["sum"]) for c, s in zip(rc, rs))

    def describe(self, inp: SweepInput) -> dict[str, Any]:
        return {"spec": describe_spec(inp.family, inp.spec), "points": list(inp.points)}

    def counters(self, inp: SweepInput, out: dict[str, Any]) -> dict[str, int]:
        return {}


# ---------------------------------------------------------------------------
# contour_grid


@dataclass(frozen=True)
class ContourInput:
    index: Any
    family: str
    spec: Any
    chain: tuple
    x: float
    y: float


class ContourGrid:
    """One grid point of the default ``multiortho kernel`` per op: cd, sum,
    then the adaptive contour at the default tolerance.

    The rows (one spec and one standard-grid x each, evaluated at the five
    standard-grid y) are a fixed stratified draw from the pools, one per
    (family, m, |n| <= 8) cell; the workload seed orders the rows and the
    points within each row.  The rows are fixed because a single spec can
    fail to converge at most of its points, at about 1.2 s each, so with
    seed-drawn rows the run's throughput moved by tens of percent from one
    seed to the next.
    """

    name = "contour_grid"
    max_weight = 8
    design_seed = 20040615
    # The contour's line rule saturates at MAX_LINE_NODES from its first pass.
    rules = (("gaussian", MAX_LINE_NODES, 1),)
    # Hermite points far from the shifts and Laguerre large-|n| points at
    # small y do not converge or converge to a wrong value (ROADMAP item 4);
    # |cd-sum| is the same cancellation as on spec_sweep.
    known_defects = frozenset({"ConvergenceError", "cd_contour", "cd_sum"})
    # The op's time follows the calibration round only weakly (see README).
    host_scaled = False

    def __init__(self, seed: int):
        self.seed = seed
        rng = _rng(self.name, "design", self.design_seed)
        self.rows = []
        for family in ("hermite", "laguerre"):
            xs = [float(v) for v in standard_grid(family)]
            for m in (2, 3):
                for w in range(m, self.max_weight + 1):
                    p = EXPONENTS[(w + m) % len(EXPONENTS)]
                    spec = _draw_spec(rng, family, m, w, p)
                    self.rows.append((family, spec, tuple(mi_chain(spec.n)), rng.choice(xs)))
        self.ys = {f: [float(v) for v in standard_grid(f)] for f in ("hermite", "laguerre")}

    def kernel_specs(self) -> list:
        return [(family, spec) for family, spec, _, _ in self.rows]

    def warmup_input(self) -> ContourInput:
        spec = HermiteSpec.of([1, -1], [1, 1])
        return ContourInput(-1, "hermite", spec, tuple(mi_chain(spec.n)), 0.0, 0.0)

    def cycle(self, index: int) -> list[ContourInput]:
        rng = _rng(self.name, self.seed, index)
        rows = list(enumerate(self.rows))
        rng.shuffle(rows)
        out = []
        for r, (family, spec, chain, x) in rows:
            ys = list(enumerate(self.ys[family]))
            rng.shuffle(ys)
            out.extend(ContourInput((r, j), family, spec, chain, x, y) for j, y in ys)
        return out

    def run(self, inp: ContourInput, call: Call) -> dict[str, float]:
        family, spec, x, y = inp.family, inp.spec, inp.x, inp.y
        K = call("kernels.build", kernels.build_kernel, family, spec)
        cd = call("kernels.cd", kernels.eval_cd, K, x, y)
        s = call("kernels.sum", kernels.eval_sum, family, spec, list(inp.chain), x, y)
        ct = call(
            "kernels.contour", kernels.eval_contour, family, spec, x, y,
            tol=kernels.CONTOUR_DOUBLING_TOL,
        )
        p = getattr(spec, "p", 0)
        if family == "laguerre" and p:
            ct *= (y / x) ** p
        return {"cd": cd, "sum": s, "contour": ct}

    def check(self, inp: ContourInput, out: dict[str, float], bias: float) -> tuple[str, str] | None:
        d_sum = abs(out["cd"] - (out["sum"] + bias))
        d_contour = abs(out["cd"] - out["contour"])
        if d_sum > SUM_TOL:
            return "cd_sum", f"|cd-sum| {d_sum:.3e}"
        if d_contour > CONTOUR_TOL:
            return "cd_contour", f"|cd-contour| {d_contour:.3e}"
        return None

    def near_edge(self, inp: ContourInput, out: dict[str, float]) -> float:
        return abs(out["cd"] - out["sum"])

    def describe(self, inp: ContourInput) -> dict[str, Any]:
        return {"spec": describe_spec(inp.family, inp.spec), "point": [inp.x, inp.y]}

    def counters(self, inp: ContourInput, out: dict[str, Any]) -> dict[str, int]:
        return {}


WORKLOADS = {w.name: w for w in (McDensity, SpecSweep, ContourGrid)}
