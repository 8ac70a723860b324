"""multiortho benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Workloads (see perfbench/README.md): mc_density,
spec_sweep, contour_grid.  Each is a closed loop with one caller: an op
starts when the previous one has finished.

--trace 0 prints the end-to-end metrics.  Set-up is measured in SETUP_RUNS
fresh interpreters (the last of which also runs the timed phase) and
reported as their median.  Times are reported at a fixed host speed, by
CAL_REF_MS over the time the worker's calibration round took: each op's
time on mc_density and spec_sweep by the rounds around it (_op_factors),
set-up times on every workload by the median round of the timed phase
that follows them (_setup_factor).  contour_grid op times are wall time.
The report keeps the unscaled figures too (see perfbench/README.md).  --trace 1 runs the
workload for half of --seconds untraced and half with a span around every
library call, and prints the per-layer metrics and the tracing overhead.

The last stdout line is the result object.  ``attempted`` counts the
distinct inputs the run checked and ``failed`` those whose op raised or
failed its check.  ``correct`` is false when any of them failed in a way
outside the workload's known defects (see workloads.py).  The line
before it is the full report (failure log, versions, seed, sample counts),
which is also written to perfbench/out/.  --smoke runs every workload for a
few ops, checks that every metric in BENCHMARK.json is printed with its
unit, and checks that an op checked against a wrong reference is counted as
failed, and makes the result incorrect unless its error is a known defect.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("mc_density", "spec_sweep", "contour_grid")
SETUP_RUNS = 3
# BLAS/OpenMP threads per worker; set only in the workers' environment.
THREAD_CAP = 1
DEADLINE_S = 170.0
# Time of one calibration round on the reference host; times are reported
# as if the host ran the round in exactly this long.
CAL_REF_MS = 4.0
# An op's time is scaled by the median of the calibration rounds timed from
# this many seconds before the op started to this many after it ended.
CAL_WINDOW_S = 0.25

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# span name -> per-op self-time metric
SPAN_METRICS = {
    "rmt.gue": "rmt.gue_s",
    "rmt.wishart": "rmt.wishart_s",
    "rmt.compare": "rmt.compare_s",
    "hermite.type_ii": "hermite.type_ii_s",
    "hermite.type_i": "hermite.type_i_s",
    "laguerre.type_ii": "laguerre.type_ii_s",
    "laguerre.type_i": "laguerre.type_i_s",
    "kernels.build": "kernels.build_s",
    "kernels.biorth": "kernels.biorth_s",
    "kernels.cd": "kernels.cd_s",
    "kernels.sum": "kernels.sum_s",
    "kernels.diag": "kernels.diag_s",
    "kernels.trace": "kernels.trace_s",
    "kernels.correlate": "kernels.correlate_s",
    "kernels.contour": "kernels.contour_s",
}

PER_LAYER = {
    **{metric: "s" for metric in SPAN_METRICS.values()},
    "rmt.us_per_matrix": "us",
    "rmt.matrices": "count",
    "rmt.compare_calls": "count",
    "rmt.reject_count": "count",
    "kernels.build_calls": "count",
    "kernels.build_hit_ratio": "ratio",
    "kernels.cd_us_per_point": "us",
    "kernels.sum_us_per_point": "us",
    "kernels.diag_us_per_point": "us",
    "kernels.contour_ms_per_point": "ms",
    "kernels.contour_points": "count",
    "kernels.contour_nonconverged": "count",
    "quad.rule_s": "s",
    "quad.rule_calls": "count",
    "cli.import_s": "s",
    "setup.inputs_s": "s",
    "setup.build_s": "s",
    "setup.warmup_s": "s",
    "op.glue_s": "s",
    "trace.coverage": "ratio",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
    "trace.span_cost_pct": "%",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREAD_CAP)
    return env


def _run_worker(args: argparse.Namespace, deadline: float, seconds: float, *extra: str) -> dict:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before a worker could start")
    spawn = time.perf_counter()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--root", str(ROOT),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--spawn-time", repr(spawn),
        *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, env=_worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=left
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no record")
    return json.loads(lines[-1])


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _op_factors(timed: dict) -> list[float]:
    """Per op, the factor that takes its time to the reference host speed:
    CAL_REF_MS over the median calibration round timed within CAL_WINDOW_S
    of the op, on workloads whose op time follows the calibration round
    (``host_scaled``); 1 on the others."""
    cal = timed["cal"]
    if not timed["host_scaled"] or not cal:
        return [1.0] * timed["ops"]
    times = [t for t, _ in cal]
    overall = statistics.median(ms for _, ms in cal)
    out = []
    for start, ms in zip(timed["starts_s"], timed["latencies_ms"]):
        lo = bisect.bisect_left(times, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(times, start + 1e-3 * ms + CAL_WINDOW_S)
        near = [ms for _, ms in cal[lo:hi]]
        out.append(CAL_REF_MS / (statistics.median(near) if near else overall))
    return out


def _setup_factor(timed: dict) -> float:
    """CAL_REF_MS over the median calibration round of a worker's timed
    phase, the factor for set-up times (see perfbench/README.md)."""
    cal = timed["cal"]
    return CAL_REF_MS / statistics.median(ms for _, ms in cal) if cal else 1.0


def _scaled_latencies(timed: dict) -> list[float]:
    return [ms * f for ms, f in zip(timed["latencies_ms"], _op_factors(timed))]


def _timing(timed: dict, scaled: bool = True) -> dict[str, float]:
    lat = _scaled_latencies(timed) if scaled else timed["latencies_ms"]
    return {
        "ops_per_s": 1e3 * timed["ops"] / sum(lat),
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1],
    }


def end_to_end(args: argparse.Namespace, deadline: float) -> tuple[dict, dict]:
    setups = [
        _run_worker(args, deadline, args.seconds, "--setup-only") for _ in range(SETUP_RUNS - 1)
    ]
    full = _run_worker(args, deadline, args.seconds, *_extra(args))
    setups.append(full)
    timed = full["timed"]
    if timed["ops"] < 2:
        raise BenchError("the timed phase needs at least two ops")
    # The set-up-only workers have no timed phase; their set-ups ran just
    # before the full worker's and take its factor.
    setup_factor = _setup_factor(timed)
    metrics = {
        **_timing(timed),
        "setup_s": setup_factor * statistics.median(s["setup"]["setup_s"] for s in setups),
        "ok_ratio": 1.0 - timed["failed_inputs"] / timed["inputs"],
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    report = {
        "latency_samples": timed["ops"],
        "fail_ratio": timed["failed_inputs"] / timed["inputs"],
        "unscaled": {
            **_timing(timed, scaled=False),
            "setup_s": statistics.median(s["setup"]["setup_s"] for s in setups),
            "cal_ms": CAL_REF_MS / setup_factor,
        },
        "setup_runs": [s["setup"] for s in setups],
        "record": full,
    }
    return metrics, report


def _span_metrics(spans: list, factors: list[float]) -> dict[str, float]:
    """Per-layer figures from the spans; each op's times are multiplied by
    its factor (see _op_factors)."""
    ops = len(factors)
    total = {name: 0.0 for name in SPAN_METRICS}
    count = {name: 0 for name in SPAN_METRICS}
    op_time = 0.0
    child_time = 0.0
    nonconverged = 0
    for name, start, end, parent, op, error in spans:
        span = factors[op] * (end - start)
        if parent is None:
            op_time += span
            continue
        child_time += span
        total[name] += span
        count[name] += 1
        if name == "kernels.contour" and error == "ConvergenceError":
            nonconverged += 1
    out = {metric: total[name] / ops for name, metric in SPAN_METRICS.items()}

    def per_point(name: str, unit: float) -> float:
        return unit * total[name] / count[name] if count[name] else 0.0

    out.update(
        {
            "rmt.compare_calls": count["rmt.compare"],
            "kernels.build_calls": count["kernels.build"],
            "kernels.cd_us_per_point": per_point("kernels.cd", 1e6),
            "kernels.sum_us_per_point": per_point("kernels.sum", 1e6),
            "kernels.diag_us_per_point": per_point("kernels.diag", 1e6),
            "kernels.contour_ms_per_point": per_point("kernels.contour", 1e3),
            "kernels.contour_points": count["kernels.contour"],
            "kernels.contour_nonconverged": nonconverged,
            "op.glue_s": (op_time - child_time) / ops,
            "trace.coverage": child_time / op_time,
            "_sampling_s": total["rmt.gue"] + total["rmt.wishart"],
        }
    )
    return out


def per_layer(args: argparse.Namespace, deadline: float) -> tuple[dict, dict]:
    # Half of --seconds untraced and half traced, so a traced run takes no
    # longer than an untraced one.
    half = args.seconds / 2
    plain = _run_worker(args, deadline, half, *_extra(args))
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-s{args.seed}.json"
    traced = _run_worker(args, deadline, half, *_extra(args), "--trace-file", str(trace_path))
    with open(trace_path, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    timed = traced["timed"]
    metrics = _span_metrics(spans, _op_factors(timed))
    counters = timed["counters"]
    matrices = counters.get("rmt.matrices", 0)
    sampling_s = metrics.pop("_sampling_s")
    op_seconds = 1e-3 * sum(timed["latencies_ms"])  # unscaled, as span_cost_s is
    cache = timed["build_cache"]
    lookups = cache["hits"] + cache["misses"]
    def setup_part(key: str) -> float:
        return statistics.median(
            _setup_factor(rec["timed"]) * rec["setup"][key] for rec in (plain, traced)
        )

    untraced_rate = _timing(plain["timed"])["ops_per_s"]
    traced_rate = _timing(timed)["ops_per_s"]
    metrics.update(
        {
            "rmt.matrices": matrices,
            "rmt.us_per_matrix": 1e6 * sampling_s / matrices if matrices else 0.0,
            "rmt.reject_count": counters.get("rmt.reject_count", 0),
            "kernels.build_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "quad.rule_s": setup_part("rule_s"),
            "quad.rule_calls": traced["setup"]["rule_calls"],
            "cli.import_s": setup_part("import_s"),
            "setup.inputs_s": setup_part("inputs_s"),
            "setup.build_s": setup_part("build_s"),
            "setup.warmup_s": setup_part("warmup_s"),
            "trace.untraced_ops_per_s": untraced_rate,
            "trace.traced_ops_per_s": traced_rate,
            "trace.overhead_pct": 100.0 * (untraced_rate / traced_rate - 1.0),
            "trace.span_cost_pct": 100.0 * len(spans) * timed["span_cost_s"] / op_seconds,
        }
    )
    report = {
        "latency_samples": len(timed["latencies_ms"]),
        "spans": len(spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "record": traced,
        "untraced_record": plain,
    }
    return metrics, report


def _extra(args: argparse.Namespace) -> list[str]:
    extra = []
    if args.max_ops:
        extra += ["--max-ops", str(args.max_ops)]
    if args.wrong_reference >= 0:
        extra += ["--wrong-reference", str(args.wrong_reference)]
    return extra


def measure(args: argparse.Namespace) -> tuple[dict, dict]:
    """Metrics and report for one workload run; raises BenchError."""
    if not (ROOT / "src" / "multiortho" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        values, report = per_layer(args, deadline)
        units = PER_LAYER
    else:
        values, report = end_to_end(args, deadline)
        units = END_TO_END
    record = report["record"]
    report.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "commit": _commit(),
            "src_sha256": _source_digest(),
            "env": record["env"],
            "thread_cap": THREAD_CAP,
            "attempted": record["timed"]["inputs"],
            "failed": record["timed"]["failed_inputs"],
            "failures": record["timed"]["failures"],
            "unexpected_failures": len(record["timed"]["unexpected"]),
            "counters": record["timed"]["counters"],
            "near_edge": record["timed"]["near_edge"],
        }
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, report


def run_once(args: argparse.Namespace) -> int:
    try:
        metrics, report = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"metrics": metrics, "report": report}, indent=1) + "\n")
    print(json.dumps(report))
    result = {
        "correct": report["unexpected_failures"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """A few ops per workload: every declared metric present with its unit,
    and an op checked against a wrong reference counted as failed."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for spec, table in ((declared["end_to_end"], END_TO_END), (declared["per_layer"], PER_LAYER)):
        want = {m["name"]: m["unit"] for m in spec}
        if want != table:
            problems.append(f"BENCHMARK.json metrics differ from run.py: {sorted(set(want) ^ set(table))}")
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=1, seconds=0.0, max_ops=3, wrong_reference=-1)
        for trace in (0, 1):
            args.trace = trace
            metrics, report = measure(args)
            table = PER_LAYER if trace else END_TO_END
            for name, unit in table.items():
                got = metrics.get(name)
                if got is None or got["unit"] != unit or not isinstance(got["value"], (int, float)):
                    problems.append(f"{workload} trace={trace}: metric {name} missing or malformed")
        passing = sorted(set(range(args.max_ops)) - {f["op"] for f in report["failures"]})
        if not passing:
            problems.append(f"{workload}: no passing op to check against a wrong reference")
            continue
        args.trace, args.wrong_reference = 0, passing[0]
        full = _run_worker(args, time.monotonic() + DEADLINE_S, 0.0, *_extra(args))
        wrong = [f for f in full["timed"]["failures"] if f["op"] == passing[0]]
        if not wrong:
            problems.append(f"{workload}: op checked against a wrong reference was not counted failed")
        elif (wrong[0] in full["timed"]["unexpected"]) != (workload == "mc_density"):
            # A wrong eigenvalue is no known defect; a shifted sum route
            # reads as the known |cd-sum| cancellation.
            problems.append(f"{workload}: wrong-reference failure {wrong[0]['kind']} misclassified")
        print(f"smoke {workload}: {'ok' if not problems else problems}")
    print(json.dumps({"smoke": "fail" if problems else "pass", "problems": problems}))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="multiortho benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=0, help="stop after this many ops (testing)")
    ap.add_argument("--wrong-reference", type=int, default=-1, help=argparse.SUPPRESS)
    ap.add_argument("--smoke", action="store_true", help="quick self-check of the benchmark")
    args = ap.parse_args(argv)
    if args.smoke:
        try:
            return smoke()
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.workload is None:
        ap.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
