"""Run one benchmark workload in a fresh interpreter and print its record.

    python3 perfbench/worker.py --root ROOT --workload NAME --seed N
        --seconds T --spawn-time S [--trace-file PATH] [--setup-only]
        [--max-ops K] [--wrong-reference I]

run.py starts this script with the package's ``src`` on PYTHONPATH and
passes the ``time.perf_counter()`` value it read just before starting the
process, so that set-up time counts from the interpreter's start.  Set-up
imports ``multiortho.cli`` (as every CLI call does), builds the inputs and
the kernels the workload reads warm, pre-warms the Gauss rules it names and
runs one warm-up op on an input outside the timed set.  The timed phase
then runs whole input cycles, one op at a time, until --seconds have
passed and at least MIN_OPS ops have run.  Each op's output is checked
just after the op, outside its timed region, and then dropped, so memory
does not grow with the op count; peak memory is read after the first
cycle, over a fixed set of inputs.  The record is one JSON line on stdout.
With --trace-file, every library call is recorded as a span and the spans
are written there at exit.

Between ops, outside their timed regions, the worker times a fixed
calibration round of its own (see ``calibration_round``) every
CAL_EVERY_S.  The record keeps every op's start and the calibration
samples, so that run.py can express op times at a fixed host speed.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

# Ten latencies beyond p90.
MIN_OPS = 100
# A calibration round every CAL_EVERY_S of the timed phase.
CAL_EVERY_S = 0.1


def calibration_round() -> float:
    """Milliseconds one fixed round of the benchmark's own work takes.

    The round mixes the kinds of work the package does: exact rational
    arithmetic, a float loop in Python, and small numpy arrays driven from
    Python (as the Jacobi sweeps in ``rmt`` are).  It touches nothing in
    the package, so its time moves only with the speed the host gives this
    process.
    """
    from fractions import Fraction

    import numpy as np

    m = np.cos(np.arange(16.0)).reshape(4, 4)
    m = m + m.T
    t = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 180):
        acc += Fraction(k, k * k + 1)
    x = 0.0
    for k in range(12000):
        x += (k % 7) * 0.5
    v = m
    for _ in range(500):
        v = 0.5 * (v @ m) / (1.0 + abs(v[0, 1]))
    return 1e3 * (time.perf_counter() - t)


class Tracer:
    """Spans of the timed phase, kept in memory until the worker exits.

    A span is (name, start, end, parent, op, error): op spans have parent
    None; a library call's parent is the index of its op's span.  Calls are
    sequential within an op, so a call has no children and its self time is
    its duration, and an op's self time is its duration minus its calls.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.op = -1
        self.parent = -1

    def begin_op(self, op: int) -> None:
        self.op = op
        self.parent = len(self.spans)
        if self.enabled:
            self.spans.append(None)  # filled by end_op

    def end_op(self, start: float, end: float, error: str | None) -> None:
        if self.enabled:
            self.spans[self.parent] = ("op", start, end, None, self.op, error)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        error = None
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self.spans.append((name, start, time.perf_counter(), self.parent, self.op, error))

    def write(self, path: str) -> None:
        doc = {"fields": ["name", "start", "end", "parent", "op", "error"], "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _span_cost(calls: int = 20_000) -> float:
    """Seconds a traced call costs more than a direct one."""
    tracer = Tracer(True)
    tracer.begin_op(0)
    t = time.perf_counter()
    for _ in range(calls):
        tracer.call("probe", abs, 1)
    traced = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(calls):
        abs(1)
    return (traced - (time.perf_counter() - t)) / calls


def _versions() -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--max-ops", type=int, default=0, help="run this many ops, not --seconds")
    ap.add_argument("--wrong-reference", type=int, default=-1, help="op to check wrongly")
    args = ap.parse_args()

    t = time.perf_counter()
    import multiortho.cli  # noqa: F401  (timed alone: every CLI call pays it)

    import_s = time.perf_counter() - t
    src = Path(args.root, "src").resolve()
    if Path(multiortho.cli.__file__).resolve().parent.parent != src:
        print(f"multiortho imported from {multiortho.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    from multiortho.kernels import build_kernel
    from multiortho.quad import line_rule_nodes

    import workloads

    t = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    first_cycle = wl.cycle(0)
    warm = wl.warmup_input()
    inputs_s = time.perf_counter() - t

    t = time.perf_counter()
    for kind, nodes, beta in wl.rules:
        line_rule_nodes(kind, nodes, beta)
    rule_s = time.perf_counter() - t

    t = time.perf_counter()
    for family, spec in wl.kernel_specs():
        build_kernel(family, spec)
    build_s = time.perf_counter() - t

    t = time.perf_counter()
    wl.run(warm, Tracer(False).call)
    warmup_s = time.perf_counter() - t
    ready = time.perf_counter()

    record: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "setup": {
            "setup_s": ready - args.spawn_time,
            "interpreter_s": T_START - args.spawn_time,
            "import_s": import_s,
            "inputs_s": inputs_s,
            "rule_s": rule_s,
            "rule_calls": len(wl.rules),
            "rules": [f"{nodes}-node {kind} (beta={beta})" for kind, nodes, beta in wl.rules],
            "build_s": build_s,
            "build_calls": len(wl.kernel_specs()),
            "warmup_s": warmup_s,
        },
        "env": _versions(),
    }
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = Tracer(args.trace_file is not None)
    latencies_ms: list[float] = []
    starts: list[float] = []
    cal: list[tuple[float, float]] = []
    verdicts: dict[Any, str | None] = {}  # input index -> failure kind
    failures: list[dict] = []
    near_edge: list[dict] = []
    counters: dict[str, int] = {}
    hits = misses = 0
    peak_rss_mb = None
    cycles = 0
    inputs = first_cycle
    t_begin = last_cal = time.perf_counter()
    while True:
        cache0 = build_kernel.cache_info()
        for inp in inputs:
            op = len(latencies_ms)
            tracer.begin_op(op)
            t0 = time.perf_counter()
            try:
                out, failure = wl.run(inp, tracer.call), None
            except Exception as exc:  # a raising op is a failed op, not a crash
                out = None
                failure = type(exc).__name__, "".join(traceback.format_exception_only(exc)).strip()
            t1 = time.perf_counter()
            tracer.end_op(t0, t1, failure and failure[0])
            latencies_ms.append(1e3 * (t1 - t0))
            starts.append(t0 - t_begin)
            if out is not None:
                failure = wl.check(inp, out, 1.0 if op == args.wrong_reference else 0.0)
                for k, v in wl.counters(inp, out).items():
                    counters[k] = counters.get(k, 0) + v
                margin = wl.near_edge(inp, out)
                if failure is None and margin > workloads.NEAR_EDGE * workloads.SUM_TOL:
                    near_edge.append({"op": op, **wl.describe(inp), "cd_sum": margin})
            kind = failure and failure[0]
            if inp.index in verdicts and verdicts[inp.index] != kind:
                # The same input must give the same verdict every time.
                failure = "inconsistent", f"verdict {kind} after {verdicts[inp.index]} before"
            if failure is not None and (inp.index not in verdicts or failure[0] == "inconsistent"):
                kind, error = failure
                failures.append({"op": op, **wl.describe(inp), "kind": kind, "error": error})
            verdicts.setdefault(inp.index, kind)
            t = time.perf_counter()
            if t - last_cal >= CAL_EVERY_S:
                cal.append((t - t_begin, calibration_round()))
                last_cal = time.perf_counter()
            if op + 1 == args.max_ops:
                break
        cycles += 1
        cache1 = build_kernel.cache_info()
        hits += cache1.hits - cache0.hits
        misses += cache1.misses - cache0.misses
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.max_ops:
            if len(latencies_ms) == args.max_ops:
                break
        elif time.perf_counter() - t_begin >= args.seconds and len(latencies_ms) >= MIN_OPS:
            break
        inputs = wl.cycle(cycles)
    t_end = time.perf_counter()

    record["timed"] = {
        "seconds": t_end - t_begin,
        "cycles": cycles,
        "ops": len(latencies_ms),
        "latencies_ms": latencies_ms,
        "starts_s": starts,
        "cal": cal,
        "host_scaled": wl.host_scaled,
        "inputs": len(verdicts),
        "failed_inputs": sum(kind is not None for kind in verdicts.values()),
        "failures": failures,
        "unexpected": [f for f in failures if f["kind"] not in wl.known_defects],
        "near_edge": near_edge,
        "counters": counters,
        "build_cache": {"hits": hits, "misses": misses},
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace_file:
        record["timed"]["span_cost_s"] = _span_cost()
        tracer.write(args.trace_file)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
