#!/usr/bin/env python3
"""Kernel evaluation-route comparison and contour convergence study.

Evaluates the correlation kernel of one spec on a rectangular grid by all
three routes (closed-form ratio expression, telescoping sum over a chain,
double-contour quadrature) and prints a node-doubling table showing how the
worst contour error over the grid decays toward the closed form.  With
--out the per-point table at the largest node count is written as CSV.
"""

import argparse
import sys

from multiortho.cli import (
    _build_spec,
    _fields_doc,
    _join_leading_minus,
    _merge_config,
    _parse_grid,
    run_guarded,
)
from multiortho.core import mi_chain
from multiortho.kernels import build_kernel, eval_cd, eval_contour, eval_sum
from multiortho.presets import standard_grid, standard_specs


def build_spec(args):
    """Family and spec through the CLI's parsing; parameters left out come
    from the family's first standard spec."""
    for key, value in _fields_doc(standard_specs(args.family)[0]).items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    return _build_spec(_merge_config(args))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.set_defaults(command="kernel")
    parser.add_argument("--family", choices=("hermite", "laguerre"), default="hermite")
    parser.add_argument("--a", help="comma-separated shifts (hermite; default 1,-1)")
    parser.add_argument("--beta", help="comma-separated rates (laguerre; default 1,2)")
    parser.add_argument("--n", help="comma-separated multi-index (default 1,1)")
    parser.add_argument("--p", type=int, help="weight exponent (laguerre; default 0)")
    parser.add_argument("--grid", default=None, help="lo:hi:count, used for both axes")
    parser.add_argument("--node-counts", default="64,128,256,512,1024")
    parser.add_argument("--out", help="write the per-point CSV here")
    tokens = sys.argv[1:] if argv is None else list(argv)
    return run_guarded(run, parser.parse_args(_join_leading_minus(tokens)))


def run(args) -> int:
    family, spec = build_spec(args)
    axis = standard_grid(family) if args.grid is None else _parse_grid(args.grid, axes=1)[0]
    node_counts = [int(v) for v in args.node_counts.split(",")]

    K = build_kernel(family, spec)
    chain = mi_chain(spec.n)
    p = getattr(spec, "p", 0)

    def contour_as_cd(x, y, nodes):
        value = eval_contour(family, spec, x, y, nodes=nodes)
        return value * (y / x) ** p if p else value

    print(f"spec: {family} {spec}")
    print("nodes  max|cd-contour|   max|cd-sum|")
    for nodes in node_counts:
        worst_ct = worst_sum = 0.0
        for x in axis:
            for y in axis:
                cd = eval_cd(K, x, y)
                worst_ct = max(worst_ct, abs(cd - contour_as_cd(x, y, nodes)))
                worst_sum = max(worst_sum, abs(cd - eval_sum(family, spec, chain, x, y)))
        print(f"{nodes:5d}  {worst_ct:15.3e}  {worst_sum:12.3e}")

    if args.out:
        nodes = node_counts[-1]
        with open(args.out, "w") as handle:
            handle.write("x,y,cd,sum,contour,|cd-contour|\n")
            for x in axis:
                for y in axis:
                    cd = eval_cd(K, x, y)
                    sm = eval_sum(family, spec, chain, x, y)
                    ct = contour_as_cd(x, y, nodes)
                    handle.write(
                        f"{x:.17g},{y:.17g},{cd:.17g},{sm:.17g},{ct:.17g},{abs(cd-ct):.17g}\n"
                    )
        print(f"wrote {len(axis)**2} rows to {args.out} (nodes={nodes})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
