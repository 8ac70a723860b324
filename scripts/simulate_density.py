#!/usr/bin/env python3
"""Monte Carlo eigenvalue density vs the kernel prediction, at growing S.

Draws one batch of eigenvalue samples at the largest requested sample count
and, because sample i depends only on (seed, i), reuses its prefixes for the
smaller counts.  For each S it reports the chi-square distance between the
binned empirical density and K(x, x) / |n| with its 99%-quantile threshold.
With --out the histogram at the largest S is written as CSV for plotting.
Exit status 0 when the largest-S comparison passes.
"""

import argparse
import sys

from multiortho.cli import (
    DEFAULT_BIN_COUNT,
    DEFAULT_BIN_RANGE,
    _VALUE_FLAGS,
    _build_spec,
    _fields_doc,
    _join_leading_minus,
    _merge_config,
    _parse_axis,
    run_guarded,
)
from multiortho.kernels import build_kernel
from multiortho.presets import standard_specs
from multiortho.rmt import SAMPLERS, EnsembleConfig, compare_density


def build_spec(args):
    """Family and spec through the CLI's parsing; parameters left out come
    from the family's first standard spec."""
    for key, value in _fields_doc(standard_specs(args.family)[0]).items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    return _build_spec(_merge_config(args))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.set_defaults(command="simulate")
    parser.add_argument("--family", choices=("hermite", "laguerre"), default="hermite")
    parser.add_argument("--a", help="default 1,-1")
    parser.add_argument("--beta", help="default 1,2")
    parser.add_argument("--n", help="default 1,1")
    parser.add_argument("--p", type=int, help="default 0")
    parser.add_argument("--samples-list", default="2000,20000,200000")
    parser.add_argument("--seed", type=int, default=20260814)
    parser.add_argument("--bins", default=None, help="lo:hi:count histogram geometry")
    parser.add_argument("--out", help="write the largest-S histogram CSV here")
    tokens = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_join_leading_minus(tokens, _VALUE_FLAGS + ("--bins",)))
    return run_guarded(run, args)


def run(args) -> int:
    family, spec = build_spec(args)
    if args.bins is None:
        (lo, hi), bins = DEFAULT_BIN_RANGE[family], DEFAULT_BIN_COUNT
        args.bins = f"{lo:g}:{hi:g}:{bins}"
    lo, hi, bins = _parse_axis(args.bins)
    sample_counts = sorted(int(v) for v in args.samples_list.split(","))

    def config(samples: int) -> EnsembleConfig:
        return EnsembleConfig(
            family=family,
            spec=spec,
            samples=samples,
            seed=args.seed,
            bin_range=(lo, hi),
            bin_count=bins,
        )

    batch = SAMPLERS[family](config(sample_counts[-1]))
    K = build_kernel(family, spec)

    print(f"spec: {family} {spec}, seed {args.seed}, bins {args.bins}")
    print("      S      chi2       dof  threshold  verdict")
    last = None
    for samples in sample_counts:
        comp = compare_density(batch[:samples], K, config(samples))
        print(
            f"{samples:7d}  {comp.chi_square:8.1f}  {comp.dof:8d}  "
            f"{comp.threshold:9.1f}  {comp.verdict}"
        )
        last = comp

    if args.out and last is not None:
        with open(args.out, "w") as handle:
            handle.write("x,empirical,predicted,stderr\n")
            for x, e, pr, se in zip(last.bin_centers, last.empirical, last.predicted, last.stderr):
                handle.write(f"{x:.17g},{e:.17g},{pr:.17g},{se:.17g}\n")
        print(f"wrote {last.bin_centers.size} bins to {args.out}")
    return 0 if last is not None and last.verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
