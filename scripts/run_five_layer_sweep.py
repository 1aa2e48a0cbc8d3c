#!/usr/bin/env python3
"""Five-layer equivariance sweep over (K, L_alpha, seed), CSV + summary.

Runs the preset sweep (K in {5, 10}, L_alpha in {1, 3}, five seeds,
eta = -pi/2, beta = -0.5), writes the per-layer relative errors as CSV,
and prints the median error over seeds for every cell and layer.  The
full preset takes about a minute on one core.
"""

import argparse
import sys

import numpy as np

from rstcnn import fig3_config, parse_sweep_csv, run_equivariance_sweep


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="sweep.csv", help="CSV output path")
    parser.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    parser.add_argument("--kind", choices=("fb", "sl"), default="fb")
    args = parser.parse_args(argv)

    cfg = fig3_config(
        seeds=tuple(int(s) for s in args.seeds.split(",")),
        spatial_kind=args.kind,
    )
    text = run_equivariance_sweep(cfg)
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {args.out}")

    rows = parse_sweep_csv(text)
    cells = sorted({(k, la) for k, la, *_ in rows})
    print("\nmedian relative equivariance error over seeds")
    print("layer  " + "  ".join(f"K={k:<2d} L_alpha={la}" for k, la in cells))
    for layer in range(1, cfg.layers + 1):
        meds = [
            np.median([e for k, la, _s, l, e in rows if (k, la) == cell and l == layer])
            for cell in cells
        ]
        print(f"{layer:>5d}  " + "  ".join(f"{m:<13.4g}" for m in meds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
