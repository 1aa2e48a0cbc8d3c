#!/usr/bin/env python3
"""Five-layer equivariance sweep over (K, L_alpha, seed), CSV + summary.

Runs the preset sweep (K in {5, 10}, L_alpha in {1, 3}, five seeds,
eta = -pi/2, beta = -0.5) through `rstcnn equi sweep`, which writes the
per-layer relative errors as CSV, and prints the median error over seeds
for every cell and layer.  Bad input exits as the CLI does (2, with one
stderr line naming the cause).  The full preset takes about a minute on
one core.
"""

import sys

import numpy as np

from rstcnn import parse_sweep_csv
from rstcnn.cli import OneLineParser, main as rstcnn_main


def main(argv=None):
    parser = OneLineParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="sweep.csv", help="CSV output path")
    parser.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    parser.add_argument("--kind", default="fb", help="spatial basis family: fb or sl")
    args = parser.parse_args(argv)

    code = rstcnn_main(["equi", "sweep", "--seeds", args.seeds, "--kind", args.kind, "--out", args.out])
    if code != 0:
        return code
    print(f"wrote {args.out}")

    with open(args.out) as fh:
        rows = parse_sweep_csv(fh.read())
    cells = sorted({(k, la) for k, la, *_ in rows})
    print("\nmedian relative equivariance error over seeds")
    print("layer  " + "  ".join(f"K={k:<2d} L_alpha={la}" for k, la in cells))
    for layer in sorted({l for *_, l, _e in rows}):
        meds = [
            np.median([e for k, la, _s, l, e in rows if (k, la) == cell and l == layer])
            for cell in cells
        ]
        print(f"{layer:>5d}  " + "  ".join(f"{m:<13.4g}" for m in meds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
