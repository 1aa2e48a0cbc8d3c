#!/usr/bin/env python3
"""Deformation-stability certificates for a 3-layer network, one per seed.

Each trial draws a random smooth input and a random deformation field with
a targeted gradient level, then checks the measured roto-scale equivariance
deviation against the closed-form bound.  Prints one line per certificate
and exits 3 if any trial violates its bound.
"""

import argparse
import sys

from rstcnn import run_stability_trials, stability_config, stability_json


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--beta", type=float, default=-0.5, help="group log2 scale")
    parser.add_argument("--out", help="also write the certificates as JSON")
    args = parser.parse_args(argv)

    cfg = stability_config(seeds=tuple(range(args.trials)), beta=args.beta)
    reports, violated = run_stability_trials(cfg)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(stability_json(cfg, reports))

    print("seed  sup|grad tau|      lhs      rhs   margin  status")
    for seed, r in zip(cfg.seeds, reports):
        status = "VIOLATED" if r.violation else ("vacuous" if r.vacuous else "ok")
        print(
            f"{seed:>4d}  {r.sup_grad_tau:>13.3f}  {r.lhs:>7.4f}  {r.rhs:>7.4f}"
            f"  {r.margin:>7.4f}  {status}"
        )
    print(f"\n{sum(r.violation for r in reports)} violations in {len(reports)} trials")
    return 3 if violated else 0


if __name__ == "__main__":
    sys.exit(main())
