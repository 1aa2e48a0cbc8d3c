#!/usr/bin/env python3
"""Deformation-stability certificates for a 3-layer network, one per seed.

Each trial draws a random smooth input and a random deformation field with
a targeted gradient level, then checks the measured roto-scale equivariance
deviation against the closed-form bound.  The trials run through
`rstcnn stab trials`; this prints one line per certificate from its JSON and
exits 3 if any trial violates its bound.  Bad input exits as the CLI does
(2, with one stderr line naming the cause).
"""

import json
import os
import sys
import tempfile

from rstcnn.cli import OneLineParser, main as rstcnn_main


def main(argv=None):
    parser = OneLineParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", default="20")
    parser.add_argument("--beta", default="-0.5", help="group log2 scale")
    parser.add_argument("--out", help="also write the certificates as JSON")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or os.path.join(tmp, "stab.json")
        code = rstcnn_main(["stab", "trials", "--trials", args.trials, "--beta", args.beta, "--out", out])
        if code not in (0, 3):
            return code
        with open(out) as fh:
            body = json.load(fh)

    print("seed  sup|grad tau|      lhs      rhs   margin  status")
    for seed, r in zip(body["config"]["seeds"], body["trials"]):
        status = "VIOLATED" if r["violation"] else ("vacuous" if r["vacuous"] else "ok")
        print(
            f"{seed:>4d}  {r['sup_grad_tau']:>13.3f}  {r['lhs']:>7.4f}  {r['rhs']:>7.4f}"
            f"  {r['margin']:>7.4f}  {status}"
        )
    print(f"\n{body['violations']} violations in {len(body['trials'])} trials")
    return code


if __name__ == "__main__":
    sys.exit(main())
