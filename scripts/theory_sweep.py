#!/usr/bin/env python3
"""Sufficient-condition sweep: map the certified (eta, gamma) region on a log grid.

For each grid point, constructs a certificate vector, evaluates every stated
inequality plus the direct componentwise contraction, and writes a CSV with the
pass flag and rho(A).
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cnext.cli import atomic_write
from cnext.compress import make_scheme
from cnext.config import RIDGE_TUNED
from cnext.data import build_locals, generate_ridge_synthetic, partition_homogeneous
from cnext.graph import build_ring, metropolis_hastings_weights
from cnext.objective import ridge_objective
from cnext.theory import Theta, TheoryConstants, check_sufficient_conditions, default_epsilon


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/theory_sweep")
    ap.add_argument("--scheme", default="identity",
                    choices=("identity", "qnbbq", "randomk", "topk", "qnormsigned"))
    ap.add_argument("--grid", type=int, default=20)
    args = ap.parse_args()

    ds = generate_ridge_synthetic(500, 20, 42)
    part = partition_homogeneous(ds, 10, 42)
    obj = ridge_objective(build_locals(ds, part), 0.5)
    net = metropolis_hastings_weights(build_ring(10))
    k = RIDGE_TUNED.get(args.scheme, {}).get("k")
    scheme = make_scheme(args.scheme, obj.p, b=2, k=k, rng=np.random.default_rng(0))

    lines = ["eta,gamma,pass,rho_A"]
    n_pass = 0
    for eta in np.geomspace(1e-10, 1e-2, args.grid):
        for gamma in np.geomspace(1e-4, 1.0, args.grid):
            theta = Theta(eta=float(eta), gamma=float(gamma), alpha_x=1.0, alpha_y=1.0)
            try:
                tc = TheoryConstants.build(obj.mu, obj.L, net, scheme, theta)
                rep = check_sufficient_conditions(tc, theta, default_epsilon(tc, theta, net.n), net.n)
                ok, rho = rep["pass"], rep["rho_A"]
            except ValueError:
                ok, rho = False, float("nan")
            n_pass += int(bool(ok))
            lines.append(f"{eta!r},{gamma!r},{int(bool(ok))},{rho!r}")
    os.makedirs(args.out, exist_ok=True)
    atomic_write(os.path.join(args.out, f"sweep_{args.scheme}.csv"), "\n".join(lines) + "\n")
    print(f"{n_pass}/{args.grid * args.grid} grid points certified "
          f"(scheme={args.scheme}, kappa={obj.kappa:.2f}); map in {args.out}/")


if __name__ == "__main__":
    main()
