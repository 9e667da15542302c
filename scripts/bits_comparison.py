#!/usr/bin/env python3
"""Error-vs-bits comparison: curvature-scaled updates against the raw-tracker variant.

Runs both modes on the identical ridge setup and scheme, reports iterations and
cumulative bits to reach a residual target, and writes a long-format CSV suitable
for plotting residual against transmitted bits.
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
from cnext.objective import ridge_closed_form_optimum, ridge_objective
from cnext.solver import (DivergenceError, HyperParams, MODE_CNEXT, MODE_FIRST_ORDER_GT, run)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/bits_comparison")
    ap.add_argument("--scheme", default="qnormsigned",
                    choices=("identity", "qnbbq", "randomk", "topk", "qnormsigned"))
    ap.add_argument("--eta", type=float, help="step size; the scheme's tuned value by default")
    ap.add_argument("--alpha", type=float, help="memory weight; the scheme's tuned value by default")
    ap.add_argument("--target", type=float, default=1e-6)
    ap.add_argument("--iters", type=int, default=1000)
    args = ap.parse_args()
    tuned = RIDGE_TUNED.get(args.scheme, {"eta": None, "alpha": 1.0, "k": None})
    eta = tuned["eta"] if args.eta is None else args.eta
    alpha = tuned["alpha"] if args.alpha is None else args.alpha
    if eta is None:
        ap.error(f"--eta is required: no tuned step size for {args.scheme}")

    ds = generate_ridge_synthetic(500, 20, 42)
    part = partition_homogeneous(ds, 10, 42)
    obj = ridge_objective(build_locals(ds, part), 0.5)
    net = metropolis_hastings_weights(build_ring(10))
    x_star = ridge_closed_form_optimum(obj)
    scheme = make_scheme(args.scheme, obj.p, b=2, k=tuned["k"], rng=np.random.default_rng(0))
    hp = HyperParams(eta=eta, gamma=0.6, alpha_x=alpha, alpha_y=alpha, T=args.iters)

    os.makedirs(args.out, exist_ok=True)
    lines = ["variant,t,bits_cum,residual"]
    for name, mode in (("newton", MODE_CNEXT), ("first_order", MODE_FIRST_ORDER_GT)):
        try:
            recs = run(obj, net, scheme, hp, mode, 42, x_star=x_star)
            note = ""
        except DivergenceError as exc:
            recs = []
            note = f" (diverged at round {exc.t})"
        hit = next((r for r in recs if r.residual <= args.target), None)
        for r in recs:
            lines.append(f"{name},{r.t},{r.bits_cum},{r.residual!r}")
        if hit is None:
            print(f"{name:>12}: residual {args.target:g} not reached{note}")
        else:
            print(f"{name:>12}: residual {args.target:g} at t={hit.t}, {hit.bits_cum} bits")
    atomic_write(os.path.join(args.out, "compare.csv"), "\n".join(lines) + "\n")
    print(f"long-format trace in {args.out}/compare.csv")


if __name__ == "__main__":
    main()
