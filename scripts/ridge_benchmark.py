#!/usr/bin/env python3
"""Synthetic ridge benchmark: run all four operators at their tuned step sizes.

Writes one trace CSV per scheme plus a summary table, mirroring the desk-scale
convergence comparison (p=20, n=10, N=500, lambda=0.5, gamma=0.6, T=5000, seed 42).
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cnext.cli import atomic_write, records_to_csv
from cnext.compress import make_scheme
from cnext.config import RIDGE_TUNED
from cnext.data import build_locals, generate_ridge_synthetic, partition_homogeneous
from cnext.graph import build_ring, metropolis_hastings_weights
from cnext.objective import ridge_closed_form_optimum, ridge_objective
from cnext.solver import HyperParams, MODE_CNEXT, run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/ridge_benchmark")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--iters", type=int, default=5000)
    args = ap.parse_args()

    ds = generate_ridge_synthetic(500, 20, args.seed)
    part = partition_homogeneous(ds, 10, args.seed)
    obj = ridge_objective(build_locals(ds, part), 0.5)
    net = metropolis_hastings_weights(build_ring(10))
    x_star = ridge_closed_form_optimum(obj)
    f_star = obj.value(x_star)
    os.makedirs(args.out, exist_ok=True)

    print(f"instance: mu={obj.mu:.3f} L={obj.L:.3f} kappa={obj.kappa:.2f} rho={net.rho:.4f}")
    print(f"{'scheme':<14}{'eta':>8}{'alpha':>7}{'final opt_err':>16}{'final residual':>16}{'Mbits':>9}")
    for kind, sched in RIDGE_TUNED.items():
        scheme = make_scheme(kind, obj.p, b=2, k=sched["k"], rng=np.random.default_rng(0))
        hp = HyperParams(eta=sched["eta"], gamma=0.6, alpha_x=sched["alpha"],
                         alpha_y=sched["alpha"], T=args.iters)
        recs = run(obj, net, scheme, hp, MODE_CNEXT, args.seed, x_star=x_star, f_star=f_star)
        atomic_write(os.path.join(args.out, f"trace_{kind}.csv"), records_to_csv(recs))
        last = recs[-1]
        print(f"{scheme.label():<14}{sched['eta']:>8}{sched['alpha']:>7}"
              f"{last.errors.opt:>16.3e}{last.residual:>16.3e}{last.bits_cum / 1e6:>9.2f}")
    print(f"traces in {args.out}/")


if __name__ == "__main__":
    main()
