#!/usr/bin/env python3
"""Sufficient-condition sweep: map the certified (eta, gamma) region on a log grid.

Builds the instance and scheme from a config, as `cnext` does. For each grid point,
constructs a certificate vector, evaluates every stated inequality plus the direct
componentwise contraction, and writes sweep_<scheme>.csv, with the pass flag and
rho(A), to the config's output_dir.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cnext.cli import Experiment, atomic_write
from cnext.compress import ALL_KINDS
from cnext.config import ConfigError, load_config
from cnext.theory import Theta, TheoryConstants, check_sufficient_conditions, default_epsilon

DEFAULT_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "theory_identity.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-c", "--config", default=DEFAULT_CONFIG, help="JSON config file")
    ap.add_argument("--scheme", choices=ALL_KINDS, help="overrides the config's scheme.kind")
    ap.add_argument("--grid", type=int, default=20)
    args = ap.parse_args()
    try:
        exp = Experiment(load_config(args.config, {"scheme.kind": args.scheme}))
    except ConfigError as exc:
        sys.exit(f"config error: {exc}")
    obj, net, scheme = exp.obj, exp.net, exp.scheme

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
    out = exp.cfg.output_dir
    os.makedirs(out, exist_ok=True)
    atomic_write(os.path.join(out, f"sweep_{scheme.kind}.csv"), "\n".join(lines) + "\n")
    print(f"{n_pass}/{args.grid * args.grid} grid points certified "
          f"(scheme={scheme.label()}, C={scheme.C:.4g}, kappa={obj.kappa:.2f}); map in {out}/")


if __name__ == "__main__":
    main()
