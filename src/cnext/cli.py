"""Experiment harness CLI: run / compare / theory.

Every run directory receives a trace CSV (fixed column order) and a JSON manifest
carrying the resolved config, seed, scheme constants, and the bit-accounting
convention, enough to reproduce the run bit-exactly.

Exit codes: 0 ok, 2 config or usage error, 3 numerical failure, 4 io error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .compress import CompressionScheme, make_scheme, ALL_KINDS
from .config import ConfigError, ExperimentConfig, SchemeConfig, load_config
from .data import build_locals, generate_ridge_synthetic, load_covtype, partition_homogeneous
from .graph import build_circulant_expander, build_custom, build_ring, metropolis_hastings_weights
from .objective import ConvergenceError, logistic_objective, ridge_objective
from .solver import (DivergenceError, HyperParams, MODES, NumericalError, RoundRecord,
                     baseline_optimum, run, warn_theory_violations)
from .theory import DomainError, Theta, TheoryConstants, contraction_rate, evaluate, rho_below

CSV_COLUMNS = ("t", "bits_cum", "opt_err", "cons_err", "gt_err",
               "comp_x_err", "comp_y_err", "residual", "accuracy")
BIT_CONVENTION = "bits_cum counts both transmitted streams (X and Y): 2 * n * per-vector cost per round"
GRID_ETA = (1e-10, 1e-2)  # the eta and gamma ranges `cnext theory --grid` sweeps, log-spaced
GRID_GAMMA = (1e-4, 1.0)


class Experiment:
    """Everything a run needs, assembled once from a config: network, data, objective,
    the top-level scheme and the baseline optimum."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        net_cfg = cfg.network
        try:
            if net_cfg.kind == "ring":
                topo = build_ring(net_cfg.n)
            elif net_cfg.kind == "expander":
                topo = build_circulant_expander(net_cfg.n, net_cfg.degree)
            else:
                topo = build_custom(net_cfg.adjacency)
            self.net = metropolis_hastings_weights(topo)
        except ValueError as exc:  # a graph the config describes but that cannot mix
            raise ConfigError(f"network: {exc}") from exc

        data_cfg = cfg.objective.data
        if data_cfg.source == "synthetic":
            self.ds = generate_ridge_synthetic(data_cfg.n_samples, data_cfg.p, cfg.seed,
                                               data_cfg.noise_std)
        else:
            if not data_cfg.path:
                raise ConfigError("covtype source needs objective.data.path or $CNEXT_COVTYPE_PATH")
            self.ds = load_covtype(data_cfg.path, data_cfg.p_reduced, cfg.seed, net_cfg.n)
        part = partition_homogeneous(self.ds, net_cfg.n, cfg.seed)
        self.partition = part
        locals_ = build_locals(self.ds, part)
        if cfg.objective.kind == "ridge":
            self.obj = ridge_objective(locals_, cfg.objective.lam)
            self.test_data = None
        else:
            self.obj = logistic_objective(locals_, cfg.objective.lam)
            self.test_data = self.ds.test() if self.ds.test_idx.size else None
        self.scheme = self.build_scheme(cfg.scheme)
        self.x_star = baseline_optimum(self.obj)

    @property
    def p(self) -> int:
        return self.obj.p

    def build_scheme(self, sc: SchemeConfig) -> CompressionScheme:
        return make_scheme(sc.kind, self.p, b=sc.b, k=sc.k)

    def manifest(self, hp: HyperParams, mode: str, scheme: CompressionScheme,
                 extra: dict | None = None) -> dict:
        man = {
            "config": self.cfg.to_dict(),
            "resolved": {
                "mode": mode, "seed": self.cfg.seed,
                "hyperparams": asdict(hp),
                "scheme": _scheme_dict(scheme),
                "network": {"n": self.net.n, "rho": self.net.rho, "beta": self.net.beta},
                "objective": {"mu": self.obj.mu, "L": self.obj.L, "kappa": self.obj.kappa,
                              "m_i": self.partition.m_i, "dropped_samples": self.partition.dropped},
                "theory_warnings": warn_theory_violations(hp, self.obj, scheme),
                "data_extras": {k: v for k, v in self.ds.extras.items() if k != "x_hidden"},
            },
            "bit_convention": BIT_CONVENTION,
            "version": __version__,
            "numpy": np.__version__,
        }
        if extra:
            man.update(extra)
        return man


def _scheme_dict(s: CompressionScheme) -> dict:
    return {"kind": s.kind, "b": s.b, "k": s.k, "C": s.C, "r": s.r, "delta": s.delta,
            "label": s.label()}


def atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _values(r: RoundRecord) -> tuple[float | None, ...]:
    """The columns of one trace row after t and bits_cum, in CSV_COLUMNS order."""
    e = r.errors
    return (e.opt, e.cons, e.gt, e.comp_x, e.comp_y, r.residual, r.accuracy)


def _line(t: int, bits: int, values) -> str:
    """One trace row; the accuracy column is empty when it is None (ridge)."""
    *floats, acc = values
    return ",".join((str(t), str(bits), *map(repr, floats), "" if acc is None else repr(acc)))


def _csv(lines) -> str:
    return "\n".join((",".join(CSV_COLUMNS), *lines)) + "\n"


def records_to_csv(records: list[RoundRecord]) -> str:
    return _csv(_line(r.t, r.bits_cum, _values(r)) for r in records)


def averaged_csv(per_seed: list[list[RoundRecord]]) -> str:
    """The trace whose value columns are the per-round means over the seeds' traces."""
    lengths = {len(rs) for rs in per_seed}
    if len(lengths) != 1:
        raise ValueError("seed averaging needs equal-length traces (run with tol = 0)")
    return _csv(_line(rows[0].t, rows[0].bits_cum,
                      [None if col[0] is None else float(np.mean(col))
                       for col in zip(*map(_values, rows))])
                for rows in zip(*per_seed))


def cmd_run(cfg: ExperimentConfig) -> int:
    exp = Experiment(cfg)
    hp, mode, scheme = cfg.hyperparams, cfg.mode, exp.scheme
    os.makedirs(cfg.output_dir, exist_ok=True)
    seeds = cfg.seeds if cfg.seeds else (cfg.seed,)
    per_seed = []
    try:
        for seed in seeds:
            records = run(exp.obj, exp.net, scheme, hp, mode, seed,
                          x_star=exp.x_star, test_data=exp.test_data)
            per_seed.append(records)
            if len(seeds) > 1:
                atomic_write(os.path.join(cfg.output_dir, f"trace_seed{seed}.csv"),
                             records_to_csv(records))
    except (DivergenceError, NumericalError) as exc:
        err = {"error": type(exc).__name__, "message": str(exc),
               "t": exc.t, "quantity": getattr(exc, "quantity", None),
               "agent": getattr(exc, "agent", None)}
        atomic_write(os.path.join(cfg.output_dir, "manifest.json"),
                     json.dumps(exp.manifest(hp, mode, scheme, {"divergence": err}),
                                indent=2, sort_keys=True) + "\n")
        print(json.dumps(err), file=sys.stderr)
        return 3
    csv_text = records_to_csv(per_seed[0]) if len(per_seed) == 1 else averaged_csv(per_seed)
    atomic_write(os.path.join(cfg.output_dir, "trace.csv"), csv_text)
    atomic_write(os.path.join(cfg.output_dir, "manifest.json"),
                 json.dumps(exp.manifest(hp, mode, scheme, {"seeds": list(seeds)}),
                            indent=2, sort_keys=True) + "\n")
    print(f"wrote {os.path.join(cfg.output_dir, 'trace.csv')} "
          f"({len(per_seed[0])} rows per seed, {len(seeds)} seed(s))")
    return 0


def cmd_compare(cfg: ExperimentConfig) -> int:
    if len(cfg.variants) < 2:
        raise ConfigError("compare needs at least 2 variants in compare.variants")
    exp = Experiment(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    lines = ["variant," + ",".join(CSV_COLUMNS)]
    summary = {}
    for v in cfg.variants:
        scheme = exp.build_scheme(v.scheme)
        entry = {"scheme": _scheme_dict(scheme), "mode": v.mode,
                 "hyperparams": asdict(v.hyperparams), "diverged": None}
        try:
            records = run(exp.obj, exp.net, scheme, v.hyperparams, v.mode, cfg.seed,
                          x_star=exp.x_star, test_data=exp.test_data)
        except (DivergenceError, NumericalError) as exc:
            # a diverging variant is a comparison outcome, not a harness failure
            entry["diverged"] = {"error": type(exc).__name__, "message": str(exc), "t": exc.t}
            records = []
        lines.extend(f"{v.name},{row}" for row in records_to_csv(records).splitlines()[1:])
        entry["final_residual"] = records[-1].residual if records else None
        summary[v.name] = entry
    atomic_write(os.path.join(cfg.output_dir, "compare.csv"), "\n".join(lines) + "\n")
    atomic_write(os.path.join(cfg.output_dir, "manifest.json"),
                 json.dumps(exp.manifest(cfg.hyperparams, cfg.mode, exp.scheme,
                                         {"variants": summary}), indent=2, sort_keys=True) + "\n")
    print(f"wrote {os.path.join(cfg.output_dir, 'compare.csv')} ({len(cfg.variants)} variants)")
    return 0


def _theory_point(exp: Experiment, eta: float, gamma: float) -> dict:
    """A(theta), rho(A) and the sufficient-condition report at one (eta, gamma), with the
    config's alphas, tau and eps; {"error"} when a precondition fails. A theta outside the
    theory's domain (eta <= 0 or gamma <= 0) is a config error."""
    cfg = exp.cfg
    hp = cfg.hyperparams
    theta = Theta(eta=eta, gamma=gamma, alpha_x=hp.alpha_x, alpha_y=hp.alpha_y)
    try:
        tc = TheoryConstants.build(exp.obj.mu, exp.obj.L, exp.net, exp.scheme, theta,
                                   tau_x=cfg.tau_x, tau_y=cfg.tau_y)
        A, conditions = evaluate(tc, theta, exp.net.n, cfg.eps)
    except DomainError as exc:
        raise ConfigError(f"theory: {exc}") from exc
    except ValueError as exc:
        return {"error": str(exc)}  # constraint violations are reported, not fatal
    return {"A": A.tolist(), "rho_A": conditions["rho_A"], "sufficient_conditions": conditions}


def cmd_theory(cfg: ExperimentConfig, grid: int | None = None) -> int:
    if grid is not None and grid < 1:
        raise ConfigError(f"--grid must be at least 1, got {grid}")
    exp = Experiment(cfg)
    if grid is not None:
        return _theory_grid(exp, grid)
    hp = cfg.hyperparams
    report: dict = {"scheme": _scheme_dict(exp.scheme),
                    "network": {"n": exp.net.n, "rho": exp.net.rho, "beta": exp.net.beta,
                                "rho_tilde": exp.net.rho_tilde(hp.gamma)},
                    "objective": {"mu": exp.obj.mu, "L": exp.obj.L, "kappa": exp.obj.kappa}}
    report.update(_theory_point(exp, hp.eta, hp.gamma))
    # JSON has no infinity (an unbounded C = 0 cap) or NaN: such numbers print as null
    report = json.loads(json.dumps(report), parse_constant=lambda _: None)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _theory_grid(exp: Experiment, grid: int) -> int:
    """The certified region: sweep_<kind>.csv with, at every point of a grid x grid log grid over
    GRID_ETA x GRID_GAMMA, the pass flag, rho(A), and rho(A) < 1 and rho(A) < q = 1 - eta/(2 kappa)
    as 1 or 0; the last three are empty where rho(A) is not known (A cannot be formed)."""
    cfg, scheme = exp.cfg, exp.scheme
    lines = ["eta,gamma,pass,rho_A,rho_lt_1,rho_lt_q"]
    n_pass = 0
    for eta in map(float, np.geomspace(*GRID_ETA, grid)):
        q = contraction_rate(eta, exp.obj.kappa)
        for gamma in map(float, np.geomspace(*GRID_GAMMA, grid)):
            point = _theory_point(exp, eta, gamma)
            ok = int("error" not in point and point["sufficient_conditions"]["pass"])
            rho = point.get("rho_A")
            n_pass += ok
            if rho is None:
                lines.append(f"{eta!r},{gamma!r},{ok},,,")
                continue
            lt_1 = point["sufficient_conditions"]["direct_contraction"]["rho_lt_1"]
            lt_q = rho_below(np.array(point["A"]), q, rho)
            lines.append(f"{eta!r},{gamma!r},{ok},{rho!r},{int(lt_1)},{int(lt_q)}")
    os.makedirs(cfg.output_dir, exist_ok=True)
    atomic_write(os.path.join(cfg.output_dir, f"sweep_{scheme.kind}.csv"), "\n".join(lines) + "\n")
    print(f"{n_pass}/{grid * grid} grid points certified (scheme={scheme.label()}, "
          f"C={scheme.C:.4g}, kappa={exp.obj.kappa:.2f}); map in {cfg.output_dir}/")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cnext", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("run", "compare", "theory"):
        sp = sub.add_parser(name)
        sp.add_argument("-c", "--config", required=True, help="JSON config file")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--eta", type=float)
        sp.add_argument("--gamma", type=float)
        sp.add_argument("--T", type=int)
        sp.add_argument("--tol", type=float)
        sp.add_argument("--mode", choices=MODES)
        sp.add_argument("--scheme", choices=ALL_KINDS)
        sp.add_argument("--k", type=int)
        sp.add_argument("--b", type=int)
        sp.add_argument("--output-dir")
        if name == "theory":
            sp.add_argument("--grid", type=int,
                            help="map the certified region on an N x N (eta, gamma) grid")
    return ap


def _overrides(args: argparse.Namespace) -> dict:
    """The config fields the common flags set; load_config skips the unset (None) ones."""
    return {
        "seed": args.seed, "mode": args.mode, "output_dir": args.output_dir,
        "hyperparams.eta": args.eta, "hyperparams.gamma": args.gamma,
        "hyperparams.T": args.T, "hyperparams.tol": args.tol,
        "scheme.kind": args.scheme, "scheme.k": args.k, "scheme.b": args.b,
    }


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "compare":
            return cmd_compare(cfg)
        return cmd_theory(cfg, grid=args.grid)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:  # the baseline optimum, found before any round runs
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
