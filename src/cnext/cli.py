"""Experiment harness CLI: run / compare / theory.

Every run directory receives a trace CSV (fixed column order) and a JSON manifest
carrying the config as given (after flags), enough to reproduce the run bit-exactly,
and what it resolved to: seed, hyperparameters, scheme constants and the
bit-accounting convention.

Exit codes: 0 ok, 2 config or usage error, 3 numerical failure, 4 io error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import cached_property

import numpy as np

from . import __version__
from .compress import CompressionScheme, ALL_KINDS
from .config import ConfigError, ExperimentConfig, load_config
from .data import build_locals, generate_ridge_synthetic, load_covtype, partition_homogeneous
from .graph import build_circulant_expander, build_custom, build_ring, metropolis_hastings_weights
from .objective import ConvergenceError, logistic_objective, ridge_objective
from .solver import (DivergenceError, HyperParams, MODES, NumericalError, RoundRecord,
                     baseline_optimum, mode_scheme, run)
from .theory import (DomainError, Theta, TheoryConstants, contraction_rate, evaluate, rho_below,
                     warn_theory_violations)

CSV_COLUMNS = ("t", "bits_cum", "opt_err", "cons_err", "gt_err",
               "comp_x_err", "comp_y_err", "residual", "accuracy")
BIT_CONVENTION = "bits_cum counts both transmitted streams (X and Y): 2 * n * per-vector cost per round"
GRID_ETA = (1e-10, 1e-2)  # the eta and gamma ranges `cnext theory --grid` sweeps, log-spaced
GRID_GAMMA = (1e-4, 1.0)
# the flags every command takes: the config field each sets (its argparse dest), and its type or choices
FLAGS = {"--seed": ("seed", int), "--eta": ("hyperparams.eta", float),
         "--gamma": ("hyperparams.gamma", float), "--T": ("hyperparams.T", int),
         "--tol": ("hyperparams.tol", float), "--mode": ("mode", MODES),
         "--scheme": ("scheme.kind", ALL_KINDS), "--k": ("scheme.k", int),
         "--b": ("scheme.b", int), "--output-dir": ("output_dir", str)}


class Experiment:
    """Everything a run needs, assembled once from a config: network, data, objective,
    the scheme the top-level mode sends with and, on first read, the baseline optimum."""

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
        if data_cfg.source == "covtype" and not data_cfg.path:
            raise ConfigError("covtype source needs objective.data.path or $CNEXT_COVTYPE_PATH")
        try:  # values the config parser admits but the data cannot meet; a missing file is io
            if data_cfg.source == "synthetic":
                self.ds = generate_ridge_synthetic(data_cfg.n_samples, data_cfg.p, cfg.seed,
                                                   data_cfg.noise_std)
            else:
                self.ds = load_covtype(data_cfg.path, data_cfg.p, cfg.seed, net_cfg.n)
            self.partition = partition_homogeneous(self.ds, net_cfg.n, cfg.seed)
            locals_ = build_locals(self.ds, self.partition)
        except ValueError as exc:
            raise ConfigError(f"objective.data: {exc}") from exc
        ridge = cfg.objective.kind == "ridge"
        try:
            self.obj = (ridge_objective if ridge else logistic_objective)(locals_, cfg.objective.lam)
        except ValueError as exc:
            raise ConfigError(f"objective: {exc}") from exc
        self.test_data = self.ds.test() if not ridge and self.ds.test_idx.size else None
        self.scheme = mode_scheme(cfg.mode, cfg.scheme)

    @cached_property
    def x_star(self) -> np.ndarray:
        """The baseline optimum, which runs read and `cnext theory` does not."""
        return baseline_optimum(self.obj)

    def manifest(self, hp: HyperParams, mode: str, scheme: CompressionScheme,
                 extra: dict | None = None) -> dict:
        man = {
            "config": self.cfg.given,
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


def _write_json(path: str, obj: dict) -> None:
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _values(r: RoundRecord) -> tuple[float | None, ...]:
    """The columns of one trace row after t and bits_cum, in CSV_COLUMNS order."""
    return (*r.errors, r.residual, r.accuracy)


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


def _attempt(exp: Experiment, scheme: CompressionScheme, hp: HyperParams, mode: str,
             seed: int) -> tuple[list[RoundRecord], str, dict | None]:
    """One member's run: its records, why it ended ("T", "tol", "divergence" or
    "numerical"), and for a run that failed, no records and its error entry."""
    try:
        records = run(exp.obj, exp.net, scheme, hp, mode, seed,
                      x_star=exp.x_star, test_data=exp.test_data)
    except (DivergenceError, NumericalError) as exc:
        return [], "divergence" if isinstance(exc, DivergenceError) else "numerical", {
            "error": type(exc).__name__, "message": str(exc), "t": exc.t,
            "quantity": getattr(exc, "quantity", None), "agent": getattr(exc, "agent", None)}
    return records, "T" if len(records) == hp.T + 1 else "tol", None


def cmd_run(cfg: ExperimentConfig) -> int:
    exp = Experiment(cfg)
    exp.x_star  # solved before any file is written, so a baseline that fails leaves none
    hp, mode, scheme = cfg.hyperparams, cfg.mode, exp.scheme
    os.makedirs(cfg.output_dir, exist_ok=True)
    manifest_path = os.path.join(cfg.output_dir, "manifest.json")
    seeds = cfg.seeds if cfg.seeds else (cfg.seed,)
    per_seed = []
    stop = {}  # seed -> why its run ended
    for seed in seeds:
        records, stop[str(seed)], err = _attempt(exp, scheme, hp, mode, seed)
        if err:
            _write_json(manifest_path, exp.manifest(hp, mode, scheme,
                                                    {"divergence": err, "stop": stop}))
            print(json.dumps(err), file=sys.stderr)
            return 3
        per_seed.append(records)
        if len(seeds) > 1:
            atomic_write(os.path.join(cfg.output_dir, f"trace_seed{seed}.csv"),
                         records_to_csv(records))
    csv_text = records_to_csv(per_seed[0]) if len(per_seed) == 1 else averaged_csv(per_seed)
    atomic_write(os.path.join(cfg.output_dir, "trace.csv"), csv_text)
    _write_json(manifest_path, exp.manifest(hp, mode, scheme, {"seeds": list(seeds), "stop": stop}))
    print(f"wrote {os.path.join(cfg.output_dir, 'trace.csv')} "
          f"({len(per_seed[0])} rows per seed, {len(seeds)} seed(s))")
    return 0


def cmd_compare(cfg: ExperimentConfig) -> int:
    if len(cfg.variants) < 2:
        raise ConfigError("compare needs at least 2 variants in compare.variants")
    exp = Experiment(cfg)
    exp.x_star  # solved before any file is written, as in cmd_run
    os.makedirs(cfg.output_dir, exist_ok=True)
    lines = ["variant," + ",".join(CSV_COLUMNS)]
    summary = {}
    for v in cfg.variants:
        scheme = mode_scheme(v.mode, v.scheme)
        # a diverging variant is a comparison outcome, not a harness failure
        records, stop, err = _attempt(exp, scheme, v.hyperparams, v.mode, cfg.seed)
        lines.extend(f"{v.name},{_line(r.t, r.bits_cum, _values(r))}" for r in records)
        summary[v.name] = {
            "scheme": _scheme_dict(scheme), "mode": v.mode,
            "hyperparams": asdict(v.hyperparams), "diverged": err, "stop": stop,
            "theory_warnings": warn_theory_violations(v.hyperparams, exp.obj, scheme),
            "final_residual": records[-1].residual if records else None}
    atomic_write(os.path.join(cfg.output_dir, "compare.csv"), "\n".join(lines) + "\n")
    _write_json(os.path.join(cfg.output_dir, "manifest.json"),
                exp.manifest(cfg.hyperparams, cfg.mode, exp.scheme, {"variants": summary}))
    print(f"wrote {os.path.join(cfg.output_dir, 'compare.csv')} ({len(cfg.variants)} variants)")
    return 0


def _theory_point(exp: Experiment, eta: float, gamma: float) -> dict:
    """A(theta), read-only, rho(A) and the sufficient-condition report at one (eta, gamma),
    with the config's alphas and eps; {"error"} when a precondition fails. A theta outside
    the theory's domain (eta <= 0 or gamma <= 0) is a config error."""
    hp = exp.cfg.hyperparams
    theta = Theta(eta=eta, gamma=gamma, alpha_x=hp.alpha_x, alpha_y=hp.alpha_y)
    try:
        tc = TheoryConstants.build(exp.obj.mu, exp.obj.L, exp.net, exp.scheme, theta)
        A, conditions = evaluate(tc, theta, exp.net.n, exp.cfg.eps)
    except DomainError as exc:
        raise ConfigError(f"theory: {exc}") from exc
    except ValueError as exc:
        return {"error": str(exc)}  # constraint violations are reported, not fatal
    return {"A": A, "rho_A": conditions["rho_A"], "sufficient_conditions": conditions}


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
    # A is the point's array, listed once here; JSON has no infinity (an unbounded C = 0
    # cap) or NaN: such numbers print as null
    report = json.loads(json.dumps(report, default=np.ndarray.tolist), parse_constant=lambda _: None)
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
            lt_q = rho_below(point["A"], q, rho)
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
        for flag, (dest, kind) in FLAGS.items():
            if isinstance(kind, tuple):
                sp.add_argument(flag, dest=dest, choices=kind)
            else:  # the metavar argparse would derive from the flag, not from the dest
                sp.add_argument(flag, dest=dest, type=kind, metavar=flag[2:].upper().replace("-", "_"))
        if name == "theory":
            sp.add_argument("--grid", type=int,
                            help="map the certified region on an N x N (eta, gamma) grid")
    return ap


def _overrides(args: argparse.Namespace) -> dict:
    """The config fields the common flags set (FLAGS); load_config skips the unset (None) ones."""
    return {dest: getattr(args, dest) for dest, _ in FLAGS.values()}


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
