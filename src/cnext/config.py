"""Experiment configuration: JSON file with nested blocks, defaults mirroring the tuned runs."""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field, fields

from .compress import ALL_KINDS, CompressionScheme, make_scheme
from .solver import HyperParams, MODES, MODE_CNEXT

COVTYPE_PATH_ENV = "CNEXT_COVTYPE_PATH"


class ConfigError(ValueError):
    """Invalid or inconsistent configuration; message carries the offending field path."""


# tuned (eta, alpha, k) for the synthetic desk ridge benchmark (ring n=10, N=500, p=20,
# gamma=0.6), by scheme; alpha = 1 destabilizes the three larger-C operators at gamma = 0.6
RIDGE_TUNED = {
    "qnbbq": {"eta": 0.0095, "alpha": 1.0, "k": None},
    "randomk": {"eta": 0.0012, "alpha": 0.5, "k": 5},
    "topk": {"eta": 0.006, "alpha": 0.5, "k": 3},
    "qnormsigned": {"eta": 0.021, "alpha": 0.25, "k": None},
}
RIDGE_DEFAULTS = {"lambda": 0.5, "gamma": 0.6, "alpha": 1.0, "T": 5000, "tol": 0.0}

# tuned (gamma, eta) for the binary-classification benchmark, by (scheme, topology)
LOGISTIC_GAMMA_ETA = {
    ("qnbbq", "ring"): (0.35, 0.093), ("qnbbq", "expander"): (0.20, 0.09),
    ("topk", "ring"): (0.40, 0.098), ("topk", "expander"): (0.21, 0.08),
    ("qnormsigned", "ring"): (0.35, 0.095), ("qnormsigned", "expander"): (0.30, 0.095),
}
LOGISTIC_DEFAULTS = {"lambda": 0.1, "alpha": 0.5, "T": 1000, "tol": 0.0}


@dataclass(frozen=True)
class DataConfig:
    source: str  # "synthetic" | "covtype"
    n_samples: int = 500
    p: int = 20  # the dimension: synthetic features, or CovType's principal components
    noise_std: float = 0.1
    path: str | None = None


@dataclass(frozen=True)
class ObjectiveConfig:
    kind: str  # "ridge" | "logistic"
    lam: float
    data: DataConfig


@dataclass(frozen=True)
class NetworkConfig:
    kind: str  # "ring" | "expander" | "custom"
    n: int
    degree: int | None = None
    adjacency: list | None = None  # for "custom"


@dataclass(frozen=True)
class Variant:
    name: str
    mode: str
    scheme: CompressionScheme  # the config's; `solver.mode_scheme` gives the one sent
    hyperparams: HyperParams


@dataclass(frozen=True)
class ExperimentConfig:
    objective: ObjectiveConfig
    network: NetworkConfig
    scheme: CompressionScheme
    hyperparams: HyperParams
    mode: str = MODE_CNEXT
    seed: int = 42
    seeds: tuple[int, ...] | None = None
    output_dir: str = "results/run"
    variants: tuple[Variant, ...] = ()
    eps: tuple[float, ...] | None = None
    given: dict = field(default_factory=dict, compare=False, repr=False)  # the config as read


def _known(block: dict, keys, path: str) -> dict:
    """block, after rejecting its first key outside `keys` as an unknown field of `path`."""
    unknown = [key for key in block if key not in keys]
    if unknown:
        raise ConfigError(f"unknown field {path}{unknown[0]} (known: {', '.join(keys)})")
    return block


def _names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _req(block: dict, key: str, path: str):
    if key not in block or block[key] is None:
        raise ConfigError(f"missing required field {path}.{key}")
    return block[key]


def _opt(block: dict, key: str, default):
    v = block.get(key)
    return default if v is None else v


def _int(value, path: str) -> int:
    """value as an int: an int, or a float with an integral value. A fraction, a string or
    a bool is an error of `path`, not a value to truncate."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{path} must be an integer, got {value!r}")


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate and fill defaults; raises ConfigError with the offending field path."""
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be an object")
    try:
        _known(raw, ("objective", "network", "scheme", "hyperparams", "mode", "seed", "seeds",
                     "output_dir", "compare", "theory"), "")
        obj_raw = _known(_req(raw, "objective", "$"), ("kind", "lambda", "data"), "objective.")
        kind = _req(obj_raw, "kind", "objective")
        if kind not in ("ridge", "logistic"):
            raise ConfigError(f"objective.kind must be ridge|logistic, got {kind!r}")
        defaults = RIDGE_DEFAULTS if kind == "ridge" else LOGISTIC_DEFAULTS
        lam = float(_opt(obj_raw, "lambda", defaults["lambda"]))
        data_raw = _known(_opt(obj_raw, "data", {}), _names(DataConfig), "objective.data.")
        source = _opt(data_raw, "source", "synthetic" if kind == "ridge" else "covtype")
        if source not in ("synthetic", "covtype"):
            raise ConfigError(f"objective.data.source must be synthetic|covtype, got {source!r}")
        if kind == "logistic" and source == "synthetic":
            raise ConfigError("objective.data.source: the synthetic generator produces real "
                              "targets; the logistic objective needs covtype")
        path = data_raw.get("path") or os.environ.get(COVTYPE_PATH_ENV)
        data = DataConfig(source=source,
                          n_samples=_int(_opt(data_raw, "n_samples", 500),
                                         "objective.data.n_samples"),
                          p=_int(_opt(data_raw, "p", 20 if source == "synthetic" else 10),
                                 "objective.data.p"),
                          noise_std=float(_opt(data_raw, "noise_std", 0.1)),
                          path=path)
        if data.p < 1:  # every scheme below is checked on this p
            raise ConfigError(f"objective.data.p must be at least 1, got {data.p}")
        objective = ObjectiveConfig(kind=kind, lam=lam, data=data)

        net_raw = _known(_req(raw, "network", "$"), _names(NetworkConfig), "network.")
        net_kind = _req(net_raw, "kind", "network")
        if net_kind not in ("ring", "expander", "custom"):
            raise ConfigError(f"network.kind must be ring|expander|custom, got {net_kind!r}")
        network = NetworkConfig(kind=net_kind, n=_int(_req(net_raw, "n", "network"), "network.n"),
                                degree=(None if net_raw.get("degree") is None
                                        else _int(net_raw["degree"], "network.degree")),
                                adjacency=net_raw.get("adjacency"))
        if net_kind == "expander" and network.degree is None:
            raise ConfigError("network.degree is required for the expander topology")
        if net_kind == "custom":
            adj, n = _req(net_raw, "adjacency", "network"), network.n
            if not (isinstance(adj, list) and len(adj) == n
                    and all(isinstance(row, list) and len(row) == n for row in adj)):
                raise ConfigError(f"network.adjacency must be an n x n list of rows, n = {n}")

        hp_raw = _known(_opt(raw, "hyperparams", {}), _names(HyperParams), "hyperparams.")
        scheme, hyper = _resolve(_req(raw, "scheme", "$"), (hp_raw,), objective, net_kind, "")
        mode = _opt(raw, "mode", MODE_CNEXT)
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        seeds = tuple(_int(s, f"seeds[{i}]") for i, s in enumerate(raw.get("seeds") or ()))
        if len(set(seeds)) < len(seeds):
            raise ConfigError(f"seeds: repeated seeds in {list(seeds)}")
        if len(seeds) > 1 and hyper.tol > 0:
            # runs stopped by a tolerance end at different rounds, and averaging needs
            # equal-length traces
            raise ConfigError("seeds: averaging over several seeds needs hyperparams.tol = 0")
        variants = []
        compare = _known(_opt(raw, "compare", {}), ("variants",), "compare.")
        for i, v in enumerate(compare.get("variants", [])):
            vpath = f"compare.variants[{i}]"
            _known(v, ("name", "mode", "scheme", "eta", "gamma"), vpath + ".")
            vmode = _opt(v, "mode", MODE_CNEXT)
            if vmode not in MODES:
                raise ConfigError(f"{vpath}.mode invalid: {vmode!r}")
            own = {"eta": v.get("eta"), "gamma": v.get("gamma")}
            vscheme, vhyper = _resolve(_req(v, "scheme", vpath), (own, hp_raw), objective,
                                       net_kind, f"{vpath}.")
            variants.append(Variant(name=_opt(v, "name", f"{vmode}:{vscheme.kind}"),
                                    mode=vmode, scheme=vscheme, hyperparams=vhyper))
        theory_raw = _known(_opt(raw, "theory", {}), ("eps",), "theory.")
        eps = theory_raw.get("eps")
        if eps is not None:
            eps = tuple(float(e) for e in eps)
            if len(eps) != 5 or not all(e > 0 for e in eps):  # a NaN entry fails too
                raise ConfigError("theory.eps must be 5 positive reals")
        return ExperimentConfig(
            objective=objective, network=network, scheme=scheme, hyperparams=hyper,
            mode=mode, seed=_int(_opt(raw, "seed", 42), "seed"),
            seeds=seeds or None,
            output_dir=str(_opt(raw, "output_dir", "results/run")),
            variants=tuple(variants), eps=eps, given=copy.deepcopy(raw))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def _resolve(scheme_raw: dict, blocks: tuple[dict, ...], objective: ObjectiveConfig,
             net_kind: str, path: str) -> tuple[CompressionScheme, HyperParams]:
    """A scheme and its hyperparameters, for the top level or for one compare variant.

    Each hyperparameter is the first value set in `blocks` (a variant's own eta/gamma,
    then the top-level hyperparams block), else the tuned value for this scheme
    (RIDGE_TUNED, or LOGISTIC_GAMMA_ETA by topology), else the objective's default.
    For ridge, an omitted k for random-k / top-k takes the tuned k. The scheme is built
    once, for the data's p, so a value it refuses is an error of this member.
    """
    kind = _req(_known(scheme_raw, ("kind", "b", "k"), path + "scheme."), "kind", path + "scheme")
    if kind not in ALL_KINDS:
        raise ConfigError(f"{path}scheme.kind must be one of {ALL_KINDS}, got {kind!r}")
    if objective.kind == "ridge":
        tuned, defaults = RIDGE_TUNED.get(kind, {}), RIDGE_DEFAULTS
    else:
        gamma, eta = LOGISTIC_GAMMA_ETA.get((kind, net_kind), (None, None))
        tuned, defaults = {"gamma": gamma, "eta": eta}, LOGISTIC_DEFAULTS
    k = _opt(scheme_raw, "k", tuned.get("k"))
    if kind in ("randomk", "topk") and k is None:
        raise ConfigError(f"{path}scheme.k is required for {kind}")
    kw = {key: _int(v, f"{path}scheme.{key}")  # an unset b takes make_scheme's default
          for key, v in (("k", k), ("b", scheme_raw.get("b"))) if v is not None}
    try:
        scheme = make_scheme(kind, objective.data.p, **kw)
    except ValueError as exc:
        raise ConfigError(f"{path}scheme: {exc}") from exc

    values = {}
    for key in ("eta", "gamma", "alpha_x", "alpha_y", "T", "tol"):
        common = "alpha" if key.startswith("alpha") else key
        candidates = [b.get(key) for b in blocks] + [tuned.get(common), defaults.get(common)]
        value = next((c for c in candidates if c is not None), None)
        if value is None:
            raise ConfigError(f"{path}hyperparams.{key} is required "
                              f"(no tuned default for scheme {kind!r})")
        values[key] = _int(value, f"{path}hyperparams.T") if key == "T" else float(value)
    try:
        return scheme, HyperParams(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}hyperparams: {exc}") from exc


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Read the JSON config file and apply flat CLI overrides (flags win over file values)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        block = raw
        *parents, leaf = key.split(".")
        for part in parents:
            block = block.setdefault(part, {})
        block[leaf] = value
    return parse_config(raw)
