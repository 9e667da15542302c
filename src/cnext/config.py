"""Experiment configuration: JSON file with nested blocks, defaults mirroring the tuned runs."""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field, fields

from .compress import ALL_KINDS, PARAMS, CompressionScheme, make_scheme
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

# the keys each kind of a block reads: each scheme kind, network kind and data source
SCHEME_KEYS = {kind: ("kind", *PARAMS.get(kind, ())) for kind in ALL_KINDS}
NETWORK_KEYS = {"ring": ("kind", "n"), "expander": ("kind", "n", "degree"),
                "custom": ("kind", "n", "adjacency")}
DATA_KEYS = {"synthetic": ("source", "n_samples", "p", "noise_std"),
             "covtype": ("source", "p", "path")}


@dataclass(frozen=True)
class DataConfig:
    """The data source and the keys it reads (DATA_KEYS); None for a key it does not read."""
    source: str  # "synthetic" | "covtype"
    n_samples: int | None
    p: int  # the dimension: synthetic features, or CovType's principal components
    noise_std: float | None
    path: str | None


@dataclass(frozen=True)
class ObjectiveConfig:
    kind: str  # "ridge" | "logistic"
    lam: float
    data: DataConfig


@dataclass(frozen=True)
class NetworkConfig:
    """The network kind and the keys it reads (NETWORK_KEYS); None for a key it does not read."""
    kind: str  # "ring" | "expander" | "custom"
    n: int
    degree: int | None
    adjacency: list | None


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
    mode: str
    seed: int
    seeds: tuple[int, ...] | None
    output_dir: str
    variants: tuple[Variant, ...]
    eps: tuple[float, ...] | None
    given: dict = field(compare=False, repr=False)  # the config as read


def _known(block: dict, keys, path: str, kind: str | None = None) -> dict:
    """block, after rejecting its first key outside `keys` as an unknown field of `path`.
    Given the block's validated `kind`, `keys` are the keys that kind reads and a key set
    to null counts as unset, as `_opt` reads it; a key no kind reads is refused first,
    null or not, by a call with every kind's keys (`_any`)."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path[:-1]} must be an object, got {block!r}")
    unknown = [key for key in block if key not in keys and (kind is None or block[key] is not None)]
    if unknown:
        known = f"{kind} reads" if kind else "known:"
        raise ConfigError(f"unknown field {path}{unknown[0]} ({known} {', '.join(keys)})")
    return block


def _any(table: dict) -> tuple[str, ...]:
    """The keys that some kind in `table` reads, in the table's order."""
    return tuple(dict.fromkeys(key for keys in table.values() for key in keys))


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


def _num(value, path: str) -> float:
    """value as a float: an int or a float. A string or a bool is an error of `path`."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{path} must be a number, got {value!r}")


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {value!r}")
    return value


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
        lam = _num(_opt(obj_raw, "lambda", defaults["lambda"]), "objective.lambda")
        data_raw = _known(_opt(obj_raw, "data", {}), _any(DATA_KEYS), "objective.data.")
        source = _opt(data_raw, "source", "synthetic" if kind == "ridge" else "covtype")
        if source not in DATA_KEYS:
            raise ConfigError(f"objective.data.source must be {'|'.join(DATA_KEYS)}, "
                              f"got {source!r}")
        if kind == "logistic" and source == "synthetic":
            raise ConfigError("objective.data.source: the synthetic generator produces real "
                              "targets; the logistic objective needs covtype")
        _known(data_raw, DATA_KEYS[source], "objective.data.", source)
        synthetic = source == "synthetic"
        data = DataConfig(source=source,
                          n_samples=(_int(_opt(data_raw, "n_samples", 500),
                                          "objective.data.n_samples") if synthetic else None),
                          p=_int(_opt(data_raw, "p", 20 if synthetic else 10), "objective.data.p"),
                          noise_std=(_num(_opt(data_raw, "noise_std", 0.1), "objective.data.noise_std")
                                     if synthetic else None),
                          path=(None if synthetic
                                else _str(_opt(data_raw, "path", ""), "objective.data.path")
                                or os.environ.get(COVTYPE_PATH_ENV)))
        if data.p < 1:  # every scheme below is checked on this p
            raise ConfigError(f"objective.data.p must be at least 1, got {data.p}")
        objective = ObjectiveConfig(kind=kind, lam=lam, data=data)

        net_raw = _known(_req(raw, "network", "$"), _any(NETWORK_KEYS), "network.")
        net_kind = _req(net_raw, "kind", "network")
        if net_kind not in NETWORK_KEYS:
            raise ConfigError(f"network.kind must be {'|'.join(NETWORK_KEYS)}, got {net_kind!r}")
        _known(net_raw, NETWORK_KEYS[net_kind], "network.", net_kind)
        network = NetworkConfig(kind=net_kind, n=_int(_req(net_raw, "n", "network"), "network.n"),
                                degree=(_int(_req(net_raw, "degree", "network"), "network.degree")
                                        if net_kind == "expander" else None),
                                adjacency=(_req(net_raw, "adjacency", "network")
                                           if net_kind == "custom" else None))
        if net_kind == "custom":
            adj, n = network.adjacency, network.n
            if not (isinstance(adj, list) and len(adj) == n
                    and all(isinstance(row, list) and len(row) == n for row in adj)
                    and all(e in (0, 1) and not isinstance(e, bool) for row in adj for e in row)):
                raise ConfigError(f"network.adjacency must be n x n rows of zeros and ones, n = {n}")

        hp_raw = _known(_opt(raw, "hyperparams", {}), [f.name for f in fields(HyperParams)],
                        "hyperparams.")
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
            vscheme, vhyper = _resolve(_req(v, "scheme", vpath), (v, hp_raw), objective,
                                       net_kind, f"{vpath}.")
            name = _str(_opt(v, "name", f"{vmode}:{vscheme.kind}"), f"{vpath}.name")
            # the manifest keys the variants by name, and compare.csv's rows start with it
            if name in (u.name for u in variants) or any(c in name for c in ',"\r\n'):
                raise ConfigError(f"{vpath}.name must be unique and hold no comma, quote or "
                                  f"line break, got {name!r}")
            variants.append(Variant(name=name, mode=vmode, scheme=vscheme, hyperparams=vhyper))
        eps = _known(_opt(raw, "theory", {}), ("eps",), "theory.").get("eps")
        if eps is not None:
            if not isinstance(eps, list):  # a string's characters are no entries
                raise ConfigError(f"theory.eps must be a list of 5 positive reals, got {eps!r}")
            eps = tuple(_num(e, f"theory.eps[{i}]") for i, e in enumerate(eps))
            if len(eps) != 5 or not all(e > 0 for e in eps):  # a NaN entry fails too
                raise ConfigError("theory.eps must be a list of 5 positive reals")
        return ExperimentConfig(
            objective=objective, network=network, scheme=scheme, hyperparams=hyper,
            mode=mode, seed=_int(_opt(raw, "seed", 42), "seed"),
            seeds=seeds or None,
            output_dir=_str(_opt(raw, "output_dir", "results/run"), "output_dir"),
            variants=tuple(variants), eps=eps, given=copy.deepcopy(raw))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def _resolve(scheme_raw: dict, blocks: tuple[dict, ...], objective: ObjectiveConfig,
             net_kind: str, path: str) -> tuple[CompressionScheme, HyperParams]:
    """A scheme and its hyperparameters, for the top level or for one compare variant.

    Each hyperparameter is the first value set in `blocks` (a variant, which sets at most
    eta and gamma, then the top-level hyperparams block), else the tuned value for this scheme
    (RIDGE_TUNED, or LOGISTIC_GAMMA_ETA by topology), else the objective's default.
    For ridge, an omitted k for random-k / top-k takes the tuned k. The scheme is built
    once, for the data's p, so a value it refuses is an error of this member.
    """
    scheme_path = path + "scheme."
    kind = _req(_known(scheme_raw, _any(SCHEME_KEYS), scheme_path), "kind", path + "scheme")
    if kind not in ALL_KINDS:
        raise ConfigError(f"{path}scheme.kind must be one of {ALL_KINDS}, got {kind!r}")
    _known(scheme_raw, SCHEME_KEYS[kind], scheme_path, kind)
    if objective.kind == "ridge":
        tuned, defaults = RIDGE_TUNED.get(kind, {}), RIDGE_DEFAULTS
    else:
        gamma, eta = LOGISTIC_GAMMA_ETA.get((kind, net_kind), (None, None))
        tuned, defaults = {"gamma": gamma, "eta": eta}, LOGISTIC_DEFAULTS
    kw = {key: _opt(scheme_raw, key, tuned.get(key)) for key in PARAMS.get(kind, ())}
    if "k" in kw and kw["k"] is None:
        raise ConfigError(f"{path}scheme.k is required for {kind}")
    kw = {key: _int(v, scheme_path + key)  # an unset b takes make_scheme's default
          for key, v in kw.items() if v is not None}
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
        values[key] = (_int if key == "T" else _num)(value, f"{path}hyperparams.{key}")
    try:
        return scheme, HyperParams(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}hyperparams: {exc}") from exc


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Read the JSON config file and apply flat CLI overrides (flags win over file values).

    A `scheme.kind` override that changes the file's kind drops the file's scheme keys
    that the new kind does not read, such as qnbbq's b under `--scheme topk`: they
    belonged to the kind it replaces. The flags' b and k are then checked as file keys.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        return parse_config(raw)  # which refuses it
    overrides = {key: value for key, value in (overrides or {}).items() if value is not None}
    scheme, kind = raw.get("scheme"), overrides.get("scheme.kind")
    if isinstance(scheme, dict) and kind in SCHEME_KEYS and scheme.get("kind") != kind:
        raw["scheme"] = {key: v for key, v in scheme.items()
                         if key in SCHEME_KEYS[kind] or key not in _any(SCHEME_KEYS)}
    for key, value in overrides.items():
        block = raw
        *parents, leaf = key.split(".")
        for part in parents:
            block = block.setdefault(part, {})
            if not isinstance(block, dict):
                raise ConfigError(f"{part} must be an object, got {block!r}")
        block[leaf] = value
    return parse_config(raw)
