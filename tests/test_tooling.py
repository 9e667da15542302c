import ast
import json
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from cnext import cli
from cnext.config import ConfigError, load_config, parse_config
from cnext.solver import HyperParams

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def test_traced_names_exist(monkeypatch):
    # Tracer.install() looks every traced name up in its owner's __dict__ and raises
    # KeyError on a missing one, which would break `bench/run.py --trace 1`
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in spans.TRACED
               if attr not in owner.__dict__]
    # the workloads read cnext through its modules (`theory.build_A(...).A`); a name that
    # no longer resolves would fail only inside the benchmark, as a failed operation
    modules = {name: getattr(spans, name) for name in
               ("cli", "compress", "data", "graph", "objective", "solver", "theory")}
    for node in ast.walk(ast.parse((BENCH / "workloads.py").read_text())):
        chain, root = [], node
        while isinstance(root, ast.Attribute):
            chain.insert(0, root.attr)
            root = root.value
        if chain and isinstance(root, ast.Name) and root.id in modules:
            owner = modules[root.id]
            for attr in chain:
                if not hasattr(owner, attr):
                    missing.append(f"{root.id}.{'.'.join(chain)}")
                    break
                owner = getattr(owner, attr)
    assert not missing


def test_run_steps_through_the_module_binding(small_ridge, monkeypatch):
    # Tracer.install() traces solver.step by rebinding the module's name; a run that
    # stepped through another reference would lose solver.step_us, and the telemetry
    # split (the time in run outside step), from `bench/run.py --trace 1`
    from cnext import solver
    from cnext.compress import make_scheme

    obj, net = small_ridge
    calls = []
    step = solver.step
    monkeypatch.setattr(solver, "step", lambda *args: calls.append(1) or step(*args))
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=0.5, alpha_y=0.5, T=57)
    records = solver.run(obj, net, make_scheme("qnbbq", obj.p), hp, solver.MODE_CNEXT, seed=1)
    assert len(calls) == hp.T == len(records) - 1


def test_workload_normal_equations_read_the_partition(monkeypatch):
    # the benchmark's ridge check reads the partition itself (np.concatenate and len of
    # part.assignments); a change to Partition's type must fail here, not only there
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    from cnext.data import build_locals, generate_ridge_synthetic, partition_homogeneous
    from cnext.objective import ridge_closed_form_optimum, ridge_objective

    ds = generate_ridge_synthetic(63, 5, 4)
    part = partition_homogeneous(ds, 6, 4)
    x_star = ridge_closed_form_optimum(ridge_objective(build_locals(ds, part), 0.3))
    assert np.allclose(workloads._ridge_normal_equations(ds, part, 0.3), x_star, rtol=1e-10, atol=1e-12)


def test_wire_bits_agree_with_the_scheme(monkeypatch):
    # bench/workloads.wire_bits is README's per-vector cost, written apart from compress;
    # the benchmark's bit checks hold only while it equals scheme.bits for every scheme
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    from cnext.compress import ALL_KINDS, CompressionScheme, QNBBQ, RANDOMK, TOPK

    differ = []
    for p in range(1, 65):
        for kind in ALL_KINDS:
            for b in range(1, 9) if kind == QNBBQ else (None,):
                for k in range(1, p + 1) if kind in (RANDOMK, TOPK) else (None,):
                    if workloads.wire_bits(kind, p, b, k) != CompressionScheme(kind, p, b, k).bits:
                        differ.append((kind, p, b, k))
    assert differ == []


def test_agents_setup_checks_hold_on_the_library(monkeypatch):
    # the benchmark's agents-expander set-up checks, run on its own set-up: W (expanded from
    # the CSR weights) is circulant, and rho and beta match its FFT spectrum; a change that
    # breaks them must fail here, not only as the benchmark's outputs_incorrect
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    net = workloads._agents_setup(1)[0]
    assert net.n == workloads.AGENTS["n"] == 2000
    W = net.W
    rolled = np.stack([np.roll(W[0], i) for i in range(net.n)])
    assert np.max(np.abs(W - rolled)) <= 1e-15
    rho, beta = workloads.circulant_spectrum(W)
    assert abs(net.rho - rho) <= 1e-9 and abs(net.beta - beta) <= 1e-9


def test_declared_dependencies_match_imports():
    # every third-party top-level module imported anywhere under src/cnext (scipy.sparse
    # counts as scipy) is declared in pyproject.toml, and every declared one is imported
    tomllib = pytest.importorskip("tomllib")
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    declared = {re.split(r"[<>=!~;\[ ]", d, maxsplit=1)[0].lower() for d in deps}
    imported = set()
    for path in (ROOT / "src" / "cnext").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"cnext"}
    assert third_party == declared


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_config_files_resolve(path):
    cfg = load_config(str(path))
    for hp in (cfg.hyperparams, *(v.hyperparams for v in cfg.variants)):
        assert isinstance(hp, HyperParams)
    if "compare" in json.loads(path.read_text()):
        assert len(cfg.variants) >= 2


def test_ridge_benchmark_config_is_the_desk_run():
    cfg = load_config(str(ROOT / "configs" / "ridge_benchmark.json"))
    resolved = {v.name: (v.scheme.k, v.hyperparams.eta, v.hyperparams.alpha_x,
                         v.hyperparams.alpha_y, v.hyperparams.gamma, v.hyperparams.T)
                for v in cfg.variants}
    assert resolved == {"qnbbq": (None, 0.0095, 1.0, 1.0, 0.6, 5000),
                        "randomk": (5, 0.0012, 0.5, 0.5, 0.6, 5000),
                        "topk": (3, 0.006, 0.5, 0.5, 0.6, 5000),
                        "qnormsigned": (None, 0.021, 0.25, 0.25, 0.6, 5000)}
    assert {v.mode for v in cfg.variants} == {"cnext"} and cfg.seed == 42


SYNTHETIC = [p for p in CONFIGS if load_config(str(p)).objective.data.source == "synthetic"]


@pytest.mark.parametrize("path", SYNTHETIC, ids=[p.name for p in SYNTHETIC])
def test_config_manifests_reproduce_their_runs(tmp_path, path):
    # README's reproducibility claim, on the committed configs: a run, and a compare where
    # the config has variants, at T = 2 re-runs from its manifest's config to the same CSVs
    for command in ["run"] + (["compare"] if load_config(str(path)).variants else []):
        out, rerun, given = (tmp_path / f"{command}{suffix}" for suffix in ("", "_rerun", ".json"))
        assert cli.main([command, "-c", str(path), "--T", "2", "--output-dir", str(out)]) == 0
        given.write_text(json.dumps(json.loads((out / "manifest.json").read_text())["config"]))
        assert cli.main([command, "-c", str(given), "--output-dir", str(rerun)]) == 0
        written = sorted(p.name for p in out.glob("*.csv"))
        assert written == sorted(p.name for p in rerun.glob("*.csv")) != []
        assert [(rerun / name).read_bytes() for name in written] == \
            [(out / name).read_bytes() for name in written]


def _readme_commands() -> list[list[str]]:
    """The lines of README's bash blocks, split as a shell splits them."""
    readme = (ROOT / "README.md").read_text()
    return [shlex.split(line, comments=True)
            for block in re.findall(r"```bash\n(.*?)```", readme, re.S)
            for line in block.splitlines() if line.strip()]


def test_readme_commands_parse():
    # every cnext line in README's bash blocks parses, and loads its config with the line's
    # flags when it names a config file; every repo path README names exists
    readme = (ROOT / "README.md").read_text()
    commands = _readme_commands()
    named = re.findall(r"^\| `([^`]*/[^`]*)`", readme, re.M)
    named += [arg for argv in commands for arg in argv if "/" in arg and "..." not in arg]
    assert [path for path in named if not (ROOT / path).exists()] == []
    parser = cli._build_parser()
    for argv in (argv for argv in commands if argv[0] == "cnext"):
        args = parser.parse_args(argv[1:])
        if (ROOT / args.config).is_file():
            load_config(str(ROOT / args.config), cli._overrides(args))
    assert ["cnext", "theory", "-c", "configs/theory_identity.json", "--scheme", "topk",
            "--grid", "20"] in commands


def _accepted_keys() -> dict[str, list[str]]:
    """Each config block's accepted keys, by the block's path, as the "(known: ...)" list of
    the unknown-field error that parse_config raises for that block."""
    accepted = {}
    for path in ("", "objective.", "objective.data.", "network.", "scheme.", "hyperparams.",
                 "compare.", "compare.variants[0].", "theory."):
        raw = {"objective": {"kind": "ridge", "data": {}}, "network": {"kind": "ring", "n": 5},
               "scheme": {"kind": "topk"}, "hyperparams": {}, "theory": {},
               "compare": {"variants": [{"scheme": {"kind": "topk"}}]}}
        block = raw
        for part in re.findall(r"\w+", path):
            block = block[int(part) if part.isdigit() else part]
        block["unknown"] = 1
        with pytest.raises(ConfigError, match=f"unknown field {re.escape(path)}unknown ") as info:
            parse_config(raw)
        accepted[path] = re.search(r"\(known: (.*)\)$", str(info.value)).group(1).split(", ")
    return accepted


def test_readme_names_every_config_key():
    # README names each key a config block accepts, quoted or in backticks (`theory.eps`
    # counts for eps), and no key that parse_config no longer accepts
    readme = (ROOT / "README.md").read_text()
    unnamed = [path + key for path, keys in _accepted_keys().items() for key in keys
               if not re.search(rf'["`.]{re.escape(key)}["`]', readme)]
    assert unnamed == []
    assert [key for key in ("tau_x", "tau_y") if key in readme] == []


def test_readme_commands_run(tmp_path):
    # every cnext line of README whose config exists runs offline with its own flags, cut
    # to T = 5 and writing under tmp_path, and exits 0
    parser = cli._build_parser()
    ran = 0
    for argv in (argv for argv in _readme_commands() if argv[0] == "cnext"):
        config = parser.parse_args(argv[1:]).config
        if not (ROOT / config).is_file():
            continue
        args = [str(ROOT / a) if a == config else a for a in argv[1:]]
        assert cli.main([*args, "--T", "5", "--output-dir", str(tmp_path / f"cmd{ran}")]) == 0, argv
        ran += 1
    assert ran >= 8  # the CLI and Experiments sections' lines


def test_certified_points_pass_the_benchmark_rational_check(monkeypatch, ridge10):
    # on c05's two 20 x 20 sweeps, every eps default_epsilon certifies also passes the
    # benchmark's re-check, which uses the exact q = 1 - eta mu/(2L), not contraction_rate
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    from cnext.compress import make_scheme
    from cnext.theory import Theta, TheoryConstants, build_A, check_sufficient_conditions, default_epsilon

    obj, net, _ = ridge10
    certified = {}
    for kind, k in (("identity", None), ("randomk", 5)):
        scheme = make_scheme(kind, obj.p, k=k)
        certified[kind] = 0
        for eta in np.geomspace(1e-10, 1e-2, 20):
            for gamma in np.geomspace(1e-4, 1.0, 20):
                theta = Theta(eta=float(eta), gamma=float(gamma), alpha_x=1.0, alpha_y=1.0)
                tc = TheoryConstants.build(obj.mu, obj.L, net, scheme, theta)
                eps = default_epsilon(tc, theta, net.n)
                if check_sufficient_conditions(tc, theta, eps, net.n)["pass"]:
                    certified[kind] += 1
                    A = build_A(tc, theta, net.n).A
                    assert workloads.exact_certificate_holds(A, eps, obj.L, theta.eta, obj.mu)
    assert certified == {"identity": 25, "randomk": 0}


def test_readme_grid_figures_match_the_map(tmp_path, capsys):
    # README's sentence on the 20 x 20 identity map of theory_identity.json gives the
    # counts of rho(A) < 1, rho(A) < q and certified points that the map has
    text = " ".join((ROOT / "README.md").read_text().split())
    stated = re.search(r"identity has rho\(A\) < 1 at (\d+) of 400 points, rho\(A\) < q at "
                       r"(\d+), and certifies (\d+)", text)
    assert stated is not None
    out = tmp_path / "out"
    assert cli.main(["theory", "-c", str(ROOT / "configs" / "theory_identity.json"),
                     "--grid", "20", "--output-dir", str(out)]) == 0
    assert capsys.readouterr().out.startswith("25/400 grid points certified")
    rows = [line.split(",") for line in (out / "sweep_identity.csv").read_text().splitlines()[1:]]
    counts = tuple(sum(row[col] == "1" for row in rows) for col in (4, 5, 2))
    assert counts == (42, 36, 25) == tuple(map(int, stated.groups()))
