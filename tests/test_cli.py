import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cnext.cli import Experiment, averaged_csv, main, records_to_csv
from cnext.config import load_config
from cnext.solver import run
from cnext.theory import rho_below

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

BASE = {
    "objective": {"kind": "ridge", "lambda": 0.5,
                  "data": {"source": "synthetic", "n_samples": 50, "p": 4}},
    "network": {"kind": "ring", "n": 5},
    "scheme": {"kind": "randomk", "k": 2},
    "hyperparams": {"eta": 0.002, "gamma": 0.6, "alpha_x": 0.5, "alpha_y": 0.5, "T": 10},
    "mode": "cnext",
    "seed": 42,
}


def write_config(tmp_path, name="config.json", **updates):
    cfg = json.loads(json.dumps(BASE))
    for key, value in updates.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    cfg.setdefault("output_dir", str(tmp_path / "out"))
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path), cfg["output_dir"]


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def test_run_writes_trace_and_manifest(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["run", "-c", cfg]) == 0
    header, rows = read_csv(os.path.join(out, "trace.csv"))
    assert header == ["t", "bits_cum", "opt_err", "cons_err", "gt_err",
                      "comp_x_err", "comp_y_err", "residual", "accuracy"]
    assert len(rows) == 11
    assert rows[0][0] == "0" and rows[0][1] == "0"
    man = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert man["resolved"]["scheme"]["C"] == pytest.approx(0.5)
    assert man["resolved"]["seed"] == 42
    assert "bit_convention" in man


def test_run_t_zero_single_row(tmp_path):
    cfg, out = write_config(tmp_path, hyperparams={"T": 0})
    assert main(["run", "-c", cfg]) == 0
    _, rows = read_csv(os.path.join(out, "trace.csv"))
    assert len(rows) == 1


def test_run_is_byte_deterministic(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["run", "-c", cfg]) == 0
    first = open(os.path.join(out, "trace.csv"), "rb").read()
    assert main(["run", "-c", cfg]) == 0
    second = open(os.path.join(out, "trace.csv"), "rb").read()
    assert first == second


def test_seed_averaging(tmp_path):
    cfg, out = write_config(tmp_path, seeds=[1, 2, 3], hyperparams={"T": 5})
    assert main(["run", "-c", cfg]) == 0
    per_seed = []
    for s in (1, 2, 3):
        _, rows = read_csv(os.path.join(out, f"trace_seed{s}.csv"))
        per_seed.append(np.array([[float(c) for c in r[:8]] for r in rows]))
    _, avg_rows = read_csv(os.path.join(out, "trace.csv"))
    avg = np.array([[float(c) for c in r[:8]] for r in avg_rows])
    recomputed = np.mean(per_seed, axis=0)
    assert np.allclose(avg[:, 2:], recomputed[:, 2:], rtol=1e-12)
    assert np.array_equal(avg[:, 0], per_seed[0][:, 0])


def test_flag_overrides_beat_file_values(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["run", "-c", cfg, "--T", "3", "--scheme", "identity",
                 "--output-dir", str(tmp_path / "o2")]) == 0
    _, rows = read_csv(str(tmp_path / "o2" / "trace.csv"))
    assert len(rows) == 4
    man = json.loads(open(str(tmp_path / "o2" / "manifest.json")).read())
    assert man["resolved"]["scheme"]["kind"] == "identity"


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"network": {"kind": "ring", "n": 5}}))
    assert main(["run", "-c", str(bad)]) == 2
    assert "objective" in capsys.readouterr().err

    cfg, _ = write_config(tmp_path, scheme={"kind": "randomk", "k": 9})
    assert main(["run", "-c", cfg]) == 2

    notjson = tmp_path / "nj.json"
    notjson.write_text("{nope")
    assert main(["run", "-c", str(notjson)]) == 2
    assert "line" in capsys.readouterr().err


CYCLE4 = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]


def test_custom_network_runs(tmp_path):
    cfg, out = write_config(tmp_path, network={"kind": "custom", "n": 4, "adjacency": CYCLE4},
                            objective={"kind": "ridge", "lambda": 0.5,
                                       "data": {"source": "synthetic", "n_samples": 40, "p": 4}})
    assert main(["run", "-c", cfg]) == 0
    assert len(read_csv(os.path.join(out, "trace.csv"))[1]) == 11


@pytest.mark.parametrize("adjacency, message", [
    (None, "network.adjacency"),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], "n x n"),
    ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], "symmetric"),
    ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], "connected"),
], ids=["missing", "not-n-by-n", "asymmetric", "disconnected"])
def test_bad_custom_network_is_config_error(tmp_path, capsys, adjacency, message):
    network = {"kind": "custom", "n": 4}
    if adjacency is not None:
        network["adjacency"] = adjacency
    cfg, _ = write_config(tmp_path, network=network)
    assert main(["run", "-c", cfg]) == 2
    assert message in capsys.readouterr().err


def test_seed_averaging_with_tolerance_is_config_error(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, seeds=[1, 2], hyperparams={"tol": 2.0})
    assert main(["run", "-c", cfg]) == 2
    assert "tol" in capsys.readouterr().err
    cfg, out = write_config(tmp_path, seeds=[1, 2])
    assert main(["run", "-c", cfg, "--tol", "2"]) == 2
    assert not os.path.exists(out)


def test_averaging_one_seed_is_its_trace(tmp_path):
    cfg, _ = write_config(tmp_path)
    exp = Experiment(load_config(cfg))
    records = run(exp.obj, exp.net, exp.scheme, exp.cfg.hyperparams, exp.cfg.mode, 42,
                  x_star=exp.x_star)
    assert averaged_csv([records]) == records_to_csv(records)


def test_divergence_exit_3(tmp_path, capsys):
    cfg, out = write_config(tmp_path, mode="first_order_gt",
                            hyperparams={"eta": 0.9, "T": 300})
    assert main(["run", "-c", cfg]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DivergenceError"
    man = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert man["divergence"]["quantity"] in ("X", "Y", "error vector")


def test_growth_divergence_exit_3(tmp_path, capsys):
    # the first-order run stays finite for all 1000 rounds (opt_err 9.9e21 at t = 1000);
    # its error vector outgrows GROWTH_LIMIT times its t = 0 sum first
    out = tmp_path / "out"
    assert main(["run", "-c", str(CONFIGS / "ridge_compare.json"), "--mode", "first_order_gt",
                 "--eta", "0.002", "--output-dir", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DivergenceError" and err["quantity"] == "error vector"
    assert "exceeds" in err["message"] and 0 < err["t"] < 1000
    assert json.loads((out / "manifest.json").read_text())["divergence"]["t"] == err["t"]
    assert not (out / "trace.csv").exists()


def test_ridge_compare_runs_both_modes(tmp_path):
    out = tmp_path / "out"
    assert main(["compare", "-c", str(CONFIGS / "ridge_compare.json"),
                 "--output-dir", str(out)]) == 0
    variants = json.loads((out / "manifest.json").read_text())["variants"]
    assert variants["first-order-qns"]["hyperparams"]["eta"] == 0.0002
    for name, entry in variants.items():
        assert entry["diverged"] is None, name
        assert entry["final_residual"] <= 1e-6, name


def test_compare_identity_variants_identical(tmp_path):
    variants = [
        {"name": "cnext-id", "mode": "cnext", "scheme": {"kind": "identity"}},
        {"name": "giant", "mode": "uncompressed_giant", "scheme": {"kind": "topk", "k": 2}},
        {"name": "rk", "mode": "cnext", "scheme": {"kind": "randomk", "k": 2}},
    ]
    cfg, out = write_config(tmp_path, compare={"variants": variants},
                            hyperparams={"T": 8, "eta": 0.002, "gamma": 0.6,
                                         "alpha_x": 1.0, "alpha_y": 1.0})
    assert main(["compare", "-c", cfg]) == 0
    header, rows = read_csv(os.path.join(out, "compare.csv"))
    assert header[0] == "variant"
    by_variant = {}
    for r in rows:
        by_variant.setdefault(r[0], []).append(r[1:])
    assert by_variant["cnext-id"] == by_variant["giant"]

    # per-variant bit columns follow the per-scheme wire formulas exactly, for all t
    n, p = 5, 4
    costs = {"cnext-id": 64 * p, "giant": 64 * p, "rk": (32 + 2) * 2}
    for name, rws in by_variant.items():
        for r in rws:
            t, bits = int(r[0]), int(r[1])
            assert bits == 2 * n * costs[name] * t


def test_compare_tolerates_diverging_variant(tmp_path):
    variants = [
        {"name": "newton", "mode": "cnext", "scheme": {"kind": "identity"}},
        {"name": "raw-gt", "mode": "first_order_gt", "scheme": {"kind": "identity"},
         "eta": 0.9},
    ]
    cfg, out = write_config(tmp_path, compare={"variants": variants},
                            hyperparams={"T": 400, "eta": 0.01, "gamma": 0.6,
                                         "alpha_x": 1.0, "alpha_y": 1.0})
    assert main(["compare", "-c", cfg]) == 0
    man = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert man["variants"]["raw-gt"]["diverged"] is not None
    assert man["variants"]["newton"]["diverged"] is None


def test_theory_report_roundtrips(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, scheme={"kind": "identity"},
                          hyperparams={"eta": 1e-8, "gamma": 0.01, "T": 1,
                                       "alpha_x": 1.0, "alpha_y": 1.0})
    assert main(["theory", "-c", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert np.asarray(report["A"]).shape == (5, 5)
    assert report["rho_A"] < 1
    assert "sufficient_conditions" in report and "pass" in report["sufficient_conditions"]


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_theory_prints_strict_json(tmp_path, capsys):
    # with C = 0 the eps4/eps2 cap is unbounded; JSON has no Infinity, so it prints null
    cfg, _ = write_config(tmp_path, scheme={"kind": "identity"},
                          hyperparams={"eta": 1e-8, "gamma": 0.01, "T": 1})
    assert main(["theory", "-c", cfg]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert report["sufficient_conditions"]["system"]["eps4_over_eps2"]["rhs"] is None


def test_theory_point_forms_A_once(tmp_path, capsys, monkeypatch):
    # a point, and each grid cell, forms A(theta) once and decides rho(A) at most once
    from cnext import theory

    calls = {"build_A": 0, "_rho_and_flag": 0}
    for name in calls:
        def counted(*args, real=getattr(theory, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(theory, name, counted)
    cfg, _ = write_config(tmp_path, scheme={"kind": "identity"},
                          hyperparams={"eta": 1e-8, "gamma": 0.01, "T": 1})
    for args, points in (([], 1), (["--grid", "2"], 4)):
        calls.update(build_A=0, _rho_and_flag=0)
        assert main(["theory", "-c", cfg, *args]) == 0
        assert calls["build_A"] == points and calls["_rho_and_flag"] <= points


def test_theory_nan_eps_is_config_error(tmp_path, capsys):
    # json reads NaN; a NaN eps entry is not a positive real
    cfg, _ = write_config(tmp_path, theory={"eps": [float("nan"), 1.0, 1.0, 1.0, 1.0]})
    assert main(["theory", "-c", cfg]) == 2
    assert "theory.eps" in capsys.readouterr().err


def test_theory_reports_violations_without_failing(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, scheme={"kind": "identity"},
                          hyperparams={"eta": 5.0, "gamma": 0.5, "T": 1})
    assert main(["theory", "-c", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "error" in report and "2L" in report["error"]


@pytest.mark.parametrize("flag, value", [("--eta", "0"), ("--eta", "-0.001"), ("--gamma", "0")])
def test_theory_outside_its_domain_is_config_error(tmp_path, capsys, flag, value):
    cfg, _ = write_config(tmp_path, scheme={"kind": "identity"})
    assert main(["theory", "-c", cfg, flag, value]) == 2
    assert flag[2:] in capsys.readouterr().err


def test_qnbbq_config_at_alpha_one_records_no_alpha_warning(tmp_path):
    # qnbbq has r delta = (1 + C) / (1 + C) = 1, so the theory admits alpha = 1
    out = str(tmp_path / "out")
    assert main(["run", "-c", str(CONFIGS / "ridge_qnbbq.json"), "--T", "2",
                 "--output-dir", out]) == 0
    man = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert man["resolved"]["hyperparams"]["alpha_x"] == man["resolved"]["hyperparams"]["alpha_y"] == 1.0
    assert not any("alpha" in w for w in man["resolved"]["theory_warnings"])


def test_verify_ops_is_gone(tmp_path):
    # the scheme constants are closed-form (README "Scheme constants"); no command samples them
    cfg, out = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify-ops", "-c", cfg])
    assert exc.value.code == 2
    assert not os.path.exists(os.path.join(out, "ops_manifest.json"))


def _sweep_rows(path):
    header, rows = read_csv(path)
    assert header == ["eta", "gamma", "pass", "rho_A", "rho_lt_1", "rho_lt_q"]
    return rows


def test_theory_grid_writes_parseable_map(tmp_path, capsys):
    raw = json.loads((CONFIGS / "theory_identity.json").read_text())
    raw["output_dir"] = str(tmp_path / "out")
    cfg = tmp_path / "theory.json"
    cfg.write_text(json.dumps(raw))
    assert main(["theory", "-c", str(cfg), "--scheme", "topk", "--grid", "2"]) == 0
    assert "/4 grid points certified (scheme=topk(k=3)" in capsys.readouterr().out
    rows = _sweep_rows(tmp_path / "out" / "sweep_topk.csv")
    assert len(rows) == 4
    assert [(float(eta), float(gamma)) for eta, gamma, *_ in rows] == \
        [(1e-10, 1e-4), (1e-10, 1.0), (1e-2, 1e-4), (1e-2, 1.0)]


@pytest.mark.parametrize("kind, counts", [("identity", (24, 42, 36)), ("topk", (0, 0, 0))])
def test_theory_grid_counts_rho_below_one_and_q(tmp_path, capsys, kind, counts):
    # the 20 x 20 map of theory_identity.json: of the points with rho(A) < 1, those with
    # rho(A) < q = 1 - eta/(2 kappa), and of those the ones the stated conditions certify
    raw = json.loads((CONFIGS / "theory_identity.json").read_text())
    raw["output_dir"] = str(tmp_path / "out")
    cfg = tmp_path / "theory.json"
    cfg.write_text(json.dumps(raw))
    assert main(["theory", "-c", str(cfg), "--scheme", kind, "--grid", "20"]) == 0
    rows = _sweep_rows(tmp_path / "out" / f"sweep_{kind}.csv")
    flags = [(ok == "1", lt_1 == "1", lt_q == "1") for _, _, ok, _, lt_1, lt_q in rows]
    assert tuple(map(sum, zip(*flags))) == counts
    # a certificate gives rho(A) <= q < 1, and rho(A) < q < 1 gives rho(A) < 1
    assert all(lt_1 for ok, lt_1, _ in flags if ok) and all(lt_1 for _, lt_1, lt_q in flags if lt_q)


def test_theory_grid_rows_are_single_points(tmp_path, capsys):
    cfg, out = write_config(tmp_path, scheme={"kind": "identity"},
                            hyperparams={"eta": 1e-8, "gamma": 0.01, "T": 1,
                                         "alpha_x": 0.8, "alpha_y": 0.6})
    assert main(["theory", "-c", cfg, "--grid", "2"]) == 0
    for eta, gamma, ok, rho, lt_1, lt_q in _sweep_rows(os.path.join(out, "sweep_identity.csv")):
        capsys.readouterr()
        assert main(["theory", "-c", cfg, "--eta", eta, "--gamma", gamma]) == 0
        report = json.loads(capsys.readouterr().out)
        assert int(ok) == report["sufficient_conditions"]["pass"]
        assert float(rho) == report["rho_A"]
        assert int(lt_1) == report["sufficient_conditions"]["direct_contraction"]["rho_lt_1"]
        # rho(A) < q decided exactly on the point's own A: at eta = 1e-10, rho lies
        # within 1e-9 of q, where float64 eigenvalues cannot decide
        q = 1.0 - float(eta) / (2.0 * report["objective"]["kappa"])
        assert int(lt_q) == rho_below(np.array(report["A"]), q)


@pytest.mark.parametrize("updates, eta_formed", [
    # kappa = 256, so eta = 1e-2 exceeds the step cap mu/L and A(theta) cannot be formed
    ({"network": {"kind": "ring", "n": 10},
      "objective": {"kind": "ridge", "lambda": 1e-4,
                    "data": {"source": "synthetic", "n_samples": 60, "p": 4}}}, 1e-2),
    # alpha > 1/(r delta) leaves no admissible tau, so A(theta) is formed nowhere
    ({"hyperparams": {"alpha_x": 1.5, "alpha_y": 1.5, "T": 1}}, 0.0),
], ids=["eta-above-cap", "alpha-above-1"])
def test_theory_grid_leaves_rho_empty_without_A(tmp_path, updates, eta_formed):
    cfg, out = write_config(tmp_path, scheme={"kind": "identity"}, **updates)
    assert main(["theory", "-c", cfg, "--grid", "2"]) == 0
    for eta, _, ok, rho, lt_1, lt_q in _sweep_rows(os.path.join(out, "sweep_identity.csv")):
        formed = float(eta) < eta_formed
        assert (rho != "") == (lt_1 != "") == (lt_q != "") == formed
        assert formed or ok == "0"


def test_theory_grid_below_one_is_config_error(tmp_path, capsys):
    cfg, _ = write_config(tmp_path)
    assert main(["theory", "-c", cfg, "--grid", "0"]) == 2
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize("network", [
    {"kind": "ring", "n": 5},
    {"kind": "custom", "n": 4, "adjacency": CYCLE4},
], ids=["ring", "custom"])
def test_manifest_config_reproduces_trace(tmp_path, network):
    cfg, out = write_config(tmp_path, network=network)
    assert main(["run", "-c", cfg]) == 0
    rerun = tmp_path / "rerun.json"
    rerun.write_text(json.dumps(json.loads(open(os.path.join(out, "manifest.json")).read())["config"]))
    assert main(["run", "-c", str(rerun), "--output-dir", str(tmp_path / "rerun")]) == 0
    assert (tmp_path / "rerun" / "trace.csv").read_bytes() == \
        open(os.path.join(out, "trace.csv"), "rb").read()


def test_sparse_run_is_byte_deterministic_across_thread_counts(tmp_path):
    # 256 agents on a degree-6 expander mix through CSR; the c10 check on that path
    raw = dict(BASE, network={"kind": "expander", "n": 256, "degree": 6},
               objective={"kind": "ridge", "lambda": 0.5,
                          "data": {"source": "synthetic", "n_samples": 1280, "p": 4}},
               hyperparams=dict(BASE["hyperparams"], T=30))
    outputs = []
    for threads in ("1", "2"):
        raw["output_dir"] = str(tmp_path / f"threads{threads}")
        path = tmp_path / f"cfg{threads}.json"
        path.write_text(json.dumps(raw))
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "cnext.cli", "run", "-c", str(path)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((tmp_path / f"threads{threads}" / "trace.csv").read_bytes())
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 32


def test_missing_covtype_path_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CNEXT_COVTYPE_PATH", raising=False)
    cfg, _ = write_config(tmp_path, objective={"kind": "logistic", "lambda": 0.1,
                                               "data": {"source": "covtype"}},
                          hyperparams={"eta": 0.093, "gamma": 0.35, "T": 2})
    assert main(["run", "-c", cfg]) == 2
    assert "covtype" in capsys.readouterr().err


def test_ridge_defaults_converge_for_randomk(tmp_path):
    # no hyperparams block: eta and alpha come from the tuned table (alpha 0.5 for random-k)
    out = str(tmp_path / "out")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "objective": {"kind": "ridge", "lambda": 0.5,
                      "data": {"source": "synthetic", "n_samples": 500, "p": 20}},
        "network": {"kind": "ring", "n": 10},
        "scheme": {"kind": "randomk", "k": 5},
        "seed": 42, "output_dir": out}))
    assert main(["run", "-c", str(cfg)]) == 0
    man = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert man["resolved"]["hyperparams"]["alpha_x"] == 0.5
    assert man["resolved"]["hyperparams"]["T"] == 5000
    _, rows = read_csv(os.path.join(out, "trace.csv"))
    assert float(rows[-1][2]) < float(rows[0][2])


def test_baseline_convergence_failure_exit_3(tmp_path, capsys, monkeypatch):
    from cnext import cli
    from cnext.objective import ConvergenceError

    def fail(obj):
        raise ConvergenceError("Newton failed to reach tol=1e-10 in 500 iterations", np.zeros(obj.p))

    monkeypatch.setattr(cli, "baseline_optimum", fail)
    cfg, _ = write_config(tmp_path)
    assert main(["run", "-c", cfg]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConvergenceError" and "tol=1e-10" in err["message"]


def test_compare_variants_without_hyperparams_match_single_runs(tmp_path):
    # no eta, alpha or k anywhere: each variant resolves its own scheme's tuned values,
    # exactly as `cnext run` does for that scheme alone
    kinds = ("qnbbq", "randomk", "topk", "qnormsigned")
    base = {"objective": {"kind": "ridge", "lambda": 0.5,
                          "data": {"source": "synthetic", "n_samples": 60, "p": 6}},
            "network": {"kind": "ring", "n": 5}, "scheme": {"kind": "qnbbq"},
            "hyperparams": {"T": 10}, "seed": 42}
    cfg = tmp_path / "compare.json"
    cfg.write_text(json.dumps(dict(base, output_dir=str(tmp_path / "cmp"), compare={
        "variants": [{"name": k, "scheme": {"kind": k}} for k in kinds]})))
    assert main(["compare", "-c", str(cfg)]) == 0
    _, rows = read_csv(str(tmp_path / "cmp" / "compare.csv"))
    man = json.loads((tmp_path / "cmp" / "manifest.json").read_text())
    alphas = {"qnbbq": 1.0, "randomk": 0.5, "topk": 0.5, "qnormsigned": 0.25}
    for k in kinds:
        assert man["variants"][k]["hyperparams"]["alpha_x"] == alphas[k]
        out = tmp_path / k
        assert main(["run", "-c", str(cfg), "--scheme", k, "--output-dir", str(out)]) == 0
        _, single = read_csv(str(out / "trace.csv"))
        assert [r[1:] for r in rows if r[0] == k] == single
        assert len(single) == 11


def test_compare_top_level_values_apply_to_every_variant(tmp_path):
    variants = [{"name": "q", "scheme": {"kind": "qnbbq"}},
                {"name": "rk", "scheme": {"kind": "randomk", "k": 2}},
                {"name": "tk", "scheme": {"kind": "topk", "k": 2}, "eta": 0.004}]
    cfg, out = write_config(tmp_path, compare={"variants": variants},
                            hyperparams={"eta": 0.002, "gamma": 0.6, "alpha_x": 0.7, "T": 3,
                                         "alpha_y": None})
    assert main(["compare", "-c", cfg]) == 0
    hps = {name: v["hyperparams"] for name, v in
           json.loads(open(os.path.join(out, "manifest.json")).read())["variants"].items()}
    assert {name: hp["eta"] for name, hp in hps.items()} == {"q": 0.002, "rk": 0.002, "tk": 0.004}
    assert all(hp["alpha_x"] == 0.7 and hp["T"] == 3 for hp in hps.values())
    # alpha_y is set nowhere, so each variant takes its own scheme's tuned alpha
    assert {name: hp["alpha_y"] for name, hp in hps.items()} == {"q": 1.0, "rk": 0.5, "tk": 0.5}


def test_logistic_randomk_needs_k(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CNEXT_COVTYPE_PATH", raising=False)
    logistic = {"kind": "logistic", "lambda": 0.1, "data": {"source": "covtype"}}
    cfg, _ = write_config(tmp_path, objective=logistic, scheme={"kind": "randomk", "k": None},
                          hyperparams={"eta": 0.09, "gamma": 0.35, "T": 2})
    assert main(["run", "-c", cfg]) == 2
    assert "scheme.k is required" in capsys.readouterr().err

    variants = [{"name": "q", "scheme": {"kind": "qnbbq"}},
                {"name": "rk", "scheme": {"kind": "randomk"}}]
    cfg, _ = write_config(tmp_path, objective=logistic, scheme={"kind": "qnbbq", "k": None},
                          compare={"variants": variants}, hyperparams={"T": 2})
    assert main(["compare", "-c", cfg]) == 2
    assert "compare.variants[1].scheme.k is required" in capsys.readouterr().err
