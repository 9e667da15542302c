import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cnext.cli import CSV_COLUMNS, Experiment, _scheme_dict, averaged_csv, main, records_to_csv
from cnext.compress import make_scheme
from cnext.config import ConfigError, load_config
from cnext.solver import ErrorVector, RoundRecord, run
from cnext.theory import rho_below
from conftest import covtype_fixture_csv

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


def test_averaging_nine_seeds_is_numpys_mean(tmp_path):
    # numpy sums 8 or more values pairwise, so at 9 seeds an in-order sum could differ:
    # every averaged value is float(np.mean) of the nine per-seed values read back
    seeds = list(range(1, 10))
    cfg, out = write_config(tmp_path, seeds=seeds, hyperparams={"T": 20})
    assert main(["run", "-c", cfg]) == 0
    per_seed = [read_csv(os.path.join(out, f"trace_seed{s}.csv"))[1] for s in seeds]
    _, avg_rows = read_csv(os.path.join(out, "trace.csv"))
    assert len(avg_rows) == 21
    for i, row in enumerate(avg_rows):
        assert row[:2] == per_seed[0][i][:2] and row[8] == ""
        for j in range(2, 8):
            assert float(row[j]) == float(np.mean([float(rows[i][j]) for rows in per_seed]))


def test_flag_overrides_beat_file_values(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["run", "-c", cfg, "--T", "3", "--scheme", "identity",
                 "--output-dir", str(tmp_path / "o2")]) == 0
    _, rows = read_csv(str(tmp_path / "o2" / "trace.csv"))
    assert len(rows) == 4
    man = json.loads(open(str(tmp_path / "o2" / "manifest.json")).read())
    assert man["resolved"]["scheme"]["kind"] == "identity"


def test_seed_flag_matches_the_config_seed(tmp_path):
    # --seed 7 writes the same bytes as a config that sets "seed": 7
    flagged, out = write_config(tmp_path, "flagged.json")
    seeded, _ = write_config(tmp_path, "seeded.json", seed=7)
    written = []
    for argv in (["-c", flagged, "--seed", "7"], ["-c", seeded]):
        assert main(["run", *argv]) == 0
        written.append([Path(out, name).read_bytes() for name in ("trace.csv", "manifest.json")])
    assert written[0] == written[1]
    assert json.loads(written[0][1])["resolved"]["seed"] == 7


def test_b_flag_sets_the_quantizer_bits(tmp_path):
    # --b 3 records qnbbq(b=3) and charges (1 + b) p bits per vector, for both streams
    cfg, out = write_config(tmp_path, scheme={"kind": "qnbbq"}, hyperparams={"T": 2})
    assert main(["run", "-c", cfg, "--b", "3"]) == 0
    man = json.loads(Path(out, "manifest.json").read_text())
    assert man["config"]["scheme"]["b"] == 3 and man["resolved"]["scheme"]["label"] == "qnbbq(b=3)"
    _, rows = read_csv(os.path.join(out, "trace.csv"))
    n, p = BASE["network"]["n"], BASE["objective"]["data"]["p"]
    assert [int(row[1]) for row in rows] == [t * 2 * n * (1 + 3) * p for t in range(3)]


def test_uncompressed_giant_runs_the_configured_steps_without_compression(tmp_path, capsys):
    # the run is the configured experiment without compression: its steps resolve by the
    # config's scheme (qnbbq's tuned eta and alpha), config.scheme names that scheme and
    # resolved.scheme the identity it sends with. Identity has no tuned steps of its own,
    # so asking for it by name leaves eta unset, a config error
    bench = str(CONFIGS / "ridge_benchmark.json")
    out = tmp_path / "giant"
    assert main(["run", "-c", bench, "--mode", "uncompressed_giant", "--T", "1",
                 "--output-dir", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert (man["config"]["scheme"]["kind"], man["resolved"]["scheme"]["kind"]) == ("qnbbq", "identity")
    hp = man["resolved"]["hyperparams"]
    assert (hp["eta"], hp["alpha_x"], hp["alpha_y"]) == (0.0095, 1.0, 1.0)
    _, rows = read_csv(str(out / "trace.csv"))
    assert int(rows[1][1]) == 2 * 10 * 64 * 20  # identity's 64p bits per vector, n = 10, p = 20
    capsys.readouterr()
    assert main(["run", "-c", bench, "--mode", "uncompressed_giant", "--scheme", "identity",
                 "--T", "1", "--output-dir", str(tmp_path / "identity")]) == 2
    assert "hyperparams.eta is required (no tuned default for scheme 'identity')" in capsys.readouterr().err
    assert not (tmp_path / "identity").exists()


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


def _stop(out):
    return json.loads(open(os.path.join(out, "manifest.json")).read())["stop"]


def test_manifest_stop_reason_T(tmp_path):
    cfg, out = write_config(tmp_path, seeds=[1, 2], hyperparams={"T": 5})
    assert main(["run", "-c", cfg]) == 0
    assert _stop(out) == {"1": "T", "2": "T"}


def test_manifest_stop_reason_tol(tmp_path):
    # the stopping rule is met at t = 0; trace.csv keeps its one row
    cfg, out = write_config(tmp_path, hyperparams={"tol": 1e9})
    assert main(["run", "-c", cfg]) == 0
    assert _stop(out) == {"42": "tol"}
    assert len(read_csv(os.path.join(out, "trace.csv"))[1]) == 1


def test_manifest_stop_reason_divergence(tmp_path):
    cfg, out = write_config(tmp_path, mode="first_order_gt", hyperparams={"eta": 0.9, "T": 300})
    assert main(["run", "-c", cfg]) == 3
    assert _stop(out) == {"42": "divergence"}


def test_manifest_stop_reason_numerical(tmp_path, monkeypatch):
    # a Hessian solve that fails at round 3, as an indefinite local Hessian makes it
    from cnext import solver

    newton = solver.newton_directions

    def failing(X, Y, obj, t=0, W=None):
        if t == 3:
            raise solver.NumericalError(1, t)
        return newton(X, Y, obj, t, W)

    monkeypatch.setattr(solver, "newton_directions", failing)
    cfg, out = write_config(tmp_path)
    assert main(["run", "-c", cfg]) == 3
    assert _stop(out) == {"42": "numerical"}


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


def test_compare_records_each_variants_stop_reason(tmp_path):
    # the stop reasons of `cnext run`'s manifest, one per variant; compare.csv is unchanged
    variants = [
        {"name": "at-tol", "mode": "cnext", "scheme": {"kind": "identity"}},
        {"name": "all-T", "mode": "cnext", "scheme": {"kind": "identity"}, "eta": 1e-6},
        {"name": "raw-gt", "mode": "first_order_gt", "scheme": {"kind": "identity"}, "eta": 0.9},
    ]
    cfg, out = write_config(tmp_path, compare={"variants": variants},
                            hyperparams={"T": 300, "tol": 1.0, "eta": 0.05, "gamma": 0.6,
                                         "alpha_x": 1.0, "alpha_y": 1.0})
    assert main(["compare", "-c", cfg]) == 0
    man = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert {name: v["stop"] for name, v in man["variants"].items()} == \
        {"all-T": "T", "at-tol": "tol", "raw-gt": "divergence"}
    _, rows = read_csv(os.path.join(out, "compare.csv"))
    rounds = [sum(r[0] == name for r in rows) for name in ("at-tol", "all-T", "raw-gt")]
    assert 1 < rounds[0] < 301 and rounds[1:] == [301, 0]


def test_compare_records_each_variants_theory_warnings(tmp_path):
    # each variant is checked at its own step and scheme, the uncompressed one against the
    # identity it runs with: 1.5 r delta is 0.75 for random-k(2 of 4) but 1.5 for identity
    variants = [
        {"name": "rk", "mode": "cnext", "scheme": {"kind": "randomk", "k": 2}},
        {"name": "steep", "mode": "cnext", "scheme": {"kind": "randomk", "k": 2}, "eta": 0.9},
        {"name": "giant", "mode": "uncompressed_giant", "scheme": {"kind": "randomk", "k": 2}},
    ]
    cfg, out = write_config(tmp_path, compare={"variants": variants},
                            hyperparams={"T": 2, "eta": 0.002, "gamma": 0.6,
                                         "alpha_x": 1.5, "alpha_y": 1.5})
    assert main(["compare", "-c", cfg]) == 0
    man = json.loads(open(os.path.join(out, "manifest.json")).read())
    warned = {name: v["theory_warnings"] for name, v in man["variants"].items()}
    assert warned["rk"] == []
    assert len(warned["steep"]) == 1 and "eta=0.9 exceeds min(2L/(3mu), mu/L)" in warned["steep"][0]
    assert len(warned["giant"]) == 1 and "for scheme identity" in warned["giant"][0]


def test_run_manifest_names_the_scheme_that_ran(tmp_path):
    # the uncompressed mode sends identity whatever the config's scheme, so the manifest
    # names identity, its bits are identity's 64p per vector, and its warnings are checked
    # against identity: 1.5 r delta is 0.75 for random-k(2 of 4) but 1.5 for identity
    out = tmp_path / "qnbbq"
    assert main(["run", "-c", str(CONFIGS / "ridge_qnbbq.json"), "--mode", "uncompressed_giant",
                 "--T", "1", "--output-dir", str(out)]) == 0
    resolved = json.loads((out / "manifest.json").read_text())["resolved"]
    assert resolved["scheme"] == _scheme_dict(make_scheme("identity", 20))
    assert read_csv(out / "trace.csv")[1][1][1] == str(2 * 10 * 64 * 20)

    cfg, out = write_config(tmp_path, mode="uncompressed_giant",
                            hyperparams={"alpha_x": 1.5, "alpha_y": 1.5, "T": 2})
    assert main(["run", "-c", cfg]) == 0
    resolved = json.loads(open(os.path.join(out, "manifest.json")).read())["resolved"]
    assert resolved["scheme"]["label"] == "identity" and resolved["scheme"]["C"] == 0.0
    assert [int(r[1]) for r in read_csv(os.path.join(out, "trace.csv"))[1]] == \
        [2 * 5 * 64 * 4 * t for t in range(3)]
    assert len(resolved["theory_warnings"]) == 1
    assert "for scheme identity" in resolved["theory_warnings"][0]


def test_compare_records_the_scheme_each_variant_ran(tmp_path):
    variants = [
        {"name": "tk", "mode": "cnext", "scheme": {"kind": "topk", "k": 3}},
        {"name": "giant", "mode": "uncompressed_giant", "scheme": {"kind": "topk", "k": 3}},
    ]
    cfg, out = write_config(tmp_path, compare={"variants": variants}, hyperparams={"T": 2})
    assert main(["compare", "-c", cfg]) == 0
    man = json.loads(open(os.path.join(out, "manifest.json")).read())
    labels = {name: v["scheme"]["label"] for name, v in man["variants"].items()}
    assert labels == {"tk": "topk(k=3)", "giant": "identity"}
    _, rows = read_csv(os.path.join(out, "compare.csv"))
    assert {r[0]: int(r[2]) for r in rows if r[1] == "1"}["giant"] == 2 * 5 * 64 * 4


def test_theory_reports_the_scheme_the_mode_sends(tmp_path, capsys):
    # ridge_qnbbq.json sets every step, so naming identity changes only the scheme
    config = str(CONFIGS / "ridge_qnbbq.json")
    reports = {}
    for name, flags in (("giant", ["--mode", "uncompressed_giant"]),
                        ("identity", ["--scheme", "identity"]), ("qnbbq", [])):
        assert main(["theory", "-c", config, *flags]) == 0
        reports[name] = json.loads(capsys.readouterr().out)
    assert reports["giant"] == reports["identity"]
    assert reports["giant"]["scheme"]["label"] == "identity"
    assert reports["giant"]["rho_A"] != reports["qnbbq"]["rho_A"]


def test_compare_records_a_diverging_variant_as_run_does(tmp_path):
    # one error entry: compare's `diverged` is the `divergence` that `run` writes for the
    # same member, with all five keys
    variants = [
        {"name": "raw-gt", "mode": "first_order_gt", "scheme": {"kind": "identity"}},
        {"name": "newton", "mode": "cnext", "scheme": {"kind": "identity"}, "eta": 0.01},
    ]
    cfg, out = write_config(tmp_path, mode="first_order_gt", scheme={"kind": "identity"},
                            compare={"variants": variants},
                            hyperparams={"T": 300, "eta": 0.9, "gamma": 0.6,
                                         "alpha_x": 1.0, "alpha_y": 1.0})
    assert main(["run", "-c", cfg]) == 3
    err = json.loads(open(os.path.join(out, "manifest.json")).read())["divergence"]
    assert main(["compare", "-c", cfg]) == 0
    variants = json.loads(open(os.path.join(out, "manifest.json")).read())["variants"]
    diverged = variants["raw-gt"]["diverged"]
    assert diverged == err
    assert set(diverged) == {"error", "message", "t", "quantity", "agent"}
    assert diverged["error"] == "DivergenceError" and diverged["agent"] is None
    assert diverged["quantity"] in ("X", "Y", "error vector")


def test_record_fields_map_onto_the_trace_columns():
    # cli._values unpacks a record's errors by position, so the field order is the column order
    assert [f"{name}_err" for name in ErrorVector._fields] == list(CSV_COLUMNS[2:7])
    assert RoundRecord._fields[:2] == CSV_COLUMNS[:2]
    assert RoundRecord._fields[3:5] == CSV_COLUMNS[7:]


def test_records_keep_the_names_the_benchmark_reads(tmp_path):
    # bench/workloads.py reads t, bits_cum, residual, accuracy, errors.opt and errors.cons
    exp = Experiment(load_config(write_config(tmp_path)[0]))
    hp = exp.cfg.hyperparams
    records = run(exp.obj, exp.net, exp.scheme, hp, exp.cfg.mode, 42, x_star=exp.x_star)
    lines = records_to_csv(records).splitlines()[1:]
    for rec, line in zip(records, lines):
        t, bits, opt, cons, *_, residual, acc = line.split(",")
        assert (rec.t, rec.bits_cum, rec.accuracy) == (int(t), int(bits), None) and acc == ""
        assert (rec.errors.opt, rec.errors.cons, rec.residual) == \
            (float(opt), float(cons), float(residual))
    assert [rec.t for rec in records] == list(range(hp.T + 1))


@pytest.mark.parametrize("block, value, path", [
    ("hyperparams", {"alpha": 0.25}, "hyperparams.alpha"),
    ("compare", {"variants": [{"name": "a", "scheme": {"kind": "topk"}, "alpha_x": 0.25},
                              {"name": "b", "scheme": {"kind": "qnbbq"}}]},
     "compare.variants[0].alpha_x"),
    ("objective", {"kind": "ridge", "data": {"n_sample": 60}}, "objective.data.n_sample"),
    ("sede", 7, "sede"),
    ("theory", {"tau_x": 1.5}, "theory.tau_x"),
])
def test_unknown_config_field_is_config_error(tmp_path, capsys, block, value, path):
    # a top-k ridge config that sets no alpha_x or alpha_y would resolve the tuned 0.5
    # where "alpha": 0.25 was meant; every block names its unknown field instead
    raw = {"objective": {"kind": "ridge"}, "network": {"kind": "ring", "n": 5},
           "scheme": {"kind": "topk"}, "hyperparams": {"T": 2}, block: value}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=f"unknown field {re.escape(path)} "):
        load_config(str(cfg))
    assert main(["run", "-c", str(cfg)]) == 2
    assert f"unknown field {path} " in capsys.readouterr().err


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

    calls = {"build_A": 0, "spectral_radius": 0}
    for name in calls:
        def counted(*args, real=getattr(theory, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(theory, name, counted)
    cfg, _ = write_config(tmp_path, scheme={"kind": "identity"},
                          hyperparams={"eta": 1e-8, "gamma": 0.01, "T": 1})
    for args, points in (([], 1), (["--grid", "2"], 4)):
        calls.update(build_A=0, spectral_radius=0)
        assert main(["theory", "-c", cfg, *args]) == 0
        assert calls["build_A"] == points and calls["spectral_radius"] <= points


def test_theory_nan_eps_is_config_error(tmp_path, capsys):
    # json reads NaN; a NaN eps entry is not a positive real
    cfg, _ = write_config(tmp_path, theory={"eps": [float("nan"), 1.0, 1.0, 1.0, 1.0]})
    assert main(["theory", "-c", cfg]) == 2
    assert "theory.eps" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["eta", "alpha_x", "alpha_y", "tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_hyperparams_are_config_errors(tmp_path, capsys, key, value):
    # json reads NaN and Infinity, and every comparison with NaN is false, so a bound
    # alone would admit it; run, compare and theory exit 2 and write no manifest
    variants = [{"name": "a", "scheme": {"kind": "identity"}},
                {"name": "b", "scheme": {"kind": "topk", "k": 2}}]
    cfg, out = write_config(tmp_path, hyperparams={key: value}, compare={"variants": variants})
    for command in ("run", "compare", "theory"):
        assert main([command, "-c", cfg]) == 2, command
        assert "finite" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_non_finite_variant_eta_is_config_error(tmp_path, capsys):
    variants = [{"name": "a", "scheme": {"kind": "identity"}},
                {"name": "b", "scheme": {"kind": "identity"}, "eta": float("nan")}]
    cfg, _ = write_config(tmp_path, compare={"variants": variants})
    assert main(["compare", "-c", cfg]) == 2
    assert "compare.variants[1].hyperparams" in capsys.readouterr().err


def test_repeated_seeds_are_config_error(tmp_path, capsys):
    # a repeated seed would be averaged twice into trace.csv under one trace_seed file
    cfg, out = write_config(tmp_path, seeds=[1, 1, 2])
    assert main(["run", "-c", cfg]) == 2
    assert "seeds" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_run_and_compare_manifests_are_strict_json(tmp_path):
    # every manifest parses with no NaN or Infinity: a run, a run that diverges, a compare
    # with a diverging variant; a non-finite tol (once written into both of the run's
    # hyperparams blocks as NaN) or eta (once a divergence at round 0) is refused before
    # any manifest is written
    variants = [{"name": "newton", "scheme": {"kind": "identity"}},
                {"name": "raw-gt", "mode": "first_order_gt", "scheme": {"kind": "identity"},
                 "eta": 0.9}]
    cfg, _ = write_config(tmp_path, compare={"variants": variants}, hyperparams={"T": 300})
    cases = [(["run"], 0), (["run", "--mode", "first_order_gt", "--eta", "0.9"], 3),
             (["compare"], 0), (["run", "--tol", "nan"], 2), (["compare", "--tol", "inf"], 2),
             (["run", "--eta", "inf"], 2), (["run", "--eta", "nan"], 2)]
    for i, (args, code) in enumerate(cases):
        out = tmp_path / f"out{i}"
        assert main([args[0], "-c", cfg, *args[1:], "--output-dir", str(out)]) == code, args
        if code == 2:
            assert not out.exists()
            continue
        with open(out / "manifest.json") as fh:
            json.load(fh, parse_constant=_no_constant)


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


@pytest.mark.parametrize("kind, counts", [("identity", (25, 42, 36)), ("topk", (0, 0, 0))])
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


def test_theory_marks_zero_rho_tilde_uncertified(tmp_path, capsys):
    # the 2-ring's rho is 0, so rho_tilde = 0 at gamma = 1, the grid's last column: the point
    # is reported as not certified, not a ZeroDivisionError
    cfg, out = write_config(tmp_path, network={"kind": "ring", "n": 2}, scheme={"kind": "identity"},
                            hyperparams={"eta": 1e-6, "gamma": 1.0, "T": 1,
                                         "alpha_x": 1.0, "alpha_y": 1.0})
    assert main(["theory", "-c", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["network"]["rho_tilde"] == 0.0
    assert report["sufficient_conditions"]["pass"] is False
    assert main(["theory", "-c", cfg, "--grid", "2"]) == 0
    rows = _sweep_rows(os.path.join(out, "sweep_identity.csv"))
    assert [ok for _, gamma, ok, *_ in rows if float(gamma) == 1.0] == ["0", "0"]


def test_theory_grid_below_one_is_config_error(tmp_path, capsys):
    cfg, _ = write_config(tmp_path)
    assert main(["theory", "-c", cfg, "--grid", "0"]) == 2
    assert "--grid" in capsys.readouterr().err


# variants whose steps resolve three ways: the top level's eta, their own eta, and each
# scheme's tuned alpha, as no alpha is set
OWN_STEPS = {"compare": {"variants": [
    {"name": "rk", "scheme": {"kind": "randomk", "k": 2}},
    {"name": "q", "scheme": {"kind": "qnbbq", "b": 3}, "eta": 0.004},
    {"name": "fo", "mode": "first_order_gt", "scheme": {"kind": "topk", "k": 1}}]},
    "hyperparams": {"alpha_x": None, "alpha_y": None}}


@pytest.mark.parametrize("command, updates, written", [
    ("run", {"network": {"kind": "ring", "n": 5}}, "trace.csv"),
    ("run", {"network": {"kind": "custom", "n": 4, "adjacency": CYCLE4}}, "trace.csv"),
    ("compare", OWN_STEPS, "compare.csv"),
], ids=["ring", "custom", "compare"])
def test_manifest_config_reproduces_trace(tmp_path, command, updates, written):
    cfg, out = write_config(tmp_path, **updates)
    assert main([command, "-c", cfg]) == 0
    rerun = tmp_path / "rerun.json"
    rerun.write_text(json.dumps(json.loads(open(os.path.join(out, "manifest.json")).read())["config"]))
    assert main([command, "-c", str(rerun), "--output-dir", str(tmp_path / "rerun")]) == 0
    assert (tmp_path / "rerun" / written).read_bytes() == Path(out, written).read_bytes()


def test_manifest_config_is_the_config_as_given(tmp_path):
    # config is the file with the flags applied, and nothing the parser filled in: a
    # random-k scheme that sets no b records none, and resolved.scheme says it reads none
    cfg, out = write_config(tmp_path)
    assert main(["run", "-c", cfg, "--T", "3", "--k", "3"]) == 0
    man = json.loads(Path(out, "manifest.json").read_text())
    given = json.loads(Path(cfg).read_text())
    given["hyperparams"]["T"], given["scheme"]["k"] = 3, 3
    assert man["config"] == given
    assert "b" not in man["config"]["scheme"] and man["resolved"]["scheme"]["b"] is None
    assert (man["resolved"]["scheme"]["k"], man["resolved"]["hyperparams"]["T"]) == (3, 3)


def test_covtype_path_from_the_environment_is_in_the_manifest(tmp_path, monkeypatch):
    # the config names no file, so the manifest's data_extras records the one read
    csv = tmp_path / "covtype.csv"
    covtype_fixture_csv(csv)
    monkeypatch.setenv("CNEXT_COVTYPE_PATH", str(csv))
    cfg, out = write_config(tmp_path, network={"kind": "ring", "n": 4}, scheme={"kind": "qnbbq"},
                            objective=dict(LOGISTIC_COVTYPE, data={"source": "covtype", "p": 5}),
                            hyperparams={"eta": 0.05, "gamma": 0.35, "T": 2})
    assert main(["run", "-c", cfg]) == 0
    man = json.loads(Path(out, "manifest.json").read_text())
    assert "path" not in man["config"]["objective"]["data"]
    assert man["resolved"]["data_extras"]["path"] == str(csv)


def test_integral_floats_read_as_integers(tmp_path):
    # 2.0 is the integer 2 wherever an integer is read: the run is the one with ints
    ints, out = write_config(tmp_path, "ints.json", hyperparams={"T": 2}, seed=7, seeds=[7])
    floats, _ = write_config(tmp_path, "floats.json", hyperparams={"T": 2.0}, seed=7.0,
                             network={"kind": "ring", "n": 5.0}, seeds=[7.0],
                             scheme={"kind": "randomk", "k": 2.0})
    traces = []
    for cfg in (ints, floats):
        assert main(["run", "-c", cfg]) == 0
        traces.append(Path(out, "trace.csv").read_bytes())
    assert traces[0] == traces[1]
    assert json.loads(Path(out, "manifest.json").read_text())["resolved"]["hyperparams"]["T"] == 2


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


LOGISTIC_COVTYPE = {"kind": "logistic", "lambda": 0.1, "data": {"source": "covtype"}}


@pytest.mark.parametrize("objective, message", [
    ({"kind": "ridge", "lambda": 0, "data": {"source": "synthetic", "n_samples": 50, "p": 4}},
     "objective: lambda must be positive"),
    ({"kind": "ridge", "lambda": 0.5, "data": {"source": "synthetic", "n_samples": 3, "p": 4}},
     "objective.data: more agents (5) than training samples (3)"),
    ({"kind": "ridge", "lambda": 0.5, "data": {"source": "synthetic", "n_samples": 50, "p": 0}},
     "objective.data.p must be at least 1, got 0"),
    (LOGISTIC_COVTYPE, "objective.data: expected 55 columns"),
], ids=["lambda-0", "fewer-samples-than-agents", "p-0", "covtype-3-columns"])
def test_set_up_rejections_are_config_errors(tmp_path, capsys, monkeypatch, objective, message):
    # values the data or objective refuses exit 2, naming the block; the parser refuses p < 1
    # itself, as it checks every scheme on p
    csv = tmp_path / "covtype.csv"
    csv.write_text("1,2,3\n4,5,6\n")
    monkeypatch.setenv("CNEXT_COVTYPE_PATH", str(csv))
    cfg, out = write_config(tmp_path, objective=objective, scheme={"kind": "identity", "k": None},
                            hyperparams={"eta": 0.002, "gamma": 0.6, "T": 2})
    assert main(["run", "-c", cfg]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_logistic_run_and_compare_on_a_covtype_fixture(tmp_path):
    # the logistic path end to end, offline: a CovType-format CSV, a ring of 4, explicit
    # hyperparams; every trace row holds an accuracy in [0, 1] and a residual >= 0, and
    # every cell is a plain number (no numpy scalar's repr, such as np.float64(0.5))
    csv = tmp_path / "covtype.csv"
    covtype_fixture_csv(csv)
    logistic = {"kind": "logistic", "lambda": 0.1,
                "data": {"source": "covtype", "path": str(csv), "p": 5}}
    variants = [{"name": "cnext", "mode": "cnext", "scheme": {"kind": "qnbbq", "b": 2}},
                {"name": "first-order", "mode": "first_order_gt", "scheme": {"kind": "qnbbq", "b": 2}}]
    cfg, out = write_config(tmp_path, objective=logistic, network={"kind": "ring", "n": 4},
                            scheme={"kind": "qnbbq", "b": 2, "k": None}, compare={"variants": variants},
                            hyperparams={"eta": 0.05, "gamma": 0.35, "alpha_x": 0.5, "alpha_y": 0.5,
                                         "T": 20})
    assert main(["run", "-c", cfg]) == 0
    header, rows = read_csv(os.path.join(out, "trace.csv"))
    assert main(["compare", "-c", cfg]) == 0
    compare_header, compare_rows = read_csv(os.path.join(out, "compare.csv"))
    assert compare_header[1:] == header and len(rows) == 21 and len(compare_rows) == 2 * 21
    for row in rows + [r[1:] for r in compare_rows]:
        assert not any("np." in cell for cell in row)
        assert all(np.isfinite(float(cell)) for cell in row)
        assert 0.0 <= float(row[header.index("accuracy")]) <= 1.0
        assert float(row[header.index("residual")]) >= 0.0
    assert {r[0] for r in compare_rows} == {"cnext", "first-order"}


REFUSED_VARIANTS = [{"name": "rk", "scheme": {"kind": "randomk", "k": 2}},
                    {"name": "q", "scheme": {"kind": "qnbbq"}}]
RIDGE_DATA = {"source": "synthetic", "n_samples": 50, "p": 4}


@pytest.mark.parametrize("command", ["run", "compare", "theory"])
@pytest.mark.parametrize("flags, updates, message", [
    (["--scheme", "topk", "--k", "0"], {}, "scheme: topk needs 1 <= k <= p, got k=0, p=4"),
    (["--scheme", "topk", "--k", "-1"], {}, "scheme: topk needs 1 <= k <= p, got k=-1, p=4"),
    (["--scheme", "qnbbq", "--b", "0"], {}, "scheme: qnbbq needs 1 <= b <= 53, got b=0"),
    (["--scheme", "qnbbq", "--b", "-3"], {}, "scheme: qnbbq needs 1 <= b <= 53, got b=-3"),
    (["--scheme", "qnbbq", "--b", "1100"], {}, "scheme: qnbbq needs 1 <= b <= 53, got b=1100"),
    ([], {"compare": {"variants": REFUSED_VARIANTS[:1] + [
        {"name": "tk", "scheme": {"kind": "topk", "k": 5}}]}},
     "compare.variants[1].scheme: topk needs 1 <= k <= p, got k=5, p=4"),
    ([], {"objective": {"kind": "logistic", "data": {"source": "covtype", "p": 60}}},
     "objective.data: CovType has 54 features, so needs 1 <= p <= 54, got p=60"),
    ([], {"objective": {"kind": "logistic", "data": {"source": "covtype", "p_reduced": 10}}},
     "unknown field objective.data.p_reduced"),
    ([], {"objective": {"kind": "ridge", "lambda": float("nan"), "data": RIDGE_DATA}},
     "objective: lambda must be positive and finite, got nan"),
    ([], {"objective": {"kind": "ridge", "lambda": float("inf"), "data": RIDGE_DATA}},
     "objective: lambda must be positive and finite, got inf"),
    ([], {"objective": {"kind": "ridge", "lambda": 0.5,
                        "data": dict(RIDGE_DATA, noise_std=float("nan"))}},
     "objective.data: noise_std must be finite, got nan"),
    (["--scheme", "qnbbq"], {"scheme": {"b": 2.7}}, "scheme.b must be an integer, got 2.7"),
    ([], {"hyperparams": {"T": 3.6}}, "hyperparams.T must be an integer, got 3.6"),
    ([], {"network": {"n": True}}, "network.n must be an integer, got True"),
    ([], {"seed": "7"}, "seed must be an integer, got '7'"),
    ([], {"seeds": [1.5]}, "seeds[0] must be an integer, got 1.5"),
    ([], {"objective": {"kind": "ridge", "data": dict(RIDGE_DATA, p=4.5)}},
     "objective.data.p must be an integer, got 4.5"),
    ([], {"compare": {"variants": REFUSED_VARIANTS[:1] + [
        {"name": "q", "scheme": {"kind": "qnbbq", "b": "3"}}]}},
     "compare.variants[1].scheme.b must be an integer, got '3'"),
], ids=["topk-k-0", "topk-k--1", "b-0", "b--3", "b-1100", "variant-k-above-p", "covtype-p-60",
        "covtype-p_reduced", "lambda-nan", "lambda-inf", "noise_std-nan", "b-2.7", "T-3.6",
        "n-true", "seed-string", "seeds-1.5", "p-4.5", "variant-b-string"])
def test_refused_values_exit_2_before_any_file(tmp_path, capsys, monkeypatch, command, flags,
                                               updates, message):
    # each value is refused by the config or the set-up, with the member's path, before
    # any directory is made; JSON carries NaN and Infinity as the Python json module writes
    csv = tmp_path / "covtype.csv"
    covtype_fixture_csv(csv)
    monkeypatch.setenv("CNEXT_COVTYPE_PATH", str(csv))
    cfg, out = write_config(tmp_path, **{"compare": {"variants": REFUSED_VARIANTS}, **updates})
    assert main([command, "-c", cfg, *flags]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_expander_degree_0_is_a_range_error(tmp_path, capsys):
    # a degree of 0 is set, so it is reported as out of range, not as missing
    cfg, out = write_config(tmp_path, network={"kind": "expander", "n": 5, "degree": 0})
    assert main(["run", "-c", cfg]) == 2
    assert "network: degree must be a positive even integer, got 0" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_missing_covtype_file_is_io_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CNEXT_COVTYPE_PATH", str(tmp_path / "absent.csv"))
    cfg, _ = write_config(tmp_path, objective=LOGISTIC_COVTYPE, hyperparams={"T": 2})
    assert main(["run", "-c", cfg]) == 4
    assert "io error" in capsys.readouterr().err


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


def test_theory_solves_no_baseline(tmp_path, capsys, monkeypatch):
    # `cnext theory` reads no x*: with a baseline that cannot converge it prints the same
    # report and map, while run and compare still exit 3 before they write any file
    from cnext import cli
    from cnext.objective import ConvergenceError

    def fail(obj):
        raise ConvergenceError("Newton failed to reach tol=1e-10 in 500 iterations", np.zeros(obj.p))

    variants = [{"name": kind, "scheme": {"kind": kind}} for kind in ("identity", "qnbbq")]
    cfg, out = write_config(tmp_path, scheme={"kind": "identity"}, compare={"variants": variants},
                            hyperparams={"eta": 1e-8, "gamma": 0.01, "T": 1})
    written = []
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(cli, "baseline_optimum", fail)
        grid = tmp_path / f"grid{int(patched)}"
        assert main(["theory", "-c", cfg]) == 0
        report = capsys.readouterr().out
        assert main(["theory", "-c", cfg, "--grid", "3", "--output-dir", str(grid)]) == 0
        capsys.readouterr()
        written.append((report, (grid / "sweep_identity.csv").read_bytes()))
    assert written[0] == written[1]
    for command in ("run", "compare"):
        assert main([command, "-c", cfg]) == 3
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "ConvergenceError"
        assert not os.path.exists(out)


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
