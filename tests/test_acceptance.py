"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s

Criterion 6's Random-k case is expected to stay red: at its tuned step size 0.0012
the geometric rate (about -0.0013 decades/iteration) cannot bridge the ~9 decades
from the initial residual to 1e-6 within 5000 iterations; the run is healthy (the
slope and regression checks pass) but the 1e-6 residual target is unreachable.
See README for the analysis.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cnext.compress import (CompressState, _encode, agent_streams, compress_round,
                            make_scheme)
from cnext.config import RIDGE_TUNED
from cnext.graph import build_ring, metropolis_hastings_weights
from cnext.objective import ridge_closed_form_optimum
from cnext.solver import (DivergenceError, HyperParams, MODE_CNEXT, MODE_FIRST_ORDER_GT,
                          init_state, newton_directions, run, tracking_gap)
from cnext.theory import Theta, TheoryConstants, build_A, check_sufficient_conditions, default_epsilon
from conftest import all_schemes, verify_contract, xy_streams, network_giant_reference


def report(n, ok, msg):
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {msg}")


def replay_rounds(obj, net, scheme, hp, seed, on_round):
    """Drive the synchronous rounds directly so per-round internals are observable."""
    state = init_state(obj, net, hp, seed)
    rx, ry = agent_streams(seed, 0, net.n), agent_streams(seed, 1, net.n)
    for _ in range(hp.T):
        # comp_x and comp_y are views, so each call updates the stacked memories in place
        out_x = compress_round(state.comp_x, state.X, scheme, net.W, rx)
        out_y = compress_round(state.comp_y, state.Y, scheme, net.W, ry)
        D = newton_directions(state.X, state.Y, obj)
        X_new = state.X - hp.gamma * (out_x.Zhat - out_x.Zhat_w) - hp.eta * D
        g_new = obj.grad_stack(X_new)
        Y_new = state.Y - hp.gamma * (out_y.Zhat - out_y.Zhat_w) + g_new - state.prev_grad
        state.XY, state.prev_grad = np.stack([X_new, Y_new]), g_new
        state.t += 1
        on_round(state, out_x, out_y)
    return state


def test_c01_gradient_tracking_preservation(small_ridge):
    obj, net = small_ridge
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=0.5, alpha_y=0.5, T=200)
    worst = 0.0
    for scheme in all_schemes(obj.p):
        state = init_state(obj, net, hp, seed=42)
        rngs = xy_streams(42, net.n)
        from cnext.solver import step
        for _ in range(hp.T):
            step(state, obj, net, scheme, hp, MODE_CNEXT, rngs)
            scale = max(1.0, float(np.linalg.norm(state.prev_grad.mean(axis=0))))
            gap = tracking_gap(state) / scale
            worst = max(worst, gap)
            assert gap <= 1e-10, scheme.label()
    report(1, True, f"tracking identity held for all schemes over 200 rounds "
                    f"(worst relative gap {worst:.2e} <= 1e-10)")


def test_c02_compress_state_identities(small_ridge):
    obj, net = small_ridge
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=0.5, alpha_y=0.5, T=200)
    worst = 0.0

    for scheme in all_schemes(obj.p):
        def check(state, out_x, out_y):
            nonlocal worst
            for comp, out in ((state.comp_x, out_x), (state.comp_y, out_y)):
                g1 = np.linalg.norm(comp.Hw - net.W @ comp.H) / max(np.linalg.norm(comp.H), 1.0)
                g2 = np.linalg.norm(out.Zhat_w - net.W @ out.Zhat) / max(np.linalg.norm(out.Zhat), 1.0)
                worst = max(worst, g1, g2)
                assert g1 <= 1e-10 and g2 <= 1e-10, scheme.label()

        replay_rounds(obj, net, scheme, hp, seed=7, on_round=check)
    report(2, True, f"Hw = W H and Zhat_w = W Zhat held over 200 rounds per scheme "
                    f"(worst relative gap {worst:.2e} <= 1e-10)")


def test_c03_uncompressed_recovery(small_ridge):
    obj, net = small_ridge
    hp = HyperParams(eta=0.003, gamma=0.6, alpha_x=1.0, alpha_y=1.0, T=200)
    scheme = make_scheme("identity", obj.p)
    ref = network_giant_reference(obj, net, hp, seed=42)
    worst_dev = 0.0

    def check(state, out_x, out_y):
        nonlocal worst_dev
        dev = np.max(np.abs(state.X - ref[state.t])) / max(np.max(np.abs(ref[state.t])), 1.0)
        worst_dev = max(worst_dev, dev)
        assert dev <= 1e-9

    # operator-induced errors vanish under identity; the trajectory matches the
    # directly coded Wtilde-averaging reference round for round
    recs = run(obj, net, scheme, hp, MODE_CNEXT, seed=42)
    assert all(r.op_err_x <= 1e-20 and r.op_err_y <= 1e-20 for r in recs)
    replay_rounds(obj, net, scheme, hp, seed=42, on_round=check)
    report(3, True, "identity compression reproduced the directly coded weighted-averaging "
                    f"reference (max relative deviation {worst_dev:.2e}; operator errors <= 1e-20)")


def test_c04_operator_contracts():
    p = 20
    rng = np.random.default_rng(2024)
    # Random-k(5, 20): measured contract constant vs the closed form 0.75
    rk = make_scheme("randomk", p, k=5)
    samples = [rng.standard_normal(p) for _ in range(4)]
    measured = verify_contract(rk, samples, rng, n_draws=10_000)[0]
    ok_rk = abs(measured - 0.75) <= 0.02

    # Top-k worst case is exact on a uniform-magnitude vector
    tk = make_scheme("topk", p, k=3)
    worst = verify_contract(tk, [np.ones(p)], rng)[0]
    ok_tk = worst == pytest.approx(1.0 - 3 / p, rel=1e-15)

    # dithered quantizer unbiasedness at 1e5 draws, 3 sigma per coordinate
    qn = make_scheme("qnbbq", p, b=2)
    x = rng.standard_normal(p)
    n_draws = 100_000
    draws = np.empty((n_draws, p))
    for i in range(n_draws):
        draws[i] = _encode(qn, x[None], [rng])[0]
    mean = draws.mean(axis=0)
    sig = draws.std(axis=0, ddof=1) / np.sqrt(n_draws)
    ok_unbiased = bool(np.all(np.abs(mean - x) <= 3.0 * sig + 1e-10))

    # every scheme's measured constant is finite and recorded on the scheme object
    table = {}
    for scheme in all_schemes(p, k=5):
        c = verify_contract(scheme, samples, rng, n_draws=2_000)[0]
        table[scheme.kind] = c
        assert np.isfinite(c) and np.isfinite(scheme.C)

    ok = ok_rk and ok_tk and ok_unbiased
    report(4, ok, f"random-k C={measured:.4f} (0.75 +- 0.02), top-k worst C={worst:.4f} exact, "
                  f"quantizer unbiased within 3 sigma, all measured C finite: "
                  f"{ {k: round(v, 3) for k, v in table.items()} }")
    assert ok_rk and ok_tk and ok_unbiased


def test_c05_sufficient_conditions_sweep(ridge10):
    obj, net, _ = ridge10
    etas = np.geomspace(1e-10, 1e-2, 20)
    gammas = np.geomspace(1e-4, 1.0, 20)
    n_checked = n_pass_identity = 0
    for kind, k in (("identity", None), ("randomk", 5)):
        scheme = make_scheme(kind, obj.p, k=k)
        for eta in etas:
            for gamma in gammas:
                theta = Theta(eta=float(eta), gamma=float(gamma), alpha_x=1.0, alpha_y=1.0)
                try:
                    tc = TheoryConstants.build(obj.mu, obj.L, net, scheme, theta)
                    eps = default_epsilon(tc, theta, net.n)
                    rep = check_sufficient_conditions(tc, theta, eps, net.n)
                except ValueError:
                    continue
                n_checked += 1
                if rep["pass"]:
                    # soundness: a passing point must certify the linear rate
                    assert rep["rho_A"] < 1.0
                    assert rep["direct_contraction"]["ok"]
                    if kind == "identity":
                        n_pass_identity += 1
    assert n_pass_identity > 0
    report(5, True, f"soundness held at every passing point of the 20x20 sweeps "
                    f"({n_checked} points evaluated; {n_pass_identity} identity points certified)")


# criterion 6 pins (p, n, N, lambda, gamma, T, seed) and the tuned per-scheme step
# sizes; alpha is chosen per scheme for stability ((1,1) diverges for the three
# larger-C operators, see the README), matching the "tuned for best performance"
# selection of the benchmark
# the frozen regression bound on the final opt error, by scheme; each run takes its eta,
# alpha and k from config.RIDGE_TUNED
_C6 = {"qnbbq": 1e-20, "randomk": 1e-5, "topk": 1e-20, "qnormsigned": 1e-20}


def tail_slope(opts):
    """Least-squares slope of log10(opt) over the geometric phase before the floor."""
    opts = np.maximum(np.asarray(opts, dtype=float), 1e-300)
    floor = max(opts.min(), 1e-280)
    below = np.nonzero(opts <= floor * 1e3)[0]
    t_end = int(below[0]) if below.size else opts.size
    t_end = max(t_end, 50)
    window = slice(int(0.6 * t_end), t_end)
    ts = np.arange(opts.size)[window]
    return float(np.polyfit(ts, np.log10(opts[window]), 1)[0])


@pytest.mark.parametrize("kind", list(_C6))
def test_c06_desk_scale_replication(ridge10, kind):
    obj, net, x_star = ridge10
    tuned = RIDGE_TUNED[kind]
    scheme = make_scheme(kind, obj.p, b=2, k=tuned["k"])
    hp = HyperParams(eta=tuned["eta"], gamma=0.6, alpha_x=tuned["alpha"], alpha_y=tuned["alpha"],
                     T=5000)
    recs = run(obj, net, scheme, hp, MODE_CNEXT, seed=42, x_star=x_star)
    opts = np.array([r.errors.opt for r in recs])
    slope = tail_slope(opts)
    final_residual = recs[-1].residual
    ok_slope = slope < -1e-3
    ok_resid = final_residual <= 1e-6
    ok_regress = opts[-1] <= _C6[kind]
    report(6, ok_slope and ok_resid and ok_regress,
           f"[{kind}] eta={tuned['eta']} tail slope {slope:.5f} (< -1e-3: {ok_slope}), "
           f"final residual {final_residual:.3e} (<= 1e-6: {ok_resid}), "
           f"final opt {opts[-1]:.3e} (regression <= {_C6[kind]:g}: {ok_regress})")
    assert ok_slope, f"{kind}: tail slope {slope} not < -1e-3"
    assert ok_regress, f"{kind}: final opt {opts[-1]} above the frozen regression baseline"
    assert ok_resid, (f"{kind}: final residual {final_residual} > 1e-6 "
                      "(unreachable at the tuned step size; see README)")


def _bits_to_target(records, target=1e-6):
    for r in records:
        if r.residual <= target:
            return r.t, r.bits_cum
    return None


def test_c07_second_order_advantage(ridge10):
    obj, net, x_star = ridge10
    scheme = make_scheme("qnormsigned", obj.p)
    hp = HyperParams(eta=0.021, gamma=0.6, alpha_x=0.25, alpha_y=0.25, T=1000)
    newton = run(obj, net, scheme, hp, MODE_CNEXT, seed=42, x_star=x_star)
    hit_newton = _bits_to_target(newton)
    try:
        first_order = run(obj, net, scheme, hp, MODE_FIRST_ORDER_GT, seed=42, x_star=x_star)
        hit_fo = _bits_to_target(first_order)
        fo_note = "never reached 1e-6" if hit_fo is None else f"t={hit_fo[0]}"
    except DivergenceError as exc:
        hit_fo = None
        fo_note = f"diverged at round {exc.t}"
    ok = hit_newton is not None and (hit_fo is None or
                                     (hit_newton[0] < hit_fo[0] and hit_newton[1] < hit_fo[1]))
    # frozen regression band for the crossover (first verified run: t*=306, 318240 bits)
    ok_band = hit_newton is not None and 150 <= hit_newton[0] <= 600
    report(7, ok and ok_band,
           f"curvature-scaled run hit residual 1e-6 at t={hit_newton[0]} "
           f"({hit_newton[1]} bits); raw-tracker comparator {fo_note}")
    assert ok and ok_band


def _mean_error_traces(obj, net, scheme, hp, n_seeds, state0):
    acc = None
    for seed in range(n_seeds):
        recs = run(obj, net, scheme, hp, MODE_CNEXT, seed=seed, state0=state0)
        errs = np.array([r.errors for r in recs])
        acc = errs if acc is None else acc + errs
    return acc / n_seeds


def test_c08_statistical_contraction(small_ridge):
    obj, net = small_ridge

    # (a) certified hyperparameters: scan a small grid for a Theorem-2-feasible theta
    # with the identity operator, then check the componentwise inequality on the run
    scheme_id = make_scheme("identity", obj.p)
    feasible = None
    for gamma in np.geomspace(3e-3, 0.5, 8):
        for eta in np.geomspace(1e-11, 1e-6, 8):
            theta = Theta(eta=float(eta), gamma=float(gamma), alpha_x=1.0, alpha_y=1.0)
            tc = TheoryConstants.build(obj.mu, obj.L, net, scheme_id, theta)
            eps = default_epsilon(tc, theta, net.n)
            rep = check_sufficient_conditions(tc, theta, eps, net.n)
            if rep["pass"]:
                feasible = (theta, tc, rep["rho_A"])
                break
        if feasible:
            break
    assert feasible is not None, "no certified theta found on the scan grid"
    theta, tc, rho_A = feasible
    hp = HyperParams(eta=theta.eta, gamma=theta.gamma, alpha_x=1.0, alpha_y=1.0, T=100)
    A = build_A(tc, theta, net.n).A
    state0 = init_state(obj, net, hp, seed=1234)
    # the identity operator is deterministic, so a single trajectory realizes the
    # conditional expectations exactly
    mean_id = _mean_error_traces(obj, net, scheme_id, hp, n_seeds=1, state0=state0)
    for t in range(100):
        lhs = mean_id[t + 1]
        rhs = 1.1 * (A @ mean_id[t])
        assert np.all(lhs <= rhs + 1e-30), f"identity case violated at t={t}"

    # (b) randomized operator: random-k with hyperparameters inside the per-step
    # bound's validity range, expectations averaged over 200 operator seeds
    scheme_rk = make_scheme("randomk", obj.p, k=2)
    eta_cap = min(2 * obj.L / (3 * obj.mu), obj.mu / obj.L)
    theta_rk = Theta(eta=0.1 * eta_cap, gamma=0.1, alpha_x=1.0, alpha_y=1.0)
    tc_rk = TheoryConstants.build(obj.mu, obj.L, net, scheme_rk, theta_rk)
    A_rk = build_A(tc_rk, theta_rk, net.n).A
    hp_rk = HyperParams(eta=theta_rk.eta, gamma=theta_rk.gamma, alpha_x=1.0, alpha_y=1.0, T=100)
    state0_rk = init_state(obj, net, hp_rk, seed=99)
    mean_rk = _mean_error_traces(obj, net, scheme_rk, hp_rk, n_seeds=200, state0=state0_rk)
    for t in range(100):
        lhs = mean_rk[t + 1]
        rhs = 1.1 * (A_rk @ mean_rk[t])
        assert np.all(lhs <= rhs + 1e-30), f"random-k case violated at t={t}"

    # rate consistency: the averaged error norm decays no slower than the certified
    # rate allows (log-linear slope within 0.05 of log10 rho(A))
    norms = np.linalg.norm(mean_id, axis=1)
    slope = float(np.polyfit(np.arange(norms.size), np.log10(norms), 1)[0])
    assert slope <= np.log10(rho_A) + 0.05
    report(8, True, f"seed-averaged errors satisfied e(t+1) <= 1.1 A e(t) for 100 rounds "
                    f"(certified theta eta={theta.eta:.2e}, gamma={theta.gamma:.4f}, "
                    f"rho(A)={rho_A:.12f}; plus 200-seed random-k check)")


COVTYPE_PATH = os.environ.get("CNEXT_COVTYPE_PATH")


@pytest.mark.skipif(not (COVTYPE_PATH and os.path.exists(COVTYPE_PATH)),
                    reason="CovType dataset not available (set CNEXT_COVTYPE_PATH)")
def test_c09_covtype_accuracy():
    from cnext.data import build_locals, covtype_split_counts, load_covtype, partition_homogeneous
    from cnext.graph import build_circulant_expander
    from cnext.objective import logistic_objective

    configs = [("ring", 10, None, 0.35, 0.093), ("expander", 14, 6, 0.20, 0.09)]
    accs = {}
    for kind, n, degree, gamma, eta in configs:
        ds = load_covtype(COVTYPE_PATH, p=10, seed=42, n_agents=n)
        if ds.N == 566602:
            assert covtype_split_counts(ds.N, n) == (
                (400000, 166602) if n == 10 else (400008, 166594))
        topo = build_ring(n) if kind == "ring" else build_circulant_expander(n, degree)
        net = metropolis_hastings_weights(topo)
        part = partition_homogeneous(ds, n, 42)
        obj = logistic_objective(build_locals(ds, part), 0.1)
        scheme = make_scheme("qnbbq", 10, b=2)
        hp = HyperParams(eta=eta, gamma=gamma, alpha_x=0.5, alpha_y=0.5, T=1000)
        recs = run(obj, net, scheme, hp, MODE_CNEXT, seed=42, test_data=ds.test())
        accs[kind] = recs[-1].accuracy
        assert abs(recs[-1].accuracy - 0.60) <= 0.03
    report(9, True, f"CovType accuracies {accs} within 0.60 +- 0.03; split counts match")


def test_c10_determinism_across_thread_counts(tmp_path):
    cfg = {
        "objective": {"kind": "ridge", "lambda": 0.5,
                      "data": {"source": "synthetic", "n_samples": 50, "p": 4}},
        "network": {"kind": "ring", "n": 5},
        "scheme": {"kind": "randomk", "k": 2},
        "hyperparams": {"eta": 0.002, "gamma": 0.6, "alpha_x": 0.5, "alpha_y": 0.5, "T": 50},
        "mode": "cnext", "seed": 42, "output_dir": None,
    }
    outputs = []
    for threads in ("1", "4"):
        out = tmp_path / f"threads{threads}"
        cfg["output_dir"] = str(out)
        path = tmp_path / f"cfg{threads}.json"
        path.write_text(json.dumps(cfg))
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "cnext.cli", "run", "-c", str(path)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "trace.csv").read_bytes())
    assert outputs[0] == outputs[1]
    report(10, True, "byte-identical trace CSVs under 1 and 4 BLAS/OMP threads")
