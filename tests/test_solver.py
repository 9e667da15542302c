import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from cnext import solver
from cnext.compress import CompressState, _encode, agent_streams, compress_round, make_scheme
from cnext.graph import build_circulant_expander, build_ring, metropolis_hastings_weights
from cnext.data import Dataset, build_locals, generate_ridge_synthetic, partition_homogeneous
from cnext.objective import (Objective, centralized_newton, logistic_objective,
                             ridge_closed_form_optimum)
from cnext.solver import (BASELINE_TOL, DivergenceError, HyperParams, MODE_CNEXT, MODE_FIRST_ORDER_GT,
                          MODE_UNCOMPRESSED_GIANT, SolverState, baseline_optimum, init_state,
                          measure_errors, newton_directions, run, step, tracking_gap,
                          warn_theory_violations)
from conftest import all_schemes, xy_streams, make_ridge, network_giant_reference


def test_single_agent_reduces_to_damped_newton(small_ridge):
    obj, _ = small_ridge
    obj1 = make_ridge(n_agents=1, p=4, N=12, lam=0.5, seed=2)
    net1 = metropolis_hastings_weights(build_ring(1))
    hp = HyperParams(eta=0.5, gamma=0.6, alpha_x=1.0, alpha_y=1.0, T=40)
    recs = run(obj1, net1, make_scheme("identity", 4), hp, MODE_UNCOMPRESSED_GIANT, seed=5)

    # independent scalar oracle: x <- x - eta H(x)^{-1} grad f(x)
    state0 = init_state(obj1, net1, hp, seed=5)
    x = state0.X[0].copy()
    oracle = [x.copy()]
    for _ in range(40):
        g = obj1.grad(x)  # one agent: the global function is agent 0's
        H = obj1.hess(x)
        x = x - hp.eta * np.linalg.solve(H, g)
        oracle.append(x.copy())
    x_star = ridge_closed_form_optimum(obj1)
    for rec, xo in zip(recs, oracle):
        assert rec.errors.opt == pytest.approx(float(np.sum((xo - x_star) ** 2)), rel=1e-9, abs=1e-12)

    # per-step linear factor <= (1 - eta mu / L)
    rate = 1.0 - hp.eta * obj1.mu / obj1.L
    errs = np.sqrt([r.errors.opt for r in recs])
    for a, b in zip(errs, errs[1:]):
        assert b <= rate * a * (1 + 1e-9) + 1e-14


def test_zero_steps_are_a_no_op(small_ridge):
    obj, net = small_ridge
    hp = HyperParams(eta=0.0, gamma=0.0, alpha_x=1.0, alpha_y=1.0, T=1)
    state = init_state(obj, net, hp, seed=3)
    X0, Y0 = state.X.copy(), state.Y.copy()
    scheme = make_scheme("identity", obj.p)
    step(state, obj, net, scheme, hp, MODE_CNEXT, xy_streams(3, net.n))
    assert np.array_equal(state.X, X0)
    assert np.array_equal(state.Y, Y0)


def test_tracking_preserved_for_every_scheme(small_ridge):
    obj, net = small_ridge
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=0.5, alpha_y=0.5, T=200)
    for scheme in all_schemes(obj.p):
        state = init_state(obj, net, hp, seed=11)
        rngs = xy_streams(11, net.n)
        for _ in range(hp.T):
            step(state, obj, net, scheme, hp, MODE_CNEXT, rngs)
            scale = max(1.0, float(np.linalg.norm(state.prev_grad.mean(axis=0))))
            assert tracking_gap(state) <= 1e-10 * scale, scheme.label()


def test_identity_matches_directly_coded_reference(small_ridge):
    obj, net = small_ridge
    hp = HyperParams(eta=0.003, gamma=0.6, alpha_x=1.0, alpha_y=1.0, T=120)
    state0 = init_state(obj, net, hp, seed=21)
    recs = run(obj, net, make_scheme("identity", obj.p), hp, MODE_CNEXT, seed=21, state0=state0)
    # operator-induced errors vanish under identity compression
    assert all(r.op_err_x <= 1e-20 and r.op_err_y <= 1e-20 for r in recs)

    xs = network_giant_reference(obj, net, hp, seed=21, state0=state0)
    state = state0.copy()
    rngs = xy_streams(21, net.n)
    scheme = make_scheme("identity", obj.p)
    for t in range(hp.T):
        step(state, obj, net, scheme, hp, MODE_CNEXT, rngs)
        ref = xs[t + 1]
        assert np.allclose(state.X, ref, rtol=1e-9, atol=1e-12)


def test_uncompressed_giant_is_identity_cnext(small_ridge):
    obj, net = small_ridge
    hp = HyperParams(eta=0.003, gamma=0.6, alpha_x=1.0, alpha_y=1.0, T=50)
    a = run(obj, net, make_scheme("identity", obj.p), hp, MODE_CNEXT, seed=4)
    b = run(obj, net, make_scheme("topk", obj.p, k=2), hp, MODE_UNCOMPRESSED_GIANT, seed=4)
    for ra, rb in zip(a, b):
        assert ra == rb  # same code path, bit-identical records


def test_seed_determinism(small_ridge):
    obj, net = small_ridge
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=0.5, alpha_y=0.5, T=60)
    scheme = make_scheme("randomk", obj.p, k=2)
    a = run(obj, net, scheme, hp, MODE_CNEXT, seed=42)
    b = run(obj, net, scheme, hp, MODE_CNEXT, seed=42)
    assert a == b
    c = run(obj, net, scheme, hp, MODE_CNEXT, seed=43)
    assert any(ra != rc for ra, rc in zip(a, c))


def _spawned(seed, *key):
    """The generator for spawn key `key` of `seed`, built apart from compress.substream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def test_initial_state_draws_from_spawn_key_2_0(small_ridge):
    obj, net = small_ridge
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=0.5, alpha_y=0.5, T=1)
    X0 = _spawned(11, 2, 0).uniform(size=(net.n, obj.p))
    assert np.array_equal(init_state(obj, net, hp, 11).X, X0)


def test_quantizer_round_draws_agent_i_from_spawn_keys_0_i_and_1_i(small_ridge, monkeypatch):
    # row i of a round's X stack encodes with (0, i), row i of its Y stack with (1, i)
    obj, net = small_ridge
    p, rounds = obj.p, []

    def spy(comp, Z, scheme, W, rngs):
        D = (Z - comp.H).reshape(-1, p)
        out = compress_round(comp, Z, scheme, W, rngs)
        rounds.append((D, out.Q.reshape(-1, p)))
        return out

    monkeypatch.setattr(solver, "compress_round", spy)
    scheme = make_scheme("qnbbq", p)
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=0.5, alpha_y=0.5, T=1)
    run(obj, net, scheme, hp, MODE_CNEXT, 11)
    (D, Q), = rounds
    keys = [(s, i) for s in (0, 1) for i in range(net.n)]
    assert np.array_equal(Q, _encode(scheme, D, [_spawned(11, *key) for key in keys]))
    assert not np.array_equal(Q, _encode(scheme, D, [_spawned(11, 1 - s, i) for s, i in keys]))


def test_newton_direction_deviation_bound(small_ridge):
    # || D - 1 dbar ||^2 <= ||Y||^2 / mu^2 at every round
    obj, net = small_ridge
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=0.5, alpha_y=0.5, T=80)
    scheme = make_scheme("qnbbq", obj.p, b=2)
    state = init_state(obj, net, hp, seed=9)
    rngs = xy_streams(9, net.n)
    for _ in range(hp.T):
        D = newton_directions(state.X, state.Y, obj)
        dbar = D.mean(axis=0)
        lhs = float(np.sum((D - dbar) ** 2))
        rhs = float(np.sum(state.Y ** 2)) / obj.mu ** 2
        assert lhs <= rhs * (1 + 1e-12)
        step(state, obj, net, scheme, hp, MODE_CNEXT, rngs)


def test_gradient_lipschitz_per_round(small_ridge):
    obj, net = small_ridge
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=0.5, alpha_y=0.5, T=80)
    scheme = make_scheme("randomk", obj.p, k=2)
    state = init_state(obj, net, hp, seed=13)
    rngs = xy_streams(13, net.n)
    for _ in range(hp.T):
        X_old, g_old = state.X.copy(), state.prev_grad.copy()
        step(state, obj, net, scheme, hp, MODE_CNEXT, rngs)
        dg = np.linalg.norm(state.prev_grad - g_old)
        dx = np.linalg.norm(state.X - X_old)
        assert dg <= obj.L * dx * (1 + 1e-12)


def test_measure_errors_at_consensus_optimum(small_ridge):
    obj, net = small_ridge
    x_star = ridge_closed_form_optimum(obj)
    X = np.tile(x_star, (net.n, 1))
    Y = obj.grad_stack(X)
    XY = np.stack([X, Y])
    state = SolverState(XY=XY, prev_grad=Y.copy(),
                        comp=CompressState(XY.copy(), net.W @ XY, np.ones((2, 1, 1))))
    ev = measure_errors(state, obj, x_star)
    assert ev.opt <= 1e-25
    assert ev.cons <= 1e-25
    assert ev.comp_x <= 1e-25
    assert ev.comp_y <= 1e-25
    assert ev.gt >= 0


def test_gt_error_direct_summation_oracle(small_ridge):
    obj, net = small_ridge
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=1.0, alpha_y=1.0, T=0)
    state = init_state(obj, net, hp, seed=33)
    x_star = ridge_closed_form_optimum(obj)
    ev = measure_errors(state, obj, x_star)
    g = obj.grad_stack(state.X)
    gbar = g.mean(axis=0)
    oracle = sum(float(np.sum((g[i] - gbar) ** 2)) for i in range(net.n))
    assert ev.gt == pytest.approx(oracle, rel=1e-12)
    arr = ev.as_array()
    assert np.all(arr >= 0) and np.all(np.isfinite(arr))


def test_divergence_is_reported(small_ridge):
    obj, net = small_ridge
    hp = HyperParams(eta=0.9, gamma=0.6, alpha_x=1.0, alpha_y=1.0, T=400)
    with pytest.raises(DivergenceError) as exc:
        run(obj, net, make_scheme("identity", obj.p), hp, MODE_FIRST_ORDER_GT, seed=1)
    assert exc.value.quantity in ("X", "Y", "error vector")
    assert exc.value.t >= 0


def test_t_zero_single_record(small_ridge):
    obj, net = small_ridge
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=1.0, alpha_y=1.0, T=0)
    recs = run(obj, net, make_scheme("identity", obj.p), hp, MODE_CNEXT, seed=2)
    assert len(recs) == 1
    assert recs[0].t == 0 and recs[0].bits_cum == 0


def test_ridge_rounds_make_no_pass_over_the_samples(small_ridge, monkeypatch):
    # the ridge residual reads no sample, so a run never evaluates f itself
    obj, net = small_ridge
    calls = []
    value = Objective.value
    monkeypatch.setattr(Objective, "value", lambda self, x: calls.append(x) or value(self, x))
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=1.0, alpha_y=1.0, T=20)
    recs = run(obj, net, make_scheme("identity", obj.p), hp, MODE_CNEXT, seed=2)
    assert len(recs) == hp.T + 1 and recs[-1].residual < recs[0].residual
    assert not calls


def test_tol_stops_early(small_ridge):
    obj, net = small_ridge
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=1.0, alpha_y=1.0, T=50, tol=1e9)
    recs = run(obj, net, make_scheme("identity", obj.p), hp, MODE_CNEXT, seed=2)
    assert len(recs) == 1  # stopping rule already met at t = 0


def test_bits_accumulate_per_round(small_ridge):
    obj, net = small_ridge
    scheme = make_scheme("qnormsigned", obj.p)
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=0.25, alpha_y=0.25, T=10)
    recs = run(obj, net, scheme, hp, MODE_CNEXT, seed=2)
    per_round = 2 * net.n * (obj.p + 32)
    for r in recs:
        assert r.bits_cum == r.t * per_round


def test_theory_violation_warnings(small_ridge):
    obj, net = small_ridge
    scheme = make_scheme("qnormsigned", obj.p)
    # qnormsigned has r delta = p (1/p) = 1, so the theory admits alpha up to 1
    hp = HyperParams(eta=10.0, gamma=0.6, alpha_x=1.5, alpha_y=1.0, T=1)
    with pytest.warns(UserWarning):
        msgs = warn_theory_violations(hp, obj, scheme)
    assert len(msgs) == 2  # eta cap and alpha r delta > 1
    assert warn_theory_violations(dataclasses.replace(hp, eta=1e-3, alpha_x=1.0), obj, scheme) == []


def test_numerical_failure_names_agent_and_round():
    from cnext.objective import logistic_objective
    from cnext.solver import NumericalError

    rng = np.random.default_rng(5)
    A = np.stack([np.zeros((12, 3)) if i == 2 else rng.standard_normal((12, 3)) for i in range(4)])
    obj = logistic_objective((A, np.ones((4, 12))), 0.1)
    # agent 2 has no curvature but the regularizer's, so a negative one leaves its
    # Hessian indefinite while the other agents' stay SPD
    obj.lam = -1e-3
    with pytest.raises(NumericalError) as exc:
        newton_directions(np.zeros((4, 3)), np.ones((4, 3)), obj, t=7)
    assert exc.value.agent == 2
    assert exc.value.t == 7


@pytest.mark.parametrize("mode", [MODE_CNEXT, MODE_FIRST_ORDER_GT, MODE_UNCOMPRESSED_GIANT])
def test_cached_curvature_gives_the_hessians_at_x(small_logistic, mode, monkeypatch):
    # the curvature weights kept from the gradient refresh must give, bit for bit, the
    # directions of Hessians formed afresh from X
    obj = small_logistic
    net = metropolis_hastings_weights(build_ring(obj.n))
    scheme = make_scheme("identity" if mode == MODE_UNCOMPRESSED_GIANT else "qnbbq", obj.p, b=2)
    hp = HyperParams(eta=0.1, gamma=0.35, alpha_x=0.5, alpha_y=0.5, T=8)
    directions = []

    def recorded(X, Y, obj_, t=0, W=None):
        D = newton_directions(X, Y, obj_, t, W)
        directions.append((D, obj_.hess_solve(X, Y)))
        return D

    monkeypatch.setattr(solver, "newton_directions", recorded)
    state = init_state(obj, net, hp, seed=3)
    rngs = xy_streams(3, net.n)
    for _ in range(hp.T):
        step(state, obj, net, scheme, hp, mode, rngs)
    assert len(directions) == (0 if mode == MODE_FIRST_ORDER_GT else hp.T)
    for D, fresh in directions:
        assert D.tobytes() == fresh.tobytes()


def test_logistic_run_is_byte_deterministic_across_thread_counts():
    script = (
        "import sys\n"
        "from conftest import make_logistic\n"
        "from cnext.cli import records_to_csv\n"
        "from cnext.compress import make_scheme\n"
        "from cnext.graph import build_ring, metropolis_hastings_weights\n"
        "from cnext.solver import HyperParams, MODES, run\n"
        "obj = make_logistic(m=1000, p=10)\n"
        "net = metropolis_hastings_weights(build_ring(obj.n))\n"
        "scheme = make_scheme('qnbbq', obj.p, b=2)\n"
        "hp = HyperParams(eta=0.1, gamma=0.35, alpha_x=0.5, alpha_y=0.5, T=40)\n"
        "for mode in MODES:\n"
        "    sys.stdout.write(records_to_csv(run(obj, net, scheme, hp, mode, seed=3)))\n"
    )
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), str(root / "tests"),
                                         os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 3 * 42


def test_first_order_mode_uses_raw_tracker(small_ridge):
    obj, net = small_ridge
    hp = HyperParams(eta=1e-3, gamma=0.6, alpha_x=1.0, alpha_y=1.0, T=1)
    state = init_state(obj, net, hp, seed=6)
    X0, Y0 = state.X.copy(), state.Y.copy()
    scheme = make_scheme("identity", obj.p)
    step(state, obj, net, scheme, hp, MODE_FIRST_ORDER_GT, xy_streams(6, net.n))
    Wt = (1 - hp.gamma) * np.eye(net.n) + hp.gamma * net.W
    expected = Wt @ X0 - hp.eta * Y0
    assert np.allclose(state.X, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("mode", [MODE_CNEXT, MODE_UNCOMPRESSED_GIANT])
def test_logistic_runs_reach_centralized_optimum(small_logistic, mode):
    obj = small_logistic
    net = metropolis_hastings_weights(build_ring(obj.n))
    x_star, _ = centralized_newton(obj, np.zeros(obj.p), tol=1e-12)
    scheme = make_scheme("qnbbq" if mode == MODE_CNEXT else "identity", obj.p, b=2)
    hp = HyperParams(eta=0.1, gamma=0.35, alpha_x=0.5, alpha_y=0.5, T=300)
    state = init_state(obj, net, hp, seed=3)
    rngs = xy_streams(3, net.n)
    for _ in range(hp.T):
        step(state, obj, net, scheme, hp, mode, rngs)
        scale = max(1.0, float(np.linalg.norm(state.prev_grad.mean(axis=0))))
        assert tracking_gap(state) <= 1e-10 * scale
    assert measure_errors(state, obj, x_star).opt <= 1e-20
    assert np.max(np.abs(state.X - x_star)) <= 1e-9


def _sign_logistic(seed):
    """+-1 labels over 25000 noisy linear scores, 2000 training samples on each of 10 agents."""
    ds = generate_ridge_synthetic(25000, 10, seed, noise_std=1.5)
    ds = Dataset(U=ds.U, v=np.where(ds.v >= 0.0, 1.0, -1.0), train_idx=np.arange(20000),
                 test_idx=np.arange(20000, 25000), provenance="sign of " + ds.provenance)
    return logistic_objective(build_locals(ds, partition_homogeneous(ds, 10, seed)), 0.1)


@pytest.mark.parametrize("seed", [12, 18])
def test_logistic_baseline_reaches_its_tolerance(seed):
    # on these seeds the damped Newton baseline once stalled above ||grad|| = 1e-12
    obj = _sign_logistic(seed)
    x = baseline_optimum(obj)
    assert np.linalg.norm(obj.grad(x)) <= BASELINE_TOL


def test_centralized_newton_passes_the_roundoff_floor():
    # seed 18 is where the Armijo test without a roundoff allowance stalled worst, at
    # ||grad|| = 6.3e-11: every step backtracked to t < 1e-14
    obj = _sign_logistic(18)
    x, _ = centralized_newton(obj, np.zeros(obj.p), tol=1e-12, max_iter=500)
    assert np.linalg.norm(obj.grad(x)) <= 1e-12


@pytest.fixture(scope="module")
def expander256():
    """256 agents on a degree-6 circulant: W has fill 7/256, so it mixes through CSR."""
    obj = make_ridge(n_agents=256, p=4, N=1280, lam=0.5, seed=7)
    net = metropolis_hastings_weights(build_circulant_expander(256, 6))
    assert sparse.issparse(net.mix)
    return obj, net


def _trace_columns(records):
    """The float columns of trace.csv, one row per round."""
    return np.array([[r.errors.opt, r.errors.cons, r.errors.gt, r.errors.comp_x, r.errors.comp_y,
                      r.residual] for r in records])


@pytest.mark.parametrize("kind", ["identity", "randomk"])
def test_csr_mixing_matches_dense(expander256, kind):
    # identity has no decision and Random-k's mask reads only the uniforms, so neither
    # turns the roundoff between the two products into a different encoding
    obj, net = expander256
    dense = dataclasses.replace(net, mix=net.W)
    scheme = make_scheme(kind, obj.p, k=2)
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=0.5, alpha_y=0.5, T=30)
    a = run(obj, net, scheme, hp, MODE_CNEXT, seed=5)
    b = run(obj, dense, scheme, hp, MODE_CNEXT, seed=5)
    assert [r.bits_cum for r in a] == [r.bits_cum for r in b]
    ca, cb = _trace_columns(a), _trace_columns(b)
    for col in range(ca.shape[1]):
        assert np.allclose(ca[:, col], cb[:, col], rtol=1e-12, atol=0), col


def test_memory_identity_on_the_csr_path(expander256):
    obj, net = expander256
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=0.5, alpha_y=0.5, T=40)
    scheme = make_scheme("qnbbq", obj.p, b=2)
    state = init_state(obj, net, hp, seed=8)
    rngs = xy_streams(8, net.n)
    for _ in range(hp.T + 1):
        for comp in (state.comp_x, state.comp_y):
            assert isinstance(comp.Hw, np.ndarray)
            gap = np.linalg.norm(comp.Hw - net.W @ comp.H)
            assert gap <= 1e-10 * max(np.linalg.norm(comp.H), 1.0)
        step(state, obj, net, scheme, hp, MODE_CNEXT, rngs)


def test_run_builds_agent_streams_only_for_schemes_that_draw(small_ridge, monkeypatch):
    import cnext.solver as solver_mod

    obj, net = small_ridge
    built = []

    def counting_streams(seed, stream, n):
        built.append(stream)
        return agent_streams(seed, stream, n)

    monkeypatch.setattr(solver_mod, "agent_streams", counting_streams)
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=0.5, alpha_y=0.5, T=3)
    for scheme in all_schemes(obj.p):
        built.clear()
        run(obj, net, scheme, hp, MODE_CNEXT, seed=1)
        assert built == ([0, 1] if scheme.kind in ("qnbbq", "randomk") else []), scheme.kind


def test_uncompressed_mode_refuses_a_compressing_scheme(small_ridge):
    # the uncompressed mode sends full vectors; a compressing scheme would be charged
    # and applied as if the mode compressed, so step refuses it before touching the state
    obj, net = small_ridge
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=1.0, alpha_y=1.0, T=1)
    for scheme in all_schemes(obj.p):
        state = init_state(obj, net, hp, seed=4)
        XY0, H0 = state.XY.copy(), state.comp.H.copy()
        if scheme.kind == "identity":
            assert step(state, obj, net, scheme, hp, MODE_UNCOMPRESSED_GIANT, None).bits == \
                2 * net.n * 64 * obj.p
            continue
        with pytest.raises(ValueError, match="uncompressed"):
            step(state, obj, net, scheme, hp, MODE_UNCOMPRESSED_GIANT, xy_streams(4, net.n))
        assert state.t == 0 and state.bits_cum == 0
        assert np.array_equal(state.XY, XY0) and np.array_equal(state.comp.H, H0)


@pytest.mark.parametrize("graph", ["ring10", "expander256"])
def test_stacked_round_matches_per_stream_rounds(graph, request):
    # 30 stacked rounds equal, bit for bit, rounds that compress X and Y in two
    # single-stream calls, each with its own memories and generators (dense W on the desk
    # ring, CSR on the expander)
    if graph == "ring10":
        obj, net, _ = request.getfixturevalue("ridge10")
    else:
        obj, net = request.getfixturevalue("expander256")
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=0.5, alpha_y=0.7, T=30)
    for scheme in all_schemes(obj.p):
        state = init_state(obj, net, hp, seed=6)
        X, Y, g = state.X.copy(), state.Y.copy(), state.prev_grad.copy()
        cx = CompressState.init(state.comp.H[0], net.mix, hp.alpha_x)
        cy = CompressState.init(state.comp.H[1], net.mix, hp.alpha_y)
        rngs, rx, ry = xy_streams(6, net.n), agent_streams(6, 0, net.n), agent_streams(6, 1, net.n)
        for _ in range(hp.T):
            step(state, obj, net, scheme, hp, MODE_CNEXT, rngs)
            out_x = compress_round(cx, X, scheme, net.mix, rx)
            out_y = compress_round(cy, Y, scheme, net.mix, ry)
            D = newton_directions(X, Y, obj)
            X = X - hp.gamma * (out_x.Zhat - out_x.Zhat_w) - hp.eta * D
            g_new = obj.grad_stack(X)
            Y = Y - hp.gamma * (out_y.Zhat - out_y.Zhat_w) + g_new - g
            g = g_new
            for got, want in ((state.X, X), (state.Y, Y), (state.comp_x.H, cx.H),
                              (state.comp_y.H, cy.H), (state.comp_x.Hw, cx.Hw),
                              (state.comp_y.Hw, cy.Hw)):
                assert np.array_equal(got, want), scheme.label()
        assert state.bits_cum == hp.T * (out_x.bits + out_y.bits)


@pytest.mark.parametrize("kind", ["qnbbq", "topk"])
def test_measure_errors_equals_the_five_sums(ridge10, kind):
    # on a mid-run state, with or without the means passed in, each error is the sum
    # the plain per-stream formula gives, bit for bit
    obj, net, x_star = ridge10
    hp = HyperParams(eta=0.006, gamma=0.6, alpha_x=0.5, alpha_y=0.5, T=25)
    scheme = make_scheme(kind, obj.p, b=2, k=3)
    state = init_state(obj, net, hp, seed=2)
    rngs = xy_streams(2, net.n)
    for _ in range(hp.T):
        step(state, obj, net, scheme, hp, MODE_CNEXT, rngs)
    X, Y = state.X, state.Y
    xbar, ybar = X.mean(axis=0), Y.mean(axis=0)
    expected = (float(np.sum((xbar - x_star) ** 2)), float(np.sum((X - xbar) ** 2)),
                float(np.sum((Y - ybar) ** 2)), float(np.sum((X - state.comp_x.H) ** 2)),
                float(np.sum((Y - state.comp_y.H) ** 2)))
    assert tuple(measure_errors(state, obj, x_star).as_array()) == expected
    assert tuple(measure_errors(state, obj, x_star, state.means).as_array()) == expected
