import dataclasses
import os
import re
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from cnext import solver
from cnext.compress import (DRAW_BUDGET, STREAM_X, STREAM_Y, CompressState, _encode, agent_streams,
                            compress_round, make_scheme)
from cnext.config import RIDGE_DEFAULTS, RIDGE_TUNED
from cnext.graph import build_circulant_expander, build_ring, metropolis_hastings_weights
from cnext.objective import (Objective, centralized_newton, logistic_objective,
                             ridge_closed_form_optimum)
from cnext.solver import (BASELINE_TOL, DivergenceError, HyperParams, MODE_CNEXT, MODE_FIRST_ORDER_GT,
                          MODE_UNCOMPRESSED_GIANT, MODES, NumericalError, SolverState, baseline_optimum, init_state,
                          newton_directions, run, step)
from cnext.theory import warn_theory_violations
from conftest import (all_schemes, grad, hess, make_ridge, make_sign_logistic, means,
                      measure_errors, memory, network_giant_reference, tracking_gap, xy_streams)


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
        g = grad(obj1, x)  # one agent: the global function is agent 0's
        H = hess(obj1, x)
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
    ev = measure_errors(state, x_star)
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
    ev = measure_errors(state, x_star)
    g = obj.grad_stack(state.X)
    gbar = g.mean(axis=0)
    oracle = sum(float(np.sum((g[i] - gbar) ** 2)) for i in range(net.n))
    assert ev.gt == pytest.approx(oracle, rel=1e-12)
    arr = np.array(ev)
    assert np.all(arr >= 0) and np.all(np.isfinite(arr))


def test_divergence_is_reported(small_ridge):
    obj, net = small_ridge
    hp = HyperParams(eta=0.9, gamma=0.6, alpha_x=1.0, alpha_y=1.0, T=400)
    with pytest.raises(DivergenceError) as exc:
        run(obj, net, make_scheme("identity", obj.p), hp, MODE_FIRST_ORDER_GT, seed=1)
    assert exc.value.quantity in ("X", "Y", "error vector")
    assert exc.value.t >= 0


@pytest.mark.parametrize("mode, poisoned, quantity", [(MODE_CNEXT, "direction", "X"),
                                                        (MODE_CNEXT, "prev_grad", "Y"),
                                                        (MODE_FIRST_ORDER_GT, "prev_grad", "Y")])
def test_step_names_the_stream_that_went_non_finite(small_ridge, monkeypatch, mode, poisoned,
                                                    quantity):
    # an inf in the Newton direction reaches X; one in the cached gradient reaches Y alone.
    # Either raises at the round that made it, and leaves the state as it was
    obj, net = small_ridge
    scheme = make_scheme("qnbbq", obj.p, b=2)
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=0.5, alpha_y=0.5, T=5)
    state, rngs = init_state(obj, net, hp, seed=4), xy_streams(4, net.n)

    def poisoned_directions(X, Y, obj_, t=0, W=None):
        D = newton_directions(X, Y, obj_, t, W)
        D[1, 2] = np.inf if t == 3 else D[1, 2]
        return D

    if poisoned == "direction":
        monkeypatch.setattr(solver, "newton_directions", poisoned_directions)
    for _ in range(3):
        step(state, obj, net, scheme, hp, mode, rngs)
    if poisoned == "prev_grad":
        state.prev_grad[1, 2] = np.inf
    before = state.copy()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as exc:
        step(state, obj, net, scheme, hp, mode, rngs)
    assert (exc.value.quantity, exc.value.t) == (quantity, 3)
    assert state.t == 3 and state.bits_cum == before.bits_cum
    assert np.array_equal(state.XY, before.XY) and np.array_equal(state.prev_grad, before.prev_grad)


def test_step_names_x_when_a_large_step_overflows_it(small_ridge):
    obj, net = small_ridge
    hp = HyperParams(eta=1e308, gamma=0.6, alpha_x=1.0, alpha_y=1.0, T=1)
    state = init_state(obj, net, hp, seed=2)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as exc:
        step(state, obj, net, make_scheme("identity", obj.p), hp, MODE_FIRST_ORDER_GT, None)
    assert (exc.value.quantity, exc.value.t) == ("X", 0)


@pytest.mark.parametrize("T", [2.5, 3.0, True, np.float64(4.0)])
def test_hyperparams_refuse_a_round_count_that_is_not_an_integer(T):
    with pytest.raises(ValueError, match="T must be an integer"):
        HyperParams(eta=0.002, gamma=0.6, alpha_x=1.0, alpha_y=1.0, T=T)


@pytest.mark.parametrize("values, message", [
    ({"gamma": -0.1}, "gamma must lie in [0, 1], got -0.1"),
    ({"gamma": 1.5}, "gamma must lie in [0, 1], got 1.5"),
    ({"T": -1}, "T and tol must be nonnegative"),
    ({"tol": -1e-3}, "T and tol must be nonnegative"),
], ids=["gamma-below-0", "gamma-above-1", "T-negative", "tol-negative"])
def test_hyperparams_refuse_values_outside_their_ranges(values, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        HyperParams(**{"eta": 0.002, "gamma": 0.6, "alpha_x": 1.0, "alpha_y": 1.0, "T": 3, **values})


@pytest.mark.parametrize("T", [3, np.int64(3), np.int32(3)])
def test_hyperparams_take_python_and_numpy_integers(small_ridge, T):
    obj, net = small_ridge
    hp = HyperParams(eta=0.002, gamma=0.6, alpha_x=1.0, alpha_y=1.0, T=T)
    assert len(run(obj, net, make_scheme("identity", obj.p), hp, MODE_CNEXT, seed=2)) == 4


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
    assert measure_errors(state, x_star).opt <= 1e-20
    assert np.max(np.abs(state.X - x_star)) <= 1e-9


def test_accuracy_counts_the_correct_signs(small_logistic):
    # the record's accuracy is a count over the label mask v > 0, the same float as the
    # mean of the correct +-1 predictions, and a Python float; a score of exactly 0 is +1
    obj = small_logistic
    net = metropolis_hastings_weights(build_ring(obj.n))
    scheme = make_scheme("qnbbq", obj.p, b=2)
    hp = HyperParams(eta=0.1, gamma=0.35, alpha_x=0.5, alpha_y=0.5, T=6)
    rng = np.random.default_rng(9)
    U = rng.standard_normal((5001, obj.p))
    U[0] = 0.0
    v = np.where(U @ rng.standard_normal(obj.p) + rng.standard_normal(5001) >= 0.0, 1.0, -1.0)
    v[0] = 1.0
    x_star = baseline_optimum(obj)
    residual = obj.residual_fn(x_star)
    state, rngs, expected = init_state(obj, net, hp, seed=3), xy_streams(3, net.n), []
    for _ in range(hp.T + 1):
        xbar = means(state)[0]
        acc = _record(state, x_star, residual, (U, v > 0)).accuracy
        assert type(acc) is float
        assert acc == float(np.mean(np.where(U @ xbar >= 0.0, 1.0, -1.0) == v))
        assert _record(state, x_star, residual, (U[:1], v[:1] > 0)).accuracy == 1.0
        expected.append(acc)
        step(state, obj, net, scheme, hp, MODE_CNEXT, rngs)
    records = run(obj, net, scheme, hp, MODE_CNEXT, seed=3, x_star=x_star, test_data=(U, v))
    assert [rec.accuracy for rec in records] == expected


@pytest.mark.parametrize("bad", [0.0, 2.0, np.nan])
def test_run_rejects_test_labels_outside_plus_minus_one(small_logistic, bad):
    # the count equals the mean of correct predictions only for +-1 labels
    obj = small_logistic
    net = metropolis_hastings_weights(build_ring(obj.n))
    hp = HyperParams(eta=0.1, gamma=0.35, alpha_x=0.5, alpha_y=0.5, T=1)
    v = np.array([1.0, -1.0, bad])
    with pytest.raises(ValueError, match="test labels"):
        run(obj, net, make_scheme("identity", obj.p), hp, MODE_CNEXT, seed=3,
            test_data=(np.ones((3, obj.p)), v))


@pytest.mark.parametrize("seed", [12, 18])
def test_logistic_baseline_reaches_its_tolerance(seed):
    # on these seeds the damped Newton baseline once stalled above ||grad|| = 1e-12
    obj = make_sign_logistic(seed)
    x = baseline_optimum(obj)
    assert np.linalg.norm(grad(obj, x)) <= BASELINE_TOL


def test_centralized_newton_passes_the_roundoff_floor():
    # seed 18 is where the Armijo test without a roundoff allowance stalled worst, at
    # ||grad|| = 6.3e-11: every step backtracked to t < 1e-14
    obj = make_sign_logistic(18)
    x, _ = centralized_newton(obj, np.zeros(obj.p), tol=1e-12, max_iter=500)
    assert np.linalg.norm(grad(obj, x)) <= 1e-12


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
        for comp in (memory(state, 0), memory(state, 1)):
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
            step(state, obj, net, scheme, hp, MODE_UNCOMPRESSED_GIANT, None)
            assert state.bits_cum == 2 * net.n * 64 * obj.p
            continue
        with pytest.raises(ValueError, match="uncompressed"):
            step(state, obj, net, scheme, hp, MODE_UNCOMPRESSED_GIANT, xy_streams(4, net.n))
        with pytest.raises(ValueError, match="unknown mode 'giant'"):
            step(state, obj, net, scheme, hp, "giant", xy_streams(4, net.n))
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
        rngs = xy_streams(6, net.n)
        rx, ry = agent_streams(6, STREAM_X, net.n), agent_streams(6, STREAM_Y, net.n)
        for _ in range(hp.T):
            step(state, obj, net, scheme, hp, MODE_CNEXT, rngs)
            out_x = compress_round(cx, X, scheme, net.mix, rx)
            out_y = compress_round(cy, Y, scheme, net.mix, ry)
            D = newton_directions(X, Y, obj)
            X = X - hp.gamma * (out_x.Zhat - out_x.Zhat_w) - hp.eta * D
            g_new = obj.grad_stack(X)
            Y = Y - hp.gamma * (out_y.Zhat - out_y.Zhat_w) + g_new - g
            g = g_new
            mx, my = memory(state, 0), memory(state, 1)
            for got, want in ((state.X, X), (state.Y, Y), (mx.H, cx.H), (my.H, cy.H),
                              (mx.Hw, cx.Hw), (my.Hw, cy.Hw)):
                assert np.array_equal(got, want), scheme.label()
        assert state.bits_cum == hp.T * (out_x.bits + out_y.bits)


@pytest.mark.parametrize("kind", ["qnbbq", "topk"])
def test_measure_errors_equals_the_five_sums(ridge10, kind):
    # on a mid-run state each error is the sum the plain per-stream formula gives, bit
    # for bit
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
                float(np.sum((Y - ybar) ** 2)), float(np.sum((X - state.comp.H[0]) ** 2)),
                float(np.sum((Y - state.comp.H[1]) ** 2)))
    assert measure_errors(state, x_star) == expected


def _desk_hp(kind, T, tol=0.0):
    """The desk run's hyperparameters for `kind`: its tuned eta and alpha, at the ridge gamma."""
    tuned = RIDGE_TUNED[kind]
    return HyperParams(eta=tuned["eta"], gamma=RIDGE_DEFAULTS["gamma"], alpha_x=tuned["alpha"],
                       alpha_y=tuned["alpha"], T=T, tol=tol)


def _record(state, x_star, residual, test_data=None, op_err=(0.0, 0.0)):
    """The record of `state` formed round by round, from public calls: measure_errors,
    the residual at xbar and, for test data (U, v > 0), the count of correct signs."""
    xbar = means(state)[0]
    acc = None
    if test_data is not None:
        U, pos = test_data
        acc = int(np.count_nonzero((U @ xbar >= 0.0) == pos)) / pos.size
    return solver.RoundRecord(state.t, state.bits_cum, measure_errors(state, x_star),
                              residual(xbar[None])[0], acc, *op_err)


def _oracle_run(obj, net, scheme, hp, mode, seed, x_star, test_data=None):
    """`run`'s records from a loop that measures each round as it ends, through public
    calls (`solver.step`, drawing from plain per-agent lists, and `_record`), and the
    mean-gradient norm that the tol reads before each round. Raises as `run` raises."""
    if test_data is not None:
        U, v = test_data
        test_data = U, v > 0
    scheme = solver.mode_scheme(mode, scheme)
    state = init_state(obj, net, hp, seed)
    rngs = xy_streams(seed, net.n)
    residual = obj.residual_fn(x_star)
    records = [_record(state, x_star, residual, test_data)]
    norms = [float(np.linalg.norm(state.prev_grad.mean(axis=0)))]
    e0 = sum(records[0].errors)
    limit = solver.GROWTH_LIMIT * e0 if e0 > 0 else np.inf
    for _ in range(hp.T):
        if hp.tol > 0 and norms[-1] <= hp.tol:
            break
        op_err = solver.step(state, obj, net, scheme, hp, mode, rngs)
        rec = _record(state, x_star, residual, test_data, op_err)
        if (total := sum(rec.errors)) > limit:
            raise DivergenceError("error vector", rec.t,
                                  f"error vector sum {total:.3g} exceeds "
                                  f"{solver.GROWTH_LIMIT:g} times its t = 0 value {e0:.3g}")
        records.append(rec)
        norms.append(float(np.linalg.norm(state.prev_grad.mean(axis=0))))
    return records, norms


def _as_bytes(records):
    """Every field of every record, each float as its exact hex, so that equal lists mean
    equal bytes (and -0.0 differs from 0.0); the numbers must be Python ints and floats."""
    rows = []
    for r in records:
        floats = (*r.errors, r.residual, r.op_err_x, r.op_err_y)
        floats += () if r.accuracy is None else (r.accuracy,)
        assert type(r.t) is int and type(r.bits_cum) is int
        assert all(type(f) is float for f in floats)
        rows.append((r.t, r.bits_cum, r.accuracy is None, *map(float.hex, floats)))
    return rows


def _error_block(obj, net):
    """The rounds `run` measures in one block."""
    return solver.ERROR_BUDGET // (4 * net.n * obj.p * 8)


@pytest.mark.parametrize("alphas", [(0.25, 0.25), (0.25, 0.4)])
@pytest.mark.parametrize("kind", ["identity", "qnbbq", "randomk", "topk", "qnormsigned"])
def test_run_records_equal_the_round_by_round_loop(ridge10, kind, alphas):
    # the records of blocked error norms are those of a per-round loop, byte for byte,
    # operator errors included, whether T + 1 records fill whole blocks (2B - 1), T is a
    # multiple of the block (2B), neither (B + 7), T is under a block (B // 2) or 0, and
    # with alpha one float (equal) or one per stream
    obj, net, x_star = ridge10
    B = _error_block(obj, net)
    assert B == 40
    scheme = make_scheme(kind, obj.p, b=2, k=5)
    for T in (2 * B - 1, 2 * B, B + 7, B // 2, 0):
        hp = HyperParams(eta=0.006, gamma=0.6, alpha_x=alphas[0], alpha_y=alphas[1], T=T)
        expected = _as_bytes(_oracle_run(obj, net, scheme, hp, MODE_CNEXT, 3, x_star)[0])
        assert len(expected) == T + 1
        assert _as_bytes(run(obj, net, scheme, hp, MODE_CNEXT, 3, x_star=x_star)) == expected, T


@pytest.mark.parametrize("mode", [MODE_CNEXT, MODE_FIRST_ORDER_GT, MODE_UNCOMPRESSED_GIANT])
def test_logistic_run_records_equal_the_round_by_round_loop(small_logistic, mode, monkeypatch):
    # accuracy included; in one block, and in blocks of 7 rounds that T = 30 does not fill
    obj = small_logistic
    net = metropolis_hastings_weights(build_ring(obj.n))
    scheme = make_scheme("qnbbq", obj.p, b=2)
    rng = np.random.default_rng(4)
    U = rng.standard_normal((301, obj.p))
    v = np.where(U @ rng.standard_normal(obj.p) >= 0.0, 1.0, -1.0)
    hp = HyperParams(eta=0.1, gamma=0.35, alpha_x=0.5, alpha_y=0.5, T=30)
    x_star = baseline_optimum(obj)
    expected = _as_bytes(_oracle_run(obj, net, scheme, hp, mode, 3, x_star, (U, v))[0])
    assert _error_block(obj, net) > hp.T
    assert _as_bytes(run(obj, net, scheme, hp, mode, 3, x_star=x_star, test_data=(U, v))) == expected
    monkeypatch.setattr(solver, "ERROR_BUDGET", 7 * 4 * obj.n * obj.p * 8)
    assert _error_block(obj, net) == 7
    assert _as_bytes(run(obj, net, scheme, hp, mode, 3, x_star=x_star, test_data=(U, v))) == expected


def _raised(fn):
    with pytest.raises(Exception) as exc:
        fn()
    e = exc.value
    return type(e), getattr(e, "quantity", None), getattr(e, "t", None), str(e)


@pytest.fixture(scope="module")
def ridge_compare():
    """configs/ridge_compare.json's instance and its first-order variant at eta = 2e-3,
    whose error vector sum passes GROWTH_LIMIT times its t = 0 value at t = 73."""
    from cnext.cli import Experiment
    from cnext.config import load_config

    exp = Experiment(load_config(str(Path(__file__).resolve().parents[1] / "configs" /
                                     "ridge_compare.json")))
    hp = dataclasses.replace(exp.cfg.hyperparams, eta=2e-3)
    return exp.obj, exp.net, exp.scheme, hp, exp.x_star


def _both_raise(ridge_compare, mode=MODE_FIRST_ORDER_GT, **changes):
    obj, net, scheme, hp, x_star = ridge_compare
    hp = dataclasses.replace(hp, **changes)
    blocked = _raised(lambda: run(obj, net, scheme, hp, mode, 42, x_star=x_star))
    assert blocked == _raised(lambda: _oracle_run(obj, net, scheme, hp, mode, 42, x_star))
    return blocked


def test_divergence_past_the_growth_limit_is_the_loops(ridge_compare):
    assert _both_raise(ridge_compare)[:3] == (DivergenceError, "error vector", 73)


def _step_raising_at(t_bad):
    """`solver.step`, except that the step of round t_bad raises as a non-finite X does."""
    real = solver.step

    def stepped(state, *args):
        if state.t == t_bad:
            raise DivergenceError("X", state.t)
        return real(state, *args)
    return stepped


def test_a_buffered_round_over_the_limit_beats_a_later_step_error(ridge_compare, monkeypatch):
    # round 73 passes the growth limit, and round 75's step raises in the same block
    obj, net = ridge_compare[:2]
    B = _error_block(obj, net)
    assert 73 // B == 76 // B
    monkeypatch.setattr(solver, "step", _step_raising_at(75))
    assert _both_raise(ridge_compare)[:3] == (DivergenceError, "error vector", 73)
    monkeypatch.setattr(solver, "step", _step_raising_at(50))  # before round 73: the step's
    assert _both_raise(ridge_compare)[:3] == (DivergenceError, "X", 50)


def test_a_non_finite_error_vector_is_the_loops(ridge_compare, monkeypatch):
    # round 6's memories are scaled past the square root of the largest double, so its
    # comp errors overflow while the state stays finite; the run steps on in the block
    real = solver.step

    def stepped(state, *args):
        out = real(state, *args)
        if state.t == 6:
            state.comp.H *= 1e300
        return out
    monkeypatch.setattr(solver, "step", stepped)
    got = _both_raise(ridge_compare, eta=2e-4)
    assert got[:3] == (DivergenceError, "error vector", 6)
    assert got[3].endswith("non-finite entries in error vector")


@pytest.mark.parametrize("kind", ["qnbbq", "randomk"])
def test_run_draws_in_blocks_what_step_draws_from_lists(ridge10, kind):
    # on the desk ring a run's blocks hold 655 rounds, so T = 1000 ends mid-block
    obj, net, x_star = ridge10
    scheme = make_scheme(kind, obj.p, b=2, k=5)
    hp = _desk_hp(kind, 1000)
    B = DRAW_BUDGET // (2 * net.n * obj.p * 8)
    assert 1 < B < hp.T and hp.T % B
    assert run(obj, net, scheme, hp, MODE_CNEXT, 4, x_star=x_star) == \
        _oracle_run(obj, net, scheme, hp, MODE_CNEXT, 4, x_star)[0]


def test_run_stopped_by_tol_equals_the_replay(ridge10):
    # the tol picks a stop mid-block, of the draws and of the error norms; neither the
    # generators' read-ahead nor the rounds measured at once change a record's bytes
    obj, net, x_star = ridge10
    scheme = make_scheme("qnbbq", obj.p, b=2)
    records, norms = _oracle_run(obj, net, scheme, _desk_hp("qnbbq", 300), MODE_CNEXT, 4, x_star)
    tol = norms[250]
    stop = next(t for t, g in enumerate(norms) if g <= tol)
    hp = _desk_hp("qnbbq", 5000, tol)
    B = DRAW_BUDGET // (2 * net.n * obj.p * 8)
    assert 0 < stop < B and (stop + 1) % _error_block(obj, net)
    assert _as_bytes(run(obj, net, scheme, hp, MODE_CNEXT, 4, x_star=x_star)) == \
        _as_bytes(records[:stop + 1])


def test_run_calls_each_generator_once_per_block(ridge10, monkeypatch):
    # a desk random-k run calls Generator.random 2n times per block of B rounds, where
    # per-round lists call it 2n times a round; the trace does not change
    obj, net, x_star = ridge10
    calls = []

    class Counted:
        def __init__(self, g):
            self.g = g

        def random(self, *args, **kwargs):
            calls.append(1)
            return self.g.random(*args, **kwargs)

    scheme = make_scheme("randomk", obj.p, k=5)
    hp = _desk_hp("randomk", 1500)
    plain = run(obj, net, scheme, hp, MODE_CNEXT, 1, x_star=x_star)
    monkeypatch.setattr(solver, "agent_streams",
                        lambda seed, stream, n: [Counted(g) for g in agent_streams(seed, stream, n)])
    assert run(obj, net, scheme, hp, MODE_CNEXT, 1, x_star=x_star) == plain
    B = min(DRAW_BUDGET // (2 * net.n * obj.p * 8), hp.T)
    assert len(calls) == 2 * net.n * -(-hp.T // B) < 2 * net.n * hp.T


# A logistic run of n m >= SCORE_MIN_SAMPLES samples, on a process that may use two CPUs,
# scores each block (its residuals and accuracies) on a helper thread. The tests below
# take either path by patching `solver.cpus` and the floor, and count the helper's tasks.

@pytest.fixture
def helpers(monkeypatch):
    """The executors `run` makes, each counting the tasks submitted to it. They are held
    here, so a thread that `run` left unjoined stays alive and is counted."""
    made = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.tasks = 0
            made.append(self)

        def submit(self, *args, **kwargs):
            self.tasks += 1
            return super().submit(*args, **kwargs)
    monkeypatch.setattr(solver, "ThreadPoolExecutor", Counted)
    yield made
    for executor in made:
        executor.shutdown()


def _scores_on_helper(monkeypatch, on):
    """Take the helper path (on) or the serial one, whatever the run's size."""
    monkeypatch.setattr(solver, "cpus", lambda: 2 if on else 1)
    monkeypatch.setattr(solver, "SCORE_MIN_SAMPLES", 0)


def _logistic_blocks_of_7(obj, monkeypatch):
    """The run's net, scheme, x* and test set, with its error blocks cut to 7 rounds.
    The test set's last row is so large that its score U xbar overflows at t = 0, where
    xbar > 0, so its accuracy warns unless numpy's overflow warnings are off."""
    net = metropolis_hastings_weights(build_ring(obj.n))
    rng = np.random.default_rng(4)
    U = rng.standard_normal((300, obj.p))
    v = np.where(U @ rng.standard_normal(obj.p) >= 0.0, 1.0, -1.0)
    U, v = np.vstack([U, np.full(obj.p, 1e308)]), np.append(v, 1.0)
    monkeypatch.setattr(solver, "ERROR_BUDGET", 7 * 4 * obj.n * obj.p * 8)
    return net, make_scheme("qnbbq", obj.p, b=2), baseline_optimum(obj), (U, v)


@pytest.mark.parametrize("mode", MODES)
def test_scores_on_the_helper_thread_keep_every_bit(small_logistic, mode, monkeypatch,
                                                   helpers):
    # T = 30 in blocks of 7 hands the helper 5 blocks; the records are those of the
    # serial path, accuracies included, and the overflow in the last test row's score
    # stays silent on the helper as on the caller's thread
    obj = small_logistic
    net, scheme, x_star, test_data = _logistic_blocks_of_7(obj, monkeypatch)
    hp = HyperParams(eta=0.1, gamma=0.35, alpha_x=0.5, alpha_y=0.5, T=30)
    got = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for on in (False, True):
            _scores_on_helper(monkeypatch, on)
            got.append(_as_bytes(run(obj, net, scheme, hp, mode, 3, x_star=x_star,
                                     test_data=test_data)))
    assert got[0] == got[1] and len(got[0]) == 31
    assert [h.tasks for h in helpers] == [5]


# small_logistic's cnext run at 15 times its step passes the growth limit at round 17, in
# its third block of 7 rounds
DIVERGES_AT = 17


def _diverging_hp():
    return HyperParams(eta=1.5, gamma=0.35, alpha_x=0.5, alpha_y=0.5, T=60)


def test_a_diverging_run_raises_the_same_error_with_the_helper(small_logistic, monkeypatch,
                                                                helpers):
    obj = small_logistic
    net, scheme, x_star, test_data = _logistic_blocks_of_7(obj, monkeypatch)
    got = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for on in (False, True):
            _scores_on_helper(monkeypatch, on)
            got.append(_raised(lambda: run(obj, net, scheme, _diverging_hp(), MODE_CNEXT, 3,
                                           x_star=x_star, test_data=test_data)))
    assert got[0] == got[1]
    assert got[0][:3] == (DivergenceError, "error vector", DIVERGES_AT)
    assert [h.tasks for h in helpers] == [DIVERGES_AT // 7]  # the blocks before the diverging one


def _residual_raising_on_call(obj, k):
    """obj.residual_fn, except that its closure raises on its k-th call."""
    real = obj.residual_fn
    calls = []

    def residual_fn(x_star):
        inner = real(x_star)

        def residuals(xs):
            calls.append(1)
            if len(calls) == k:
                raise ValueError("injected residual error")
            return inner(xs)
        return residuals
    return residual_fn


def _numerical_error_at(t_bad):
    """`solver.step`, except that the step of round t_bad raises NumericalError."""
    real = solver.step

    def stepped(state, *args):
        if state.t == t_bad:
            raise NumericalError(0, state.t)
        return real(state, *args)
    return stepped


def test_no_thread_outlives_run_and_helper_errors_reach_the_caller(small_logistic, monkeypatch,
                                                                   helpers):
    obj = small_logistic
    net, scheme, x_star, test_data = _logistic_blocks_of_7(obj, monkeypatch)
    _scores_on_helper(monkeypatch, True)
    hp = HyperParams(eta=0.1, gamma=0.35, alpha_x=0.5, alpha_y=0.5, T=30)
    threads = threading.active_count()

    def run_(hp=hp):
        return run(obj, net, scheme, hp, MODE_CNEXT, 3, x_star=x_star, test_data=test_data)
    assert len(run_()) == 31
    assert threading.active_count() == threads
    with pytest.raises(DivergenceError):
        run_(_diverging_hp())
    assert threading.active_count() == threads
    with monkeypatch.context() as m:
        m.setattr(solver, "step", _numerical_error_at(18))
        with pytest.raises(NumericalError):
            run_()
    assert threading.active_count() == threads
    with monkeypatch.context() as m:  # the second block's scores raise on the helper
        m.setattr(obj, "residual_fn", _residual_raising_on_call(obj, 2))
        with pytest.raises(ValueError, match="injected residual error"):
            run_()
    assert threading.active_count() == threads
    # 5 blocks of 7 in T = 30; a run that fails scores only the blocks before the one it
    # fails in, and the helper's error stops the run at a flush once the helper has met it
    assert [h.tasks for h in helpers][:3] == [5, DIVERGES_AT // 7, 18 // 7]
    assert 2 <= helpers[3].tasks <= 5


def test_ridge_and_small_logistic_runs_start_no_thread(small_logistic, ridge10, monkeypatch,
                                                        helpers):
    # ridge never takes the helper, and a logistic run under the floor stays serial even
    # on two CPUs
    monkeypatch.setattr(solver, "cpus", lambda: 2)
    obj = small_logistic
    assert obj.n * obj.m < solver.SCORE_MIN_SAMPLES
    net = metropolis_hastings_weights(build_ring(obj.n))
    hp = HyperParams(eta=0.1, gamma=0.35, alpha_x=0.5, alpha_y=0.5, T=10)
    run(obj, net, make_scheme("qnbbq", obj.p, b=2), hp, MODE_CNEXT, 3)
    monkeypatch.setattr(solver, "SCORE_MIN_SAMPLES", 0)
    obj, net, x_star = ridge10
    run(obj, net, make_scheme("qnbbq", obj.p, b=2), _desk_hp("qnbbq", 10), MODE_CNEXT, 3,
        x_star=x_star)
    assert helpers == []
