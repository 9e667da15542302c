import numpy as np
import pytest

import math

from cnext.compress import (ALL_KINDS, DRAWING_KINDS, RANDOMK, STREAM_X, STREAM_Y, TOPK,
                            CompressionScheme, CompressState, _encode, agent_streams, make_scheme)
from cnext.data import Dataset, build_locals, generate_ridge_synthetic, partition_homogeneous
from cnext.graph import _circulant_shifts, _connected, build_ring, metropolis_hastings_weights
from cnext.objective import ridge_objective, logistic_objective, ridge_closed_form_optimum
from cnext.solver import DivergenceError, ErrorVector, init_state, newton_directions


def all_schemes(p, k=2):
    """Every scheme kind at dimension p: b = 2 for the quantizer, k kept coordinates for
    Random-k and Top-k."""
    return [make_scheme(kind, p, b=2, k=(k if kind in (RANDOMK, TOPK) else None))
            for kind in ALL_KINDS]


def verify_contract(scheme: CompressionScheme, samples: list[np.ndarray], rng: np.random.Generator,
                    n_draws: int = 10_000) -> tuple[float, float]:
    """Measured contract constants: the max over samples of the empirical E||Q(x) - x||^2 / ||x||^2
    (the constant C) and of E||Q(x)/r - x||^2 / ||x||^2 (the factor 1 - delta), from the same draws.

    Each sample's draws are encoded in one call, as rows of one matrix, every row from `rng`.
    """
    draws = n_draws if scheme.kind in DRAWING_KINDS else 1
    worst_C = worst_scaled = 0.0
    for x in samples:
        x = np.asarray(x, dtype=float)
        nx2 = float(x @ x)
        if nx2 == 0.0:
            raise ValueError("verify_contract: samples must be nonzero")
        Q = _encode(scheme, np.tile(x, (draws, 1)), [rng] * draws)
        worst_C = max(worst_C, _sum_sq(Q - x) / draws / nx2)
        worst_scaled = max(worst_scaled, _sum_sq(Q / scheme.r - x) / draws / nx2)
    return worst_C, worst_scaled


def _sum_sq(D: np.ndarray) -> float:
    """Sum of the rows' squared norms, added one draw at a time in draw order."""
    return float(np.cumsum(np.matmul(D[:, None, :], D[:, :, None]))[-1])


def xy_streams(seed, n):
    """The per-agent generators a round draws from: X's n, then Y's n."""
    return agent_streams(seed, STREAM_X, n) + agent_streams(seed, STREAM_Y, n)


def means(state):
    """Rows xbar and ybar, the agents' means of X and of Y."""
    return np.add.reduce(state.XY, axis=1) / state.XY.shape[1]


def memory(state, i):
    """Stream i's memories (0 for X, 1 for Y) as a CompressState of views into the
    stacks, so a compress_round on it updates them in place."""
    a = state.comp.alpha
    return CompressState(state.comp.H[i], state.comp.Hw[i],
                         a if isinstance(a, float) else float(a[i, 0, 0]))


def measure_errors(state, x_star) -> ErrorVector:
    """The five squared error norms of the current state (single realization), one round
    at a time: the oracle for the sums `solver.run` forms a block of rounds at a time."""
    XY = state.XY
    xy_bar = means(state)
    dev = np.empty((4,) + XY.shape[1:])  # deviations from the means, then from the memories
    with np.errstate(over="ignore"):  # overflow here is caught as divergence below
        opt = float(np.add.reduce(np.square(xy_bar[0] - x_star)))
        np.subtract(XY, xy_bar[:, None], out=dev[:2])
        np.subtract(XY, state.comp.H, out=dev[2:])
        cons, gt, comp_x, comp_y = np.add.reduce(np.square(dev, out=dev), axis=(1, 2)).tolist()
    ev = ErrorVector(opt, cons, gt, comp_x, comp_y)
    if not all(0.0 <= e < math.inf for e in ev):
        raise DivergenceError("error vector", state.t)
    return ev


def tracking_gap(state):
    """|| (1/n) 1^T Y - (1/n) 1^T grad F(X) ||, exactly zero in exact arithmetic."""
    return float(np.linalg.norm((state.Y - state.prev_grad).mean(axis=0)))


def is_connected(t):
    """Whether every node of the topology is reachable from node 0."""
    return _connected(t, _circulant_shifts(t))


def make_ridge(n_agents=5, p=4, N=50, lam=0.5, seed=7):
    ds = generate_ridge_synthetic(N, p, seed)
    part = partition_homogeneous(ds, n_agents, seed)
    return ridge_objective(build_locals(ds, part), lam)


def logistic_data(n_agents=4, p=5, m=12, seed=3):
    """Stacked features A (n, m, p) and +-1 labels b (n, m), each agent's labels the signs
    of its own noisy linear scores."""
    rng = np.random.default_rng(seed)
    A, b = np.empty((n_agents, m, p)), np.empty((n_agents, m))
    for i in range(n_agents):
        A[i] = rng.standard_normal((m, p))
        w = rng.standard_normal(p)
        b[i] = np.where(A[i] @ w + 0.3 * rng.standard_normal(m) >= 0, 1.0, -1.0)
    return A, b


def make_logistic(n_agents=4, p=5, m=12, lam=0.1, seed=3):
    return logistic_objective(logistic_data(n_agents, p, m, seed), lam)


def sign_logistic_data(seed):
    """+-1 labels over 25000 noisy linear scores, 2000 training samples on each of 10 agents:
    the shape of the benchmark's logistic workload, as stacks (A, b)."""
    ds = generate_ridge_synthetic(25000, 10, seed, noise_std=1.5)
    ds = Dataset(U=ds.U, v=np.where(ds.v >= 0.0, 1.0, -1.0), train_idx=np.arange(20000),
                 test_idx=np.arange(20000, 25000), provenance="sign of " + ds.provenance)
    return build_locals(ds, partition_homogeneous(ds, 10, seed))


def make_sign_logistic(seed):
    return logistic_objective(sign_logistic_data(seed), 0.1)


def grad(obj, x):
    """Global gradient (1/n) sum_i grad f_i(x), the mean of the stacked gradients at x."""
    return obj.grad_stack(np.broadcast_to(x, (obj.n, obj.p))).mean(axis=0)


def hess(obj, x):
    """Global Hessian (1/n) sum_i hess f_i(x), the mean of the stacked Hessians at x."""
    return obj.hess_stack(np.broadcast_to(x, (obj.n, obj.p))).mean(axis=0)


def covtype_fixture_csv(path, n_rows=80, seed=0):
    """A CovType-format CSV at path: 54 Gaussian features, one of them constant, and a class
    label in 1..7 per row. Returns the features and labels."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_rows, 54))
    X[:, 20] = 0.0  # constant column: the standardizer must not divide by zero
    labels = rng.integers(1, 8, size=n_rows)
    rows = np.column_stack([X, labels.astype(float)])
    np.savetxt(path, rows, delimiter=",")
    return X, labels


def network_giant_reference(obj, net, hp, seed, state0=None):
    """Directly coded uncompressed reference: X <- Wtilde X - eta D, Y <- Wtilde Y + dG.

    Wtilde = (1-gamma) I + gamma W. Used to verify that identity compression recovers
    plain weighted averaging; returns the sequence of X iterates including X(0).
    """
    state = state0.copy() if state0 is not None else init_state(obj, net, hp, seed)
    Wt = (1.0 - hp.gamma) * np.eye(net.n) + hp.gamma * net.W
    X, Y, g = state.X, state.Y, state.prev_grad
    out = [X.copy()]
    for t in range(hp.T):
        D = newton_directions(X, Y, obj, t)
        X_new = Wt @ X - hp.eta * D
        g_new = obj.grad_stack(X_new)
        Y = Wt @ Y + g_new - g
        X, g = X_new, g_new
        out.append(X.copy())
    return out


@pytest.fixture(scope="session")
def small_ridge():
    """ring-5, p=4 ridge instance used by the exact-invariant suites."""
    obj = make_ridge(n_agents=5, p=4, N=50, lam=0.5, seed=7)
    net = metropolis_hastings_weights(build_ring(5))
    return obj, net


@pytest.fixture(scope="session")
def ridge10():
    """The synthetic benchmark instance: p=20, n=10, N=500, lambda=0.5, seed 42, MH ring."""
    ds = generate_ridge_synthetic(500, 20, 42)
    part = partition_homogeneous(ds, 10, 42)
    obj = ridge_objective(build_locals(ds, part), 0.5)
    net = metropolis_hastings_weights(build_ring(10))
    x_star = ridge_closed_form_optimum(obj)
    return obj, net, x_star


@pytest.fixture(scope="session")
def small_logistic():
    return make_logistic()
