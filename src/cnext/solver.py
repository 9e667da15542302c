"""Synchronous-round solver: compressed Newton-type updates with gradient tracking.

One round compresses both streams (decision matrix X and tracker Y) against their
memories, mixes the estimates through the consensus weights, takes a local
curvature-scaled step, and refreshes the tracker with the gradient increment:

    X <- X - gamma (Xhat - Xhat_w) - eta D,   D rows d_i = [hess f_i(x_i)]^{-1} y_i
    Y <- Y - gamma (Yhat - Yhat_w) + grad F(X_new) - grad F(X_old)

with Y(0) = grad F(X(0)). Identity compression reduces the communication to
Wtilde = (1-gamma) I + gamma W averaging (the uncompressed algorithm); swapping the
Newton direction for the raw tracker gives the first-order comparator.
"""

from __future__ import annotations

import copy
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .compress import (CompressState, CompressionScheme, DRAWING_KINDS, STREAM_INIT, STREAM_X,
                       STREAM_Y, agent_streams, compress_round, make_scheme, substream, IDENTITY)
from .graph import Network
from .objective import RIDGE, Objective, centralized_newton, ridge_closed_form_optimum
from .theory import alpha_slack, step_cap

MODE_CNEXT = "cnext"
MODE_FIRST_ORDER_GT = "first_order_gt"
MODE_UNCOMPRESSED_GIANT = "uncompressed_giant"
MODES = (MODE_CNEXT, MODE_FIRST_ORDER_GT, MODE_UNCOMPRESSED_GIANT)

# ||grad f|| at which the logistic baseline stops; strong convexity (mu >= lambda) puts
# its x* within tol / mu of the optimum
BASELINE_TOL = 1e-10


# a run whose error vector sum exceeds this multiple of its t = 0 value has diverged. The
# largest ratio max_t sum e(t) / sum e(0) of a healthy run is 3.69 (the qnormsigned
# Newton run of c06 and c07); the benchmark workloads reach at most 2.85, and a
# first-order run of configs/ridge_compare.json at eta = 5e-4, slow but settling, peaks
# at 30. At eta = 2e-3 that run passes 1e6 at t = 73 and reaches 1.6e24 by t = 1000.
GROWTH_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """The run diverged: a state quantity became non-finite, or the error vector grew past
    GROWTH_LIMIT times its t = 0 sum. Names the offending quantity and round."""

    def __init__(self, quantity: str, t: int, detail: str | None = None):
        detail = detail or f"non-finite entries in {quantity}"
        super().__init__(f"divergence at round {t}: {detail}")
        self.quantity = quantity
        self.t = t


class NumericalError(RuntimeError):
    """Local Hessian solve failed (numerically non-SPD)."""

    def __init__(self, agent: int, t: int):
        super().__init__(f"Hessian Cholesky failed for agent {agent} at round {t}")
        self.agent = agent
        self.t = t


@dataclass(frozen=True)
class HyperParams:
    eta: float
    gamma: float
    alpha_x: float
    alpha_y: float
    T: int
    tol: float = 0.0

    def __post_init__(self):
        # zero steps are admitted so the no-op round is expressible; the theory-side
        # constraints (gamma > 0, eta > 0) are enforced where the theory needs them
        if not (0 <= self.gamma <= 1):
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.eta < 0 or self.alpha_x <= 0 or self.alpha_y <= 0:
            raise ValueError("eta must be nonnegative and the alphas positive")
        if self.T < 0 or self.tol < 0:
            raise ValueError("T and tol must be nonnegative")


def warn_theory_violations(hp: HyperParams, obj: Objective, scheme: CompressionScheme) -> list[str]:
    """Flag (without rejecting) hyperparameters outside the sufficient-condition ranges."""
    msgs = []
    eta_cap = step_cap(obj.mu, obj.L)
    if hp.eta > eta_cap:
        msgs.append(f"eta={hp.eta} exceeds min(2L/(3mu), mu/L)={eta_cap:.6g}")
    if min(alpha_slack(a, scheme.r, scheme.delta) for a in (hp.alpha_x, hp.alpha_y)) < 0:
        msgs.append(f"alpha=({hp.alpha_x}, {hp.alpha_y}) exceeds 1/(r delta)="
                    f"{1.0 / (scheme.r * scheme.delta):.6g} for scheme {scheme.label()}")
    for m in msgs:
        warnings.warn(m, stacklevel=2)
    return msgs


@dataclass
class SolverState:
    XY: np.ndarray  # (2, n, p) stack of the decision matrix X = XY[0] and the tracker Y = XY[1]
    prev_grad: np.ndarray  # grad F(X(t)) cache
    comp: CompressState  # both streams' memories, stacked like XY; alpha (2, 1, 1)
    t: int = 0
    bits_cum: int = 0
    # logistic curvature weights at X, kept from the gradient refresh beside prev_grad so
    # the next round's Hessians make no second pass over the samples; None recomputes them
    weights: np.ndarray | None = None

    def copy(self) -> "SolverState":
        return copy.deepcopy(self)

    def _memory(self, i: int) -> CompressState:
        return CompressState(self.comp.H[i], self.comp.Hw[i], float(self.comp.alpha[i, 0, 0]))

    # views into the stacks: the streams, and each stream's memories
    X = property(lambda self: self.XY[0])
    Y = property(lambda self: self.XY[1])
    comp_x = property(lambda self: self._memory(0))
    comp_y = property(lambda self: self._memory(1))
    # rows xbar and ybar, the agents' means of X and of Y
    means = property(lambda self: np.add.reduce(self.XY, axis=1) / self.XY.shape[1])


@dataclass(frozen=True)
class ErrorVector:
    """Single-realization squared norms of the five coupled errors."""

    opt: float
    cons: float
    gt: float
    comp_x: float
    comp_y: float

    def as_array(self) -> np.ndarray:
        return np.array([self.opt, self.cons, self.gt, self.comp_x, self.comp_y])

    def total(self) -> float:
        return self.opt + self.cons + self.gt + self.comp_x + self.comp_y


@dataclass(frozen=True)
class RoundRecord:
    t: int
    bits_cum: int
    errors: ErrorVector
    residual: float
    accuracy: float | None = None
    op_err_x: float = 0.0  # ||Xhat - X||_F^2 of the round that produced this state
    op_err_y: float = 0.0


def init_state(obj: Objective, net: Network, hp: HyperParams, seed: int) -> SolverState:
    """Uniform[0,1] initialization of X and both memories; Y(0) forced to grad F(X(0))."""
    rng = substream(seed, STREAM_INIT)
    X0 = rng.uniform(size=(net.n, obj.p))
    H0 = rng.uniform(size=(2, net.n, obj.p))  # Hx(0), then Hy(0)
    g0, w0 = obj.grad_stack(X0, curvature=True)
    alpha = np.array([hp.alpha_x, hp.alpha_y]).reshape(2, 1, 1)
    return SolverState(XY=np.stack([X0, g0]), prev_grad=g0,
                       comp=CompressState.init(H0, net.mix, alpha), weights=w0)


def newton_directions(X: np.ndarray, Y: np.ndarray, obj: Objective, t: int = 0,
                      W: np.ndarray | None = None) -> np.ndarray:
    """Rows d_i = [hess f_i(x_i)]^{-1} y_i, all agents in one batched solve; W, if given,
    holds the curvature weights at X from `Objective.grad_stack`."""
    try:
        return obj.hess_solve(X, Y, W)
    except np.linalg.LinAlgError:
        for i in range(X.shape[0]):  # name the first agent whose Cholesky fails
            try:
                obj.hess_solve_i(i, X[i], Y[i])
            except np.linalg.LinAlgError as exc:
                raise NumericalError(i, t) from exc
        raise


@dataclass(frozen=True)
class StepInfo:
    bits: int
    op_err_x: float
    op_err_y: float


def step(state: SolverState, obj: Objective, net: Network, scheme: CompressionScheme,
         hp: HyperParams, mode: str, rngs: list[np.random.Generator] | None) -> StepInfo:
    """One synchronous round; mutates `state` in place and returns round diagnostics.

    Both streams are compressed and mixed (through `net.mix`) in one stacked round.
    `rngs` lists the per-agent generators, X's n then Y's n; it may be None for a scheme
    that draws nothing. The uncompressed mode takes the identity scheme only.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_UNCOMPRESSED_GIANT and scheme.kind != IDENTITY:
        raise ValueError(f"mode {mode} communicates uncompressed, got scheme {scheme.label()}")
    t = state.t
    XY = state.XY
    r = compress_round(state.comp, XY, scheme, net.mix, rngs)

    if mode == MODE_FIRST_ORDER_GT:
        D = state.Y
    else:
        D = newton_directions(state.X, state.Y, obj, t, state.weights)

    # operator errors of this round's encodings, against the streams as compressed
    op_err_x, op_err_y = np.add.reduce(np.square(r.Zhat - XY), axis=(1, 2)).tolist()

    XY_new = XY - hp.gamma * (r.Zhat - r.Zhat_w)
    X_new, Y_new = XY_new
    X_new -= hp.eta * D
    if not np.isfinite(X_new).all():
        raise DivergenceError("X", t)
    if mode == MODE_FIRST_ORDER_GT:  # reads no Hessian, so keeps no curvature weights
        g_new, w_new = obj.grad_stack(X_new), None
    else:
        g_new, w_new = obj.grad_stack(X_new, curvature=True)
    Y_new += g_new
    Y_new -= state.prev_grad
    if not np.isfinite(Y_new).all():
        raise DivergenceError("Y", t)

    state.XY = XY_new
    state.prev_grad = g_new
    state.weights = w_new
    state.bits_cum += r.bits
    state.t = t + 1
    return StepInfo(bits=r.bits, op_err_x=op_err_x, op_err_y=op_err_y)


def measure_errors(state: SolverState, obj: Objective, x_star: np.ndarray,
                   means: np.ndarray | None = None) -> ErrorVector:
    """The five squared error norms of the current state (single realization); `means`,
    if given, holds `state.means`."""
    XY = state.XY
    means = state.means if means is None else means
    with np.errstate(over="ignore"):  # overflow here is caught as divergence below
        opt = float(np.add.reduce(np.square(means[0] - x_star)))
        cons, gt = np.add.reduce(np.square(XY - means[:, None]), axis=(1, 2)).tolist()
        comp_x, comp_y = np.add.reduce(np.square(XY - state.comp.H), axis=(1, 2)).tolist()
    ev = ErrorVector(opt=opt, cons=cons, gt=gt, comp_x=comp_x, comp_y=comp_y)
    if not all(0.0 <= e < math.inf for e in (opt, cons, gt, comp_x, comp_y)):
        raise DivergenceError("error vector", state.t)
    return ev


def tracking_gap(state: SolverState) -> float:
    """|| (1/n) 1^T Y - (1/n) 1^T grad F(X) ||, exactly zero in exact arithmetic."""
    return float(np.linalg.norm((state.Y - state.prev_grad).mean(axis=0)))


def run(obj: Objective, net: Network, scheme: CompressionScheme, hp: HyperParams, mode: str,
        seed: int, x_star: np.ndarray | None = None, f_star: float | None = None,
        test_data: tuple[np.ndarray, np.ndarray] | None = None,
        state0: SolverState | None = None) -> list[RoundRecord]:
    """Iterate `step` for T rounds (or until the mean-gradient norm reaches tol > 0).

    Returns one record per round including t = 0. A supplied `state0` overrides the
    seeded initialization (the operator substreams still come from `seed`). Raises
    DivergenceError when the state becomes non-finite or the error vector's sum exceeds
    GROWTH_LIMIT times its t = 0 value. Each record's residual is f(xbar) - f(x*), from
    `Objective.residual_fn(x_star)`; `x_star`, if given, must be the minimizer.
    `f_star` is unused. The benchmark's workloads (bench/workloads.py) still pass it, so
    it stays until the benchmark's next change drops it there.
    """
    if mode == MODE_UNCOMPRESSED_GIANT:  # the one place that mode's scheme is chosen
        scheme = make_scheme(IDENTITY, obj.p)
    if x_star is None:
        x_star = baseline_optimum(obj)
    residual = obj.residual_fn(x_star)
    state = state0.copy() if state0 is not None else init_state(obj, net, hp, seed)
    rngs = None  # only the kinds that draw read per-agent streams
    if scheme.kind in DRAWING_KINDS:
        rngs = agent_streams(seed, STREAM_X, net.n) + agent_streams(seed, STREAM_Y, net.n)

    records = [_record(state, obj, x_star, residual, test_data, StepInfo(0, 0.0, 0.0))]
    e0 = records[0].errors.total()
    limit = GROWTH_LIMIT * e0 if e0 > 0 else np.inf
    for _ in range(hp.T):
        if hp.tol > 0 and float(np.linalg.norm(state.prev_grad.mean(axis=0))) <= hp.tol:
            break
        info = step(state, obj, net, scheme, hp, mode, rngs)
        rec = _record(state, obj, x_star, residual, test_data, info)
        if rec.errors.total() > limit:
            raise DivergenceError("error vector", rec.t,
                                  f"error vector sum {rec.errors.total():.3g} exceeds "
                                  f"{GROWTH_LIMIT:g} times its t = 0 value {e0:.3g}")
        records.append(rec)
    return records


def _record(state: SolverState, obj: Objective, x_star: np.ndarray,
            residual: Callable[[np.ndarray], float], test_data, info: StepInfo) -> RoundRecord:
    means = state.means
    xbar = means[0]
    acc = None
    if test_data is not None:
        U, v = test_data
        pred = np.where(U @ xbar >= 0.0, 1.0, -1.0)
        acc = float(np.mean(pred == v))
    return RoundRecord(t=state.t, bits_cum=state.bits_cum,
                       errors=measure_errors(state, obj, x_star, means),
                       residual=residual(xbar), accuracy=acc,
                       op_err_x=info.op_err_x, op_err_y=info.op_err_y)


def baseline_optimum(obj: Objective) -> np.ndarray:
    """Closed form for ridge, centralized damped Newton for logistic."""
    if obj.kind == RIDGE:
        return ridge_closed_form_optimum(obj)
    x, _ = centralized_newton(obj, np.zeros(obj.p), tol=BASELINE_TOL, max_iter=500)
    return x
