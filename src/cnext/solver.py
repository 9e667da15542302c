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
from typing import NamedTuple

import numpy as np

from .compress import (CompressState, CompressionScheme, DRAWING_KINDS, STREAM_INIT, STREAM_X,
                       STREAM_Y, Draws, agent_streams, all_finite, compress_round, make_scheme,
                       substream, IDENTITY)
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

# bytes of state `run` buffers to measure the error norms of a block of rounds at once:
# each round holds XY and XY - H, 4np doubles, so 40 rounds on the desk ring (n = 10,
# p = 20) and one round, measured as it ends, at n = 2000
ERROR_BUDGET = 256 << 10


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
        # every comparison with NaN is false, so the bounds below would admit it
        if not all(map(math.isfinite, (self.eta, self.alpha_x, self.alpha_y, self.tol))):
            raise ValueError("eta, the alphas and tol must be finite")
        if self.eta < 0 or self.alpha_x <= 0 or self.alpha_y <= 0:
            raise ValueError("eta must be nonnegative and the alphas positive")
        if self.T < 0 or self.tol < 0:
            raise ValueError("T and tol must be nonnegative")


def mode_scheme(mode: str, scheme: CompressionScheme) -> CompressionScheme:
    """The scheme a run in `mode` communicates with: identity, on the same p, in the
    uncompressed mode."""
    return make_scheme(IDENTITY, scheme.p) if mode == MODE_UNCOMPRESSED_GIANT else scheme


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
    comp: CompressState  # both streams' memories, stacked like XY; alpha a float, or (2, 1, 1)
    t: int = 0
    bits_cum: int = 0
    # logistic curvature weights at X, kept from the gradient refresh beside prev_grad so
    # the next round's Hessians make no second pass over the samples; None recomputes them
    weights: np.ndarray | None = None

    def copy(self) -> "SolverState":
        return copy.deepcopy(self)

    def _memory(self, i: int) -> CompressState:
        a = self.comp.alpha
        return CompressState(self.comp.H[i], self.comp.Hw[i],
                             a if isinstance(a, float) else float(a[i, 0, 0]))

    # views into the stacks: the streams, and each stream's memories
    X = property(lambda self: self.XY[0])
    Y = property(lambda self: self.XY[1])
    comp_x = property(lambda self: self._memory(0))
    comp_y = property(lambda self: self._memory(1))
    # rows xbar and ybar, the agents' means of X and of Y
    means = property(lambda self: np.add.reduce(self.XY, axis=1) / self.XY.shape[1])


class ErrorVector(NamedTuple):
    """Single-realization squared norms of the five coupled errors."""

    opt: float
    cons: float
    gt: float
    comp_x: float
    comp_y: float


class RoundRecord(NamedTuple):
    t: int
    bits_cum: int
    errors: ErrorVector
    residual: float
    accuracy: float | None = None
    op_err_x: float = 0.0  # ||Xhat - X||_F^2 of the round that produced this state
    op_err_y: float = 0.0


def init_state(obj: Objective, net: Network, hp: HyperParams, seed: int) -> SolverState:
    """Uniform[0,1] initialization of X and both memories; Y(0) forced to grad F(X(0)).
    The memories' alpha is one float when alpha_x = alpha_y, one per stream otherwise."""
    rng = substream(seed, STREAM_INIT)
    X0 = rng.uniform(size=(net.n, obj.p))
    H0 = rng.uniform(size=(2, net.n, obj.p))  # Hx(0), then Hy(0)
    g0, w0 = obj.grad_stack(X0, curvature=True)
    alpha = (float(hp.alpha_x) if hp.alpha_x == hp.alpha_y
             else np.array([hp.alpha_x, hp.alpha_y], dtype=float).reshape(2, 1, 1))
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


def step(state: SolverState, obj: Objective, net: Network, scheme: CompressionScheme,
         hp: HyperParams, mode: str,
         rngs: Draws | list[np.random.Generator] | None) -> tuple[float, float]:
    """One synchronous round; mutates `state` in place and returns the round's operator
    errors ||Xhat - X||_F^2 and ||Yhat - Y||_F^2.

    Both streams are compressed and mixed (through `net.mix`) in one stacked round.
    `rngs` holds the per-agent generators, X's n then Y's n, as a list or as the `Draws`
    `run` builds; under a drawing kind each of them yields p uniforms every round. It may
    be None for a scheme that draws nothing. The uncompressed mode
    takes the identity scheme only.
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
    if not all_finite(X_new):
        raise DivergenceError("X", t)
    if mode == MODE_FIRST_ORDER_GT:  # reads no Hessian, so keeps no curvature weights
        g_new, w_new = obj.grad_stack(X_new), None
    else:
        g_new, w_new = obj.grad_stack(X_new, curvature=True)
    Y_new += g_new
    Y_new -= state.prev_grad
    if not all_finite(Y_new):
        raise DivergenceError("Y", t)

    state.XY = XY_new
    state.prev_grad = g_new
    state.weights = w_new
    state.bits_cum += r.bits
    state.t = t + 1
    return op_err_x, op_err_y


def measure_errors(state: SolverState, x_star: np.ndarray) -> ErrorVector:
    """The five squared error norms of the current state (single realization); `run`
    forms the same sums a block of rounds at a time."""
    XY = state.XY
    means = state.means
    dev = np.empty((4,) + XY.shape[1:])  # deviations from the means, then from the memories
    with np.errstate(over="ignore"):  # overflow here is caught as divergence below
        opt = float(np.add.reduce(np.square(means[0] - x_star)))
        np.subtract(XY, means[:, None], out=dev[:2])
        np.subtract(XY, state.comp.H, out=dev[2:])
        cons, gt, comp_x, comp_y = np.add.reduce(np.square(dev, out=dev), axis=(1, 2)).tolist()
    ev = ErrorVector(opt, cons, gt, comp_x, comp_y)
    if not all(0.0 <= e < math.inf for e in ev):
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
    seeded initialization (the operator substreams still come from `seed`). Those
    substreams are read in blocks (`compress.Draws.for_run`), so each may be read up to
    B - 1 rounds past the run's last round; nothing reads their end state. Raises
    DivergenceError when the state becomes non-finite or the error vector's sum exceeds
    GROWTH_LIMIT times its t = 0 value. The error norms are measured a block of rounds
    at a time (`_Blocks`, as many rounds as ERROR_BUDGET holds), so a run that diverges
    may step on to the end of the block that holds the round it reports; the records
    and the error raised are those of a round-by-round loop. Each record's residual is f(xbar) - f(x*), from `Objective.residual_fn(x_star)`;
    `x_star`, if given, must be the minimizer. With `test_data` (U, v), each record's
    accuracy is the share of test points whose label v in {-1, +1} is the sign of U xbar,
    a score of 0 counting as +1; raises ValueError on another label.
    `f_star` is unused. The benchmark's workloads (bench/workloads.py) still pass it, so
    it stays until the benchmark's next change drops it there.
    """
    if test_data is not None:  # scored against the label mask v > 0, formed once
        U, v = test_data
        if not np.all(np.isin(v, (-1.0, 1.0))):
            raise ValueError("test labels must be in {-1, +1}")
        test_data = U, v > 0
    scheme = mode_scheme(mode, scheme)
    if x_star is None:
        x_star = baseline_optimum(obj)
    state = state0.copy() if state0 is not None else init_state(obj, net, hp, seed)
    rngs = None  # only the kinds that draw read per-agent streams
    if scheme.kind in DRAWING_KINDS:
        rngs = Draws.for_run(agent_streams(seed, STREAM_X, net.n) +
                             agent_streams(seed, STREAM_Y, net.n), obj.p, hp.T)

    # a block holds as many rounds as ERROR_BUDGET, at least 1 and at most the run's T + 1
    B = max(1, min(ERROR_BUDGET // (2 * state.XY.nbytes), hp.T + 1))
    blocks = _Blocks(state, B, x_star, obj.residual_fn(x_star), test_data)
    # overflow in the norms is caught as divergence, and the rounds stepped past a
    # diverging one, before its block reports it, may overflow: the DivergenceError
    # raised says so in place of numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        blocks.add(state)
        for _ in range(hp.T):
            if hp.tol > 0 and float(np.linalg.norm(state.prev_grad.mean(axis=0))) <= hp.tol:
                break
            try:
                op_err = step(state, obj, net, scheme, hp, mode, rngs)
            except Exception:
                blocks.flush()  # a buffered round that diverged is reported first
                raise
            blocks.add(state, op_err)
        blocks.flush()
    return blocks.records


class _Blocks:
    """A run's records, measured a block of rounds at a time.

    `add` keeps a round's t, bits and operator errors, and copies its XY and XY - H into
    a (B, 4, n, p) buffer. `flush` forms the block's means, its distances to x* and
    its four deviation norms in one reduction each: the sums `measure_errors` makes for
    one round, bit for bit. It then checks and records the rounds in order, as
    `measure_errors` and the growth limit check them; the first round recorded sets
    that limit. An overflow in the norms reads as divergence, so `run` calls it with
    numpy's overflow warnings off.
    """

    def __init__(self, state: SolverState, rounds: int, x_star: np.ndarray,
                 residual: Callable[[np.ndarray], float], test_data):
        self.buf = np.empty((rounds, 4) + state.XY.shape[1:])
        self.pending: list[tuple[int, int, tuple[float, float]]] = []  # (t, bits_cum, op_err)
        self.x_star, self.residual, self.test_data = x_star, residual, test_data
        self.records: list[RoundRecord] = []
        self.e0 = self.limit = None

    def add(self, state: SolverState, op_err: tuple[float, float] = (0.0, 0.0)) -> None:
        b = len(self.pending)
        row = self.buf[b]
        row[:2] = state.XY
        np.subtract(state.XY, state.comp.H, out=row[2:])
        self.pending.append((state.t, state.bits_cum, op_err))
        if b + 1 == len(self.buf):
            self.flush()

    def flush(self) -> None:
        dev = self.buf[:len(self.pending)]
        means = np.add.reduce(dev[:, :2], axis=2) / dev.shape[2]
        xbars = means[:, 0]
        opt = np.add.reduce(np.square(xbars - self.x_star), axis=1).tolist()
        np.subtract(dev[:, :2], means[:, :, None], out=dev[:, :2])
        norms = np.add.reduce(np.square(dev, out=dev), axis=(2, 3)).tolist()
        pending, self.pending = self.pending, []
        for (t, bits, op_err), xbar, o, e in zip(pending, xbars, opt, norms):
            ev = ErrorVector(o, *e)
            total = sum(ev)  # sums of squares, so a finite total has finite, >= 0 terms
            if not total < math.inf and not all(0.0 <= v < math.inf for v in ev):
                raise DivergenceError("error vector", t)
            if self.limit is None:
                self.e0, self.limit = total, GROWTH_LIMIT * total if total > 0 else math.inf
            elif total > self.limit:
                raise DivergenceError("error vector", t,
                                      f"error vector sum {total:.3g} exceeds "
                                      f"{GROWTH_LIMIT:g} times its t = 0 value {self.e0:.3g}")
            acc = None
            if self.test_data is not None:  # (U, v > 0); the count is exact, so this is the mean
                U, pos = self.test_data
                acc = int(np.count_nonzero((U @ xbar >= 0.0) == pos)) / pos.size
            self.records.append(RoundRecord(t, bits, ev, self.residual(xbar), acc, *op_err))


def baseline_optimum(obj: Objective) -> np.ndarray:
    """Closed form for ridge, centralized damped Newton for logistic."""
    if obj.kind == RIDGE:
        return ridge_closed_form_optimum(obj)
    x, _ = centralized_newton(obj, np.zeros(obj.p), tol=BASELINE_TOL, max_iter=500)
    return x
