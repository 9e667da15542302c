"""Local objective families (ridge, logistic) over stacked agent data, their curvature bounds,
and the centralized baseline."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import InitVar, dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

RIDGE = "ridge"
LOGISTIC = "logistic"


class ConvergenceError(RuntimeError):
    """Raised when the centralized baseline exhausts its iteration budget."""

    def __init__(self, message: str, last_iterate: np.ndarray):
        super().__init__(message)
        self.last_iterate = last_iterate


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product over any leading batch axes: (..., r, c) x (..., c) -> (..., r)."""
    return np.matmul(M, v[..., None])[..., 0]


def _T(M: np.ndarray) -> np.ndarray:
    return np.swapaxes(M, -1, -2)


def _weights(s: np.ndarray) -> np.ndarray:
    """Curvature weights w = sigma(m)(1 - sigma(m)), symmetric in the sign of the margin."""
    return s * (1.0 - s)


def _logistic_hessians(Abar: np.ndarray, w: np.ndarray, lam: float) -> np.ndarray:
    """Abar^T diag(w) Abar / m + lam I, over any leading batch axes. einsum scales Abar's
    rows by w in long loops, where a broadcast product runs p-long ones, into Abar's layout:
    the matmul and its bits are the same (a -0 product becomes +0; + lam I erases the sign)."""
    Aw = np.einsum("...jk,...j->...jk", Abar, w)
    return np.matmul(_T(Aw), Abar) / Abar.shape[-2] + lam * np.eye(Abar.shape[-1])


def _logistic_loss(margins: np.ndarray) -> np.ndarray:
    """log(1 + e^-m), stable for either sign of m: the formula of np.logaddexp(0, -m),
    through numpy's vectorised exp and log1p rather than its element-wise loop."""
    return np.log1p(np.exp(-np.abs(margins))) + np.maximum(-margins, 0.0)


@dataclass
class Objective:
    """Average of n local functions over stacked agent data, with global curvature bounds.

    Built from features A (n, m, p) and targets or +-1 labels b (n, m): agent i holds
    A[i] (m x p) and b[i] (m,), and every agent has the same m.
    Ridge: f_i(x) = ||A_i x - b_i||^2 + lam ||x||^2. The objective holds A and b, and the
    Hessians H_i = 2 A_i^T A_i + 2 lam I, which are constant and are formed and inverted
    once, here, as is the Cholesky factor of their mean, the Hessian of f.
    Logistic: f_i(x) = mean log(1 + exp(-b_i * A_i x)) + (lam/2) ||x||^2. The objective
    holds only the signed features Abar = -b * A, a new array in A's layout, so that the
    margins b * A x are -Abar x and no pass over the samples multiplies by a label.
    Negation is exact and rounding is symmetric in sign, so every product of Abar equals
    the product of A and b that it replaces, bit for bit.
    """

    kind: str
    lam: float
    A: InitVar[np.ndarray]  # (n, m, p)
    b: InitVar[np.ndarray]  # (n, m)
    mu: float = field(init=False)  # the curvature bounds, computed from the data
    L: float = field(init=False)

    def __post_init__(self, A: np.ndarray, b: np.ndarray):
        if self.kind not in (RIDGE, LOGISTIC):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if not 0 < self.lam < math.inf:  # NaN fails too
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 3 or b.shape != A.shape[:2] or A.shape[1] < 1:
            raise ValueError(f"need A (n, m, p) and b (n, m) with m >= 1, got {A.shape}, {b.shape}")
        self.n, self.m, self.p = A.shape
        if self.kind == RIDGE:
            self.A, self.b = A, b
            G = np.matmul(_T(A), A)
            G *= 2.0  # 2 A_i^T A_i, the data part of H_i
            self.H = G + 2.0 * self.lam * np.eye(self.p)
            self.c = 2.0 * _mv(_T(A), b)  # grad f_i(x) = H_i x - c_i
            self._H_inv = np.linalg.inv(self.H)
            self._H_mean_chol = np.linalg.cholesky(self.H.mean(axis=0))  # lower L, L L^T
        else:
            if not np.all(np.isin(b, (-1.0, 1.0))):
                raise ValueError("logistic labels must be in {-1, +1}")
            self.Abar = np.multiply(A, -b[..., None], out=np.empty_like(A))
            G = np.matmul(_T(self.Abar), self.Abar)
            G /= self.m  # = A_i^T A_i / m
        self.mu, self.L = self._curvature_bounds(G)

    def _curvature_bounds(self, G: np.ndarray) -> tuple[float, float]:
        """Uniform bounds mu I <= hess f_i(x) <= L I over all agents and points, from the
        data part G of the Hessians: 2 A_i^T A_i for ridge, A_i^T A_i / m for logistic.

        Ridge: exact extreme eigenvalues of the constant Hessians. Logistic: mu = lam (the
        loss curvature can vanish), L = lam + max_i lambda_max(A_i^T A_i / m) / 4.
        """
        ev = np.linalg.eigvalsh(G)
        if self.kind == RIDGE:
            return 2.0 * self.lam + max(ev[:, 0].min(), 0.0), 2.0 * self.lam + ev[:, -1].max()
        return self.lam, self.lam + ev[:, -1].max() / 4.0

    @property
    def kappa(self) -> float:
        return self.L / self.mu

    def value(self, x: np.ndarray) -> float:
        """Global objective (1/n) sum_i f_i(x)."""
        return self._value(x)[0]

    def _value(self, x: np.ndarray) -> tuple[float, np.ndarray | None]:
        """f(x), with the signed margins Abar x that it read (None for ridge), which
        `_grad_stack` takes at the same point in place of a second pass over the samples."""
        if self.kind == RIDGE:
            res = _mv(self.A, x) - self.b
            return float(np.sum(res * res)) / self.n + self.lam * float(x @ x), None
        Z = _mv(self.Abar, x)
        return float(np.mean(_logistic_loss(-Z))) + 0.5 * self.lam * float(x @ x), Z

    def residual_fn(self, x_star: np.ndarray) -> Callable[[np.ndarray], float]:
        """The residual x -> f(x) - f(x*), with all that depends on x* formed here, once.

        Ridge, where x* must be the minimizer: f is quadratic with Hessian L L^T, so the
        residual is (1/2) ||L^T (x - x*)||^2. A call costs O(p^2), reads no sample, and
        is >= 0 with no floor at ulp(f*).
        Logistic, at any x*: sample j adds log1p(sigma(-m*_j) expm1(m*_j - m_j)) to the
        mean, with m and m* the margins at x and x* and m* - m = Abar (x - x*), and the
        regularizer adds (lam/2) (x - x*)^T (x + x*); no two totals are subtracted. A
        sample whose loss falls by more than log 2 (where log1p loses digits) or
        overflows takes the plain difference of its two losses, which is exact enough there.
        """
        x_star = np.array(x_star, dtype=float)
        if self.kind == RIDGE:
            L = self._H_mean_chol

            def ridge_residual(x: np.ndarray) -> float:
                v = (x - x_star) @ L
                return 0.5 * float(v @ v)
            return ridge_residual
        m_star = -_mv(self.Abar, x_star).ravel()
        s_star = expit(-m_star)

        def logistic_residual(x: np.ndarray) -> float:
            shift = _mv(self.Abar, x - x_star).ravel()  # m* - m
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                z = np.expm1(shift)
                z *= s_star
                far = None
                if not (z.min() > -0.5 and z.max() < np.inf):
                    far = np.flatnonzero(~((z > -0.5) & (z < np.inf)))
                gaps = np.log1p(z, out=z)
            if far is not None:
                m_far = m_star[far]
                gaps[far] = _logistic_loss(m_far - shift[far]) - _logistic_loss(m_far)
            return float(np.mean(gaps)) + 0.5 * self.lam * float((x - x_star) @ (x + x_star))
        return logistic_residual

    def grad_stack(self, X: np.ndarray, curvature: bool = False):
        """Row i holds grad f_i(x_i) for the n x p iterate matrix X.

        With curvature, returns (gradients, W): W (n, m) holds the logistic curvature
        weights at X, which hess_stack and hess_solve take in place of a second pass over
        the samples; W is None for ridge, whose Hessians are constant.
        """
        return self._grad_stack(X, curvature)

    def _grad_stack(self, X: np.ndarray, curvature: bool, Z: np.ndarray | None = None):
        """grad_stack, from the signed margins Z = Abar X when the caller holds them."""
        if self.kind == RIDGE:
            G = _mv(self.H, X) - self.c
            return (G, None) if curvature else G
        s = expit(_mv(self.Abar, X) if Z is None else Z)  # sigma(-m), m = b * A x
        G = _mv(_T(self.Abar), s) / self.m + self.lam * X
        return (G, _weights(s)) if curvature else G

    def hess_stack(self, X: np.ndarray, W: np.ndarray | None = None) -> np.ndarray:
        """Slice i holds hess f_i(x_i), an (n, p, p) stack; W, if given, holds the
        curvature weights at X from grad_stack."""
        if self.kind == RIDGE:
            return self.H
        if W is None:
            W = _weights(expit(_mv(self.Abar, X)))
        return _logistic_hessians(self.Abar, W, self.lam)

    def hess_solve(self, X: np.ndarray, R: np.ndarray, W: np.ndarray | None = None) -> np.ndarray:
        """Rows d_i solving hess f_i(x_i) d_i = r_i; raises LinAlgError if a Hessian is not SPD."""
        if self.kind == RIDGE:
            return _mv(self._H_inv, R)
        H = self.hess_stack(X, W)
        np.linalg.cholesky(H)  # the SPD check
        return np.linalg.solve(H, R[..., None])[..., 0]

    def hess_solve_i(self, i: int, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve hess f_i(x) d = rhs for agent i alone; raises LinAlgError if it is not SPD."""
        if self.kind == RIDGE:
            return self._H_inv[i] @ rhs
        w = _weights(expit(_mv(self.Abar[i], x)))
        return cho_solve(cho_factor(_logistic_hessians(self.Abar[i], w, self.lam)), rhs)


def ridge_objective(locals_: tuple[np.ndarray, np.ndarray], lam: float) -> Objective:
    """Ridge over stacked agent data (A (n, m, p), b (n, m)), as build_locals gives it."""
    return Objective(RIDGE, lam, *locals_)


def logistic_objective(locals_: tuple[np.ndarray, np.ndarray], lam: float) -> Objective:
    """Logistic over stacked agent data (A (n, m, p), b (n, m) in {-1, +1})."""
    return Objective(LOGISTIC, lam, *locals_)


def ridge_closed_form_optimum(obj: Objective) -> np.ndarray:
    """x* = (sum_i H_i)^{-1} sum_i c_i = (sum_i A_i^T A_i + n lam I)^{-1} sum_i A_i^T b_i."""
    if obj.kind != RIDGE:
        raise ValueError("closed form only exists for the ridge objective")
    return cho_solve(cho_factor(obj.H.sum(axis=0)), obj.c.sum(axis=0))


def centralized_newton(obj: Objective, x0: np.ndarray, tol: float = 1e-10,
                       max_iter: int = 200) -> tuple[np.ndarray, float]:
    """Damped Newton with Armijo backtracking (c = 1e-4, shrink 0.5, initial step 1).

    Baseline optimizer for residual plots; stops at ||grad f(x)|| <= tol. The Armijo test
    allows 4 ulps of |f(x)| for roundoff: near the optimum the predicted decrease falls
    below float64 resolution, and without the allowance every step backtracks to nothing.

    f is evaluated at x0 and once per line-search trial, each time in one pass over the
    samples for the margins; f at the new iterate is the accepted trial's, and the
    iteration's gradient, whose curvature weights form the Hessian, reads that trial's
    margins. f is evaluated apart from a trial only at a step backtracked below
    t = 1e-14, which is taken without a trial.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, Z = obj._value(x)
    for _ in range(max_iter):
        X = np.broadcast_to(x, (obj.n, obj.p))
        G, W = obj._grad_stack(X, True, Z)
        g = G.mean(axis=0)
        if np.linalg.norm(g) <= tol:
            return x, f
        H = obj.hess_stack(X, W).mean(axis=0)
        d = cho_solve(cho_factor(H), -g)
        slope = float(g @ d)
        roundoff = 4.0 * np.finfo(float).eps * abs(f)
        t = 1.0
        while (trial := obj._value(x + t * d))[0] > f + 1e-4 * t * slope + roundoff:
            t *= 0.5
            if t < 1e-14:  # this step is taken without a trial
                trial = obj._value(x + t * d)
                break
        x, (f, Z) = x + t * d, trial
    if np.linalg.norm(obj._grad_stack(np.broadcast_to(x, (obj.n, obj.p)), False, Z).mean(axis=0)) <= tol:
        return x, f
    raise ConvergenceError(f"Newton failed to reach tol={tol} in {max_iter} iterations", x)
