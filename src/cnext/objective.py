"""Local objective families (ridge, logistic) over stacked agent data, their curvature bounds,
and the centralized baseline."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

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


def _sigma(A: np.ndarray, b: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sigma(-m) = 1 / (1 + e^m) of the margins m = b * A x, over any leading batch axes."""
    return expit(-b * _mv(A, X))


def _weights(s: np.ndarray) -> np.ndarray:
    """Curvature weights w = sigma(m)(1 - sigma(m)), symmetric in the sign of the margin."""
    return s * (1.0 - s)


def _logistic_hessians(A: np.ndarray, w: np.ndarray, lam: float) -> np.ndarray:
    """A^T diag(w) A / m + lam I, over any leading batch axes."""
    return np.matmul(_T(A) * w[..., None, :], A) / A.shape[-2] + lam * np.eye(A.shape[-1])


def _logistic_loss(margins: np.ndarray) -> np.ndarray:
    """log(1 + e^-m), stable for either sign of m: the formula of np.logaddexp(0, -m),
    through numpy's vectorised exp and log1p rather than its element-wise loop."""
    return np.log1p(np.exp(-np.abs(margins))) + np.maximum(-margins, 0.0)


@dataclass
class Objective:
    """Average of n local functions over stacked agent data, with global curvature bounds.

    Agent i holds features A[i] (m x p) and targets or +-1 labels b[i] (m,); every agent
    has the same m. Ridge: f_i(x) = ||A_i x - b_i||^2 + lam ||x||^2, whose Hessians
    H_i = 2 A_i^T A_i + 2 lam I are constant and are formed and inverted once, here, as
    is the Cholesky factor of their mean, the Hessian of f.
    Logistic: f_i(x) = mean log(1 + exp(-b_i * A_i x)) + (lam/2) ||x||^2.
    """

    kind: str
    lam: float
    A: np.ndarray  # (n, m, p)
    b: np.ndarray  # (n, m)
    mu: float = field(init=False)  # the curvature bounds, computed from the data
    L: float = field(init=False)

    def __post_init__(self):
        if self.kind not in (RIDGE, LOGISTIC):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.A.ndim != 3 or self.b.shape != self.A.shape[:2] or self.A.shape[1] < 1:
            raise ValueError(f"need A (n, m, p) and b (n, m) with m >= 1, got {self.A.shape}, {self.b.shape}")
        if self.kind == LOGISTIC and not np.all(np.isin(self.b, (-1.0, 1.0))):
            raise ValueError("logistic labels must be in {-1, +1}")
        G = np.matmul(_T(self.A), self.A)  # A_i^T A_i
        if self.kind == RIDGE:
            self.H = 2.0 * G + 2.0 * self.lam * np.eye(self.p)
            self.c = 2.0 * _mv(_T(self.A), self.b)  # grad f_i(x) = H_i x - c_i
            self._H_inv = np.linalg.inv(self.H)
            self._H_mean_chol = np.linalg.cholesky(self.H.mean(axis=0))  # lower L, L L^T
        self.mu, self.L = self._curvature_bounds(G)

    def _curvature_bounds(self, G: np.ndarray) -> tuple[float, float]:
        """Uniform bounds mu I <= hess f_i(x) <= L I over all agents and points.

        Ridge: exact extreme eigenvalues of the constant Hessians. Logistic: mu = lam (the
        loss curvature can vanish), L = lam + max_i lambda_max(A_i^T A_i / m) / 4.
        """
        if self.kind == RIDGE:
            ev = np.linalg.eigvalsh(2.0 * G)
            return 2.0 * self.lam + max(ev[:, 0].min(), 0.0), 2.0 * self.lam + ev[:, -1].max()
        ev = np.linalg.eigvalsh(G / self.m)
        return self.lam, self.lam + ev[:, -1].max() / 4.0

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[1]

    @property
    def p(self) -> int:
        return self.A.shape[2]

    @property
    def kappa(self) -> float:
        return self.L / self.mu

    def value(self, x: np.ndarray) -> float:
        """Global objective (1/n) sum_i f_i(x)."""
        if self.kind == RIDGE:
            res = _mv(self.A, x) - self.b
            return float(np.sum(res * res)) / self.n + self.lam * float(x @ x)
        margins = self.b * _mv(self.A, x)
        return float(np.mean(_logistic_loss(margins))) + 0.5 * self.lam * float(x @ x)

    def residual_fn(self, x_star: np.ndarray) -> Callable[[np.ndarray], float]:
        """The residual x -> f(x) - f(x*), with all that depends on x* formed here, once.

        Ridge, where x* must be the minimizer: f is quadratic with Hessian L L^T, so the
        residual is (1/2) ||L^T (x - x*)||^2. A call costs O(p^2), reads no sample, and
        is >= 0 with no floor at ulp(f*).
        Logistic, at any x*: sample j adds log1p(sigma(-m*_j) expm1(m*_j - m_j)) to the
        mean, with m and m* the margins at x and x* and m* - m = b A (x* - x), and the
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
        m_star = (self.b * _mv(self.A, x_star)).ravel()
        s_star = expit(-m_star)

        def logistic_residual(x: np.ndarray) -> float:
            shift = (self.b * _mv(self.A, x_star - x)).ravel()  # m* - m
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

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Global gradient (1/n) sum_i grad f_i(x)."""
        return self.grad_stack(np.broadcast_to(x, (self.n, self.p))).mean(axis=0)

    def hess(self, x: np.ndarray) -> np.ndarray:
        """Global Hessian (1/n) sum_i hess f_i(x)."""
        return self.hess_stack(np.broadcast_to(x, (self.n, self.p))).mean(axis=0)

    def grad_stack(self, X: np.ndarray, curvature: bool = False):
        """Row i holds grad f_i(x_i) for the n x p iterate matrix X.

        With curvature, returns (gradients, W): W (n, m) holds the logistic curvature
        weights at X, which hess_stack and hess_solve take in place of a second pass over
        the samples; W is None for ridge, whose Hessians are constant.
        """
        if self.kind == RIDGE:
            G = _mv(self.H, X) - self.c
            return (G, None) if curvature else G
        s = _sigma(self.A, self.b, X)
        G = _mv(_T(self.A), -self.b * s) / self.m + self.lam * X
        return (G, _weights(s)) if curvature else G

    def hess_stack(self, X: np.ndarray, W: np.ndarray | None = None) -> np.ndarray:
        """Slice i holds hess f_i(x_i), an (n, p, p) stack; W, if given, holds the
        curvature weights at X from grad_stack."""
        if self.kind == RIDGE:
            return self.H
        if W is None:
            W = _weights(_sigma(self.A, self.b, X))
        return _logistic_hessians(self.A, W, self.lam)

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
        w = _weights(_sigma(self.A[i], self.b[i], x))
        return cho_solve(cho_factor(_logistic_hessians(self.A[i], w, self.lam)), rhs)


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

    Each iteration makes one pass over the samples for the gradient, whose curvature
    weights form the Hessian, and evaluates f once per line-search trial; f at the new
    iterate is the accepted trial's. f is evaluated apart from a trial only at x0 and at a
    step backtracked below t = 1e-14, which is taken without a trial.
    """
    x = np.asarray(x0, dtype=float).copy()
    f = obj.value(x)
    for _ in range(max_iter):
        X = np.broadcast_to(x, (obj.n, obj.p))
        G, W = obj.grad_stack(X, curvature=True)
        g = G.mean(axis=0)
        if np.linalg.norm(g) <= tol:
            return x, f
        H = obj.hess_stack(X, W).mean(axis=0)
        d = cho_solve(cho_factor(H), -g)
        slope = float(g @ d)
        roundoff = 4.0 * np.finfo(float).eps * abs(f)
        t = 1.0
        while (f_t := obj.value(x + t * d)) > f + 1e-4 * t * slope + roundoff:
            t *= 0.5
            if t < 1e-14:  # this step is taken without a trial
                f_t = obj.value(x + t * d)
                break
        x, f = x + t * d, f_t
    if np.linalg.norm(obj.grad(x)) <= tol:
        return x, f
    raise ConvergenceError(f"Newton failed to reach tol={tol} in {max_iter} iterations", x)
