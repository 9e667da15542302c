import warnings

import numpy as np
import pytest

from cnext.objective import (ConvergenceError, centralized_newton, logistic_objective,
                             ridge_closed_form_optimum, ridge_objective)
from conftest import make_logistic, make_ridge


def central_diff_grad(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def agent(obj, i):
    """Agent i's own objective f_i, built from its slice of the stack."""
    build = ridge_objective if obj.kind == "ridge" else logistic_objective
    return build((obj.A[i:i + 1], obj.b[i:i + 1]), obj.lam)


def at(obj, x):
    """Every agent at the same point x."""
    return np.tile(x, (obj.n, 1))


def test_ridge_pure_regularizer():
    obj = ridge_objective((np.zeros((1, 3, 4)), np.zeros((1, 3))), 0.7)
    x = np.array([1.0, -2.0, 0.0, 3.0])
    assert obj.value(x) == pytest.approx(0.7 * float(x @ x))
    assert np.allclose(obj.grad_stack(x[None])[0], 2 * 0.7 * x)
    assert np.allclose(obj.hess_stack(x[None])[0], 2 * 0.7 * np.eye(4))


def test_ridge_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    obj = ridge_objective((rng.standard_normal((1, 8, 5)), rng.standard_normal((1, 8))), 0.5)
    x = rng.standard_normal(5)
    fd = central_diff_grad(obj.value, x)
    assert np.max(np.abs(obj.grad_stack(x[None])[0] - fd)) <= 1e-6


def test_logistic_gradient_matches_finite_differences():
    obj = make_logistic()
    rng = np.random.default_rng(6)
    x = rng.standard_normal(obj.p)
    grads = obj.grad_stack(at(obj, x))
    for i in range(obj.n):
        fd = central_diff_grad(agent(obj, i).value, x)
        assert np.max(np.abs(grads[i] - fd)) <= 1e-6


def test_stacked_rows_are_the_agents_own(small_logistic):
    # each row of the stacked quantities is agent i's own function at its own iterate
    for obj in (make_ridge(), small_logistic):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((obj.n, obj.p))
        R = rng.standard_normal((obj.n, obj.p))
        G, Hs, D = obj.grad_stack(X), obj.hess_stack(X), obj.hess_solve(X, R)
        for i in range(obj.n):
            own = agent(obj, i)
            assert np.allclose(G[i], own.grad(X[i]), rtol=1e-12, atol=1e-12)
            assert np.allclose(Hs[i], own.hess(X[i]), rtol=1e-12, atol=1e-12)
            assert np.allclose(Hs[i] @ D[i], R[i], rtol=1e-10, atol=1e-10)
            assert np.allclose(D[i], obj.hess_solve_i(i, X[i], R[i]), rtol=1e-10, atol=1e-12)
        x = X[0]
        assert obj.value(x) == pytest.approx(np.mean([agent(obj, i).value(x) for i in range(obj.n)]),
                                             rel=1e-12)


def test_unequal_sample_counts_rejected():
    rng = np.random.default_rng(1)
    # labels for 5 samples per agent against features for 4, and agents with no samples
    for locals_ in ((rng.standard_normal((2, 4, 3)), np.ones((2, 5))),
                    (np.zeros((2, 0, 3)), np.ones((2, 0)))):
        for build in (ridge_objective, logistic_objective):
            with pytest.raises(ValueError, match=r"need A \(n, m, p\) and b \(n, m\)"):
                build(locals_, 0.1)


def test_logistic_at_zero():
    obj = make_logistic()
    x = np.zeros(obj.p)
    grads = obj.grad_stack(at(obj, x))
    for i in range(obj.n):
        assert agent(obj, i).value(x) == pytest.approx(np.log(2.0), rel=1e-12)
        expected = -(obj.b[i][:, None] * obj.A[i]).sum(axis=0) / (2.0 * obj.m)
        assert np.allclose(grads[i], expected, atol=1e-14)


def test_logistic_hessian_eigenvalue_band():
    obj = make_logistic()
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = 2.0 * rng.standard_normal(obj.p)
        for i, hess in enumerate(obj.hess_stack(at(obj, x))):
            ev = np.linalg.eigvalsh(hess)
            cap = obj.lam + np.max(np.sum(obj.A[i] ** 2, axis=1)) / 4.0
            assert ev[0] >= obj.lam - 1e-12
            assert ev[-1] <= cap + 1e-12


def test_logistic_overflow_safe():
    obj = make_logistic()
    X = at(obj, 1e4 * np.ones(obj.p))
    assert np.isfinite(obj.value(X[0]))
    assert np.all(np.isfinite(obj.grad_stack(X))) and np.all(np.isfinite(obj.hess_stack(X)))
    for i in range(obj.n):
        assert np.isfinite(agent(obj, i).value(X[0]))


@pytest.mark.parametrize("margin", [0.0, 1e-12, -1e-12, 1.0, -1.0, 40.0, -40.0, 1e4, -1e4])
def test_logistic_loss_matches_logaddexp(margin):
    # one sample with feature `margin` and label +1 at x = 1 has exactly that margin
    lam = 1e-300
    obj = logistic_objective((np.array([[[margin]]]), np.ones((1, 1))), lam)
    x = np.ones(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid-value RuntimeWarning
        value = obj.value(x)
    reference = float(np.mean(np.logaddexp(0.0, -np.array([margin])))) + 0.5 * lam
    assert abs(value - reference) <= 4 * np.spacing(reference)


def test_logistic_loss_is_log2_at_zero():
    obj = make_logistic()
    assert obj.value(np.zeros(obj.p)) == np.log(2.0)


def test_closed_form_identity_features():
    # all A_i = I, b_i = c 1  =>  x* = c/(1+lambda) 1
    p, c, lam = 4, 2.5, 0.3
    obj = ridge_objective((np.tile(np.eye(p), (3, 1, 1)), c * np.ones((3, p))), lam)
    x_star = ridge_closed_form_optimum(obj)
    assert np.allclose(x_star, c / (1 + lam) * np.ones(p), atol=1e-12)


def test_closed_form_shrinks_with_lambda():
    rng = np.random.default_rng(14)
    locals_ = rng.standard_normal((3, 10, 4)), rng.standard_normal((3, 10))
    norms = [np.linalg.norm(ridge_closed_form_optimum(ridge_objective(locals_, lam)))
             for lam in (0.1, 1.0, 10.0, 100.0)]
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_closed_form_zeroes_gradient():
    obj = make_ridge(n_agents=4, p=6, N=60, lam=0.5, seed=9)
    x_star = ridge_closed_form_optimum(obj)
    assert np.linalg.norm(obj.grad(x_star)) <= 1e-9


def test_closed_form_is_minimum():
    obj = make_ridge(n_agents=3, p=5, N=45, lam=0.5, seed=10)
    x_star = ridge_closed_form_optimum(obj)
    f_star = obj.value(x_star)
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.standard_normal(5)
        v /= np.linalg.norm(v)
        assert obj.value(x_star + 1e-3 * v) >= f_star
        assert obj.value(x_star - 1e-3 * v) >= f_star


def test_newton_matches_closed_form():
    obj = make_ridge(n_agents=4, p=6, N=80, lam=0.5, seed=11)
    x_star = ridge_closed_form_optimum(obj)
    x, f = centralized_newton(obj, np.zeros(6), tol=1e-11, max_iter=20)
    assert np.linalg.norm(x - x_star) <= 1e-8


def test_newton_one_step_on_quadratic():
    # the full step is accepted and lands on the optimum of a quadratic
    obj = make_ridge(n_agents=3, p=4, N=30, lam=0.5, seed=12)
    x, _ = centralized_newton(obj, np.ones(4), tol=1e-9, max_iter=2)
    assert np.linalg.norm(obj.grad(x)) <= 1e-9


def test_newton_on_separable_logistic():
    obj = logistic_objective((np.array([[[1.0, 0.0], [-1.0, 0.0]]]), np.array([[1.0, -1.0]])), 0.1)
    x, f = centralized_newton(obj, np.zeros(2), tol=1e-10, max_iter=100)
    assert np.all(np.isfinite(x))
    assert np.linalg.norm(obj.grad(x)) <= 1e-10


def test_newton_budget_exhaustion_carries_iterate():
    obj = make_logistic()
    with pytest.raises(ConvergenceError) as exc:
        centralized_newton(obj, np.zeros(obj.p), tol=1e-15, max_iter=1)
    assert exc.value.last_iterate.shape == (obj.p,)


def test_mu_L_pure_regularizer():
    obj = ridge_objective((np.zeros((1, 2, 3)), np.zeros((1, 2))), 0.4)
    assert obj.mu == pytest.approx(0.8)
    assert obj.L == pytest.approx(0.8)
    assert obj.kappa == pytest.approx(1.0)


@pytest.mark.parametrize("builder", [make_ridge, make_logistic])
def test_curvature_bounds_hold_pointwise(builder):
    obj = builder()
    rng = np.random.default_rng(15)
    for _ in range(100):
        x = rng.standard_normal(obj.p)
        for hess in obj.hess_stack(at(obj, x)):
            ev = np.linalg.eigvalsh(hess)
            assert ev[0] >= obj.mu - 1e-9 * max(1.0, obj.L)
            assert ev[-1] <= obj.L + 1e-9 * max(1.0, obj.L)


@pytest.mark.parametrize("builder", [make_ridge, make_logistic])
def test_hessians_symmetric_and_spd(builder):
    obj = builder()
    rng = np.random.default_rng(16)
    for _ in range(5):
        x = rng.standard_normal(obj.p)
        for H in obj.hess_stack(at(obj, x)):
            assert np.max(np.abs(H - H.T)) <= 1e-12
            np.linalg.cholesky(H)  # raises if not SPD


def test_global_strong_convexity_spot_check():
    obj = make_ridge()
    rng = np.random.default_rng(17)
    for _ in range(50):
        x = rng.standard_normal(obj.p)
        y = rng.standard_normal(obj.p)
        lower = obj.value(x) + obj.grad(x) @ (y - x) + 0.5 * obj.mu * float((y - x) @ (y - x))
        assert obj.value(y) >= lower - 1e-9 * max(1.0, abs(obj.value(y)))


def test_label_validation():
    with pytest.raises(ValueError):
        logistic_objective((np.ones((1, 2, 2)), np.array([[1.0, 0.5]])), 0.1)
