import threading
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

from cnext import objective
from cnext.objective import (ConvergenceError, Objective, _T, _logistic_loss, _mv, centralized_newton,
                             logistic_objective, ridge_closed_form_optimum, ridge_objective)
from conftest import (grad, hess, logistic_data, make_logistic, make_ridge, make_sign_logistic,
                      sign_logistic_data)


def central_diff_grad(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def agent(build, locals_, lam, i):
    """Agent i's own objective f_i, built from its slice of the stacks (A, b)."""
    A, b = locals_
    return build((A[i:i + 1], b[i:i + 1]), lam)


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
    locals_ = logistic_data()
    obj = logistic_objective(locals_, 0.1)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(obj.p)
    grads = obj.grad_stack(at(obj, x))
    for i in range(obj.n):
        fd = central_diff_grad(agent(logistic_objective, locals_, obj.lam, i).value, x)
        assert np.max(np.abs(grads[i] - fd)) <= 1e-6


def test_stacked_rows_are_the_agents_own():
    # each row of the stacked quantities is agent i's own function at its own iterate
    ridge = make_ridge()
    for build, locals_, lam in ((ridge_objective, (ridge.A, ridge.b), ridge.lam),
                                (logistic_objective, logistic_data(), 0.1)):
        obj = build(locals_, lam)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((obj.n, obj.p))
        R = rng.standard_normal((obj.n, obj.p))
        G, Hs, D = obj.grad_stack(X), obj.hess_stack(X), obj.hess_solve(X, R)
        for i in range(obj.n):
            own = agent(build, locals_, lam, i)
            assert np.allclose(G[i], grad(own, X[i]), rtol=1e-12, atol=1e-12)
            assert np.allclose(Hs[i], hess(own, X[i]), rtol=1e-12, atol=1e-12)
            assert np.allclose(Hs[i] @ D[i], R[i], rtol=1e-10, atol=1e-10)
            assert np.allclose(D[i], obj.hess_solve_i(i, X[i], R[i]), rtol=1e-10, atol=1e-12)
        x = X[0]
        own_values = [agent(build, locals_, lam, i).value(x) for i in range(obj.n)]
        assert obj.value(x) == pytest.approx(np.mean(own_values), rel=1e-12)


def test_unequal_sample_counts_rejected():
    rng = np.random.default_rng(1)
    # labels for 5 samples per agent against features for 4, and agents with no samples
    for locals_ in ((rng.standard_normal((2, 4, 3)), np.ones((2, 5))),
                    (np.zeros((2, 0, 3)), np.ones((2, 0)))):
        for build in (ridge_objective, logistic_objective):
            with pytest.raises(ValueError, match=r"need A \(n, m, p\) and b \(n, m\)"):
                build(locals_, 0.1)


def test_unknown_kind_and_logistic_closed_form_rejected():
    with pytest.raises(ValueError, match="unknown objective kind 'lasso'"):
        Objective("lasso", 0.1, *logistic_data())
    with pytest.raises(ValueError, match="closed form only exists for the ridge objective"):
        ridge_closed_form_optimum(make_logistic())


def test_logistic_at_zero():
    A, b = logistic_data()
    obj = logistic_objective((A, b), 0.1)
    x = np.zeros(obj.p)
    grads = obj.grad_stack(at(obj, x))
    for i in range(obj.n):
        assert agent(logistic_objective, (A, b), obj.lam, i).value(x) == pytest.approx(np.log(2.0), rel=1e-12)
        expected = -(b[i][:, None] * A[i]).sum(axis=0) / (2.0 * obj.m)
        assert np.allclose(grads[i], expected, atol=1e-14)


def test_logistic_hessian_eigenvalue_band():
    A, _ = locals_ = logistic_data()
    obj = logistic_objective(locals_, 0.1)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = 2.0 * rng.standard_normal(obj.p)
        for i, hess in enumerate(obj.hess_stack(at(obj, x))):
            ev = np.linalg.eigvalsh(hess)
            cap = obj.lam + np.max(np.sum(A[i] ** 2, axis=1)) / 4.0
            assert ev[0] >= obj.lam - 1e-12
            assert ev[-1] <= cap + 1e-12


def test_logistic_overflow_safe():
    locals_ = logistic_data()
    obj = logistic_objective(locals_, 0.1)
    X = at(obj, 1e4 * np.ones(obj.p))
    assert np.isfinite(obj.value(X[0]))
    assert np.all(np.isfinite(obj.grad_stack(X))) and np.all(np.isfinite(obj.hess_stack(X)))
    for i in range(obj.n):
        assert np.isfinite(agent(logistic_objective, locals_, obj.lam, i).value(X[0]))


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


def test_ridge_residual_matches_an_exact_rational_reference():
    # an instance whose minimizer is exact in binary: with A_0 = I, choosing b_0 makes the
    # normal equations sum_i A_i^T b_i = (sum_i A_i^T A_i + n lam I) x* hold exactly
    lam, x_star = 0.5, np.array([0.5, -0.25])
    A = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [3.0, -1.0]]])
    b1 = np.array([1.0, -1.0])
    rhs = (np.eye(2) + A[1].T @ A[1] + 2 * lam * np.eye(2)) @ x_star
    obj = ridge_objective((A, np.stack([rhs - A[1].T @ b1, b1])), lam)

    def f(x):  # f(x) in exact arithmetic, at the float x
        x = [Fraction(v) for v in x]
        sq = sum((sum(Fraction(a) * v for a, v in zip(row, x)) - Fraction(bj)) ** 2
                 for Ai, bi in zip(obj.A, obj.b) for row, bj in zip(Ai, bi))
        return sq / obj.n + Fraction(lam) * sum(v * v for v in x)

    x = x_star + np.array([1e-9, -2e-9])
    exact = f(x) - f(x_star)
    assert 0 < exact < 1e-16
    assert abs(Fraction(obj.residual_fn(x_star)(x[None])[0]) - exact) <= 1e-14 * exact
    # the difference of two totals reads roundoff at this distance
    assert abs(Fraction(obj.value(x) - obj.value(x_star)) - exact) > exact


def _decimal_gap(locals_, lam, x, x_star):
    """f(x) - f(x*) for the logistic f on the stacks (A, b), to 60 digits, at the float x
    and x*."""
    A, b = locals_

    def f(x):
        x = [Decimal(float(v)) for v in x]
        loss = sum((1 + (-Decimal(float(bj)) * sum(Decimal(float(a)) * v for a, v in zip(row, x))).exp()).ln()
                   for Ai, bi in zip(A, b) for row, bj in zip(Ai, bi))
        return loss / b.size + Decimal(lam) / 2 * sum(v * v for v in x)

    with localcontext() as ctx:
        ctx.prec = 60
        return f(x) - f(x_star)


def test_logistic_residual_matches_a_60_digit_reference():
    locals_ = logistic_data()
    obj = logistic_objective(locals_, 0.1)
    rng = np.random.default_rng(11)
    x_star = rng.standard_normal(obj.p)
    x = x_star + 1e-9 * rng.standard_normal(obj.p)  # margins move by about 1e-9
    exact = _decimal_gap(locals_, obj.lam, x, x_star)
    error = abs(Decimal(obj.residual_fn(x_star)(x[None])[0]) - exact)
    old_error = abs(Decimal(obj.value(x) - obj.value(x_star)) - exact)
    assert error <= Decimal(1e-13) * abs(exact)
    assert old_error > 1000 * error


@pytest.mark.parametrize("star_scale, scale", [(1.0, 1e2), (1.0, 1e4), (1e3, 1.0), (1e3, 1e3)])
def test_logistic_residual_far_from_x_star(star_scale, scale):
    # margins that overflow expm1, or a loss that falls by more than log 2, take the plain
    # difference of the two losses; the residual stays finite, silent and accurate
    locals_ = logistic_data()
    obj = logistic_objective(locals_, 0.1)
    rng = np.random.default_rng(12)
    x_star = star_scale * rng.standard_normal(obj.p)
    residual = obj.residual_fn(x_star)
    for _ in range(3):
        x = x_star + scale * rng.standard_normal(obj.p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = residual(x[None])[0]
        exact = _decimal_gap(locals_, obj.lam, x, x_star)
        assert abs(Decimal(got) - exact) <= Decimal(1e-13) * abs(exact)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 1.0), lam=st.floats(1e-3, 10.0))
def test_ridge_residual_is_nonnegative_and_the_value_gap(seed, scale, lam):
    rng = np.random.default_rng(seed)
    obj = ridge_objective((rng.standard_normal((3, 6, 4)), rng.standard_normal((3, 6))), lam)
    x_star = ridge_closed_form_optimum(obj)
    f_star = obj.value(x_star)
    x = x_star + scale * rng.standard_normal(obj.p)
    got = obj.residual_fn(x_star)(x[None])[0]
    assert got >= 0.0
    assert abs(got - (obj.value(x) - f_star)) <= 1e-12 * abs(f_star)


@pytest.mark.parametrize("p", [1, 2, 3, 20, 64, 200])
def test_stacked_ridge_residuals_have_the_bits_of_each_point_alone(p):
    # a stack's residuals are 0.5 * float(v @ v), v = (x - x*) @ L, for each point taken
    # alone: the stacked products run the same gemv and dot per row
    rng = np.random.default_rng(p)
    obj = ridge_objective((rng.standard_normal((3, p + 4, p)), rng.standard_normal((3, p + 4))), 0.5)
    x_star = ridge_closed_form_optimum(obj)
    residuals = obj.residual_fn(x_star)
    L = obj._H_mean_chol
    for r in (1, 2, 40, 81):
        xs = x_star + rng.standard_normal((r, p)) * np.logspace(-8, 3, r)[:, None]
        expected = [0.5 * float(v @ v) for v in ((x - x_star) @ L for x in xs)]
        got = residuals(xs)
        assert all(type(g) is float for g in got)
        assert list(map(float.hex, got)) == list(map(float.hex, expected)), r


def test_stacked_logistic_residuals_are_its_rows_one_by_one():
    # rows near x* and rows far enough that samples take the plain difference of losses
    A, b = logistic_data()
    obj = logistic_objective((A, b), 0.1)
    rng = np.random.default_rng(13)
    x_star = rng.standard_normal(obj.p)
    xs = x_star + rng.standard_normal((9, obj.p)) * np.logspace(-9, 3, 9)[:, None]
    expected = [_oracle_residual(A, b, obj.lam, x_star, x) for x in xs]
    assert [far for _, far in expected] == [False] * 6 + [True] * 3
    got = obj.residual_fn(x_star)(xs)
    assert list(map(float.hex, got)) == [float.hex(value) for value, _ in expected]


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
    assert np.linalg.norm(grad(obj, x_star)) <= 1e-9


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


def oracle_newton(obj, x0, tol=1e-10, max_iter=200):
    """centralized_newton as it was written before it shared the gradient's sigmoid pass with
    the Hessian, carried f between iterations and read the accepted trial's margins: one
    grad, one hess and one f at each iterate, besides the line search's trials."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(max_iter):
        g = grad(obj, x)
        if np.linalg.norm(g) <= tol:
            return x, obj.value(x)
        H = hess(obj, x)
        d = cho_solve(cho_factor(H), -g)
        f0 = obj.value(x)
        slope = float(g @ d)
        roundoff = 4.0 * np.finfo(float).eps * abs(f0)
        t = 1.0
        while obj.value(x + t * d) > f0 + 1e-4 * t * slope + roundoff:
            t *= 0.5
            if t < 1e-14:
                break
        x = x + t * d
    if np.linalg.norm(grad(obj, x)) <= tol:
        return x, obj.value(x)
    raise ConvergenceError(f"Newton failed to reach tol={tol} in {max_iter} iterations", x)


def assert_same_solve(obj, x0, **kw):
    x, f = centralized_newton(obj, x0, **kw)
    x_ref, f_ref = oracle_newton(obj, x0, **kw)
    assert np.array_equal(x, x_ref) and f == f_ref
    return x, f


def test_newton_matches_closed_form():
    obj = make_ridge(n_agents=4, p=6, N=80, lam=0.5, seed=11)
    x_star = ridge_closed_form_optimum(obj)
    x, f = assert_same_solve(obj, np.zeros(6), tol=1e-11, max_iter=20)
    assert np.linalg.norm(x - x_star) <= 1e-8


def test_newton_one_step_on_quadratic():
    # the full step is accepted and lands on the optimum of a quadratic
    obj = make_ridge(n_agents=3, p=4, N=30, lam=0.5, seed=12)
    x, _ = centralized_newton(obj, np.ones(4), tol=1e-9, max_iter=2)
    assert np.linalg.norm(grad(obj, x)) <= 1e-9


def test_newton_on_separable_logistic():
    obj = logistic_objective((np.array([[[1.0, 0.0], [-1.0, 0.0]]]), np.array([[1.0, -1.0]])), 0.1)
    x, f = centralized_newton(obj, np.zeros(2), tol=1e-10, max_iter=100)
    assert np.all(np.isfinite(x))
    assert np.linalg.norm(grad(obj, x)) <= 1e-10


def test_newton_budget_exhaustion_carries_iterate():
    for obj, max_iter in ((make_logistic(), 1), (make_sign_logistic(12), 2)):
        with pytest.raises(ConvergenceError) as exc:
            centralized_newton(obj, np.zeros(obj.p), tol=1e-15, max_iter=max_iter)
        assert exc.value.last_iterate.shape == (obj.p,)
        with pytest.raises(ConvergenceError) as ref:
            oracle_newton(obj, np.zeros(obj.p), tol=1e-15, max_iter=max_iter)
        assert np.array_equal(exc.value.last_iterate, ref.value.last_iterate)


@pytest.mark.parametrize("seed", [12, 18])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_newton_is_bit_identical_to_its_oracle_on_logistic(seed, tol):
    obj = make_sign_logistic(seed)
    assert_same_solve(obj, np.zeros(obj.p), tol=tol, max_iter=500)


def test_newton_evaluates_f_after_a_step_taken_below_the_smallest_trial(monkeypatch):
    # f is raised by 1 away from x0 = 0, so no trial from x0 passes the Armijo test: the
    # first step is taken at t < 1e-14 unevaluated, and f there must be evaluated afresh
    # (Objective.value reads f through Objective._value, so the oracle sees the same lift)
    obj = make_logistic()
    value, calls = Objective._value, []

    def lifted(self, x):
        calls.append(np.array(x))
        f, Z = value(self, x)
        return f + float(np.any(x != 0.0)), Z
    monkeypatch.setattr(Objective, "_value", lifted)
    x, f = centralized_newton(obj, np.zeros(obj.p), tol=1e-10, max_iter=100)
    # f at x0, 47 rejected trials from t = 1 down to 2^-46, then f at the step 2^-47 d
    assert np.array_equal(calls[48], 0.5 ** 47 * calls[1])
    x_ref, f_ref = oracle_newton(obj, np.zeros(obj.p), tol=1e-10, max_iter=100)
    assert np.array_equal(x, x_ref) and f == f_ref == value(obj, x)[0] + 1.0


def test_newton_makes_one_sigmoid_pass_per_gradient(monkeypatch):
    # on the benchmark's logistic shape: each gradient's sigmoid pass also forms that
    # iterate's Hessian, f is evaluated once at x0 and once per line-search trial, and
    # each evaluation's pass for the margins Abar x also serves the gradient at that point
    obj = make_sign_logistic(1)
    counts = dict.fromkeys(("sigma", "hessians", "value", "margins"), 0)
    iterates, directions = [], []

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper
    mv = objective._mv

    def counted_mv(M, v):
        counts["margins"] += M is obj.Abar
        return mv(M, v)
    monkeypatch.setattr(objective, "expit", counted("sigma", objective.expit))
    monkeypatch.setattr(objective, "_logistic_hessians", counted("hessians", objective._logistic_hessians))
    monkeypatch.setattr(Objective, "_value", counted("value", Objective._value))
    monkeypatch.setattr(objective, "_mv", counted_mv)
    grad_stack, solve = Objective._grad_stack, objective.cho_solve

    def recorded_grad_stack(self, X, *args):
        iterates.append(np.array(X[0]))
        return grad_stack(self, X, *args)

    def recorded_solve(*args):
        directions.append(solve(*args))
        return directions[-1]
    monkeypatch.setattr(Objective, "_grad_stack", recorded_grad_stack)
    monkeypatch.setattr(objective, "cho_solve", recorded_solve)
    x, _ = centralized_newton(obj, np.zeros(obj.p), tol=1e-10)
    assert np.array_equal(iterates[-1], x)
    # the line search halves t from 1: x_{k+1} = x_k + 2^-j d_k after j + 1 trials
    trials = sum(next(j for j in range(48) if np.array_equal(x_k + 0.5 ** j * d, x_next)) + 1
                 for x_k, d, x_next in zip(iterates, directions, iterates[1:]))
    assert len(iterates) == len(directions) + 1 >= 2
    assert counts == {"sigma": len(iterates), "hessians": len(directions), "value": trials + 1,
                      "margins": trials + 1}
    # at seed 1: 5 passes for Abar x, one per f, where a gradient and a value each made one
    assert (counts["margins"], counts["sigma"], counts["hessians"]) == (5, 5, 4)


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
        lower = obj.value(x) + grad(obj, x) @ (y - x) + 0.5 * obj.mu * float((y - x) @ (y - x))
        assert obj.value(y) >= lower - 1e-9 * max(1.0, abs(obj.value(y)))


def test_label_validation():
    with pytest.raises(ValueError):
        logistic_objective((np.ones((1, 2, 2)), np.array([[1.0, 0.5]])), 0.1)


@pytest.mark.parametrize("n", [3, 64], ids=["serial", "helper"])
@pytest.mark.parametrize("in_A, bad, zero_features", [
    (True, np.nan, False), (True, np.inf, False), (True, -np.inf, False),
    (False, np.nan, False), (False, np.inf, False),
    # the sample's products with b are 0 * inf = NaN
    pytest.param(False, np.inf, True,
                 marks=pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")),
], ids=["A-nan", "A-inf", "A-neg-inf", "b-nan", "b-inf", "b-inf-zero-features"])
def test_non_finite_ridge_data_is_refused(in_A, bad, zero_features, n):
    # without the check a NaN reached the eigensolve ("Eigenvalues did not converge"), an
    # error raised on the helper thread at n = 64
    rng = np.random.default_rng(9)
    A, b = rng.standard_normal((n, 30, 20)), rng.standard_normal((n, 30))
    if zero_features:
        A[n - 1, 4] = 0.0
    if in_A:
        A[n - 1, 4, 7] = bad
    else:
        b[n - 1, 4] = bad
    with pytest.raises(ValueError, match="objective data must be finite"):
        ridge_objective((A, b), 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_logistic_features_are_refused(bad):
    A, b = logistic_data()
    A[2, 5, 1] = bad
    with pytest.raises(ValueError, match="objective data must be finite"):
        logistic_objective((A, b), 0.1)
    A, b = logistic_data()
    b[2, 5] = bad  # a label that is not finite is not +-1
    with pytest.raises(ValueError, match="logistic labels"):
        logistic_objective((A, b), 0.1)


# Ridge set-up runs its eigensolve on a helper thread from HELPER_MIN_ENTRIES Hessian
# entries on, when the process may use two CPUs

def _helper_sized_ridge_data():
    rng = np.random.default_rng(8)
    A, b = rng.standard_normal((64, 30, 20)), rng.standard_normal((64, 30))
    assert 64 * 20 ** 2 >= objective.HELPER_MIN_ENTRIES
    return A, b


def _eigensolve_threads(monkeypatch) -> list:
    """The thread that each later curvature eigensolve runs on, in call order."""
    threads = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(G):
        threads.append(threading.current_thread())
        return eigvalsh(G)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return threads


def test_helper_and_serial_set_up_give_the_same_bits(monkeypatch):
    A, b = _helper_sized_ridge_data()
    threads = _eigensolve_threads(monkeypatch)
    built = []
    for cpus in (1, 2):
        monkeypatch.setattr(objective, "cpus", lambda: cpus)
        built.append(ridge_objective((A, b), 0.5))
    here = threading.current_thread()
    assert threads[0] is here and threads[1] is not here
    serial, helper = built
    for name in ("mu", "L", "H", "c", "_H_inv", "_H_sum", "_H_mean_chol"):
        assert _bits(getattr(serial, name)) == _bits(getattr(helper, name)), name
    assert _bits(ridge_closed_form_optimum(serial)) == _bits(ridge_closed_form_optimum(helper))


def test_helper_error_reaches_the_caller_and_no_thread_outlives_set_up(monkeypatch):
    A, b = _helper_sized_ridge_data()
    monkeypatch.setattr(objective, "cpus", lambda: 2)
    before = threading.active_count()
    ridge_objective((A, b), 0.5)
    assert threading.active_count() == before
    threads = []

    def fail(G):
        threads.append(threading.current_thread())
        raise np.linalg.LinAlgError("eigensolve failed")
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(np.linalg.LinAlgError, match="eigensolve failed"):
        ridge_objective((A, b), 0.5)
    assert threads[0] is not threading.current_thread()
    assert threading.active_count() == before


def test_desk_sized_and_logistic_set_up_start_no_thread(monkeypatch):
    monkeypatch.setattr(objective, "cpus", lambda: 2)

    def no_helper(*args):
        raise AssertionError("set-up started a helper thread")
    monkeypatch.setattr(objective, "ThreadPoolExecutor", no_helper)
    threads = _eigensolve_threads(monkeypatch)
    make_ridge(n_agents=10, p=20, N=500)  # the desk instance's size
    A, _ = _helper_sized_ridge_data()
    logistic_objective((A, np.ones((64, 30))), 0.1)
    assert threads == [threading.current_thread()] * 2


# The logistic quantities as they were written when the objective held A and b: products
# of the labels b with A, read from the (A, b) the objective was built from. The objective
# holds only Abar = -b * A, and each quantity must equal its oracle to the bit.

def _oracle_sigma(A, b, X):
    return expit(-b * _mv(A, X))


def _oracle_grads(A, b, lam, X):
    s = _oracle_sigma(A, b, X)
    return _mv(_T(A), -b * s) / A.shape[-2] + lam * X, s * (1.0 - s)


def _oracle_hessians(A, w, lam):
    return np.matmul(_T(A) * w[..., None, :], A) / A.shape[-2] + lam * np.eye(A.shape[-1])


def _oracle_value(A, b, lam, x):
    return float(np.mean(_logistic_loss(b * _mv(A, x)))) + 0.5 * lam * float(x @ x)


def _oracle_residual(A, b, lam, x_star, x):
    """f(x) - f(x*) by the sample-wise formula, and whether a sample took the far branch."""
    m_star = (b * _mv(A, x_star)).ravel()
    shift = (b * _mv(A, x_star - x)).ravel()  # m* - m
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = np.expm1(shift) * expit(-m_star)
        far = np.flatnonzero(~((z > -0.5) & (z < np.inf)))
        gaps = np.log1p(z)
    gaps[far] = _logistic_loss(m_star[far] - shift[far]) - _logistic_loss(m_star[far])
    return float(np.mean(gaps)) + 0.5 * lam * float((x - x_star) @ (x + x_star)), far.size > 0


def _bits(value):
    """The bytes of a float or an array: equal bits, signed zeros told apart."""
    value = np.asarray(value)
    return value.shape, value.dtype, value.tobytes()


def _zero_row_data():
    A, b = logistic_data()
    A[1, 3] = 0.0  # a sample with no features: its margin is a zero of either sign
    return A, b


@pytest.mark.parametrize("data", [lambda: sign_logistic_data(1), lambda: sign_logistic_data(12),
                                  _zero_row_data], ids=["sign-1", "sign-12", "zero-row"])
def test_signed_features_match_the_label_products_bit_for_bit(data):
    A, b = data()
    A_before, b_before = A.copy(), b.copy()
    lam = 0.1
    obj = logistic_objective((A, b), lam)
    assert np.array_equal(A, A_before) and np.array_equal(b, b_before)  # the caller's arrays
    n, m, p = A.shape
    rng = np.random.default_rng(21)
    X, R = rng.standard_normal((n, p)), rng.standard_normal((n, p))
    # at 1e3 X most sigmoids saturate to 0 or 1 and their curvature weights are 0
    for X in (X, 1e3 * X):
        G, W = _oracle_grads(A, b, lam, X)
        got_G, got_W = obj.grad_stack(X, curvature=True)
        assert _bits(got_G) == _bits(G) and _bits(got_W) == _bits(W)
        assert _bits(obj.grad_stack(X)) == _bits(G)
        H = _oracle_hessians(A, W, lam)
        assert _bits(obj.hess_stack(X)) == _bits(H) and _bits(obj.hess_stack(X, W)) == _bits(H)
        assert _bits(obj.hess_solve(X, R)) == _bits(np.linalg.solve(H, R[..., None])[..., 0])
        for i in range(n):
            s_i = _oracle_sigma(A[i], b[i], X[i])
            H_i = _oracle_hessians(A[i], s_i * (1.0 - s_i), lam)
            assert _bits(obj.hess_solve_i(i, X[i], R[i])) == _bits(cho_solve(cho_factor(H_i), R[i]))
        assert _bits(obj.value(X[0])) == _bits(_oracle_value(A, b, lam, X[0]))
    assert np.count_nonzero(W == 0.0) > W.size // 2
    ev = np.linalg.eigvalsh(np.matmul(_T(A), A) / m)
    assert (obj.mu, obj.L) == (lam, lam + ev[:, -1].max() / 4.0)

    x_star = 0.3 * rng.standard_normal(p)
    residual = obj.residual_fn(x_star)
    near, far_x = x_star + 1e-2 * rng.standard_normal(p), x_star + 1e3 * rng.standard_normal(p)
    for x, far in ((near, False), (x_star, False), (far_x, True)):
        expected, took_far = _oracle_residual(A, b, lam, x_star, x)
        assert took_far == far
        assert _bits(residual(x[None])[0]) == _bits(expected)
