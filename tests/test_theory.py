import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cnext.compress import ALL_KINDS, make_scheme
from cnext.graph import build_ring, metropolis_hastings_weights
from cnext.theory import (Theta, TheoryConstants, build_A, check_sufficient_conditions, default_epsilon,
                          spectral_radius)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def constants_for(mu, L, rho, beta, C, r, delta, theta):
    """Assemble TheoryConstants without a Network (test-local shim)."""

    class _Net:
        def __init__(self):
            self.rho = rho
            self.beta = beta

        def rho_tilde(self, gamma):
            return (1.0 - gamma) + gamma * rho

    class _Scheme:
        pass

    s = _Scheme()
    s.C, s.r, s.delta = C, r, delta
    return TheoryConstants.build(mu, L, _Net(), s, theta)


def hand_coded_A(mu, L, rho, beta, C, a_x, a_y, c1, c2, eta, gamma, n):
    """Second, independent transcription of the 5x5 coupling matrix."""
    rt = (1 - gamma) + gamma * rho
    rb = 1 - rt
    k1, k2, k3, k4 = c1 * beta ** 2, c1 * C * beta ** 2, c2 * beta ** 2, c2 * C * beta ** 2
    return np.array([
        [1 - 3 * eta * mu / (2 * L) + eta ** 3 * mu ** 3 / (2 * L ** 3),
         eta ** 2 * L ** 2 / (mu ** 2 * n) + 2 * eta * L ** 3 / (mu ** 3 * n),
         eta ** 2 / (mu ** 2 * n) + 2 * eta * L / (mu ** 3 * n), 0, 0],
        [8 * L ** 2 * eta ** 2 * n / (mu ** 2 * rb),
         (1 + rt ** 2) / 2 + 8 * L ** 2 * eta ** 2 / (mu ** 2 * rb),
         4 * eta ** 2 / (mu ** 2 * rb),
         2 * gamma ** 2 * beta ** 2 * C ** 2 / rb, 0],
        [24 * L ** 4 * eta ** 2 * n / (mu ** 2 * rb),
         6 * L ** 2 * gamma ** 2 * beta ** 2 / rb + 24 * L ** 4 * eta ** 2 / (mu ** 2 * rb),
         (1 + rt ** 2) / 2 + 12 * L ** 2 * eta ** 2 / (mu ** 2 * rb),
         6 * L ** 2 * gamma ** 2 * beta ** 2 * C / rb,
         2 * gamma ** 2 * beta ** 2 * C / rb],
        [4 * L ** 2 * eta ** 2 * n * c1 / mu ** 2,
         gamma ** 2 * k1 + 4 * L ** 2 * eta ** 2 * c1 / mu ** 2,
         2 * eta ** 2 * c1 / mu ** 2,
         a_x + gamma ** 2 * k2, 0],
        [12 * L ** 4 * eta ** 2 * n * c2 / mu ** 2,
         3 * L ** 2 * gamma ** 2 * k3 + 12 * L ** 4 * eta ** 2 * c2 / mu ** 2,
         gamma ** 2 * k3 + 6 * L ** 2 * eta ** 2 * c2 / mu ** 2,
         3 * L ** 2 * gamma ** 2 * k4,
         a_y + gamma ** 2 * k3],
    ])


def test_opt_entry_at_step_size_boundary():
    # at eta = 2L/(3mu) the linear terms cancel and the entry equals eta^3 mu^3/(2L^3);
    # the boundary is reachable only when 2L/(3mu) <= mu/L, i.e. kappa^2 <= 3/2
    mu, L = 1.0, 1.2
    eta = 2 * L / (3 * mu)
    assert eta <= mu / L
    theta = Theta(eta=eta, gamma=0.5, alpha_x=1.0, alpha_y=1.0)
    tc = constants_for(mu, L, 0.6, 1.2, 0.75, 1.0, 0.25, theta)
    A = build_A(tc, theta, n=5).A
    assert A[0, 0] == pytest.approx(eta ** 3 * mu ** 3 / (2 * L ** 3), rel=1e-12)
    assert A[0, 0] >= 0


def test_limit_no_progress_without_steps():
    theta = Theta(eta=1e-12, gamma=1e-9, alpha_x=1.0, alpha_y=1.0)
    tc = constants_for(2.0, 3.0, 0.8, 1.3, 0.5, 1.0, 0.5, theta)
    A = build_A(tc, theta, n=4).A
    assert A[1, 1] == pytest.approx(1.0, abs=1e-8)
    assert A[0, 0] == pytest.approx(1.0, abs=1e-8)


def test_all_entries_match_hand_coded_transcription():
    rng = np.random.default_rng(77)
    for _ in range(100):
        mu = rng.uniform(0.5, 5.0)
        L = mu * rng.uniform(1.0, 10.0)
        rho = rng.uniform(0.0, 0.95)
        beta = rng.uniform(0.0, 2.0)
        C = rng.uniform(0.0, 3.0)
        r = rng.uniform(1.0, 4.0)
        delta = rng.uniform(0.05, 1.0)
        alpha = rng.uniform(0.05, 1.0) / r
        n = int(rng.integers(2, 30))
        eta = rng.uniform(0.0, 1.0) * min(2 * L / (3 * mu), mu / L)
        gamma = rng.uniform(0.01, 1.0)
        theta = Theta(eta=eta, gamma=gamma, alpha_x=alpha, alpha_y=alpha)
        tc = constants_for(mu, L, rho, beta, C, r, delta, theta)
        A = build_A(tc, theta, n).A
        oracle = hand_coded_A(mu, L, rho, beta, C, tc.a_x, tc.a_y, tc.c1, tc.c2, eta, gamma, n)
        assert np.allclose(A, oracle, rtol=1e-12, atol=0)


def test_nonnegativity_under_step_cap():
    rng = np.random.default_rng(88)
    for _ in range(200):
        mu = rng.uniform(0.5, 4.0)
        L = mu * rng.uniform(1.0, 8.0)
        theta = Theta(eta=rng.uniform(0.0, 1.0) * min(2 * L / (3 * mu), mu / L),
                      gamma=rng.uniform(0.01, 1.0), alpha_x=0.5, alpha_y=0.5)
        tc = constants_for(mu, L, rng.uniform(0, 0.9), rng.uniform(0, 2), rng.uniform(0, 2),
                           1.0, rng.uniform(0.1, 1.0), theta)
        A = build_A(tc, theta, n=6).A
        assert A.min() >= 0.0


def test_spectral_radius_trivial_cases():
    assert spectral_radius(np.zeros((5, 5))) == 0.0
    assert spectral_radius(np.diag([0.5, 0.1, 0.2, 0.3, 0.4])) == pytest.approx(0.5)


def test_spectral_radius_power_iteration_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.uniform(0.0, 1.0, size=(5, 5))
        v = np.ones(5)
        lam = 0.0
        for _ in range(2000):
            w = A @ v
            lam = np.linalg.norm(w)
            v = w / lam
        assert spectral_radius(A) == pytest.approx(lam, abs=1e-8)


def test_invalid_arguments_name_the_inequality():
    theta_bad = Theta(eta=10.0, gamma=0.5, alpha_x=1.0, alpha_y=1.0)
    tc = constants_for(1.0, 5.0, 0.5, 1.0, 0.5, 1.0, 0.5,
                       Theta(eta=0.01, gamma=0.5, alpha_x=1.0, alpha_y=1.0))
    with pytest.raises(ValueError, match="2L"):
        build_A(tc, theta_bad, n=4)
    with pytest.raises(ValueError, match="alpha"):
        constants_for(1.0, 5.0, 0.5, 1.0, 0.5, 2.0, 1.0,
                      Theta(eta=0.01, gamma=0.5, alpha_x=1.0, alpha_y=1.0))
    with pytest.raises(ValueError, match="gamma in"):
        build_A(tc, Theta(eta=0.01, gamma=1.5, alpha_x=1.0, alpha_y=1.0), n=4)
    # alpha r delta so small that tau's midpoint rounds to 1, for each stream
    for alpha_x, alpha_y, name in ((1e-20, 1.0, "tau_x"), (1.0, 1e-20, "tau_y")):
        with pytest.raises(ValueError, match=name):
            constants_for(1.0, 5.0, 0.5, 1.0, 0.5, 1.0, 0.5,
                          Theta(eta=0.01, gamma=0.5, alpha_x=alpha_x, alpha_y=alpha_y))
    with pytest.raises(ValueError, match="finite"):
        spectral_radius(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_A_beyond_float64_is_not_formed():
    # L^4 overflows float64: A(theta) is reported as not formed, rather than holding inf
    theta = Theta(eta=1e-200, gamma=0.5, alpha_x=1.0, alpha_y=1.0)
    tc = constants_for(1e10, 1e80, 0.5, 1.0, 0.5, 1.0, 0.5, theta)
    with pytest.raises(ValueError, match="float64"):
        build_A(tc, theta, n=4)
    rep = check_sufficient_conditions(tc, theta, np.ones(5), 4)
    assert not rep["pass"] and "float64" in rep["direct_contraction"]["reason"]


def test_feasible_point_report(ridge10):
    obj, net, _ = ridge10
    scheme = make_scheme("identity", obj.p)
    theta = Theta(eta=1e-10, gamma=5e-3, alpha_x=1.0, alpha_y=1.0)
    tc = TheoryConstants.build(obj.mu, obj.L, net, scheme, theta)
    eps = default_epsilon(tc, theta, net.n)
    rep = check_sufficient_conditions(tc, theta, eps, net.n)
    assert rep["pass"]
    assert rep["rho_A"] < 1
    assert rep["direct_contraction"]["ok"]
    # report is JSON-serializable and round-trips
    blob = json.dumps(rep)
    assert json.loads(blob) == json.loads(json.dumps(json.loads(blob)))


def test_eta_exceeding_gamma_over_kappa_flagged(ridge10):
    obj, net, _ = ridge10
    scheme = make_scheme("identity", obj.p)
    gamma = 5e-3
    eta = 2.0 * gamma / obj.kappa  # violates the fourth bound but stays under the cap
    theta = Theta(eta=eta, gamma=gamma, alpha_x=1.0, alpha_y=1.0)
    tc = TheoryConstants.build(obj.mu, obj.L, net, scheme, theta)
    rep = check_sufficient_conditions(tc, theta, default_epsilon(tc, theta, net.n), net.n)
    assert not rep["stsz_ok"]["gamma_over_kappa"]
    assert not rep["pass"]


def test_grid_sweep_feasible_region_nonempty_and_sound(ridge10):
    # 10x10 (eta, gamma) sweep on the ring-10 ridge constants, identity operator
    obj, net, _ = ridge10
    scheme = make_scheme("identity", obj.p)
    n_pass = 0
    for eta in np.geomspace(1e-10, 1e-3, 10):
        for gamma in np.geomspace(1e-3, 1.0, 10):
            theta = Theta(eta=float(eta), gamma=float(gamma), alpha_x=1.0, alpha_y=1.0)
            try:
                tc = TheoryConstants.build(obj.mu, obj.L, net, scheme, theta)
                eps = default_epsilon(tc, theta, net.n)
                rep = check_sufficient_conditions(tc, theta, eps, net.n)
            except ValueError:
                continue
            if rep["pass"]:
                n_pass += 1
                assert rep["rho_A"] < 1
                assert rep["direct_contraction"]["ok"]
    assert n_pass > 0


def test_both_typographic_variants_reported(ridge10):
    obj, net, _ = ridge10
    scheme = make_scheme("randomk", obj.p, k=5)
    theta = Theta(eta=1e-6, gamma=0.1, alpha_x=1.0, alpha_y=1.0)
    tc = TheoryConstants.build(obj.mu, obj.L, net, scheme, theta)
    rep = check_sufficient_conditions(tc, theta, np.ones(5), net.n)
    assert "row2_sqrt" in rep["eta_bounds"] and "row2_sqrt_proof" in rep["eta_bounds"]
    assert "rhs" in rep["system"]["eps3_floor"] and "rhs_proof" in rep["system"]["eps3_floor"]
    assert rep["eta_bounds"]["row2_sqrt_proof"] < rep["eta_bounds"]["row2_sqrt"]


def test_checker_rejects_bad_eps(ridge10):
    obj, net, _ = ridge10
    scheme = make_scheme("identity", obj.p)
    theta = Theta(eta=1e-6, gamma=0.5, alpha_x=1.0, alpha_y=1.0)
    tc = TheoryConstants.build(obj.mu, obj.L, net, scheme, theta)
    with pytest.raises(ValueError):
        check_sufficient_conditions(tc, theta, np.array([1.0, -1.0, 1.0, 1.0, 1.0]), net.n)


def _report_types(tc, theta, eps, n):
    """Check that every flag of the report is a bool and every bound a float; returns
    (A(theta) formed, pass, a bound is nan)."""
    from cnext import theory

    A = theory._point(tc, theta, n).A
    rep = check_sufficient_conditions(tc, theta, eps, n)
    direct = rep["direct_contraction"]
    entries = list(rep["system"].values())
    flags = [*rep["stsz_ok"].values(), *rep["constsz_ok"].values(), *rep["system_ok"].values(),
             direct["ok"], rep["pass"], direct["rho_lt_1"], *(entry.pop("ok") for entry in entries)]
    assert all(type(flag) is bool for flag in flags)
    bounds = [*rep["eta_bounds"].values(), *rep["gamma_bounds"].values(),
              *(v for entry in entries for v in entry.values())]
    assert all(type(bound) is float for bound in bounds)
    return A is not None, rep["pass"], bool(np.isnan(bounds).any())


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_search_ranks_by_the_reported_flags(ridge10, kind):
    # the report's flags and bounds keep their types at certified and rejected points,
    # where A(theta) cannot be formed, and at an infinite eps4, whose row-4 gamma bound is
    # inf/inf; a NaN eps is no certificate vector at all
    from cnext import theory

    obj, net, _ = ridge10
    scheme = make_scheme(kind, obj.p, b=2, k=3)
    seen = set()
    for eta in np.geomspace(1e-11, 1e-1, 6):
        for gamma in np.geomspace(1e-4, 1.0, 5):
            theta = Theta(eta=float(eta), gamma=float(gamma), alpha_x=1.0, alpha_y=0.5)
            tc = TheoryConstants.build(obj.mu, obj.L, net, scheme, theta)
            for eps in (default_epsilon(tc, theta, net.n), np.ones(5), np.array([1, 1, 1, np.inf, 1])):
                seen.add(_report_types(tc, theta, eps, net.n))
            nan_eps = np.array([np.nan, 1, 1, 1, 1])
            with pytest.raises(ValueError, match="strictly positive"):
                theory._report(theory._point(tc, theta, net.n), nan_eps)
            with pytest.raises(ValueError, match="strictly positive"):
                check_sufficient_conditions(tc, theta, nan_eps, net.n)
    assert {(False, False, False), (True, False, False), (True, False, True)} <= seen
    assert ((True, True, False) in seen) is (kind == "identity")


NET10 = metropolis_hastings_weights(build_ring(10))
# the report flag of each of theory._condition_rows, rows 5-12 of theory._rows
ROW_FLAGS = (("stsz_ok", "eps_ratio"), ("system_ok", "eps1_over_eps2"), ("stsz_ok", "row2_sqrt"),
             ("system_ok", "eps4_over_eps2"), ("stsz_ok", "row3_sqrt"), ("system_ok", "eps3_floor"),
             ("constsz_ok", "row4_sqrt"), ("constsz_ok", "row5_sqrt"))


def _displayed(report, theta):
    """Rows 5-12 decided on what the report prints beside their flags: the eta or gamma
    bound, or the system lhs against its rhs (rhs_proof for the eps3 floor)."""
    eta_b, gamma_b, system = report["eta_bounds"], report["gamma_bounds"], report["system"]
    floor1, cap4, floor3 = system["eps1_over_eps2"], system["eps4_over_eps2"], system["eps3_floor"]
    return (theta.eta <= eta_b["eps_ratio"], floor1["lhs"] >= floor1["rhs"],
            theta.eta <= eta_b["row2_sqrt_proof"], cap4["lhs"] <= cap4["rhs"],
            theta.eta <= eta_b["row3_sqrt"], floor3["lhs"] <= floor3["rhs_proof"],
            theta.gamma <= gamma_b["row4_sqrt"], theta.gamma <= gamma_b["row5_sqrt"])


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(ALL_KINDS), st.floats(1.0, 30.0), st.floats(-12.0, 0.0),
       st.floats(-5.0, 0.0), st.floats(0.05, 0.99),
       st.lists(st.floats(-8.0, 8.0), min_size=5, max_size=5),
       st.lists(st.floats(-1.0, 1.0), min_size=13, max_size=13))
def test_each_row_holds_exactly_when_its_report_flag_does(kind, kappa, log_eta, log_gamma,
                                                          alpha, log_eps, log_shift):
    # the search's one-sided rows state the checks that read eps, squared or cross-multiplied;
    # certificate row i is the report's direct check on row i of A alone, with q lowered by
    # two ulps, and rows 5-12 are the report's flags, which must agree with the bounds and
    # system entries printed beside them. Each row is tried at an eps whose bounded entry is
    # up to 10x either side of the row's tie; a row within 1e-9 of its terms' scale (for a
    # certificate row, q v_i and (A v)_i) of zero is a float tie, and decides nothing
    from cnext import theory

    scheme = make_scheme(kind, 20, b=2, k=5)
    a = alpha / (scheme.r * scheme.delta)
    theta = Theta(eta=10.0 ** log_eta * min(2.0 * kappa / 3.0, 1.0 / kappa),
                  gamma=10.0 ** log_gamma, alpha_x=a, alpha_y=a)
    tc = TheoryConstants.build(1.0, kappa, NET10, scheme, theta)
    A = build_A(tc, theta, NET10.n).A
    M = np.array(theory._rows(theory._point(tc, theta, NET10.n)))
    q, L2 = theory.contraction_rate(theta.eta, tc.kappa), float(tc.L ** 2)
    for k, i in enumerate(theory._ROW_ENTRY):
        eps = 10.0 ** np.array(log_eps)
        others = M[k, i] * eps[i] - M[k] @ eps
        if M[k, i] > 0 and others > 0:
            eps[i] = 10.0 ** log_shift[k] * others / M[k, i]
        value, v = M[k] @ eps, eps * [1.0, 1.0, L2, 1.0, L2]
        if abs(value) <= 1e-9 * (q * v[k] + A[k] @ v if k < 5 else np.abs(M[k]) @ eps):
            continue
        if k < 5:  # the report's exact decision on row k of A alone
            only_k = np.zeros((5, 5))
            only_k[k] = A[k]
            assert theory._certificate_holds(only_k.tolist(), v.tolist(), q) is bool(value >= 0), k
        else:
            report = check_sufficient_conditions(tc, theta, eps, NET10.n)
            block, name = ROW_FLAGS[k - 5]
            assert report[block][name] is bool(value >= 0) is _displayed(report, theta)[k - 5], k


def test_search_and_report_agree_on_every_map_point():
    # the report's pass at default_epsilon's vector and the search's "a certificate exists"
    # read the same rows: on theory_identity.json's 20 x 20 map (alpha = 1) they agree at every
    # point of every kind, where identity certifies 25 points and the other kinds none
    from cnext import theory
    from cnext.cli import GRID_ETA, GRID_GAMMA, Experiment
    from cnext.config import load_config

    exp = Experiment(load_config(str(CONFIGS / "theory_identity.json")))
    mu, L, n = exp.obj.mu, exp.obj.L, exp.net.n
    certified = dict.fromkeys(ALL_KINDS, 0)
    for kind in ALL_KINDS:
        scheme = make_scheme(kind, exp.obj.p, k=3)
        for eta in map(float, np.geomspace(*GRID_ETA, 20)):
            for gamma in map(float, np.geomspace(*GRID_GAMMA, 20)):
                theta = Theta(eta=eta, gamma=gamma, alpha_x=1.0, alpha_y=1.0)
                tc = TheoryConstants.build(mu, L, exp.net, scheme, theta)
                point = theory._point(tc, theta, n)
                found = point.A is not None and theory._least_certificate(theory._rows(point)) is not None
                passed = check_sufficient_conditions(tc, theta, default_epsilon(tc, theta, n), n)["pass"]
                assert passed is found, (kind, eta, gamma)
                certified[kind] += passed
    assert certified == {**dict.fromkeys(ALL_KINDS, 0), "identity": 25}


# the report's key tree, block by block, in its order; `bench/` reads "pass"
REPORT_KEYS = {
    "theta": ["eta", "gamma", "alpha_x", "alpha_y"],
    "eps": None,
    "eta_bounds": ["eps_ratio", "kappa_sqrt23", "gamma_gap_kappa6", "gamma_over_kappa", "row2_sqrt",
                   "row2_sqrt_proof", "row3_sqrt"],
    "gamma_bounds": ["one", "row4_sqrt", "row5_sqrt"],
    "stsz_ok": ["eps_ratio", "kappa_sqrt23", "gamma_gap_kappa6", "gamma_over_kappa", "row2_sqrt", "row3_sqrt"],
    "constsz_ok": ["one", "row4_sqrt", "row5_sqrt"],
    "system": {"eps1_over_eps2": ["lhs", "rhs", "ok"], "eps4_over_eps2": ["lhs", "rhs", "ok"],
               "eps3_floor": ["lhs", "rhs", "rhs_proof", "ok"]},
    "system_ok": ["eps1_over_eps2", "eps4_over_eps2", "eps3_floor"],
    "direct_contraction": ["ok", "reason", "rho_A", "rho_lt_1"],
    "rho_A": None,
    "pass": None,
}


def _key_tree(value):
    if not isinstance(value, dict):
        return None
    if all(not isinstance(v, dict) for v in value.values()):
        return list(value)
    return {k: _key_tree(v) for k, v in value.items()}


@pytest.mark.parametrize("eta, gamma, passed", [(1e-10, 0.005, True), (1e-2, 0.5, False), (0.9, 0.5, False),
                                               (1e-10, 1e-300, False)],
                         ids=["certified", "rejected", "A-not-formed", "numpy-path"])
def test_report_keys_are_pinned(ridge10, monkeypatch, eta, gamma, passed):
    from cnext import theory

    calls = []
    real = theory._report
    monkeypatch.setattr(theory, "_report", lambda *a: calls.append(a[2:]) or real(*a))
    obj, net, _ = ridge10
    theta = Theta(eta=eta, gamma=gamma, alpha_x=1.0, alpha_y=1.0)
    tc = TheoryConstants.build(obj.mu, obj.L, net, make_scheme("identity", obj.p), theta)
    report = check_sufficient_conditions(tc, theta, default_epsilon(tc, theta, net.n), net.n)
    assert json.dumps(_key_tree(report)) == json.dumps(REPORT_KEYS)
    assert report["pass"] is passed and len(calls) == 1 + (gamma == 1e-300)


@pytest.mark.parametrize("kind", ["qnbbq", "topk", "randomk"])
def test_underflowed_eps4_cap_is_no_certificate(ridge10, kind):
    # at gamma = 1e-300, 8 gamma^2 beta^2 C^2 underflows to 0: the stated eps4/eps2 cap is
    # infinite, and the point is reported, not certified, instead of dividing by zero; the
    # default eps then leaves eps4 at 1, as for C = 0, so every entry stays finite
    from cnext import theory

    obj, net, _ = ridge10
    scheme = make_scheme(kind, obj.p, b=2, k=3)
    theta = Theta(eta=1e-10, gamma=1e-300, alpha_x=1.0, alpha_y=1.0)
    tc = TheoryConstants.build(obj.mu, obj.L, net, scheme, theta)
    assert scheme.C > 0 and theory._eps4_cap(tc, theta.gamma) == np.inf
    eps = default_epsilon(tc, theta, net.n)
    assert np.all(np.isfinite(eps)) and np.all(eps > 0)
    for eps in (eps, np.ones(5)):
        assert check_sufficient_conditions(tc, theta, eps, net.n)["pass"] is False


def test_zero_rho_tilde_is_no_certificate():
    # the 2-ring has rho = 0, so rho_tilde = 0 at gamma = 1: the eps3 floor's rhs_proof is 0,
    # which no eps meets; the default eps is finite and the report rejects it, where the
    # stated-floor candidate divided by rho_tilde
    net = metropolis_hastings_weights(build_ring(2))
    theta = Theta(eta=1e-6, gamma=1.0, alpha_x=1.0, alpha_y=1.0)
    tc = TheoryConstants.build(1.0, 2.0, net, make_scheme("identity", 4), theta)
    assert tc.rho_tilde == 0.0
    eps = default_epsilon(tc, theta, net.n)
    assert np.all(np.isfinite(eps)) and np.all(eps > 0)
    report = check_sufficient_conditions(tc, theta, eps, net.n)
    assert report["pass"] is False and report["system_ok"]["eps3_floor"] is False


@pytest.mark.parametrize("mu, L", [(1e-80, 1.0), (1e-170, 1e-169)], ids=["kappa4-overflows", "mu2-underflows"])
def test_infinite_eps1_floor_is_no_certificate(mu, L):
    # kappa = 1e80, so kappa^4 overflows float64, or mu^2 underflows to 0: the eps1/eps2 floor
    # is infinite and no finite eps1 meets it; neither the default eps nor the report raises
    theta = Theta(eta=1e-90, gamma=0.5, alpha_x=1.0, alpha_y=1.0)
    tc = constants_for(mu, L, 0.5, 1.0, 0.0, 1.0, 1.0, theta)
    eps = default_epsilon(tc, theta, 2)
    assert np.all(np.isfinite(eps)) and np.all(eps > 0)
    for eps in (eps, np.ones(5)):
        with np.errstate(divide="ignore"):  # the report's numpy path divides by mu^2 = 0
            report = check_sufficient_conditions(tc, theta, eps, 2)
        assert report["pass"] is False
        assert report["system"]["eps1_over_eps2"]["rhs"] == np.inf
        assert report["system_ok"]["eps1_over_eps2"] is False


def test_search_ranks_by_the_reported_flags_on_the_numpy_path(monkeypatch):
    # with kappa = 1 and n = 10, eps2 = eps3 = 5e-324 make eps_ratio's denominator underflow
    # to 0: Python floats refuse the division, numpy float64 gives inf
    from cnext import theory

    calls = []
    real = theory._report
    monkeypatch.setattr(theory, "_report", lambda *a: calls.append(a[2:]) or real(*a))
    theta = Theta(eta=1e-3, gamma=0.5, alpha_x=1.0, alpha_y=1.0)
    tc = constants_for(mu=1.0, L=1.0, rho=0.5, beta=1.0, C=0.5, r=1.0, delta=0.5, theta=theta)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        assert _report_types(tc, theta, np.array([1.0, 5e-324, 5e-324, 1.0, 1.0]), 10)[0]
    assert calls == [(), (np.float64,)]  # the report's evaluation fell back


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=1e-6, max_value=0.66), st.floats(min_value=0.01, max_value=1.0))
def test_rho_decreases_with_eta_at_feasible_scale(scale, gamma):
    # with a well-conditioned instance the certified region is broad; the spectral
    # radius stays below 1 across it
    mu, L = 1.0, 1.2
    theta = Theta(eta=scale * min(2 * L / (3 * mu), mu / L), gamma=gamma,
                  alpha_x=1.0, alpha_y=1.0)
    tc = constants_for(mu, L, 0.3, 0.8, 0.0, 1.0, 1.0, theta)
    A = build_A(tc, theta, n=4).A
    assert np.all(A >= 0)
    assert np.isfinite(spectral_radius(A))


def test_default_epsilon_builds_A_once(monkeypatch):
    # A(theta) depends on theta alone, so one certificate search forms it once; the
    # certificate itself bounds rho(A), so the search decides no eigenvalue
    from cnext import theory

    calls = {"build_A": 0, "spectral_radius": 0, "rho_below": 0}
    for name in calls:
        real = getattr(theory, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(theory, name, counted)
    theta = Theta(eta=1e-9, gamma=0.01, alpha_x=1.0, alpha_y=1.0)
    tc = constants_for(mu=1.0, L=4.0, rho=0.8, beta=1.2, C=0.0, r=1.0, delta=1.0, theta=theta)
    default_epsilon(tc, theta, 10)
    assert calls == {"build_A": 1, "spectral_radius": 0, "rho_below": 0}


@pytest.mark.parametrize("kind", ["identity", "topk", "qnbbq"])
def test_certificate_implies_rho_below_one(kind):
    # a certificate A v <= q v (A >= 0, v > 0, q < 1) gives rho(A) <= q < 1 without an
    # eigenvalue; over a sweep every point whose default eps is one has rho(A) < 1 decided
    net = metropolis_hastings_weights(build_ring(6))
    scheme = make_scheme(kind, 8, b=2, k=3)
    certified = 0
    for eta in np.geomspace(1e-12, 1e-3, 8):
        for gamma in np.geomspace(1e-4, 1.0, 8):
            theta = Theta(eta=float(eta), gamma=float(gamma), alpha_x=0.8, alpha_y=0.8)
            tc = TheoryConstants.build(1.0, 3.0, net, scheme, theta)
            rep = check_sufficient_conditions(tc, theta, default_epsilon(tc, theta, net.n), net.n)
            direct = rep["direct_contraction"]
            if direct["ok"]:
                certified += 1
                q = 1.0 - theta.eta / (2.0 * tc.kappa)
                assert direct["rho_lt_1"] and direct["rho_A"] <= q + 1e-12
    assert certified > 0


# a row-stochastic S with power-of-two entries: rho(S) = 1, and c S is exact in float64
# for c = 1 +- 2^-40 and c = 1 - 2^-53, so rho(c S) = c is known exactly and lies inside
# the 1e-9 gate. float64 eigenvalues (OpenBLAS 0.3.31) put rho(S) and rho((1 - 2^-53) S)
# on the wrong side of 1.
STOCHASTIC = np.array([[0.125, 0.125, 0.25, 0.5, 0.0],
                       [0.25, 0.5, 0.125, 0.125, 0.0],
                       [0.0, 0.25, 0.0, 0.25, 0.5],
                       [0.5, 0.0625, 0.25, 0.125, 0.0625],
                       [0.25, 0.0625, 0.125, 0.5, 0.0625]])


@pytest.mark.parametrize("c,below", [(1.0 - 2.0 ** -40, True), (1.0 + 2.0 ** -40, False),
                                     (1.0, False), (1.0 - 2.0 ** -53, True)])
def test_rho_flag_is_exact_at_the_boundary(c, below):
    # the report's rho_lt_1 is rho_below(A, 1, rho) at the float64 rho it prints
    from cnext import theory

    A = c * STOCHASTIC
    assert np.array_equal(A / c, STOCHASTIC)  # exact scaling: rho(A) is c
    rho = spectral_radius(A)
    assert abs(rho - 1.0) <= 1e-9 and theory.rho_below(A, 1.0, rho) is below


def test_rho_flag_agrees_with_eigenvalues_off_the_boundary():
    from cnext import theory

    rng = np.random.default_rng(7)
    for _ in range(200):
        B = rng.uniform(0.0, 1.0, size=(5, 5)) * (rng.uniform(size=(5, 5)) < 0.6)
        rho = spectral_radius(B)
        if rho == 0.0:
            continue
        A = B * (rng.uniform(0.5, 1.5) / rho)
        rho_A = spectral_radius(A)
        if abs(rho_A - 1.0) > 1e-6:
            assert theory.rho_below(A, 1.0) is bool(rho_A < 1.0)
    with pytest.raises(ValueError):
        theory.rho_below(-STOCHASTIC, 1.0)


def fraction_certificate(A, v, q):
    """A v <= q v componentwise, evaluated in rationals."""
    vf = [Fraction(x) for x in v.tolist()]
    return all(sum(Fraction(a) * x for a, x in zip(row, vf)) <= Fraction(q) * vi
               for row, vi in zip(A.tolist(), vf))


def tied_certificate(exponents, q_units, weights):
    """(A, v, q) with (A v)_i = q v_i exactly in every row, also in float64.

    v_j = 2^e_j, q = q_units / 2^10 and A_ij = q v_i w_ij / v_j with w_ij = weights_ij / 16
    and each row of weights summing to 16: every product A_ij v_j and every partial sum of
    row i is v_i / 2^14 times an integer of at most 2^14, so nothing rounds.
    """
    v = np.ldexp(1.0, np.asarray(exponents))
    q = q_units / 2.0 ** 10
    A = q * np.outer(v, 1.0 / v) * np.asarray(weights, dtype=float) / 16.0
    return A, v, q


def _weight_rows(draw):
    rows = []
    for _ in range(5):
        cuts = sorted(draw(st.lists(st.integers(0, 16), min_size=4, max_size=4)))
        rows.append(np.diff([0, *cuts, 16]))
    return rows


@st.composite
def certificate_cases(draw):
    kind = draw(st.sampled_from(["random", "fit", "tie", "q_up", "q_down", "a_up", "a_down"]))
    if kind in ("random", "fit"):
        # full random mantissas, so that the products and sums round
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        A = rng.uniform(0.0, 10.0, size=(5, 5)) * (rng.uniform(size=(5, 5)) < 0.8)
        v = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=5))
        if kind == "random":
            return A, v, draw(st.floats(0.5, 1.0))
        # q fitted to the tightest row in float64, then moved by up to one ulp: the margin
        # is then within rounding error of zero, where float64 alone can get its sign wrong
        q = float(np.max(A @ v / v))
        for _ in range(abs(steps := draw(st.integers(-1, 1)))):
            q = float(np.nextafter(q, np.inf if steps > 0 else 0.0))
        return A, v, q
    A, v, q = tied_certificate(draw(st.lists(st.integers(-20, 20), min_size=5, max_size=5)),
                               draw(st.integers(512, 1024)), _weight_rows(draw))
    # one-ulp moves of q or of one positive entry of A turn the tie into a near-tie
    if kind == "q_up":
        q = float(np.nextafter(q, 2.0))
    elif kind == "q_down":
        q = float(np.nextafter(q, 0.0))
    elif kind in ("a_up", "a_down"):
        i, j = draw(st.sampled_from([tuple(ij) for ij in np.argwhere(A > 0)]))
        A[i, j] = np.nextafter(A[i, j], np.inf if kind == "a_up" else 0.0)
    return A, v, q


@settings(deadline=None, max_examples=1000)
@given(certificate_cases())
def test_certificate_agrees_with_rationals(case):
    from cnext import theory

    A, v, q = case
    assert theory._certificate_holds(A.tolist(), v.tolist(), q) is fraction_certificate(A, v, q)


def test_certificate_agrees_with_rationals_on_fitted_near_ties():
    # a fixed batch of the "fit" cases above: float64 alone, without the forward-error
    # bound, gets about one in fifty of these wrong
    from cnext import theory

    rng = np.random.default_rng(0)
    for _ in range(1000):
        A = rng.uniform(0.0, 10.0, size=(5, 5))
        v = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=5))
        q = float(np.max(A @ v / v))
        q = float(np.nextafter(q, [0.0, q, np.inf][rng.integers(3)]))
        assert theory._certificate_holds(A.tolist(), v.tolist(), q) is fraction_certificate(A, v, q)


def test_certificate_falls_back_to_rationals_only_near_a_tie(monkeypatch):
    # the exact path is the rows float64 leaves open, evaluated in integers (theory._dyadic)
    from cnext import theory

    calls = []
    real = theory._dyadic

    def counted(xs):
        calls.append(xs)
        return real(xs)

    monkeypatch.setattr(theory, "_dyadic", counted)
    A, v, q = tied_certificate([0, 3, -2, 7, 1], 1000, [[16, 0, 0, 0, 0], [4, 4, 4, 4, 0],
                                                      [1, 2, 3, 4, 6], [0, 0, 8, 0, 8],
                                                      [2, 2, 2, 2, 8]])
    v = v.tolist()
    assert theory._certificate_holds(A.tolist(), v, q) and calls
    assert not theory._certificate_holds(A.tolist(), v, float(np.nextafter(q, 0.0)))
    calls.clear()
    assert theory._certificate_holds((0.5 * A).tolist(), v, q) and not calls
    assert not theory._certificate_holds((2.0 * A).tolist(), v, q) and not calls


def fraction_minors_positive(A, s):
    """rho(A) < s for a nonnegative A by the M-matrix criterion, in rationals: every pivot of
    Gaussian elimination of sI - A without pivoting is positive."""
    m = A.shape[0]
    M = [[(Fraction(s) if i == j else 0) - Fraction(a) for j, a in enumerate(row)]
         for i, row in enumerate(A.tolist())]
    for k in range(m):
        if M[k][k] <= 0:
            return False
        for i in range(k + 1, m):
            f = M[i][k] / M[k][k]
            M[i][k + 1:] = [x - f * y for x, y in zip(M[i][k + 1:], M[k][k + 1:])]
    return True


@st.composite
def near_unit_radius(draw):
    """(A, s): a nonnegative 5 x 5 A with rho(A) within 1e-9 of s, at s = 1 or s = q < 1."""
    s = draw(st.sampled_from([1.0, draw(st.floats(0.5, 1.0, exclude_max=True))]))
    if draw(st.booleans()):  # the exactly scaled stochastic matrix, and its near misses
        c = draw(st.sampled_from([1.0, 1.0 - 2.0 ** -40, 1.0 + 2.0 ** -40, 1.0 - 2.0 ** -53]))
        return c * s * STOCHASTIC, s
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    B = rng.uniform(0.0, 1.0, size=(5, 5)) * (rng.uniform(size=(5, 5)) < 0.7)
    # subnormal entries put the common denominator at up to 2^1074
    B[rng.uniform(size=(5, 5)) < draw(st.sampled_from([0.0, 0.2]))] = 5e-324 * rng.integers(1, 2 ** 20)
    rho = spectral_radius(B)
    assume(rho > 0.0)
    A = B * (s / rho) * (1.0 + draw(st.floats(-1e-9, 1e-9)))
    assume(abs(spectral_radius(A) - s) <= 1e-9)
    return A, s


@settings(deadline=None, max_examples=300)
@given(near_unit_radius())
def test_rho_below_agrees_with_rational_elimination(case):
    # inside the 1e-9 band rho_below decides on integers (Bareiss); the rational
    # elimination it replaced is the oracle
    from cnext import theory

    A, s = case
    assert theory.rho_below(A, s) is fraction_minors_positive(A, s)


@pytest.mark.parametrize("bad, error", [(np.inf, OverflowError), (np.nan, ValueError)])
def test_rho_below_raises_on_non_finite_entries_as_rationals_do(bad, error):
    from cnext import theory

    A = STOCHASTIC.copy()
    A[2, 3] = bad
    with pytest.raises(error):
        Fraction(bad)
    with pytest.raises(error):
        theory.rho_below(A, 1.0)
    with pytest.raises(error):
        theory.rho_below(STOCHASTIC, float(bad))


def _count_eliminations(monkeypatch):
    from cnext import theory

    calls = []
    real = theory._minors_positive
    monkeypatch.setattr(theory, "_minors_positive", lambda M: calls.append(len(M)) or real(M))
    return calls


def _identity_map_points():
    """(map, tc, theta, n) at each point of theory_identity.json's 20 x 20 identity map, then of the
    benchmark's theory-sweep instance (seed 1)."""
    import sys

    from cnext.cli import GRID_ETA, GRID_GAMMA, Experiment
    from cnext.config import load_config

    exp = Experiment(load_config(str(CONFIGS / "theory_identity.json")))
    sys.path.insert(0, str(CONFIGS.parent / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(CONFIGS.parent / "bench"))
    net, obj, schemes, _, _ = workloads._theory_setup(1)
    for name, mu, L, network, scheme in (
            ("config", exp.obj.mu, exp.obj.L, exp.net, make_scheme("identity", exp.obj.p)),
            ("bench", obj.mu, obj.L, net, schemes["identity"])):
        for eta in map(float, np.geomspace(*GRID_ETA, 20)):
            for gamma in map(float, np.geomspace(*GRID_GAMMA, 20)):
                theta = Theta(eta=eta, gamma=gamma, alpha_x=1.0, alpha_y=1.0)
                yield name, TheoryConstants.build(mu, L, network, scheme, theta), theta, network.n


def test_certificate_settles_rho_below_one_without_elimination(monkeypatch):
    # where the report's certificate A v <= q v holds with q < 1, rho(A) <= q < 1 needs no
    # elimination; it agrees with rho_below forced through the exact path. On both maps
    # some certified points have rho(A) within 1e-9 of 1, where rho_below eliminates
    from cnext import theory

    eliminations = _count_eliminations(monkeypatch)
    certified, inside_band = {"config": 0, "bench": 0}, 0
    for name, tc, theta, n in _identity_map_points():
        eps = default_epsilon(tc, theta, n)
        eliminations.clear()
        direct = check_sufficient_conditions(tc, theta, eps, n)["direct_contraction"]
        # spectral_radius takes abs and max in Python: the same float as numpy's
        A = build_A(tc, theta, n).A
        assert direct["rho_A"] == float(np.max(np.abs(np.linalg.eigvals(A))))
        if not direct["ok"]:
            continue
        certified[name] += 1
        assert direct["rho_lt_1"] is True and eliminations == []
        assert theory.rho_below(A, 1.0) is True and eliminations == [5]
        inside_band += abs(direct["rho_A"] - 1.0) <= 1e-9
    assert min(certified.values()) > 0 and inside_band > 0


def test_certificate_at_a_rounded_rate_still_eliminates(monkeypatch):
    # at eta = 1e-17, q = 1 - eta/(2 kappa) rounds to 1.0: A v <= q v bounds rho(A) by 1, not
    # below it. The row-stochastic STOCHASTIC with v = 1 meets that certificate with equality
    # and has rho = 1, so rho_lt_1 must come from the elimination, and be false
    from cnext import theory

    eliminations = _count_eliminations(monkeypatch)
    theta = Theta(eta=1e-17, gamma=0.5, alpha_x=1.0, alpha_y=1.0)
    tc = constants_for(mu=1.0, L=1.0, rho=0.5, beta=1.0, C=0.0, r=1.0, delta=1.0, theta=theta)
    assert theory.contraction_rate(theta.eta, tc.kappa) == 1.0
    point = theory._Point(tc, theta, 4)
    point.A = STOCHASTIC
    direct = theory._report(point, np.ones(5))["direct_contraction"]
    assert direct["ok"] is True and direct["rho_lt_1"] is False and eliminations == [5]
    # on the map's own A(theta) too, the report eliminates at such an eta
    for _, tc, theta, n in _identity_map_points():
        theta = Theta(eta=1e-17, gamma=theta.gamma, alpha_x=1.0, alpha_y=1.0)
        eliminations.clear()
        rep = check_sufficient_conditions(tc, theta, default_epsilon(tc, theta, n), n)
        assert abs(rep["rho_A"] - 1.0) <= 1e-9 and len(eliminations) == 1
        break


def test_grid_rate_column_still_eliminates(tmp_path, capsys, monkeypatch):
    # the certificate gives rho(A) <= q, not rho(A) < q: the --grid map's rho_lt_q is decided
    # by elimination wherever rho(A) lies within 1e-9 of q, certified points included
    from cnext import cli

    eliminations = _count_eliminations(monkeypatch)
    decided = []
    real = cli.rho_below

    def recorded(A, s, rho=None):
        before = len(eliminations)
        result = real(A, s, rho)
        decided.append((bool(abs(rho - s) <= 1e-9), len(eliminations) > before))
        return result

    monkeypatch.setattr(cli, "rho_below", recorded)
    raw = json.loads((CONFIGS / "theory_identity.json").read_text())
    raw["output_dir"] = str(tmp_path / "out")
    cfg = tmp_path / "theory.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["theory", "-c", str(cfg), "--scheme", "identity", "--grid", "20"]) == 0
    rows = [line.split(",") for line in (tmp_path / "out" / "sweep_identity.csv").read_text().splitlines()[1:]]
    passed = [ok == "1" for _, _, ok, rho, *_ in rows if rho]
    assert len(decided) == len(passed) and all(near is eliminated for near, eliminated in decided)
    assert any(ok and near for ok, (near, _) in zip(passed, decided))


def test_one_point_forms_A_and_condition_rows_once(monkeypatch):
    # default_epsilon followed by check_sufficient_conditions, as the benchmark and the CLI
    # run them, and evaluate, each form A(theta) once and the float condition rows once
    from cnext import theory

    calls = {"build_A": 0, "_condition_rows": 0}
    for name in calls:
        def counted(*args, real=getattr(theory, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(theory, name, counted)
    for eta, gamma in ((1e-10, 0.005), (1e-2, 0.5), (0.9, 0.5)):  # certified, rejected, not formed
        theta = Theta(eta=eta, gamma=gamma, alpha_x=1.0, alpha_y=1.0)
        tc = TheoryConstants.build(1.0, 4.0, NET10, make_scheme("identity", 20), theta)
        calls.update(build_A=0, _condition_rows=0)
        check_sufficient_conditions(tc, theta, default_epsilon(tc, theta, NET10.n), NET10.n)
        assert calls == {"build_A": 1, "_condition_rows": 1}, eta
        theta = Theta(eta=eta, gamma=gamma, alpha_x=1.0, alpha_y=1.0)  # a new point
        calls.update(build_A=0, _condition_rows=0)
        try:
            theory.evaluate(tc, theta, NET10.n, None)
        except ValueError:
            assert eta == 0.9 and calls == {"build_A": 1, "_condition_rows": 0}
        else:
            assert calls == {"build_A": 1, "_condition_rows": 1}, eta


def test_points_never_share_an_A():
    # the memo is keyed on the constants and theta themselves: two schemes at one theta, and
    # two equal-valued constants that differ in a signed zero, each get their own A(theta)
    from dataclasses import replace

    from cnext import theory

    theta = Theta(eta=1e-6, gamma=0.5, alpha_x=0.5, alpha_y=0.5)
    tcs = [TheoryConstants.build(1.0, 4.0, NET10, make_scheme(kind, 20, k=5), theta)
           for kind in ("identity", "topk")]
    tcs.append(replace(tcs[0], C=-0.0))
    assert tcs[2] == tcs[0]
    for tc in (*tcs, *tcs):
        A, report = theory.evaluate(tc, theta, NET10.n, None)
        fresh = build_A(tc, theta, NET10.n).A
        assert np.array_equal(A, fresh) and np.array_equal(np.signbit(A), np.signbit(fresh))
        assert report["rho_A"] == spectral_radius(fresh)
        assert not A.flags.writeable and fresh.flags.writeable
    assert not np.array_equal(theory.evaluate(tcs[0], theta, NET10.n, None)[0],
                              theory.evaluate(tcs[1], theta, NET10.n, None)[0])
    assert np.signbit(theory.evaluate(tcs[2], theta, NET10.n, None)[0]).sum() > 0


@pytest.mark.parametrize("eps", [[1e300, 1e-300, 1.0, 1e300, 1e-300], [1e300, 1.0, 1e-300, 1.0, 1.0],
                                 [1.0, 1.0, 1.0, 1.0, 1.0], [1e308, 5e-324, 1.0, 1.0, 1.0]])
def test_sqrt_rows_keep_eta_where_its_square_underflows(eps):
    # at eta = 1e-300, kappa^2 eta^2 underflows float64, and at eta = 1e-310 the rows' pivot
    # gap / |eta| overflows too: row2_sqrt_proof and row3_sqrt still decide
    # 48 kappa^2 eta^2 eps_hat <= gap eps2 and 144 kappa^2 eta^2 eps_hat <= gap eps3
    # exactly as rationals do, eps_hat = 2 n eps1 + 2 eps2 + eps3
    from cnext import theory

    n = 3
    for eta in (1e-300, 1e-310):
        theta = Theta(eta=eta, gamma=0.5, alpha_x=1.0, alpha_y=1.0)
        tc = constants_for(mu=1.0, L=2.0, rho=0.5, beta=1.0, C=0.0, r=1.0, delta=1.0, theta=theta)
        e = [Fraction(x) for x in eps]
        ke = Fraction(tc.kappa) ** 2 * Fraction(theta.eta) ** 2
        gap = Fraction(theta.gamma) * (1 - Fraction(tc.rho)) * (1 - Fraction(tc.rho_tilde))
        eps_hat = 2 * n * e[0] + 2 * e[1] + e[2]
        report = check_sufficient_conditions(tc, theta, np.array(eps), n)
        assert report["stsz_ok"]["row2_sqrt"] is (48 * ke * eps_hat <= gap * e[1]), eta
        assert report["stsz_ok"]["row3_sqrt"] is (144 * ke * eps_hat <= gap * e[2]), eta
        assert report["pass"] is False  # q rounds to 1: no certificate
    # an infinite eps1 takes the float rows, as it does at any eta
    assert not check_sufficient_conditions(tc, theta, np.array([np.inf, *eps[1:]]), n)["pass"]
    # where the square does not underflow, the rows are the unscaled statement, float for float
    theta = Theta(eta=1e-10, gamma=0.5, alpha_x=1.0, alpha_y=1.0)
    ke, sq = tc.kappa ** 2 * theta.eta ** 2, theta.gamma * (1.0 - tc.rho) * (1.0 - tc.rho_tilde)
    rows = theory._condition_rows(tc, theta, n)
    assert rows[2] == [-96.0 * n * ke, sq - 96.0 * ke, -48.0 * ke, 0.0, 0.0]
    assert rows[4] == [-288.0 * n * ke, -288.0 * ke, sq - 144.0 * ke, 0.0, 0.0]
