"""Contraction matrix A(theta), its spectral radius, and the sufficient-condition checks.

The coupled evolution of (optimization, consensus, tracking, two compression-memory)
squared errors obeys e(t+1) <= A(theta) e(t) componentwise whenever
eta <= min(2L/(3mu), mu/L); rho(A) < 1 then yields a linear rate. The sufficient
conditions bound eta and gamma through a positive certificate vector
eps = (eps1, eps2, L^2 eps3, eps4, L^2 eps5) with A eps <= q eps, q = 1 - eta/(2 kappa).
For eta > 0, A is nonnegative and q < 1, so the certificate alone gives rho(A) <= q < 1
(the Collatz-Wielandt bound): `default_epsilon` decides no eigenvalue, and the report
eliminates only where the certificate does not settle rho(A) < 1.

Both yes/no decisions the report rests on are exact for the float64 A, eps and q it is
given. Each float64 is an integer times a power of two, so over one common power of two
(`_dyadic`) they are integers, and the exact decisions run in Python integers. rho(A) < 1
is read from float64 eigenvalues away from 1 and, within 1e-9 of it, from the signs of the
leading principal minors of I - A (the M-matrix criterion), which Bareiss's fraction-free
elimination yields as its pivots; where the certificate holds with q < 1, it is true
without elimination. The certificate is decided in float64 when every row's margin clears
a forward-error bound, and in integers only for the rows where one does not.

The eight conditions that read eps are stated once, as the rows of `_condition_rows`: the
report's flags for them are the rows' signs at eps, and `default_epsilon`'s search reads
the same rows, so the two cannot disagree (but for row2_sqrt and row3_sqrt at a subnormal
eta, where no certificate exists). The bounds printed beside those flags are display.
A(theta) and those rows are formed once per point (`_point`), and the search and the report
each read both from that one point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .compress import CompressionScheme
from .graph import Network
from .objective import Objective
from .solver import HyperParams

# the certificate margins scale like eta/kappa and rho(A) can sit within a few ulps of 1,
# so float64 decides only where its rounding error cannot flip the answer
_RHO_GATE = 1e-9
_U = 2.0 ** -53  # unit roundoff of float64
# gamma_k = k u / (1 - k u) bounds the relative error of k chained float64 operations
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3). The certificate's row
# margin m_i = fl(fl(q v_i) - fl((A v)_i)) carries gamma_5 (|A||v|)_i from the 5-term dot
# product, in any summation order, with or without FMA, and u |q v_i| from the product
# q v_i; the final subtraction is correctly rounded and keeps the sign of the difference.
# So the exact margin is within gamma_5 ((|A||v|)_i + |q v_i|) of that difference.
# Forming the bound in float64 (a 5-term sum, one addition, the constant, one product and
# the absolute term, all nonnegative) shrinks it by at most a factor (1 - gamma_9), and
# comparing it with the rounded margin costs a factor (1 + u). k = 6 covers both, as
# gamma_6 (1 - gamma_9) / (1 + u) > gamma_5. The absolute term covers gradual underflow:
# each of the six products, and the bound's own terms, lose at most half a subnormal ulp,
# 2^-1075, which the smallest normal number, 2^-1022, exceeds many times over.
_CERT_GAMMA = 6 * _U / (1.0 - 6 * _U)
_CERT_TINY = float(np.finfo(float).tiny)


class DomainError(ValueError):
    """theta lies outside the domain of the theory (eta <= 0 or gamma <= 0): an input
    error, unlike a violated sufficient condition, which is reported."""


@dataclass(frozen=True)
class Theta:
    """Hyperparameter vector (eta, gamma, alpha_x, alpha_y)."""

    eta: float
    gamma: float
    alpha_x: float
    alpha_y: float


@dataclass(frozen=True)
class TheoryConstants:
    mu: float
    L: float
    kappa: float
    rho: float
    rho_tilde: float
    beta: float
    C: float
    c1: float
    c2: float
    a_x: float
    a_y: float
    k1: float
    k2: float
    k3: float
    k4: float

    @classmethod
    def build(cls, mu: float, L: float, net: Network, scheme: CompressionScheme,
              theta: Theta) -> "TheoryConstants":
        """Derive every constant from the problem, network, scheme and theta.

        tau is the midpoint of its admissible open interval (1, 1/(1 - alpha r delta));
        when alpha r delta = 1 the interval is (1, inf) and tau = 2 is used. The guards
        below still fire where alpha r delta is so small that the midpoint rounds to 1.
        """
        rho, beta = net.rho, net.beta
        rho_tilde = net.rho_tilde(theta.gamma)
        C, r, delta = scheme.C, scheme.r, scheme.delta
        tau_x = _tau_midpoint(theta.alpha_x, r, delta)
        tau_y = _tau_midpoint(theta.alpha_y, r, delta)
        a_x = tau_x * alpha_slack(theta.alpha_x, r, delta)
        a_y = tau_y * alpha_slack(theta.alpha_y, r, delta)
        if tau_x <= 1 or a_x >= 1:
            raise ValueError(f"tau_x={tau_x} must satisfy 1 < tau_x with a_x = tau_x(1 - alpha_x r delta) < 1, got a_x={a_x}")
        if tau_y <= 1 or a_y >= 1:
            raise ValueError(f"tau_y={tau_y} must satisfy 1 < tau_y with a_y = tau_y(1 - alpha_y r delta) < 1, got a_y={a_y}")
        c1 = 3.0 * tau_x / (tau_x - 1.0)
        c2 = 3.0 * tau_y / (tau_y - 1.0)
        return cls(mu=mu, L=L, kappa=L / mu, rho=rho, rho_tilde=rho_tilde, beta=beta,
                   C=C, c1=c1, c2=c2, a_x=a_x, a_y=a_y,
                   k1=c1 * beta ** 2, k2=c1 * C * beta ** 2,
                   k3=c2 * beta ** 2, k4=c2 * C * beta ** 2)


def step_cap(mu: float, L: float) -> float:
    """The step-size cap min(2L/(3mu), mu/L) under which e(t+1) <= A(theta) e(t) holds."""
    return min(2.0 * L / (3.0 * mu), mu / L)


def contraction_rate(eta: float, kappa: float) -> float:
    """q = 1 - eta/(2 kappa), the rate a certificate A v <= q v proves: rho(A) <= q."""
    return 1.0 - eta / (2.0 * kappa)


def alpha_slack(alpha: float, r: float, delta: float) -> float:
    """1 - alpha r delta; the theory admits the compression step alpha when it is >= 0."""
    return 1.0 - alpha * r * delta


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


def _tau_midpoint(alpha: float, r: float, delta: float) -> float:
    s = alpha_slack(alpha, r, delta)
    if s < 0:
        raise ValueError(f"alpha r delta = {alpha * r * delta} exceeds 1; "
                         f"need alpha in (0, 1/(r delta)] = (0, {1.0 / (r * delta):.6g}]")
    if s == 0.0:
        return 2.0
    return 0.5 * (1.0 + 1.0 / s)


@dataclass(frozen=True)
class ContractionMatrix:
    A: np.ndarray  # 5 x 5, nonnegative under the step-size cap


def build_A(tc: TheoryConstants, theta: Theta, n: int) -> ContractionMatrix:
    """Fill the 25 entries of the error-coupling matrix.

    Raises on violated preconditions, naming the broken inequality (DomainError for
    eta <= 0 or gamma <= 0); a_x, a_y < 1 hold by TheoryConstants.build.
    """
    mu, L, C = float(tc.mu), float(tc.L), tc.C  # Python floats, for speed: the same values
    eta, gamma = theta.eta, theta.gamma
    eta_cap = step_cap(mu, L)
    if not eta > 0:
        raise DomainError(f"eta > 0 violated: eta={eta}")
    if not gamma > 0:
        raise DomainError(f"gamma in (0, 1] violated: gamma={gamma}")
    if eta > eta_cap:
        raise ValueError(f"eta <= min(2L/(3mu), mu/L) violated: eta={eta} > {eta_cap:.6g}")
    if not gamma <= 1:
        raise ValueError(f"gamma in (0, 1] violated: gamma={gamma}")
    rt = tc.rho_tilde
    rb = 1.0 - rt
    if rb <= 0:
        raise ValueError(f"1 - rho_tilde must be positive, got {rb}")
    b2, g2, e2 = tc.beta ** 2, gamma ** 2, eta ** 2

    try:
        A = [[1.0 - 1.5 * eta * mu / L + 0.5 * eta ** 3 * mu ** 3 / L ** 3,
              e2 * L ** 2 / (mu ** 2 * n) + 2.0 * eta * L ** 3 / (mu ** 3 * n),
              e2 / (mu ** 2 * n) + 2.0 * eta * L / (mu ** 3 * n), 0.0, 0.0],
             [8.0 * L ** 2 * e2 * n / (mu ** 2 * rb),
              (1.0 + rt ** 2) / 2.0 + 8.0 * L ** 2 * e2 / (mu ** 2 * rb),
              4.0 * e2 / (mu ** 2 * rb), 2.0 * g2 * b2 * C ** 2 / rb, 0.0],
             [24.0 * L ** 4 * e2 * n / (mu ** 2 * rb),
              6.0 * L ** 2 * g2 * b2 / rb + 24.0 * L ** 4 * e2 / (mu ** 2 * rb),
              (1.0 + rt ** 2) / 2.0 + 12.0 * L ** 2 * e2 / (mu ** 2 * rb),
              6.0 * L ** 2 * g2 * b2 * C / rb, 2.0 * g2 * b2 * C / rb],
             [4.0 * L ** 2 * e2 * n * tc.c1 / mu ** 2,
              g2 * tc.k1 + 4.0 * L ** 2 * e2 * tc.c1 / mu ** 2,
              2.0 * e2 * tc.c1 / mu ** 2, tc.a_x + g2 * tc.k2, 0.0],
             [12.0 * L ** 4 * e2 * n * tc.c2 / mu ** 2,
              3.0 * L ** 2 * g2 * tc.k3 + 12.0 * L ** 4 * e2 * tc.c2 / mu ** 2,
              g2 * tc.k3 + 6.0 * L ** 2 * e2 * tc.c2 / mu ** 2,
              3.0 * L ** 2 * g2 * tc.k4, tc.a_y + g2 * tc.k3]]
    except ArithmeticError as exc:  # an overflow, or a division by an underflowed power of mu
        raise ValueError(f"A(theta) leaves the float64 range: {exc}") from exc
    return ContractionMatrix(A=np.array(A))


def spectral_radius(A: np.ndarray) -> float:
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return max(map(abs, np.linalg.eigvals(A).tolist()))


def _dyadic(xs: list[float]) -> list[int]:
    """The floats xs times their largest denominator, a power of two: integers in the same
    ratios and with the same signs, so that sums, products and comparisons of them are exact.
    A non-finite entry raises as `Fraction` does: OverflowError for inf, ValueError for NaN."""
    ratios = [x.as_integer_ratio() for x in xs]
    top = max(den for _, den in ratios).bit_length()
    return [num << (top - den.bit_length()) for num, den in ratios]


def rho_below(A: np.ndarray, s: float, rho: float | None = None) -> bool:
    """rho(A) < s for a nonnegative A: read from rho, rho(A) from float64 eigenvalues, when
    it lies farther than _RHO_GATE from s, and otherwise decided exactly in integers.

    sI - A is then a Z-matrix, and rho(A) < s holds exactly when sI - A is a nonsingular
    M-matrix, that is when every leading principal minor of sI - A is positive (Berman &
    Plemmons, Nonnegative Matrices in the Mathematical Sciences, ch. 6). `_minors_positive`
    decides that on sI - A scaled to integers by `_dyadic`, which scales each minor by a
    positive factor.
    """
    if rho is not None and abs(rho - s) > _RHO_GATE:
        return rho < s
    if np.any(A < 0):
        raise ValueError("the M-matrix criterion for rho(A) < s needs a nonnegative A")
    m = A.shape[0]
    si, *a = _dyadic([s, *A.ravel().tolist()])
    return _minors_positive([[(si if i == j else 0) - a[i * m + j] for j in range(m)] for i in range(m)])


def _minors_positive(M: list[list[int]]) -> bool:
    """Every leading principal minor of the square integer matrix M is positive, by Bareiss's
    fraction-free elimination (Math. Comp. 22, 1968), which it overwrites: its k-th pivot is
    the k-th leading minor, and each division by the previous pivot is exact. It stops at
    the first pivot that is not positive."""
    prev = 1
    for k, top in enumerate(M):
        pivot = top[k]
        if pivot <= 0:
            return False
        for row in M[k + 1:]:
            f = row[k]
            row[k + 1:] = [(x * pivot - f * y) // prev for x, y in zip(row[k + 1:], top[k + 1:])]
        prev = pivot
    return True


def _certificate_holds(A: list[list[float]], v: list[float], q: float) -> bool:
    """A v <= q v componentwise, decided exactly for the float64 A (its rows), v and q.

    float64 decides every row whose margin q v_i - (A v)_i clears the forward-error bound
    _CERT_GAMMA ((|A||v|)_i + |q v_i|) + _CERT_TINY; only the rows it leaves open are
    evaluated exactly, in integers: row i and q over one power of two, and v over another,
    which scales both sides of the row by the same positive factor. Non-finite entries fail
    the certificate.
    """
    if not all(map(math.isfinite, chain(v, *A))):
        return False
    open_rows = []
    for i, row in enumerate(A):
        qv, av, abs_av = q * v[i], 0.0, 0.0
        for a, x in zip(row, v):
            av += a * x
            abs_av += abs(a * x)
        margin, bound = qv - av, _CERT_GAMMA * (abs_av + abs(qv)) + _CERT_TINY
        # an overflowed margin or bound (inf or nan) fails both comparisons: integers decide
        if margin < -bound:
            return False
        if not margin > bound:
            open_rows.append(i)
    if not open_rows:
        return True
    vi = _dyadic(v)
    for i in open_rows:
        qi, *row = _dyadic([q, *A[i]])
        if sum(a * x for a, x in zip(row, vi)) > qi * vi[i]:
            return False
    return True


class _Point:
    """What one (tc, theta, n) fixes, each formed once: A(theta), read-only, or the ValueError
    that refuses it, and the float condition rows, built on first read."""

    __slots__ = ("tc", "theta", "n", "A", "error", "_rows")

    def __init__(self, tc: TheoryConstants, theta: Theta, n: int):
        self.tc, self.theta, self.n, self._rows = tc, theta, n, None
        try:
            self.A, self.error = build_A(tc, theta, n).A, None
            self.A.flags.writeable = False
        except ValueError as exc:
            self.A, self.error = None, exc

    def condition_rows(self) -> list[list[float]]:
        if self._rows is None:
            self._rows = _condition_rows(self.tc, self.theta, self.n)
        return self._rows


_last: _Point | None = None


def _point(tc: TheoryConstants, theta: Theta, n: int) -> _Point:
    """The point of (tc, theta, n), shared by `default_epsilon` and `check_sufficient_conditions`
    (or `evaluate`) at one theta through a one-entry memo. The memo is keyed on the objects,
    not on their values: it holds them, so a match is the same immutable constants, where
    equal values could still differ in a signed zero. Threads that race on it can only form
    a point twice."""
    global _last
    p = _last
    if p is None or p.tc is not tc or p.theta is not theta or p.n != n:
        p = _last = _Point(tc, theta, n)
    return p


def check_sufficient_conditions(tc: TheoryConstants, theta: Theta, eps: np.ndarray, n: int) -> dict:
    """Evaluate the sufficient step-size conditions and the eps-certificate they imply.

    Returns a JSON-serializable report: one entry per inequality, both typographic
    variants where the source conditions are uneven (reported separately; the overall
    flag uses the stricter one), the direct componentwise check
    A (eps1, eps2, L^2 eps3, eps4, L^2 eps5) <= (1 - eta/(2 kappa)) * same,
    and rho(A). Never raises on infeasible parameters; it reports them.
    """
    return _report(_point(tc, theta, n), eps)


def evaluate(tc: TheoryConstants, theta: Theta, n: int,
             eps: np.ndarray | tuple[float, ...] | None) -> tuple[np.ndarray, dict]:
    """A(theta) and the check_sufficient_conditions report on eps, or on default_epsilon's
    vector when eps is None, from one A(theta) and one rho(A) decision. Raises ValueError
    when A(theta) cannot be formed. The A returned is the point's own, read-only."""
    p = _point(tc, theta, n)
    if p.error is not None:
        raise p.error
    if eps is None:
        eps = _epsilon(p)
    return p.A, _report(p, eps)


def _eps1_floor(tc: TheoryConstants, e2: float, e3: float, n: int) -> float:
    """The stated floor on eps1/eps2; infinite where it overflows float64 (kappa^4 > 1.8e308)."""
    try:
        return 6.0 * tc.kappa ** 4 / n + 6.0 * tc.kappa ** 2 * e3 / (tc.mu ** 2 * n * e2)
    except (OverflowError, ZeroDivisionError):  # the latter where mu^2 underflows
        return math.inf


def _eps4_cap(tc: TheoryConstants, gamma: float) -> float:
    """The stated cap on eps4/eps2; none when C = 0, or when gamma^2 beta^2 C^2 underflows."""
    den = 8.0 * gamma ** 2 * tc.beta ** 2 * tc.C ** 2
    return np.inf if den == 0.0 else (1.0 - tc.rho_tilde) * (1.0 - tc.rho) / den


def _report(p: _Point, eps: np.ndarray, num: type = float) -> dict:
    """The check_sufficient_conditions report on the point p: its A(theta), or the refusal
    of it, and its condition rows. Each entry is computed once from eps in the scalar type
    num: Python floats, or numpy float64, with IEEE inf and nan, where those raise (a zero
    division, the root of a negative number or an overflowed power). Where statement and
    derivation disagree typographically, both bounds are printed and the flag is the
    derivation's row: row2_sqrt's is row2_sqrt_proof's, and eps3_floor's is rhs_proof's (the
    statement's makes its own feasible set empty as gamma -> 0)."""
    tc, theta, n, A = p.tc, p.theta, p.n, p.A
    eps = np.asarray(eps, dtype=float)
    e = eps.tolist()
    if eps.shape != (5,) or not all(x > 0 for x in e):  # a NaN entry fails too
        raise ValueError("eps must be 5 strictly positive reals")
    sqrt = math.sqrt if num is float else np.sqrt
    e1, e2, e3, e4, e5 = map(num, e)
    eta, gamma, C, kappa = float(theta.eta), float(theta.gamma), tc.C, num(tc.kappa)
    try:
        rho, rt, rb, b2, k2 = tc.rho, tc.rho_tilde, 1.0 - tc.rho_tilde, tc.beta ** 2, kappa ** 2
        eps_hat = 2.0 * n * e1 + 2.0 * e2 + e3
        eps_bar = tc.k1 * e2 + tc.k2 * e4
        eps_breve = 3.0 * tc.k3 * e2 + tc.k3 * e3 + 3.0 * tc.k4 * e4 + tc.k3 * e5
        gap = gamma * (1.0 - rho) * rb
        eta_bounds = {
            "eps_ratio": e1 / (3.0 * kappa ** 3 * e2 / n + 3.0 * kappa * e3 / (num(tc.mu) ** 2 * n)),
            "kappa_sqrt23": kappa * sqrt(2.0 / 3.0), "gamma_gap_kappa6": gamma * (1.0 - rho) * kappa / 6.0,
            "gamma_over_kappa": gamma / kappa, "row2_sqrt": (0.25 / kappa) * sqrt(gap * e2 / eps_hat),
            "row2_sqrt_proof": (0.25 / kappa) * sqrt(gap * e2 / (3.0 * eps_hat)),
            "row3_sqrt": (1.0 / (12.0 * kappa)) * sqrt(gap * e3 / eps_hat)}
        gamma_bounds = {
            "one": 1.0,
            "row4_sqrt": sqrt((1.0 - tc.a_x) * e4 / (2.0 * tc.c1 * eps_hat + eps_bar + e4 / (2.0 * k2))),
            "row5_sqrt": sqrt((1.0 - tc.a_y) * e5 / (6.0 * tc.c2 * eps_hat + eps_breve + e5 / (2.0 * k2)))}
        rhs3 = [r * (1.0 - rho) * e3 / (24.0 * gamma * b2) if b2 != 0.0 else math.inf for r in (rb, rt)]
        system = {"eps1_over_eps2": {"lhs": e1 / e2, "rhs": _eps1_floor(tc, e2, e3, n)},
                  "eps4_over_eps2": {"lhs": e4 / e2, "rhs": _eps4_cap(tc, gamma)},
                  "eps3_floor": {"lhs": 3.0 * e2 + 3.0 * C * e4 + C * e5, "rhs": rhs3[0], "rhs_proof": rhs3[1]}}
        rows = p.condition_rows() if num is float else _condition_rows(tc, theta, n, num)
        ratio, floor1, row2, cap4, row3, floor3, row4, row5 = [
            bool(m1 * e1 + m2 * e2 + m3 * e3 + m4 * e4 + m5 * e5 >= 0) for m1, m2, m3, m4, m5 in rows]
        if rows[2][1] == math.inf and all(map(math.isfinite, e[:3])):
            row2, row3 = _sqrt_rows_exact(tc, theta, n, e)  # gap / |eta| overflowed in the rows
    except (ArithmeticError, ValueError):
        if num is not float:
            raise
        with np.errstate(all="ignore"):  # its infinities and NaNs are the point
            return _report(p, eps, np.float64)
    eta_bounds = {name: float(x) for name, x in eta_bounds.items()}
    stsz_ok = {"eps_ratio": ratio, "kappa_sqrt23": eta <= eta_bounds["kappa_sqrt23"],
               "gamma_gap_kappa6": eta <= eta_bounds["gamma_gap_kappa6"],
               "gamma_over_kappa": eta <= eta_bounds["gamma_over_kappa"], "row2_sqrt": row2, "row3_sqrt": row3}
    constsz_ok = {"one": gamma <= 1.0, "row4_sqrt": row4, "row5_sqrt": row5}
    system_ok = {"eps1_over_eps2": floor1, "eps4_over_eps2": cap4, "eps3_floor": floor3}
    ok, rho_A, rho_lt_1 = False, None, False
    reason = None if p.error is None else str(p.error)
    if A is not None:
        L2, rows = float(tc.L ** 2), A.tolist()
        v, q = [e[0], e[1], L2 * e[2], e[3], L2 * e[4]], contraction_rate(eta, float(tc.kappa))
        ok = _certificate_holds(rows, v, q)
        # A v <= q v with A >= 0, v > 0 and q < 1 gives rho(A) <= q < 1 (Collatz-Wielandt):
        # rho(A) < 1 without an elimination. Not where q rounds to 1 (eta/(2 kappa) < 2^-53)
        bounded = ok and q < 1.0 and min(v) > 0.0 and min(map(min, rows)) >= 0.0
        try:
            rho = spectral_radius(A)
            rho_A, rho_lt_1 = rho, bounded or rho_below(A, 1.0, rho)
        except ValueError as exc:  # a non-finite A, or a negative one near rho(A) = 1
            reason = str(exc)
    return {"theta": dict(vars(theta)), "eps": e, "eta_bounds": eta_bounds,
            "gamma_bounds": {name: float(x) for name, x in gamma_bounds.items()},
            "stsz_ok": stsz_ok, "constsz_ok": constsz_ok,
            "system": {name: {**{k: float(x) for k, x in entry.items()}, "ok": system_ok[name]}
                       for name, entry in system.items()},
            "system_ok": system_ok,
            "direct_contraction": {"ok": ok, "reason": reason, "rho_A": rho_A, "rho_lt_1": rho_lt_1},
            "rho_A": rho_A,
            "pass": all((*stsz_ok.values(), *constsz_ok.values(), *system_ok.values(), ok, rho_lt_1))}


def _sqrt_rows_exact(tc: TheoryConstants, theta: Theta, n: int, e: list[float]) -> tuple[bool, bool]:
    """row2_sqrt_proof and row3_sqrt decided in integers: 48 kappa^2 eta^2 eps_hat <= gap eps2
    and 144 kappa^2 eta^2 eps_hat <= gap eps3, eps_hat = 2 n eps1 + 2 eps2 + eps3 and
    gap = gamma (1 - rho)(1 - rho_tilde), for the rows' float kappa, eta, gamma, rho and rho_tilde."""
    one, kappa, eta, gamma, rho, rt, e1, e2, e3 = _dyadic(
        [1.0, tc.kappa, theta.eta, theta.gamma, tc.rho, tc.rho_tilde, *e[:3]])
    lhs = kappa ** 2 * eta ** 2 * (2 * n * e1 + 2 * e2 + e3)  # each side of degree 5 in the scale `one`
    gap = one * gamma * (one - rho) * (one - rt)
    return 48 * lhs <= gap * e2, 144 * lhs <= gap * e3


def default_epsilon(tc: TheoryConstants, theta: Theta, n: int) -> np.ndarray:
    """The certificate vector for check_sufficient_conditions: the least one in the rows of
    A(theta), or `_stated_floor_epsilon` where none exists or A(theta) cannot be formed."""
    return _epsilon(_point(tc, theta, n))


def _epsilon(p: _Point) -> np.ndarray:
    try:
        e = None if p.A is None else _least_certificate(_rows(p))
    except ArithmeticError:  # rho_tilde or 1 - rho is 0, or a power of kappa overflows
        e = None
    return _stated_floor_epsilon(p.tc, p.theta, p.n) if e is None else e


# the eps entry each row of `_rows` bounds from below, the rows of each entry, the pivots
_ROW_ENTRY = (0, 1, 2, 3, 4, 0, 0, 1, 1, 2, 2, 3, 4)
_GROUPS = [[k for k, i in enumerate(_ROW_ENTRY) if i == entry] for entry in range(5)]
_PIVOTS = (np.arange(13), np.array(_ROW_ENTRY))


def _rows(p: _Point) -> list[list[float]]:
    """The 13 rows of M the certificate search reads at the point p, each holding when
    M[k] @ eps >= 0. Row k bounds entry i = _ROW_ENTRY[k]: M[k][i] is its pivot coefficient
    and the other entries are <= 0. Rows 0-4 are the certificate (qI - A) D, D = diag(1, 1, L^2, 1, L^2), with pivots
    (q - A_ii) D_ii, exact as q and A_ii are floats near 1; rows 5-12 are `_condition_rows`."""
    L2 = float(p.tc.L ** 2)
    # q less two ulps: float64 misses the exact rate 1 - eta mu/(2L), which is at least 1/2
    # under the step cap, by less than that, so a certificate for this q holds for both
    q, d = contraction_rate(p.theta.eta, float(p.tc.kappa)) - 2.0 ** -52, (1.0, 1.0, L2, 1.0, L2)
    return [[(q - a if i == j else -a) * dj for j, (a, dj) in enumerate(zip(row, d))]
            for i, row in enumerate(p.A.tolist())] + p.condition_rows()


def _condition_rows(tc: TheoryConstants, theta: Theta, n: int, num: type = float) -> list[list]:
    """The eight report checks that read eps, squared or cross-multiplied into rows that hold
    when row @ eps >= 0, in the scalar type num of `_report` (Python floats raise where
    rho_tilde or gamma is 0 or a power of kappa overflows): eps_ratio and the eps1/eps2 floor,
    row2_sqrt_proof and the eps4/eps2 cap, row3_sqrt and the eps3 floor's rhs_proof,
    row4_sqrt, and row5_sqrt. The rows of row2_sqrt_proof and row3_sqrt are divided by |eta|
    where kappa^2 eta^2 would underflow and take their eta terms with it. Where eta is so
    small that their pivot gap / |eta| overflows too, they hold for every eps, and `_report`
    decides those two flags in integers instead; no certificate exists there, as q rounds to 1."""
    eta, gamma, C, rho, rt, kappa = map(num, (theta.eta, theta.gamma, tc.C, tc.rho, tc.rho_tilde, tc.kappa))
    g2, k2, mu2, b2 = gamma ** 2, kappa ** 2, num(tc.mu) ** 2, num(tc.beta) ** 2
    ke, sq = k2 * eta ** 2, gamma * (1.0 - rho) * (1.0 - rt)  # the sqrt bounds, squared
    if ke < _CERT_TINY and eta != 0.0:  # kappa^2 eta^2 underflows: rows 2 and 4 over |eta|
        ke, sq = k2 * abs(eta), sq / abs(eta)
    inv_cap = 8.0 * g2 * b2 * C ** 2 / ((1.0 - rt) * (1.0 - rho))  # 1 / _eps4_cap
    f3 = 24.0 * gamma * b2 / (rt * (1.0 - rho))  # the eps3 floor, per unit of lhs3
    return [
        [1.0, -3.0 * eta * kappa ** 3 / n, -3.0 * eta * kappa / (mu2 * n), 0.0, 0.0],
        [1.0, -6.0 * kappa ** 4 / n, -6.0 * k2 / (mu2 * n), 0.0, 0.0],
        [-96.0 * n * ke, sq - 96.0 * ke, -48.0 * ke, 0.0, 0.0],
        [0.0, 1.0, 0.0, -inv_cap, 0.0],
        [-288.0 * n * ke, -288.0 * ke, sq - 144.0 * ke, 0.0, 0.0],
        [0.0, -3.0 * f3, 1.0, -3.0 * C * f3, -C * f3],
        [-4.0 * n * tc.c1 * g2, -g2 * (4.0 * tc.c1 + tc.k1), -2.0 * tc.c1 * g2,
         1.0 - tc.a_x - g2 * (tc.k2 + 0.5 / k2), 0.0],
        [-12.0 * n * tc.c2 * g2, -g2 * (12.0 * tc.c2 + 3.0 * tc.k3), -g2 * (6.0 * tc.c2 + tc.k3),
         -3.0 * tc.k4 * g2, 1.0 - tc.a_y - g2 * (tc.k3 + 0.5 / k2)]]


def _least_certificate(M: list[list[float]]) -> np.ndarray | None:
    """The least e with e_i >= 1 + P[k] @ e for each row k of entry i = _ROW_ENTRY[k], where
    P[k] = -M[k] / M[k][i] off the pivot, so that M[k] @ e >= M[k][i], by Howard's policy
    iteration: solve (I - P_policy) e = 1 for one row per entry, move each entry to its
    largest row at e, and stop when none grows; none of the 3 * 3 * 3 * 2 * 2 = 108 policies
    recurs. None when a pivot is <= 0 or a solve is singular or not positive: then
    rho(P_policy) >= 1 (Collatz-Wielandt), and no e > 0 has M e > 0."""
    pivot = [M[k][i] for k, i in enumerate(_ROW_ENTRY)]
    if not all(p > 0 for p in pivot):  # a row whose other terms are positive cannot hold
        return None
    P = np.array(M) / -np.array(pivot)[:, None]
    P[_PIVOTS] = 0.0
    policy = list(range(5))
    for _ in range(108):
        try:
            e = np.linalg.solve(np.eye(5) - P[policy], np.ones(5))
        except np.linalg.LinAlgError:
            return None
        if not np.all(e > 0):  # also a NaN
            return None
        gain = (P @ e).tolist()
        best = [max(group, key=gain.__getitem__) for group in _GROUPS]
        if all(gain[k] <= gain[j] for k, j in zip(best, policy)):
            return e
        policy = best
    return None


def _stated_floor_epsilon(tc: TheoryConstants, theta: Theta, n: int) -> np.ndarray:
    """Chain the stated structural inequalities into equalities with a small margin."""
    rho, rt, b2, C = tc.rho, tc.rho_tilde, tc.beta ** 2, tc.C
    margin = 1.0 + 1e-9
    e2 = e5 = 1.0
    cap4 = _eps4_cap(tc, theta.gamma)  # none when C = 0 or gamma^2 beta^2 C^2 underflows
    e4 = 0.5 * cap4 if math.isfinite(cap4) else 1.0
    # where (1 - rho) rho_tilde is 0 (rho = 0 at gamma = 1) the eps3 floor's rhs_proof is 0,
    # and where the eps1 floor is infinite no finite eps1 meets it: finite entries, rejected
    den3 = (1.0 - rho) * rt
    e3 = 1.0 if b2 == 0.0 or den3 == 0.0 else \
        margin * 24.0 * theta.gamma * b2 * (3.0 * e2 + 3.0 * C * e4 + C * e5) / den3
    floor1 = _eps1_floor(tc, e2, e3, n)
    e1 = margin * floor1 * e2 if math.isfinite(floor1) else 1.0
    return np.array([e1, e2, e3, e4, e5])
