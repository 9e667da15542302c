import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

from cnext.compress import (DRAW_BUDGET, CompressState, CompressionScheme, Draws, _encode,
                            agent_streams, all_finite, compress_round,
                            make_scheme, ALL_KINDS)
from cnext.graph import build_ring, metropolis_hastings_weights
from conftest import all_schemes, verify_contract, xy_streams


def test_identity_passthrough():
    x = np.array([1.0, -2.0, 0.5])
    scheme = make_scheme("identity", 3)
    q = _encode(scheme, x[None], [np.random.default_rng(0)])[0]
    assert np.array_equal(q, x)
    assert scheme.bits == 64 * 3


def test_quantizer_zero_guard():
    scheme = make_scheme("qnbbq", 6)
    q = _encode(scheme, np.zeros((1, 6)), [np.random.default_rng(0)])[0]
    assert np.array_equal(q, np.zeros(6))
    signed = make_scheme("qnormsigned", 6)
    q = _encode(signed, np.zeros((1, 6)), [np.random.default_rng(0)])[0]
    assert np.array_equal(q, np.zeros(6))


def test_quantizer_dithered_unbiasedness():
    # Monte-Carlo oracle over the dither distribution: the mean reconstructs x
    scheme = make_scheme("qnbbq", 8)
    rng = np.random.default_rng(123)
    x = rng.standard_normal(8)
    n_draws = 20_000  # the acceptance suite runs the full 1e5-draw version
    draws = np.empty((n_draws, 8))
    for i in range(n_draws):
        draws[i] = _encode(scheme, x[None], [rng])[0]
    mean = draws.mean(axis=0)
    sigma_mean = draws.std(axis=0, ddof=1) / np.sqrt(n_draws)
    # the max-magnitude coordinate is reconstructed exactly (sigma = 0); allow
    # summation roundoff there
    assert np.all(np.abs(mean - x) <= 3.0 * sigma_mean + 1e-10)


def test_randomk_expected_error():
    # closed form: E||Q(x)-x||^2 / ||x||^2 = 1 - k/p
    scheme = make_scheme("randomk", 20, k=5)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(20)
    n_draws = 20_000  # the acceptance suite runs the full 1e5-draw version
    acc = 0.0
    for _ in range(n_draws):
        q = _encode(scheme, x[None], [rng])[0]
        acc += float(np.sum((q - x) ** 2))
    ratio = acc / n_draws / float(x @ x)
    assert ratio == pytest.approx(0.75, abs=0.02)


def test_topk_keep_all_and_ties():
    scheme = make_scheme("topk", 4, k=4)
    x = np.array([0.1, -3.0, 2.0, 0.0])
    q = _encode(scheme, x[None], [np.random.default_rng(0)])[0]
    assert np.array_equal(q, x)
    # magnitude ties break toward the lowest index
    scheme2 = make_scheme("topk", 4, k=2)
    q2 = _encode(scheme2, np.array([[2.0, -2.0, 1.0, 2.0]]), [np.random.default_rng(0)])[0]
    assert np.array_equal(q2, np.array([2.0, -2.0, 0.0, 0.0]))


def _topk_by_stable_argsort(Z, k):
    """Top-k by a full stable sort on -|z|: magnitude ties go to the lowest index."""
    keep = np.argsort(-np.abs(Z), axis=1, kind="stable")[:, :k]
    Q = np.zeros_like(Z)
    np.put_along_axis(Q, keep, np.take_along_axis(Z, keep, axis=1), axis=1)
    return Q


@pytest.mark.parametrize("p", [1, 2, 7, 20])
def test_topk_equals_stable_argsort(p):
    # integer rows tie across the cut in most rows; zero rows, -0.0 and distinct magnitudes
    # take the threshold path; signbit tells +0.0 from -0.0 where array_equal does not
    rng = np.random.default_rng(p)
    Z = rng.integers(-3, 4, size=(300, p)).astype(float)
    Z[rng.uniform(size=Z.shape) < 0.15] = -0.0
    Z[::11] = 0.0
    Z[5::11] = -0.0
    Z[7::11] = rng.standard_normal((len(Z[7::11]), p))
    for k in sorted({1, min(3, p), max(p - 1, 1), p}):
        got, want = _encode(make_scheme("topk", p, k=k), Z, None), _topk_by_stable_argsort(Z, k)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_verify_contract_values():
    rng = np.random.default_rng(2)
    ident = make_scheme("identity", 20)
    assert verify_contract(ident, [rng.standard_normal(20)], rng) == (0.0, 0.0)

    rk = make_scheme("randomk", 20, k=5)
    measured = verify_contract(rk, [rng.standard_normal(20) for _ in range(3)], rng, n_draws=10_000)[0]
    assert measured == pytest.approx(0.75, abs=0.02)

    tk = make_scheme("topk", 20, k=3)
    worst = verify_contract(tk, [np.ones(20)], rng)[0]  # uniform magnitudes: the worst case
    assert worst == pytest.approx(1.0 - 3 / 20, rel=1e-15)


def test_measured_constants_are_finite_and_recorded():
    for kind in ("qnbbq", "qnormsigned"):
        scheme = make_scheme(kind, 12)
        assert np.isfinite(scheme.C) and scheme.C > 0
        assert scheme.r > 0 and 0 < scheme.delta <= 1


def _two_outcome_C(X, b):
    """Reference quantizer constant: each coordinate rounds to one of its two neighbouring
    levels with the dither's probability; both outcomes enumerated in exact rationals."""
    h = Fraction(2) ** (b - 1)
    worst = Fraction(0)
    for x in X.tolist():
        s = max(abs(Fraction(v)) for v in x)
        err = Fraction(0)
        for v in x:
            a = abs(Fraction(v))
            y = h * a / s
            lo = math.floor(y)
            up = y - lo  # the probability of rounding up to level lo + 1
            err += (1 - up) * (s / h * lo - a) ** 2 + up * (s / h * (lo + 1) - a) ** 2
        worst = max(worst, err / sum(Fraction(v) ** 2 for v in x))
    return worst


def _ratio_bound_holds(R, p, b):
    """Exact proof, or refutation, that E||Q(x) - x||^2 <= R ||x||^2 for every x in R^p.

    With y_i = h|x_i|/s the ratio is sum_{i>=2} g(y_i) / (h^2 + sum_{i>=2} y_i^2), the
    largest coordinate at y = h adding no error, g(y) = frac(y)(1 - frac(y)) and
    y_i in [0, h]. It is at most R iff (p - 1) max_y (g(y) - R y^2) <= R h^2; on each
    [k, k + 1], g(y) - R y^2 is a concave quadratic, largest at its vertex clamped to
    the interval.
    """
    R, h = Fraction(R), 2 ** (b - 1)
    best = Fraction(0)
    for k in range(h):
        y = min(max(Fraction(2 * k + 1, 2) / (1 + R), Fraction(k)), Fraction(k + 1))
        best = max(best, (y - k) * (k + 1 - y) - R * y * y)
    return (p - 1) * best <= R * h * h


@pytest.mark.parametrize("b", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [1, 6, 20])
def test_quantizer_constant_is_exact(b, p):
    # C bounds the ratio of every input, and 1e-13 less does not: C is the supremum
    C = make_scheme("qnbbq", p, b=b).C
    assert _ratio_bound_holds(C, p, b)
    if p == 1:  # a lone coordinate is its own largest and always on a level
        assert C == 0.0
        return
    assert not _ratio_bound_holds(Fraction(C) * (1 - Fraction(1, 10 ** 13)), p, b)
    rng = np.random.default_rng(100 * b + p)
    X = np.vstack([rng.standard_normal((16, p)), rng.uniform(0.0, 1.0, (16, p))])
    X[16:, 0] = 1.0  # one largest coordinate over small ones, as at the witness
    assert _two_outcome_C(X, b) <= Fraction(C)


def _quantizer_witness(p, b, nudge=0):
    """(1, y*/h, ..., y*/h) with y* = h / (h + sqrt(h^2 + p - 1)) moved by `nudge` ulps."""
    h = 2.0 ** (b - 1)
    y = h / (h + math.sqrt(h * h + p - 1))
    for _ in range(abs(nudge)):
        y = math.nextafter(y, math.copysign(math.inf, nudge))
    return np.array([1.0] + [y / h] * (p - 1))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_contract_constant_reached_at_witness(kind):
    # for every kind an input whose ratio E||Q(x) - x||^2 / ||x||^2 reaches C
    p, k = 20, 5
    rng = np.random.default_rng(61)
    if kind == "qnbbq":  # the exact ratio, at the float witness and 1 ulp either side
        for b in (1, 2, 3, 4, 8):
            C = make_scheme(kind, p, b=b).C
            ratios = [_two_outcome_C(_quantizer_witness(p, b, nudge)[None, :], b)
                      for nudge in (-1, 0, 1)]
            assert max(ratios) <= Fraction(C)
            assert Fraction(C) - ratios[1] <= Fraction(1, 10 ** 14) * ratios[1]
        return
    scheme = make_scheme(kind, p, k=k)
    if kind == "qnormsigned":  # draws nothing: its single draw is the exact ratio
        x = np.array([1.0] + [1e-8] * (p - 1))
        ratio = verify_contract(scheme, [x], rng)[0]
        assert scheme.C - 1e-6 <= ratio <= scheme.C == p - 1
    elif kind == "topk":  # uniform magnitudes: whatever is dropped is the worst case
        assert verify_contract(scheme, [np.ones(p)], rng)[0] == pytest.approx(scheme.C, rel=1e-15)
    elif kind == "randomk":  # every input's expected ratio is 1 - k/p
        ratio = verify_contract(scheme, [rng.standard_normal(p)], rng, n_draws=20_000)[0]
        assert ratio == pytest.approx(scheme.C, rel=0.02)
    else:
        assert verify_contract(scheme, [rng.standard_normal(p)], rng)[0] == scheme.C == 0.0


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_quantizer_constant_at_exact_levels(b):
    # coordinates on a level (y an integer) are reproduced exactly, so they add no error
    X = np.array([[1.0, -0.5, 0.25, 0.75, 0.0],
                  [2.0, -1.0, 0.5, 1.5, -2.0],
                  [4.0, 3.0, -0.3, 1.1, 2.5]])
    scheme = make_scheme("qnbbq", 5, b=b)
    assert _two_outcome_C(X, b) <= Fraction(scheme.C)
    if b >= 3:  # every coordinate of the first two rows is on a level
        assert _two_outcome_C(X[:2], b) == 0
        rng = np.random.default_rng(b)
        for x in X[:2]:
            for _ in range(20):
                assert np.array_equal(_encode(scheme, x[None], [rng])[0], x)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_quantizer_constant_agrees_with_monte_carlo(b):
    # per sample, 100k dithered draws through the verify_contract oracle
    rng = np.random.default_rng(70 + b)
    scheme = CompressionScheme("qnbbq", 8, b=b)
    for x in rng.standard_normal((4, 8)):
        measured = verify_contract(scheme, [x], rng, n_draws=100_000)[0]
        assert measured == pytest.approx(float(_two_outcome_C(x[None, :], b)), rel=0.02)


@pytest.mark.parametrize("kind", ["qnbbq", "qnormsigned"])
def test_scheme_constants_draw_nothing(kind):
    # the constants are a function of (kind, p, b): a generator passed in is left untouched
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert make_scheme(kind, 7, rng=rng) == make_scheme(kind, 7)
    assert rng.bit_generator.state == state


def test_norm_signed_constant_is_the_single_draw_oracle():
    # norm-signed draws nothing, so verify_contract's single draw is its exact ratio; on
    # random samples neither ratio passes the constants C = p - 1 and 1 - delta = 1 - 1/p
    rng = np.random.default_rng(7)
    for p in (1, 2, 5, 20, 54):
        scheme = make_scheme("qnormsigned", p)
        assert (scheme.C, scheme.r, scheme.delta) == (p - 1, p, 1 / p)
        samples = [rng.standard_normal(p) for _ in range(32)]
        samples += [rng.uniform(0.0, 1.0, p) * (rng.random(p) < 0.5) + np.eye(p)[0]]
        C, scaled = verify_contract(scheme, samples, rng)
        assert C <= scheme.C and scaled <= (1.0 - scheme.delta) * (1 + 1e-12)


def test_conditional_contract_bound():
    # given fixed (Z, H), the operator error is bounded by C ||Z - H||^2 in expectation
    rng = np.random.default_rng(21)
    n, p = 4, 6
    Z = rng.standard_normal((n, p))
    H = rng.standard_normal((n, p))
    gap2 = float(np.sum((Z - H) ** 2))
    for scheme in all_schemes(p, k=2):
        acc = 0.0
        n_draws = 2_000
        for _ in range(n_draws):
            err = 0.0
            for i in range(n):
                q = _encode(scheme, (Z[i] - H[i])[None], [rng])[0]
                zhat_i = q + H[i]
                err += float(np.sum((Z[i] - zhat_i) ** 2))
            acc += err
        assert acc / n_draws <= scheme.C * gap2 * 1.05 + 1e-12


def test_scaled_operator_contract():
    rng = np.random.default_rng(31)
    p = 12
    samples = [rng.standard_normal(p) for _ in range(8)]
    for scheme in all_schemes(p, k=3):
        measured = verify_contract(scheme, samples, rng, n_draws=4_000)[1]
        assert measured <= (1.0 - scheme.delta) * 1.05 + 1e-12


def test_measured_contract_within_declared_constant():
    # fresh samples never exceed C (1 + eps_stat), for every kind
    rng = np.random.default_rng(41)
    p = 10
    samples = [rng.standard_normal(p) for _ in range(6)]
    for scheme in all_schemes(p, k=4):
        measured = verify_contract(scheme, samples, rng, n_draws=4_000)[0]
        assert measured <= scheme.C * 1.05 + 1e-12


def test_bits_formulas():
    p = 20
    assert make_scheme("identity", p).bits == 64 * p
    assert make_scheme("qnbbq", p, b=2).bits == 3 * p
    assert make_scheme("randomk", p, k=5).bits == (32 + 5) * 5
    assert make_scheme("topk", p, k=3).bits == (64 + 5) * 3
    assert make_scheme("qnormsigned", p).bits == p + 32
    assert make_scheme("randomk", 1, k=1).bits == 32


@pytest.mark.parametrize("values, message", [
    (("identity", 0, None, None), "identity needs p >= 1, got p=0"),
    (("qnbbq", 5, 0, None), "qnbbq needs 1 <= b <= 53, got b=0"),
    (("qnbbq", 5, 54, None), "qnbbq needs 1 <= b <= 53, got b=54"),
    (("qnbbq", 5, None, None), "qnbbq needs 1 <= b <= 53, got b=None"),
    (("topk", 5, None, 0), "topk needs 1 <= k <= p, got k=0, p=5"),
    (("randomk", 5, None, 6), "randomk needs 1 <= k <= p, got k=6, p=5"),
    (("topk", 5, 2, 2), "topk got b=2, k=2"),
    (("qnormsigned", 5, None, 2), "qnormsigned got b=None, k=2"),
    (("lowrank", 5, None, None), "unknown scheme kind 'lowrank'"),
], ids=["p-0", "b-0", "b-54", "b-missing", "k-0", "k-above-p", "b-on-topk", "k-on-qnormsigned",
        "unknown-kind"])
def test_scheme_refuses_values_outside_its_kind(values, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CompressionScheme(*values)


def test_scheme_derives_its_constants():
    # C, r, delta and bits follow from (kind, p, b, k) alone: none can be passed in, and
    # the widest quantizer, b = 53, still has finite constants
    with pytest.raises(TypeError):
        CompressionScheme("qnbbq", 5, b=2, C=0.1)
    wide = CompressionScheme("qnbbq", 5, b=53)
    assert 0 < wide.C < 1e-30 and wide.bits == 54 * 5


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_compress_round_refuses_a_scheme_built_for_another_p(kind):
    # a scheme's constants and wire cost are those of its own p: a quantizer built for
    # p = 20 has C = 0.699, where p = 10 has 0.401
    net = metropolis_hastings_weights(build_ring(3))
    state = CompressState.init(np.zeros((3, 10)), net.W, alpha=0.5)
    with pytest.raises(ValueError, match="built for p=20, input has p=10"):
        compress_round(state, np.ones((3, 10)), make_scheme(kind, 20, k=3), net.W,
                       agent_streams(0, 0, 3))


def test_bit_accounting_is_data_independent():
    net = metropolis_hastings_weights(build_ring(4))
    rng = np.random.default_rng(3)
    scheme = make_scheme("randomk", 6, k=2)
    totals = []
    for trial in range(2):
        state = CompressState.init(rng.standard_normal((4, 6)), net.W, alpha=0.5)
        rngs = agent_streams(100 + trial, 0, 4)
        bits = 0
        for _ in range(20):
            Z = rng.standard_normal((4, 6)) * (10.0 ** trial)
            bits += compress_round(state, Z, scheme, net.W, rngs).bits
        totals.append(bits)
    assert totals[0] == totals[1]
    assert totals[0] == 20 * 4 * scheme.bits


def test_compress_round_identity_recovers_averaging():
    net = metropolis_hastings_weights(build_ring(5))
    rng = np.random.default_rng(8)
    scheme = make_scheme("identity", 7)
    state = CompressState.init(rng.standard_normal((5, 7)), net.W, alpha=1.0)
    Z = rng.standard_normal((5, 7))
    out = compress_round(state, Z, scheme, net.W, agent_streams(0, 0, 5))
    assert np.allclose(out.Zhat, Z, rtol=0, atol=1e-13)
    assert float(np.sum((out.Zhat - Z) ** 2)) <= 1e-20
    assert np.allclose(out.Zhat_w, net.W @ Z, rtol=0, atol=1e-12)


def _row_by_row(scheme, x, rng):
    """The operator on one vector, written out as a per-agent loop applies it."""
    p = x.size
    if scheme.kind == "identity":
        return x.copy()
    if scheme.kind == "qnbbq":
        u = rng.uniform(0.0, 1.0, size=p)  # drawn whatever x, a zero vector included
        s = np.max(np.abs(x))
        if s == 0.0:
            return np.zeros_like(x)
        half = 2.0 ** (scheme.b - 1)
        return (s / half) * np.sign(x) * np.floor(half * np.abs(x) / s + u)
    if scheme.kind == "randomk":
        return x * (rng.random(p) < scheme.k / p)
    if scheme.kind == "topk":
        keep = np.argsort(-np.abs(x), kind="stable")[: scheme.k]
        q = np.zeros_like(x)
        q[keep] = x[keep]
        return q
    s = np.max(np.abs(x))
    return np.zeros_like(x) if s == 0.0 else s * np.sign(x)


def test_compress_round_draws_like_a_per_agent_loop():
    # same Q, same bits and the same end state of every agent's generator as a loop that
    # encodes each agent's row with its own generator; row 3 is a zero innovation, which
    # codes to zero and still draws its round
    net = metropolis_hastings_weights(build_ring(5))
    rng = np.random.default_rng(29)
    for scheme in all_schemes(6, k=2):
        state = CompressState.init(rng.standard_normal((5, 6)), net.W, alpha=0.5)
        rngs, loop_rngs = agent_streams(8, 0, 5), agent_streams(8, 0, 5)
        for _ in range(4):
            Z = rng.standard_normal((5, 6))
            Z[3] = state.H[3]
            expected = np.stack([_row_by_row(scheme, Z[i] - state.H[i], loop_rngs[i])
                                 for i in range(5)])
            out = compress_round(state, Z, scheme, net.W, rngs)
            assert np.array_equal(out.Q, expected), scheme.label()
            assert not out.Q[3].any()
            assert out.bits == 5 * scheme.bits
        for g, ref in zip(rngs, loop_rngs):
            assert g.bit_generator.state == ref.bit_generator.state, scheme.label()


def test_stacked_round_equals_per_stream_rounds():
    # one call on a (2, n, p) stack gives each stream what its own call gives: the same
    # Q, estimates, memories and bits, and the same end state of every generator, through
    # dense and CSR W, with a zero innovation row in either stream
    net = metropolis_hastings_weights(build_ring(5))
    rng = np.random.default_rng(31)
    alpha = np.array([0.5, 0.8]).reshape(2, 1, 1)
    for W in (net.W, sparse.csr_array(net.W)):
        for scheme in all_schemes(6, k=2):
            H0 = rng.standard_normal((2, 5, 6))
            stacked = CompressState.init(H0, W, alpha)
            single = [CompressState.init(H0[s], W, alpha[s, 0, 0]) for s in range(2)]
            per_stream = [agent_streams(9, 0, 5), agent_streams(9, 1, 5)]
            rngs = agent_streams(9, 0, 5) + agent_streams(9, 1, 5)
            for _ in range(4):
                Z = rng.standard_normal((2, 5, 6))
                Z[0, 1], Z[1, 3] = stacked.H[0, 1], stacked.H[1, 3]
                out = compress_round(stacked, Z, scheme, W, rngs)
                for s in range(2):
                    ref = compress_round(single[s], Z[s], scheme, W, per_stream[s])
                    for got, want in ((out.Q[s], ref.Q), (out.Zhat[s], ref.Zhat),
                                      (out.Zhat_w[s], ref.Zhat_w), (stacked.H[s], single[s].H),
                                      (stacked.Hw[s], single[s].Hw)):
                        assert np.array_equal(got, want), scheme.label()
                assert not out.Q[0, 1].any() and not out.Q[1, 3].any()
                assert out.bits == 2 * ref.bits
            for g, ref in zip(rngs, per_stream[0] + per_stream[1]):
                assert g.bit_generator.state == ref.bit_generator.state, scheme.label()


def test_compress_round_zero_innovation():
    net = metropolis_hastings_weights(build_ring(3))
    rng = np.random.default_rng(12)
    H0 = rng.standard_normal((3, 5))
    for scheme in all_schemes(5, k=2):
        state = CompressState.init(H0, net.W, alpha=0.5)
        out = compress_round(state, H0.copy(), scheme, net.W, agent_streams(1, 0, 3))
        assert np.array_equal(out.Q, np.zeros((3, 5)))
        assert np.allclose(state.H, H0, rtol=1e-15, atol=0)


def test_memory_weight_identity_over_rounds():
    # Hw tracks W H exactly through 50 rounds of the recursion, for every scheme
    net = metropolis_hastings_weights(build_ring(6))
    rng = np.random.default_rng(17)
    for scheme in all_schemes(8, k=3):
        state = CompressState.init(rng.standard_normal((6, 8)), net.W, alpha=0.7)
        rngs = agent_streams(5, 0, 6)
        for _ in range(50):
            Z = rng.standard_normal((6, 8))
            out = compress_round(state, Z, scheme, net.W, rngs)
            hnorm = np.linalg.norm(state.H)
            assert np.linalg.norm(state.Hw - net.W @ state.H) <= 1e-10 * max(hnorm, 1.0)
            assert np.linalg.norm(out.Zhat_w - net.W @ out.Zhat) <= \
                1e-10 * max(np.linalg.norm(out.Zhat), 1.0)


def test_round_identities_hold_exactly():
    # Zhat = Q + H_before and Zhat_w = Hw_before + W Q, by construction
    net = metropolis_hastings_weights(build_ring(4))
    rng = np.random.default_rng(23)
    scheme = make_scheme("randomk", 5, k=2)
    state = CompressState.init(rng.standard_normal((4, 5)), net.W, alpha=0.4)
    H_before, Hw_before = state.H.copy(), state.Hw.copy()
    out = compress_round(state, rng.standard_normal((4, 5)), scheme, net.W, agent_streams(2, 0, 4))
    assert np.array_equal(out.Zhat, out.Q + H_before)
    assert np.array_equal(out.Zhat_w, Hw_before + net.W @ out.Q)


def test_input_validation():
    scheme = make_scheme("topk", 4, k=2)
    with pytest.raises(ValueError):
        _encode(scheme, np.array([[1.0, np.nan, 0.0, 0.0]]), [np.random.default_rng(0)])
    with pytest.raises(ValueError):
        make_scheme("randomk", 4, k=9)
    net = metropolis_hastings_weights(build_ring(3))
    for alpha in (0.0, -0.5, np.array([0.5, 0.0]).reshape(2, 1, 1)):
        with pytest.raises(ValueError, match="alpha must be positive"):
            CompressState.init(np.zeros((2, 3, 4)), net.W, alpha=alpha)
    state = CompressState.init(np.zeros((3, 4)), net.W, alpha=0.5)
    with pytest.raises(ValueError):
        compress_round(state, np.zeros((3, 5)), scheme, net.W, agent_streams(0, 0, 3))
    # a list of generators holds exactly one per row, with or without zero rows
    Z = np.ones((3, 4))
    for kind in ("qnbbq", "randomk"):
        for rngs in (agent_streams(0, 0, 2), agent_streams(0, 0, 4)):
            with pytest.raises(ValueError):
                compress_round(state, Z, make_scheme(kind, 4, k=2), net.W, rngs)
    Z[1] = 0.0
    with pytest.raises(ValueError):
        compress_round(state, Z, make_scheme("qnbbq", 4), net.W, agent_streams(0, 0, 4))


@pytest.mark.parametrize("entries", [[1.0, np.nan], [np.inf, 2.0], [-np.inf, 2.0],
                                     [np.inf, -np.inf], [1e308, 1e308], [1e308, -1e308, 1e308],
                                     [[1.0, -2.5], [0.0, 3.0]], []])
def test_all_finite_agrees_with_isfinite(entries):
    # the sum decides, except where it is not finite: NaN, either infinity, both (whose
    # sum is NaN), and finite entries whose sum overflows fall back to the entries
    M = np.array(entries, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        assert all_finite(M) is bool(np.isfinite(M).all())


@settings(deadline=None, max_examples=60)
@given(hnp.arrays(np.float64, 6, elements=st.floats(-1e6, 1e6)))
def test_topk_worst_case_bound(x):
    # deterministic property: dropping p-k coordinates never removes more than the
    # worst-case (1 - k/p) fraction of the energy
    scheme = make_scheme("topk", 6, k=2)
    q = _encode(scheme, x[None], [np.random.default_rng(0)])[0]
    assert float(np.sum((q - x) ** 2)) <= (1.0 - 2 / 6) * float(x @ x) * (1 + 1e-12) + 1e-12


_SCHEMES_P5 = all_schemes(5, k=2)


@settings(deadline=None, max_examples=60)
@given(hnp.arrays(np.float64, 5, elements=st.floats(-1e8, 1e8)), st.integers(0, 2 ** 31 - 1))
def test_operators_produce_finite_output(x, seed):
    rng = np.random.default_rng(seed)
    for scheme in _SCHEMES_P5:
        q = _encode(scheme, x[None], [rng])[0]
        assert np.all(np.isfinite(q))
        assert scheme.bits > 0


def test_agent_streams_are_deterministic_and_independent():
    a = agent_streams(42, 0, 3)
    b = agent_streams(42, 0, 3)
    for ga, gb in zip(a, b):
        assert np.array_equal(ga.random(5), gb.random(5))
    c = agent_streams(42, 1, 3)
    assert not np.array_equal(agent_streams(42, 0, 1)[0].random(5), c[0].random(5))


def _stack_rounds(net, scheme, rounds, rngs, zero_rows=None, seed=41):
    """Q, H and Hw of each of `rounds` stacked (2, n, p) compression rounds drawing from
    `rngs`; zero_rows maps a round to the rows (of the 2n) whose innovation is zero."""
    n, p = net.n, 20
    rng = np.random.default_rng(seed)
    state = CompressState.init(rng.standard_normal((2, n, p)), net.mix,
                               np.array([0.5, 0.8]).reshape(2, 1, 1))
    out = []
    for t in range(rounds):
        Z = rng.standard_normal((2, n, p))
        for j in (zero_rows or {}).get(t, ()):
            Z.reshape(-1, p)[j] = state.H.reshape(-1, p)[j]
        Q = compress_round(state, Z, scheme, net.mix, rngs).Q
        out.append((Q, state.H.copy(), state.Hw.copy()))
    return out


@pytest.mark.parametrize("n", [10, 96])
@pytest.mark.parametrize("kind", ["qnbbq", "randomk"])
def test_blocks_serve_what_lists_draw(kind, n):
    # 30 rounds from blocks of 7 rounds give the Q, H and Hw that per-round lists give,
    # bit for bit, through dense W (ring 10) and CSR W (ring 96)
    net = metropolis_hastings_weights(build_ring(n))
    assert isinstance(net.mix, np.ndarray) == (n == 10)
    scheme = make_scheme(kind, 20, b=2, k=5)
    blocks = _stack_rounds(net, scheme, 30, Draws(xy_streams(3, n), 20, 7))
    lists = _stack_rounds(net, scheme, 30, xy_streams(3, n))
    for got, want in zip(blocks, lists):
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_zero_rows_draw_their_whole_round():
    # a zero row under the quantizer reads its p uniforms like any other row, so in round t
    # generator j yields doubles [t p, (t + 1) p) whatever the data: blocks of 4 rounds give
    # the Q, H and Hw that blocks of 1 give, bit for bit, one int cursor serves every row,
    # and each generator ends where a fresh substream ends after the blocks it filled
    net = metropolis_hastings_weights(build_ring(10))
    scheme = make_scheme("qnbbq", 20, b=2)
    B, rounds = 4, 19
    zero_rows = {1: (3,), 2: (3, 17), 5: (0, 3, 19), 6: (17,), 9: (3,), 13: (8,)}
    draws = Draws(xy_streams(5, 10), 20, B)
    blocks = _stack_rounds(net, scheme, rounds, draws, zero_rows)
    ones = _stack_rounds(net, scheme, rounds, Draws(xy_streams(5, 10), 20, 1), zero_rows)
    for t, (got, want) in enumerate(zip(blocks, ones)):
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert not got[0].reshape(-1, 20)[list(zero_rows.get(t, ()))].any()
    assert type(draws.pos) is int and draws.pos == (rounds - 1) % B + 1
    for g, ref in zip(draws.rngs, xy_streams(5, 10)):
        ref.random(-(-rounds // B) * B * 20)  # the doubles of the ceil(R / B) blocks
        assert g.bit_generator.state == ref.bit_generator.state


def test_draws_must_match_the_rows():
    net = metropolis_hastings_weights(build_ring(3))
    state = CompressState.init(np.zeros((2, 3, 4)), net.W, np.ones((2, 1, 1)))
    Z = np.ones((2, 3, 4))
    for kind in ("qnbbq", "randomk"):
        scheme = make_scheme(kind, 4, k=2)
        for draws in (Draws(agent_streams(0, 0, 3), 4, 5), Draws(xy_streams(0, 4), 4, 5),
                      Draws(xy_streams(0, 3), 5, 5)):
            with pytest.raises(ValueError):
                compress_round(state, Z, scheme, net.W, draws)


def test_block_buffer_is_bounded_at_many_agents():
    # at n = 10^4 agents and p = 20 one round of uniforms (3.2 MB) outgrows DRAW_BUDGET,
    # so a run's blocks hold one round, and a take allocates nothing of that size
    import tracemalloc

    n, p = 10_000, 20
    rngs = xy_streams(1, n)
    round_bytes = 2 * n * p * 8
    tracemalloc.start()
    try:
        draws = Draws.for_run(rngs, p, 5000)
        U = draws.take()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert U.shape == (2 * n, p) and draws.buf.shape[1] == 1
    assert peak <= max(DRAW_BUDGET, round_bytes) + 2 ** 16
    assert Draws.for_run(xy_streams(1, 10), p, 5000).buf.nbytes <= DRAW_BUDGET
