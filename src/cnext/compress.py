"""Compression operators and the stateful difference-compression round.

Four concrete operators plus identity. Each scheme carries the contract constant C
(E||Q(x) - x||^2 <= C ||x||^2), a scaling r > 0 and a contraction factor delta in (0, 1]
such that E||Q(x)/r - x||^2 <= (1 - delta) ||x||^2, and a deterministic per-vector wire
cost in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

IDENTITY = "identity"
QNBBQ = "qnbbq"  # q-norm b-bit dithered quantizer, q = inf
RANDOMK = "randomk"
TOPK = "topk"
QNORMSIGNED = "qnormsigned"  # q-norm signed compression, q = inf

ALL_KINDS = (IDENTITY, QNBBQ, RANDOMK, TOPK, QNORMSIGNED)
DRAWING_KINDS = (QNBBQ, RANDOMK)  # the kinds whose encoding draws randomness
# the parameters each kind reads: the quantizer's bit depth b, and the count k that
# Random-k and Top-k keep; a kind not listed reads neither
PARAMS = {QNBBQ: ("b",), RANDOMK: ("k",), TOPK: ("k",)}


@dataclass(frozen=True)
class CompressionScheme:
    """One operator on R^p, set by (kind, p, b, k); b and k are None where the kind does
    not read them (PARAMS).

    `__post_init__` checks the four and derives the rest once: the constants C, r, delta
    of the module's contract, and `bits`, the wire cost of one compressed p-vector. The
    cost is deterministic by design: Random-k charges for k coordinates (its expected
    count), so cumulative bit counts depend only on (scheme, n, T). b is at most 53:
    beyond that, adding the dither u to h|z|/s (h = 2^(b-1)) is no longer exact in float64.
    """

    kind: str
    p: int
    b: int | None = None  # bit depth (qnbbq)
    k: int | None = None  # kept coordinates (randomk / topk)
    C: float = field(init=False)
    r: float = field(init=False)
    delta: float = field(init=False)
    bits: int = field(init=False)

    def __post_init__(self):
        kind, p, b, k = self.kind, self.p, self.b, self.k
        if kind not in ALL_KINDS:
            raise ValueError(f"unknown scheme kind {kind!r}")
        reads = PARAMS.get(kind, ())
        takes_b, takes_k = "b" in reads, "k" in reads
        if p < 1:
            raise ValueError(f"{kind} needs p >= 1, got p={p}")
        if (b is not None and not takes_b) or (k is not None and not takes_k):
            raise ValueError(f"{kind} reads {' '.join(reads) or 'neither b nor k'}; "
                             f"{kind} got b={b}, k={k}")
        if takes_b and (b is None or not 1 <= b <= 53):
            raise ValueError(f"qnbbq needs 1 <= b <= 53, got b={b}")
        if takes_k and (k is None or not 1 <= k <= p):
            raise ValueError(f"{kind} needs 1 <= k <= p, got k={k}, p={p}")
        log2p = (p - 1).bit_length()  # ceil(log2 p), 0 for p = 1
        if takes_k:  # k values, each sent with its index
            C, r, delta = 1.0 - k / p, 1.0, k / p
            bits = (32 + log2p) * k if kind == RANDOMK else (64 + log2p) * k
        elif takes_b:  # the sign and b bits per coordinate
            C = _quantizer_C(p, b)
            r, delta, bits = 1.0 + C, 1.0 / (1.0 + C), (1 + b) * p
        elif kind == QNORMSIGNED:
            # Q = s sign(x) with s = ||x||_inf. C: ||Q - x||^2 = sum_{x_i != 0} (s - |x_i|)^2,
            # at most (p - 1) s^2 <= (p - 1)||x||^2 since a largest coordinate adds 0; it
            # tends to (p - 1)||x||^2 as x -> (1, eps, ..., eps). delta: ||Q/p - x||^2 =
            # ||x||^2 - 2(s/p)||x||_1 + nnz s^2/p^2 <= (1 - 1/p)||x||^2, because ||x||^2 <=
            # s||x||_1 and nnz s^2/p <= s^2 <= s||x||_1. The wire holds p signs and s.
            C, r, delta, bits = float(p - 1), float(p), 1.0 / p, p + 32
        else:
            C, r, delta, bits = 0.0, 1.0, 1.0, 64 * p
        for name, value in zip(("C", "r", "delta", "bits"), (C, r, delta, bits)):
            object.__setattr__(self, name, value)

    def label(self) -> str:
        """The kind, with the parameters it reads: qnbbq(b=2), topk(k=3), identity."""
        params = ", ".join(f"{name}={getattr(self, name)}" for name in PARAMS.get(self.kind, ()))
        return f"{self.kind}({params})" if params else self.kind


def all_finite(M: np.ndarray) -> bool:
    """np.isfinite(M).all(), from one sum: a NaN or infinite entry makes the sum NaN or
    infinite, so a finite sum proves every entry finite. Only a non-finite sum, which
    finite entries also reach by overflow (and numpy then warns of it), is checked entry
    by entry."""
    return math.isfinite(np.add.reduce(M, axis=None)) or bool(np.isfinite(M).all())


# bytes of uniforms a run reads ahead into: `Draws.for_run` sizes its blocks to this
DRAW_BUDGET = 2 << 20


class Draws:
    """Uniform[0, 1) draws for the rows of a round, row i from rngs[i], served in blocks.

    Each generator fills its row of a (rows, B, p) buffer in one call, and the next B
    takes read that block in order. Every take serves every row, so in round t row i
    reads doubles [t p, (t + 1) p) of rngs[i], whatever the data. PCG64 yields the same
    doubles whether it is asked for p at a time or B p at once, so rngs[i] itself runs up
    to B - 1 rounds ahead and no double changes. With B = 1, as for a plain list of
    generators, a take draws one round and no more.
    """

    def __init__(self, rngs: list[np.random.Generator], p: int, rounds: int = 1):
        self.rngs = rngs
        self.buf = np.empty((len(self.rngs), rounds, p))
        self.pos = rounds  # the cursor into the blocks; every block starts used up

    @classmethod
    def for_run(cls, rngs: list[np.random.Generator], p: int, T: int) -> "Draws":
        """Blocks of as many rounds as DRAW_BUDGET holds, at least 1 and at most T, so a
        run never draws for rounds it cannot reach."""
        rounds = DRAW_BUDGET // (len(rngs) * p * 8)
        return cls(rngs, p, max(1, min(rounds, T)))

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, p) of a full round."""
        return self.buf.shape[0], self.buf.shape[2]

    def take(self) -> np.ndarray:
        """The next round's uniforms, as a (rows, p) array to be read before the next
        take; every generator fills its next block when the blocks are used up."""
        c = self.pos
        if c == self.buf.shape[1]:
            for g, block in zip(self.rngs, self.buf):
                g.random(out=block)
            c = 0
        self.pos = c + 1
        return self.buf[:, c]


def _encode(scheme: CompressionScheme, Z: np.ndarray,
            rngs: Draws | list[np.random.Generator] | None) -> np.ndarray:
    """Apply the operator to every row of the (r, p) matrix Z; returns Q row for row.

    All randomness (dither for the quantizer, the Bernoulli mask for Random-k) comes from
    `rngs`, row i from its i-th generator: a `Draws`, or a plain list of r generators,
    which is served as a block of one round. The other kinds never read it, so it may be
    None. A drawing kind takes a whole round of uniforms, zero rows included, and every
    scheme maps a zero row to zero.
    """
    r, p = Z.shape
    if p != scheme.p:
        raise ValueError(f"{scheme.label()}: built for p={scheme.p}, input has p={p}")
    if not all_finite(Z):
        raise ValueError("compress: input has non-finite entries")
    if scheme.kind == IDENTITY:
        return Z.copy()
    if scheme.kind in DRAWING_KINDS:
        draws = rngs if isinstance(rngs, Draws) else Draws(rngs, p)
        if draws.shape != (r, p):
            raise ValueError(f"{scheme.kind}: draws for {draws.shape} (rows, p), input {Z.shape}")
        U = draws.take()
    if scheme.kind == RANDOMK:
        return Z * (U < scheme.k / p)
    if scheme.kind == TOPK:
        # keep |z| >= t, the row's k-th largest magnitude; a row whose (k+1)-th largest also
        # equals t has ties across the cut, which a stable sort on -|z| breaks by lowest index
        k, mag = scheme.k, np.abs(Z)
        ranked = np.sort(mag, axis=1)
        keep = mag >= ranked[:, p - k, None]
        tied = np.flatnonzero(ranked[:, p - k - 1] == ranked[:, p - k]) if k < p else ()
        if len(tied):
            keep[tied] = False
            keep[tied[:, None], np.argsort(-mag[tied], axis=1, kind="stable")[:, :k]] = True
        return np.where(keep, Z, 0.0)
    mag = np.abs(Z)
    s = mag.max(axis=1, keepdims=True)  # ||z||_inf; a zero row has s = 0 and codes to 0
    if scheme.kind == QNORMSIGNED:
        return s * np.sign(Z)
    # a zero row divides by 1 instead, and its levels floor(0 + u) are 0
    half_levels = 2.0 ** (scheme.b - 1)
    levels = np.floor(half_levels * mag / (s if s.all() else np.where(s > 0, s, 1.0)) + U)
    return (s / half_levels) * np.sign(Z) * levels


def _quantizer_C(p: int, b: int) -> float:
    """The quantizer's contract constant: the supremum over x of E||Q(x) - x||^2 / ||x||^2.

    With h = 2^(b-1) and s = ||x||_inf, the quantizer rounds y = h|x_i|/s up with
    probability frac(y) and down otherwise, so E||Q(x) - x||^2 = (s/h)^2 sum_i g(y_i) with
    g(y) = frac(y)(1 - frac(y)). A largest coordinate has y = h and g = 0, so the ratio
    is sum_{i>=2} g(y_i) / (h^2 + sum_{i>=2} y_i^2) over y_i in [0, h]. By Dinkelbach
    (the ratio is at most R iff sum_i (g(y_i) - R y_i^2) <= R h^2) the problem separates,
    so every y_i takes the same maximiser, and with m = p - 1
    C* = max over y in [0, h] of m g(y) / (h^2 + m y^2). g has period 1, so moving y
    down by one keeps the numerator and shrinks the denominator: the maximiser lies in
    [0, 1], where g = y(1 - y). There the stationary point solves m y^2 + 2 h^2 y - h^2 = 0,
    y* = h / (h + sqrt(h^2 + m)), where the ratio equals g'(y*) / (2 y*) = 1/(2 y*) - 1:
    C* = (sqrt(h^2 + m) - h) / (2h) = m / (2h (h + sqrt(h^2 + m))), reached by
    x = (1, y*/h, ..., y*/h). The float is rounded up a few ulps so that it bounds C*.
    """
    m = p - 1
    if m == 0:
        return 0.0
    h = 2.0 ** (b - 1)
    C = m / (2.0 * h * (h + math.sqrt(h * h + m)))
    for _ in range(4):
        C = math.nextafter(C, math.inf)
    return C


def make_scheme(kind: str, p: int, b: int = 2, k: int | None = None,
                rng: np.random.Generator | None = None) -> CompressionScheme:
    """The scheme of `kind` on R^p, keeping b and k where the kind reads them (PARAMS)
    and dropping them elsewhere.

    `rng` is unused. The benchmark's workloads (bench/workloads.py) still pass it, so it
    stays until the benchmark's next change drops it there.
    """
    reads = PARAMS.get(kind, ())
    return CompressionScheme(kind, p, b=b if "b" in reads else None,
                             k=k if "k" in reads else None)


def _mix(W, M: np.ndarray) -> np.ndarray:
    """W times each n x p stream of M: one matmul for dense W, one product per stream for CSR."""
    if M.ndim == 2 or isinstance(W, np.ndarray):
        return W @ M
    return np.stack([W @ m for m in M])


@dataclass
class CompressState:
    """Compression memory H and its neighbor-weighted copy H^w, of one n x p stream or an
    (s, n, p) stack; alpha is a float, or one per stream of shape (s, 1, 1).

    Invariant (given Hw(0) = W H(0)): Hw = W H at every round, up to roundoff.
    """

    H: np.ndarray
    Hw: np.ndarray
    alpha: float | np.ndarray

    @classmethod
    def init(cls, H0: np.ndarray, W, alpha) -> "CompressState":
        if not np.all(np.asarray(alpha) > 0):
            raise ValueError(f"alpha must be positive, got {alpha}")
        H0 = np.asarray(H0, dtype=float).copy()
        return cls(H=H0, Hw=_mix(W, H0), alpha=alpha)


class CompressedRound(NamedTuple):
    """Outputs of one Compress call: estimates, their weighted averages, the wire payload."""

    Zhat: np.ndarray
    Zhat_w: np.ndarray
    Q: np.ndarray
    bits: int


def compress_round(state: CompressState, Z: np.ndarray, scheme: CompressionScheme,
                   W, rngs: Draws | list[np.random.Generator] | None) -> CompressedRound:
    """One round of difference compression for an n x p stream or an (s, n, p) stack.

    Encode Q = C(Z - H) in one call over its s n rows, row j drawing its p uniforms from
    rngs' j-th generator whatever its innovation (see _encode; None for a kind that draws
    nothing), form the estimates Zhat = Q + H and Zhat_w = Hw + W Q, with W dense or
    scipy sparse, then mix the memories in place: H <- (1-alpha) H + alpha Zhat and
    Hw <- (1-alpha) Hw + alpha Zhat_w. Returns the round outputs; bits = rows *
    scheme.bits. A scheme built for another p is refused.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.shape != state.H.shape:
        raise ValueError(f"shape mismatch: Z {Z.shape} vs state {state.H.shape}")
    p = Z.shape[-1]
    Q = _encode(scheme, (Z - state.H).reshape(-1, p), rngs).reshape(Z.shape)
    bits = Z.size // p * scheme.bits
    Zhat = Q + state.H
    Zhat_w = state.Hw + _mix(W, Q)
    a = state.alpha
    keep = 1.0 - a
    for M, est in ((state.H, Zhat), (state.Hw, Zhat_w)):
        M *= keep
        M += a * est
    return CompressedRound(Zhat, Zhat_w, Q, bits)


# substream ids under one root seed: the two compressed streams' per-agent draws and the
# initial state
STREAM_X, STREAM_Y, STREAM_INIT = 0, 1, 2


def substream(seed: int, stream: int, i: int = 0) -> np.random.Generator:
    """The generator for substream (stream, i) of the root seed.

    Counter-based spawn keys make the draws identical under any execution schedule.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream, i))))


def agent_streams(seed: int, stream: int, n: int) -> list[np.random.Generator]:
    """Independent per-agent generators for one stream: agent i sees substream (stream, i)."""
    return [substream(seed, stream, i) for i in range(n)]
