"""Network topologies, Metropolis-Hastings consensus weights, and spectral quantities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

# a W with at most this share of non-zero entries mixes through a CSR copy: on one BLAS
# thread CSR beats the dense product at n = 128 for a ring (fill 0.023) but not for a
# 6-regular expander (fill 0.055), and the dense product wins on every graph up to n = 64
SPARSE_FILL = 1.0 / 32.0


@dataclass(frozen=True)
class Topology:
    """Undirected communication graph with self-loops on every node, as CSR neighbour rows:
    node i's neighbours, itself included, are indices[indptr[i]:indptr[i + 1]], sorted."""

    n: int
    indptr: np.ndarray  # (n + 1,)
    indices: np.ndarray  # (indptr[n],)

    def degrees(self) -> np.ndarray:
        """Neighbor counts excluding the self-loop."""
        return np.diff(self.indptr) - 1


@dataclass(frozen=True)
class Network:
    """Doubly stochastic consensus weights plus the spectral constants the rates depend on.

    rho  = ||W - (1/n) 11^T||_2, the mixing norm off the consensus subspace;
    beta = ||I - W||_2.

    `mix` is the operator the rounds multiply by: W itself when W is dense (fill >
    SPARSE_FILL), else W in CSR form, built on the topology's rows with no n x n array.
    `W` is the dense matrix: `mix` itself, or `mix` expanded on first read. Only checks read
    it; on a 10^5-node graph it would take 80 GB.
    """

    topology: Topology
    rho: float
    beta: float
    mix: np.ndarray | sparse.csr_array

    @cached_property
    def W(self) -> np.ndarray:
        return self.mix if isinstance(self.mix, np.ndarray) else self.mix.toarray()

    @property
    def n(self) -> int:
        return self.topology.n

    def rho_tilde(self, gamma: float) -> float:
        """Damped mixing norm (1 - gamma) + gamma * rho."""
        return (1.0 - gamma) + gamma * self.rho


def _circulant(n: int, offsets: np.ndarray) -> Topology:
    """Node i adjacent to i +- each offset (mod n) and to itself; row i is (i + shifts) % n, sorted."""
    shifts = np.unique(np.concatenate(([0], offsets, -offsets)) % n)
    indices = np.sort((np.arange(n)[:, None] + shifts) % n, axis=1).ravel()
    return Topology(n=n, indptr=np.arange(n + 1) * shifts.size, indices=indices)


def build_ring(n: int) -> Topology:
    """Cycle graph with self-loops; n=1 is a lone self-looped node, n=2 the 2-clique."""
    if n < 1:
        raise ValueError(f"ring needs n >= 1, got {n}")
    return _circulant(n, np.array([1]))


def build_circulant_expander(n: int, degree: int) -> Topology:
    """Circulant graph on n nodes: i adjacent to i +- 1 .. degree/2 (mod n), plus self-loops."""
    if n < 1:
        raise ValueError(f"expander needs n >= 1, got {n}")
    if degree % 2 != 0 or degree <= 0:
        raise ValueError(f"degree must be a positive even integer, got {degree}")
    if degree >= n:
        raise ValueError(f"degree must be < n, got degree={degree}, n={n}")
    return _circulant(n, np.arange(1, degree // 2 + 1))


def build_custom(adjacency: np.ndarray) -> Topology:
    """Topology from an explicit boolean adjacency; every node gets its self-loop."""
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {adj.shape}")
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency must be symmetric")
    n = adj.shape[0]
    i, j = np.nonzero(adj | np.eye(n, dtype=bool))
    return Topology(n=n, indptr=np.searchsorted(i, np.arange(n + 1)), indices=j)


def _circulant_shifts(t: Topology) -> np.ndarray | None:
    """Row 0's columns when every row i is row 0 shifted by i (mod n), else None; O(nnz)."""
    n, d = t.n, int(t.indptr[1])
    if not np.array_equal(t.indptr, np.arange(n + 1) * d):
        return None
    shifts = t.indices[:d]
    in_row0 = np.zeros(n, dtype=bool)
    in_row0[shifts] = True
    # a row holds d distinct columns, so it is row 0 shifted iff each, shifted back, is in row 0
    back = t.indices.reshape(n, d) - np.arange(n)[:, None]
    back %= n
    return shifts if in_row0[back].all() else None


def _connected(t: Topology, shifts: np.ndarray | None) -> bool:
    """Whether every node is reachable from node 0. On circulant rows the shifts generate
    Z_n iff their gcd with n is 1; elsewhere a depth-first walk over the neighbour rows,
    linear in the edges (3 us at n = 10)."""
    if shifts is not None:
        return math.gcd(t.n, *shifts.tolist()) == 1
    start, neighbours = t.indptr.tolist(), t.indices.tolist()
    seen = [False] * t.n
    seen[0] = True
    stack = [0]
    while stack:
        k = stack.pop()
        for m in neighbours[start[k]:start[k + 1]]:
            if not seen[m]:
                seen[m] = True
                stack.append(m)
    return all(seen)


def _spectrum(ev: np.ndarray) -> tuple[float, float]:
    """(rho, beta) from W's ascending eigenvalues: on a connected graph they lie in [-1, 1]
    with a single 1, the last (the consensus direction)."""
    rho = abs(float(max(-ev[0], ev[-2]))) if ev.size > 1 else 0.0  # abs: max gives -0.0 at n = 2
    return rho, float(1.0 - ev[0])


def metropolis_hastings_weights(t: Topology) -> Network:
    """Consensus weights W_ij = 1 / (1 + max(deg_i, deg_j)) for neighbors, mass kept on the diagonal.

    Degrees exclude self-loops, so w_ii = 1 - sum_{j != i} w_ij >= 1/(1 + deg_i) > 0 and W is
    symmetric doubly stochastic by construction. A dense W is filled from the neighbour rows
    and its spectrum taken by `eigvalsh`. A sparse W (fill <= SPARSE_FILL) is built as CSR on
    the rows, with no n x n array, each diagonal entry 1 less the row's sum in column order
    (within 1 ulp of the dense row sum); its spectrum is the DFT of row 0 where the rows are
    circulant (Xiao & Boyd 2004), and `eigvalsh` of the expanded W elsewhere.
    """
    shifts = _circulant_shifts(t)
    if not _connected(t, shifts):
        raise ValueError("topology must be connected")
    n = t.n
    deg = t.degrees()
    i, j = np.repeat(np.arange(n), np.diff(t.indptr)), t.indices  # W's sparsity pattern, row-major
    off = i != j
    if j.size > SPARSE_FILL * n * n:
        W = np.zeros((n, n))
        W[i[off], j[off]] = 1.0 / (1.0 + np.maximum(deg[i[off]], deg[j[off]]))
        np.fill_diagonal(W, 1.0 - W.sum(axis=1))
        rho, beta = _spectrum(np.linalg.eigvalsh(W))
        return Network(topology=t, rho=rho, beta=beta, mix=W)
    w = np.zeros(j.size)
    w[off] = 1.0 / (1.0 + np.maximum(deg[i[off]], deg[j[off]]))
    w[~off] = 1.0 - np.add.reduceat(w, t.indptr[:-1])  # every row holds its diagonal, still 0
    mix = sparse.csr_array((w, j, t.indptr), shape=(n, n))
    if shifts is None:
        rho, beta = _spectrum(np.linalg.eigvalsh(mix.toarray()))
    else:
        # W is symmetric circulant: its eigenvalues are the real DFT of row 0, and
        # lam_k = lam_{n-k}, so the first n/2 + 1 of them cover the spectrum
        row0 = np.zeros(n)
        row0[shifts] = w[:shifts.size]
        lam = np.fft.rfft(row0).real
        rho, beta = float(np.max(np.abs(lam[1:]))), float(1.0 - lam.min())
    return Network(topology=t, rho=rho, beta=beta, mix=mix)
