"""Network topologies, Metropolis-Hastings consensus weights, and spectral quantities."""

from __future__ import annotations

from dataclasses import dataclass

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
    beta = ||I - W||_2. Both come from one dense symmetric eigendecomposition of W.

    `mix` is the operator the rounds multiply by: a CSR copy of W when W is sparse
    (fill <= SPARSE_FILL), W itself otherwise. W stays dense either way.
    """

    topology: Topology
    W: np.ndarray
    rho: float
    beta: float
    mix: np.ndarray | sparse.csr_array

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


def is_connected(t: Topology) -> bool:
    """Depth-first reachability from node 0 over the neighbour rows.

    Linear in the edges: 0.9 ms at n = 2000 (a 6-regular expander) and 3 us at n = 10.
    scipy's connected_components over a CSR copy takes 0.32 ms and 144 us, its per-call
    validation dominating on small graphs.
    """
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


def metropolis_hastings_weights(t: Topology) -> Network:
    """Consensus weights W_ij = 1 / (1 + max(deg_i, deg_j)) for neighbors, mass kept on the diagonal.

    Degrees exclude self-loops, so w_ii = 1 - sum_{j != i} w_ij >= 1/(1 + deg_i) > 0 and W is
    symmetric doubly stochastic by construction. W is filled from the neighbour rows.
    """
    if not is_connected(t):
        raise ValueError("topology must be connected")
    n = t.n
    deg = t.degrees()
    i, j = np.repeat(np.arange(n), np.diff(t.indptr)), t.indices  # W's sparsity pattern, row-major
    off = i != j
    W = np.zeros((n, n))
    W[i[off], j[off]] = 1.0 / (1.0 + np.maximum(deg[i[off]], deg[j[off]]))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    # W is symmetric doubly stochastic on a connected graph, so its eigenvalues lie in
    # [-1, 1] with a single 1, the last in ascending order (the consensus direction)
    ev = np.linalg.eigvalsh(W)
    rho = float(max(-ev[0], ev[-2])) if n > 1 else 0.0
    beta = float(1.0 - ev[0])
    mix = W
    if j.size <= SPARSE_FILL * n * n:
        mix = sparse.csr_array((W[i, j], j, t.indptr), shape=(n, n))
    return Network(topology=t, W=W, rho=rho, beta=beta, mix=mix)
