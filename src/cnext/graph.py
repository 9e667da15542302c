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
    """Undirected communication graph with self-loops on every node."""

    n: int
    adjacency: np.ndarray  # boolean n x n, symmetric, True diagonal

    def degrees(self) -> np.ndarray:
        """Neighbor counts excluding the self-loop."""
        return self.adjacency.sum(axis=1) - 1


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


def build_ring(n: int) -> Topology:
    """Cycle graph with self-loops; n=1 is a lone self-looped node, n=2 the 2-clique."""
    if n < 1:
        raise ValueError(f"ring needs n >= 1, got {n}")
    adj = np.eye(n, dtype=bool)
    for i in range(n):
        adj[i, (i + 1) % n] = True
        adj[i, (i - 1) % n] = True
    return Topology(n=n, adjacency=adj)


def build_circulant_expander(n: int, degree: int) -> Topology:
    """Circulant graph on n nodes: i adjacent to i +- 1 .. degree/2 (mod n), plus self-loops."""
    if n < 1:
        raise ValueError(f"expander needs n >= 1, got {n}")
    if degree % 2 != 0 or degree <= 0:
        raise ValueError(f"degree must be a positive even integer, got {degree}")
    if degree >= n:
        raise ValueError(f"degree must be < n, got degree={degree}, n={n}")
    adj = np.eye(n, dtype=bool)
    for off in range(1, degree // 2 + 1):
        for i in range(n):
            adj[i, (i + off) % n] = True
            adj[i, (i - off) % n] = True
    return Topology(n=n, adjacency=adj)


def build_custom(adjacency: np.ndarray) -> Topology:
    """Topology from an explicit boolean adjacency; diagonal is forced True."""
    adj = np.asarray(adjacency, dtype=bool).copy()
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {adj.shape}")
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency must be symmetric")
    np.fill_diagonal(adj, True)
    return Topology(n=adj.shape[0], adjacency=adj)


def _edges(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every non-zero entry in row-major order, as np.nonzero gives them;
    read through the flat index, which takes 0.6 ms at n = 2000 against 8.5 ms."""
    return np.divmod(np.flatnonzero(adjacency), adjacency.shape[0])


def is_connected(t: Topology) -> bool:
    """Depth-first reachability from node 0 over the adjacency's edge list.

    Linear in the edges once the list is read: 1.1 ms at n = 2000 (a 6-regular expander)
    and 6 us at n = 10. scipy's connected_components takes 0.66 ms and 52 us, its per-call
    validation dominating on small graphs.
    """
    i, j = _edges(t.adjacency)
    start = np.searchsorted(i, np.arange(t.n + 1)).tolist()
    neighbours = j.tolist()
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
    symmetric doubly stochastic by construction. W is filled from the edge list.
    """
    if not is_connected(t):
        raise ValueError("topology must be connected")
    n = t.n
    deg = t.degrees()
    i, j = _edges(t.adjacency)  # row-major, self-loops included: W's sparsity pattern
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
    if i.size <= SPARSE_FILL * n * n:
        mix = sparse.csr_array((W[i, j], j, np.searchsorted(i, np.arange(n + 1))), shape=(n, n))
    return Network(topology=t, W=W, rho=rho, beta=beta, mix=mix)
