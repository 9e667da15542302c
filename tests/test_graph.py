import ctypes
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import sparse

from cnext.graph import build_circulant_expander, build_custom, build_ring, metropolis_hastings_weights
from conftest import is_connected


def circulant_mh_rho(n, offsets):
    """Independent oracle: eigenvalues of a circulant MH matrix are known in closed form."""
    deg = 2 * len(offsets)
    w = 1.0 / (1.0 + deg)
    ks = np.arange(1, n)
    lam = w * (1.0 + 2.0 * sum(np.cos(2.0 * np.pi * ks * m / n) for m in offsets))
    return float(np.max(np.abs(lam)))


def dense(topo):
    """The boolean n x n adjacency a topology's neighbour rows describe."""
    adj = np.zeros((topo.n, topo.n), dtype=bool)
    adj[np.repeat(np.arange(topo.n), np.diff(topo.indptr)), topo.indices] = True
    return adj


def circulant_reference(n, offsets):
    """Dense reference: i adjacent to i +- each offset (mod n), and to itself, pair by pair."""
    adj = np.eye(n, dtype=bool)
    for off in offsets:
        for i in range(n):
            adj[i, (i + off) % n] = True
            adj[i, (i - off) % n] = True
    return adj


def assert_rows_of(topo, adj):
    """topo holds exactly adj's non-zeros, row by row, each row sorted and without repeats."""
    i, j = np.nonzero(adj)
    assert topo.n == adj.shape[0]
    assert np.array_equal(topo.indptr, np.searchsorted(i, np.arange(topo.n + 1)))
    assert np.array_equal(topo.indices, j)


def test_ring_structure():
    t1 = build_ring(1)
    assert dense(t1).tolist() == [[True]]
    t3 = build_ring(3)
    assert dense(t3).all()  # cycle of 3 is the complete graph
    t10 = build_ring(10)
    assert (t10.degrees() == 2).all()
    assert np.array_equal(dense(t10), dense(t10).T)
    assert dense(t10).diagonal().all()


def test_expander_structure():
    t = build_circulant_expander(14, 6)
    assert (t.degrees() == 6).all()
    complete = build_circulant_expander(5, 4)
    assert dense(complete).all()


@pytest.mark.parametrize("n", [1, 2, 3, 10, 14, 256])
def test_circulant_rows_match_the_dense_loops(n):
    assert_rows_of(build_ring(n), circulant_reference(n, [1]))
    for degree in (2, 4, 6, 12):
        if degree < n:
            topo = build_circulant_expander(n, degree)
            assert_rows_of(topo, circulant_reference(n, range(1, degree // 2 + 1)))
            assert (topo.degrees() == degree).all()


def test_large_expander_holds_no_n_by_n_array():
    # n = 10^5: a boolean n x n adjacency would take 10 GB; the rows take 7 n + n + 1 integers
    topo = build_circulant_expander(10**5, 6)
    assert is_connected(topo)
    assert topo.indices.nbytes + topo.indptr.nbytes < 8 * 2**20


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_ring(0)
    with pytest.raises(ValueError, match="expander needs n >= 1"):
        build_circulant_expander(0, 2)
    with pytest.raises(ValueError, match="adjacency must be square"):
        build_custom(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        build_circulant_expander(14, 5)  # odd degree
    with pytest.raises(ValueError):
        build_circulant_expander(6, 6)  # degree >= n
    disconnected = np.zeros((4, 4), dtype=bool)
    disconnected[0, 1] = disconnected[1, 0] = True
    with pytest.raises(ValueError):
        metropolis_hastings_weights(build_custom(disconnected))


def test_single_node():
    net = metropolis_hastings_weights(build_ring(1))
    assert net.W.tolist() == [[1.0]]
    assert net.rho == pytest.approx(0.0, abs=1e-14)
    assert net.beta == pytest.approx(0.0, abs=1e-14)


def test_ring3_uniform_averaging():
    net = metropolis_hastings_weights(build_ring(3))
    assert np.allclose(net.W, np.full((3, 3), 1.0 / 3.0), atol=1e-15)
    assert net.rho == pytest.approx(0.0, abs=1e-14)


def test_ring10_rho_matches_published_value():
    # of the two agent counts attached to rho = 0.8727 in the source setup, n = 10
    # is the one that reproduces it; n = 20 gives 0.9674
    net10 = metropolis_hastings_weights(build_ring(10))
    assert net10.rho == pytest.approx(circulant_mh_rho(10, [1]), abs=1e-12)
    assert net10.rho == pytest.approx(0.8727, abs=5e-4)
    net20 = metropolis_hastings_weights(build_ring(20))
    assert net20.rho == pytest.approx(circulant_mh_rho(20, [1]), abs=1e-12)
    assert net20.rho > 0.96


def test_expander14_rho_oracle():
    # the fixed circulant (i +- 1,2,3) construction; its MH spectrum is known in
    # closed form and lands at 0.6420, not at the 0.7912 reported for an
    # unspecified expander of the same size and degree
    net = metropolis_hastings_weights(build_circulant_expander(14, 6))
    assert net.rho == pytest.approx(circulant_mh_rho(14, [1, 2, 3]), abs=1e-12)
    assert net.rho == pytest.approx(0.6419941724907049, abs=1e-10)


def _ring_with_chords(n):
    """A ring plus chords i -- i + 5 for even i: connected, irregular and not circulant."""
    adj = dense(build_ring(n))
    for i in range(0, n, 2):
        adj[i, (i + 5) % n] = adj[(i + 5) % n, i] = True
    return build_custom(adj)


@pytest.mark.parametrize("topo", [build_ring(2), build_ring(5), build_ring(10),
                                  build_circulant_expander(14, 6),
                                  build_circulant_expander(9, 4), _ring_with_chords(40)])
def test_network_invariants(topo):
    net = metropolis_hastings_weights(topo)
    n = net.n
    W = net.W
    # the edge-list fill equals the definition written out pair by pair
    deg = topo.degrees()
    adj = dense(topo)
    ref = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and adj[i, j]:
                ref[i, j] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(ref, 1.0 - ref.sum(axis=1))
    assert np.array_equal(W, ref)
    assert np.all(W >= 0)
    assert np.max(np.abs(W.sum(axis=0) - 1)) <= 1e-12
    assert np.max(np.abs(W.sum(axis=1) - 1)) <= 1e-12
    assert np.array_equal(W, W.T)
    off = ~np.eye(n, dtype=bool)
    assert np.array_equal(W[off] > 0, adj[off])
    assert np.all(W.diagonal() > 0)
    assert np.allclose(W @ np.ones(n), np.ones(n), atol=1e-12)
    assert 0 <= net.rho < 1
    assert net.beta <= 2 + 1e-12


def test_rho_is_second_singular_value():
    for n in (4, 11, 23, 50):
        net = metropolis_hastings_weights(build_ring(n))
        s = np.sort(np.linalg.svd(net.W, compute_uv=False))[::-1]
        assert s[0] == pytest.approx(1.0, abs=1e-12)
        assert net.rho == pytest.approx(s[1], abs=1e-12)


def _relabelled(topo, seed=0):
    """The same graph with its nodes permuted: rows no longer shifts of row 0."""
    perm = np.random.default_rng(seed).permutation(topo.n)
    adj = np.zeros((topo.n, topo.n), dtype=bool)
    adj[perm[:, None], perm[None, :]] = dense(topo)
    return build_custom(adj)


def test_spectral_gap_norm_oracle():
    # rho and beta come from an eigendecomposition of a dense W, or from the DFT of row 0 of
    # a circulant CSR W; check both against their definitions, on graphs that mix through W
    # itself and through CSR, circulant (a build_custom copy of a ring too) or not
    topologies = ([build_ring(n) for n in (1, 2, 3, 7, 20, 256)]
                  + [build_circulant_expander(n, 6) for n in (30, 256, 2000)] + [_ring_with_chords(40)]
                  + [build_custom(dense(build_ring(256))), _relabelled(build_ring(256))])
    for topo in topologies:
        net = metropolis_hastings_weights(topo)
        n = topo.n
        M = net.W - np.ones((n, n)) / n
        oracle = float(np.max(np.abs(np.linalg.eigvalsh(M))))
        assert net.rho == pytest.approx(oracle, abs=1e-14)
        beta = float(np.max(np.abs(np.linalg.eigvalsh(np.eye(n) - net.W))))
        assert net.beta == pytest.approx(beta, abs=1e-14)


@given(st.floats(min_value=1e-9, max_value=1.0), st.integers(min_value=4, max_value=40))
def test_rho_tilde_below_one(gamma, n):
    net = metropolis_hastings_weights(build_ring(n))
    assert net.rho < 1
    assert net.rho_tilde(gamma) < 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spectral_constants_are_never_negative_zero(n):
    # the 2-ring's max(-ev[0], ev[-2]) is max(-0.0, 0.0), which is -0.0
    net = metropolis_hastings_weights(build_ring(n))
    assert math.copysign(1.0, net.rho) == 1.0
    assert math.copysign(1.0, net.beta) == 1.0


def test_csr_weights_hold_no_n_by_n_array():
    # n = 10^5: a dense W would take 80 GB; the CSR weights and the DFT of row 0 take a few MB
    topo = build_circulant_expander(10**5, 6)
    tracemalloc.start()
    try:
        net = metropolis_hastings_weights(topo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert sparse.issparse(net.mix) and "W" not in vars(net)


def test_csr_w_is_formed_on_first_read():
    net = metropolis_hastings_weights(build_circulant_expander(2000, 6))
    assert "W" not in vars(net)
    W = net.W
    assert net.W is W and np.array_equal(W, net.mix.toarray())
    dense_net = metropolis_hastings_weights(build_ring(10))
    assert dense_net.W is dense_net.mix


def test_only_circulant_csr_rows_skip_the_eigensolve(monkeypatch):
    # rows that are shifts of row 0, however the topology was built, take the DFT of row 0;
    # other CSR graphs and every dense one take eigvalsh
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
    for topo, solves in ((build_circulant_expander(2000, 6), 0), (build_custom(dense(build_ring(256))), 0),
                         (_relabelled(build_ring(256)), 1), (build_ring(10), 1)):
        calls.clear()
        metropolis_hastings_weights(topo)
        assert len(calls) == solves


def _dense_weights(topo):
    """The off-diagonal weights, pair by pair in one vectorised fill, and the row sums numpy
    takes over them in the dense n x n layout."""
    adj = dense(topo)
    np.fill_diagonal(adj, False)
    deg = topo.degrees()
    ref = np.where(adj, 1.0 / (1.0 + np.maximum(deg[:, None], deg[None, :])), 0.0)
    return ref, ref.sum(axis=1)


@pytest.mark.parametrize("topo", [build_ring(200), build_circulant_expander(256, 6),
                                  build_circulant_expander(2000, 6), _relabelled(build_ring(256)),
                                  _ring_with_chords(256)], ids=["ring200", "expander256",
                                  "expander2000", "relabelled-ring256", "ring-with-chords256"])
def test_csr_weights_drift_from_the_dense_fill_by_roundoff(topo):
    # the CSR build sums each row in column order, the dense fill in numpy's pairwise order:
    # off-diagonal weights are equal, and the diagonals differ by at most 1 ulp of the row sum
    # (none on rows of two neighbours, where both orders add the same two numbers)
    net = metropolis_hastings_weights(topo)
    assert sparse.issparse(net.mix)
    ref, rowsum = _dense_weights(topo)
    off = ~np.eye(topo.n, dtype=bool)
    assert np.array_equal(net.W[off], ref[off])
    diag = net.W.diagonal()
    assert np.all(np.abs(diag - (1.0 - rowsum)) <= np.spacing(rowsum))
    two = topo.degrees() == 2
    assert np.array_equal(diag[two], 1.0 - rowsum[two])


@pytest.mark.parametrize("n, offsets, connected", [
    (10, [2], False), (10, [3], True), (10, [2, 5], True), (12, [4, 6], False),
    (12, [3, 4], True), (7, [0], False), (1, [0], True)])
def test_circulant_connectivity_is_the_gcd(n, offsets, connected):
    # a build_custom circulant: the shifts generate Z_n iff gcd(n, shifts) = 1
    adj = circulant_reference(n, offsets)
    assert is_connected(build_custom(adj)) is connected
    assert bfs_connected(adj) is connected


def test_custom_topology_roundtrip():
    t = build_ring(6)
    t2 = build_custom(dense(t))
    assert np.array_equal(t.indptr, t2.indptr) and np.array_equal(t.indices, t2.indices)
    assert is_connected(t2)


def bfs_connected(adjacency):
    """Reference: depth-first reachability from node 0 over dense adjacency rows."""
    seen = np.zeros(adjacency.shape[0], dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        for j in np.flatnonzero(adjacency[stack.pop()] & ~seen):
            seen[j] = True
            stack.append(j)
    return bool(seen.all())


def test_is_connected_matches_reachability():
    rng = np.random.default_rng(3)
    outcomes = []
    for _ in range(200):
        n = int(rng.integers(1, 30))
        upper = np.triu(rng.uniform(size=(n, n)) < rng.uniform(0.0, 0.3), 1)
        adjacency = upper | upper.T
        topo = build_custom(adjacency)
        assert_rows_of(topo, adjacency | np.eye(n, dtype=bool))
        outcomes.append(bfs_connected(adjacency))
        assert is_connected(topo) is outcomes[-1]
    assert set(outcomes) == {True, False}


def test_sparse_graphs_mix_through_csr():
    # fill 7/256 and 3/200, both at most 1/32: a CSR copy of W, equal to W entry for entry
    for topo in (build_circulant_expander(256, 6), build_ring(200)):
        net = metropolis_hastings_weights(topo)
        assert sparse.issparse(net.mix) and net.mix.format == "csr"
        assert isinstance(net.W, np.ndarray)
        assert np.array_equal(net.mix.toarray(), net.W)
        assert net.mix.nnz == np.count_nonzero(net.W)
    # the desk ring (fill 0.3), a 64-node ring (0.047) and a 128-node expander (0.055)
    # mix through W itself
    for topo in (build_ring(10), build_ring(64), build_circulant_expander(128, 6)):
        net = metropolis_hastings_weights(topo)
        assert net.mix is net.W


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd",
                                                     "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]


def test_large_arrays_stay_mapped_after_a_large_free():
    # glibc's dynamic threshold would rise to the freed n = 2000 matrix's 32 MB and put the next
    # 8 MiB array in the brk heap; importing cnext fixes the threshold at 4 MiB
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    if not hasattr(libc, "mallinfo2") or "MALLOC_MMAP_THRESHOLD_" in os.environ:
        pytest.skip("needs glibc >= 2.33 and no MALLOC_MMAP_THRESHOLD_ in the environment")
    libc.mallinfo2.restype = _MallInfo2
    W = metropolis_hastings_weights(build_circulant_expander(2000, 6)).W
    del W
    mapped = libc.mallinfo2().hblkhd
    a = np.ones(1 << 20)
    assert libc.mallinfo2().hblkhd - mapped >= a.nbytes
