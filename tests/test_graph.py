import tracemalloc

import numpy as np
import pytest

from vanetconn.graph import (
    EdgeList,
    SpectralCeilingError,
    check_spectral_ceiling,
    count_components,
    count_partitions_eigen,
    edges_from_adjacency,
    edges_from_snr,
    is_connected,
)


def _complete(n):
    return edges_from_adjacency(np.ones((n, n), dtype=int) - np.eye(n, dtype=int))


def _path_adjacency(n):
    a = np.zeros((n, n), dtype=int)
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1
    return a


def _path_edges(n):
    return EdgeList(n=n, i=np.arange(n - 1), j=np.arange(1, n))


def _random_adjacency(rng, n=None):
    n = n or int(rng.integers(2, 101))
    p = rng.choice([0.02, 0.08, 0.3, 0.7])
    a = (rng.random((n, n)) < p).astype(int)
    a = np.triu(a, 1)
    return a + a.T


def _random_graph(rng, n=None):
    return edges_from_adjacency(_random_adjacency(rng, n))


def test_threshold_builds_expected_graphs():
    # pairs (0,1), (0,2), (1,2) of three vehicles
    snr = np.array([50.0, 1.0, 2.0])
    i, j = np.array([0, 0, 1]), np.array([1, 2, 2])
    g = edges_from_snr(snr, 10.0, i, j, n=3)
    assert g.degrees.tolist() == [1, 1, 0]
    assert np.all(g.laplacian.sum(axis=1) == 0)
    full = edges_from_snr(snr, 0.5, i, j, n=3)
    assert full.degrees.tolist() == [2, 2, 2]
    assert list(zip(full.i.tolist(), full.j.tolist())) == [(0, 1), (0, 2), (1, 2)]
    empty = edges_from_snr(snr, 100.0, i, j, n=3)
    assert np.all(empty.laplacian == 0)
    # a window without pair (0, 2) lists only the pairs it holds
    window = edges_from_snr(snr[[0, 2]], 0.5, i[[0, 2]], j[[0, 2]], n=3)
    assert list(zip(window.i.tolist(), window.j.tolist())) == [(0, 1), (1, 2)]


def test_threshold_is_inclusive():
    snr = np.array([10.0])
    g = edges_from_snr(snr, 10.0, np.array([0]), np.array([1]), n=2)
    assert g.degrees.tolist() == [1, 1]


def test_edge_list_matches_dense_matrices():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = _random_adjacency(rng)
        e = edges_from_adjacency(a)
        assert np.all(e.i < e.j)
        assert np.array_equal(e.degrees, a.sum(axis=1))
        assert np.array_equal(e.laplacian, np.diag(a.sum(axis=1)) - a)


def test_adjacency_validation():
    with pytest.raises(ValueError):
        edges_from_adjacency(np.ones((2, 2), dtype=int))  # self-loops
    with pytest.raises(ValueError):
        edges_from_adjacency(np.zeros((1, 1), dtype=int))  # single node
    with pytest.raises(ValueError):
        edges_from_adjacency(np.array([[0, 2], [2, 0]]))  # weighted
    with pytest.raises(ValueError):
        edges_from_adjacency(np.array([[0, 1], [0, 0]]))  # directed
    with pytest.raises(ValueError):
        edges_from_adjacency(np.zeros((2, 3), dtype=int))  # not square


def test_complete_graph_spectrum():
    for n in (2, 5, 12):
        g = _complete(n)
        assert abs(np.linalg.eigvalsh(g.laplacian)[1] - n) < 1e-9
        assert g.degrees.tolist() == [n - 1] * n


def test_path_graph_eigenvalue():
    # hand diagonalisation of the 3-node chain Laplacian: spectrum {0, 1, 3}
    g = edges_from_adjacency(_path_adjacency(3))
    eigs = np.linalg.eigvalsh(g.laplacian)
    assert np.allclose(eigs, [0.0, 1.0, 3.0], atol=1e-9)
    assert abs(np.linalg.eigvalsh(g.laplacian)[1] - 1.0) < 1e-9


def test_disconnected_pairs():
    a = np.zeros((4, 4), dtype=int)
    a[0, 1] = a[1, 0] = 1
    a[2, 3] = a[3, 2] = 1
    g = edges_from_adjacency(a)
    assert abs(np.linalg.eigvalsh(g.laplacian)[1]) < 1e-9
    assert not is_connected(g)
    assert count_partitions_eigen(g) == 2
    assert count_components(g) == 2


def test_partition_counts_on_fixed_cases():
    triangle = _complete(3)
    assert count_partitions_eigen(triangle) == 1
    assert count_components(triangle) == 1
    empty = edges_from_adjacency(np.zeros((5, 5), dtype=int))
    assert count_partitions_eigen(empty) == 5
    assert count_components(empty) == 5
    # components of sizes 2 and 3
    a = np.zeros((5, 5), dtype=int)
    for i, j in ((0, 1), (2, 3), (3, 4)):
        a[i, j] = a[j, i] = 1
    two = edges_from_adjacency(a)
    assert count_partitions_eigen(two) == 2
    assert count_components(two) == 2


def test_connectivity_decisions():
    chain = _path_adjacency(8)
    assert is_connected(edges_from_adjacency(chain))
    chain[3, 4] = chain[4, 3] = 0
    assert not is_connected(edges_from_adjacency(chain))
    assert is_connected(_complete(6))


def test_eigen_matches_components_on_random_graphs():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        g = _random_graph(rng)
        assert count_partitions_eigen(g) == count_components(g)


def test_components_and_eigen_agree_including_long_chains():
    rng = np.random.default_rng(31)
    cases = [_random_graph(rng) for _ in range(200)]
    for n in (2, 50, 400, 1500):
        chain = _path_edges(n)
        cases.append(chain)
        # cut one link of the chain, then bridge the cut over a skipped vertex
        k = int(rng.integers(n - 1))
        keep = np.arange(n - 1) != k
        cases.append(EdgeList(n=n, i=chain.i[keep], j=chain.j[keep]))
        if 0 < k < n - 2:
            cases.append(EdgeList(n=n, i=np.append(chain.i[keep], k),
                                  j=np.append(chain.j[keep], k + 2)))
    for e in cases:
        components = count_components(e)
        assert count_partitions_eigen(e) == components
        assert is_connected(e) == (components == 1)


def test_component_count_does_not_depend_on_edge_order():
    rng = np.random.default_rng(58)
    for _ in range(100):
        g = _random_graph(rng)
        order = rng.permutation(g.i.size)
        shuffled = EdgeList(n=g.n, i=g.i[order], j=g.j[order])
        assert count_components(shuffled) == count_components(g)
    # a path listed back to front is one component
    chain = _path_edges(50)
    assert count_components(EdgeList(n=50, i=chain.i[::-1], j=chain.j[::-1])) == 1


def test_spectral_ceiling_is_derived_from_the_mohar_bound():
    # a path has max degree 2, so the tolerance bound is 4e-8 against 4 / (n (n - 1))
    check_spectral_ceiling(10_000, 2)
    with pytest.raises(SpectralCeilingError):
        check_spectral_ceiling(10_001, 2)
    check_spectral_ceiling(300, 299)  # complete graph at the largest N the sweeps use


def test_spectral_decider_refuses_a_long_path_before_the_eigensolve():
    chain = _path_edges(20_000)  # a dense Laplacian would take 3.2 GB
    assert count_components(chain) == 1
    tracemalloc.start()
    try:
        with pytest.raises(SpectralCeilingError):
            is_connected(chain)
        with pytest.raises(SpectralCeilingError):
            count_partitions_eigen(chain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_laplacian_properties_random():
    rng = np.random.default_rng(99)
    for _ in range(25):
        g = _random_graph(rng, n=40)
        assert np.all(g.laplacian.sum(axis=1) == 0)
        eigs = np.linalg.eigvalsh(g.laplacian)
        assert eigs[0] > -1e-9, "positive semidefinite"
        if is_connected(g):
            assert eigs[1] <= g.n + 1e-9, "algebraic connectivity at most n"


def test_adding_edges_never_disconnects():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = _random_adjacency(rng, n=15)
        if not is_connected(edges_from_adjacency(a)):
            continue
        zeros = np.argwhere(np.triu(a == 0, 1))
        if zeros.size == 0:
            continue
        i, j = zeros[rng.integers(len(zeros))]
        a[i, j] = a[j, i] = 1
        assert is_connected(edges_from_adjacency(a))
