import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphaug.errors import InvalidShapeError
from graphaug.graphs import (
    Graph, batch_graphs, khop_bfs, make_node_task_batch,
)
from graphaug.rng import RngStream
from graphaug.tensor import Tensor


def path_graph(n, d=2):
    edges = []
    for i in range(n - 1):
        edges += [(i, i + 1), (i + 1, i)]
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    feats = np.arange(n * d, dtype=float).reshape(n, d)
    return Graph(n, edges, feats, np.ones(len(edges)))


def random_graph(n, p, stream, d=3):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = stream.uniform(len(pairs)) < p
    edges = []
    for (i, j), k in zip(pairs, keep):
        if k:
            edges += [(i, j), (j, i)]
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    feats = stream.uniform((n, d))
    return Graph(n, edges, feats, np.ones(len(edges)))


def bfs_distances(g: Graph, src: int) -> np.ndarray:
    """Independent BFS oracle using repeated edge scans."""
    dist = np.full(g.num_nodes, -1)
    dist[src] = 0
    changed = True
    while changed:
        changed = False
        for a, b in g.edges:
            if dist[a] >= 0 and (dist[b] < 0 or dist[b] > dist[a] + 1):
                dist[b] = dist[a] + 1
                changed = True
    return dist


# -- khop_bfs ---------------------------------------------------------------

def test_khop_on_path():
    g = path_graph(5)
    sub = khop_bfs(g, 2, 1)
    assert sub.num_nodes == 3
    assert sorted(sub.orig_ids.tolist()) == [1, 2, 3]
    undirected = {tuple(sorted(e)) for e in sub.edges.tolist()}
    assert undirected == {(0, 1), (1, 2)}
    assert np.array_equal(sub.features, g.features[[1, 2, 3]])


def test_khop_zero_hops():
    g = path_graph(4)
    sub = khop_bfs(g, 1, 0)
    assert sub.num_nodes == 1 and sub.num_edges == 0
    assert sub.orig_ids.tolist() == [1]


def test_khop_triangle_whole():
    edges = np.array([(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
    g = Graph(3, edges, np.eye(3), np.ones(6))
    for c in range(3):
        sub = khop_bfs(g, c, 1)
        assert sub.num_nodes == 3 and sub.num_edges == 6


def test_khop_center_out_of_range():
    with pytest.raises(ValueError):
        khop_bfs(path_graph(3), 5, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 3), st.integers(0, 1000))
def test_khop_is_exact_induced_subgraph(n, hops, seed):
    stream = RngStream(seed, "khop-prop")
    g = random_graph(n, 0.35, stream)
    center = int(stream.integers(0, n))
    sub = khop_bfs(g, center, hops)
    dist = bfs_distances(g, center)
    expect_nodes = sorted(int(v) for v in np.flatnonzero((dist >= 0) & (dist <= hops)))
    assert sub.orig_ids.tolist() == expect_nodes
    # induced: edge in output iff both endpoints kept and edge in input
    kept = set(expect_nodes)
    expect_edges = {(a, b) for a, b in map(tuple, g.edges.tolist())
                    if a in kept and b in kept}
    got_edges = {(int(sub.orig_ids[a]), int(sub.orig_ids[b]))
                 for a, b in sub.edges.tolist()}
    assert got_edges == expect_edges


def _khop_bfs_reference(g: Graph, center: int, hops: int) -> Graph:
    """The BFS over per-call Python adjacency lists that ``khop_bfs`` used
    before the CSR frontier expansion; the oracle for bit-identical output."""
    adj = [[] for _ in range(g.num_nodes)]
    for s, d in g.edges:
        adj[int(s)].append(int(d))
    dist = np.full(g.num_nodes, -1, dtype=np.int64)
    dist[center] = 0
    frontier = [center]
    for _ in range(hops):
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        if not nxt:
            break
        frontier = nxt
    kept = np.flatnonzero(dist >= 0)
    remap = np.full(g.num_nodes, -1, dtype=np.int64)
    remap[kept] = np.arange(len(kept))
    if g.num_edges:
        mask = (remap[g.edges[:, 0]] >= 0) & (remap[g.edges[:, 1]] >= 0)
        new_edges = remap[g.edges[mask]]
    else:
        mask = np.zeros(0, dtype=bool)
        new_edges = np.zeros((0, 2), dtype=np.int64)
    if isinstance(g.features, Tensor):
        feats = g.features.gather_rows(kept)
    else:
        feats = g.features[kept].copy()
    if isinstance(g.edge_weights, Tensor):
        weights = g.edge_weights.gather_rows(np.flatnonzero(mask))
    else:
        weights = g.edge_weights[mask].copy()
    return Graph(len(kept), new_edges, feats, weights, label=g.label,
                 orig_ids=kept, center=int(remap[center]))


def messy_digraph(n, num_edges, stream, tensors=False):
    """Directed edges in shuffled order with self-loops and repeats; the
    last two nodes are isolated."""
    live = n - 2
    edges = stream.integers(0, live, size=(num_edges, 2))
    loops = np.repeat(np.arange(0, live, 3), 2).reshape(-1, 2)
    edges = np.concatenate([edges, loops, edges[:3]], axis=0)
    edges = edges[stream.permutation(len(edges))]
    feats = stream.uniform((n, 3))
    weights = stream.uniform(len(edges))
    if tensors:
        feats = Tensor(feats, requires_grad=True)
        weights = Tensor(weights, requires_grad=True)
    return Graph(n, edges, feats, weights, label=1)


def _raw(x):
    return x.data if isinstance(x, Tensor) else x


def assert_same_graph(got: Graph, want: Graph):
    assert got.num_nodes == want.num_nodes
    assert got.label == want.label and got.center == want.center
    for a, b in [(got.edges, want.edges), (got.orig_ids, want.orig_ids),
                 (_raw(got.features), _raw(want.features)),
                 (_raw(got.edge_weights), _raw(want.edge_weights))]:
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert type(got.features) is type(want.features)
    assert type(got.edge_weights) is type(want.edge_weights)


@pytest.mark.parametrize("tensors", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_khop_matches_reference_bfs(seed, tensors):
    stream = RngStream(seed, "khop-oracle")
    g = messy_digraph(int(stream.integers(6, 30)), int(stream.integers(0, 60)),
                      stream, tensors)
    for hops in range(4):
        for center in range(g.num_nodes):
            assert_same_graph(khop_bfs(g, center, hops),
                              _khop_bfs_reference(g, center, hops))


def test_khop_matches_reference_without_edges():
    g = Graph(4, np.zeros((0, 2)), np.eye(4), np.zeros(0))
    for hops in range(3):
        for center in range(4):
            assert_same_graph(khop_bfs(g, center, hops),
                              _khop_bfs_reference(g, center, hops))


def test_csr_rows_are_out_neighbours_in_edge_order():
    g = messy_digraph(12, 40, RngStream(3, "csr"))
    indptr, indices = g.csr()
    assert indptr[0] == 0 and indptr[-1] == g.num_edges
    for u in range(g.num_nodes):
        want = g.edges[g.edges[:, 0] == u, 1]
        assert np.array_equal(indices[indptr[u]:indptr[u + 1]], want)


def test_csr_built_lazily_and_cached():
    g = messy_digraph(10, 20, RngStream(4, "csr-lazy"))
    assert g._csr is None                      # construction does not build it
    khop_bfs(g, 0, 2)
    cached = g._csr
    assert cached is not None
    khop_bfs(g, 1, 2)
    assert g._csr is cached
    assert all(a is b for a, b in zip(g.csr(), cached))


# -- batching ----------------------------------------------------------------

def test_batch_offsets():
    b = batch_graphs([path_graph(3), path_graph(4)])
    assert b.num_nodes == 7
    assert b.node_offsets.tolist() == [0, 3]
    assert b.node_to_graph.tolist() == [0, 0, 0, 1, 1, 1, 1]
    ge = b.edges
    assert ge.min() >= 0 and ge.max() == 6


def test_batch_single_graph_identity():
    g = path_graph(4)
    b = batch_graphs([g])
    assert np.array_equal(b.edges, g.edges)
    assert np.array_equal(b.features_tensor().data, g.features)


def test_batch_empty_list_rejected():
    with pytest.raises(InvalidShapeError):
        batch_graphs([])


def test_batch_mixed_dims_rejected():
    with pytest.raises(InvalidShapeError):
        batch_graphs([path_graph(3, d=2), path_graph(3, d=5)])


# -- node-task batches ----------------------------------------------------------

def test_node_batch_whole_graph_when_hops_cover():
    g = path_graph(5)
    b = make_node_task_batch(g, 1, hops=10, stream=RngStream(0, "nb"))
    assert b.num_graphs == 1
    assert b.graph(0).num_nodes == 5
    assert sorted(map(tuple, b.graph(0).edges.tolist())) == \
        sorted(map(tuple, g.edges.tolist()))


def test_node_batch_covers_and_centers():
    g = random_graph(100, 0.05, RngStream(5, "big"))
    b = make_node_task_batch(g, 4, hops=2, stream=RngStream(1, "nb2"))
    assert b.num_graphs == 4
    assert len(b.node_to_graph) == b.num_nodes
    for sub in map(b.graph, range(b.num_graphs)):
        assert sub.center is not None
        assert 0 <= sub.center < sub.num_nodes


def test_node_batch_deterministic():
    g = random_graph(30, 0.2, RngStream(2, "det"))
    b1 = make_node_task_batch(g, 5, 1, RngStream(9, "s"))
    b2 = make_node_task_batch(g, 5, 1, RngStream(9, "s"))
    centers1 = [sub.orig_ids[sub.center] for sub in map(b1.graph, range(5))]
    centers2 = [sub.orig_ids[sub.center] for sub in map(b2.graph, range(5))]
    assert centers1 == centers2
