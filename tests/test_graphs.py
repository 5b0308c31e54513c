import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphaug.errors import InvalidShapeError
from graphaug.graphs import (
    Graph, batch_graphs, khop_bfs, make_node_task_batch,
)
from graphaug.rng import RngStream


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


# -- batching ----------------------------------------------------------------

def test_batch_offsets():
    b = batch_graphs([path_graph(3), path_graph(4)])
    assert b.total_nodes == 7
    assert b.node_offsets.tolist() == [0, 3]
    assert b.node_to_graph.tolist() == [0, 0, 0, 1, 1, 1, 1]
    ge = b.global_edges()
    assert ge.min() >= 0 and ge.max() == 6


def test_batch_single_graph_identity():
    g = path_graph(4)
    b = batch_graphs([g])
    assert np.array_equal(b.global_edges(), g.edges)
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
    assert b.graphs[0].num_nodes == 5
    assert sorted(map(tuple, b.graphs[0].edges.tolist())) == \
        sorted(map(tuple, g.edges.tolist()))


def test_node_batch_covers_and_centers():
    g = random_graph(100, 0.05, RngStream(5, "big"))
    b = make_node_task_batch(g, 4, hops=2, stream=RngStream(1, "nb2"))
    assert b.num_graphs == 4
    assert len(b.node_to_graph) == b.total_nodes
    for sub in b.graphs:
        assert sub.center is not None
        assert 0 <= sub.center < sub.num_nodes


def test_node_batch_deterministic():
    g = random_graph(30, 0.2, RngStream(2, "det"))
    b1 = make_node_task_batch(g, 5, 1, RngStream(9, "s"))
    b2 = make_node_task_batch(g, 5, 1, RngStream(9, "s"))
    centers1 = [sub.orig_ids[sub.center] for sub in b1.graphs]
    centers2 = [sub.orig_ids[sub.center] for sub in b2.graphs]
    assert centers1 == centers2
