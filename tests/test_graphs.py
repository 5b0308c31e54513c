from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphaug.errors import InvalidShapeError
from graphaug.graphs import (
    Graph, GraphBatch, batch_graphs, khop_bfs, make_node_task_batch,
    sorted_unique,
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


def bfs_distances(g: GraphBatch, src: int) -> np.ndarray:
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

@pytest.mark.parametrize("values", [
    [], [7], [3, 3, 3], [5, -2, 5, 0, -2, 9, 0, 0],
    *(RngStream(seed, "unique").integers(-high, high, size=size)
      for seed, high, size in ((0, 4, 2), (1, 40, 50), (2, 10 ** 7, 7442))),
], ids=["empty", "single", "repeated", "mixed", "rand2", "rand50",
        "rand7442"])
def test_sorted_unique_is_np_unique(values):
    a = np.asarray(values, dtype=np.int64)
    before = a.copy()
    got = sorted_unique(a)
    want = np.unique(a)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(a, before)            # not sorted in place


def test_khop_on_path():
    g = path_graph(5)
    b = khop_bfs(g, [2], 1)
    sub = b.graph(0)
    assert sub.num_nodes == 3
    assert b.orig_ids.tolist() == [1, 2, 3]
    assert b.centers.tolist() == [1]
    undirected = {tuple(sorted(e)) for e in sub.edges.tolist()}
    assert undirected == {(0, 1), (1, 2)}
    assert np.array_equal(sub.features.data, g.features.data[[1, 2, 3]])


def test_khop_zero_hops():
    g = path_graph(4)
    b = khop_bfs(g, [1], 0)
    assert b.num_nodes == 1 and b.num_edges == 0
    assert b.orig_ids.tolist() == [1]
    assert b.centers.tolist() == [0]


def test_khop_triangle_whole():
    edges = np.array([(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
    g = Graph(3, edges, np.eye(3), np.ones(6))
    b = khop_bfs(g, [0, 1, 2], 1)
    assert b.node_counts.tolist() == [3, 3, 3]
    assert [b.graph(k).num_edges for k in range(3)] == [6, 6, 6]
    assert b.centers.tolist() == [0, 1, 2]


def test_khop_center_out_of_range():
    for centers in ([5], [0, -1]):
        with pytest.raises(ValueError, match=r"centers in \[0, 3\)"):
            khop_bfs(path_graph(3), centers, 1)


def test_khop_rejects_no_centers_and_negative_hops():
    with pytest.raises(ValueError, match="one or more centers"):
        khop_bfs(path_graph(3), [], 1)
    with pytest.raises(ValueError, match="one or more centers"):
        make_node_task_batch(path_graph(3), 0, 1, RngStream(0, "none"))
    with pytest.raises(ValueError, match="hop count"):
        khop_bfs(path_graph(3), [0], -1)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 3), st.integers(0, 1000))
def test_khop_is_exact_induced_subgraph(n, hops, seed):
    stream = RngStream(seed, "khop-prop")
    g = random_graph(n, 0.35, stream)
    center = int(stream.integers(0, n))
    batch = khop_bfs(g, [center], hops)
    dist = bfs_distances(g, center)
    expect_nodes = sorted(int(v) for v in np.flatnonzero((dist >= 0) & (dist <= hops)))
    assert batch.orig_ids.tolist() == expect_nodes
    assert batch.orig_ids[batch.centers[0]] == center
    # induced: edge in output iff both endpoints kept and edge in input
    kept = set(expect_nodes)
    expect_edges = {(a, b) for a, b in map(tuple, g.edges.tolist())
                    if a in kept and b in kept}
    got_edges = {(int(batch.orig_ids[a]), int(batch.orig_ids[b]))
                 for a, b in batch.edges.tolist()}
    assert got_edges == expect_edges


def khop_bfs_reference(g: GraphBatch, center: int, hops: int):
    """One center's k-hop subgraph by a BFS over Python adjacency lists: the
    induced ``Graph`` on the kept nodes in ascending order, the kept ids in
    ``g`` and the center's local id. The oracle for bit-identical output."""
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
    feats = g.features.gather_rows(kept)
    weights = g.edge_weights.gather_rows(np.flatnonzero(mask))
    return (Graph(len(kept), new_edges, feats, weights), kept,
            int(remap[center]))


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
    return Graph(n, edges, feats, weights)


def assert_matches_reference(g: GraphBatch, centers, hops: int):
    """``khop_bfs`` equals the per-center reference subgraphs packed by
    ``batch_graphs``, array for array, dtype and ``requires_grad``
    included."""
    got = khop_bfs(g, centers, hops)
    refs = [khop_bfs_reference(g, int(c), hops) for c in centers]
    want = batch_graphs([sub for sub, _, _ in refs])
    want_ids = np.concatenate([kept for _, kept, _ in refs])
    want_centers = np.array([c for _, _, c in refs], dtype=np.int64)
    for a, b in [(got.edges, want.edges), (got.node_counts, want.node_counts),
                 (got.orig_ids, want_ids), (got.centers, want_centers),
                 (got.features.data, want.features.data),
                 (got.edge_weights.data, want.edge_weights.data)]:
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.features.requires_grad == want.features.requires_grad
    assert got.edge_weights.requires_grad == want.edge_weights.requires_grad


@pytest.mark.parametrize("tensors", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_khop_matches_reference_bfs(seed, tensors):
    stream = RngStream(seed, "khop-oracle")
    g = messy_digraph(int(stream.integers(6, 30)), int(stream.integers(0, 60)),
                      stream, tensors)
    # every node once, then repeats, in shuffled order
    centers = np.concatenate([np.arange(g.num_nodes),
                              stream.integers(0, g.num_nodes, size=7)])
    centers = centers[stream.permutation(len(centers))]
    for hops in range(4):
        assert_matches_reference(g, centers, hops)
        assert_matches_reference(g, centers[:1], hops)


def test_khop_matches_reference_without_edges():
    g = Graph(4, np.zeros((0, 2)), np.eye(4), np.zeros(0))
    for hops in range(3):
        assert_matches_reference(g, [0, 1, 2, 3, 2], hops)


def test_csr_rows_are_out_neighbours_in_edge_order():
    g = messy_digraph(12, 40, RngStream(3, "csr"))
    indptr, indices, edge_ids = g.csr
    assert indptr[0] == 0 and indptr[-1] == g.num_edges
    for u in range(g.num_nodes):
        row = slice(indptr[u], indptr[u + 1])
        want = np.flatnonzero(g.edges[:, 0] == u)
        assert np.array_equal(edge_ids[row], want)
        assert np.array_equal(indices[row], g.edges[edge_ids[row], 1])


def test_csr_built_lazily_and_cached():
    g = messy_digraph(10, 20, RngStream(4, "csr-lazy"))
    # construction builds none of the derived arrays
    assert not {"csr", "node_offsets", "node_to_graph"} & set(vars(g))
    khop_bfs(g, [0], 2)
    cached = vars(g)["csr"]
    khop_bfs(g, [1, 3], 2)
    assert g.csr is cached
    assert all(a is b for a, b in zip(g.csr, cached))


def test_replaced_edges_get_their_own_adjacency():
    g = path_graph(4)
    whole = g.csr
    view = replace(g, edges=g.edges[:2], edge_weights=np.ones(2))
    assert "csr" not in vars(view)             # the cache does not carry over
    assert view.csr[0].tolist() == [0, 1, 2, 2, 2]
    assert g.csr is whole
    assert khop_bfs(view, [0], 3).orig_ids.tolist() == [0, 1]
    assert khop_bfs(g, [0], 3).orig_ids.tolist() == [0, 1, 2, 3]


def test_khop_on_a_batch_matches_each_graph():
    """One center per graph of a batch cuts what each graph cuts alone, with
    ``orig_ids`` offset by the graph's first node."""
    stream = RngStream(12, "khop-batch")
    graphs = [messy_digraph(7, 12, stream),
              Graph(2, np.zeros((0, 2)), stream.uniform((2, 3)), np.zeros(0)),
              messy_digraph(3, 0, stream), messy_digraph(9, 20, stream),
              path_graph(5, d=3)]
    batch = batch_graphs(graphs)
    local = [int(stream.integers(0, g.num_nodes)) for g in graphs]
    for hops in range(4):
        got = khop_bfs(batch, batch.node_offsets + local, hops)
        alone = [khop_bfs(g, [c], hops) for g, c in zip(graphs, local)]
        want = batch_graphs(alone)
        for a, b in [(got.edges, want.edges),
                     (got.node_counts, want.node_counts),
                     (got.centers, np.concatenate([w.centers for w in alone])),
                     (got.orig_ids - batch.node_offsets[got.node_to_graph],
                      np.concatenate([w.orig_ids for w in alone])),
                     (got.features.data, want.features.data),
                     (got.edge_weights.data, want.edge_weights.data)]:
            assert a.dtype == b.dtype and np.array_equal(a, b)


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
    assert np.array_equal(b.features.data, g.features.data)


def test_graph_k_rebuilds_every_input_graph():
    stream = RngStream(6, "rebuild")

    def edgeless(n):
        return Graph(n, np.zeros((0, 2)), stream.uniform((n, 3)), np.zeros(0))

    # edgeless first, middle and last: graph(k) finds its edges by owner
    mixed = [edgeless(2), messy_digraph(7, 12, stream), edgeless(1),
             messy_digraph(9, 20, stream), edgeless(3)]
    for graphs in (mixed, [edgeless(1), edgeless(4)]):
        b = batch_graphs(graphs)
        for k, g in enumerate(graphs):
            sub = b.graph(k)
            assert sub.num_nodes == g.num_nodes
            for got, want in [(sub.edges, g.edges),
                              (sub.features.data, g.features.data),
                              (sub.edge_weights.data, g.edge_weights.data)]:
                assert got.dtype == want.dtype and np.array_equal(got, want)


def test_graph_k_out_of_range_raises():
    b = batch_graphs([path_graph(2), path_graph(3)])
    for k in (-1, 2):
        with pytest.raises(IndexError, match=f"graph {k} of a batch of 2"):
            b.graph(k)


def test_batch_empty_list_rejected():
    with pytest.raises(InvalidShapeError):
        batch_graphs([])


def test_batch_mixed_dims_rejected():
    with pytest.raises(InvalidShapeError):
        batch_graphs([path_graph(3, d=2), path_graph(3, d=5)])


def test_graph_needs_a_feature_matrix():
    edges = np.array([(0, 1), (1, 0)])
    with pytest.raises(InvalidShapeError, match=r"got shape \(2,\)"):
        Graph(2, edges, np.ones(2), np.ones(2))


# -- graph data is always a Tensor -------------------------------------------------

def test_arrays_are_wrapped_without_a_copy():
    edges = np.array([(0, 1), (1, 0), (1, 2), (2, 1)])
    feats, weights = np.arange(6.0).reshape(3, 2), np.linspace(0.1, 0.4, 4)
    g = Graph(3, edges, feats, weights)
    b = GraphBatch(edges, feats, weights, np.array([3]))
    for x in (g, b):
        assert type(x.features) is Tensor and type(x.edge_weights) is Tensor
        assert x.features.data is feats and x.edge_weights.data is weights
        assert not x.features.requires_grad
        assert not x.edge_weights.requires_grad


def test_tensors_pass_through_as_the_same_object():
    edges = np.array([(0, 1), (1, 0)])
    feats = Tensor(np.ones((2, 3)), requires_grad=True)
    weights = Tensor(np.full(2, 0.5), requires_grad=True)
    g = Graph(2, edges, feats, weights)
    b = GraphBatch(edges, feats, weights, np.array([2]))
    for x in (g, b):
        assert x.features is feats and x.edge_weights is weights


def test_replace_with_array_weights_yields_a_tensor():
    b = batch_graphs([path_graph(3), path_graph(2)])
    unit = replace(b, edge_weights=np.ones(b.num_edges))
    assert type(unit.edge_weights) is Tensor
    assert np.array_equal(unit.edge_weights.data, np.ones(b.num_edges))
    assert unit.features is b.features


def test_batch_of_array_graphs_stays_off_the_tape():
    b = batch_graphs([path_graph(3), path_graph(4, d=2), path_graph(1)])
    assert not b.features.requires_grad and not b.edge_weights.requires_grad
    assert b.features._parents == () and b.edge_weights._parents == ()


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
    assert b.centers is not None
    assert np.all((0 <= b.centers) & (b.centers < b.node_counts))


def test_node_batch_deterministic():
    g = random_graph(30, 0.2, RngStream(2, "det"))
    b1 = make_node_task_batch(g, 5, 1, RngStream(9, "s"))
    b2 = make_node_task_batch(g, 5, 1, RngStream(9, "s"))
    centers1 = b1.orig_ids[b1.node_offsets + b1.centers]
    centers2 = b2.orig_ids[b2.node_offsets + b2.centers]
    assert np.array_equal(centers1, centers2)
