"""Attributed sparse graphs, disjoint-union batching, and k-hop subgraphs.

Edges are stored directed; undirected inputs carry both orientations. Node
features and per-edge weights are always tape tensors (an array is wrapped at
construction without a copy), so an augmented graph's weights and features
keep the gradient channel to the head that produced them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidShapeError
from .rng import RngStream
from .tensor import Tensor, concat


def csr(edges: np.ndarray,
        num_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Out-neighbour adjacency ``(indptr, indices, edge_ids)`` of an edge list.

    Row ``u`` is ``indices[indptr[u]:indptr[u + 1]]``, targets in edge order,
    and ``edge_ids`` over the same range holds those edges' rows in ``edges``.
    """
    src = edges[:, 0]
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return indptr, edges[order, 1], order


@dataclass
class Graph:
    """One attributed graph; immutable after construction."""
    num_nodes: int
    edges: np.ndarray                 # (E, 2) int64, directed
    features: Tensor                  # (V, d_x)
    edge_weights: Tensor              # (E,)
    label: int | None = None
    _csr: tuple | None = field(default=None, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.features = Tensor._lift(self.features)
        self.edge_weights = Tensor._lift(self.edge_weights)
        if self.num_nodes < 1:
            raise InvalidShapeError("graph needs at least one node")
        if self.edges.size and (self.edges.min() < 0
                                or self.edges.max() >= self.num_nodes):
            raise InvalidShapeError("edge endpoint out of node range")
        if self.features.shape[0] != self.num_nodes:
            raise InvalidShapeError("feature row count != num_nodes")
        if self.edge_weights.shape != (len(self.edges),):
            raise InvalidShapeError("edge_weights length != edge count")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def num_undirected_edges(self) -> float:
        if self.num_edges == 0:
            return 0.0
        loops = int((self.edges[:, 0] == self.edges[:, 1]).sum())
        return loops + (self.num_edges - loops) / 2.0

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The graph's ``csr`` adjacency, built on first use and cached, so
        graphs that never run a BFS do not pay for the sort."""
        if self._csr is None:
            self._csr = csr(self.edges, self.num_nodes)
        return self._csr


@dataclass
class GraphBatch:
    """Disjoint union of graphs, held as the arrays of one big graph.

    Node ids are global. Graph ``k`` owns ``node_counts[k]`` consecutive
    nodes from ``node_offsets[k]``, and edges are grouped by graph in graph
    order. A batch cut from a source graph keeps each node's id there in
    ``orig_ids`` and each k-hop subgraph's local center in ``centers``;
    otherwise both are ``None``. Only tests read ``orig_ids``: they check a
    node-drop or subgraph view against the subgraph induced on its kept
    nodes, and a node drop's kept ids exist nowhere else.
    """
    edges: np.ndarray               # (E, 2) int64, global ids
    features: Tensor                # (N, d_x)
    edge_weights: Tensor            # (E,)
    node_counts: np.ndarray         # (B,)
    orig_ids: np.ndarray | None = None
    centers: np.ndarray | None = None
    node_offsets: np.ndarray = field(init=False, repr=False)   # (B,)
    node_to_graph: np.ndarray = field(init=False, repr=False)  # (N,)

    def __post_init__(self):
        self.features = Tensor._lift(self.features)
        self.edge_weights = Tensor._lift(self.edge_weights)
        counts = self.node_counts
        self.node_offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]) \
            .astype(np.int64)
        self.node_to_graph = np.repeat(np.arange(len(counts), dtype=np.int64),
                                       counts)

    @property
    def num_graphs(self) -> int:
        return len(self.node_counts)

    @property
    def num_nodes(self) -> int:
        return len(self.node_to_graph)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def graph(self, k: int) -> Graph:
        """Graph ``k`` rebuilt on its own, with local node ids."""
        n0 = int(self.node_offsets[k])
        n1 = n0 + int(self.node_counts[k])
        e0, e1 = np.searchsorted(self.node_to_graph[self.edges[:, 0]],
                                 [k, k + 1]).tolist()
        return Graph(n1 - n0, self.edges[e0:e1] - n0,
                     self.features.slice_axis(0, n0, n1),
                     self.edge_weights.slice_axis(0, e0, e1))


def batch_graphs(graphs: list) -> GraphBatch:
    """Pack graphs into a disjoint union; feature dims must agree."""
    if not graphs:
        raise InvalidShapeError("cannot batch an empty graph list")
    d = graphs[0].feature_dim
    for g in graphs:
        if g.feature_dim != d:
            raise InvalidShapeError(
                f"mixed feature dims in batch: {g.feature_dim} != {d}")
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    edges = np.concatenate([g.edges + off for g, off in zip(graphs, offsets)])
    return GraphBatch(edges, concat([g.features for g in graphs]),
                      concat([g.edge_weights for g in graphs]), sizes)


def _row_positions(indptr: np.ndarray,
                   rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in the CSR arrays of every entry of ``rows``, row after row,
    and each row's length."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    return (np.repeat(starts - np.cumsum(counts) + counts, counts)
            + np.arange(counts.sum())), counts


def khop_nodes(indptr: np.ndarray, indices: np.ndarray, centers: np.ndarray,
               hops: int) -> np.ndarray:
    """Sorted packed keys ``k * N + v`` of the nodes ``v`` within ``hops``
    BFS steps of ``centers[k]``, for ``N = len(indptr) - 1``.

    The frontier holds (center, node) pairs as keys, so one expansion serves
    every center and memory follows the neighbourhoods, not centers x N.
    """
    n = len(indptr) - 1
    keys = frontier = np.arange(len(centers)) * n + centers
    for _ in range(hops):
        nodes = frontier % n
        pos, counts = _row_positions(indptr, nodes)
        reached = np.unique(np.repeat(frontier - nodes, counts) + indices[pos])
        at = np.minimum(np.searchsorted(keys, reached), len(keys) - 1)
        frontier = reached[keys[at] != reached]
        if not frontier.size:
            break
        keys = np.sort(np.concatenate([keys, frontier]))
    return keys


def khop_bfs(g: Graph, centers, hops: int) -> GraphBatch:
    """The induced subgraphs on the nodes within ``hops`` BFS steps of each
    center, as one batch with a graph per center (repeats included).

    Subgraph ``k`` keeps its nodes in ascending order and its edges in
    ``g.edges`` order; ``orig_ids`` are the nodes' ids in ``g`` and
    ``centers`` the centers' local ids.
    """
    centers = np.asarray(centers, dtype=np.int64).reshape(-1)
    if not centers.size or centers.min() < 0 or centers.max() >= g.num_nodes:
        raise ValueError(f"need one or more centers in [0, {g.num_nodes})")
    if hops < 0:
        raise ValueError("hop count must be >= 0")
    n, count = g.num_nodes, len(centers)
    indptr, indices, edge_ids = g.csr()
    keys = khop_nodes(indptr, indices, centers, hops)
    owner, nodes = np.divmod(keys, n)
    # every out-edge of a reached node, kept when its target is reached from
    # the same center; batch node ids are positions in ``keys``
    pos, counts = _row_positions(indptr, nodes)
    rows = np.repeat(np.arange(len(keys)), counts)
    target = np.repeat(keys - nodes, counts) + indices[pos]
    dst = np.minimum(np.searchsorted(keys, target), len(keys) - 1)
    kept = np.flatnonzero(keys[dst] == target)
    kept = kept[np.lexsort((edge_ids[pos[kept]], owner[rows[kept]]))]
    src, eids = rows[kept], edge_ids[pos[kept]]
    batch = GraphBatch(np.stack([src, dst[kept]], axis=1),
                       g.features.gather_rows(nodes),
                       g.edge_weights.gather_rows(eids),
                       np.bincount(owner, minlength=count), orig_ids=nodes)
    batch.centers = (np.searchsorted(keys, np.arange(count) * n + centers)
                     - batch.node_offsets)
    return batch


def make_node_task_batch(g: Graph, num_subgraphs: int, hops: int,
                         stream: RngStream) -> GraphBatch:
    """Emulate a graph batch by BFS subgraphs around random centers.

    The batch records each subgraph's center and node ids in ``g``, so node
    embeddings can be written back to the original node ids.
    """
    centers = stream.integers(0, g.num_nodes, size=num_subgraphs)
    return khop_bfs(g, centers, hops)
