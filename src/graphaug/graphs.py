"""Attributed sparse graphs as disjoint-union batches, and k-hop subgraphs.

A graph is a batch of one: ``GraphBatch`` is the only graph type, and
``Graph(...)`` checks one graph's arrays and returns it as a one-graph batch.
Edges are stored directed; undirected inputs carry both orientations. Node
features and per-edge weights are always tape tensors (an array is wrapped at
construction without a copy), so an augmented graph's weights and features
keep the gradient channel to the head that produced them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidShapeError
from .rng import RngStream
from .tensor import Tensor, concat


@dataclass
class GraphBatch:
    """Disjoint union of graphs, held as the arrays of one big graph.

    Node ids are global. Graph ``k`` owns ``node_counts[k]`` consecutive
    nodes from ``node_offsets[k]``, and edges are grouped by graph in graph
    order. A batch cut from a source graph keeps each node's id there in
    ``orig_ids``; otherwise it is ``None``.
    """
    edges: np.ndarray               # (E, 2) int64, global ids
    features: Tensor                # (N, d_x)
    edge_weights: Tensor            # (E,)
    node_counts: np.ndarray         # (B,)
    orig_ids: np.ndarray | None = None

    def __post_init__(self):
        self.features = Tensor._lift(self.features)
        self.edge_weights = Tensor._lift(self.edge_weights)

    # built on first use, then cached: few batches need all of them
    @cached_property
    def node_offsets(self) -> np.ndarray:                     # (B,)
        return np.concatenate([[0], np.cumsum(self.node_counts)[:-1]]) \
            .astype(np.int64)

    @cached_property
    def node_to_graph(self) -> np.ndarray:                    # (N,)
        return np.repeat(np.arange(self.num_graphs, dtype=np.int64),
                         self.node_counts)

    @property
    def num_graphs(self) -> int:
        return len(self.node_counts)

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Out-neighbour adjacency ``(indptr, indices, edge_ids)``. Row ``u``
        is ``indices[indptr[u]:indptr[u + 1]]``, targets in edge order, and
        ``edge_ids`` over the same range holds those edges' rows in
        ``edges``."""
        src = self.edges[:, 0]
        order = np.argsort(src, kind="stable")
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.num_nodes), out=indptr[1:])
        return indptr, self.edges[order, 1], order

    def graph(self, k: int) -> GraphBatch:
        """Graph ``k`` as a batch of one, with local node ids."""
        if not 0 <= k < self.num_graphs:
            raise IndexError(f"graph {k} of a batch of {self.num_graphs}")
        n0 = int(self.node_offsets[k])
        n1 = n0 + int(self.node_counts[k])
        e0, e1 = np.searchsorted(self.node_to_graph[self.edges[:, 0]],
                                 [k, k + 1]).tolist()
        return GraphBatch(self.edges[e0:e1] - n0,
                          self.features.slice_axis(0, n0, n1),
                          self.edge_weights.slice_axis(0, e0, e1),
                          self.node_counts[k:k + 1])


def Graph(num_nodes: int, edges, features, edge_weights) -> GraphBatch:
    """One attributed graph, checked, as a batch of one."""
    g = GraphBatch(np.asarray(edges, dtype=np.int64).reshape(-1, 2), features,
                   edge_weights, np.array([num_nodes], dtype=np.int64))
    if num_nodes < 1:
        raise InvalidShapeError("graph needs at least one node")
    if g.edges.size and (g.edges.min() < 0 or g.edges.max() >= num_nodes):
        raise InvalidShapeError("edge endpoint out of node range")
    if g.features.ndim != 2:
        raise InvalidShapeError(f"features must be a (num_nodes, d_x) "
                                f"matrix; got shape {g.features.shape}")
    if g.features.shape[0] != num_nodes:
        raise InvalidShapeError("feature row count != num_nodes")
    if g.edge_weights.shape != (len(g.edges),):
        raise InvalidShapeError("edge_weights length != edge count")
    return g


def batch_graphs(graphs: list) -> GraphBatch:
    """Pack batches into one disjoint union, graph after graph; feature dims
    must agree. The inputs' ``orig_ids`` do not carry over."""
    if not graphs:
        raise InvalidShapeError("cannot batch an empty graph list")
    d = graphs[0].features.shape[1]
    for g in graphs:
        if g.features.shape[1] != d:
            raise InvalidShapeError(
                f"mixed feature dims in batch: {g.features.shape[1]} != {d}")
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    edges = np.concatenate([g.edges + off for g, off in zip(graphs, offsets)])
    return GraphBatch(edges, concat([g.features for g in graphs]),
                      concat([g.edge_weights for g in graphs]),
                      np.concatenate([g.node_counts for g in graphs]))


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array, by a sort and a neighbour mask: the same
    result, an order of magnitude faster on integer keys under numpy 2.4."""
    a = np.sort(a)
    keep = np.ones(a.shape, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


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
        reached = sorted_unique(np.repeat(frontier - nodes, counts)
                                + indices[pos])
        at = np.minimum(np.searchsorted(keys, reached), len(keys) - 1)
        frontier = reached[keys[at] != reached]
        if not frontier.size:
            break
        keys = np.sort(np.concatenate([keys, frontier]))
    return keys


def khop_bfs(g: GraphBatch, centers, hops: int) -> GraphBatch:
    """The induced subgraphs on the nodes within ``hops`` BFS steps of each
    center, as one batch with a subgraph per center (repeats included).

    ``g`` may hold many graphs; a BFS never leaves its center's graph.
    Subgraph ``k`` keeps its nodes in ascending order and its edges in
    ``g.edges`` order; ``orig_ids`` are the nodes' (global) ids in ``g``,
    so each center is among its subgraph's ``orig_ids``.
    """
    centers = np.asarray(centers, dtype=np.int64).reshape(-1)
    if not centers.size or centers.min() < 0 or centers.max() >= g.num_nodes:
        raise ValueError(f"need one or more centers in [0, {g.num_nodes})")
    if hops < 0:
        raise ValueError("hop count must be >= 0")
    n = g.num_nodes
    indptr, indices, edge_ids = g.csr
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
    return GraphBatch(np.stack([src, dst[kept]], axis=1),
                      g.features.gather_rows(nodes),
                      g.edge_weights.gather_rows(eids),
                      np.bincount(owner, minlength=len(centers)),
                      orig_ids=nodes)


def make_node_task_batch(g: GraphBatch, num_subgraphs: int, hops: int,
                         stream: RngStream) -> GraphBatch:
    """Emulate a graph batch by BFS subgraphs around random centers, for
    training; the batch records its nodes' ids in ``g`` in ``orig_ids``."""
    centers = stream.integers(0, g.num_nodes, size=num_subgraphs)
    return khop_bfs(g, centers, hops)
