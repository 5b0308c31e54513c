"""Attributed sparse graphs, disjoint-union batching, and k-hop subgraphs.

Edges are stored directed; undirected inputs carry both orientations. Node
features and per-edge weights may be plain arrays or tape tensors; augmented
graphs use tensors so structural decisions keep a gradient channel.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidShapeError
from .rng import RngStream
from .tensor import Tensor, concat


def _values(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


@dataclass
class Graph:
    """One attributed graph; immutable after construction."""
    num_nodes: int
    edges: np.ndarray                 # (E, 2) int64, directed
    features: object                  # (V, d_x) ndarray or Tensor
    edge_weights: object              # (E,) ndarray or Tensor
    label: int | None = None
    orig_ids: np.ndarray | None = None   # local id -> id in the source graph
    center: int | None = None           # local id of the BFS center, if any
    _csr: tuple | None = field(default=None, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if self.num_nodes < 1:
            raise InvalidShapeError("graph needs at least one node")
        if self.edges.size and (self.edges.min() < 0
                                or self.edges.max() >= self.num_nodes):
            raise InvalidShapeError("edge endpoint out of node range")
        if _values(self.features).shape[0] != self.num_nodes:
            raise InvalidShapeError("feature row count != num_nodes")
        if _values(self.edge_weights).shape != (len(self.edges),):
            raise InvalidShapeError("edge_weights length != edge count")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def feature_dim(self) -> int:
        return _values(self.features).shape[1]

    def num_undirected_edges(self) -> float:
        if self.num_edges == 0:
            return 0.0
        loops = int((self.edges[:, 0] == self.edges[:, 1]).sum())
        return loops + (self.num_edges - loops) / 2.0

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Out-neighbour adjacency ``(indptr, indices)``, built on first use.

        Row ``u`` is ``indices[indptr[u]:indptr[u + 1]]``, targets in edge
        order. Built lazily so graphs that never run a BFS (augmented views,
        most batches) do not pay for the sort.
        """
        if self._csr is None:
            src = self.edges[:, 0]
            order = np.argsort(src, kind="stable")
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=self.num_nodes),
                      out=indptr[1:])
            self._csr = (indptr, self.edges[order, 1])
        return self._csr


@dataclass
class GraphBatch:
    """Disjoint union of graphs plus the node->graph bookkeeping."""
    graphs: list
    node_offsets: np.ndarray        # (N,) global index of each graph's first node
    node_to_graph: np.ndarray       # (total_nodes,)
    edge_counts: np.ndarray         # (N,)

    @property
    def num_graphs(self) -> int:
        return len(self.graphs)

    @property
    def total_nodes(self) -> int:
        return len(self.node_to_graph)

    def node_range(self, k: int) -> tuple[int, int]:
        start = int(self.node_offsets[k])
        stop = start + self.graphs[k].num_nodes
        return start, stop

    def global_edges(self) -> np.ndarray:
        parts = []
        for g, off in zip(self.graphs, self.node_offsets):
            parts.append(g.edges + int(off))
        return (np.concatenate(parts, axis=0) if parts
                else np.zeros((0, 2), dtype=np.int64))

    def features_tensor(self) -> Tensor:
        feats = [g.features for g in self.graphs]
        if all(isinstance(f, np.ndarray) for f in feats):
            return Tensor(np.concatenate(feats, axis=0))
        return concat([f if isinstance(f, Tensor) else Tensor(f) for f in feats],
                      axis=0)

    def edge_weights_tensor(self) -> Tensor:
        ws = [g.edge_weights for g in self.graphs]
        if all(isinstance(w, np.ndarray) for w in ws):
            return Tensor(np.concatenate(ws, axis=0))
        return concat([w if isinstance(w, Tensor) else Tensor(w) for w in ws],
                      axis=0)

    def node_counts(self) -> np.ndarray:
        return np.array([g.num_nodes for g in self.graphs], dtype=np.int64)


def batch_graphs(graphs: list) -> GraphBatch:
    """Pack graphs into a disjoint union; feature dims must agree."""
    if not graphs:
        raise InvalidShapeError("cannot batch an empty graph list")
    d = graphs[0].feature_dim
    for g in graphs:
        if g.feature_dim != d:
            raise InvalidShapeError(
                f"mixed feature dims in batch: {g.feature_dim} != {d}")
    sizes = [g.num_nodes for g in graphs]
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    node_to_graph = np.repeat(np.arange(len(graphs), dtype=np.int64), sizes)
    edge_counts = np.array([g.num_edges for g in graphs], dtype=np.int64)
    return GraphBatch(list(graphs), offsets, node_to_graph, edge_counts)


def khop_bfs(g: Graph, center: int, hops: int) -> Graph:
    """Induced subgraph on all nodes within ``hops`` BFS steps of ``center``.

    Kept nodes are relabeled contiguously in ascending original order;
    ``orig_ids`` is the old-id map (ids in the immediate input graph).
    """
    if not (0 <= center < g.num_nodes):
        raise ValueError(f"center {center} out of range for |V|={g.num_nodes}")
    if hops < 0:
        raise ValueError("hop count must be >= 0")
    indptr, indices = g.csr()
    seen = np.zeros(g.num_nodes, dtype=bool)
    seen[center] = True
    frontier = np.array([center], dtype=np.int64)
    for _ in range(hops):
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        # positions of every out-edge of the frontier in ``indices``
        pos = (np.repeat(starts - np.cumsum(counts) + counts, counts)
               + np.arange(counts.sum()))
        nxt = indices[pos]
        frontier = np.unique(nxt[~seen[nxt]])
        if not frontier.size:
            break
        seen[frontier] = True
    kept = np.flatnonzero(seen)               # ascending original ids
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


def make_node_task_batch(g: Graph, num_subgraphs: int, hops: int,
                         stream: RngStream) -> GraphBatch:
    """Emulate a graph batch by BFS subgraphs around random centers.

    Each subgraph records its center so node embeddings can be written back
    to the original node ids.
    """
    if num_subgraphs < 1:
        raise ValueError("need at least one subgraph")
    centers = stream.integers(0, g.num_nodes, size=num_subgraphs)
    subs = [khop_bfs(g, int(c), hops) for c in centers]
    return batch_graphs(subs)
