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


def take_rows(x, idx: np.ndarray):
    """Rows ``idx`` of an array (a copy) or of a tensor (a gather on the tape)."""
    return x.gather_rows(idx) if isinstance(x, Tensor) else np.asarray(x)[idx]


def _row_range(x, start: int, stop: int):
    return x.slice_axis(0, start, stop) if isinstance(x, Tensor) \
        else np.asarray(x)[start:stop]


def csr(edges: np.ndarray, num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Out-neighbour adjacency ``(indptr, indices)`` of a directed edge list.

    Row ``u`` is ``indices[indptr[u]:indptr[u + 1]]``, targets in edge order.
    """
    src = edges[:, 0]
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return indptr, edges[order, 1]


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
        """The graph's ``csr`` adjacency, built on first use and cached, so
        graphs that never run a BFS do not pay for the sort."""
        if self._csr is None:
            self._csr = csr(self.edges, self.num_nodes)
        return self._csr


@dataclass
class GraphBatch:
    """Disjoint union of graphs, held as the arrays of one big graph.

    Node ids are global. Graph ``k`` owns ``node_counts[k]`` consecutive
    nodes from ``node_offsets[k]`` and the next ``edge_counts[k]`` edges, so
    edges are grouped by graph in graph order. ``orig_ids`` (each node's id
    in its graph's source) and ``centers`` (each graph's local BFS center)
    are ``None`` when no graph has them; otherwise a graph without them gets
    its own ids and center -1.
    """
    edges: np.ndarray               # (E, 2) int64, global ids
    features: object                # (N, d_x) ndarray or Tensor
    edge_weights: object            # (E,) ndarray or Tensor
    node_counts: np.ndarray         # (B,)
    edge_counts: np.ndarray         # (B,)
    labels: list                    # (B,) int or None
    orig_ids: np.ndarray | None = None
    centers: np.ndarray | None = None
    node_offsets: np.ndarray = field(init=False, repr=False)   # (B,)
    node_to_graph: np.ndarray = field(init=False, repr=False)  # (N,)

    def __post_init__(self):
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

    def features_tensor(self) -> Tensor:
        f = self.features
        return f if isinstance(f, Tensor) else Tensor(f)

    def edge_weights_tensor(self) -> Tensor:
        w = self.edge_weights
        return w if isinstance(w, Tensor) else Tensor(w)

    def graph(self, k: int) -> Graph:
        """Graph ``k`` rebuilt on its own, with local node ids."""
        n0 = int(self.node_offsets[k])
        n1 = n0 + int(self.node_counts[k])
        e0 = int(self.edge_counts[:k].sum())
        e1 = e0 + int(self.edge_counts[k])
        center = None if self.centers is None or self.centers[k] < 0 \
            else int(self.centers[k])
        return Graph(n1 - n0, self.edges[e0:e1] - n0,
                     _row_range(self.features, n0, n1),
                     _row_range(self.edge_weights, e0, e1),
                     label=self.labels[k],
                     orig_ids=(None if self.orig_ids is None
                               else self.orig_ids[n0:n1]),
                     center=center)


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

    def union(parts):
        if all(isinstance(x, np.ndarray) for x in parts):
            return np.concatenate(parts)
        return concat(parts)

    orig_ids = centers = None
    if any(g.orig_ids is not None for g in graphs):
        orig_ids = np.concatenate([
            np.arange(g.num_nodes) if g.orig_ids is None else g.orig_ids
            for g in graphs])
    if any(g.center is not None for g in graphs):
        centers = np.array([-1 if g.center is None else g.center
                            for g in graphs], dtype=np.int64)
    return GraphBatch(edges, union([g.features for g in graphs]),
                      union([g.edge_weights for g in graphs]), sizes,
                      np.array([g.num_edges for g in graphs], dtype=np.int64),
                      [g.label for g in graphs], orig_ids, centers)


def induce(edges: np.ndarray, num_nodes: int,
           kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node remap and edge mask of the subgraph induced by ascending ids.

    ``remap[old]`` is the new id of a kept node (kept nodes keep their
    order) and -1 for a dropped one; the mask marks the edges whose two ends
    are kept.
    """
    remap = np.full(num_nodes, -1, dtype=np.int64)
    remap[kept] = np.arange(len(kept))
    mask = (remap[edges[:, 0]] >= 0) & (remap[edges[:, 1]] >= 0)
    return remap, mask


def khop_nodes(indptr: np.ndarray, indices: np.ndarray, centers,
               hops: int) -> np.ndarray:
    """Boolean mask of the nodes within ``hops`` BFS steps of any center.

    On a disjoint union with one center per graph, that is every graph's own
    neighbourhood at once, since no path leaves a graph.
    """
    seen = np.zeros(len(indptr) - 1, dtype=bool)
    frontier = np.unique(np.asarray(centers, dtype=np.int64))
    seen[frontier] = True
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
    return seen


def khop_bfs(g: Graph, center: int, hops: int) -> Graph:
    """Induced subgraph on all nodes within ``hops`` BFS steps of ``center``.

    Kept nodes are relabeled contiguously in ascending original order;
    ``orig_ids`` is the old-id map (ids in the immediate input graph).
    """
    if not (0 <= center < g.num_nodes):
        raise ValueError(f"center {center} out of range for |V|={g.num_nodes}")
    if hops < 0:
        raise ValueError("hop count must be >= 0")
    kept = np.flatnonzero(khop_nodes(*g.csr(), [center], hops))
    remap, mask = induce(g.edges, g.num_nodes, kept)
    return Graph(len(kept), remap[g.edges[mask]], take_rows(g.features, kept),
                 take_rows(g.edge_weights, np.flatnonzero(mask)),
                 label=g.label, orig_ids=kept, center=int(remap[center]))


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
