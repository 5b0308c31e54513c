"""Reader for the TUDataset on-disk text convention.

Expected files (``DS`` is the dataset prefix, inferred from the directory):
  DS_A.txt               comma-separated node pairs, 1-based, one edge per line
  DS_graph_indicator.txt graph id (1-based) of each node
  DS_graph_labels.txt    one class label per graph (optional)
  DS_node_labels.txt     integer node label per node (optional)
  DS_node_attributes.txt comma-separated float vector per node (optional)

For the graph task, node labels are one-hot encoded into X (after any
attribute columns). For the node task they are the probe target, so X leaves
them out. Without attributes or label columns in X, nodes get a synthesized
degree one-hot (capped at 64) plus a constant channel. Repeated directed
edges collapse (with a warning), and every edge gains its reverse
orientation.

A file that breaks a rule raises ``DatasetError`` naming it. Field counts:
two per line in DS_A.txt, one in the indicator and label files, the same on
every attribute line; ids and labels are integers. Row counts: one label
line per graph, one node-label and attribute line per node (blank lines do
not count). Graph ids are 1-based and contiguous, 1..G with every id used.
Edge endpoints are node ids 1..N in one graph.
"""
from __future__ import annotations

import io
import logging
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetError
from .graphs import Graph

log = logging.getLogger(__name__)

DEGREE_CAP = 64


@dataclass
class Dataset:
    name: str
    graphs: list                       # one-graph GraphBatches
    num_classes: int
    feature_dim: int
    node_labels: list | None = None    # per-graph int arrays, when files had them
    graph_labels: np.ndarray | None = None     # (G,) class ids, likewise

    def __len__(self) -> int:
        return len(self.graphs)

    def labels(self) -> np.ndarray:
        """Graph labels; an unlabeled dataset maps every graph to -1."""
        if self.graph_labels is None:
            return np.full(len(self.graphs), -1, dtype=np.int64)
        return np.asarray(self.graph_labels, dtype=np.int64)


def _find_prefix(directory: Path) -> str:
    hits = sorted(directory.glob("*_graph_indicator.txt"))
    if not hits:
        raise DatasetError(
            f"missing mandatory file *_graph_indicator.txt in {directory}")
    return hits[0].name[: -len("_graph_indicator.txt")]


def _read_table(path: Path, columns: int | None, dtype) -> np.ndarray:
    """The non-blank lines of a comma-separated file as a ``(lines,
    columns)`` array; ``columns=None`` asks only for equal lines."""
    text = re.sub(r"(?m)^[ \t]+$", "", path.read_text())   # blank lines
    if not text.strip():
        return np.zeros((0, columns or 0), dtype=dtype)
    try:
        table = np.loadtxt(io.StringIO(text), dtype=dtype, delimiter=",",
                           ndmin=2, comments=None)
    except ValueError as exc:    # a bad token, or lines of unequal length
        raise DatasetError(f"{path.name}: {str(exc).split(';')[0]}") from None
    if columns not in (None, table.shape[1]):
        raise DatasetError(f"{path.name}: {table.shape[1]} fields on a line, "
                           f"expected {columns}")
    return table


def _read_column(path: Path, rows: int, what: str) -> np.ndarray:
    """One integer per line, one line per ``what``."""
    column = _read_table(path, 1, np.int64)[:, 0]
    if len(column) != rows:
        raise DatasetError(f"{path.name} has {len(column)} lines for {rows} "
                           f"{what}")
    return column


def _features(num_nodes: int, edges: np.ndarray, node_labels, attrs):
    """Attribute columns, then the node-label one-hot; with neither, the
    capped degree one-hot of the distinct undirected edges plus a constant
    channel."""
    if node_labels is None and attrs is None:
        pairs = np.unique(edges.min(axis=1) * num_nodes + edges.max(axis=1))
        lo, hi = pairs // num_nodes, pairs % num_nodes
        deg = np.bincount(np.concatenate((lo, hi[lo != hi])),
                          minlength=num_nodes)
        features = np.eye(DEGREE_CAP + 2)[np.minimum(deg, DEGREE_CAP)]
        features[:, -1] = 1.0
        return features
    blocks = [] if attrs is None else [attrs]
    if node_labels is not None:
        values, column = np.unique(node_labels, return_inverse=True)
        blocks.append(np.eye(len(values))[column])
    return np.concatenate(blocks, axis=1)


def parse_tudataset(directory, task: str = "graph") -> Dataset:
    """The dataset for ``task``: "graph" or "node", which decides whether
    node labels are features."""
    if task not in ("graph", "node"):
        raise ValueError(f"unknown task {task!r}")
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetError(f"dataset directory not found: {directory}")
    prefix = _find_prefix(directory)

    adj_path = directory / f"{prefix}_A.txt"
    if not adj_path.exists():
        raise DatasetError(f"missing mandatory file {adj_path.name}")
    indicator_path = directory / f"{prefix}_graph_indicator.txt"
    indicator = _read_table(indicator_path, 1, np.int64)[:, 0] - 1
    ids = np.unique(indicator)
    if not len(ids) or ids[0] != 0 or ids[-1] != len(ids) - 1:
        raise DatasetError(
            f"{indicator_path.name}: graph ids must run 1..G with every id "
            f"used; found {len(ids)} distinct ids"
            + (f" from {ids[0] + 1} to {ids[-1] + 1}" if len(ids) else ""))
    num_nodes_total, num_graphs = len(indicator), len(ids)

    edges_global = _read_table(adj_path, 2, np.int64) - 1
    dangling = (edges_global < 0) | (edges_global >= num_nodes_total)
    if dangling.any():
        raise DatasetError(f"dangling node index "
                           f"{edges_global[dangling][0] + 1} in {adj_path.name}")

    labels_path = directory / f"{prefix}_graph_labels.txt"
    graph_labels, num_classes = None, 0
    if labels_path.exists():
        classes, graph_labels = np.unique(
            _read_column(labels_path, num_graphs, "graphs"),
            return_inverse=True)
        num_classes = len(classes)

    node_labels_path = directory / f"{prefix}_node_labels.txt"
    node_labels = (_read_column(node_labels_path, num_nodes_total, "nodes")
                   if node_labels_path.exists() else None)
    attr_path = directory / f"{prefix}_node_attributes.txt"
    attrs = None
    if attr_path.exists():
        attrs = _read_table(attr_path, None, float)
        if len(attrs) != num_nodes_total:
            raise DatasetError(f"{attr_path.name} row count != node count")
    features = _features(num_nodes_total, edges_global,
                         node_labels if task == "graph" else None, attrs)

    src_graph, dst_graph = indicator[edges_global.T]
    if (src_graph != dst_graph).any():
        e = np.argmax(src_graph != dst_graph)
        raise DatasetError(
            f"edge ({edges_global[e, 0] + 1},{edges_global[e, 1] + 1}) "
            f"crosses graphs {src_graph[e] + 1} and {dst_graph[e] + 1}")

    # Number the nodes graph by graph, ascending within a graph: graph k
    # holds positions starts[k].. of the sorted order, and a node's local id
    # is its position minus its graph's start.
    order = np.argsort(indicator, kind="stable")
    position = np.argsort(order)
    graph_of = indicator[order]
    starts = np.searchsorted(graph_of, np.arange(num_graphs))
    # Directed edges as packed position keys: np.unique collapses repeats,
    # and over both orientations gives the edges sorted by (src, dst), so
    # graph by graph.
    src, dst = position[edges_global.T]
    keys = src * num_nodes_total + dst
    duplicates = len(keys) - len(np.unique(keys))
    if duplicates:
        log.warning("collapsed %d duplicate parallel edges", duplicates)
    keys = np.unique(np.concatenate((keys, dst * num_nodes_total + src)))
    src, dst = keys // num_nodes_total, keys % num_nodes_total
    edge_graph = graph_of[src]
    edges = np.split(np.stack((src, dst), axis=1) - starts[edge_graph, None],
                     np.searchsorted(edge_graph, np.arange(1, num_graphs)))
    feats = np.split(features[order], starts[1:])
    graphs = [Graph(len(x), e, x, np.ones(len(e)))
              for e, x in zip(edges, feats)]
    return Dataset(name=prefix, graphs=graphs, num_classes=num_classes,
                   feature_dim=features.shape[1],
                   node_labels=None if node_labels is None
                   else np.split(node_labels[order], starts[1:]),
                   graph_labels=graph_labels)


def dataset_stats(ds: Dataset) -> dict:
    """Summary statistics in the shape of the usual benchmark tables."""
    n_nodes = [g.num_nodes for g in ds.graphs]
    # a self-loop is one directed edge, any other undirected edge two
    n_edges = [(g.num_edges + int((g.edges[:, 0] == g.edges[:, 1]).sum())) / 2
               for g in ds.graphs]
    return {
        "name": ds.name,
        "graphs": len(ds.graphs),
        "classes": ds.num_classes,
        "feature_dim": ds.feature_dim,
        "mean_nodes": float(np.mean(n_nodes)),
        "mean_edges_undirected": float(np.mean(n_edges)),
    }
