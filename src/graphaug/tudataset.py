"""Reader for the TUDataset on-disk text convention.

Expected files (``DS`` is the dataset prefix, inferred from the directory):
  DS_A.txt               comma-separated node pairs, 1-based, one edge per line
  DS_graph_indicator.txt graph id (1-based) of each node
  DS_graph_labels.txt    one class label per graph (optional)
  DS_node_labels.txt     integer node label per node (optional)
  DS_node_attributes.txt comma-separated float vector per node (optional)

Node labels are one-hot encoded into X (after any attribute columns).
Datasets with no declared features get a synthesized degree one-hot
(capped at 64) plus a constant channel.
"""
from __future__ import annotations

import logging
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
    graphs: list
    num_classes: int
    feature_dim: int
    node_labels: list | None = None    # per-graph int arrays, when files had them

    def __len__(self) -> int:
        return len(self.graphs)

    def labels(self) -> np.ndarray:
        """Graph labels; unlabeled graphs map to -1."""
        return np.array([-1 if g.label is None else g.label
                         for g in self.graphs], dtype=np.int64)


def _find_prefix(directory: Path) -> str:
    hits = sorted(directory.glob("*_graph_indicator.txt"))
    if not hits:
        raise DatasetError(
            f"missing mandatory file *_graph_indicator.txt in {directory}")
    return hits[0].name[: -len("_graph_indicator.txt")]


def _read_int_lines(path: Path) -> np.ndarray:
    return np.array([int(float(line)) for line in path.read_text().split()],
                    dtype=np.int64)


def parse_tudataset(directory) -> Dataset:
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetError(f"dataset directory not found: {directory}")
    prefix = _find_prefix(directory)

    adj_path = directory / f"{prefix}_A.txt"
    if not adj_path.exists():
        raise DatasetError(f"missing mandatory file {adj_path.name}")
    indicator = _read_int_lines(directory / f"{prefix}_graph_indicator.txt") - 1
    num_nodes_total = len(indicator)
    num_graphs = int(indicator.max()) + 1

    rows = []
    for lineno, line in enumerate(adj_path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        a, b = line.split(",")
        rows.append((int(a) - 1, int(b) - 1))
    edges_global = np.array(rows, dtype=np.int64).reshape(-1, 2)
    if edges_global.size and (edges_global.min() < 0
                              or edges_global.max() >= num_nodes_total):
        bad = edges_global.max() if edges_global.max() >= num_nodes_total else edges_global.min()
        raise DatasetError(f"dangling node index {bad + 1} in {adj_path.name}")

    labels_path = directory / f"{prefix}_graph_labels.txt"
    if labels_path.exists():
        raw_labels = _read_int_lines(labels_path)
        classes = np.unique(raw_labels)
        class_map = {int(c): i for i, c in enumerate(classes)}
        graph_labels = np.array([class_map[int(c)] for c in raw_labels])
        num_classes = len(classes)
    else:
        graph_labels = None
        num_classes = 0

    node_labels_path = directory / f"{prefix}_node_labels.txt"
    node_labels = (_read_int_lines(node_labels_path)
                   if node_labels_path.exists() else None)
    attr_path = directory / f"{prefix}_node_attributes.txt"
    if attr_path.exists():
        attrs = np.array(
            [[float(x) for x in line.split(",")]
             for line in attr_path.read_text().splitlines() if line.strip()])
    else:
        attrs = None

    # group nodes by graph (the convention keeps them contiguous, but a
    # general mapping costs nothing)
    node_lists = [np.flatnonzero(indicator == k) for k in range(num_graphs)]
    node_of = {}
    for k, nodes in enumerate(node_lists):
        local = {int(n): i for i, n in enumerate(nodes)}
        node_of[k] = local

    # feature matrix
    if node_labels is not None or attrs is not None:
        blocks = []
        if attrs is not None:
            if len(attrs) != num_nodes_total:
                raise DatasetError(f"{attr_path.name} row count != node count")
            blocks.append(attrs)
        if node_labels is not None:
            values = np.unique(node_labels)
            onehot = np.zeros((num_nodes_total, len(values)))
            col = {int(v): i for i, v in enumerate(values)}
            for n, v in enumerate(node_labels):
                onehot[n, col[int(v)]] = 1.0
            blocks.append(onehot)
        features_global = np.concatenate(blocks, axis=1)
    else:
        # degree one-hot (capped) plus a constant channel
        deg = np.zeros(num_nodes_total, dtype=np.int64)
        seen_for_degree = set()
        for a, b in edges_global:
            key = (min(a, b), max(a, b))
            if key in seen_for_degree:
                continue
            seen_for_degree.add(key)
            deg[a] += 1
            if a != b:
                deg[b] += 1
        deg = np.minimum(deg, DEGREE_CAP)
        features_global = np.zeros((num_nodes_total, DEGREE_CAP + 2))
        features_global[np.arange(num_nodes_total), deg] = 1.0
        features_global[:, -1] = 1.0

    # split edges per graph, symmetrize, and collapse duplicates
    per_graph_edges: list[dict] = [dict() for _ in range(num_graphs)]
    duplicates = 0
    for a, b in edges_global:
        ga, gb = int(indicator[a]), int(indicator[b])
        if ga != gb:
            raise DatasetError(
                f"edge ({a + 1},{b + 1}) crosses graphs {ga + 1} and {gb + 1}")
        la, lb = node_of[ga][int(a)], node_of[ga][int(b)]
        if (la, lb) in per_graph_edges[ga]:
            duplicates += 1
            continue
        per_graph_edges[ga][(la, lb)] = 1.0
    if duplicates:
        log.warning("collapsed %d duplicate parallel edges", duplicates)

    graphs = []
    for k in range(num_graphs):
        edge_map = per_graph_edges[k]
        for (a, b) in list(edge_map):
            if a != b and (b, a) not in edge_map:
                edge_map[(b, a)] = edge_map[(a, b)]
        edges = np.array(sorted(edge_map), dtype=np.int64).reshape(-1, 2)
        weights = np.ones(len(edges))
        nodes = node_lists[k]
        graphs.append(Graph(
            num_nodes=len(nodes),
            edges=edges,
            features=features_global[nodes].copy(),
            edge_weights=weights,
            label=None if graph_labels is None else int(graph_labels[k]),
        ))

    per_graph_node_labels = None
    if node_labels is not None:
        per_graph_node_labels = [node_labels[nodes].copy() for nodes in node_lists]

    return Dataset(
        name=prefix,
        graphs=graphs,
        num_classes=num_classes,
        feature_dim=graphs[0].feature_dim if graphs else 0,
        node_labels=per_graph_node_labels,
    )


def dataset_stats(ds: Dataset) -> dict:
    """Summary statistics in the shape of the usual benchmark tables."""
    n_nodes = [g.num_nodes for g in ds.graphs]
    n_edges = [g.num_undirected_edges() for g in ds.graphs]
    return {
        "name": ds.name,
        "graphs": len(ds.graphs),
        "classes": ds.num_classes,
        "feature_dim": ds.feature_dim,
        "mean_nodes": float(np.mean(n_nodes)),
        "mean_edges_undirected": float(np.mean(n_edges)),
    }
