"""Seeded synthetic Cora-shaped node graph for the node-synth workload.

The graph is a planted partition: 2,708 nodes in 7 classes, 5,250 undirected
edges (10,500 directed), most of them inside a class, and dense Gaussian
features whose means depend on the class. A random tree inside each class
keeps every node connected to its class.

The arrays are generated here and handed to the program in memory. A file in
the TUDataset convention would not do: ``parse_tudataset`` one-hot encodes
``*_node_labels.txt`` into the node features, so the probe target would leak
into the input.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NUM_NODES = 2708
NUM_CLASSES = 7
NUM_UNDIRECTED_EDGES = 5250
FEATURE_DIM = 64
INTRA_CLASS_SHARE = 0.8
CLASS_SIGNAL = 0.5


@dataclass
class NodeGraphArrays:
    edges: np.ndarray        # (2 * NUM_UNDIRECTED_EDGES, 2) int64, both directions
    features: np.ndarray     # (NUM_NODES, FEATURE_DIM) float64
    labels: np.ndarray       # (NUM_NODES,) int64 class per node


def generate(seed: int) -> NodeGraphArrays:
    """Same seed, same arrays."""
    rng = np.random.default_rng([seed, 2708])
    labels = rng.integers(0, NUM_CLASSES, NUM_NODES)
    members = [np.flatnonzero(labels == c) for c in range(NUM_CLASSES)]

    keys = set()
    for nodes in members:                    # random tree per class
        order = rng.permutation(nodes)
        for i in range(1, len(order)):
            u, v = int(order[i]), int(order[rng.integers(0, i)])
            keys.add((min(u, v), max(u, v)))
    while len(keys) < NUM_UNDIRECTED_EDGES:
        u = int(rng.integers(0, NUM_NODES))
        if rng.random() < INTRA_CLASS_SHARE:
            cls = members[labels[u]]
            v = int(cls[rng.integers(0, len(cls))])
        else:
            v = int(rng.integers(0, NUM_NODES))
        if u != v:
            keys.add((min(u, v), max(u, v)))

    pairs = np.array(sorted(keys), dtype=np.int64)
    edges = np.concatenate([pairs, pairs[:, ::-1]], axis=0)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    means = rng.normal(0.0, 1.0, (NUM_CLASSES, FEATURE_DIM))
    features = CLASS_SIGNAL * means[labels] \
        + rng.normal(0.0, 1.0, (NUM_NODES, FEATURE_DIM))
    return NodeGraphArrays(edges, features, labels.astype(np.int64))
