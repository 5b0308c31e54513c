"""A small seeded planted-partition node graph, built in memory.

The generator of ``perfbench/synth.py`` at a smaller size: 600 nodes in 7
classes, 1,200 undirected edges, 80% of them drawn inside a class, a random
tree inside each class, and 64 Gaussian features whose means depend on the
class. Node labels go to the probe only, never into the features. At 2,708
nodes and 5,250 undirected edges it gives ``perfbench/synth.py``'s graph of
the same seed.
"""
import numpy as np

from graphaug.graphs import Graph
from graphaug.tudataset import Dataset

NUM_NODES = 600
NUM_CLASSES = 7
NUM_UNDIRECTED_EDGES = 1200
FEATURE_DIM = 64
INTRA_CLASS_SHARE = 0.8
CLASS_SIGNAL = 0.5


def planted_partition(seed: int, num_nodes: int = NUM_NODES,
                       num_undirected_edges: int = NUM_UNDIRECTED_EDGES
                       ) -> Dataset:
    """A one-graph node-task ``Dataset``; same seed and size, same arrays."""
    rng = np.random.default_rng([seed, num_nodes])
    labels = rng.integers(0, NUM_CLASSES, num_nodes)
    members = [np.flatnonzero(labels == c) for c in range(NUM_CLASSES)]
    keys = set()
    for nodes in members:                    # random tree per class
        order = rng.permutation(nodes)
        for i in range(1, len(order)):
            u, v = int(order[i]), int(order[rng.integers(0, i)])
            keys.add((min(u, v), max(u, v)))
    while len(keys) < num_undirected_edges:
        u = int(rng.integers(0, num_nodes))
        if rng.random() < INTRA_CLASS_SHARE:
            cls = members[labels[u]]
            v = int(cls[rng.integers(0, len(cls))])
        else:
            v = int(rng.integers(0, num_nodes))
        if u != v:
            keys.add((min(u, v), max(u, v)))
    pairs = np.array(sorted(keys), dtype=np.int64)
    edges = np.concatenate([pairs, pairs[:, ::-1]])
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    means = rng.normal(0.0, 1.0, (NUM_CLASSES, FEATURE_DIM))
    features = CLASS_SIGNAL * means[labels] \
        + rng.normal(0.0, 1.0, (num_nodes, FEATURE_DIM))
    g = Graph(num_nodes, edges, features, np.ones(len(edges)))
    return Dataset(f"planted-{seed}", [g], NUM_CLASSES, FEATURE_DIM,
                   node_labels=[labels.astype(np.int64)])
