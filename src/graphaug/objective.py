"""Node-graph discriminators and MI estimators for the contrastive loss.

Each graph vector from one view is scored against the nodes of every graph
in the other view, averaging node scores within a graph first. A graph's
own nodes give its positive; the other graphs' nodes give negatives drawn
from the product of marginals, so a batch needs at least two graphs.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .encoders import Encodings, init_mlp, mlp, param_seed
from .tensor import ParameterSet, Tensor, concat, segment_sum, xavier_init

if TYPE_CHECKING:                   # the trainer imports this module
    from .trainer import TrainConfig

ESTIMATORS = ("jsd", "nce", "nt_xent", "dv")
DISCRIMINATORS = ("dot", "cosine", "bilinear", "mlp")


def init_discriminator_params(kind: str, hidden_dim: int,
                              seed: int) -> ParameterSet:
    params = ParameterSet()
    if kind == "bilinear":
        params.add("disc/w", xavier_init((hidden_dim, hidden_dim),
                                         param_seed(seed, "disc/w")))
    elif kind == "mlp":
        init_mlp(params, "disc", [2 * hidden_dim, hidden_dim, 1], seed)
    return params


def _normalize_rows(x: Tensor) -> Tensor:
    norms = (x * x).sum(axis=1, keepdims=True).sqrt().clip_min(1e-12)
    return x / norms


def pairwise_scores(node_matrix: Tensor, graph_vectors: Tensor, kind: str,
                    params: ParameterSet | None = None) -> Tensor:
    """(num_nodes, num_graphs) score table under the chosen discriminator."""
    if kind == "dot":
        return node_matrix @ graph_vectors.transpose()
    if kind == "cosine":
        return _normalize_rows(node_matrix) @ _normalize_rows(graph_vectors).transpose()
    if kind == "bilinear":
        return node_matrix @ params["disc/w"] @ graph_vectors.transpose()
    if kind == "mlp":
        m = node_matrix.shape[0]
        n = graph_vectors.shape[0]
        rep = node_matrix.gather_rows(np.repeat(np.arange(m), n))
        til = graph_vectors.gather_rows(np.tile(np.arange(n), m))
        z = concat([rep, til], axis=1)
        return mlp(z, *params.under("disc")).reshape(m, n)
    raise ValueError(f"unknown discriminator {kind!r}")


def local_global_scores(node_matrix: Tensor, node_to_graph: np.ndarray,
                        graph_vectors: Tensor, kind: str,
                        params: ParameterSet | None = None
                        ) -> tuple[Tensor, Tensor]:
    """Positives (N,) and row-aligned negatives (N, N-1) of each graph
    vector k against the node-mean score of each graph k'.

    Both are gathered from the flattened (k', k) block of node means:
    positive k sits at k (N + 1), and row k of the negatives at k' N + k
    for k' != k in ascending order.
    """
    n = graph_vectors.shape[0]
    if n < 2:
        raise ValueError(f"a batch of {n} graph(s) has no negatives; the "
                         "objective needs at least 2")
    per_node = pairwise_scores(node_matrix, graph_vectors, kind, params)
    sums = segment_sum(per_node, node_to_graph, n)              # (k', k)
    counts = np.bincount(node_to_graph, minlength=n).astype(float)
    flat = (sums * Tensor(1.0 / counts.reshape(-1, 1))).reshape(n * n)
    neg_idx = np.arange(n * n).reshape(n, n).T[~np.eye(n, dtype=bool)]
    return (flat.gather_rows(np.arange(n) * (n + 1)),
            flat.gather_rows(neg_idx).reshape(n, n - 1))


def jsd_mi(pos: Tensor, neg: Tensor) -> Tensor:
    """Jensen-Shannon MI surrogate: E_pos[-sp(-D)] - E_neg[sp(D)]."""
    return (-((-pos).softplus())).mean() - neg.softplus().mean()


def estimate_mi(pos: Tensor, neg: Tensor, config: TrainConfig) -> Tensor:
    """Dispatch over the four estimators on the run's ``config.estimator``.

    ``pos`` is (P,); for nce/nt_xent ``neg`` must be (P, M) row-aligned with
    the positives; jsd/dv accept any shape.
    """
    estimator = config.estimator
    if estimator == "jsd":
        return jsd_mi(pos, neg)
    if estimator in ("nce", "nt_xent"):
        if neg.ndim != 2 or neg.shape[0] != pos.shape[0]:
            raise ValueError("nce negatives must be row-aligned (P, M)")
        if estimator == "nt_xent":
            scale = 1.0 / config.nt_xent_temperature
            pos, neg = pos * scale, neg * scale
        p = pos.shape[0]
        stacked = concat([pos.reshape(p, 1), neg], axis=1)
        return (pos - stacked.logsumexp(axis=1)).mean()
    if estimator == "dv":
        flat = neg.reshape(neg.size)
        return pos.mean() - (flat.logsumexp(axis=0) - float(np.log(flat.size)))
    raise ValueError(f"unknown estimator {estimator!r}")


def batch_loss(enc_i: Encodings, enc_j: Encodings, node_to_graph_i: np.ndarray,
               node_to_graph_j: np.ndarray, config: TrainConfig,
               disc_params: ParameterSet | None = None) -> Tensor:
    """Two-view local-global loss: -(I(h_G^i, H_v^j) + I(h_G^j, H_v^i)) / 2,
    under the run's estimator and discriminator."""
    i_i = estimate_mi(*local_global_scores(
        enc_j.node_matrix, node_to_graph_j, enc_i.graph_vector,
        config.discriminator, disc_params), config)
    i_j = estimate_mi(*local_global_scores(
        enc_i.node_matrix, node_to_graph_i, enc_j.graph_vector,
        config.discriminator, disc_params), config)
    return -(i_i + i_j) * 0.5
