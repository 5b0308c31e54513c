"""Node-graph discriminators and MI estimators for the contrastive loss.

The score matrix pairs each graph vector from one view with the node matrix
of every graph in the other view, averaging node scores within a graph first.
Diagonal entries are the positives; the rest are negatives drawn from the
product of marginals.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import Encodings, mlp2, param_seed
from .tensor import ParameterSet, Tensor, concat, segment_sum, xavier_init, \
    zeros_param

ESTIMATORS = ("jsd", "nce", "nt_xent", "dv")
DISCRIMINATORS = ("dot", "cosine", "bilinear", "mlp")


@dataclass
class ObjectiveConfig:
    estimator: str = "jsd"
    discriminator: str = "dot"
    nt_xent_temperature: float = 0.5

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.discriminator not in DISCRIMINATORS:
            raise ValueError(f"unknown discriminator {self.discriminator!r}")
        if self.estimator == "nt_xent" and self.nt_xent_temperature <= 0:
            raise ValueError("nt_xent temperature must be positive")


@dataclass
class ScoreMatrix:
    """(N, N) block: entry (k, k') scores graph k's vector against the
    node-averaged representation of graph k'."""
    scores: Tensor

    def positives(self) -> Tensor:
        n = self.scores.shape[0]
        flat = self.scores.reshape(n * n)
        return flat.gather_rows(np.arange(n) * (n + 1))

    def negatives(self) -> Tensor:
        """Row-aligned negatives, shape (N, N-1); row k holds S[k, k'!=k]."""
        n = self.scores.shape[0]
        if n < 2:
            raise ValueError("no negatives in a batch of one graph")
        flat = self.scores.reshape(n * n)
        idx = np.flatnonzero(~np.eye(n, dtype=bool))
        return flat.gather_rows(idx).reshape(n, n - 1)


def init_discriminator_params(kind: str, hidden_dim: int,
                              seed: int) -> ParameterSet:
    params = ParameterSet()
    if kind == "bilinear":
        params.add("disc/w", xavier_init((hidden_dim, hidden_dim),
                                         param_seed(seed, "disc/w")))
    elif kind == "mlp":
        params.add("disc/w0", xavier_init((2 * hidden_dim, hidden_dim),
                                          param_seed(seed, "disc/w0")))
        params.add("disc/b0", zeros_param((hidden_dim,)))
        params.add("disc/w1", xavier_init((hidden_dim, 1),
                                          param_seed(seed, "disc/w1")))
        params.add("disc/b1", zeros_param((1,)))
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
        out = mlp2(z, params["disc/w0"], params["disc/b0"],
                   params["disc/w1"], params["disc/b1"])
        return out.reshape(m, n)
    raise ValueError(f"unknown discriminator {kind!r}")


def discriminate(h_v: Tensor, h_g: Tensor, kind: str,
                 params: ParameterSet | None = None) -> Tensor:
    """Score one node vector against one graph vector."""
    d = h_v.size
    table = pairwise_scores(h_v.reshape(1, d), h_g.reshape(1, d), kind, params)
    return table.reshape(())


def score_matrix(node_matrix: Tensor, node_to_graph: np.ndarray,
                 graph_vectors: Tensor, kind: str,
                 params: ParameterSet | None = None) -> ScoreMatrix:
    """Aggregate node-level scores into the (N, N) block via the per-graph
    node mean."""
    n = graph_vectors.shape[0]
    per_node = pairwise_scores(node_matrix, graph_vectors, kind, params)
    sums = segment_sum(per_node, node_to_graph, n)              # (k', k)
    counts = np.bincount(node_to_graph, minlength=n).astype(float)
    means = sums * Tensor(1.0 / counts.reshape(-1, 1))
    return ScoreMatrix(means.transpose())


def jsd_mi(pos: Tensor, neg: Tensor | None) -> Tensor:
    """Jensen-Shannon MI surrogate: E_pos[-sp(-D)] - E_neg[sp(D)].

    An empty negative set (batch of one) drops the second term.
    """
    value = (-((-pos).softplus())).mean()
    if neg is not None and neg.size > 0:
        value = value - neg.softplus().mean()
    return value


def estimate_mi(pos: Tensor, neg: Tensor | None, estimator: str,
                config: ObjectiveConfig) -> Tensor:
    """Dispatch over the four estimators.

    ``pos`` is (P,); for nce/nt_xent ``neg`` must be (P, M) row-aligned with
    the positives; jsd/dv accept any shape.
    """
    if estimator == "jsd":
        return jsd_mi(pos, neg)
    if neg is None or neg.size == 0:
        raise ValueError(f"estimator {estimator!r} needs negative samples")
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
               node_to_graph_j: np.ndarray, config: ObjectiveConfig,
               disc_params: ParameterSet | None = None) -> Tensor:
    """Two-view local-global loss: -(I(h_G^i, H_v^j) + I(h_G^j, H_v^i)) / 2."""
    n = enc_i.graph_vector.shape[0]
    s_i = score_matrix(enc_j.node_matrix, node_to_graph_j, enc_i.graph_vector,
                       config.discriminator, disc_params)
    s_j = score_matrix(enc_i.node_matrix, node_to_graph_i, enc_j.graph_vector,
                       config.discriminator, disc_params)
    if n == 1:
        if config.estimator != "jsd":
            raise ValueError(
                f"batch of one graph has no negatives ({config.estimator})")
        i_i = jsd_mi(s_i.positives(), None)
        i_j = jsd_mi(s_j.positives(), None)
    else:
        i_i = estimate_mi(s_i.positives(), s_i.negatives(), config.estimator,
                          config)
        i_j = estimate_mi(s_j.positives(), s_j.negatives(), config.estimator,
                          config)
    return -(i_i + i_j) * 0.5
