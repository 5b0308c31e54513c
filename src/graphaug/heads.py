"""Learned, graph-conditioned augmentation heads plus the identity.

Each head predicts a distribution over its augmentation's parameters from the
node/graph encodings, samples a concrete augmented graph, and writes the
predicted probabilities into the output's edge weights (or feature mask) so
the discrete choice keeps a gradient path back to the head.

A head takes a whole ``GraphBatch`` with its node encodings ``h_v`` (N, d)
and graph encodings ``h_g`` (B, d), and returns the augmented view as a
``GraphBatch``. The tape work (MLP, softmax, gathers) runs once over the
union, so a view costs the same number of tape nodes whatever the batch
size. So do the hard draws: each is one numpy draw for the whole batch from
the view's one stream, and graph ``k`` takes its slice (its nodes' rows or
its own pairs); with Philox, counter-based, slices of one draw are as
independent as separate streams (Salmon et al., SC 2011).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .encoders import init_mlp, mlp, param_seed
from .graphs import GraphBatch, khop_bfs
from .policy import AugmentationKind
from .rng import RngStream
from .sampling import gumbel_softmax, gumbel_top_k, relaxed_bernoulli
from .tensor import ParameterSet, Tensor, concat, segment_softmax, \
    xavier_init, zeros_param


@dataclass
class HeadOutput:
    graph: GraphBatch
    soft_params: dict = field(default_factory=dict)    # probs and soft samples


def init_head_params(params: ParameterSet, kind: AugmentationKind,
                     hidden_dim: int, feature_dim: int, seed: int) -> None:
    """Add the parameters of head ``kind`` to ``params`` as ``{kind}/...``;
    the identity has none."""
    name = f"{kind.value}/mlp"
    if kind in (AugmentationKind.NODE_DROP, AugmentationKind.SUBGRAPH):
        # no last bias: the per-graph softmax ignores a shift of every logit
        init_mlp(params, name, [2 * hidden_dim, hidden_dim], seed,
                 label=kind.value)
        params.add(f"{name}/w1", xavier_init(
            (hidden_dim, 1), param_seed(seed, f"{kind.value}/w1")))
    elif kind == AugmentationKind.EDGE_PERTURB:
        init_mlp(params, name, [hidden_dim + 1, hidden_dim, 1], seed,
                 label="edge")
    elif kind == AugmentationKind.FEATURE_MASK:
        params.add("feature_mask/lin/w", xavier_init(
            (feature_dim, feature_dim), param_seed(seed, "fm/lin")))
        params.add("feature_mask/lin/b", zeros_param((feature_dim,)))
        init_mlp(params, name, [hidden_dim, hidden_dim, feature_dim], seed,
                 label="fm")


_NO_BIAS = Tensor(np.zeros(1))


def _node_distribution(batch: GraphBatch, h_v: Tensor, h_g: Tensor,
                       weights: list) -> Tensor:
    """Per-graph softmax over nodes of MLP([H_v || h_G]) with the dense
    ``weights`` (w0, b0, w1) of one of the two heads that share it."""
    z = concat([h_v, h_g.gather_rows(batch.node_to_graph)], axis=1)
    logits = mlp(z, *weights, _NO_BIAS)
    return segment_softmax(logits.reshape(batch.num_nodes), batch.node_offsets)


def node_dropping_head(batch: GraphBatch, h_v: Tensor, h_g: Tensor,
                       params: ParameterSet, keep_ratio: float,
                       stream: RngStream) -> HeadOutput:
    """Keep the top ceil(keep_ratio * |V|) nodes of each graph's learned
    node distribution (Gumbel-Top-K) and every edge between kept nodes,
    weighted w_ij = p(v_i) + p(v_j). ``orig_ids`` are the kept nodes' ids
    in their input graph."""
    if not (0.0 < keep_ratio <= 1.0):
        raise ValueError("keep_ratio must be in (0, 1]")
    p = _node_distribution(batch, h_v, h_g, params.under("node_drop/mlp"))
    counts = np.maximum(1, np.ceil(keep_ratio * batch.node_counts)).astype(int)
    kept = gumbel_top_k(p.data, counts, batch.node_offsets, stream)
    remap = np.full(batch.num_nodes, -1, dtype=np.int64)
    remap[kept] = np.arange(len(kept))       # -1 marks a dropped node
    old = batch.edges[(remap[batch.edges] >= 0).all(axis=1)]
    weights = p.gather_rows(old[:, 0]) + p.gather_rows(old[:, 1])
    local = kept - np.repeat(batch.node_offsets, counts)
    view = GraphBatch(remap[old], batch.features.gather_rows(kept), weights,
                      counts, orig_ids=local)
    return HeadOutput(view, {"node_probs": p})


def _sample_negatives(pairs: np.ndarray, batch: GraphBatch,
                      stream: RngStream) -> np.ndarray:
    """For each graph of ``batch`` with m of the distinct node pairs
    ``pairs`` (u < v, global ids, grouped by graph): up to m distinct pairs
    of its nodes that are neither self-loops nor in ``pairs``, the first
    such pairs in draw order of its 10 m uniform draws. One ``integers``
    call draws every graph's pairs, each row below its graph's node count."""
    m = np.bincount(batch.node_to_graph[pairs[:, 0]],
                    minlength=batch.num_graphs)
    owner = np.repeat(np.arange(batch.num_graphs), 10 * m)
    draws = batch.node_offsets[owner, None] + stream.integers(
        0, batch.node_counts[owner, None], size=(len(owner), 2))
    n = batch.num_nodes
    lo, hi = np.minimum(*draws.T), np.maximum(*draws.T)
    keys, first = np.unique(lo * n + hi, return_index=True)
    free = (lo[first] != hi[first]) & ~np.isin(
        keys, pairs[:, 0] * n + pairs[:, 1], assume_unique=True)
    first = np.sort(first[free])
    # each graph keeps its first m in draw order
    graph = owner[first]
    rank = np.arange(len(first)) - np.searchsorted(graph, graph)
    first = first[rank < m[graph]]
    return np.stack([lo[first], hi[first]], axis=1)


def edge_perturbation_head(batch: GraphBatch, h_v: Tensor,
                           params: ParameterSet,
                           stream: RngStream) -> HeadOutput:
    """Score existing and sampled non-edges, keep each iff logit + noise > 0
    under standard logistic noise, an exact Bernoulli(sigmoid(logit)) draw
    off the tape, and weight each kept edge by its predicted probability,
    the head's one gradient path.

    Works on unordered pairs so both orientations of an undirected edge share
    one decision and one weight; all nodes stay, features untouched. A graph
    without edges comes out unchanged and draws nothing.
    """
    unordered = np.sort(batch.edges, axis=1)
    _, first = np.unique(unordered[:, 0] * batch.num_nodes + unordered[:, 1],
                         return_index=True)
    if not first.size:
        return identity_augmentation(batch)
    positives = unordered[np.sort(first)]     # in first-seen edge order
    pairs = np.concatenate([positives, _sample_negatives(
        positives, batch, stream.split("negatives"))])
    # per graph: its positives, then its negatives
    order = np.argsort(batch.node_to_graph[pairs[:, 0]], kind="stable")
    pairs, indicator = pairs[order], (order < len(positives)).astype(float)
    noise = stream.split("keep").logistic(len(pairs))

    h_e = h_v.gather_rows(pairs[:, 0]) + h_v.gather_rows(pairs[:, 1])
    z = concat([h_e, Tensor(indicator.reshape(-1, 1))], axis=1)
    logits = mlp(z, *params.under("edge_perturb/mlp")).reshape(len(pairs))
    probs = logits.sigmoid()
    kept = np.flatnonzero(logits.data + noise > 0)
    # each kept pair as (u, v) then (v, u), the reverse skipped for loops
    directed = np.stack([pairs[kept], pairs[kept, ::-1]], axis=1).reshape(-1, 2)
    both = np.ones(len(directed), dtype=bool)
    both[1::2] = pairs[kept, 0] != pairs[kept, 1]
    edges = directed[both]
    weights = probs.gather_rows(np.repeat(kept, 2)[both])
    view = replace(batch, edges=edges, edge_weights=weights)
    return HeadOutput(view, {"edge_probs": probs})


def subgraph_head(batch: GraphBatch, h_v: Tensor, h_g: Tensor,
                  params: ParameterSet, hops: int,
                  stream: RngStream) -> HeadOutput:
    """Sample a center per graph from its learned node distribution (the
    hard draw of a Gumbel-Softmax), cut its k-hop BFS neighborhood with
    ``khop_bfs``, then weight each kept edge w_ij = p(v_i) + p(v_j)."""
    if hops < 1:
        raise ValueError("hops must be >= 1")
    p = _node_distribution(batch, h_v, h_g, params.under("subgraph/mlp"))
    centers = gumbel_softmax(p.data, batch.node_offsets, stream)
    view = khop_bfs(batch, centers, hops)
    ends = view.orig_ids[view.edges]
    view.edge_weights = p.gather_rows(ends[:, 0]) + p.gather_rows(ends[:, 1])
    view.orig_ids = view.orig_ids - batch.node_offsets[view.node_to_graph]
    return HeadOutput(view, {"node_probs": p})


def feature_masking_head(batch: GraphBatch, h_v: Tensor, params: ParameterSet,
                         temperature: float, stream: RngStream) -> HeadOutput:
    """Project features with a linear layer and apply a sampled binary mask
    per node and dimension; topology unchanged, unit edge weights. The
    relaxed sample behind the mask comes back as ``mask_soft``."""
    projected = mlp(batch.features, *params.under("feature_mask/lin"))
    mask_logits = mlp(h_v, *params.under("feature_mask/mlp"))
    soft = relaxed_bernoulli(mask_logits, temperature,
                             stream.logistic(mask_logits.shape))
    # straight-through: the forward value is the hard draw (plus an exact
    # 0), the gradient the relaxed one
    hard = (soft.data > 0.5).astype(float)
    mask = Tensor(hard) + (soft - soft.detach())
    view = replace(batch, features=projected * mask,
                   edge_weights=np.ones(batch.num_edges))
    return HeadOutput(view, {"mask_soft": soft})


def identity_augmentation(batch: GraphBatch) -> HeadOutput:
    """The original batch with unit edge weights; no learnable parameters."""
    return HeadOutput(replace(batch, edge_weights=np.ones(batch.num_edges)), {})


def apply_augmentation(kind: AugmentationKind, batch: GraphBatch, h_v: Tensor,
                       h_g: Tensor, params: ParameterSet, keep_ratio: float,
                       hops: int, temperature: float,
                       stream: RngStream) -> HeadOutput:
    """One view of the whole batch, every draw from ``stream``; ``params``
    holds each head's as ``{kind}/...``, ``temperature`` the feature mask's."""
    if kind == AugmentationKind.NODE_DROP:
        return node_dropping_head(batch, h_v, h_g, params, keep_ratio, stream)
    if kind == AugmentationKind.EDGE_PERTURB:
        return edge_perturbation_head(batch, h_v, params, stream)
    if kind == AugmentationKind.SUBGRAPH:
        return subgraph_head(batch, h_v, h_g, params, hops, stream)
    if kind == AugmentationKind.FEATURE_MASK:
        return feature_masking_head(batch, h_v, params, temperature, stream)
    if kind == AugmentationKind.IDENTITY:
        return identity_augmentation(batch)
    raise ValueError(f"unknown augmentation {kind!r}")
