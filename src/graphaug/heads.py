"""Learned, graph-conditioned augmentation heads plus the identity.

Each head predicts a distribution over its augmentation's parameters from the
node/graph encodings, samples a concrete augmented graph, and writes the
predicted probabilities into the output's edge weights (or feature mask) so
the discrete choice keeps a gradient path back to the head.

A head takes a whole ``GraphBatch`` with its node encodings ``h_v`` (N, d)
and graph encodings ``h_g`` (B, d), and returns the augmented view as a
``GraphBatch``. The tape work (MLP, softmax, gathers) runs once over the
union, so a view costs the same number of tape nodes whatever the batch
size. Only the hard draws run per graph, in numpy, each from that graph's
own stream ``streams[k]``: a graph's draw does not depend on its batch.
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
    soft_params: dict = field(default_factory=dict)    # tensors kept on the tape


def init_head_params(kind: AugmentationKind, hidden_dim: int, feature_dim: int,
                     seed: int) -> ParameterSet:
    params = ParameterSet()
    if kind in (AugmentationKind.NODE_DROP, AugmentationKind.SUBGRAPH):
        init_mlp(params, "mlp", [2 * hidden_dim, hidden_dim, 1], seed,
                 label=kind.value)
    elif kind == AugmentationKind.EDGE_PERTURB:
        init_mlp(params, "mlp", [hidden_dim + 1, hidden_dim, 1], seed,
                 label="edge")
    elif kind == AugmentationKind.FEATURE_MASK:
        params.add("lin/w", xavier_init((feature_dim, feature_dim),
                                        param_seed(seed, "fm/lin")))
        params.add("lin/b", zeros_param((feature_dim,)))
        init_mlp(params, "mlp", [hidden_dim, hidden_dim, feature_dim], seed,
                 label="fm")
    return params


def _node_distribution(batch: GraphBatch, h_v: Tensor, h_g: Tensor,
                       params: ParameterSet) -> Tensor:
    """Per-graph softmax over nodes of MLP([H_v || h_G]); shared by two
    heads."""
    z = concat([h_v, h_g.gather_rows(batch.node_to_graph)], axis=1)
    logits = mlp(z, *params.under("mlp"))
    return segment_softmax(logits.reshape(batch.num_nodes), batch.node_offsets)


def _induced_view(batch: GraphBatch, kept: np.ndarray, p: Tensor) -> GraphBatch:
    """The sub-batch on the ascending global node ids ``kept`` (at least one
    per graph) with every edge between kept nodes, weighted
    w_ij = p(v_i) + p(v_j). ``orig_ids`` are the kept nodes' ids in their
    input graph."""
    remap = np.full(batch.num_nodes, -1, dtype=np.int64)
    remap[kept] = np.arange(len(kept))       # -1 marks a dropped node
    old = batch.edges[(remap[batch.edges] >= 0).all(axis=1)]
    owner = batch.node_to_graph[kept]
    weights = p.gather_rows(old[:, 0]) + p.gather_rows(old[:, 1])
    return GraphBatch(remap[old], batch.features.gather_rows(kept), weights,
                      np.bincount(owner, minlength=batch.num_graphs),
                      orig_ids=kept - batch.node_offsets[owner])


def node_dropping_head(batch: GraphBatch, h_v: Tensor, h_g: Tensor,
                       params: ParameterSet, keep_ratio: float,
                       streams: list) -> HeadOutput:
    """Keep the top ceil(keep_ratio * |V|) nodes of each graph's learned
    node distribution (Gumbel-Top-K) and induce the edges."""
    if not (0.0 < keep_ratio <= 1.0):
        raise ValueError("keep_ratio must be in (0, 1]")
    p = _node_distribution(batch, h_v, h_g, params)
    kept = []
    for k, (n0, n) in enumerate(zip(batch.node_offsets.tolist(),
                                    batch.node_counts.tolist())):
        count = max(1, int(np.ceil(keep_ratio * n)))
        kept.append(n0 + gumbel_top_k(p.data[n0:n0 + n], count, streams[k]))
    view = _induced_view(batch, np.concatenate(kept), p)
    return HeadOutput(view, {"node_probs": p})


def _sample_negatives(pairs: np.ndarray, num_nodes: int,
                      stream: RngStream) -> np.ndarray:
    """Up to ``len(pairs)`` distinct node pairs (u < v) that are neither
    self-loops nor in ``pairs``: the first such pairs, in draw order, of
    ``10 * len(pairs)`` uniform draws taken at once."""
    m = len(pairs)
    draws = stream.integers(0, num_nodes, size=(10 * m, 2))
    lo, hi = draws.min(axis=1), draws.max(axis=1)
    keys = lo * num_nodes + hi
    free = (lo != hi) & ~np.isin(keys, pairs[:, 0] * num_nodes + pairs[:, 1])
    _, first = np.unique(keys, return_index=True)
    first = np.sort(first[free[first]])[:m]
    return np.stack([lo[first], hi[first]], axis=1)


def edge_perturbation_head(batch: GraphBatch, h_v: Tensor,
                           params: ParameterSet, temperature: float,
                           streams: list) -> HeadOutput:
    """Score existing and sampled non-edges, keep each by a relaxed Bernoulli,
    and use the predicted probability as the kept edge's weight.

    Works on unordered pairs so both orientations of an undirected edge share
    one decision and one weight; all nodes stay, features untouched. A graph
    without edges comes out unchanged and draws nothing.
    """
    lo = batch.edges.min(axis=1)
    hi = batch.edges.max(axis=1)
    _, first = np.unique(lo * batch.num_nodes + hi, return_index=True)
    first.sort()                 # each graph's pairs in first-seen edge order
    positives = np.stack([lo[first], hi[first]], axis=1)
    n_pos = np.bincount(batch.node_to_graph[positives[:, 0]],
                        minlength=batch.num_graphs)
    ends = np.cumsum(n_pos)
    # per graph: its positives, then its negatives, then their keep noise
    pairs, indicator, noise = [], [], []
    for k in np.flatnonzero(n_pos).tolist():
        n0 = batch.node_offsets[k]
        pos = positives[ends[k] - n_pos[k]:ends[k]]
        neg = n0 + _sample_negatives(pos - n0, int(batch.node_counts[k]),
                                     streams[k].split("negatives"))
        pairs += [pos, neg]
        indicator += [np.ones(len(pos)), np.zeros(len(neg))]
        noise.append(streams[k].split("keep").logistic(len(pos) + len(neg)))
    if not pairs:
        return identity_augmentation(batch)
    pairs, indicator = np.concatenate(pairs), np.concatenate(indicator)
    noise = np.concatenate(noise)

    h_e = h_v.gather_rows(pairs[:, 0]) + h_v.gather_rows(pairs[:, 1])
    z = concat([h_e, Tensor(indicator.reshape(-1, 1))], axis=1)
    logits = mlp(z, *params.under("mlp")).reshape(len(pairs))
    probs = logits.sigmoid()
    keep = relaxed_bernoulli(logits, temperature, noise)
    kept = np.flatnonzero(keep.hard > 0.5)
    # each kept pair as (u, v) then (v, u), the reverse skipped for loops
    directed = np.stack([pairs[kept], pairs[kept, ::-1]], axis=1).reshape(-1, 2)
    both = np.ones(len(directed), dtype=bool)
    both[1::2] = pairs[kept, 0] != pairs[kept, 1]
    edges = directed[both]
    weights = probs.gather_rows(np.repeat(kept, 2)[both])
    view = replace(batch, edges=edges, edge_weights=weights)
    return HeadOutput(view, {"edge_probs": probs, "keep_soft": keep.soft})


def subgraph_head(batch: GraphBatch, h_v: Tensor, h_g: Tensor,
                  params: ParameterSet, hops: int,
                  streams: list) -> HeadOutput:
    """Sample a center per graph from its learned node distribution (the
    hard draw of a Gumbel-Softmax) and cut its k-hop BFS neighborhood with
    ``khop_bfs``; kept edges weighted p(v_i) + p(v_j)."""
    if hops < 1:
        raise ValueError("hops must be >= 1")
    p = _node_distribution(batch, h_v, h_g, params)
    log_p = np.log(np.maximum(p.data, 1e-30))
    centers = np.array([
        n0 + gumbel_softmax(log_p[n0:n0 + n], streams[k].split("center"))
        for k, (n0, n) in enumerate(zip(batch.node_offsets.tolist(),
                                        batch.node_counts.tolist()))],
        dtype=np.int64)
    view = khop_bfs(batch, centers, hops)
    ends = view.orig_ids[view.edges]
    view.edge_weights = p.gather_rows(ends[:, 0]) + p.gather_rows(ends[:, 1])
    view.orig_ids = view.orig_ids - batch.node_offsets[view.node_to_graph]
    return HeadOutput(view, {"node_probs": p})


def feature_masking_head(batch: GraphBatch, h_v: Tensor, params: ParameterSet,
                         temperature: float, streams: list,
                         mask_mode: str = "hard") -> HeadOutput:
    """Project features with a linear layer and apply a sampled binary mask
    per node and dimension; topology unchanged, unit edge weights.

    ``mask_mode="soft"`` multiplies by the relaxed mask instead of the
    straight-through one, the fully differentiable path used by gradient
    oracles.
    """
    projected = mlp(batch.features, *params.under("lin"))
    mask_logits = mlp(h_v, *params.under("mlp"))
    d = mask_logits.shape[1]
    noise = np.concatenate([s.split("mask").logistic((n, d)) for s, n
                            in zip(streams, batch.node_counts.tolist())])
    sample = relaxed_bernoulli(mask_logits, temperature, noise)
    mask = sample.soft if mask_mode == "soft" else sample.st
    view = replace(batch, features=projected * mask,
                   edge_weights=np.ones(batch.num_edges))
    return HeadOutput(view, {"mask_probs": mask_logits.sigmoid(),
                             "mask_soft": sample.soft})


def identity_augmentation(batch: GraphBatch) -> HeadOutput:
    """The original batch with unit edge weights; no learnable parameters."""
    return HeadOutput(replace(batch, edge_weights=np.ones(batch.num_edges)), {})


def apply_augmentation(kind: AugmentationKind, batch: GraphBatch, h_v: Tensor,
                       h_g: Tensor, head_params: dict, keep_ratio: float,
                       hops: int, temperature: float,
                       streams: list) -> HeadOutput:
    """One view of the whole batch; ``streams[k]`` drives graph ``k``."""
    if kind == AugmentationKind.NODE_DROP:
        return node_dropping_head(batch, h_v, h_g, head_params[kind],
                                  keep_ratio, streams)
    if kind == AugmentationKind.EDGE_PERTURB:
        return edge_perturbation_head(batch, h_v, head_params[kind],
                                      temperature, streams)
    if kind == AugmentationKind.SUBGRAPH:
        return subgraph_head(batch, h_v, h_g, head_params[kind], hops,
                             streams)
    if kind == AugmentationKind.FEATURE_MASK:
        return feature_masking_head(batch, h_v, head_params[kind],
                                    temperature, streams)
    if kind == AugmentationKind.IDENTITY:
        return identity_augmentation(batch)
    raise ValueError(f"unknown augmentation {kind!r}")
