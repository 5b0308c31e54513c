"""Learned, graph-conditioned augmentation heads plus the identity.

Each head predicts a distribution over its augmentation's parameters from the
node/graph encodings, samples a concrete augmented graph, and writes the
predicted probabilities into the output's edge weights (or feature mask) so
the discrete choice keeps a gradient path back to the head.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoders import mlp2, param_seed
from .graphs import Graph, khop_bfs
from .policy import AugmentationKind
from .rng import RngStream
from .sampling import gumbel_softmax, gumbel_top_k, relaxed_bernoulli
from .tensor import ParameterSet, Tensor, concat, xavier_init, zeros_param


@dataclass
class HeadOutput:
    graph: Graph
    soft_params: dict = field(default_factory=dict)    # tensors kept on the tape


def init_head_params(kind: AugmentationKind, hidden_dim: int, feature_dim: int,
                     seed: int) -> ParameterSet:
    params = ParameterSet()
    if kind in (AugmentationKind.NODE_DROP, AugmentationKind.SUBGRAPH):
        params.add("mlp/w0", xavier_init((2 * hidden_dim, hidden_dim),
                                         param_seed(seed, f"{kind.value}/w0")))
        params.add("mlp/b0", zeros_param((hidden_dim,)))
        params.add("mlp/w1", xavier_init((hidden_dim, 1),
                                         param_seed(seed, f"{kind.value}/w1")))
        params.add("mlp/b1", zeros_param((1,)))
    elif kind == AugmentationKind.EDGE_PERTURB:
        params.add("mlp/w0", xavier_init((hidden_dim + 1, hidden_dim),
                                         param_seed(seed, "edge/w0")))
        params.add("mlp/b0", zeros_param((hidden_dim,)))
        params.add("mlp/w1", xavier_init((hidden_dim, 1),
                                         param_seed(seed, "edge/w1")))
        params.add("mlp/b1", zeros_param((1,)))
    elif kind == AugmentationKind.FEATURE_MASK:
        params.add("lin/w", xavier_init((feature_dim, feature_dim),
                                        param_seed(seed, "fm/lin")))
        params.add("lin/b", zeros_param((feature_dim,)))
        params.add("mlp/w0", xavier_init((hidden_dim, hidden_dim),
                                         param_seed(seed, "fm/w0")))
        params.add("mlp/b0", zeros_param((hidden_dim,)))
        params.add("mlp/w1", xavier_init((hidden_dim, feature_dim),
                                         param_seed(seed, "fm/w1")))
        params.add("mlp/b1", zeros_param((feature_dim,)))
    return params


def _node_distribution(h_v: Tensor, h_g: Tensor, params: ParameterSet) -> Tensor:
    """softmax over nodes of MLP([H_v || h_G]); shared by two heads."""
    n = h_v.shape[0]
    ones = Tensor(np.ones((n, 1)))
    tiled = ones @ h_g.reshape(1, h_g.size)
    z = concat([h_v, tiled], axis=1)
    logits = mlp2(z, params["mlp/w0"], params["mlp/b0"],
                  params["mlp/w1"], params["mlp/b1"])
    return logits.reshape(n).softmax()


def _induced_edge_weights(edges_old: np.ndarray, p: Tensor) -> Tensor:
    """w_ij = p(v_i) + p(v_j) for edges given in original node ids."""
    return p.gather_rows(edges_old[:, 0]) + p.gather_rows(edges_old[:, 1])


def node_dropping_head(g: Graph, h_v: Tensor, h_g: Tensor, params: ParameterSet,
                       keep_ratio: float, temperature: float,
                       stream: RngStream) -> HeadOutput:
    """Keep the top ceil(keep_ratio * |V|) nodes of a learned node
    distribution (Gumbel-Top-K) and induce the edges."""
    if not (0.0 < keep_ratio <= 1.0):
        raise ValueError("keep_ratio must be in (0, 1]")
    p = _node_distribution(h_v, h_g, params)
    k = max(1, int(np.ceil(keep_ratio * g.num_nodes)))
    kept = gumbel_top_k(p, k, stream)
    remap = np.full(g.num_nodes, -1, dtype=np.int64)
    remap[kept] = np.arange(len(kept))
    if g.num_edges:
        mask = (remap[g.edges[:, 0]] >= 0) & (remap[g.edges[:, 1]] >= 0)
        kept_edges_old = g.edges[mask]
    else:
        kept_edges_old = np.zeros((0, 2), dtype=np.int64)
    weights = (_induced_edge_weights(kept_edges_old, p)
               if len(kept_edges_old) else Tensor(np.zeros(0)))
    feats = (g.features.gather_rows(kept) if isinstance(g.features, Tensor)
             else np.asarray(g.features)[kept].copy())
    out = Graph(len(kept), remap[kept_edges_old], feats, weights,
                label=g.label, orig_ids=kept)
    return HeadOutput(out, {"node_probs": p})


def edge_perturbation_head(g: Graph, h_v: Tensor, h_g: Tensor,
                           params: ParameterSet, temperature: float,
                           stream: RngStream) -> HeadOutput:
    """Score existing and sampled non-edges, keep each by a relaxed Bernoulli,
    and use the predicted probability as the kept edge's weight.

    Works on unordered pairs so both orientations of an undirected edge share
    one decision and one weight; all nodes stay, features untouched.
    """
    pairs = []
    seen = set()
    for a, b in g.edges:
        key = (min(int(a), int(b)), max(int(a), int(b)))
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    n_pos = len(pairs)
    if n_pos == 0:
        raise ValueError("edge perturbation needs at least one edge")
    positives = set(pairs)
    negatives = []
    attempts = 0
    neg_stream = stream.split("negatives")
    while len(negatives) < n_pos and attempts < 10 * n_pos:
        attempts += 1
        u = int(neg_stream.integers(0, g.num_nodes))
        v = int(neg_stream.integers(0, g.num_nodes))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in positives or key in seen:
            continue
        seen.add(key)
        negatives.append(key)
    all_pairs = pairs + negatives
    arr = np.array(all_pairs, dtype=np.int64)
    indicator = np.concatenate([np.ones(n_pos), np.zeros(len(negatives))])
    h_e = h_v.gather_rows(arr[:, 0]) + h_v.gather_rows(arr[:, 1])
    z = concat([h_e, Tensor(indicator.reshape(-1, 1))], axis=1)
    logits = mlp2(z, params["mlp/w0"], params["mlp/b0"],
                  params["mlp/w1"], params["mlp/b1"]).reshape(len(all_pairs))
    probs = logits.sigmoid()
    keep = relaxed_bernoulli(logits, temperature, stream.split("keep"))
    kept_idx = np.flatnonzero(keep.hard > 0.5)
    directed = []
    weight_src = []
    for idx in kept_idx:
        u, v = all_pairs[idx]
        directed.append((u, v))
        weight_src.append(idx)
        if u != v:
            directed.append((v, u))
            weight_src.append(idx)
    edges = np.array(directed, dtype=np.int64).reshape(-1, 2)
    weights = (probs.gather_rows(np.array(weight_src, dtype=np.int64))
               if weight_src else Tensor(np.zeros(0)))
    feats = (g.features if isinstance(g.features, Tensor)
             else np.asarray(g.features).copy())
    out = Graph(g.num_nodes, edges, feats, weights, label=g.label,
                orig_ids=g.orig_ids)
    return HeadOutput(out, {"edge_probs": probs, "keep_soft": keep.soft})


def subgraph_head(g: Graph, h_v: Tensor, h_g: Tensor, params: ParameterSet,
                  hops: int, temperature: float, stream: RngStream) -> HeadOutput:
    """Sample a center from a learned node distribution and induce its
    k-hop BFS neighborhood; kept edges weighted p(v_i) + p(v_j)."""
    if hops < 1:
        raise ValueError("hops must be >= 1")
    p = _node_distribution(h_v, h_g, params)
    center = gumbel_softmax(p.clip_min(1e-30).log(), temperature,
                            stream.split("center")).hard
    sub = khop_bfs(g, center, hops)
    # khop relabels; its orig_ids recover the input-graph ids for the weights
    edges_old = sub.orig_ids[sub.edges] if len(sub.edges) else sub.edges
    weights = (_induced_edge_weights(edges_old, p)
               if len(sub.edges) else Tensor(np.zeros(0)))
    out = Graph(sub.num_nodes, sub.edges, sub.features, weights, label=g.label,
                orig_ids=sub.orig_ids, center=sub.center)
    return HeadOutput(out, {"node_probs": p})


def feature_masking_head(g: Graph, h_v: Tensor, params: ParameterSet,
                         temperature: float, stream: RngStream,
                         mask_mode: str = "hard") -> HeadOutput:
    """Project features with a linear layer and apply a sampled binary mask
    per node and dimension; topology and weights unchanged.

    ``mask_mode="soft"`` multiplies by the relaxed mask instead of the
    straight-through one, the fully differentiable path used by gradient
    oracles.
    """
    x = g.features if isinstance(g.features, Tensor) else Tensor(np.asarray(g.features))
    projected = x @ params["lin/w"] + params["lin/b"]
    mask_logits = mlp2(h_v, params["mlp/w0"], params["mlp/b0"],
                       params["mlp/w1"], params["mlp/b1"])
    sample = relaxed_bernoulli(mask_logits, temperature, stream.split("mask"))
    mask = sample.soft if mask_mode == "soft" else sample.st
    masked = projected * mask
    out = Graph(g.num_nodes, g.edges.copy(), masked, np.ones(g.num_edges),
                label=g.label, orig_ids=g.orig_ids, center=g.center)
    return HeadOutput(out, {"mask_probs": mask_logits.sigmoid(),
                            "mask_soft": sample.soft})


def identity_augmentation(g: Graph) -> HeadOutput:
    """The original graph with unit edge weights; no learnable parameters."""
    feats = (g.features if isinstance(g.features, Tensor)
             else np.asarray(g.features).copy())
    out = Graph(g.num_nodes, g.edges.copy(), feats, np.ones(g.num_edges),
                label=g.label, orig_ids=g.orig_ids, center=g.center)
    return HeadOutput(out, {})


def apply_augmentation(kind: AugmentationKind, g: Graph, h_v: Tensor,
                       h_g: Tensor, head_params: dict, keep_ratio: float,
                       hops: int, temperature: float,
                       stream: RngStream) -> HeadOutput:
    if kind == AugmentationKind.NODE_DROP:
        return node_dropping_head(g, h_v, h_g, head_params[kind], keep_ratio,
                                  temperature, stream)
    if kind == AugmentationKind.EDGE_PERTURB:
        return edge_perturbation_head(g, h_v, h_g, head_params[kind],
                                      temperature, stream)
    if kind == AugmentationKind.SUBGRAPH:
        return subgraph_head(g, h_v, h_g, head_params[kind], hops,
                             temperature, stream)
    if kind == AugmentationKind.FEATURE_MASK:
        return feature_masking_head(g, h_v, head_params[kind], temperature,
                                    stream)
    if kind == AugmentationKind.IDENTITY:
        return identity_augmentation(g)
    raise ValueError(f"unknown augmentation {kind!r}")
