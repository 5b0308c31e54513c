"""Batch-conditioned categorical policy over the augmentation set.

Three instantiations: a GRU over norm-sorted batch representations, a deep
set, and a uniform (random) baseline. The sampled probabilities feed a
multiplicative skip-connection on the graph vectors so the policy receives
gradients despite the discrete choice.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .encoders import param_seed
from .rng import RngStream
from .sampling import gumbel_softmax
from .tensor import ParameterSet, Tensor, xavier_init, zeros_param


POLICY_KINDS = ("gru", "deepset", "random")


class AugmentationKind(str, Enum):
    NODE_DROP = "node_drop"
    EDGE_PERTURB = "edge_perturb"
    SUBGRAPH = "subgraph"
    FEATURE_MASK = "feature_mask"
    IDENTITY = "identity"


GRAPH_TASK_KINDS = (
    AugmentationKind.NODE_DROP,
    AugmentationKind.EDGE_PERTURB,
    AugmentationKind.SUBGRAPH,
    AugmentationKind.FEATURE_MASK,
    AugmentationKind.IDENTITY,
)

# subgraph sampling already happens upstream on node tasks, so the head is
# removed from the policy there
NODE_TASK_KINDS = (
    AugmentationKind.NODE_DROP,
    AugmentationKind.EDGE_PERTURB,
    AugmentationKind.FEATURE_MASK,
    AugmentationKind.IDENTITY,
)


def active_kinds(task: str) -> tuple:
    if task == "graph":
        return GRAPH_TASK_KINDS
    if task == "node":
        return NODE_TASK_KINDS
    raise ValueError(f"unknown task {task!r}")


@dataclass
class PolicyDecision:
    dist: Tensor                    # (|active|,) probabilities, on the tape
    kinds: tuple                    # the active kinds, in dist order
    i: AugmentationKind
    j: AugmentationKind
    p_i: Tensor                     # scalar tensors: dist entries of i and j
    p_j: Tensor


def init_policy_params(policy_kind: str, hidden_dim: int, num_kinds: int,
                       seed: int) -> ParameterSet:
    params = ParameterSet()
    if policy_kind == "gru":
        params.add("gru/wx", xavier_init((hidden_dim, 3 * hidden_dim),
                                         param_seed(seed, "gru/wx")))
        params.add("gru/wh", xavier_init((hidden_dim, 3 * hidden_dim),
                                         param_seed(seed, "gru/wh")))
        params.add("gru/b", zeros_param((3 * hidden_dim,)))
        params.add("out/w", xavier_init((hidden_dim, num_kinds),
                                        param_seed(seed, "out/w")))
        params.add("out/b", zeros_param((num_kinds,)))
    elif policy_kind == "deepset":
        params.add("pre/w0", xavier_init((hidden_dim, hidden_dim),
                                         param_seed(seed, "pre/w0")))
        params.add("pre/b0", zeros_param((hidden_dim,)))
        params.add("pre/w1", xavier_init((hidden_dim, hidden_dim),
                                         param_seed(seed, "pre/w1")))
        params.add("pre/b1", zeros_param((hidden_dim,)))
        params.add("post/w0", xavier_init((hidden_dim, hidden_dim),
                                          param_seed(seed, "post/w0")))
        params.add("post/b0", zeros_param((hidden_dim,)))
        params.add("post/w1", xavier_init((hidden_dim, num_kinds),
                                          param_seed(seed, "post/w1")))
        params.add("post/b1", zeros_param((num_kinds,)))
    elif policy_kind != "random":
        raise ValueError(f"unknown policy kind {policy_kind!r}")
    return params


def gru_policy(batch_reps: Tensor, params: ParameterSet) -> Tensor:
    """Sort rows ascending by L2 norm (ties by index), run a single-layer GRU,
    and map the last hidden state to a distribution."""
    n, d = batch_reps.shape
    norms = np.sqrt((batch_reps.data ** 2).sum(axis=1))
    order = np.lexsort((np.arange(n), norms))
    x = batch_reps.gather_rows(order)
    wx, wh, b = params["gru/wx"], params["gru/wh"], params["gru/b"]
    h = Tensor(np.zeros((1, d)))
    for t in range(n):
        x_t = x.gather_rows([t])
        gx = x_t @ wx
        gh = h @ wh
        z = (gx.slice_axis(1, 0, d) + gh.slice_axis(1, 0, d)
             + b.slice_axis(0, 0, d)).sigmoid()
        r = (gx.slice_axis(1, d, 2 * d) + gh.slice_axis(1, d, 2 * d)
             + b.slice_axis(0, d, 2 * d)).sigmoid()
        nn = (gx.slice_axis(1, 2 * d, 3 * d) + r * gh.slice_axis(1, 2 * d, 3 * d)
              + b.slice_axis(0, 2 * d, 3 * d)).tanh()
        h = (1.0 - z) * nn + z * h
    logits = h @ params["out/w"] + params["out/b"]
    return logits.reshape(logits.shape[1]).softmax()


def deepset_policy(batch_reps: Tensor, params: ParameterSet) -> Tensor:
    """Per-row MLP, sum pooling, post MLP, softmax."""
    phi = (batch_reps @ params["pre/w0"] + params["pre/b0"]).relu() \
        @ params["pre/w1"] + params["pre/b1"]
    pooled = phi.sum(axis=0, keepdims=True)
    out = (pooled @ params["post/w0"] + params["post/b0"]).relu() \
        @ params["post/w1"] + params["post/b1"]
    return out.reshape(out.shape[1]).softmax()


def policy_distribution(batch_reps: Tensor, policy_kind: str,
                        params: ParameterSet, num_kinds: int) -> Tensor:
    if policy_kind == "gru":
        return gru_policy(batch_reps, params)
    if policy_kind == "deepset":
        return deepset_policy(batch_reps, params)
    if policy_kind == "random":
        return Tensor(np.full(num_kinds, 1.0 / num_kinds))
    raise ValueError(f"unknown policy kind {policy_kind!r}")


def decide(batch_reps: Tensor, policy_kind: str, stream: RngStream,
           params: ParameterSet,
           kinds: tuple = GRAPH_TASK_KINDS) -> PolicyDecision:
    """Build the distribution and sample the two view augmentations
    independently (repeats allowed). The draws build no tape: gradients
    reach the policy through ``p_i`` and ``p_j`` only."""
    dist = policy_distribution(batch_reps, policy_kind, params, len(kinds))
    log_dist = np.log(np.maximum(dist.data, 1e-30))
    idx_i = gumbel_softmax(log_dist, stream.split("i"))
    idx_j = gumbel_softmax(log_dist, stream.split("j"))
    p_i = dist.gather_rows([idx_i]).reshape(())
    p_j = dist.gather_rows([idx_j]).reshape(())
    return PolicyDecision(dist=dist, kinds=tuple(kinds),
                          i=kinds[idx_i], j=kinds[idx_j], p_i=p_i, p_j=p_j)


def scale_by_policy(graph_vectors: Tensor, p: Tensor) -> Tensor:
    """Multiply graph vectors by a sampled-augmentation probability.

    This is the skip-connection that routes loss gradients into the policy.
    """
    if float(np.min(np.abs(p.data))) == 0.0:
        warnings.warn("scaling by p=0 zeroes the representation",
                      RuntimeWarning, stacklevel=2)
    return graph_vectors * p
