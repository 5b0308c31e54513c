"""Batch-conditioned categorical policy over the augmentation set.

Two instantiations, a GRU over norm-sorted batch representations and a
uniform (random) baseline, told apart by their parameters as ``encode``
tells GIN from GCN: a non-empty set runs the GRU, an empty set the uniform
policy. The sampled probabilities feed a multiplicative skip-connection on
the graph vectors so the policy gets gradients despite the discrete choice.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .encoders import mlp, param_seed
from .rng import RngStream
from .sampling import gumbel_softmax
from .tensor import ParameterSet, Tensor, gru_sequence, xavier_init, \
    zeros_param


POLICY_KINDS = ("gru", "random")


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
    dist: Tensor                    # over decide's kinds, on the tape
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
    elif policy_kind != "random":
        raise ValueError(f"unknown policy kind {policy_kind!r}")
    return params


def gru_policy(batch_reps: Tensor, params: ParameterSet) -> Tensor:
    """Sort rows ascending by L2 norm (ties by index), run a single-layer GRU
    (``tensor.gru_sequence``), and map the last hidden state to a
    distribution."""
    n = batch_reps.shape[0]
    norms = np.sqrt((batch_reps.data ** 2).sum(axis=1))
    order = np.lexsort((np.arange(n), norms))
    h = gru_sequence(batch_reps.gather_rows(order), *params.under("gru"))
    logits = mlp(h, *params.under("out"))
    return logits.reshape(logits.shape[1]).softmax()


def policy_distribution(batch_reps: Tensor, params: ParameterSet,
                        num_kinds: int) -> Tensor:
    if len(params):
        return gru_policy(batch_reps, params)
    return Tensor(np.full(num_kinds, 1.0 / num_kinds))


def decide(batch_reps: Tensor, stream: RngStream, params: ParameterSet,
           kinds: tuple) -> PolicyDecision:
    """Sample the two view augmentations independently (repeats allowed)
    from the distribution of the policy ``params`` holds over ``kinds``. The
    draws build no tape: gradients reach the policy via ``p_i``, ``p_j``."""
    dist = policy_distribution(batch_reps, params, len(kinds))
    (idx_i,) = gumbel_softmax(dist.data, [0], stream.split("i"))
    (idx_j,) = gumbel_softmax(dist.data, [0], stream.split("j"))
    p_i = dist.gather_rows([idx_i]).reshape(())
    p_j = dist.gather_rows([idx_j]).reshape(())
    return PolicyDecision(dist=dist, i=kinds[idx_i], j=kinds[idx_j],
                          p_i=p_i, p_j=p_j)
