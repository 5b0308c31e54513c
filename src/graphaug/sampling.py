"""Differentiable discrete sampling: Gumbel-Softmax, Gumbel-Top-K, and a
relaxed Bernoulli. Hard decisions use the straight-through estimator: the
forward value is the hard sample, the gradient is the relaxed one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream
from .tensor import Tensor


@dataclass
class RelaxedSample:
    soft: Tensor                     # relaxed sample, on the tape
    hard: object                     # int index or binary ndarray
    st: Tensor                       # straight-through combination


def gumbel_softmax(logits, temperature: float, stream: RngStream) -> RelaxedSample:
    """Sample a categorical via perturbed logits.

    The hard index is the argmax of (logits + Gumbel noise), which is an exact
    draw from softmax(logits); the soft vector tempers the same perturbation.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    logits = Tensor._lift(logits)
    if not np.isfinite(logits.data).all():
        raise ValueError("logits must be finite")
    noise = stream.gumbel(logits.shape)
    perturbed = logits + Tensor(noise)
    soft = (perturbed * (1.0 / temperature)).softmax(axis=-1)
    hard = int(np.argmax(perturbed.data))
    onehot = np.zeros(logits.shape)
    onehot[hard] = 1.0
    st = Tensor(onehot) + soft - soft.detach()
    return RelaxedSample(soft=soft, hard=hard, st=st)


def gumbel_top_k(probs, k: int, stream: RngStream) -> np.ndarray:
    """Sample k distinct items ~ the normalized probabilities, without
    replacement, by taking the top-k Gumbel-perturbed log-probabilities.

    Returns the selected indices in ascending order. The draw is a hard
    decision and builds no tape.
    """
    p = Tensor._lift(probs).data
    n = p.shape[-1] if p.ndim else p.size
    if p.ndim != 1:
        raise ValueError("gumbel_top_k expects a 1-D probability vector")
    if not (1 <= k <= n):
        raise ValueError(f"k={k} out of range for {n} items")
    if (p < 0).any() or p.sum() <= 0:
        raise ValueError("probabilities must be nonnegative with positive sum")
    noise = stream.gumbel(n)
    with np.errstate(divide="ignore"):
        keys = np.where(p > 0, np.log(np.maximum(p, 1e-300)) + noise, -np.inf)
    order = np.argsort(-keys, kind="stable")
    return np.sort(order[:k]).astype(np.int64)


def relaxed_bernoulli(logits, temperature: float,
                      noise: np.ndarray) -> RelaxedSample:
    """Elementwise Bernoulli with logistic-noise relaxation.

    hard[i] = 1 iff logit[i] + noise[i] > 0, an exact Bernoulli draw with
    p = sigmoid(logit) when ``noise`` is standard logistic (e.g.
    ``stream.logistic(shape)``). The caller draws it, so a batch can
    concatenate one draw per graph.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    logits = Tensor._lift(logits)
    if noise.shape != logits.shape:
        raise ValueError(f"noise shape {noise.shape} != logits {logits.shape}")
    soft = ((logits + Tensor(noise)) * (1.0 / temperature)).sigmoid()
    hard = (soft.data > 0.5).astype(float)
    st = Tensor(hard) + soft - soft.detach()
    return RelaxedSample(soft=soft, hard=hard, st=st)
