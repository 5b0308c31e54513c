"""Discrete sampling. ``gumbel_top_k``, the one Gumbel-perturbed selection,
and its top 1 ``gumbel_softmax`` (the categorical draw) take probabilities,
make hard decisions on plain arrays and build no tape. The relaxed Bernoulli
returns its soft sample, on the tape when its logits are; its one caller,
the feature mask, builds the straight-through estimator from it and its hard
draw, logit + logistic noise > 0, which is the edge head's keep rule.
"""
from __future__ import annotations

import numpy as np

from .rng import RngStream
from .tensor import Tensor


def gumbel_softmax(p: np.ndarray, offsets, stream: RngStream) -> np.ndarray:
    """The hard draw of a Gumbel-Softmax in each segment of the
    probabilities ``p`` (segments start at ``offsets``, as graphs at
    ``node_offsets``): ``gumbel_top_k``'s k = 1 pick, an exact draw from the
    segment's normalized probabilities. Returns each segment's pick as an
    index into ``p``."""
    return gumbel_top_k(p, 1, offsets, stream)


def gumbel_top_k(p: np.ndarray, k, offsets, stream: RngStream) -> np.ndarray:
    """Sample ``k[s]`` distinct items (or ``k`` for every segment) of each
    segment ``s`` of ``p`` (segments as in ``gumbel_softmax``) without
    replacement, ~ the segment's normalized probabilities, as its top-k
    Gumbel-perturbed log-probabilities. One noise draw serves all segments.
    An item of probability 0 is never picked, and a tie goes to the lowest
    index. Returns the indices into ``p``, ascending."""
    if p.ndim != 1:
        raise ValueError("gumbel_top_k expects a 1-D probability vector")
    starts = np.asarray(offsets, dtype=np.int64)
    counts = np.concatenate((starts[1:], [len(p)])) - starts
    k = np.broadcast_to(np.asarray(k, dtype=np.int64), counts.shape)
    if not ((1 <= k) & (k <= counts)).all():
        raise ValueError(f"k={k} out of range for segments of {counts} items")
    if not (np.isfinite(p).all() and (p >= 0).all()
            and (np.add.reduceat(p, starts) > 0).all()):
        raise ValueError("probabilities must be finite and nonnegative with "
                         "positive sum in every segment")
    with np.errstate(divide="ignore"):      # log 0 = -inf: never picked
        keys = np.log(p) + stream.gumbel(len(p))
    # each segment's items, best first
    order = np.lexsort((-keys, np.repeat(np.arange(len(starts)), counts)))
    rank = np.arange(len(p)) - np.repeat(starts, counts)
    return np.sort(order[rank < np.repeat(k, counts)])


def relaxed_bernoulli(logits, temperature: float,
                      noise: np.ndarray) -> Tensor:
    """Elementwise Bernoulli with logistic-noise relaxation: the soft sample
    sigmoid((logit + noise) / temperature).

    The hard draw ``soft.data > 0.5`` is 1 iff logit[i] + noise[i] > 0, an
    exact Bernoulli draw with p = sigmoid(logit) when ``noise`` is standard
    logistic (e.g. ``stream.logistic(shape)``), which the caller draws for
    the whole batch.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    logits = Tensor._lift(logits)
    if noise.shape != logits.shape:
        raise ValueError(f"noise shape {noise.shape} != logits {logits.shape}")
    return ((logits + Tensor(noise)) * (1.0 / temperature)).sigmoid()
