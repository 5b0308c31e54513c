"""Discrete sampling. The categorical (Gumbel-max) and Gumbel-Top-K draws
are hard decisions on plain arrays and build no tape. The relaxed Bernoulli
returns its soft sample, on the tape when its logits are; its one caller,
the feature mask, builds the straight-through estimator from it and its hard
draw, logit + logistic noise > 0, which is the edge head's keep rule.
"""
from __future__ import annotations

import numpy as np

from .rng import RngStream
from .tensor import Tensor


def gumbel_softmax(logits: np.ndarray, offsets,
                   stream: RngStream) -> np.ndarray:
    """The hard draw of a Gumbel-Softmax in each segment of ``logits``
    (segments start at ``offsets``, as graphs at ``node_offsets``): the
    argmax of (logits + Gumbel noise) within it, an exact draw from the
    segment's softmax. One noise draw serves all segments. Returns each
    segment's pick as an index into ``logits``: the first of its maxima, so
    a tie goes to the lowest index."""
    if not np.isfinite(logits).all():
        raise ValueError("logits must be finite")
    starts = np.asarray(offsets, dtype=np.int64)
    keys = logits + stream.gumbel(logits.shape)
    counts = np.concatenate((starts[1:], [len(keys)])) - starts
    best = np.repeat(np.maximum.reduceat(keys, starts), counts)
    hits = np.flatnonzero(keys == best)
    return hits[np.searchsorted(hits, starts)]


def gumbel_top_k(p: np.ndarray, k, offsets, stream: RngStream) -> np.ndarray:
    """Sample ``k[s]`` distinct items (or ``k`` for every segment) of each
    segment ``s`` of ``p`` (segments as in ``gumbel_softmax``) without
    replacement, ~ the segment's normalized probabilities, as its top-k
    Gumbel-perturbed log-probabilities. One noise draw serves all segments.
    Returns the indices into ``p``, ascending."""
    if p.ndim != 1:
        raise ValueError("gumbel_top_k expects a 1-D probability vector")
    starts = np.asarray(offsets, dtype=np.int64)
    counts = np.concatenate((starts[1:], [len(p)])) - starts
    k = np.broadcast_to(np.asarray(k, dtype=np.int64), counts.shape)
    if not ((1 <= k) & (k <= counts)).all():
        raise ValueError(f"k={k} out of range for segments of {counts} items")
    if (p < 0).any() or (np.add.reduceat(p, starts) <= 0).any():
        raise ValueError("probabilities must be nonnegative with positive "
                         "sum in every segment")
    with np.errstate(divide="ignore"):
        keys = np.where(p > 0, np.log(np.maximum(p, 1e-300))
                        + stream.gumbel(len(p)), -np.inf)
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
