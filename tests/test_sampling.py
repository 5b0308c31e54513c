import numpy as np
import pytest

from graphaug.rng import RngStream
from graphaug.sampling import gumbel_softmax, gumbel_top_k, relaxed_bernoulli
from graphaug.tensor import Tensor, finite_diff_grad

from conftest import rel_err


def categorical_frequencies(logits, draws, seed):
    stream = RngStream(seed, "cat-freq")
    counts = np.zeros(len(logits))
    for _ in range(draws):
        counts[gumbel_softmax(logits, 1.0, stream).hard] += 1
    return counts / draws


def softmax_np(x):
    e = np.exp(x - np.max(x))
    return e / e.sum()


def topk_subset_probs_bruteforce(p, k):
    """Exact without-replacement subset probabilities via ordered enumeration."""
    import itertools
    p = np.asarray(p, dtype=float)
    p = p / p.sum()
    out = {}
    for perm in itertools.permutations(range(len(p)), k):
        prob = 1.0
        denom = 1.0
        for idx in perm:
            prob *= p[idx] / denom
            denom -= p[idx]
        key = tuple(sorted(perm))
        out[key] = out.get(key, 0.0) + prob
    return out


# -- gumbel softmax -----------------------------------------------------------

def test_soft_sums_to_one():
    s = gumbel_softmax(np.array([0.3, -2.0, 1.4]), 0.8, RngStream(0, "s"))
    assert abs(s.soft.data.sum() - 1.0) < 1e-9


def test_extreme_logits_pick_first():
    stream = RngStream(1, "extreme")
    hits = sum(gumbel_softmax(np.array([30.0, -30.0]), 1.0, stream).hard == 0
               for _ in range(10_000))
    assert hits / 10_000 >= 0.999


def test_uniform_logits_frequencies():
    freqs = categorical_frequencies(np.zeros(5), 100_000, seed=2)
    assert np.all(np.abs(freqs - 0.2) <= 0.02)


def test_frequencies_match_softmax_tv():
    logits = np.array([0.5, -0.3, 1.1, 0.0, -1.2, 0.7, 0.2, -0.5])
    freqs = categorical_frequencies(logits, 100_000, seed=3)
    tv = 0.5 * np.abs(freqs - softmax_np(logits)).sum()
    assert tv <= 0.01


def test_st_forward_is_hard_gradient_is_soft():
    logits = Tensor(np.array([0.2, -0.4, 0.9]), requires_grad=True)
    s = gumbel_softmax(logits, 1.0, RngStream(7, "st"))
    onehot = np.zeros(3)
    onehot[s.hard] = 1.0
    assert np.allclose(s.st.data, onehot)
    (s.st * Tensor([1.0, 2.0, 3.0])).sum().backward()
    assert logits.grad is not None and np.abs(logits.grad).sum() > 0


def test_soft_gradient_matches_fd_with_frozen_noise():
    x0 = np.array([0.3, -0.2, 0.8, 0.1])
    weights = np.array([1.0, -2.0, 0.5, 3.0])

    def f(t):
        s = gumbel_softmax(t, 0.7, RngStream(11, "frozen"))
        return (s.soft * Tensor(weights)).sum()

    xt = Tensor(x0, requires_grad=True)
    f(xt).backward()
    fd = finite_diff_grad(f, Tensor(x0)).data
    assert rel_err(xt.grad, fd) <= 1e-3


def test_temperature_entropy_monotone():
    logits = np.array([0.4, -0.6, 1.2, 0.0])
    means = []
    for t in (2.0, 1.0, 0.5, 0.1):
        stream = RngStream(13, f"ent{t}")
        ent = 0.0
        for _ in range(10_000):
            p = gumbel_softmax(logits, t, stream).soft.data
            ent += float(-(p * np.log(np.maximum(p, 1e-12))).sum())
        means.append(ent / 10_000)
    assert all(a >= b - 1e-6 for a, b in zip(means, means[1:]))


def test_temperature_contract():
    with pytest.raises(ValueError):
        gumbel_softmax(np.zeros(3), 0.0, RngStream(0, "t"))
    with pytest.raises(ValueError):
        gumbel_softmax(np.array([np.inf, 0.0]), 1.0, RngStream(0, "t"))


# -- gumbel top-k ---------------------------------------------------------------

def test_topk_full_selection():
    idx = gumbel_top_k(np.array([0.2, 0.5, 0.3]), 3, RngStream(0, "tk"))
    assert idx.tolist() == [0, 1, 2]


def test_topk_zero_probs_excluded():
    stream = RngStream(1, "tk0")
    for _ in range(200):
        idx = gumbel_top_k(np.array([1.0, 0.0, 0.0]), 1, stream)
        assert idx.tolist() == [0]


def test_topk_matches_plackett_luce_enumeration():
    p = np.array([0.5, 0.3, 0.2])
    expect = topk_subset_probs_bruteforce(p, 2)
    stream = RngStream(4, "tkpl")
    counts = {}
    draws = 100_000
    for _ in range(draws):
        idx = gumbel_top_k(p, 2, stream)
        key = tuple(idx.tolist())
        counts[key] = counts.get(key, 0) + 1
    tv = 0.5 * sum(abs(counts.get(k, 0) / draws - v)
                   for k, v in expect.items())
    assert tv <= 0.01


def test_topk_k_out_of_range():
    with pytest.raises(ValueError):
        gumbel_top_k(np.array([0.5, 0.5]), 3, RngStream(0, "bad"))
    with pytest.raises(ValueError):
        gumbel_top_k(np.array([0.5, 0.5]), 0, RngStream(0, "bad"))


def test_topk_returns_indices_only():
    p = Tensor(np.array([0.5, 0.3, 0.2]), requires_grad=True)
    idx = gumbel_top_k(p, 2, RngStream(5, "tape"))
    assert isinstance(idx, np.ndarray) and idx.dtype == np.int64
    assert idx.tolist() == sorted(idx.tolist()) and len(set(idx.tolist())) == 2
    # same Gumbel draw for a plain array as for a tape tensor
    again = gumbel_top_k(p.data, 2, RngStream(5, "tape"))
    assert np.array_equal(idx, again)


# -- relaxed bernoulli -------------------------------------------------------------

def test_bernoulli_balanced_at_zero_logit():
    r = relaxed_bernoulli(np.zeros(100_000), 1.0, RngStream(6, "b0"))
    assert abs(r.hard.mean() - 0.5) <= 0.01


def test_bernoulli_saturated_logit():
    r = relaxed_bernoulli(np.full(10_000, 20.0), 1.0, RngStream(7, "b20"))
    assert r.hard.mean() >= 0.999


def test_bernoulli_soft_in_open_interval():
    r = relaxed_bernoulli(np.zeros(10_000), 0.5, RngStream(8, "bint"))
    assert np.all(r.soft.data > 0.0) and np.all(r.soft.data < 1.0)


def test_bernoulli_soft_gradient_fd():
    x0 = np.array([0.4, -1.0, 0.2])

    def f(t):
        r = relaxed_bernoulli(t, 0.8, RngStream(15, "bfd"))
        return (r.soft * Tensor([1.0, 2.0, -1.5])).sum()

    xt = Tensor(x0, requires_grad=True)
    f(xt).backward()
    fd = finite_diff_grad(f, Tensor(x0)).data
    assert rel_err(xt.grad, fd) <= 1e-3


def test_bernoulli_st_forward_binary():
    r = relaxed_bernoulli(np.array([0.3, -0.3, 2.0]), 1.0, RngStream(9, "bst"))
    assert set(np.unique(r.st.data)) <= {0.0, 1.0}
