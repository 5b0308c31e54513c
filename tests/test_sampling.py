import numpy as np
import pytest

from graphaug.rng import RngStream
from graphaug.sampling import gumbel_softmax, gumbel_top_k, relaxed_bernoulli
from graphaug.tensor import Tensor, finite_diff_grad

from conftest import rel_err


def categorical_frequencies(p, draws, seed):
    """Pick frequencies of ``draws`` draws, taken as one call over as many
    copies of the probabilities ``p``, one segment each."""
    n = len(p)
    picks = gumbel_softmax(np.tile(p, draws), np.arange(draws) * n,
                           RngStream(seed, "cat-freq"))
    return np.bincount(picks - np.arange(draws) * n, minlength=n) / draws


def topk_subset_frequencies(segments, ks, draws, seed):
    """Per input segment, the frequency of each chosen subset (a bit mask
    of local indices) over ``draws`` copies of all ``segments``, drawn by
    one ``gumbel_top_k`` call."""
    sizes = np.array([len(p) for p in segments])
    starts = np.cumsum(np.tile(sizes, draws)) - np.tile(sizes, draws)
    chosen = gumbel_top_k(np.tile(np.concatenate(segments), draws),
                          np.tile(ks, draws), starts,
                          RngStream(seed, "topk-freq"))
    seg = np.searchsorted(starts, chosen, side="right") - 1
    masks = np.bincount(seg, 2.0 ** (chosen - starts[seg]),
                        minlength=len(starts)).astype(np.int64)
    freqs = []
    for t in range(len(segments)):
        keys, counts = np.unique(masks[t::len(segments)], return_counts=True)
        freqs.append(dict(zip(keys.tolist(), (counts / draws).tolist())))
    return freqs


def subset_mask(indices):
    return sum(1 << int(i) for i in indices)


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

def test_extreme_logits_pick_first():
    p = softmax_np(np.array([30.0, -30.0]))
    assert categorical_frequencies(p, 10_000, seed=1)[0] >= 0.999


def test_uniform_logits_frequencies():
    freqs = categorical_frequencies(np.full(5, 0.2), 100_000, seed=2)
    assert np.all(np.abs(freqs - 0.2) <= 0.02)


def test_frequencies_match_softmax_tv():
    p = softmax_np(np.array([0.5, -0.3, 1.1, 0.0, -1.2, 0.7, 0.2, -0.5]))
    freqs = categorical_frequencies(p, 100_000, seed=3)
    tv = 0.5 * np.abs(freqs - p).sum()
    assert tv <= 0.01


def test_temperature_contract():
    with pytest.raises(ValueError):
        relaxed_bernoulli(np.zeros(3), 0.0, RngStream(0, "t").logistic(3))
    with pytest.raises(ValueError):
        gumbel_softmax(np.array([np.inf, 0.0]), [0], RngStream(0, "t"))


def top_1(p, offsets, stream):
    return gumbel_top_k(p, 1, offsets, stream)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("draw", [gumbel_softmax, top_1],
                         ids=["gumbel_softmax", "gumbel_top_k"])
def test_non_finite_probabilities_are_rejected(draw, bad):
    """A NaN or infinite probability fails the draw, alone in its segment
    or beside valid ones, whichever entry point takes it."""
    for p, offsets in (([bad, bad], [0]), ([0.5, 0.5, bad, 0.25], [0, 2])):
        with pytest.raises(ValueError, match="probabilities must be finite"):
            draw(np.array(p), offsets, RngStream(0, "bad"))


def test_categorical_draw_is_an_index_and_builds_no_tape(made_tensors):
    p = softmax_np(np.array([0.2, -0.4, 0.9]))
    idx = gumbel_softmax(p, [0], RngStream(7, "st"))
    assert idx.dtype == np.int64 and idx.shape == (1,) and 0 <= idx[0] < 3
    # the Gumbel-max draw: the argmax of the log-probabilities plus the
    # stream's noise
    assert idx[0] == np.argmax(np.log(p) + RngStream(7, "st").gumbel(3))
    gumbel_top_k(np.array([0.5, 0.3, 0.2]), 2, [0], RngStream(5, "tape"))
    assert not made_tensors


def test_segment_draws_are_slices_of_one_draw():
    """Segment s picks the argmax of its slice of one noise draw over all
    items; ties go to the lower index."""
    p = np.exp(np.array([0.3, 0.3, -1.0, 2.0, 0.5, 0.5, 0.5, 0.0]))
    offsets = [0, 3, 4, 7]
    picks = gumbel_softmax(p, offsets, RngStream(3, "slices"))
    keys = np.log(p) + RngStream(3, "slices").gumbel(len(p))
    bounds = offsets + [len(p)]
    assert picks.tolist() == [a + int(np.argmax(keys[a:b]))
                              for a, b in zip(bounds, bounds[1:])]
    tied = gumbel_softmax(np.ones(4), [0, 2], RngStream(3, "ties"))
    assert np.isin(tied, [0, 1, 2, 3]).all() and tied[0] < 2 <= tied[1]


class _FixedNoise:
    """A stream whose Gumbel draw is the given array."""

    def __init__(self, noise):
        self.noise = np.asarray(noise, dtype=float)

    def gumbel(self, shape):
        assert self.noise.shape == tuple(np.atleast_1d(shape))
        return self.noise


def _lexsort_picks(keys, starts):
    """Each segment's pick as a stable sort by (segment, -key) took it."""
    seg = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(keys)))
    return np.lexsort((-keys, seg))[starts]


def test_segment_picks_match_the_stable_lexsort():
    """The first maximum of each segment, ties to the lowest index, as a
    stable lexsort by (segment, -key) picks it: on random keys, on keys
    with forced ties (a few integer values) and on the stream's own noise.
    The keys are log-probabilities, so the draws take their exponentials."""
    rng = np.random.default_rng(17)
    for case in range(300):
        sizes = rng.integers(1, 9, rng.integers(1, 12))
        starts = np.cumsum(sizes) - sizes
        n = int(sizes.sum())
        p = np.exp(rng.integers(-2, 2, n).astype(float) if case % 2
                   else rng.normal(size=n))
        picks = gumbel_softmax(p, starts, _FixedNoise(np.zeros(n)))
        assert picks.tolist() == _lexsort_picks(np.log(p), starts).tolist()
        p = np.exp(rng.normal(size=n))
        picks = gumbel_softmax(p, starts, RngStream(case, "lex"))
        keys = np.log(p) + RngStream(case, "lex").gumbel(n)
        assert picks.tolist() == _lexsort_picks(keys, starts).tolist()
    # every key tied: each segment takes its first item
    assert gumbel_softmax(np.ones(6), [0, 1, 4], _FixedNoise(np.zeros(6))
                          ).tolist() == [0, 1, 4]


def test_centers_match_each_segments_softmax_tv():
    """Centers drawn for 100,000 copies of a batch of three graphs' node
    probabilities, one call: each graph's pick frequencies against its own
    softmax, TV within 0.01 as in criterion 2."""
    graphs = [softmax_np(logits) for logits in (
        np.array([0.0]), np.array([1.0, -0.5, 0.2]),
        np.array([0.8, -0.4, 0.1, -1.0, 0.5, 0.0, -0.2, 1.2]))]
    sizes = np.array([len(g) for g in graphs])
    draws = 100_000
    starts = np.cumsum(np.tile(sizes, draws)) - np.tile(sizes, draws)
    picks = gumbel_softmax(np.tile(np.concatenate(graphs), draws), starts,
                           RngStream(44, "centers")) - starts
    for t, p in enumerate(graphs):
        freqs = np.bincount(picks[t::len(graphs)], minlength=len(p)) / draws
        tv = 0.5 * np.abs(freqs - p).sum()
        assert tv <= 0.01, (t, tv)


def _logit_argmax_draw(logits, offsets, stream):
    """The categorical draw as it was written before it became
    ``gumbel_top_k``'s top 1: the first maximum of (logits + Gumbel noise)
    in each segment, fed log-probabilities clamped at 1e-30."""
    if not np.isfinite(logits).all():
        raise ValueError("logits must be finite")
    starts = np.asarray(offsets, dtype=np.int64)
    keys = logits + stream.gumbel(logits.shape)
    counts = np.concatenate((starts[1:], [len(keys)])) - starts
    best = np.repeat(np.maximum.reduceat(keys, starts), counts)
    hits = np.flatnonzero(keys == best)
    return hits[np.searchsorted(hits, starts)]


def _segment_probabilities(rng, sizes):
    """Each segment's softmax of scaled normal logits, then, per segment,
    one of: as is, a few exact ties (probabilities quantized to a few
    levels), zeros and underflows (p < 1e-30) beside at least one positive
    item."""
    out = []
    for n in sizes:
        p = softmax_np(rng.normal(scale=rng.choice([0.1, 1.0, 5.0]), size=n))
        form = rng.integers(4)
        if form == 1:
            p = rng.integers(1, 4, n).astype(float)
        elif form >= 2 and n > 1:
            dead = rng.random(n) < 0.5
            dead[rng.integers(n)] = False
            p[dead] = 0.0 if form == 2 else 1e-40
        out.append(p / p.sum())
    return np.concatenate(out)


def test_draw_matches_the_logit_argmax_draw():
    """``gumbel_softmax`` on probabilities picks what the argmax over
    clamped log-probabilities picked, noise for noise: on one-item
    segments, batches of up to 63 items a segment with ties, zeros and
    underflows, and a single five-kind policy segment."""
    rng = np.random.default_rng(36)
    layouts = [np.ones(40, dtype=int), [5]]
    layouts += [rng.integers(1, 64, rng.integers(1, 33)) for _ in range(200)]
    for case, sizes in enumerate(layouts):
        starts = np.cumsum(sizes) - sizes
        p = _segment_probabilities(rng, sizes)
        picks = gumbel_softmax(p, starts, RngStream(case, "equiv"))
        ref = _logit_argmax_draw(np.log(np.maximum(p, 1e-30)), starts,
                                 RngStream(case, "equiv"))
        assert picks.tolist() == ref.tolist(), case
        assert (p[picks] > 0).all()


# -- gumbel top-k ---------------------------------------------------------------

def test_topk_full_selection():
    idx = gumbel_top_k(np.array([0.2, 0.5, 0.3]), 3, [0], RngStream(0, "tk"))
    assert idx.tolist() == [0, 1, 2]


def test_topk_zero_probs_excluded():
    p = np.tile([1.0, 0.0, 0.0], 200)
    idx = gumbel_top_k(p, 1, np.arange(0, 600, 3), RngStream(1, "tk0"))
    assert idx.tolist() == list(range(0, 600, 3))


def test_topk_matches_plackett_luce_enumeration():
    """One segment, then a batch of five with a count each (one of them
    with a zero probability), 100,000 draws in one call per input."""
    inputs = [
        ([np.array([0.5, 0.3, 0.2])], [2]),
        ([np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.4]),
          np.array([0.1, 0.2, 0.3, 0.4]), np.array([1.0]),
          np.array([0.25, 0.0, 0.75])], [2, 1, 3, 1, 2]),
    ]
    for seed, (segments, ks) in enumerate(inputs):
        freqs = topk_subset_frequencies(segments, ks, 100_000, seed)
        for p, k, got in zip(segments, ks, freqs):
            expect = {subset_mask(s): v for s, v in
                      topk_subset_probs_bruteforce(p, k).items() if v > 0}
            assert set(got) <= set(expect), (p, k, got)
            tv = 0.5 * sum(abs(got.get(m, 0.0) - v)
                           for m, v in expect.items())
            assert tv <= 0.01, (p, k, tv)


def test_topk_k_out_of_range():
    with pytest.raises(ValueError):
        gumbel_top_k(np.array([0.5, 0.5]), 3, [0], RngStream(0, "bad"))
    with pytest.raises(ValueError):
        gumbel_top_k(np.array([0.5, 0.5]), 0, [0], RngStream(0, "bad"))
    with pytest.raises(ValueError):
        gumbel_top_k(np.full(4, 0.25), [1, 3], [0, 2], RngStream(0, "bad"))


def test_topk_returns_indices_only():
    idx = gumbel_top_k(np.array([0.5, 0.3, 0.2]), 2, [0], RngStream(5, "tape"))
    assert isinstance(idx, np.ndarray) and idx.dtype == np.int64
    assert idx.tolist() == sorted(idx.tolist()) and len(set(idx.tolist())) == 2


# -- relaxed bernoulli -------------------------------------------------------------

def test_bernoulli_balanced_at_zero_logit():
    r = relaxed_bernoulli(np.zeros(100_000), 1.0,
                          RngStream(6, "b0").logistic(100_000))
    assert abs((r.data > 0.5).mean() - 0.5) <= 0.01


def test_bernoulli_saturated_logit():
    r = relaxed_bernoulli(np.full(10_000, 20.0), 1.0,
                          RngStream(7, "b20").logistic(10_000))
    assert (r.data > 0.5).mean() >= 0.999


def test_bernoulli_soft_in_open_interval():
    r = relaxed_bernoulli(np.zeros(10_000), 0.5,
                          RngStream(8, "bint").logistic(10_000))
    assert np.all(r.data > 0.0) and np.all(r.data < 1.0)


def test_bernoulli_soft_gradient_fd():
    x0 = np.array([0.4, -1.0, 0.2])

    def f(t):
        r = relaxed_bernoulli(t, 0.8, RngStream(15, "bfd").logistic(3))
        return (r * Tensor([1.0, 2.0, -1.5])).sum()

    xt = Tensor(x0, requires_grad=True)
    f(xt).backward()
    fd = finite_diff_grad(f, Tensor(x0)).data
    assert rel_err(xt.grad, fd) <= 1e-3

