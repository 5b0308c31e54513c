import numpy as np
import pytest

from graphaug.policy import (
    AugmentationKind, GRAPH_TASK_KINDS, POLICY_KINDS, active_kinds, decide,
    gru_policy, init_policy_params, policy_distribution,
)
from graphaug.rng import RngStream
from graphaug.tensor import Tensor, finite_diff_grad

from conftest import rel_err


def reps(seed=0, n=6, d=8):
    return Tensor(RngStream(seed, "reps").uniform((n, d)) - 0.5)


def test_gru_distribution_sums_to_one():
    params = init_policy_params("gru", 8, 5, seed=0)
    dist = gru_policy(reps(), params)
    assert abs(dist.data.sum() - 1.0) < 1e-9
    assert dist.shape == (5,)


def test_gru_invariant_to_row_permutation():
    params = init_policy_params("gru", 8, 5, seed=1)
    x = reps(3)
    perm = RngStream(9, "p").permutation(6)
    d1 = gru_policy(x, params)
    d2 = gru_policy(x.gather_rows(perm), params)
    assert np.array_equal(d1.data, d2.data)       # exact, via the sort


def test_gru_single_row():
    params = init_policy_params("gru", 8, 5, seed=2)
    d1 = gru_policy(reps(n=1), params)
    d2 = gru_policy(reps(n=1), params)
    assert np.array_equal(d1.data, d2.data)


def _tanh(a: Tensor) -> Tensor:
    """The tape's former ``Tensor.tanh``, kept for the reference GRU."""
    t = np.tanh(a.data)
    return Tensor._result(t, (a,), lambda o: (o.grad * (1.0 - t * t),))


def unrolled_gru_policy(batch_reps, params):
    """The GRU policy as it was written before ``tensor.gru_sequence``: about
    29 tape ops per row. The fused op rounds differently, by about 1e-15 of
    each array's scale."""
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
        nn = _tanh(gx.slice_axis(1, 2 * d, 3 * d)
                   + r * gh.slice_axis(1, 2 * d, 3 * d)
                   + b.slice_axis(0, 2 * d, 3 * d))
        h = (Tensor(1.0) - z) * nn + z * h
    logits = h @ params["out/w"] + params["out/b"]
    return logits.reshape(logits.shape[1]).softmax()


def _dist_and_grads(policy, n, d=8, kinds=5):
    stream = RngStream(n, "gru-ref")
    scale = 10.0 ** (2.0 * stream.uniform((n, 1)) - 1.0)     # 0.1 to 10
    x = Tensor((stream.uniform((n, d)) - 0.5) * scale, requires_grad=True)
    params = init_policy_params("gru", d, kinds, seed=n)
    for name in ("gru/b", "out/b"):
        params[name].data = stream.split(name).uniform(params[name].shape) - 0.5
    dist = policy(x, params)
    (dist * Tensor(stream.split("w").uniform(kinds))).sum().backward()
    grads = {"x": x.grad}
    grads.update((name, t.grad) for name, t in params.items())
    return dist.data, grads


def _assert_close_to_scale(got, want, name):
    """``got`` within 1e-12 of ``want``'s largest entry, entry by entry."""
    assert got.shape == want.shape, name
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


@pytest.mark.parametrize("n", range(1, 34))
def test_gru_policy_keeps_every_bit_of_the_unrolled_gru(n):
    """The fused GRU against the unrolled one: the distribution and every
    gradient agree to 1e-12 of the array's scale (the GEMMs round
    differently, so the last bits move)."""
    dist, grads = _dist_and_grads(gru_policy, n)
    want_dist, want_grads = _dist_and_grads(unrolled_gru_policy, n)
    _assert_close_to_scale(dist, want_dist, "dist")
    assert grads.keys() == want_grads.keys()
    for name, g in grads.items():
        _assert_close_to_scale(g, want_grads[name], name)


def test_random_policy_uniform():
    dist = policy_distribution(reps(), init_policy_params("random", 8, 5, 0), 5)
    assert np.array_equal(dist.data, np.full(5, 0.2))


@pytest.mark.parametrize("task", ["graph", "node"])
@pytest.mark.parametrize("policy_kind", POLICY_KINDS)
def test_policy_runs_the_kind_its_parameters_hold(policy_kind, task):
    """A set from ``init_policy_params`` names its policy: a non-empty set
    the GRU, an empty set the uniform one. Both entry points reproduce it
    bit for bit."""
    kinds = active_kinds(task)
    params = init_policy_params(policy_kind, 8, len(kinds), seed=3)
    x = reps(4)
    if policy_kind == "random":
        want = np.full(len(kinds), 1.0 / len(kinds))
    else:
        want = gru_policy(x, params).data
    assert np.array_equal(policy_distribution(x, params, len(kinds)).data,
                          want)
    dec = decide(x, RngStream(3, "kind"), params, kinds)
    assert np.array_equal(dec.dist.data, want)
    assert dec.p_i.item() == want[kinds.index(dec.i)]
    assert dec.p_j.item() == want[kinds.index(dec.j)]


def test_node_task_active_set():
    kinds = active_kinds("node")
    assert len(kinds) == 4
    assert AugmentationKind.SUBGRAPH not in kinds
    assert len(active_kinds("graph")) == 5


def test_decide_concentrated_distribution():
    # dist with ~0.999 mass on identity -> i = j = identity nearly always
    stream = RngStream(8, "dec")
    hits = 0
    for trial in range(1000):
        dec = decide_with_dist(np.array([2.5e-4, 2.5e-4, 2.5e-4, 2.5e-4, 0.999]),
                               stream.split(str(trial)))
        hits += (dec.i == AugmentationKind.IDENTITY
                 and dec.j == AugmentationKind.IDENTITY)
    assert hits / 1000 >= 0.99


def decide_with_dist(dist_values, stream):
    from graphaug.sampling import gumbel_softmax
    from graphaug.policy import PolicyDecision
    dist = Tensor(np.asarray(dist_values))
    (i,) = gumbel_softmax(dist.data, [0], stream.split("i"))
    (j,) = gumbel_softmax(dist.data, [0], stream.split("j"))
    kinds = GRAPH_TASK_KINDS
    return PolicyDecision(dist, kinds[i], kinds[j],
                          dist.gather_rows([i]).reshape(()),
                          dist.gather_rows([j]).reshape(()))


def test_decide_returns_consistent_probs():
    params = init_policy_params("gru", 8, 5, seed=6)
    kinds = GRAPH_TASK_KINDS
    dec = decide(reps(), RngStream(0, "d"), params, kinds)
    i_idx = kinds.index(dec.i)
    j_idx = kinds.index(dec.j)
    assert dec.p_i.item() == dec.dist.data[i_idx]
    assert dec.p_j.item() == dec.dist.data[j_idx]
    assert abs(dec.dist.data.sum() - 1.0) < 1e-9


def test_random_policy_decide_builds_at_most_five_tensors(made_tensors):
    """The distribution, then a gather and a reshape for each of p_i and
    p_j: the draws themselves build nothing."""
    x, params = reps(), init_policy_params("random", 8, 5, 0)
    made_tensors.clear()
    dec = decide(x, RngStream(4, "count"), params, GRAPH_TASK_KINDS)
    assert len(made_tensors) <= 5, len(made_tensors)
    assert dec.p_i.item() == dec.p_j.item() == 0.2


def test_decide_never_draws_a_kind_whose_probability_underflows():
    """A GRU policy whose output bias holds -1e4 for one kind gives that
    kind a probability of exactly 0; no draw picks it, so ``p_i`` and
    ``p_j``, which scale the graph vectors, are never 0."""
    kinds = GRAPH_TASK_KINDS
    params = init_policy_params("gru", 8, len(kinds), seed=4)
    params["out/b"].data[2] = -1e4
    x = reps(5)
    assert gru_policy(x, params).data[2] == 0.0
    stream = RngStream(12, "underflow")
    for trial in range(2000):
        dec = decide(x, stream.split(str(trial)), params, kinds)
        assert kinds[2] not in (dec.i, dec.j)
        assert dec.p_i.item() > 0.0 and dec.p_j.item() > 0.0


def test_policy_gradient_via_scaling():
    # loss depending on scaled h_G must reach the policy parameters
    params = init_policy_params("gru", 6, 5, seed=7)
    x = Tensor(RngStream(2, "x").uniform((3, 6)))
    h_g = Tensor(RngStream(3, "h").uniform((3, 6)))

    def loss_fn_param(w_flat):
        params["out/w"].data = w_flat.data.reshape(6, 5)
        dist = gru_policy(x, params)
        p = dist.gather_rows([2]).reshape(())
        return ((h_g * p) ** 2.0).sum()

    w0 = params["out/w"].data.copy()
    dist = gru_policy(x, params)
    p = dist.gather_rows([2]).reshape(())
    loss = ((h_g * p) ** 2.0).sum()
    loss.backward()
    analytic = params["out/w"].grad.copy()
    fd = finite_diff_grad(loss_fn_param, Tensor(w0.reshape(-1))).data.reshape(6, 5)
    params["out/w"].data = w0
    assert np.abs(analytic).max() > 0
    assert rel_err(analytic, fd) <= 1e-3
