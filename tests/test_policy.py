import numpy as np
import pytest

from graphaug.policy import (
    AugmentationKind, GRAPH_TASK_KINDS, active_kinds, decide,
    deepset_policy, gru_policy, init_policy_params, policy_distribution,
    scale_by_policy,
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
    return Tensor._result(t, (a,), lambda o: a._accum(o.grad * (1.0 - t * t)))


def unrolled_gru_policy(batch_reps, params):
    """The GRU policy as it was written before ``tensor.gru_sequence``: about
    29 tape ops per row. The fused op must keep every bit of it."""
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
        h = (1.0 - z) * nn + z * h
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


@pytest.mark.parametrize("n", range(1, 34))
def test_gru_policy_keeps_every_bit_of_the_unrolled_gru(n):
    dist, grads = _dist_and_grads(gru_policy, n)
    want_dist, want_grads = _dist_and_grads(unrolled_gru_policy, n)
    assert dist.tobytes() == want_dist.tobytes()
    assert grads.keys() == want_grads.keys()
    for name, g in grads.items():
        assert g.tobytes() == want_grads[name].tobytes(), name


def test_deepset_distribution_sums_to_one():
    params = init_policy_params("deepset", 8, 5, seed=3)
    dist = deepset_policy(reps(), params)
    assert abs(dist.data.sum() - 1.0) < 1e-9


def test_deepset_permutation_invariance():
    params = init_policy_params("deepset", 8, 5, seed=4)
    x = reps(5)
    perm = RngStream(10, "p").permutation(6)
    d1 = deepset_policy(x, params)
    d2 = deepset_policy(x.gather_rows(perm), params)
    assert np.allclose(d1.data, d2.data, atol=1e-12)


def test_deepset_duplicated_batch_differs():
    # sum pooling doubles the pooled vector; output generally changes
    params = init_policy_params("deepset", 8, 5, seed=5)
    x = reps(6)
    doubled = Tensor(np.concatenate([x.data, x.data], axis=0))
    d1 = deepset_policy(x, params)
    d2 = deepset_policy(doubled, params)
    assert not np.allclose(d1.data, d2.data)


def test_random_policy_uniform():
    dist = policy_distribution(reps(), "random", init_policy_params("random", 8, 5, 0), 5)
    assert np.array_equal(dist.data, np.full(5, 0.2))


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
    log_dist = np.log(np.maximum(dist.data, 1e-30))
    i = gumbel_softmax(log_dist, stream.split("i"))
    j = gumbel_softmax(log_dist, stream.split("j"))
    kinds = GRAPH_TASK_KINDS
    return PolicyDecision(dist, kinds, kinds[i], kinds[j],
                          dist.gather_rows([i]).reshape(()),
                          dist.gather_rows([j]).reshape(()))


def test_decide_returns_consistent_probs():
    params = init_policy_params("gru", 8, 5, seed=6)
    dec = decide(reps(), "gru", RngStream(0, "d"), params)
    i_idx = dec.kinds.index(dec.i)
    j_idx = dec.kinds.index(dec.j)
    assert dec.p_i.item() == dec.dist.data[i_idx]
    assert dec.p_j.item() == dec.dist.data[j_idx]
    assert abs(dec.dist.data.sum() - 1.0) < 1e-9


def test_random_policy_decide_builds_at_most_five_tensors(made_tensors):
    """The distribution, then a gather and a reshape for each of p_i and
    p_j: the draws themselves build nothing."""
    x, params = reps(), init_policy_params("random", 8, 5, 0)
    made_tensors.clear()
    dec = decide(x, "random", RngStream(4, "count"), params)
    assert len(made_tensors) <= 5, len(made_tensors)
    assert dec.p_i.item() == dec.p_j.item() == 0.2


def test_scale_by_policy_identity_and_half():
    h = Tensor(np.array([[2.0, -4.0]]))
    assert np.array_equal(scale_by_policy(h, Tensor(1.0)).data, h.data)
    assert np.array_equal(scale_by_policy(h, Tensor(0.5)).data, [[1.0, -2.0]])


def test_scale_by_zero_warns():
    with pytest.warns(RuntimeWarning):
        scale_by_policy(Tensor(np.ones((1, 2))), Tensor(0.0))


def test_policy_gradient_via_scaling():
    # loss depending on scaled h_G must reach the policy parameters
    params = init_policy_params("gru", 6, 5, seed=7)
    x = Tensor(RngStream(2, "x").uniform((3, 6)))
    h_g = Tensor(RngStream(3, "h").uniform((3, 6)))

    def loss_fn_param(w_flat):
        params["out/w"].data = w_flat.data.reshape(6, 5)
        dist = gru_policy(x, params)
        p = dist.gather_rows([2]).reshape(())
        return (scale_by_policy(h_g, p) ** 2.0).sum()

    w0 = params["out/w"].data.copy()
    dist = gru_policy(x, params)
    p = dist.gather_rows([2]).reshape(())
    loss = (scale_by_policy(h_g, p) ** 2.0).sum()
    loss.backward()
    analytic = params["out/w"].grad.copy()
    fd = finite_diff_grad(loss_fn_param, Tensor(w0.reshape(-1))).data.reshape(6, 5)
    params["out/w"].data = w0
    assert np.abs(analytic).max() > 0
    assert rel_err(analytic, fd) <= 1e-3
