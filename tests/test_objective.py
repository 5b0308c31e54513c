import math

import numpy as np
import pytest

from graphaug.encoders import Encodings
from graphaug.objective import (
    batch_loss, estimate_mi, init_discriminator_params, jsd_mi,
    local_global_scores, pairwise_scores,
)
from graphaug.rng import RngStream
from graphaug.tensor import Tensor
from graphaug.trainer import TrainConfig

from conftest import rel_err


def softplus(x):
    return np.logaddexp(0.0, x)


def discriminate(h_v, h_g, kind, params=None):
    """Score one node vector against one graph vector."""
    d = h_v.size
    return pairwise_scores(h_v.reshape(1, d), h_g.reshape(1, d), kind,
                           params).reshape(())


# -- discriminators -----------------------------------------------------------

def test_dot_orthogonal_is_zero():
    s = discriminate(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]), "dot")
    assert s.item() == 0.0


def test_cosine_parallel_is_one():
    s = discriminate(Tensor([2.0, 2.0]), Tensor([4.0, 4.0]), "cosine")
    assert abs(s.item() - 1.0) < 1e-12


def test_cosine_zero_vector_scores_zero():
    s = discriminate(Tensor([0.0, 0.0]), Tensor([1.0, 3.0]), "cosine")
    assert s.item() == 0.0


def test_bilinear_identity_equals_dot():
    params = init_discriminator_params("bilinear", 3, seed=0)
    params["disc/w"].data = np.eye(3)
    a = Tensor([0.5, -1.0, 2.0])
    b = Tensor([1.5, 0.5, -0.5])
    assert abs(discriminate(a, b, "bilinear", params).item()
               - discriminate(a, b, "dot").item()) < 1e-12


def test_mlp_discriminator_shapes():
    params = init_discriminator_params("mlp", 4, seed=1)
    h = Tensor(RngStream(0, "m").uniform((5, 4)))
    g = Tensor(RngStream(1, "m").uniform((3, 4)))
    table = pairwise_scores(h, g, "mlp", params)
    assert table.shape == (5, 3)


# -- jsd ------------------------------------------------------------------------

def test_jsd_at_zero_scores():
    v = jsd_mi(Tensor(np.zeros(4)), Tensor(np.zeros(6)))
    assert abs(v.item() - (-2.0 * math.log(2.0))) < 1e-12


def test_jsd_saturated():
    v = jsd_mi(Tensor([10.0]), Tensor([-10.0]))
    assert abs(v.item() - (-(softplus(-10.0) + softplus(-10.0)))) < 1e-12
    assert abs(v.item()) < 1e-4          # ~ -9.08e-5


def test_jsd_monotone_in_negatives():
    pos = Tensor(np.zeros(2))
    lo = jsd_mi(pos, Tensor([0.0, 0.0]))
    hi = jsd_mi(pos, Tensor([0.5, 0.0]))
    assert hi.item() < lo.item()


# -- estimators ------------------------------------------------------------------

def test_nce_two_way_uniform():
    v = estimate_mi(Tensor([0.0]), Tensor([[0.0]]),
                    TrainConfig(estimator="nce"))
    assert abs(v.item() - (-math.log(2.0))) < 1e-12


def test_dv_constant_is_zero():
    v = estimate_mi(Tensor([1.7, 1.7]), Tensor([[1.7], [1.7]]),
                    TrainConfig(estimator="dv"))
    assert abs(v.item()) < 1e-12


def test_nt_xent_at_unit_temperature_equals_nce():
    pos = Tensor(RngStream(2, "e").uniform(4))
    neg = Tensor(RngStream(3, "e").uniform((4, 3)))
    a = estimate_mi(pos, neg, TrainConfig(estimator="nt_xent",
                                          nt_xent_temperature=1.0))
    b = estimate_mi(pos, neg, TrainConfig(estimator="nce"))
    assert abs(a.item() - b.item()) < 1e-12


def test_estimators_guard_overflow():
    pos = Tensor([500.0])
    neg = Tensor([[480.0, 490.0]])
    for est in ("nce", "dv"):
        v = estimate_mi(pos, neg, TrainConfig(estimator=est))
        assert np.isfinite(v.item())


# -- local-global scores ------------------------------------------------------------

def test_local_global_scores_node_mean():
    nodes = Tensor(np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0]]))
    n2g = np.array([0, 0, 1])
    gvecs = Tensor(np.array([[1.0, 1.0], [2.0, 0.0]]))
    pos, neg = local_global_scores(nodes, n2g, gvecs, "dot")
    # S[k,k'] = mean over graph-k' nodes of dot(node, gvec_k):
    #   S[0,0]=mean(1,3)=2  S[0,1]=2  S[1,0]=mean(2,6)=4  S[1,1]=0
    assert np.allclose(pos.data, [2.0, 0.0])
    assert np.allclose(neg.data, [[2.0], [4.0]])


def test_negatives_match_pairwise_comprehension():
    for n in range(2, 40):
        # one node per graph, node k' the unit vector e_k': the dot score
        # of graph vector k against graph k' is gvecs[k, k'] = k n + k'
        ids = np.arange(n * n, dtype=float).reshape(n, n)
        pos, neg = local_global_scores(Tensor(np.eye(n)), np.arange(n),
                                       Tensor(ids), "dot")
        want = [k * n + kp for k in range(n) for kp in range(n) if kp != k]
        assert np.array_equal(neg.data,
                              np.array(want, dtype=float).reshape(n, n - 1))
        assert np.array_equal(pos.data, np.diag(ids))


# -- batch loss -----------------------------------------------------------------------

def fake_encodings(seed, n_graphs, nodes_per_graph, d=4):
    stream = RngStream(seed, "fe")
    total = n_graphs * nodes_per_graph
    nodes = Tensor(stream.uniform((total, d)) - 0.5)
    gvec = Tensor(stream.uniform((n_graphs, d)) - 0.5)
    n2g = np.repeat(np.arange(n_graphs), nodes_per_graph)
    return Encodings(nodes, gvec), n2g


def naive_loss(enc_i, enc_j, n2g_i, n2g_j, estimator="jsd", disc="dot",
               temp=0.5):
    """Independent triple-loop reference implementation."""
    def disc_fn(hv, hg):
        if disc == "dot":
            return float(hv @ hg)
        raise NotImplementedError

    def direction(gvecs, nodes, n2g):
        n = len(gvecs)
        S = np.zeros((n, n))
        for k in range(n):
            for kp in range(n):
                vs = [disc_fn(nodes[v], gvecs[k])
                      for v in range(len(nodes)) if n2g[v] == kp]
                S[k, kp] = np.mean(vs)
        pos = np.diag(S)
        if estimator == "jsd":
            neg = np.array([S[k, kp] for k in range(n) for kp in range(n)
                            if k != kp])
            return float(np.mean(-softplus(-pos)) - np.mean(softplus(neg)))
        if estimator == "nce":
            vals = []
            for k in range(n):
                row = np.array([S[k, kp] for kp in range(n)])
                vals.append(S[k, k] - np.log(np.exp(row).sum()))
            return float(np.mean(vals))
        if estimator == "nt_xent":
            vals = []
            for k in range(n):
                row = np.array([S[k, kp] for kp in range(n)]) / temp
                vals.append(S[k, k] / temp - np.log(np.exp(row).sum()))
            return float(np.mean(vals))
        if estimator == "dv":
            neg = np.array([S[k, kp] for k in range(n) for kp in range(n)
                            if k != kp])
            return float(np.mean(pos) - np.log(np.mean(np.exp(neg))))
        raise ValueError(estimator)

    i_i = direction(enc_i.graph_vector.data, enc_j.node_matrix.data, n2g_j)
    i_j = direction(enc_j.graph_vector.data, enc_i.node_matrix.data, n2g_i)
    return -(i_i + i_j) / 2.0


def test_batch_of_one_is_rejected():
    enc_i, n2g = fake_encodings(0, 1, 3)
    enc_j, _ = fake_encodings(1, 1, 3)
    for est in ("jsd", "nce", "nt_xent", "dv"):
        with pytest.raises(ValueError, match="no negatives"):
            batch_loss(enc_i, enc_j, n2g, n2g, TrainConfig(estimator=est))


def test_identical_encodings_loss_is_2log2_at_zero_scores():
    nodes = Tensor(np.zeros((4, 3)))
    gvec = Tensor(np.zeros((2, 3)))
    n2g = np.array([0, 0, 1, 1])
    enc = Encodings(nodes, gvec)
    loss = batch_loss(enc, enc, n2g, n2g, TrainConfig())
    assert abs(loss.item() - 2.0 * math.log(2.0)) < 1e-12


@pytest.mark.parametrize("estimator", ["jsd", "nce", "nt_xent", "dv"])
def test_batch_loss_matches_naive_triple_loop(estimator):
    for seed in range(5):
        enc_i, n2g_i = fake_encodings(seed * 2, 3, 2 + seed % 3)
        enc_j, n2g_j = fake_encodings(seed * 2 + 1, 3, 2 + seed % 3)
        cfg = TrainConfig(estimator=estimator)
        loss = batch_loss(enc_i, enc_j, n2g_i, n2g_j, cfg)
        expect = naive_loss(enc_i, enc_j, n2g_i, n2g_j, estimator,
                            temp=cfg.nt_xent_temperature)
        assert abs(loss.item() - expect) < 1e-9


def test_batch_loss_permutation_invariant():
    enc_i, n2g_i = fake_encodings(10, 4, 3)
    enc_j, n2g_j = fake_encodings(11, 4, 3)
    base = batch_loss(enc_i, enc_j, n2g_i, n2g_j, TrainConfig()).item()
    perm = np.array([2, 0, 3, 1])

    def permute(enc, n2g):
        order = np.argsort(perm[n2g], kind="stable")
        return (Encodings(enc.node_matrix.gather_rows(order),
                          enc.graph_vector.gather_rows(np.argsort(perm))),
                np.sort(perm[n2g]))

    pi, n2gi = permute(enc_i, n2g_i)
    pj, n2gj = permute(enc_j, n2g_j)
    shuffled = batch_loss(pi, pj, n2gi, n2gj, TrainConfig()).item()
    assert abs(base - shuffled) < 1e-9


def test_loss_finite_for_large_scores():
    for sign in (-1.0, 1.0):
        nodes = Tensor(np.full((4, 2), sign * 5.0))
        gvec = Tensor(np.full((2, 2), 5.0))
        n2g = np.array([0, 0, 1, 1])
        enc = Encodings(nodes, gvec)
        for est in ("jsd", "nce", "dv"):
            loss = batch_loss(enc, enc, n2g, n2g, TrainConfig(estimator=est))
            assert np.isfinite(loss.item())


def test_gradients_flow_through_loss():
    stream = RngStream(5, "gf")
    nodes_i = Tensor(stream.uniform((6, 4)) - 0.5, requires_grad=True)
    gvec_i = Tensor(stream.uniform((2, 4)) - 0.5, requires_grad=True)
    nodes_j = Tensor(stream.uniform((6, 4)) - 0.5, requires_grad=True)
    gvec_j = Tensor(stream.uniform((2, 4)) - 0.5, requires_grad=True)
    n2g = np.repeat([0, 1], 3)
    loss = batch_loss(Encodings(nodes_i, gvec_i), Encodings(nodes_j, gvec_j),
                      n2g, n2g, TrainConfig())
    loss.backward()
    for t in (nodes_i, gvec_i, nodes_j, gvec_j):
        assert t.grad is not None and np.abs(t.grad).max() > 0


def test_jsd_loss_gradient_on_fixed_four_node_graph():
    # the finite-difference oracle applied to the loss itself, on the path
    # beside a triangle (a graph's negatives are the other graph's nodes)
    from graphaug.encoders import encode, init_encoder_params
    from graphaug.graphs import Graph, batch_graphs
    from graphaug.tensor import finite_diff_grad

    edges = np.array([(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)])
    g = Graph(4, edges, RngStream(8, "j4").uniform((4, 3)), np.ones(6))
    tri = np.array([(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)])
    h = Graph(3, tri, RngStream(8, "j4-tri").uniform((3, 3)), np.ones(6))
    batch = batch_graphs([g, h])
    params = init_encoder_params("gin", [3, 4], seed=77)
    # evaluate at a generic point (zero-init biases sit on ReLU kinks)
    jit = RngStream(9, "j4-jit")
    for name, t in params.items():
        t.data = t.data + 0.05 * (jit.split(name).uniform(t.data.shape) - 0.5)
    name = "layer0/w1"
    shape = params[name].shape

    def loss_fn(flat):
        params[name].data = flat.data.reshape(shape)
        enc = encode(batch, params)
        return batch_loss(enc, enc, batch.node_to_graph, batch.node_to_graph,
                          TrainConfig())

    flat0 = params[name].data.reshape(-1).copy()
    params.zero_grads()
    loss_fn(Tensor(flat0)).backward()
    analytic = params[name].grad.copy()
    fd = finite_diff_grad(loss_fn, Tensor(flat0)).data.reshape(shape)
    params[name].data = flat0.reshape(shape)
    assert rel_err(analytic, fd) <= 1e-3
