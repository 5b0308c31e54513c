import numpy as np
import pytest

from graphaug.encoders import (
    EncoderConfig, encode, gcn_layer, gin_layer, init_encoder_params,
    init_mlp, mlp, param_seed,
)
from graphaug.graphs import Graph, batch_graphs
from graphaug.rng import RngStream
from graphaug.tensor import ParameterSet, Tensor, finite_diff_grad, \
    xavier_init

from conftest import rel_err


def identity_mlp(d):
    eye = Tensor(np.eye(d))
    zero = Tensor(np.zeros(d))
    return eye, zero, Tensor(np.eye(d)), Tensor(np.zeros(d))


def two_nodes_one_edge(h0, h1, w=1.0):
    h = Tensor(np.array([h0, h1], dtype=float))
    src = np.array([0, 1])
    dst = np.array([1, 0])
    return h, src, dst, Tensor(np.full(2, w))


# -- dense stacks --------------------------------------------------------------

def test_init_mlp_names_shapes_and_seeds_each_layer():
    params = ParameterSet()
    init_mlp(params, "mlp", [5, 4, 1], seed=3, label="edge")
    assert params.names() == ["mlp/w0", "mlp/b0", "mlp/w1", "mlp/b1"]
    assert [t.shape for t in params.tensors()] == [(5, 4), (4,), (4, 1), (1,)]
    for i, shape in enumerate([(5, 4), (4, 1)]):
        want = xavier_init(shape, param_seed(3, f"edge/w{i}"))
        assert np.array_equal(params[f"mlp/w{i}"].data, want.data)
        assert not params[f"mlp/b{i}"].data.any()
    unlabeled = ParameterSet()
    init_mlp(unlabeled, "pre", [2, 2], seed=3)
    assert np.array_equal(unlabeled["pre/w0"].data,
                          xavier_init((2, 2), param_seed(3, "pre/w0")).data)


def test_mlp_is_affine_layers_with_relu_between():
    stream = RngStream(4, "mlp")
    x = Tensor(stream.uniform((3, 2)) - 0.5)
    w0, b0 = Tensor(stream.uniform((2, 4)) - 0.5), Tensor(stream.uniform(4))
    w1, b1 = Tensor(stream.uniform((4, 2)) - 0.5), Tensor(stream.uniform(2))
    assert np.array_equal(mlp(x, w0, b0).data, x.data @ w0.data + b0.data)
    hidden = np.maximum(x.data @ w0.data + b0.data, 0.0)
    assert np.array_equal(mlp(x, w0, b0, w1, b1).data,
                          hidden @ w1.data + b1.data)


# -- gin layer ---------------------------------------------------------------

def test_gin_isolated_node_identity_mlp():
    h = Tensor(np.array([[1.0, 2.0]]))
    w1, b1, w2, b2 = identity_mlp(2)
    out = gin_layer(h, np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                    Tensor(np.zeros(0)), w1, b1, w2, b2)
    assert np.allclose(out.data, [[1.0, 2.0]])


def test_gin_zero_weight_edge_is_absent():
    h, src, dst, _ = two_nodes_one_edge([1.0, 2.0], [3.0, 4.0])
    w1, b1, w2, b2 = identity_mlp(2)
    out = gin_layer(h, src, dst, Tensor(np.zeros(2)), w1, b1, w2, b2)
    assert np.allclose(out.data, h.data)


def test_gin_sums_neighbor():
    h, src, dst, w = two_nodes_one_edge([1.0, 2.0], [3.0, 4.0])
    w1, b1, w2, b2 = identity_mlp(2)
    out = gin_layer(h, src, dst, w, w1, b1, w2, b2)
    assert np.allclose(out.data[0], [4.0, 6.0])
    assert np.allclose(out.data[1], [4.0, 6.0])


# -- both layers ---------------------------------------------------------------

@pytest.mark.parametrize("kind", ["gin", "gcn"])
def test_edgeless_layer_is_its_per_node_map(kind):
    """No edges: GIN gives mlp(h) and GCN relu(h W + b), exactly, and the
    gradient still reaches the (0,) edge weights."""
    stream = RngStream(11, f"edgeless-{kind}")
    h = Tensor(stream.uniform((4, 3)) - 0.5, requires_grad=True)
    weights = Tensor(np.zeros(0), requires_grad=True)
    none = np.zeros(0, dtype=np.int64)
    params = ParameterSet()
    init_mlp(params, "l", [3, 5, 2] if kind == "gin" else [3, 2], seed=2)
    layer = gin_layer if kind == "gin" else gcn_layer
    out = layer(h, none, none, weights, *params.under("l"))
    want = mlp(h, *params.under("l")).data
    if kind == "gcn":
        want = np.maximum(want, 0.0)
    assert np.array_equal(out.data, want)
    (out * out).sum().backward()
    assert weights.grad.shape == (0,)
    assert h.grad.shape == h.shape


# -- gcn layer ----------------------------------------------------------------

def test_gcn_single_node_is_relu_linear():
    h = Tensor(np.array([[1.0, -2.0]]))
    w = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    b = Tensor(np.zeros(2))
    out = gcn_layer(h, np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                    Tensor(np.zeros(0)), w, b)
    assert np.allclose(out.data, [[1.0, 0.0]])


def test_gcn_zero_weights_reduce_to_per_node():
    h = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    src = np.array([0, 1]); dst = np.array([1, 0])
    w = Tensor(np.eye(2)); b = Tensor(np.zeros(2))
    out = gcn_layer(h, src, dst, Tensor(np.zeros(2)), w, b)
    assert np.allclose(out.data, np.maximum(h.data, 0.0))


def test_gcn_two_nodes_hand_normalization():
    # dense oracle: D = diag(2,2); h'_0 = relu((h_0 + h_1)/2 @ W)
    rng = RngStream(3, "gcn")
    hv = rng.uniform((2, 3))
    W = rng.uniform((3, 3)) - 0.5
    h = Tensor(hv)
    src = np.array([0, 1]); dst = np.array([1, 0])
    out = gcn_layer(h, src, dst, Tensor(np.ones(2)), Tensor(W), Tensor(np.zeros(3)))
    A = np.array([[1.0, 1.0], [1.0, 1.0]])     # A_w + I
    D = np.diag(1.0 / np.sqrt(A.sum(1)))
    expect = np.maximum(D @ A @ D @ hv @ W, 0.0)
    assert np.allclose(out.data, expect)


def test_gcn_dense_oracle_random_graph():
    rng = RngStream(11, "gcn-rand")
    n = 6
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.uniform() < 0.5]
    src = np.array([p for e in pairs for p in (e[0], e[1])], dtype=int)
    dst = np.array([p for e in pairs for p in (e[1], e[0])], dtype=int)
    wts = np.repeat(rng.uniform(len(pairs)) + 0.5, 2)
    hv = rng.uniform((n, 4))
    W = rng.uniform((4, 5)) - 0.5
    out = gcn_layer(Tensor(hv), src, dst, Tensor(wts), Tensor(W), Tensor(np.zeros(5)))
    A = np.eye(n)
    for (a, b), w in zip(np.stack([src, dst], 1), wts):
        A[b, a] += w
    D = np.diag(1.0 / np.sqrt(A.sum(1)))
    expect = np.maximum(D @ A @ D @ hv @ W, 0.0)
    assert np.allclose(out.data, expect)


# -- encode -------------------------------------------------------------------

def toy_graph(seed, n=4, d=3):
    rng = RngStream(seed, "toy")
    edges = []
    for i in range(n - 1):
        edges += [(i, i + 1), (i + 1, i)]
    return Graph(n, np.array(edges), rng.uniform((n, d)), np.ones(2 * (n - 1)))


def test_identical_graphs_identical_vectors():
    g = toy_graph(0)
    cfg = EncoderConfig(input_dim=3, hidden_dim=8, num_layers=2)
    params = init_encoder_params(cfg, seed=5)
    enc = encode(batch_graphs([g, g]), params, cfg)
    assert np.allclose(enc.graph_vector.data[0], enc.graph_vector.data[1])


def test_zero_features_zero_bias_gives_zero():
    g = Graph(1, np.zeros((0, 2), dtype=int), np.zeros((1, 3)), np.zeros(0))
    cfg = EncoderConfig(input_dim=3, hidden_dim=4, num_layers=1)
    params = init_encoder_params(cfg, seed=1)
    enc = encode(batch_graphs([g]), params, cfg)
    assert np.allclose(enc.node_matrix.data, 0.0)
    assert np.allclose(enc.graph_vector.data, 0.0)


def test_readout_equals_recomputed_column_sums():
    g = toy_graph(7)
    cfg = EncoderConfig(input_dim=3, hidden_dim=6, num_layers=2)
    params = init_encoder_params(cfg, seed=9)
    batch = batch_graphs([g])
    # recompute the pre-projection node matrix independently
    from graphaug.encoders import gin_layer as gl
    h = Tensor(g.features.data)
    edges = batch.edges
    for layer in range(2):
        base = f"layer{layer}"
        h = gl(h, edges[:, 0], edges[:, 1], Tensor(np.ones(len(edges))),
               params[f"{base}/w1"], params[f"{base}/b1"],
               params[f"{base}/w2"], params[f"{base}/b2"])
    pooled = h.data.sum(axis=0, keepdims=True)
    expect = mlp(Tensor(pooled), *[params[f"proj_graph/{k}{i}"]
                                    for i in range(3) for k in "wb"]).data
    enc = encode(batch, params, cfg)
    assert np.allclose(enc.graph_vector.data, expect)


def test_node_permutation_equivariance():
    g = toy_graph(13, n=5)
    perm = RngStream(4, "perm").permutation(5)
    inv = np.argsort(perm)
    g_perm = Graph(5, np.stack([inv[g.edges[:, 0]], inv[g.edges[:, 1]]], axis=1),
                   g.features.data[perm], g.edge_weights.data)
    cfg = EncoderConfig(input_dim=3, hidden_dim=8, num_layers=2)
    params = init_encoder_params(cfg, seed=21)
    enc = encode(batch_graphs([g]), params, cfg)
    enc_p = encode(batch_graphs([g_perm]), params, cfg)
    assert np.allclose(enc_p.node_matrix.data, enc.node_matrix.data[perm])
    assert np.allclose(enc_p.graph_vector.data, enc.graph_vector.data, atol=1e-9)


def test_unit_weights_match_unweighted():
    # all-ones weights reproduce a layer written without the weight channel
    g = toy_graph(2)
    cfg = EncoderConfig(input_dim=3, hidden_dim=4, num_layers=1)
    params = init_encoder_params(cfg, seed=3)
    batch = batch_graphs([g])
    edges = batch.edges
    h = Tensor(g.features.data)
    manual = h.data.copy()
    agg = np.zeros_like(manual)
    for a, b in edges:
        agg[b] += manual[a]
    z = manual + agg
    expect = (np.maximum(z @ params["layer0/w1"].data + params["layer0/b1"].data, 0)
              @ params["layer0/w2"].data + params["layer0/b2"].data)
    from graphaug.encoders import gin_layer as gl
    out = gl(h, edges[:, 0], edges[:, 1], Tensor(np.ones(len(edges))),
             params["layer0/w1"], params["layer0/b1"],
             params["layer0/w2"], params["layer0/b2"])
    assert np.allclose(out.data, expect)


def test_gradient_through_edge_weights():
    g = toy_graph(5)
    cfg = EncoderConfig(input_dim=3, hidden_dim=4, num_layers=2)
    params = init_encoder_params(cfg, seed=17)
    batch = batch_graphs([g])
    edges = batch.edges
    w0 = np.full(len(edges), 0.8)

    def loss_fn(wt):
        g2 = Graph(g.num_nodes, g.edges, g.features.data, wt)
        enc = encode(batch_graphs([g2]), params, cfg)
        return (enc.graph_vector * enc.graph_vector).sum()

    wt = Tensor(w0, requires_grad=True)
    loss_fn(wt).backward()
    fd = finite_diff_grad(loss_fn, Tensor(w0)).data
    assert rel_err(wt.grad, fd) <= 1e-3
    assert np.abs(wt.grad).max() > 0


def test_gcn_gradient_through_edge_weights():
    g = toy_graph(6)
    cfg = EncoderConfig(input_dim=3, hidden_dim=4, num_layers=2, layer_kind="gcn",
                        readout="mean")
    params = init_encoder_params(cfg, seed=19)
    edges = batch_graphs([g]).edges
    w0 = np.full(len(edges), 1.2)

    def loss_fn(wt):
        g2 = Graph(g.num_nodes, g.edges, g.features.data, wt)
        enc = encode(batch_graphs([g2]), params, cfg)
        return enc.graph_vector.sum()

    wt = Tensor(w0, requires_grad=True)
    loss_fn(wt).backward()
    fd = finite_diff_grad(loss_fn, Tensor(w0)).data
    assert rel_err(wt.grad, fd) <= 1e-3


def test_dropout_training_only():
    g = toy_graph(1)
    cfg = EncoderConfig(input_dim=3, hidden_dim=8, num_layers=3, dropout=0.5)
    params = init_encoder_params(cfg, seed=2)
    batch = batch_graphs([g])
    e1 = encode(batch, params, cfg)                         # inference path
    e2 = encode(batch, params, cfg)
    assert np.array_equal(e1.graph_vector.data, e2.graph_vector.data)
    t1 = encode(batch, params, cfg, stream=RngStream(0, "d"))   # dropout
    t2 = encode(batch, params, cfg, stream=RngStream(1, "d"))
    assert not np.allclose(t1.graph_vector.data, t2.graph_vector.data)
