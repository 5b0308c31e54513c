from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pytest

from graphaug.encoders import Encodings, encode, init_encoder_params, mlp
from graphaug.graphs import Graph, GraphBatch, batch_graphs
from graphaug.heads import (
    HeadOutput, _sample_negatives, apply_augmentation, edge_perturbation_head,
    feature_masking_head, identity_augmentation, node_dropping_head,
    subgraph_head,
)
from graphaug.objective import batch_loss
from graphaug.optim import adam_step, clip_by_global_norm
from graphaug.policy import AugmentationKind, active_kinds, decide, \
    scale_by_policy
from graphaug.rng import RngStream
from graphaug.sampling import relaxed_bernoulli
from graphaug.tensor import Tensor, concat, finite_diff_grad
from graphaug.trainer import GROUPS, TrainConfig, init_state, train_step

from conftest import head_names, head_set, one_graph, rel_err
from test_graphs import khop_bfs_reference

D_H = 6


def make_graph(seed, n=6, p=0.5, d_x=3):
    stream = RngStream(seed, "headgraph")
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if stream.uniform() < p:
                edges += [(i, j), (j, i)]
    if not edges:
        edges = [(0, 1), (1, 0)]
    edges = np.array(edges, dtype=np.int64)
    return Graph(n, edges, stream.uniform((n, d_x)), np.ones(len(edges)))


def encodings_for(g, seed=0):
    stream = RngStream(seed, "enc")
    h_v = Tensor(stream.uniform((g.num_nodes, D_H)) - 0.5)
    h_g = Tensor(stream.uniform(D_H) - 0.5)
    return h_v, h_g


def head_params(kind, d_x=3, seed=0):
    return head_set(D_H, d_x, seed, [kind])


def undirected_set(edges):
    return {tuple(sorted(e)) for e in edges.tolist()}


def check_graph_invariants(out: GraphBatch):
    assert out.num_nodes >= 1
    if out.num_edges:
        assert out.edges.min() >= 0 and out.edges.max() < out.num_nodes
    w = out.edge_weights.data
    assert w.shape == (out.num_edges,)
    assert np.isfinite(w).all()


# -- node dropping ---------------------------------------------------------------

def test_node_drop_keep_all():
    g = make_graph(1)
    h_v, h_g = encodings_for(g)
    out = one_graph(node_dropping_head, g, h_v, h_g,
                    head_params(AugmentationKind.NODE_DROP), 1.0,
                    RngStream(0, "nd"))
    assert out.graph.num_nodes == g.num_nodes
    assert undirected_set(out.graph.edges) == undirected_set(g.edges)
    p = out.soft_params["node_probs"].data
    w = out.graph.edge_weights.data
    expect = p[g.edges[:, 0]] + p[g.edges[:, 1]]
    # identical topology: compare per-edge weights through sorting
    assert np.allclose(np.sort(w), np.sort(expect))


def test_node_drop_uniform_probs_weight_formula():
    g = make_graph(2, n=5)
    h_v = Tensor(np.zeros((5, D_H)))
    h_g = Tensor(np.zeros(D_H))
    params = head_params(AugmentationKind.NODE_DROP)
    out = one_graph(node_dropping_head, g, h_v, h_g, params, 1.0,
                    RngStream(1, "nd"))
    # zero encodings -> uniform node distribution -> every weight 2/n
    assert np.allclose(out.graph.edge_weights.data, 2.0 / 5.0)


def test_node_drop_count_on_path():
    edges = np.array([(i, j) for i in range(4) for j in (i + 1,)] +
                     [(j, i) for i in range(4) for j in (i + 1,)])
    g = Graph(5, edges, np.eye(5), np.ones(len(edges)))
    h_v, h_g = encodings_for(g, 3)
    out = one_graph(node_dropping_head, g, h_v, h_g,
                    head_params(AugmentationKind.NODE_DROP, d_x=5),
                    0.6, RngStream(2, "nd"))
    assert out.graph.num_nodes == 3          # ceil(0.6 * 5)
    kept = set(out.graph.orig_ids.tolist())
    for a, b in out.graph.edges:
        oa, ob = out.graph.orig_ids[a], out.graph.orig_ids[b]
        assert (min(oa, ob), max(oa, ob)) in undirected_set(g.edges)
    assert kept <= set(range(5))


def test_node_drop_minimum_one_node():
    g = make_graph(4, n=3)
    h_v, h_g = encodings_for(g, 4)
    out = one_graph(node_dropping_head, g, h_v, h_g,
                    head_params(AugmentationKind.NODE_DROP), 0.01,
                    RngStream(3, "nd"))
    assert out.graph.num_nodes == 1


# -- edge perturbation -------------------------------------------------------------

def test_edge_perturb_extreme_probs():
    g = make_graph(5, n=5, p=0.4)
    h_v, _ = encodings_for(g, 5)
    params = head_params(AugmentationKind.EDGE_PERTURB)
    # force the MLP to produce huge logits for positives, huge negative for
    # negatives via the indicator column (last input dim)
    w0, b0, w1, b1 = params.under("edge_perturb/mlp")
    w0.data = np.zeros_like(w0.data)
    w0.data[-1, 0] = 1.0
    b0.data = np.zeros_like(b0.data)
    w1.data = np.zeros_like(w1.data)
    w1.data[0, 0] = 200.0
    b1.data = np.array([-100.0])
    out = one_graph(edge_perturbation_head, g, h_v, params, 1.0,
                    RngStream(4, "ep"))
    assert undirected_set(out.graph.edges) == undirected_set(g.edges)
    assert np.allclose(out.graph.edge_weights.data, 1.0, atol=1e-20)
    assert out.graph.num_nodes == g.num_nodes


def test_edge_perturb_complete_graph_no_negatives():
    n = 4
    edges = np.array([(i, j) for i in range(n) for j in range(n) if i != j])
    g = Graph(n, edges, np.eye(n), np.ones(len(edges)))
    h_v, _ = encodings_for(g, 6)
    out = one_graph(edge_perturbation_head, g, h_v,
                    head_params(AugmentationKind.EDGE_PERTURB, d_x=n),
                    1.0, RngStream(5, "ep"))
    assert undirected_set(out.graph.edges) <= undirected_set(g.edges)


def test_edge_perturb_keeps_nodes_and_features():
    g = make_graph(7)
    h_v, _ = encodings_for(g, 7)
    out = one_graph(edge_perturbation_head, g, h_v,
                    head_params(AugmentationKind.EDGE_PERTURB),
                    1.0, RngStream(6, "ep"))
    assert out.graph.num_nodes == g.num_nodes
    assert np.array_equal(out.graph.features.data, g.features.data)


def test_edge_perturb_gradient_to_head():
    g = make_graph(8, n=4, p=0.9)
    h_v, _ = encodings_for(g, 8)
    params = head_params(AugmentationKind.EDGE_PERTURB)
    w0 = params["edge_perturb/mlp/w0"]
    w0_shape = w0.shape

    def loss_fn(w_flat):
        w0.data = w_flat.data.reshape(w0_shape)
        out = one_graph(edge_perturbation_head, g, h_v, params, 1.0,
                        RngStream(77, "fixed"))
        if out.graph.num_edges == 0:
            return Tensor(0.0)
        return (out.graph.edge_weights ** 2.0).sum()

    flat0 = w0.data.reshape(-1).copy()
    w0.grad = None
    loss = loss_fn(Tensor(flat0))
    loss.backward()
    analytic = w0.grad.copy()
    fd = finite_diff_grad(loss_fn, Tensor(flat0)).data.reshape(w0_shape)
    w0.data = flat0.reshape(w0_shape)
    assert np.abs(analytic).max() > 0
    assert rel_err(analytic, fd) <= 1e-3


# -- subgraph -----------------------------------------------------------------------

def test_subgraph_whole_graph_when_hops_cover():
    g = make_graph(9, n=5, p=0.9)
    h_v, h_g = encodings_for(g, 9)
    out = one_graph(subgraph_head, g, h_v, h_g,
                    head_params(AugmentationKind.SUBGRAPH), 10,
                    RngStream(7, "sg"))
    assert out.graph.num_nodes == g.num_nodes
    p = out.soft_params["node_probs"].data
    expect = p[g.edges[:, 0]] + p[g.edges[:, 1]]
    assert np.allclose(np.sort(out.graph.edge_weights.data), np.sort(expect))


def test_subgraph_star_hub():
    n = 6
    edges = np.array([(0, i) for i in range(1, n)] + [(i, 0) for i in range(1, n)])
    g = Graph(n, edges, np.eye(n), np.ones(len(edges)))
    h_v = Tensor(np.zeros((n, D_H)))
    h_v.data[0] += 10.0         # nudge the distribution toward the hub
    h_g = Tensor(np.zeros(D_H))
    params = head_params(AugmentationKind.SUBGRAPH, d_x=n)
    out = one_graph(subgraph_head, g, h_v, h_g, params, 1,
                    RngStream(8, "sg"))
    ids = out.graph.orig_ids.tolist()
    # one hop: the whole star around the hub, a leaf and the hub otherwise
    assert ids == list(range(n)) or (len(ids) == 2 and ids[0] == 0)


def bfs_reachable(edges, num_nodes, center, hops=None):
    adj = [[] for _ in range(num_nodes)]
    for a, b in edges:
        adj[a].append(b)
    seen = {center}
    frontier = [center]
    steps = 0
    while frontier and (hops is None or steps < hops):
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
        steps += 1
    return seen


def test_subgraph_connected_and_contains_center():
    for seed in range(25):
        g = make_graph(100 + seed, n=8, p=0.3)
        h_v, h_g = encodings_for(g, seed)
        out = one_graph(subgraph_head, g, h_v, h_g,
                        head_params(AugmentationKind.SUBGRAPH), 2,
                        RngStream(seed, "sg"))
        sub = out.graph
        # some node, the center, reaches every kept node within the hops
        assert any(bfs_reachable(sub.edges.tolist(), sub.num_nodes, c, 2)
                   == set(range(sub.num_nodes)) for c in range(sub.num_nodes))


def test_subgraph_views_of_one_batch_share_its_csr(monkeypatch):
    built = []
    build = GraphBatch.csr.func

    def counting_build(batch):
        built.append(batch)
        return build(batch)

    csr = cached_property(counting_build)
    csr.__set_name__(GraphBatch, "csr")
    monkeypatch.setattr(GraphBatch, "csr", csr)
    batch = batch_graphs([make_graph(30 + k, n=6, p=0.4) for k in range(3)])
    h_v = Tensor(RngStream(31, "sg-csr").uniform((batch.num_nodes, D_H)))
    h_g = Tensor(RngStream(32, "sg-csr").uniform((3, D_H)))
    params = head_params(AugmentationKind.SUBGRAPH)
    for view in ("i", "j"):
        subgraph_head(batch, h_v, h_g, params, 2, RngStream(33, view))
    assert len(built) == 1 and built[0] is batch


# -- feature masking ----------------------------------------------------------------

def test_feature_mask_all_ones():
    g = make_graph(10)
    h_v, _ = encodings_for(g, 10)
    params = head_params(AugmentationKind.FEATURE_MASK)
    b1 = params["feature_mask/mlp/b1"]
    b1.data = np.full_like(b1.data, 200.0)
    out = one_graph(feature_masking_head, g, h_v, params, 1.0,
                    RngStream(9, "fm"))
    w, b = params.under("feature_mask/lin")
    lin = g.features.data @ w.data + b.data
    assert np.allclose(out.graph.features.data, lin)
    assert np.array_equal(out.graph.edges, g.edges)
    assert np.all(out.graph.edge_weights.data == 1.0)


def test_feature_mask_all_zeros():
    g = make_graph(11)
    h_v, _ = encodings_for(g, 11)
    params = head_params(AugmentationKind.FEATURE_MASK)
    b1 = params["feature_mask/mlp/b1"]
    b1.data = np.full_like(b1.data, -200.0)
    out = one_graph(feature_masking_head, g, h_v, params, 1.0,
                    RngStream(10, "fm"))
    assert np.allclose(out.graph.features.data, 0.0)


def test_feature_mask_forward_is_the_hard_mask():
    """The straight-through mask's forward value is the hard draw: each
    projected feature is kept exactly where its soft sample is above 1/2
    and zeroed elsewhere. Forty nodes give about 60 kept entries, where
    ``hard + soft - soft`` would scale about a quarter by 1 - 2^-53."""
    g = make_graph(14, n=40)
    h_v, _ = encodings_for(g, 14)
    params = head_params(AugmentationKind.FEATURE_MASK)
    out = one_graph(feature_masking_head, g, h_v, params, 1.0,
                    RngStream(9, "bst"))
    w, b = params.under("feature_mask/lin")
    lin = g.features.data @ w.data + b.data
    keep = out.soft_params["mask_soft"].data > 0.5
    assert keep.any() and not keep.all()
    assert np.array_equal(out.graph.features.data, np.where(keep, lin, 0.0))


def test_feature_mask_preserves_structure():
    g = make_graph(12)
    h_v, _ = encodings_for(g, 12)
    out = one_graph(feature_masking_head, g, h_v,
                    head_params(AugmentationKind.FEATURE_MASK), 1.0,
                    RngStream(11, "fm"))
    assert np.array_equal(out.graph.edges, g.edges)
    assert out.graph.num_nodes == g.num_nodes


def test_feature_mask_soft_mode_gradient():
    g = make_graph(13, n=4)
    h_v, _ = encodings_for(g, 13)
    params = head_params(AugmentationKind.FEATURE_MASK)
    w1 = params["feature_mask/mlp/w1"]
    shape = w1.shape

    def loss_fn(w_flat):
        w1.data = w_flat.data.reshape(shape)
        out = one_graph(feature_masking_head, g, h_v, params, 1.0,
                        RngStream(55, "fixed"), mask_mode="soft")
        return (out.graph.features ** 2.0).sum()

    flat0 = w1.data.reshape(-1).copy()
    loss_fn(Tensor(flat0)).backward()
    analytic = w1.grad.copy()
    fd = finite_diff_grad(loss_fn, Tensor(flat0)).data.reshape(shape)
    w1.data = flat0.reshape(shape)
    assert np.abs(analytic).max() > 0
    assert rel_err(analytic, fd) <= 1e-3


# -- identity -------------------------------------------------------------------------

def test_identity_unit_weights():
    g = make_graph(14)
    out = one_graph(identity_augmentation, g)
    assert np.array_equal(out.graph.edges, g.edges)
    assert np.all(out.graph.edge_weights.data == 1.0)
    twice = one_graph(identity_augmentation, out.graph)
    assert np.array_equal(twice.graph.features.data,
                          out.graph.features.data)
    assert out.soft_params == {}


# -- randomized invariants across all heads ----------------------------------------

@pytest.mark.parametrize("kind", list(AugmentationKind))
def test_randomized_head_invariants(kind):
    stream = RngStream(999, f"inv-{kind.value}")
    params = head_set(D_H, 3, 17)
    for trial in range(100):
        g = make_graph(3000 + trial, n=3 + trial % 10, p=0.4)
        h_v, h_g = encodings_for(g, trial)
        out = one_graph(apply_augmentation, kind, g, h_v, h_g, params, 0.7,
                        2, 1.0, stream.split(str(trial)))
        check_graph_invariants(out.graph)
        w = out.graph.edge_weights.data
        if kind in (AugmentationKind.NODE_DROP, AugmentationKind.SUBGRAPH):
            if len(w):
                assert np.all(w > 0.0) and np.all(w <= 2.0)
            # induced subgraph property
            kept = out.graph.orig_ids
            kept_set = set(kept.tolist())
            expect = {(a, b) for a, b in map(tuple, g.edges.tolist())
                      if a in kept_set and b in kept_set}
            got = {(int(kept[a]), int(kept[b]))
                   for a, b in out.graph.edges.tolist()}
            assert got == expect
        elif kind == AugmentationKind.EDGE_PERTURB:
            if len(w):
                assert np.all(w > 0.0) and np.all(w < 1.0)
        elif kind == AugmentationKind.FEATURE_MASK:
            assert np.array_equal(out.graph.edges, g.edges)


def test_each_head_gets_contrastive_loss_gradient():
    # end-to-end: head outputs -> base encoder -> two-view loss -> head params
    from graphaug.objective import batch_loss
    from graphaug.encoders import Encodings

    graphs = [make_graph(42, n=6, p=0.5), make_graph(43, n=6, p=0.5)]
    enc_params = init_encoder_params("gin", [3, D_H], seed=31)
    head_p = head_set(D_H, 3, 23)
    for kind in (AugmentationKind.NODE_DROP, AugmentationKind.EDGE_PERTURB,
                 AugmentationKind.SUBGRAPH, AugmentationKind.FEATURE_MASK):
        head_p.zero_grads()
        views_i, views_j = [], []
        for k, g in enumerate(graphs):
            h_v, h_g = encodings_for(g, 15 + k)
            for view, acc in (("i", views_i), ("j", views_j)):
                out = one_graph(apply_augmentation, 
           kind, g, h_v, h_g, head_p, 0.8, 2, 1.0,
           RngStream(3, f"flow-{kind.value}-{k}{view}"))
                acc.append(out.graph.graph(0))
        bi, bj = batch_graphs(views_i), batch_graphs(views_j)
        enc_i = encode(bi, enc_params)
        enc_j = encode(bj, enc_params)
        loss = batch_loss(Encodings(enc_i.node_matrix, enc_i.graph_vector),
                          Encodings(enc_j.node_matrix, enc_j.graph_vector),
                          bi.node_to_graph, bj.node_to_graph,
                          TrainConfig())
        loss.backward()
        grads = [head_p[n].grad for n in head_names(head_p, kind)]
        got = any(gr is not None and np.abs(gr).max() > 0 for gr in grads)
        assert got, f"no contrastive-loss gradient reached {kind.value} head"

# -- batched heads vs the per-graph reference ---------------------------------------
#
# The heads below are the per-graph implementations the batched heads replaced,
# kept as the reference: one graph, its slice of the encodings and its slice
# of the view's draws. ``_view_draws`` makes a view's draws as the batched
# heads lay them out (one numpy draw per view for the whole batch) and cuts
# them per graph; the reference heads decide from their slice alone. A batched
# view must reproduce every hard decision exactly and every soft value, and
# every head-parameter gradient, to within rounding (the batched softmax
# reduces per segment in another order).

TOL = 1e-12


@dataclass
class RefOutput(HeadOutput):
    """A reference head's view as a ``Graph``, with the provenance the
    batched view carries in its batch: the kept nodes' ids in the input
    graph, and the BFS center's id there (the batch has it only among
    those ids)."""
    orig_ids: np.ndarray | None = None
    center: int | None = None


def _ref_node_distribution(h_v, h_g, params):
    n = h_v.shape[0]
    tiled = Tensor(np.ones((n, 1))) @ h_g.reshape(1, h_g.size)
    z = concat([h_v, tiled], axis=1)
    logits = mlp(z, params["mlp/w0"], params["mlp/b0"],
                 params["mlp/w1"], params["mlp/b1"])
    return logits.reshape(n).softmax()


def _ref_induced_edge_weights(edges_old, p):
    return p.gather_rows(edges_old[:, 0]) + p.gather_rows(edges_old[:, 1])


def _ref_node_drop(g, h_v, h_g, params, keep_ratio, gumbel):
    """Gumbel-Top-K on the graph's slice ``gumbel`` of the view's noise."""
    p = _ref_node_distribution(h_v, h_g, params)
    k = max(1, int(np.ceil(keep_ratio * g.num_nodes)))
    with np.errstate(divide="ignore"):
        keys = np.where(p.data > 0,
                        np.log(np.maximum(p.data, 1e-300)) + gumbel, -np.inf)
    kept = np.sort(np.argsort(-keys, kind="stable")[:k])
    remap = np.full(g.num_nodes, -1, dtype=np.int64)
    remap[kept] = np.arange(len(kept))
    if g.num_edges:
        mask = (remap[g.edges[:, 0]] >= 0) & (remap[g.edges[:, 1]] >= 0)
        kept_edges_old = g.edges[mask]
    else:
        kept_edges_old = np.zeros((0, 2), dtype=np.int64)
    weights = (_ref_induced_edge_weights(kept_edges_old, p)
               if len(kept_edges_old) else Tensor(np.zeros(0)))
    feats = g.features.data[kept].copy()
    out = Graph(len(kept), remap[kept_edges_old], feats, weights)
    return RefOutput(out, {"node_probs": p}, orig_ids=kept)


def _ref_pairs(g):
    """The graph's unordered edges (u < v), in first-seen edge order."""
    pairs = []
    seen = set()
    for a, b in g.edges:
        key = (min(int(a), int(b)), max(int(a), int(b)))
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    return pairs


def _ref_sample_negatives(pairs, draws):
    """Up to ``len(pairs)`` new distinct (u < v) non-loop pairs, by rejection
    over the node pairs ``draws``, taken in order (10 per pair)."""
    seen = set(pairs)
    negatives = []
    for u, v in draws:
        if len(negatives) == len(pairs):
            break
        u, v = int(u), int(v)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        negatives.append(key)
    return negatives


def _negative_sampling_cases(count):
    """Seeded (pairs, num_nodes, seed) cases: 2 to 29 nodes, from one pair
    up to complete graphs (no free pair; n = 2 always is one), each pair
    list in a shuffled first-seen order as the head builds it."""
    stream = RngStream(23, "negative-cases")
    for k in range(count):
        s = stream.split(f"case{k}")
        n = 2 + k % 28
        lo, hi = np.triu_indices(n, 1)
        density = (0.05, 0.3, 0.7, 1.0)[k // 28 % 4]
        chosen = np.flatnonzero(s.uniform(len(lo)) < density)
        if not chosen.size:
            chosen = np.array([int(s.integers(0, len(lo)))])
        chosen = chosen[s.permutation(len(chosen))]
        yield [(int(lo[c]), int(hi[c])) for c in chosen], n, k


def test_batched_negatives_match_the_rejection_loop():
    """On a one-graph batch the batched draw keeps every bit of a rejection
    loop that draws two scalars per attempt."""
    cases = list(_negative_sampling_cases(1000))
    free = 0
    for pairs, n, seed in cases:
        s = RngStream(seed, "negatives")
        scalars = ((s.integers(0, n), s.integers(0, n))
                   for _ in range(10 * len(pairs)))
        want = _ref_sample_negatives(pairs, scalars)
        g = Graph(n, np.zeros((0, 2)), np.zeros((n, 1)), np.zeros(0))
        got = _sample_negatives(np.array(pairs, dtype=np.int64), g,
                                RngStream(seed, "negatives"))
        assert got.dtype == np.int64 and got.shape == (len(want), 2)
        assert got.tolist() == [list(p) for p in want], (pairs, n)
        free += 2 * len(pairs) < n * (n - 1)
    assert any(n == 2 for _, n, _ in cases)
    assert any(2 * len(p) == n * (n - 1) and n > 2 for p, n, _ in cases)
    assert free > len(cases) // 2


def test_batched_negatives_are_uniform_over_each_graphs_non_edges():
    """One draw for 8,000 copies of five graphs: every negative is a
    distinct non-loop non-edge of its own graph, a graph with m pairs gets
    at most m, and each graph's non-edges come up equally often (TV to
    uniform within 0.01, as criterion 2 bounds the samplers)."""
    templates = [                        # (nodes, pairs u < v)
        (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        (6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),
        (3, [(0, 1), (1, 2)]),           # one non-edge for m = 2
        (2, []),                         # no pairs, no draws
        (3, [(0, 1), (0, 2), (1, 2)]),   # complete: no non-edge
    ]
    copies = 8_000
    sizes = np.array([n for n, _ in templates])
    m = np.array([len(pairs) for _, pairs in templates])
    block = np.concatenate([np.array(pairs, dtype=np.int64).reshape(-1, 2) + n0
                            for (_, pairs), n0 in
                            zip(templates, np.cumsum(sizes) - sizes)])
    pairs = (block[None] + sizes.sum() * np.arange(copies)[:, None, None]
             ).reshape(-1, 2)
    counts = np.tile(sizes, copies)
    batch = GraphBatch(pairs, np.zeros((counts.sum(), 1)),
                       np.ones(len(pairs)), counts)
    neg = _sample_negatives(pairs, batch, RngStream(7, "uniform-negatives"))

    owner = batch.node_to_graph[neg[:, 0]]
    assert np.array_equal(owner, batch.node_to_graph[neg[:, 1]])
    assert (neg[:, 0] < neg[:, 1]).all()
    keys = neg[:, 0] * batch.num_nodes + neg[:, 1]
    assert len(np.unique(keys)) == len(keys)
    assert not np.isin(keys, pairs[:, 0] * batch.num_nodes + pairs[:, 1]).any()
    per_graph = np.bincount(owner, minlength=batch.num_graphs)
    assert (per_graph <= np.tile(m, copies)).all()
    local = neg - batch.node_offsets[owner, None]
    for t, (n, tpairs) in enumerate(templates):
        lo, hi = np.triu_indices(n, 1)
        non_edges = sorted(set(lo * n + hi) - {u * n + v for u, v in tpairs})
        mine = local[owner % len(templates) == t]
        assert len(mine) >= 0.99 * copies * min(len(tpairs), len(non_edges))
        if not len(mine):
            continue
        freq = np.bincount(mine[:, 0] * n + mine[:, 1],
                           minlength=n * n)[non_edges] / len(mine)
        tv = 0.5 * np.abs(freq - 1.0 / len(non_edges)).sum()
        assert tv <= 0.01, (n, tpairs, tv)


def _ref_edge_perturb(g, h_v, params, temperature, draws):
    """Edge perturbation on the graph's negatives and keep noise, its
    slices of the view's draws."""
    pairs = _ref_pairs(g)
    n_pos = len(pairs)
    negatives, keep_noise = draws
    all_pairs = pairs + negatives
    arr = np.array(all_pairs, dtype=np.int64)
    indicator = np.concatenate([np.ones(n_pos), np.zeros(len(negatives))])
    h_e = h_v.gather_rows(arr[:, 0]) + h_v.gather_rows(arr[:, 1])
    z = concat([h_e, Tensor(indicator.reshape(-1, 1))], axis=1)
    logits = mlp(z, params["mlp/w0"], params["mlp/b0"],
                 params["mlp/w1"], params["mlp/b1"]).reshape(len(all_pairs))
    probs = logits.sigmoid()
    keep_soft = relaxed_bernoulli(logits, temperature, keep_noise)
    directed, weight_src = [], []
    for idx in np.flatnonzero(keep_soft.data > 0.5):
        u, v = all_pairs[idx]
        directed.append((u, v))
        weight_src.append(idx)
        if u != v:
            directed.append((v, u))
            weight_src.append(idx)
    edges = np.array(directed, dtype=np.int64).reshape(-1, 2)
    weights = (probs.gather_rows(np.array(weight_src, dtype=np.int64))
               if weight_src else Tensor(np.zeros(0)))
    out = Graph(g.num_nodes, edges, g.features.data.copy(), weights)
    return RefOutput(out, {"edge_probs": probs, "keep_soft": keep_soft})


def _ref_subgraph(g, h_v, h_g, params, hops, gumbel):
    """The Gumbel-max center on the graph's slice ``gumbel`` of the view's
    noise, then a reference BFS cut."""
    p = _ref_node_distribution(h_v, h_g, params)
    center = int(np.argmax(np.log(np.maximum(p.data, 1e-30)) + gumbel))
    sub, kept = khop_bfs_reference(g, center, hops)
    edges_old = kept[sub.edges] if len(sub.edges) else sub.edges
    weights = (_ref_induced_edge_weights(edges_old, p)
               if len(sub.edges) else Tensor(np.zeros(0)))
    out = Graph(sub.num_nodes, sub.edges, sub.features, weights)
    return RefOutput(out, {"node_probs": p}, orig_ids=kept, center=center)


def _ref_feature_mask(g, h_v, params, temperature, logistic):
    x = Tensor(g.features.data)
    projected = x @ params["lin/w"] + params["lin/b"]
    mask_logits = mlp(h_v, params["mlp/w0"], params["mlp/b0"],
                      params["mlp/w1"], params["mlp/b1"])
    soft = relaxed_bernoulli(mask_logits, temperature, logistic)
    hard = (soft.data > 0.5).astype(float)
    st = Tensor(hard) + (soft - soft.detach())
    out = Graph(g.num_nodes, g.edges.copy(), projected * st,
                np.ones(g.num_edges))
    return RefOutput(out, {"mask_probs": mask_logits.sigmoid(),
                           "mask_soft": soft})


def _view_draws(kind, graphs, stream, d_x):
    """Each graph's slice of the draws one view of head ``kind`` makes from
    ``stream`` on the batch of ``graphs``: one Gumbel (node drop, subgraph)
    or (N, d_x) logistic (feature mask) draw over the batch's nodes, cut by
    graph; for edge perturbation, one ``integers`` call for every graph's 10
    candidate pairs per unordered edge, each below its graph's node count,
    then one logistic draw over all pairs, positives then negatives per
    graph. Edge perturbation gets each graph's negatives, picked from its
    candidates by the rejection loop, and its keep noise."""
    def cut(draw, counts):
        return np.split(draw, np.cumsum(counts)[:-1])

    sizes = [g.num_nodes for g in graphs]
    if kind in (AugmentationKind.NODE_DROP, AugmentationKind.SUBGRAPH):
        return cut(stream.gumbel(sum(sizes)), sizes)
    if kind == AugmentationKind.FEATURE_MASK:
        return cut(stream.logistic((sum(sizes), d_x)), sizes)
    if kind != AugmentationKind.EDGE_PERTURB or not any(
            g.num_edges for g in graphs):
        return [None] * len(graphs)
    positives = [_ref_pairs(g) for g in graphs]
    tries = [10 * len(pairs) for pairs in positives]
    highs = np.repeat(sizes, tries).reshape(-1, 1)
    candidates = stream.split("negatives").integers(0, highs,
                                                    size=(len(highs), 2))
    negatives = [_ref_sample_negatives(pairs, c) for pairs, c
                 in zip(positives, cut(candidates, tries))]
    counts = [len(p) + len(n) for p, n in zip(positives, negatives)]
    keep = cut(stream.split("keep").logistic(sum(counts)), counts)
    return list(zip(negatives, keep))


def _ref_apply(kind, g, h_v, h_g, params, keep_ratio, hops, temperature,
               draws):
    """One graph through the reference heads, on its slice ``draws`` of the
    view's draws; they read head ``kind``'s parameters by their names below
    ``{kind}/``. An edgeless graph takes the identity under edge
    perturbation."""
    params = {n.split("/", 1)[1]: params[n] for n in head_names(params, kind)}
    if kind == AugmentationKind.NODE_DROP:
        return _ref_node_drop(g, h_v, h_g, params, keep_ratio, draws)
    if kind == AugmentationKind.EDGE_PERTURB and g.num_edges:
        return _ref_edge_perturb(g, h_v, params, temperature, draws)
    if kind == AugmentationKind.SUBGRAPH:
        return _ref_subgraph(g, h_v, h_g, params, hops, draws)
    if kind == AugmentationKind.FEATURE_MASK:
        return _ref_feature_mask(g, h_v, params, temperature, draws)
    out = Graph(g.num_nodes, g.edges.copy(), g.features.data.copy(),
                np.ones(g.num_edges))
    return RefOutput(out, {})


def messy_batch_graphs(seed, count=12, d_x=3):
    """Graphs of 1-7 nodes with self-loops, repeated edges and some without
    any edge."""
    stream = RngStream(seed, "messy-batch")
    graphs = []
    for k in range(count):
        n = int(stream.integers(1, 8))
        m = 0 if k % 4 == 1 else int(stream.integers(1, 3 * n + 2))
        edges = stream.integers(0, n, size=(m, 2))
        if m:
            edges = np.concatenate([edges, edges[:1], edges[:, ::-1]])
        graphs.append(Graph(n, edges, stream.uniform((n, d_x)),
                            np.ones(len(edges))))
    return graphs


def mutag_batch_graphs(mutag_dir, count, start=0):
    from graphaug.tudataset import parse_tudataset
    return parse_tudataset(mutag_dir).graphs[start:start + count]


def _view_scalar(graphs):
    """A scalar of the views that depends on every soft output."""
    total = Tensor(0.0)
    for g in graphs:
        if g.num_edges:
            total = total + (g.edge_weights * g.edge_weights).sum()
        total = total + (g.features * g.features).sum()
    return total


def _grads(params):
    return {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
            for name, t in params.items()}


def _close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.all(np.abs(a - b) <= TOL * np.maximum(1.0, np.abs(b))), \
        np.max(np.abs(a - b))


def _check_against_reference(graphs, kind, seed, d_h=5):
    d_x = graphs[0].features.shape[1]
    params = head_set(d_h, d_x, seed)
    for name, t in params.items():      # off the zero-bias ReLU kinks
        t.data = t.data + 0.1 * (RngStream(seed, name.split("/", 1)[1])
                                 .uniform(t.shape) - 0.5)
    batch = batch_graphs(graphs)
    enc = RngStream(seed, "oracle-enc")
    h_v = Tensor(enc.uniform((batch.num_nodes, d_h)) - 0.5)
    h_g = Tensor(enc.uniform((batch.num_graphs, d_h)) - 0.5)

    def stream():               # a fresh one per side
        return RngStream(seed, f"oracle-{kind.value}")

    params.zero_grads()
    out = apply_augmentation(kind, batch, h_v, h_g, params, 0.6, 2, 0.7,
                             stream())
    views = [out.graph.graph(k) for k in range(len(graphs))]
    _view_scalar(views).backward()
    got_grads = _grads(params)

    params.zero_grads()
    draws = _view_draws(kind, graphs, stream(), d_x)
    refs = []
    for k, (g, n0) in enumerate(zip(graphs, batch.node_offsets)):
        h_vk = Tensor(h_v.data[n0:n0 + g.num_nodes])
        h_gk = Tensor(h_g.data[k])
        refs.append(_ref_apply(kind, g, h_vk, h_gk, params, 0.6, 2, 0.7,
                               draws[k]))
    _view_scalar([r.graph for r in refs]).backward()
    want_grads = _grads(params)

    for k, (view, ref) in enumerate(zip(views, refs)):
        want = ref.graph
        assert view.num_nodes == want.num_nodes
        assert np.array_equal(view.edges, want.edges)
        if ref.orig_ids is None:
            assert out.graph.orig_ids is None
        else:
            n0 = out.graph.node_offsets[k]
            ids = out.graph.orig_ids[n0:n0 + view.num_nodes]
            assert np.array_equal(ids, ref.orig_ids)
            assert ref.center is None or ref.center in ids
        _close(view.edge_weights.data, want.edge_weights.data)
        _close(view.features.data, want.features.data)
    for key, soft in out.soft_params.items():
        parts = [r.soft_params[key].data for r in refs if key in r.soft_params]
        _close(soft.data, np.concatenate(parts))
        if key in ("keep_soft", "mask_soft"):      # the hard draws
            assert np.array_equal(soft.data > 0.5,
                                  np.concatenate(parts) > 0.5)
    if not out.soft_params:
        assert all(not r.soft_params for r in refs)
    for name in got_grads:
        _close(got_grads[name], want_grads[name])
    return out


@pytest.mark.parametrize("kind", list(AugmentationKind))
def test_batched_heads_match_reference_on_messy_batches(kind):
    for seed in range(6):
        _check_against_reference(messy_batch_graphs(seed), kind, seed)


@pytest.mark.parametrize("kind", list(AugmentationKind))
def test_batched_heads_match_reference_on_mutag(kind, mutag_dir):
    for start in (0, 32, 150):
        out = _check_against_reference(
            mutag_batch_graphs(mutag_dir, 32, start), kind, start)
        if kind != AugmentationKind.IDENTITY:
            assert out.soft_params


def _tape_nodes(view):
    """The ids of the tape nodes (with a backward closure) reachable from a
    view's edge weights and features."""
    seen, stack, nodes = set(), [view.edge_weights, view.features], set()
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._backprop is not None:
            nodes.add(id(t))
        stack.extend(t._parents)
    return nodes


@pytest.mark.parametrize("kind", list(AugmentationKind))
def test_tape_size_per_view_independent_of_batch_size(kind, mutag_dir):
    d_h = 8
    params = head_set(d_h, 7, 3)
    sizes = []
    for count in (4, 8, 32):
        batch = batch_graphs(mutag_batch_graphs(mutag_dir, count))
        enc = RngStream(count, "tape-enc")
        h_v = Tensor(enc.uniform((batch.num_nodes, d_h)), requires_grad=True)
        h_g = Tensor(enc.uniform((count, d_h)), requires_grad=True)
        out = apply_augmentation(kind, batch, h_v, h_g, params, 0.75, 2, 1.0,
                                 RngStream(count, "tape"))
        sizes.append(len(_tape_nodes(out.graph)))
    assert sizes[0] == sizes[1] == sizes[2], sizes
    assert (sizes[0] == 0) == (kind == AugmentationKind.IDENTITY)


@pytest.mark.parametrize("kind", list(AugmentationKind))
def test_head_records_only_what_its_view_reads(kind, made_tensors):
    """With the encodings and the heads' parameters needing gradients, every
    tape node recorded inside ``apply_augmentation`` is an ancestor of the
    view's edge weights or features: the hard draws and the diagnostics in
    ``soft_params`` that no backward reaches stay off the tape."""
    graphs = messy_batch_graphs(3)
    params = head_set(D_H, graphs[0].features.shape[1], 3)
    batch = batch_graphs(graphs)
    enc = RngStream(3, "recording-enc")
    h_v = Tensor(enc.uniform((batch.num_nodes, D_H)) - 0.5, requires_grad=True)
    h_g = Tensor(enc.uniform((batch.num_graphs, D_H)) - 0.5,
                 requires_grad=True)
    made_tensors.clear()
    out = apply_augmentation(kind, batch, h_v, h_g, params, 0.6, 2, 0.7,
                             RngStream(3, f"recording-{kind.value}"))
    recorded = {id(t) for t in made_tensors if t._backprop is not None}
    unreached = recorded - _tape_nodes(out.graph)
    assert not unreached, f"{len(unreached)} of {len(recorded)} unreached"


def _ref_train_step(graphs, state, config):
    """``train_step`` with the per-graph reference heads, each graph on its
    slice of its view's draws."""
    for gname in GROUPS:
        state.group(gname).zero_grads()
    kinds = active_kinds(config.task)
    step_stream = state.sample_root.split(f"step{state.step}")
    batch = batch_graphs(graphs)
    enc_w = encode(batch, state.omega, step_stream.split("dropout/omega"),
                   config.dropout)
    decision = decide(enc_w.graph_vector, config.policy_kind,
                      step_stream.split("policy"), state.policy, kinds)
    view_kinds = {"i": decision.i, "j": decision.j}
    draws = {view: _view_draws(kind, graphs, step_stream.split(view),
                               batch.features.shape[1])
             for view, kind in view_kinds.items()}
    views = {"i": [], "j": []}
    for k, g in enumerate(graphs):
        n0 = int(batch.node_offsets[k])
        h_vk = enc_w.node_matrix.slice_axis(0, n0, n0 + g.num_nodes)
        h_gk = enc_w.graph_vector.slice_axis(0, k, k + 1).reshape(
            enc_w.graph_vector.shape[1])
        for view, kind in view_kinds.items():
            views[view].append(_ref_apply(
                kind, g, h_vk, h_gk, state.heads, config.keep_ratio,
                config.hops, config.head_temperature, draws[view][k]).graph)
    batch_i, batch_j = batch_graphs(views["i"]), batch_graphs(views["j"])
    enc_i = encode(batch_i, state.theta, step_stream.split("dropout/i"),
                   config.dropout)
    enc_j = encode(batch_j, state.theta, step_stream.split("dropout/j"),
                   config.dropout)
    loss = batch_loss(
        Encodings(enc_i.node_matrix,
                  scale_by_policy(enc_i.graph_vector, decision.p_i)),
        Encodings(enc_j.node_matrix,
                  scale_by_policy(enc_j.graph_vector, decision.p_j)),
        batch_i.node_to_graph, batch_j.node_to_graph, config,
        state.theta)
    loss.backward()
    coin = state.coin_stream.bernoulli(config.alternation_prob)
    update_groups = ["policy", "heads", "theta" if coin else "omega"]
    clip_by_global_norm([t.grad for gname in update_groups
                         for t in state.group(gname).tensors()
                         if t.grad is not None], config.clip_norm)
    for gname in update_groups:
        adam_step(state.group(gname), state.adam[gname],
                  config.learning_rate)
    state.step += 1
    return loss.item(), decision, coin


def test_train_steps_match_per_graph_reference(mutag_dir):
    graphs = mutag_batch_graphs(mutag_dir, 32, 40)
    batch = batch_graphs(graphs)
    seen = set()
    for seed in (1, 2):
        config = TrainConfig(seed=seed, hidden_dim=16)
        state = init_state(config, batch.features.shape[1])
        ref_state = init_state(config, batch.features.shape[1])
        for _ in range(3):
            res = train_step(batch, state, config)
            loss, decision, coin = _ref_train_step(graphs, ref_state, config)
            assert (res.decision.i, res.decision.j, res.coin) == \
                (decision.i, decision.j, coin)
            assert abs(res.loss - loss) <= TOL * max(1.0, abs(loss))
            seen.update((decision.i, decision.j))
    assert len(seen) >= 3, seen
