from dataclasses import dataclass

import numpy as np
import pytest

from graphaug.encoders import EncoderConfig, Encodings, encode, \
    init_encoder_params, mlp
from graphaug.graphs import Graph, GraphBatch, batch_graphs
from graphaug.heads import (
    HeadOutput, _sample_negatives, apply_augmentation, edge_perturbation_head,
    feature_masking_head, identity_augmentation, init_head_params,
    node_dropping_head, subgraph_head,
)
from graphaug.objective import batch_loss
from graphaug.optim import adam_step, clip_by_global_norm
from graphaug.policy import AugmentationKind, active_kinds, decide, \
    scale_by_policy
from graphaug.rng import RngStream
from graphaug.sampling import gumbel_softmax, gumbel_top_k, relaxed_bernoulli
from graphaug.tensor import Tensor, concat, finite_diff_grad
from graphaug.trainer import GROUPS, TrainConfig, init_state, train_step

from conftest import one_graph, rel_err
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
    return init_head_params(kind, D_H, d_x, seed)


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
    params["mlp/w0"].data = np.zeros_like(params["mlp/w0"].data)
    params["mlp/w0"].data[-1, 0] = 1.0
    params["mlp/b0"].data = np.zeros_like(params["mlp/b0"].data)
    params["mlp/w1"].data = np.zeros_like(params["mlp/w1"].data)
    params["mlp/w1"].data[0, 0] = 200.0
    params["mlp/b1"].data = np.array([-100.0])
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
    w0_shape = params["mlp/w0"].shape

    def loss_fn(w_flat):
        params["mlp/w0"].data = w_flat.data.reshape(w0_shape)
        out = one_graph(edge_perturbation_head, g, h_v, params, 1.0,
                        RngStream(77, "fixed"))
        if out.graph.num_edges == 0:
            return Tensor(0.0)
        return (out.graph.edge_weights ** 2.0).sum()

    flat0 = params["mlp/w0"].data.reshape(-1).copy()
    params["mlp/w0"].grad = None
    loss = loss_fn(Tensor(flat0))
    loss.backward()
    analytic = params["mlp/w0"].grad.copy()
    fd = finite_diff_grad(loss_fn, Tensor(flat0)).data.reshape(w0_shape)
    params["mlp/w0"].data = flat0.reshape(w0_shape)
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
    if out.graph.orig_ids[out.graph.centers[0]] == 0:
        assert out.graph.num_nodes == n       # hub center, one hop = whole star


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
        assert sub.centers is not None
        reach = bfs_reachable(sub.edges.tolist(), sub.num_nodes,
                              sub.centers[0])
        assert reach == set(range(sub.num_nodes))


# -- feature masking ----------------------------------------------------------------

def test_feature_mask_all_ones():
    g = make_graph(10)
    h_v, _ = encodings_for(g, 10)
    params = head_params(AugmentationKind.FEATURE_MASK)
    params["mlp/b1"].data = np.full_like(params["mlp/b1"].data, 200.0)
    out = one_graph(feature_masking_head, g, h_v, params, 1.0,
                    RngStream(9, "fm"))
    lin = g.features.data @ params["lin/w"].data + params["lin/b"].data
    assert np.allclose(out.graph.features.data, lin)
    assert np.array_equal(out.graph.edges, g.edges)
    assert np.all(out.graph.edge_weights.data == 1.0)


def test_feature_mask_all_zeros():
    g = make_graph(11)
    h_v, _ = encodings_for(g, 11)
    params = head_params(AugmentationKind.FEATURE_MASK)
    params["mlp/b1"].data = np.full_like(params["mlp/b1"].data, -200.0)
    out = one_graph(feature_masking_head, g, h_v, params, 1.0,
                    RngStream(10, "fm"))
    assert np.allclose(out.graph.features.data, 0.0)


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
    shape = params["mlp/w1"].shape

    def loss_fn(w_flat):
        params["mlp/w1"].data = w_flat.data.reshape(shape)
        out = one_graph(feature_masking_head, g, h_v, params, 1.0,
                        RngStream(55, "fixed"), mask_mode="soft")
        return (out.graph.features ** 2.0).sum()

    flat0 = params["mlp/w1"].data.reshape(-1).copy()
    loss_fn(Tensor(flat0)).backward()
    analytic = params["mlp/w1"].grad.copy()
    fd = finite_diff_grad(loss_fn, Tensor(flat0)).data.reshape(shape)
    params["mlp/w1"].data = flat0.reshape(shape)
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
    params = {k: init_head_params(k, D_H, 3, 17) for k in AugmentationKind}
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
    from graphaug.objective import ObjectiveConfig, batch_loss
    from graphaug.encoders import Encodings

    graphs = [make_graph(42, n=6, p=0.5), make_graph(43, n=6, p=0.5)]
    cfg = EncoderConfig(input_dim=3, hidden_dim=D_H, num_layers=1)
    enc_params = init_encoder_params(cfg, seed=31)
    head_p = {k: init_head_params(k, D_H, 3, 23) for k in AugmentationKind}
    for kind in (AugmentationKind.NODE_DROP, AugmentationKind.EDGE_PERTURB,
                 AugmentationKind.SUBGRAPH, AugmentationKind.FEATURE_MASK):
        for ps in head_p.values():
            ps.zero_grads()
        views_i, views_j = [], []
        for k, g in enumerate(graphs):
            h_v, h_g = encodings_for(g, 15 + k)
            for view, acc in (("i", views_i), ("j", views_j)):
                out = one_graph(apply_augmentation, 
           kind, g, h_v, h_g, head_p, 0.8, 2, 1.0,
           RngStream(3, f"flow-{kind.value}-{k}{view}"))
                acc.append(out.graph.graph(0))
        bi, bj = batch_graphs(views_i), batch_graphs(views_j)
        enc_i = encode(bi, enc_params, cfg)
        enc_j = encode(bj, enc_params, cfg)
        loss = batch_loss(Encodings(enc_i.node_matrix, enc_i.graph_vector),
                          Encodings(enc_j.node_matrix, enc_j.graph_vector),
                          bi.node_to_graph, bj.node_to_graph,
                          ObjectiveConfig())
        loss.backward()
        got = any(t.grad is not None and np.abs(t.grad).max() > 0
                  for t in head_p[kind].tensors())
        assert got, f"no contrastive-loss gradient reached {kind.value} head"

# -- batched heads vs the per-graph reference ---------------------------------------
#
# The heads below are the per-graph implementations the batched heads replaced,
# kept as the reference: one graph, its slice of the encodings and its stream.
# A batched view must reproduce every hard decision exactly and every soft
# value, and every head-parameter gradient, to within rounding (the batched
# softmax reduces per segment in another order).

TOL = 1e-12


@dataclass
class RefOutput(HeadOutput):
    """A reference head's view as a ``Graph``, with the provenance the
    batched view carries in its batch: the kept nodes' ids in the input
    graph and the local BFS center."""
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


def _ref_node_drop(g, h_v, h_g, params, keep_ratio, stream):
    p = _ref_node_distribution(h_v, h_g, params)
    k = max(1, int(np.ceil(keep_ratio * g.num_nodes)))
    kept = gumbel_top_k(p.data, k, stream)
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


def _ref_sample_negatives(pairs, num_nodes, stream):
    """Up to ``len(pairs)`` new distinct (u < v) non-loop pairs, by rejection
    from two scalar draws per attempt, at most 10 attempts per pair."""
    seen = set(pairs)
    negatives = []
    attempts = 0
    while len(negatives) < len(pairs) and attempts < 10 * len(pairs):
        attempts += 1
        u = int(stream.integers(0, num_nodes))
        v = int(stream.integers(0, num_nodes))
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
    cases = list(_negative_sampling_cases(1000))
    free = 0
    for pairs, n, seed in cases:
        want = _ref_sample_negatives(
            pairs, n, RngStream(seed, "negatives"))
        got = _sample_negatives(np.array(pairs, dtype=np.int64), n,
                                RngStream(seed, "negatives"))
        assert got.dtype == np.int64 and got.shape == (len(want), 2)
        assert got.tolist() == [list(p) for p in want], (pairs, n)
        free += 2 * len(pairs) < n * (n - 1)
    assert any(n == 2 for _, n, _ in cases)
    assert any(2 * len(p) == n * (n - 1) and n > 2 for p, n, _ in cases)
    assert free > len(cases) // 2


def _ref_edge_perturb(g, h_v, params, temperature, stream):
    pairs = []
    seen = set()
    for a, b in g.edges:
        key = (min(int(a), int(b)), max(int(a), int(b)))
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    n_pos = len(pairs)
    negatives = _ref_sample_negatives(pairs, g.num_nodes,
                                      stream.split("negatives"))
    all_pairs = pairs + negatives
    arr = np.array(all_pairs, dtype=np.int64)
    indicator = np.concatenate([np.ones(n_pos), np.zeros(len(negatives))])
    h_e = h_v.gather_rows(arr[:, 0]) + h_v.gather_rows(arr[:, 1])
    z = concat([h_e, Tensor(indicator.reshape(-1, 1))], axis=1)
    logits = mlp(z, params["mlp/w0"], params["mlp/b0"],
                 params["mlp/w1"], params["mlp/b1"]).reshape(len(all_pairs))
    probs = logits.sigmoid()
    keep = relaxed_bernoulli(logits, temperature,
                             stream.split("keep").logistic(logits.shape))
    directed, weight_src = [], []
    for idx in np.flatnonzero(keep.hard > 0.5):
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
    return RefOutput(out, {"edge_probs": probs, "keep_soft": keep.soft})


def _ref_subgraph(g, h_v, h_g, params, hops, stream):
    p = _ref_node_distribution(h_v, h_g, params)
    center = gumbel_softmax(np.log(np.maximum(p.data, 1e-30)),
                            stream.split("center"))
    sub, kept, local_center = khop_bfs_reference(g, center, hops)
    edges_old = kept[sub.edges] if len(sub.edges) else sub.edges
    weights = (_ref_induced_edge_weights(edges_old, p)
               if len(sub.edges) else Tensor(np.zeros(0)))
    out = Graph(sub.num_nodes, sub.edges, sub.features, weights)
    return RefOutput(out, {"node_probs": p}, orig_ids=kept,
                     center=local_center)


def _ref_feature_mask(g, h_v, params, temperature, stream):
    x = Tensor(g.features.data)
    projected = x @ params["lin/w"] + params["lin/b"]
    mask_logits = mlp(h_v, params["mlp/w0"], params["mlp/b0"],
                      params["mlp/w1"], params["mlp/b1"])
    sample = relaxed_bernoulli(
        mask_logits, temperature,
        stream.split("mask").logistic(mask_logits.shape))
    out = Graph(g.num_nodes, g.edges.copy(), projected * sample.st,
                np.ones(g.num_edges))
    return RefOutput(out, {"mask_probs": mask_logits.sigmoid(),
                           "mask_soft": sample.soft})


def _ref_apply(kind, g, h_v, h_g, params, keep_ratio, hops, temperature,
               stream):
    """One graph through the reference heads; an edgeless graph takes the
    identity under edge perturbation."""
    if kind == AugmentationKind.NODE_DROP:
        return _ref_node_drop(g, h_v, h_g, params[kind], keep_ratio, stream)
    if kind == AugmentationKind.EDGE_PERTURB and g.num_edges:
        return _ref_edge_perturb(g, h_v, params[kind], temperature, stream)
    if kind == AugmentationKind.SUBGRAPH:
        return _ref_subgraph(g, h_v, h_g, params[kind], hops, stream)
    if kind == AugmentationKind.FEATURE_MASK:
        return _ref_feature_mask(g, h_v, params[kind], temperature, stream)
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
    params = {k: init_head_params(k, d_h, d_x, seed) for k in AugmentationKind}
    for ps in params.values():          # off the zero-bias ReLU kinks
        for name, t in ps.items():
            t.data = t.data + 0.1 * (RngStream(seed, name).uniform(t.shape)
                                     - 0.5)
    batch = batch_graphs(graphs)
    enc = RngStream(seed, "oracle-enc")
    h_v = Tensor(enc.uniform((batch.num_nodes, d_h)) - 0.5)
    h_g = Tensor(enc.uniform((batch.num_graphs, d_h)) - 0.5)
    root = RngStream(seed, f"oracle-{kind.value}")

    def stream(k):              # a fresh one per side: node drop draws from it
        return root.split(f"g{k}")

    for ps in params.values():
        ps.zero_grads()
    out = apply_augmentation(kind, batch, h_v, h_g, params, 0.6, 2, 0.7,
                             [stream(k) for k in range(len(graphs))])
    views = [out.graph.graph(k) for k in range(len(graphs))]
    _view_scalar(views).backward()
    got_grads = {k: _grads(ps) for k, ps in params.items()}

    for ps in params.values():
        ps.zero_grads()
    refs = []
    for k, (g, n0) in enumerate(zip(graphs, batch.node_offsets)):
        h_vk = Tensor(h_v.data[n0:n0 + g.num_nodes])
        h_gk = Tensor(h_g.data[k])
        refs.append(_ref_apply(kind, g, h_vk, h_gk, params, 0.6, 2, 0.7,
                               stream(k)))
    _view_scalar([r.graph for r in refs]).backward()
    want_grads = {k: _grads(ps) for k, ps in params.items()}

    for k, (view, ref) in enumerate(zip(views, refs)):
        want = ref.graph
        assert view.num_nodes == want.num_nodes
        assert np.array_equal(view.edges, want.edges)
        if ref.center is None:
            assert out.graph.centers is None
        else:
            assert out.graph.centers[k] == ref.center
        if ref.orig_ids is None:
            assert out.graph.orig_ids is None
        else:
            n0 = out.graph.node_offsets[k]
            assert np.array_equal(out.graph.orig_ids[n0:n0 + view.num_nodes],
                                  ref.orig_ids)
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
    for k in params:
        for name in got_grads[k]:
            _close(got_grads[k][name], want_grads[k][name])
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


def _tape_size(view):
    """Tape nodes (with a backward closure) reachable from a view's edge
    weights and features."""
    seen, stack, count = set(), [view.edge_weights, view.features], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        count += t._backprop is not None
        stack.extend(t._parents)
    return count


@pytest.mark.parametrize("kind", list(AugmentationKind))
def test_tape_size_per_view_independent_of_batch_size(kind, mutag_dir):
    d_h = 8
    params = {k: init_head_params(k, d_h, 7, 3) for k in AugmentationKind}
    sizes = []
    for count in (4, 8, 32):
        batch = batch_graphs(mutag_batch_graphs(mutag_dir, count))
        enc = RngStream(count, "tape-enc")
        h_v = Tensor(enc.uniform((batch.num_nodes, d_h)), requires_grad=True)
        h_g = Tensor(enc.uniform((count, d_h)), requires_grad=True)
        streams = [RngStream(count, f"tape-{k}") for k in range(count)]
        out = apply_augmentation(kind, batch, h_v, h_g, params, 0.75, 2, 1.0,
                                 streams)
        sizes.append(_tape_size(out.graph))
    assert sizes[0] == sizes[1] == sizes[2], sizes
    assert (sizes[0] == 0) == (kind == AugmentationKind.IDENTITY)


def _ref_train_step(graphs, state, config):
    """``train_step`` as it ran with the per-graph reference heads."""
    for gname in GROUPS:
        state.group(gname).zero_grads()
    kinds = active_kinds(config.task)
    step_stream = state.sample_root.split(f"step{state.step}")
    batch = batch_graphs(graphs)
    enc_w = encode(batch, state.omega, config.aug_encoder(state.input_dim),
                   stream=step_stream.split("dropout/omega"))
    decision = decide(enc_w.graph_vector, config.policy_kind,
                      step_stream.split("policy"), state.policy, kinds)
    views = {"i": [], "j": []}
    for k, g in enumerate(graphs):
        n0 = int(batch.node_offsets[k])
        h_vk = enc_w.node_matrix.slice_axis(0, n0, n0 + g.num_nodes)
        h_gk = enc_w.graph_vector.slice_axis(0, k, k + 1).reshape(
            enc_w.graph_vector.shape[1])
        for view, kind in (("i", decision.i), ("j", decision.j)):
            views[view].append(_ref_apply(
                kind, g, h_vk, h_gk, state.heads, config.keep_ratio,
                config.hops, config.head_temperature,
                step_stream.split(f"g{k}/{view}")).graph)
    batch_i, batch_j = batch_graphs(views["i"]), batch_graphs(views["j"])
    enc_i = encode(batch_i, state.theta, config.base_encoder(state.input_dim),
                   stream=step_stream.split("dropout/i"))
    enc_j = encode(batch_j, state.theta, config.base_encoder(state.input_dim),
                   stream=step_stream.split("dropout/j"))
    loss = batch_loss(
        Encodings(enc_i.node_matrix,
                  scale_by_policy(enc_i.graph_vector, decision.p_i)),
        Encodings(enc_j.node_matrix,
                  scale_by_policy(enc_j.graph_vector, decision.p_j)),
        batch_i.node_to_graph, batch_j.node_to_graph, config.objective(),
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
