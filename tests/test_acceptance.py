"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from graphaug import trainer
from graphaug.encoders import Encodings, gin_layer
from graphaug.evaluation import embed_dataset, linear_probe_graph, \
    linear_probe_node
from graphaug.graphs import Graph, batch_graphs
from graphaug.heads import apply_augmentation
from graphaug.objective import batch_loss, estimate_mi, \
    init_discriminator_params, pairwise_scores
from graphaug.policy import AugmentationKind, active_kinds, gru_policy, \
    init_policy_params, policy_distribution
from graphaug.rng import RngStream
from graphaug.sampling import gumbel_softmax, gumbel_top_k
from graphaug.tensor import ParameterSet, Tensor
from graphaug.trainer import TrainConfig, init_state, step_loss, train, \
    train_step
from graphaug.tudataset import dataset_stats, parse_tudataset

from conftest import head_names, head_set, one_graph, rel_err
from test_objective import naive_loss
from test_cli import write_synthetic_tudataset
from planted_partition import planted_partition


def report(criterion: int, message: str):
    print(f"[criterion {criterion:2d}] PASS: {message}")


def rand_graph(seed, n, p=0.5, d_x=3):
    stream = RngStream(seed, "acc-graph")
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if stream.uniform() < p:
                edges += [(i, j), (j, i)]
    if not edges:
        edges = [(0, 1), (1, 0)]
    return Graph(n, np.array(edges), stream.uniform((n, d_x)),
                 np.ones(len(edges)))


# ---------------------------------------------------------------------------
# Criterion 1: gradient oracle (eps 1e-5, frozen noise, rel err <= 1e-3)
# ---------------------------------------------------------------------------

EPS = 1e-5
TOL = 1e-3


def _grad_check_params(loss_fn, params: ParameterSet, names=None) -> float:
    """backward() vs central differences over the named parameters."""
    names = names or params.names()
    params.zero_grads()
    loss_fn().backward()
    worst = 0.0
    for name in names:
        t = params[name]
        analytic = (t.grad if t.grad is not None
                    else np.zeros_like(t.data)).copy()
        base = t.data.copy()
        numeric = np.zeros_like(base)
        flat = numeric.reshape(-1)
        base_flat = base.reshape(-1)
        for k in range(base.size):
            orig = base_flat[k]
            base_flat[k] = orig + EPS
            t.data = base_flat.reshape(base.shape).copy()
            hi = loss_fn().item()
            base_flat[k] = orig - EPS
            t.data = base_flat.reshape(base.shape).copy()
            lo = loss_fn().item()
            base_flat[k] = orig
            flat[k] = (hi - lo) / (2.0 * EPS)
        t.data = base
        worst = max(worst, rel_err(analytic, numeric))
    assert worst <= TOL, f"gradient mismatch on {names}: {worst:.2e}"
    return worst


def test_criterion_1_gradient_oracle():
    start = time.time()
    d_h, d_x = 4, 3

    # (a) edge-weighted GIN layer: d(loss)/d(W_E) and d(loss)/d(MLP)
    g = rand_graph(1, 5, d_x=d_x)
    edges = g.edges
    mlp = ParameterSet()
    mlp.add("w1", Tensor(RngStream(2, "a").uniform((d_x, d_h)) - 0.5))
    mlp.add("b1", Tensor(np.zeros(d_h)))
    mlp.add("w2", Tensor(RngStream(3, "a").uniform((d_h, d_h)) - 0.5))
    mlp.add("b2", Tensor(np.zeros(d_h)))
    w_e = mlp.add("w_e", Tensor(np.full(len(edges), 0.9)))

    def gin_loss():
        out = gin_layer(Tensor(g.features.data), edges[:, 0],
                        edges[:, 1], w_e, mlp["w1"], mlp["b1"],
                        mlp["w2"], mlp["b2"])
        return (out * out).sum()

    _grad_check_params(gin_loss, mlp)

    # (b) each head's soft path: the edge weights of the three structural
    # heads; the feature mask's view for its projection, which the hard
    # mask does not move with, and its relaxed sample for its mask MLP
    head_params = head_set(d_h, d_x, 5)
    h_v = Tensor(RngStream(6, "b").uniform((g.num_nodes, d_h)) - 0.5)
    h_g = Tensor(RngStream(7, "b").uniform(d_h) - 0.5)

    def head_loss(kind, read=lambda out: out.graph.edge_weights):
        def fn():
            out = one_graph(apply_augmentation, kind, g, h_v, h_g,
                            head_params, 0.7, 2, 1.0,
                            RngStream(17, f"b-{kind.value}"))
            w = read(out)
            return (w * w).sum()
        return fn

    for kind in (AugmentationKind.NODE_DROP, AugmentationKind.EDGE_PERTURB,
                 AugmentationKind.SUBGRAPH):
        _grad_check_params(head_loss(kind), head_params,
                           head_names(head_params, kind))
    mask = AugmentationKind.FEATURE_MASK
    lin = ["feature_mask/lin/w", "feature_mask/lin/b"]
    _grad_check_params(head_loss(mask, lambda out: out.graph.features),
                       head_params, lin)
    _grad_check_params(
        head_loss(mask, lambda out: out.soft_params["mask_soft"]),
        head_params, sorted(set(head_names(head_params, mask)) - set(lin)))

    # (c) each discriminator
    nodes0 = RngStream(8, "c").uniform((4, d_h)) - 0.5
    gvecs0 = RngStream(9, "c").uniform((2, d_h)) - 0.5
    for kind in ("dot", "cosine", "bilinear", "mlp"):
        disc = init_discriminator_params(kind, d_h, 11)
        inputs = ParameterSet()
        nodes = inputs.add("nodes", Tensor(nodes0.copy()))
        gvecs = inputs.add("gvecs", Tensor(gvecs0.copy()))
        for name, t in disc.items():
            inputs.add(name, t)

        def disc_loss():
            s = pairwise_scores(nodes, gvecs, kind, disc)
            return (s * s).sum()

        _grad_check_params(disc_loss, inputs)

    # (d) each MI estimator
    pos0 = RngStream(12, "d").uniform(3) - 0.5
    neg0 = RngStream(13, "d").uniform((3, 2)) - 0.5
    for est in ("jsd", "nce", "nt_xent", "dv"):
        ps = ParameterSet()
        pos = ps.add("pos", Tensor(pos0.copy()))
        neg = ps.add("neg", Tensor(neg0.copy()))
        cfg = TrainConfig(estimator=est, nt_xent_temperature=0.5)

        def mi_loss():
            return estimate_mi(pos, neg, cfg)

        _grad_check_params(mi_loss, ps)

    # (e) the trainer's own forward on a 3-graph batch, all parameter groups
    config = TrainConfig(hidden_dim=d_h, num_layers=1, batch_size=3,
                         policy_kind="gru", seed=5, dropout=0.0,
                         keep_ratio=0.7, hops=2, head_temperature=1.0)
    graphs = [rand_graph(20 + k, 5 + k, d_x=d_x) for k in range(3)]
    batch = batch_graphs(graphs)
    state = init_state(config, d_x)
    # jitter every parameter so no ReLU pre-activation sits exactly on its
    # kink (zero-init biases put half the projection rows there, where a
    # finite difference is one-sided and meaningless)
    jitter = RngStream(404, "e-jitter")
    for gname in ("omega", "policy", "heads", "theta"):
        for name, t in state.group(gname).items():
            t.data = t.data + 0.05 * (jitter.split(f"{gname}/{name}")
                                      .uniform(t.data.shape) - 0.5)

    def full_loss():
        return step_loss(batch, state, config, RngStream(101, "e-step"))[0]

    # the chosen seeds must sample two forward-sensitive heads (the hard
    # feature mask is gradient-only by construction); verify, then check
    _, dec, _ = step_loss(batch, state, config, RngStream(101, "e-step"))
    assert AugmentationKind.FEATURE_MASK not in (dec.i, dec.j), \
        "pick a seed whose sampled pair avoids the hard feature mask"

    worst = 0.0
    for gname in ("omega", "policy", "heads", "theta"):
        worst = max(worst, _grad_check_params(full_loss, state.group(gname)))

    elapsed = time.time() - start
    assert elapsed < 60.0, f"gradient oracle took {elapsed:.1f}s"
    report(1, f"all gradient oracles within {TOL} "
              f"(worst {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 2: sampling oracles (TV <= 0.01 at 1e5 draws)
# ---------------------------------------------------------------------------

def test_criterion_2_sampling_oracles():
    draws = 100_000
    logits = np.array([0.8, -0.4, 0.1, -1.0, 0.5, 0.0, -0.2, 1.2])
    expect = np.exp(logits - logits.max())
    expect /= expect.sum()
    # one call over ``draws`` copies, a segment each
    starts = np.arange(draws) * len(logits)
    picks = gumbel_softmax(np.tile(expect, draws), starts,
                           RngStream(42, "acc-cat")) - starts
    counts = np.bincount(picks, minlength=len(logits))
    tv_cat = 0.5 * np.abs(counts / draws - expect).sum()
    assert tv_cat <= 0.01, f"categorical TV {tv_cat:.4f}"

    probs = np.array([0.4, 0.3, 0.2, 0.1])
    norm = probs / probs.sum()
    exact = {}
    for perm in itertools.permutations(range(4), 2):
        p = norm[perm[0]] * norm[perm[1]] / (1.0 - norm[perm[0]])
        key = tuple(sorted(perm))
        exact[key] = exact.get(key, 0.0) + p
    starts = np.arange(draws) * len(probs)
    idx = (gumbel_top_k(np.tile(probs, draws), 2, starts,
                        RngStream(43, "acc-topk")) % len(probs)).reshape(-1, 2)
    keys, counts = np.unique(idx, axis=0, return_counts=True)
    got = {tuple(k): c for k, c in zip(keys.tolist(), counts.tolist())}
    tv_topk = 0.5 * sum(abs(got.get(k, 0) / draws - v) for k, v in exact.items())
    assert tv_topk <= 0.01, f"top-k TV {tv_topk:.4f}"
    report(2, f"categorical TV {tv_cat:.4f}, top-k TV {tv_topk:.4f} "
              f"at {draws} draws")


# ---------------------------------------------------------------------------
# Criterion 3: parser golden values
# ---------------------------------------------------------------------------

def test_criterion_3_parser_golden(mutag_dir):
    stats = dataset_stats(parse_tudataset(mutag_dir))
    assert stats["graphs"] == 188
    assert stats["classes"] == 2
    assert stats["feature_dim"] == 7
    assert abs(stats["mean_nodes"] - 17.93) <= 0.01
    assert abs(stats["mean_edges_undirected"] - 19.79) <= 0.01
    report(3, f"MUTAG: 188 graphs, 2 classes, d_x=7, "
              f"|V|={stats['mean_nodes']:.2f}, "
              f"|E|={stats['mean_edges_undirected']:.2f}")


# ---------------------------------------------------------------------------
# Criterion 4: augmentation invariants, 1e3 randomized applications per head
# ---------------------------------------------------------------------------

def test_criterion_4_augmentation_invariants():
    d_h, d_x = 6, 3
    params = head_set(d_h, d_x, 7)
    checks = 0
    for kind in AugmentationKind:
        stream = RngStream(4000, f"acc-{kind.value}")
        for trial in range(1000):
            n = 3 + trial % 10                       # up to 12 nodes
            g = rand_graph(5000 + trial, n, p=0.4, d_x=d_x)
            h_v = Tensor(stream.split(f"hv{trial}").uniform((n, d_h)) - 0.5)
            h_g = Tensor(stream.split(f"hg{trial}").uniform(d_h) - 0.5)
            out = one_graph(apply_augmentation, kind, g, h_v, h_g, params,
                            0.7, 2, 1.0, stream.split(str(trial)))
            aug = out.graph
            w = aug.edge_weights.data
            assert aug.num_nodes >= 1
            if aug.num_edges:
                assert aug.edges.min() >= 0 and aug.edges.max() < aug.num_nodes
            assert w.shape == (aug.num_edges,) and np.isfinite(w).all()
            if kind in (AugmentationKind.NODE_DROP, AugmentationKind.SUBGRAPH):
                kept = aug.orig_ids
                kept_set = set(kept.tolist())
                expect_edges = {(a, b) for a, b in map(tuple, g.edges.tolist())
                                if a in kept_set and b in kept_set}
                got_edges = {(int(kept[a]), int(kept[b]))
                             for a, b in aug.edges.tolist()}
                assert got_edges == expect_edges, "not an induced subgraph"
                p = out.soft_params["node_probs"].data
                expect_w = p[kept[aug.edges[:, 0]]] + p[kept[aug.edges[:, 1]]]
                assert np.array_equal(np.sort(w), np.sort(expect_w))
                assert np.all(w > 0) and np.all(w <= 2.0)
            elif kind == AugmentationKind.EDGE_PERTURB:
                if len(w):
                    assert np.all(w > 0) and np.all(w < 1.0)
                assert aug.num_nodes == g.num_nodes
            elif kind == AugmentationKind.FEATURE_MASK:
                assert np.array_equal(aug.edges, g.edges)
                assert np.all(aug.edge_weights.data == 1.0)
            else:
                assert np.array_equal(aug.edges, g.edges)
                assert np.all(aug.edge_weights.data == 1.0)
            checks += 1
    report(4, f"{checks} randomized head applications, zero violations")


# ---------------------------------------------------------------------------
# Criteria 5 and 6: MUTAG training sanity, then the probe floor
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mutag_training(mutag_dir):
    dataset = parse_tudataset(mutag_dir)
    config = TrainConfig(epochs=20, batch_size=32, learning_rate=1e-3,
                         hidden_dim=32, num_layers=2, policy_kind="gru",
                         estimator="jsd", discriminator="dot", seed=0)
    start = time.time()
    state, metrics, _ = train(dataset, config)
    elapsed = time.time() - start
    return dataset, config, state, metrics, elapsed


def test_criterion_5_training_sanity(mutag_training):
    _, _, _, metrics, elapsed = mutag_training
    assert all(np.isfinite(m["loss"]) for m in metrics), "NaN loss"
    by_epoch = {}
    for m in metrics:
        by_epoch.setdefault(m["epoch"], []).append(m["loss"])
    first = float(np.mean(by_epoch[0]))
    last = float(np.mean(by_epoch[max(by_epoch)]))
    assert last <= 0.8 * first, f"loss {first:.3f} -> {last:.3f}"
    assert elapsed < 600.0, f"training took {elapsed:.0f}s"
    report(5, f"MUTAG loss {first:.3f} -> {last:.3f} "
              f"(ratio {last / first:.2f}) in {elapsed:.0f}s")


def test_criterion_6_probe_floor(mutag_training):
    dataset, config, state, _, _ = mutag_training
    table = embed_dataset(dataset, state, config)
    assert table.vectors.shape == (188, config.hidden_dim)
    result = linear_probe_graph(table, folds=10, runs=1, seed=0)
    assert result.mean >= 0.75, f"probe accuracy {result.mean:.4f}"
    report(6, f"MUTAG 10-fold probe accuracy {result.mean:.4f} "
              f"(floor 0.75, majority 0.665)")


# ---------------------------------------------------------------------------
# Beside criteria 5 and 6: training teaches the encoder something
# ---------------------------------------------------------------------------

# From 48 runs of this check's recipe before it was added (seeds 0-23, GRU
# and random policy; CHANGES.md lists them): trained minus untrained probe
# accuracy ran from -0.136 to +0.159, and the loss drop from +0.020 to
# +0.396. The probe gap alone does not show learning: training on the
# negated gradient raised it as much. The loss drop does: with a zero
# learning rate it stayed within 0.007 of 0.
PROBE_GAP_MARGIN = -0.20
LOSS_DROP_MARGIN = 0.01
LOSS_WINDOW = 15                 # steps averaged at each end of the epoch


def _node_config(policy, seed):
    return TrainConfig(task="node", policy_kind=policy, epochs=1,
                       hidden_dim=32, num_layers=2, node_batch_subgraphs=8,
                       hops=2, seed=seed)


@pytest.fixture(scope="module")
def untrained_node_probe():
    """Per seed: the node probe of the encoder before training (the base
    encoder's initial parameters do not depend on the policy)."""
    cache = {}

    def probe(seed):
        if seed not in cache:
            dataset, config = planted_partition(seed), _node_config("gru", seed)
            state = init_state(config, dataset.feature_dim)
            table = embed_dataset(dataset, state, config)
            cache[seed] = linear_probe_node(table, runs=5, seed=seed).mean
        return cache[seed]
    return probe


@pytest.mark.filterwarnings("error::RuntimeWarning")   # e.g. exp overflow
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("policy", ["gru", "random"])
def test_node_training_teaches_the_encoder(policy, seed, untrained_node_probe):
    dataset, config = planted_partition(seed), _node_config(policy, seed)
    start = time.time()
    state, metrics, _ = train(dataset, config)
    table = embed_dataset(dataset, state, config)
    trained = linear_probe_node(table, runs=5, seed=seed).mean
    elapsed = time.time() - start
    gap = trained - untrained_node_probe(seed)
    first, last = loss_ends(metrics)
    assert gap >= PROBE_GAP_MARGIN, f"probe gap {gap:+.4f}"
    assert first - last >= LOSS_DROP_MARGIN, f"loss {first:.4f} -> {last:.4f}"
    print(f"[criterion 5+] PASS: node task, {policy} seed {seed}: probe "
          f"{trained:.4f}, {gap:+.4f} on untrained (margin "
          f"{PROBE_GAP_MARGIN}); loss {first:.3f} -> {last:.3f} over "
          f"{len(metrics)} steps (drop margin {LOSS_DROP_MARGIN}) in "
          f"{elapsed:.1f}s")


def loss_ends(metrics):
    """The mean loss of the first and of the last LOSS_WINDOW steps."""
    losses = np.array([m["loss"] for m in metrics])
    return losses[:LOSS_WINDOW].mean(), losses[-LOSS_WINDOW:].mean()


def zero_learning_rate(config, monkeypatch):
    return replace(config, learning_rate=0.0)


def negated_gradient(config, monkeypatch):
    clip = trainer.clip_by_global_norm

    def ascend(grads, max_norm):
        for g in grads:
            g *= -1.0
        return clip(grads, max_norm)
    monkeypatch.setattr(trainer, "clip_by_global_norm", ascend)
    return config


@pytest.mark.parametrize("fault", [zero_learning_rate, negated_gradient],
                         ids=["learning-rate-0", "negated-gradient"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("policy", ["gru", "random"])
def test_loss_drop_check_fails_on_planted_learning_faults(policy, seed, fault,
                                                          monkeypatch):
    """A register of learning faults: on the node task, the loss-drop
    check of test_node_training_teaches_the_encoder fails when the encoder
    does not learn."""
    dataset = planted_partition(seed)
    config = fault(_node_config(policy, seed), monkeypatch)
    _, metrics, _ = train(dataset, config)
    first, last = loss_ends(metrics)
    assert first - last < LOSS_DROP_MARGIN, f"loss {first:.4f} -> {last:.4f}"
    print(f"[criterion 5+] PASS: {fault.__name__} fails the loss-drop check "
          f"({policy} seed {seed}): loss {first:.3f} -> {last:.3f}")


def test_mutag_last_epoch_loss_against_chance(mutag_training):
    """Printed, not asserted: with augmented views, MUTAG training stalls
    at the JSD estimator's chance value 2 ln 2."""
    _, _, _, metrics, _ = mutag_training
    last_epoch = max(m["epoch"] for m in metrics)
    last = float(np.mean([m["loss"] for m in metrics
                          if m["epoch"] == last_epoch]))
    print(f"[criterion 5+] INFO: MUTAG last-epoch loss {last:.4f}, "
          f"{2.0 * math.log(2.0) - last:.3f} below 2 ln 2 (not asserted)")


# ---------------------------------------------------------------------------
# Criterion 7: policy behavior
# ---------------------------------------------------------------------------

def test_criterion_7_policy_behavior():
    d_h = 8
    x = Tensor(RngStream(70, "acc-pol").uniform((6, d_h)) - 0.5)
    perm = RngStream(71, "acc-pol").permutation(6)

    uniform = policy_distribution(x, init_policy_params("random", d_h, 5, 0),
                                  5)
    assert np.array_equal(uniform.data, np.full(5, 0.2))

    gru_p = init_policy_params("gru", d_h, 5, 1)
    assert np.array_equal(gru_policy(x, gru_p).data,
                          gru_policy(x.gather_rows(perm), gru_p).data)

    node_kinds = active_kinds("node")
    assert len(node_kinds) == 4
    assert AugmentationKind.SUBGRAPH not in node_kinds
    report(7, "random exact-uniform; GRU exact permutation-invariant; "
              "node task has 4 kinds")


# ---------------------------------------------------------------------------
# Criterion 8: encoder alternation over 1e3 steps
# ---------------------------------------------------------------------------

def test_criterion_8_alternation_contract():
    graphs = [rand_graph(800 + k, 4 + k % 3, d_x=3) for k in range(4)]
    batch = batch_graphs(graphs)
    config = TrainConfig(epochs=1, batch_size=4, hidden_dim=6, num_layers=1,
                         policy_kind="random", seed=88, alternation_prob=0.5)
    state = init_state(config, 3)
    counts = {True: 0, False: 0}
    for _ in range(1000):
        theta_before = {k: v.data.copy() for k, v in state.theta.items()}
        omega_before = {k: v.data.copy() for k, v in state.omega.items()}
        res = train_step(batch, state, config)
        counts[res.coin] += 1
        frozen = omega_before if res.coin else theta_before
        frozen_group = state.omega if res.coin else state.theta
        for name, before in frozen.items():
            assert np.array_equal(before, frozen_group[name].data), \
                f"non-chosen group changed at step {state.step}: {name}"
    assert abs(counts[True] - 500) <= 50, counts
    assert abs(counts[False] - 500) <= 50, counts
    report(8, f"theta updates {counts[True]}, omega updates {counts[False]}; "
              "non-chosen group bitwise frozen on every step")


# ---------------------------------------------------------------------------
# Criterion 9: determinism and resume
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    from graphaug.cli import main as cli_main
    from graphaug.trainer import load_checkpoint, save_checkpoint

    data_dir = write_synthetic_tudataset(tmp_path, name="DET")
    args = ["--dataset", str(data_dir), "--epochs", "3", "--batch-size", "4",
            "--hidden-dim", "8", "--num-layers", "1", "--seed", "13"]
    for name in ("r1", "r2"):
        assert cli_main(["train", *args, "--out", str(tmp_path / name)]) == 0
    b1 = (tmp_path / "r1" / "metrics.csv").read_bytes()
    b2 = (tmp_path / "r2" / "metrics.csv").read_bytes()
    assert b1 == b2, "metrics CSVs differ between identical runs"

    dataset = parse_tudataset(data_dir)
    cfg4 = TrainConfig(epochs=4, batch_size=4, hidden_dim=8, num_layers=1,
                       seed=13)
    _, straight, _ = train(dataset, cfg4)

    cfg2 = TrainConfig(epochs=2, batch_size=4, hidden_dim=8, num_layers=1,
                       seed=13)
    mid_state, part, _ = train(dataset, cfg2)
    ck = tmp_path / "mid.bin"
    save_checkpoint(mid_state, cfg2, ck)
    resumed, _ = load_checkpoint(ck)
    _, rest, _ = train(dataset, cfg4, state=resumed)

    straight_losses = [m["loss"] for m in straight]
    combined = [m["loss"] for m in part + rest]
    assert len(straight_losses) == len(combined)
    worst = max(abs(a - b) for a, b in zip(straight_losses, combined))
    assert worst <= 1e-12, f"resume deviates by {worst:.2e}"
    report(9, f"byte-identical metrics across runs; resume deviation "
              f"{worst:.1e} <= 1e-12")


# ---------------------------------------------------------------------------
# Criterion 10: batch loss equals the naive triple loop
# ---------------------------------------------------------------------------

def test_criterion_10_loss_equivalence_oracle():
    worst = 0.0
    for seed in range(5):
        stream = RngStream(900 + seed, "acc-loss")
        n_graphs = 3 + seed % 2
        sizes_i = [2 + int(stream.integers(0, 3)) for _ in range(n_graphs)]
        sizes_j = [2 + int(stream.integers(0, 3)) for _ in range(n_graphs)]

        def enc(sizes, label):
            total = sum(sizes)
            nodes = Tensor(stream.split(f"n{label}").uniform((total, 5)) - 0.5)
            gvec = Tensor(stream.split(f"g{label}").uniform((n_graphs, 5)) - 0.5)
            n2g = np.repeat(np.arange(n_graphs), sizes)
            return Encodings(nodes, gvec), n2g

        enc_i, n2g_i = enc(sizes_i, "i")
        enc_j, n2g_j = enc(sizes_j, "j")
        got = batch_loss(enc_i, enc_j, n2g_i, n2g_j, TrainConfig()).item()
        expect = naive_loss(enc_i, enc_j, n2g_i, n2g_j, "jsd")
        worst = max(worst, abs(got - expect))
    assert worst <= 1e-9, f"loss equivalence off by {worst:.2e}"
    report(10, f"batch loss matches the naive triple loop "
               f"(worst |diff| {worst:.1e} <= 1e-9)")
