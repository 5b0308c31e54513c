import json

import numpy as np
import pytest

from graphaug import evaluation, optim, tensor
from graphaug.encoders import encode
from graphaug.errors import TrainingDivergedError
from graphaug.evaluation import (
    LAMBDA_GRID, EmbeddingTable, embed_dataset, linear_probe_graph,
    linear_probe_node,
)
from graphaug.graphs import Graph, khop_bfs
from graphaug.rng import RngStream
from graphaug.tensor import ParameterSet, Tensor, finite_diff_grad
from graphaug.trainer import TrainConfig, init_state
from graphaug.tudataset import Dataset, parse_tudataset

from planted_partition import planted_partition
from test_tensor import _load_node_synth


def separable_table(n=60, d=4, seed=0, spread=0.05):
    stream = RngStream(seed, "sep")
    labels = np.arange(n) % 2
    vectors = stream.uniform((n, d)) * spread
    vectors[:, 0] += np.where(labels == 0, -1.0, 1.0)
    return EmbeddingTable(vectors, labels)


def test_separable_embeddings_reach_full_accuracy():
    report = linear_probe_graph(separable_table(), folds=10, runs=1, seed=0)
    assert report.mean == 1.0


def test_shuffled_labels_near_chance():
    stream = RngStream(3, "null")
    table = separable_table(n=80, seed=1)
    shuffled = EmbeddingTable(table.vectors,
                              table.labels[stream.permutation(80)])
    report = linear_probe_graph(shuffled, folds=10, runs=1, seed=2)
    assert abs(report.mean - 0.5) <= 0.1


def test_constant_embeddings_majority_baseline():
    labels = np.array([0] * 42 + [1] * 18)
    table = EmbeddingTable(np.ones((60, 3)), labels)
    report = linear_probe_graph(table, folds=10, runs=1, seed=4)
    assert abs(report.mean - 0.7) <= 0.02


def test_report_consistency():
    report = linear_probe_graph(separable_table(seed=7), folds=5, runs=2, seed=5)
    arr = np.asarray(report.accuracies)
    assert abs(report.mean - arr.mean()) < 1e-12
    assert abs(report.std - arr.std()) < 1e-12
    assert len(arr) == 10
    assert all(0.0 <= a <= 1.0 for a in report.accuracies)


def test_single_class_rejected():
    table = EmbeddingTable(np.ones((10, 2)), np.zeros(10, dtype=int))
    with pytest.raises(ValueError):
        linear_probe_graph(table, folds=5, runs=1)


def rare_class_table(n, rare):
    """Two alternating classes, then the first ``rare`` items relabeled 2."""
    stream = RngStream(21, "rare")
    labels = np.arange(n) % 2
    labels[:rare] = 2
    vectors = stream.uniform((n, 3))
    vectors[:, 0] += labels
    return EmbeddingTable(vectors, labels)


def test_rare_classes_leave_inner_folds_without_them():
    # each outer fold's training part holds one item of class 2: the inner
    # 3-fold split puts it in one test part and still chooses a penalty
    report = linear_probe_graph(rare_class_table(40, 2), folds=2, runs=1,
                                seed=0)
    assert len(report.accuracies) == 2
    assert all(l2 in LAMBDA_GRID for l2 in report.l2)
    # 10 nodes train; some of the 5 splits train on one node of class 2
    report = linear_probe_node(rare_class_table(103, 3), runs=5,
                               train_frac=0.1, seed=0)
    assert len(report.accuracies) == 5
    with pytest.raises(ValueError, match="class 2 has fewer than 2 items"):
        linear_probe_graph(rare_class_table(40, 1), folds=2, runs=1, seed=0)
    # the message names the dataset's label, not its index among the classes
    table = rare_class_table(40, 1)
    table.labels = np.where(table.labels == 2, 7, 3)
    with pytest.raises(ValueError, match="class 7 has fewer than 2 items"):
        linear_probe_graph(table, folds=2, runs=1, seed=0)


def test_node_probe_deterministic_and_separable():
    table = separable_table(n=50, seed=9)
    r1 = linear_probe_node(table, runs=4, train_frac=0.9, seed=3)
    r2 = linear_probe_node(table, runs=4, train_frac=0.9, seed=3)
    assert r1.accuracies == r2.accuracies
    assert r1.mean == 1.0
    assert abs(r1.std - np.asarray(r1.accuracies).std()) < 1e-12


def test_nan_embeddings_rejected():
    with pytest.raises(ValueError):
        EmbeddingTable(np.array([[np.nan, 0.0]]), np.array([0]))


# -- embed_dataset ------------------------------------------------------------------

def graph_dataset(seed=0, num=6, d_x=3):
    stream = RngStream(seed, "eds")
    graphs = []
    for k in range(num):
        n = int(stream.integers(3, 6))
        edges = []
        for i in range(n - 1):
            edges += [(i, i + 1), (i + 1, i)]
        graphs.append(Graph(n, np.array(edges), stream.uniform((n, d_x)),
                            np.ones(len(edges))))
    return Dataset("EDS", graphs, 2, d_x, graph_labels=np.arange(num) % 2)


def test_embed_rows_and_determinism():
    ds = graph_dataset()
    config = TrainConfig(hidden_dim=8, num_layers=1, seed=0, epochs=0)
    state = init_state(config, ds.feature_dim)
    t1 = embed_dataset(ds, state, config)
    t2 = embed_dataset(ds, state, config)
    assert t1.vectors.shape == (len(ds.graphs), 8)
    assert np.array_equal(t1.vectors, t2.vectors)
    assert np.array_equal(t1.labels, ds.labels("graph"))


def test_embed_zero_features_zero_encoder():
    graphs = [Graph(2, np.array([(0, 1), (1, 0)]), np.zeros((2, 3)),
                    np.ones(2)),
              Graph(3, np.array([(0, 1), (1, 0)]), np.zeros((3, 3)),
                    np.ones(2))]
    ds = Dataset("ZERO", graphs, 2, 3, graph_labels=[0, 1])
    config = TrainConfig(hidden_dim=4, num_layers=1, seed=1, epochs=0)
    state = init_state(config, 3)
    table = embed_dataset(ds, state, config)
    assert np.allclose(table.vectors, 0.0)


def path_node_dataset(n=12):
    stream = RngStream(4, "nt")
    edges = []
    for i in range(n - 1):
        edges += [(i, i + 1), (i + 1, i)]
    g = Graph(n, np.array(edges), stream.uniform((n, 4)), np.ones(len(edges)))
    node_labels = (np.arange(n) % 2).astype(np.int64)
    return Dataset("NT", [g], 2, 4, node_labels=[node_labels])


def test_embed_node_task_writeback():
    n = 12
    ds = path_node_dataset(n)
    node_labels = ds.node_labels[0]
    config = TrainConfig(hidden_dim=6, num_layers=2, task="node", hops=2,
                         seed=2, epochs=0)
    state = init_state(config, 4)
    table = embed_dataset(ds, state, config)
    assert table.vectors.shape == (n, 6)
    assert np.array_equal(table.labels, node_labels)
    assert not np.allclose(table.vectors, 0.0)


def test_node_embed_is_the_center_row_of_ego_nets_that_hold_every_degree():
    """Oracle: a GCN row reads the degrees of nodes up to one hop past its
    receptive field, so the full-graph row of node v is the center row of
    v's ego-net of num_layers + 1 hops, encoded alone."""
    dataset = planted_partition(0)
    config = TrainConfig(hidden_dim=16, num_layers=2, task="node", seed=0,
                         epochs=0)
    state = init_state(config, dataset.feature_dim)
    table = embed_dataset(dataset, state, config)
    g, theta = dataset.graphs[0], state.theta.detached()
    want = np.empty_like(table.vectors)
    for v in range(g.num_nodes):
        ego = khop_bfs(g, [v], config.num_layers + 1)
        row = np.searchsorted(ego.orig_ids, v)
        want[v] = encode(ego, theta).node_matrix.data[row]
    assert np.allclose(table.vectors, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("task, calls", [("node", 1), ("graph", 3)])
def test_embed_encodes_once_per_chunk(task, calls, monkeypatch):
    """The node task is one encode of the whole graph; the graph task is
    ceil(G / batch_size) encodes (7 graphs in batches of 3 here)."""
    ds = graph_dataset(num=7) if task == "graph" else path_node_dataset()
    config = TrainConfig(hidden_dim=6, num_layers=2, task=task, seed=2,
                         epochs=0, batch_size=3)
    seen = []

    def spy(batch, params):
        seen.append(batch.num_graphs)
        return encode(batch, params)

    monkeypatch.setattr(evaluation, "encode", spy)
    embed_dataset(ds, init_state(config, ds.feature_dim), config)
    assert len(seen) == calls
    assert sum(seen) == len(ds.graphs)


@pytest.mark.parametrize("overrides, blocked", [({}, False),
                                               ({"batch_size": 64}, True)],
                         ids=["default", "batch-64"])
def test_mutag_embed_stays_in_one_propagate_block(mutag_dir, monkeypatch,
                                                  overrides, blocked):
    """At the default config every MUTAG embed batch fits in
    ``PROPAGATE_BLOCK_VALUES``; 64-graph batches do not."""
    calls = []
    blocks = tensor._propagate_blocks

    def spy(*args):
        calls.append(args)
        return blocks(*args)

    monkeypatch.setattr(tensor, "_propagate_blocks", spy)
    ds = parse_tudataset(mutag_dir)
    config = TrainConfig(**overrides)
    embed_dataset(ds, init_state(config, ds.feature_dim), config)
    assert bool(calls) == blocked


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_planted_partition_at_cora_size_is_the_node_synth_graph(seed):
    """One generator: at 2,708 nodes and 5,250 undirected edges the test
    graph is ``perfbench/synth.py``'s graph of the same seed."""
    want = _load_node_synth(seed)
    ds = planted_partition(seed, 2708, 5250)
    g = ds.graphs[0]
    assert np.array_equal(g.edges, want.edges)
    assert g.features.data.tobytes() == want.features.tobytes()
    assert np.array_equal(ds.node_labels[0], want.labels)


@pytest.mark.parametrize("task", ["graph", "node"])
def test_embed_records_no_tape(task, made_tensors, monkeypatch):
    ds = graph_dataset() if task == "graph" else path_node_dataset()
    config = TrainConfig(hidden_dim=6, num_layers=2, task=task, hops=2,
                         seed=2, epochs=0)
    state = init_state(config, ds.feature_dim)
    made_tensors.clear()
    table = embed_dataset(ds, state, config)
    assert made_tensors and not any(t.requires_grad for t in made_tensors)
    # the same embed on state.theta itself records a tape, and gives the
    # same bits
    monkeypatch.setattr(ParameterSet, "detached", lambda params: params)
    made_tensors.clear()
    taped = embed_dataset(ds, state, config)
    assert any(t.requires_grad for t in made_tensors)
    assert np.array_equal(table.vectors, taped.vectors)


@pytest.mark.parametrize("task", ["graph", "node"])
def test_embed_gives_unlabeled_items_minus_one(task):
    """Without a label file each embedded item, a graph or a node of graph
    0, is labeled -1, which the probes reject."""
    g = Graph(3, np.array([(0, 1), (1, 0)]), np.ones((3, 2)), np.ones(2))
    config = TrainConfig(hidden_dim=4, num_layers=1, task=task, seed=0,
                         epochs=0)
    table = embed_dataset(Dataset("NT", [g, g], 0, 2), init_state(config, 2),
                          config)
    assert table.labels.tolist() == [-1] * (2 if task == "graph" else 3)


def test_node_probe_without_test_nodes_rejected():
    table = separable_table(n=24, seed=3)
    with pytest.raises(ValueError, match="24 of 24 nodes leaves no test"):
        linear_probe_node(table, runs=2, train_frac=0.99, seed=0)


def test_node_probe_twenty_runs_protocol():
    table = separable_table(n=24, d=3, seed=12)
    report = linear_probe_node(table, runs=20, train_frac=0.5, seed=1)
    assert len(report.accuracies) == 20
    assert report.mean >= 0.9


# -- the Newton logistic-regression fit --------------------------------------------

def helmert(num_classes):
    """(C, C-1) orthonormal basis of the vectors whose entries sum to zero."""
    q = np.zeros((num_classes, num_classes - 1))
    for j in range(1, num_classes):
        q[:j, j - 1] = 1.0
        q[j, j - 1] = -j
        q[:, j - 1] /= np.sqrt(j * (j + 1))
    return q


def objective_inputs(x, y, num_classes):
    """``_cross_entropy``'s inputs for splits x (S, n, d), y (S, n)."""
    xr = np.concatenate([x, np.ones(x.shape[:2] + (1,))], axis=2)
    onehot = np.eye(num_classes)[y].transpose(0, 2, 1)
    return (np.ascontiguousarray(xr.transpose(0, 2, 1)), xr,
            np.ascontiguousarray(onehot))


def decrements(x, y, num_classes, w, b, l2s):
    """Half the squared Newton decrement of each fit w (S, K, d, C), b (S, K,
    C), the objective's estimate of its gap to the optimum."""
    x1, xr, onehot = objective_inputs(x, y, num_classes)
    q = helmert(num_classes)
    u = q.T @ np.concatenate([w, b[:, :, None]], axis=2).transpose(0, 1, 3, 2)
    u = u.reshape(l2s.shape + (-1,))
    ridge = np.tile(np.arange(x.shape[2] + 1) < x.shape[2], num_classes - 1)
    gaps = np.empty(l2s.shape)
    for k in range(l2s.shape[1]):
        ce, grad, hess = evaluation._cross_entropy(x1, xr, onehot, u[:, k], q)
        pen = l2s[:, k][:, None] / x.shape[1] * ridge
        grad = grad + pen * u[:, k]
        hess = hess + pen[:, :, None] * np.eye(len(ridge))
        gaps[:, k] = (grad * np.linalg.solve(hess, grad[..., None])[..., 0]
                      ).sum(axis=1) / 2.0
    return gaps


def _fit_logreg_tape(x, y, num_classes, l2):
    """Reference: the probe's Newton method on all (d + 1) x C parameters,
    with the loss and its gradient differentiated on the tape, the softmax
    Hessian written out and the minimum-norm step, since the biases' common
    shift is flat. Newton's method is affine-invariant, so these are the
    steps and decrements of the fit in the sum-zero subspace."""
    n, d = x.shape
    params = ParameterSet()
    w = params.add("w", Tensor(np.zeros((d, num_classes))))
    b = params.add("b", Tensor(np.zeros(num_classes)))
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    xb = np.concatenate([x, np.ones((n, 1))], axis=1)
    pen = np.repeat(np.arange(d + 1) < d, num_classes) * (l2 / n)

    def loss_and_grad(wb):
        w.data, b.data = wb[:d], wb[d]
        params.zero_grads()
        logits = Tensor(x) @ w + b
        loss = (logits.logsumexp(axis=1)
                - (logits * Tensor(onehot)).sum(axis=1)).mean() \
            + (w * w).sum() * (l2 / (2.0 * n))
        loss.backward()
        return loss.item(), np.concatenate([w.grad, b.grad[None]]), logits.data

    wb = np.zeros((d + 1, num_classes))
    loss, grad, logits = loss_and_grad(wb)
    for _ in range(evaluation.NEWTON_MAX_STEPS):
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        cov = p[:, :, None] * (np.eye(num_classes) - p[:, None, :])
        hess = np.einsum("ij,ik,ice->jcke", xb, xb, cov).reshape(
            len(pen), len(pen)) / n + np.diag(pen)
        step = -np.linalg.lstsq(hess, grad.ravel(), rcond=None)[0].reshape(
            wb.shape)
        dec = -(grad * step).sum()
        if dec <= 2.0 * evaluation.NEWTON_TOL:
            return wb[:d], wb[d]
        t = 1.0
        while (trial := loss_and_grad(wb + t * step))[0] > \
                loss - 0.25 * t * dec:
            t /= 2.0
        wb, (loss, grad, logits) = wb + t * step, trial
    raise AssertionError("the tape reference did not converge")


def logreg_problem(num_classes, n=30, d=4, seed=0):
    stream = RngStream(seed, "logreg")
    y = np.arange(n) % num_classes
    x = stream.uniform((n, d)) * 2.0 - 1.0
    x[:, 0] += y
    return x, y


def stacked_problems(num_classes, seeds, **kwargs):
    """Same-size problems stacked as one group: x (S, n, d), y (S, n)."""
    problems = [logreg_problem(num_classes, seed=s, **kwargs) for s in seeds]
    return (np.stack([x for x, _ in problems]),
            np.stack([y for _, y in problems]))


def objective_per_model(x, y, num_classes, w, b, l2):
    """The penalised softmax cross-entropy of one model w (d, C), b (C)."""
    logits = x @ w + b
    m = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits - m).sum(axis=1)) + m[:, 0]
    return (lse - logits[np.arange(len(y)), y]).mean() \
        + (w * w).sum() * l2 / (2.0 * len(y))


@pytest.mark.parametrize("num_classes", [2, 3, 7])
def test_logreg_gradient_matches_finite_differences(num_classes):
    """``_cross_entropy``'s loss is the cross-entropy of the mapped model
    W = (Q u)^T, its gradient the finite differences of that loss through
    the map, and its Hessian the finite differences of its gradient."""
    x, y = stacked_problems(num_classes, (0, 5), n=12 + 2 * num_classes, d=3)
    x1, xr, onehot = objective_inputs(x, y, num_classes)
    q = helmert(num_classes)
    u0 = RngStream(1, "fd").uniform((2, (num_classes - 1) * 4)) - 0.5
    loss, grad, hess = evaluation._cross_entropy(x1, xr, onehot, u0, q)
    for s in range(2):
        def mapped(u):
            wb = (q @ u.data.reshape(num_classes - 1, 4)).T
            return objective_per_model(x[s], y[s], num_classes, wb[:-1],
                                       wb[-1], 0.0)

        def grad_entry(k):
            def g(u):
                us = u0.copy()
                us[s] = u.data
                return evaluation._cross_entropy(x1, xr, onehot, us,
                                                 q)[1][s, k]
            return g

        flat = Tensor(u0[s])
        assert abs(loss[s] - mapped(flat)) <= 1e-12
        fd_grad = finite_diff_grad(mapped, flat).data
        assert np.allclose(grad[s], fd_grad, rtol=1e-6, atol=1e-8)
        fd_hess = np.stack([finite_diff_grad(grad_entry(k), flat).data
                            for k in range(len(flat.data))])
        assert np.allclose(hess[s], fd_hess, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("l2", [1e-3, 1.0, 1e3])
def test_stacked_fit_matches_tape_reference(l2):
    x, y = logreg_problem(3)
    w_ref, b_ref = _fit_logreg_tape(x, y, 3, l2)
    w, b, _ = evaluation._fit_logreg_stack(x[None], y[None], 3,
                                           np.array([[l2]]))
    assert w.shape == (1, 1, 4, 3) and b.shape == (1, 1, 3)
    assert np.max(np.abs(w[0, 0] - w_ref)) <= 1e-9
    assert np.max(np.abs(b[0, 0] - b_ref)) <= 1e-9


def test_stack_slices_match_single_fits():
    x, y = stacked_problems(3, (4, 6))
    l2s = np.array([LAMBDA_GRID, LAMBDA_GRID[::-1]])
    w, b, _ = evaluation._fit_logreg_stack(x, y, 3, l2s)
    assert w.shape == (2, len(LAMBDA_GRID), 4, 3)
    for s in range(2):
        w1, b1, _ = evaluation._fit_logreg_stack(x[s:s + 1], y[s:s + 1], 3,
                                                 l2s[s:s + 1])
        assert np.max(np.abs(w[s] - w1[0])) <= 1e-12
        assert np.max(np.abs(b[s] - b1[0])) <= 1e-12


def test_nonfinite_probe_loss_raises():
    # one bad split fails its whole stack
    x, y = stacked_problems(2, (0, 0))
    x[1, 3, 1] = np.nan
    with pytest.raises(TrainingDivergedError):
        evaluation._fit_logreg_stack(x, y, 2, np.array([LAMBDA_GRID] * 2))


def test_a_fit_that_does_not_converge_raises(monkeypatch):
    x, y = stacked_problems(3, (0,))
    monkeypatch.setattr(evaluation, "NEWTON_MAX_STEPS", 2)
    with pytest.raises(TrainingDivergedError, match="in 2 Newton steps"):
        evaluation._fit_logreg_stack(x, y, 3, np.array([LAMBDA_GRID]))


def test_line_search_shortens_an_overshooting_step(monkeypatch):
    """Full Newton steps need no shortening on the problems here, so the
    backtracking is checked on steps made 8 times too long: halving brings
    each back to a decrease, and every fit still reaches its optimum."""
    x, y = stacked_problems(3, (4, 6))
    l2s = np.array([LAMBDA_GRID] * 2)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: 8.0 * solve(a, b))
    w, b, _ = evaluation._fit_logreg_stack(x, y, 3, l2s)
    monkeypatch.undo()
    assert (decrements(x, y, 3, w, b, l2s) <= evaluation.NEWTON_TOL).all()


def separable_split(n=40, d=32, num_classes=7, seed=1):
    """More columns than the classes need: every labelling separates."""
    stream = RngStream(seed, "separable-split")
    y = np.arange(n) % num_classes
    return evaluation._standardize(stream.uniform((n, d)))[0], y


@pytest.mark.parametrize("case", ["separable_table", "separable_split",
                                  "mutag-sized"])
def test_every_fit_stops_within_its_tolerance(case):
    """At every penalty of the grid the fit is within NEWTON_TOL of its
    optimum, also where the classes separate and the probabilities
    saturate at the bottom of the grid; the weights lie in the classes'
    sum-zero subspace."""
    if case == "separable_table":
        table = separable_table()
        x = evaluation._standardize(table.vectors)[0][None]
        y, num_classes = table.labels[None], 2
    elif case == "separable_split":
        x, y = separable_split()
        x, y, num_classes = x[None], y[None], 7
    else:
        x, y = stacked_problems(2, (0, 1, 2), n=112, d=32)
        num_classes = 2
    l2s = np.array([LAMBDA_GRID] * len(x))
    w, b, steps = evaluation._fit_logreg_stack(x, y, num_classes, l2s)
    assert 0 < steps < evaluation.NEWTON_MAX_STEPS * len(LAMBDA_GRID)
    gaps = decrements(x, y, num_classes, w, b, l2s)
    assert (gaps <= evaluation.NEWTON_TOL).all(), gaps
    assert np.max(np.abs(w.sum(axis=3))) <= 1e-9
    assert np.max(np.abs(b.sum(axis=2))) <= 1e-9
    if case == "separable_split":             # saturated at lambda = 1e-3
        logits = x[0] @ w[0, 0] + b[0, 0]
        assert (np.argmax(logits, axis=1) == y[0]).all()


@pytest.mark.parametrize("probe,kwargs", [
    (linear_probe_graph, {"folds": 5, "runs": 2}),
    (linear_probe_node, {"runs": 3, "train_frac": 0.5}),
], ids=["graph", "node"])
def test_probe_fits_reach_their_optimum_on_gapped_labels(probe, kwargs,
                                                         monkeypatch):
    """Every fit of a probe, inner and refit, is within NEWTON_TOL of its
    optimum: the golden table with labels 1, 3, 5 (24 training rows in the
    graph probe's inner splits)."""
    table = golden_table()
    gapped = EmbeddingTable(table.vectors, table.labels * 2 + 1)
    fit, rows = evaluation._fit_logreg_stack, []

    def checked(x, y, num_classes, l2s):
        w, b, steps = fit(x, y, num_classes, l2s)
        rows.append(x.shape[1])
        assert (decrements(x, y, num_classes, w, b, l2s)
                <= evaluation.NEWTON_TOL).all()
        return w, b, steps

    monkeypatch.setattr(evaluation, "_fit_logreg_stack", checked)
    probe(gapped, seed=3, **kwargs)
    assert rows and (probe is linear_probe_node or 24 in rows)


# -- the per-split reference: one fit per split, the probe before grouping ----------

def fit_per_split(x, y, num_classes, l2s):
    """Weights (K, d, C) and biases (K, C) of one split's fits: Newton's
    method with backtracking on ``_cross_entropy`` for that split alone plus
    the penalty, its penalties from the largest down, each from the fit
    before."""
    x1, xr, onehot = objective_inputs(x[None], y[None], num_classes)
    q = helmert(num_classes)
    ridge = np.tile(np.arange(x.shape[1] + 1) < x.shape[1], num_classes - 1)
    u = np.zeros((1, len(ridge)))
    fits = np.empty((len(l2s), len(ridge)))
    ce = evaluation._cross_entropy(x1, xr, onehot, u, q)
    for k in np.argsort(-np.asarray(l2s), kind="stable"):
        pen = np.array([[l2s[k]]]) / len(x) * ridge
        for _ in range(evaluation.NEWTON_MAX_STEPS):
            loss = ce[0] + (pen * u * u).sum(axis=1) / 2
            grad = ce[1] + pen * u
            hess = ce[2] + pen[:, :, None] * np.eye(len(ridge))
            step = np.linalg.solve(hess, -grad[..., None])[..., 0]
            dec = -(grad * step).sum(axis=1)[0]
            assert np.isfinite(dec)
            if dec <= 2.0 * evaluation.NEWTON_TOL:
                break
            t = 1.0
            while True:
                trial = u + t * step
                terms = evaluation._cross_entropy(x1, xr, onehot, trial, q)
                if terms[0][0] + (pen * trial * trial).sum(axis=1)[0] / 2 \
                        <= loss[0] - 0.25 * t * dec:
                    break
                t /= 2.0
            u, ce = trial, terms
        else:
            raise AssertionError("the reference fit did not converge")
        fits[k] = u[0]
    wb = (q @ fits.reshape(len(l2s), num_classes - 1, -1)).transpose(0, 2, 1)
    return wb[:, :-1], wb[:, -1]


def fit_and_score_per_split(x_train, y_train, x_test, y_test, num_classes, l2s,
                            rows):
    rows.append(len(x_train))
    xtr, xte = evaluation._standardize(x_train, x_test)
    w, b = fit_per_split(xtr, y_train, num_classes, l2s)
    pred = np.argmax(xte @ w + b[:, None, :], axis=2)
    return (pred == y_test).mean(axis=1)


def select_l2_per_split(x, y, num_classes, stream, rows):
    inner = evaluation._stratified_folds(y, 3, stream)
    accs = []
    for f in range(3):
        tr, te = inner != f, inner == f
        if te.sum() == 0 or len(np.unique(y[tr])) < num_classes:
            continue
        accs.append(fit_and_score_per_split(x[tr], y[tr], x[te], y[te],
                                            num_classes, LAMBDA_GRID, rows))
    if not accs:
        return LAMBDA_GRID[0]
    return LAMBDA_GRID[int(np.argmax(np.mean(accs, axis=0)))]


def probe_graph_per_split(table, folds, runs, seed, rows):
    """(accuracies, l2s); ``rows`` collects each fit's training-row count."""
    x = table.vectors
    y, num_classes = evaluation._class_indices(table.labels)
    accs, l2s = [], []
    for run in range(runs):
        stream = RngStream(seed + run, "probe-folds")
        assignment = evaluation._stratified_folds(y, folds, stream)
        for f in range(folds):
            tr, te = assignment != f, assignment == f
            if te.sum() == 0:
                continue
            l2 = select_l2_per_split(x[tr], y[tr], num_classes,
                                     stream.split(f"l2-{f}"), rows)
            accs.append(float(fit_and_score_per_split(
                x[tr], y[tr], x[te], y[te], num_classes, [l2], rows)[0]))
            l2s.append(l2)
    return accs, l2s


def probe_node_per_split(table, runs, train_frac, seed, rows):
    x = table.vectors
    y, num_classes = evaluation._class_indices(table.labels)
    n_train = max(num_classes, int(round(train_frac * len(y))))
    accs, l2s = [], []
    for run in range(runs):
        stream = RngStream(seed + run, "probe-splits")
        order = stream.permutation(len(y))
        tr, te = order[:n_train], order[n_train:]
        if len(np.unique(y[tr])) < num_classes:
            order = stream.split("retry").permutation(len(y))
            tr, te = order[:n_train], order[n_train:]
        l2 = select_l2_per_split(x[tr], y[tr], num_classes,
                                 stream.split("l2"), rows) \
            if len(np.unique(y[tr])) == num_classes else LAMBDA_GRID[0]
        accs.append(float(fit_and_score_per_split(
            x[tr], y[tr], x[te], y[te], num_classes, [l2], rows)[0]))
        l2s.append(l2)
    return accs, l2s


@pytest.fixture(scope="module")
def mutag_table(mutag_dir):
    ds = parse_tudataset(mutag_dir)
    config = TrainConfig(hidden_dim=32, num_layers=2, seed=5, epochs=0)
    return embed_dataset(ds, init_state(config, ds.feature_dim), config)


@pytest.mark.parametrize("penalties", ["grid", "one-each"])
@pytest.mark.parametrize("num_classes", [2, 3])
def test_group_fit_is_bit_identical_to_per_split_fits(num_classes, penalties):
    x_all, y_all = logreg_problem(num_classes, n=150, d=32, seed=8)
    stream = RngStream(2, "group")
    # 112 rows, as in MUTAG's inner splits: l2 / 112 and l2 * (1 / 112)
    # differ for some penalties, so even a reordered division would show
    rows = [np.sort(stream.permutation(150)[:112]) for _ in range(3)]
    x = np.stack([evaluation._standardize(x_all[r])[0] for r in rows])
    y = np.stack([y_all[r] for r in rows])
    l2s = (np.array([LAMBDA_GRID] * 3) if penalties == "grid"
           else np.array([[1e-3], [1.0], [1e2]]))
    w, b, _ = evaluation._fit_logreg_stack(x, y, num_classes, l2s)
    for s in range(3):
        w1, b1 = fit_per_split(x[s], y[s], num_classes, l2s[s])
        assert np.array_equal(w[s], w1) and np.array_equal(b[s], b1)


def test_grouped_probe_matches_per_split_reference_on_mutag(mutag_table):
    report = linear_probe_graph(mutag_table, folds=10, runs=2, seed=3)
    accs, l2s = probe_graph_per_split(mutag_table, 10, 2, 3, [])
    assert report.accuracies == accs and report.l2 == l2s


def test_grouped_node_probe_matches_per_split_reference():
    # the rare-class table leaves most training splits without class 2
    for table, runs, train_frac, seed in (
            (golden_table(), 3, 0.5, 2), (golden_table(), 6, 0.3, 4),
            (rare_class_table(103, 3), 5, 0.1, 0)):
        report = linear_probe_node(table, runs=runs, train_frac=train_frac,
                                   seed=seed)
        accs, l2s = probe_node_per_split(table, runs, train_frac, seed, [])
        assert report.accuracies == accs and report.l2 == l2s


@pytest.mark.parametrize("num_classes", [2, 3, 7])
@pytest.mark.parametrize("k", [1, 7])
def test_buffered_objective_is_bit_identical_per_split(num_classes, k):
    """The stacked cross-entropy of 3 splits at k points each (3k models, as
    many as a stack of 3 x k inner fits) gives each model the bits of that
    model's cross-entropy alone: loss, gradient and Hessian."""
    n = 112 if num_classes == 7 and k == 7 else 30
    x_all, y_all = logreg_problem(num_classes, n=n + 20, d=9, seed=num_classes)
    stream = RngStream(k, "objective")
    rows = [np.sort(stream.permutation(n + 20)[:n]) for _ in range(3)]
    x = np.stack([evaluation._standardize(x_all[r])[0] for r in rows])
    x, y = x.repeat(k, axis=0), np.stack([y_all[r] for r in rows]).repeat(k, 0)
    x1, xr, onehot = objective_inputs(x, y, num_classes)
    q = helmert(num_classes)
    for _ in range(3):
        u = stream.uniform((3 * k, (num_classes - 1) * 10)) - 0.5
        got = evaluation._cross_entropy(x1, xr, onehot, u, q)
        for i in range(3 * k):
            want = evaluation._cross_entropy(x1[i:i + 1], xr[i:i + 1],
                                             onehot[i:i + 1], u[i:i + 1], q)
            assert all(np.array_equal(g[i], w[0]) for g, w in zip(got, want))


def test_stack_fits_share_no_buffers():
    xa, ya = stacked_problems(3, (1, 2))
    xb, yb = stacked_problems(3, (3, 4, 5), n=24)
    grid = np.array([LAMBDA_GRID] * 3)
    first = evaluation._fit_logreg_stack(xa, ya, 3, grid[:2])
    evaluation._fit_logreg_stack(xb, yb, 3, grid)
    again = evaluation._fit_logreg_stack(xa, ya, 3, grid[:2])
    assert all(np.array_equal(f, a) for f, a in zip(first, again))


@pytest.mark.parametrize("probe,kwargs,fits", [
    (linear_probe_graph, {"folds": 5, "runs": 2, "seed": 3}, 40),
    (linear_probe_node, {"runs": 3, "train_frac": 0.5, "seed": 2}, 12),
])
def test_report_records_each_stacked_fit(probe, kwargs, fits):
    report = probe(golden_table(), **kwargs)
    assert sum(row[1] for row in report.stacks) == fits
    for phase, splits, rows, penalties, iterations, seconds in report.stacks:
        assert phase in ("inner", "refit") and seconds > 0.0
        assert penalties == (len(LAMBDA_GRID) if phase == "inner" else 1)
        # here every penalty moves its fit: one Newton step or more each
        assert penalties <= iterations \
            < evaluation.NEWTON_MAX_STEPS * penalties
    assert sum(row[1] for row in report.stacks if row[0] == "refit") \
        == len(report.accuracies)
    assert probe(golden_table(), **kwargs).to_json() == report.to_json()


def test_stack_limit_splits_stacks_and_keeps_results(monkeypatch):
    want = linear_probe_graph(golden_table(), folds=5, runs=2, seed=3)
    stacks = []                                # (splits, rows, penalties)
    fit = evaluation._fit_logreg_stack

    def spy(x, y, num_classes, l2s):
        stacks.append((len(x), x.shape[1], np.shape(l2s)[1]))
        return fit(x, y, num_classes, l2s)

    limit = 7 * 3 * 24 * 2                     # about two inner splits
    monkeypatch.setattr(evaluation, "_fit_logreg_stack", spy)
    monkeypatch.setattr(evaluation, "STACK_LIMIT", limit)
    got = linear_probe_graph(golden_table(), folds=5, runs=2, seed=3)
    assert got.to_json() == want.to_json()
    assert sum(s for s, _, _ in stacks) == 40  # 10 x (3 + 1) fits
    assert all(s * n * k * 3 <= limit for s, n, k in stacks)
    assert len(stacks) > len({(n, k) for _, n, k in stacks})


def test_mutag_probe_makes_one_stack_per_training_row_count(mutag_table,
                                                            monkeypatch):
    """One stack per training-row count, and no Adam step or tape backward:
    the probe's fits are Newton's method on closed-form derivatives."""
    def forbidden(*args):
        raise AssertionError("the probe ran an Adam step or a tape backward")

    for owner in (evaluation, optim):
        monkeypatch.setattr(owner, "adam_step", forbidden)
    monkeypatch.setattr(Tensor, "backward", forbidden)
    report = linear_probe_graph(mutag_table, folds=10, runs=1, seed=5)
    monkeypatch.undo()
    rows = []
    accs, l2s = probe_graph_per_split(mutag_table, 10, 1, 5, rows)
    assert report.accuracies == accs and report.l2 == l2s
    assert len(rows) == 40                    # per-split fits: 10 x (3 + 1)
    assert len(report.stacks) == len(set(rows)) == 7


def golden_table(n=45, d=4, seed=11):
    stream = RngStream(seed, "golden")
    labels = np.arange(n) % 3
    vectors = stream.uniform((n, d)) * 2.0 - 1.0
    vectors[:, 0] += 0.8 * labels
    vectors[:, 1] -= 0.5 * (labels == 1)
    return EmbeddingTable(vectors, labels)


def test_probe_golden_fold_accuracies():
    # recorded with the Newton fit, each fit at its penalised optimum
    report = linear_probe_graph(golden_table(), folds=5, runs=2, seed=3)
    assert report.accuracies == [k / 9 for k in (6, 7, 8, 8, 6, 8, 4, 9, 7, 5)]
    assert report.l2 == [1e-2, 1e-1, 1e-3, 1e-2, 1e2, 1.0, 1e-1, 1e-3, 1e-1,
                         1e-1]
    report = linear_probe_node(golden_table(), runs=3, train_frac=0.5, seed=2)
    assert report.accuracies == [12 / 23, 18 / 23, 17 / 23]
    assert report.l2 == [1e1, 1e-3, 1e-1]


def test_report_records_chosen_penalty_per_fold():
    report = linear_probe_graph(separable_table(seed=7), folds=5, runs=2, seed=5)
    assert len(report.l2) == len(report.accuracies) == 10
    assert all(l2 in LAMBDA_GRID for l2 in report.l2)
    assert json.loads(report.to_json())["l2"] == report.l2


def test_probe_never_uses_tape(monkeypatch):
    def no_tape(self):
        raise AssertionError("the probe ran a tape backward pass")
    monkeypatch.setattr(Tensor, "backward", no_tape)
    table = separable_table(n=24, d=3, seed=12)
    linear_probe_graph(table, folds=3, runs=1, seed=0)
    linear_probe_node(table, runs=2, train_frac=0.5, seed=0)


def two_class_golden_table():
    table = golden_table()
    keep = table.labels < 2
    return EmbeddingTable(table.vectors[keep], table.labels[keep])


@pytest.mark.parametrize("table,relabel", [
    (golden_table(), lambda y: y * 2 + 1),
    (golden_table(), lambda y: y * 2 + 7),
    (two_class_golden_table(), lambda y: y + 1),
], ids=["gapped-from-1", "gapped-from-7", "one-and-two"])
def test_probe_labels_need_not_start_at_zero(table, relabel):
    moved = EmbeddingTable(table.vectors, relabel(table.labels))
    for probe, kwargs in ((linear_probe_graph, {"folds": 5, "runs": 1}),
                          (linear_probe_node, {"runs": 2, "train_frac": 0.5})):
        assert (probe(moved, seed=1, **kwargs).to_json()
                == probe(table, seed=1, **kwargs).to_json())


@pytest.mark.parametrize("probe", [linear_probe_graph, linear_probe_node])
def test_one_class_rejected(probe):
    """Both probes need two classes; the node probe failed inside numpy."""
    table = separable_table(n=20, seed=2)
    with pytest.raises(ValueError, match="probe needs at least two classes"):
        probe(EmbeddingTable(table.vectors, np.full(20, 3)), seed=0)


@pytest.mark.parametrize("probe", [linear_probe_graph, linear_probe_node])
def test_unlabeled_items_rejected(probe):
    table = separable_table(n=20, seed=2)
    labels = table.labels.copy()
    labels[5] = -1
    with pytest.raises(ValueError, match="non-negative"):
        probe(EmbeddingTable(table.vectors, labels), seed=0)
