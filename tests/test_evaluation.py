import json

import numpy as np
import pytest

from graphaug import evaluation
from graphaug.errors import DatasetError, TrainingDivergedError
from graphaug.evaluation import (
    LAMBDA_GRID, PROBE_EPOCHS, PROBE_LR, EmbeddingTable, embed_dataset,
    linear_probe_graph, linear_probe_node,
)
from graphaug.graphs import Graph
from graphaug.optim import AdamState, adam_step
from graphaug.rng import RngStream
from graphaug.tensor import ParameterSet, Tensor, finite_diff_grad
from graphaug.trainer import TrainConfig, init_state
from graphaug.tudataset import Dataset


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
                            np.ones(len(edges)), label=k % 2))
    return Dataset("EDS", graphs, 2, d_x)


def test_embed_rows_and_determinism():
    ds = graph_dataset()
    config = TrainConfig(hidden_dim=8, num_layers=1, seed=0, epochs=0)
    state = init_state(config, ds.feature_dim)
    t1 = embed_dataset(ds, state, config)
    t2 = embed_dataset(ds, state, config)
    assert t1.vectors.shape == (len(ds.graphs), 8)
    assert np.array_equal(t1.vectors, t2.vectors)
    assert np.array_equal(t1.labels, ds.labels())


def test_embed_zero_features_zero_encoder():
    graphs = [Graph(2, np.array([(0, 1), (1, 0)]), np.zeros((2, 3)),
                    np.ones(2), label=0),
              Graph(3, np.array([(0, 1), (1, 0)]), np.zeros((3, 3)),
                    np.ones(2), label=1)]
    ds = Dataset("ZERO", graphs, 2, 3)
    config = TrainConfig(hidden_dim=4, num_layers=1, seed=1, epochs=0)
    state = init_state(config, 3)
    table = embed_dataset(ds, state, config)
    assert np.allclose(table.vectors, 0.0)


def test_embed_node_task_writeback():
    stream = RngStream(4, "nt")
    n = 12
    edges = []
    for i in range(n - 1):
        edges += [(i, i + 1), (i + 1, i)]
    g = Graph(n, np.array(edges), stream.uniform((n, 4)), np.ones(len(edges)))
    node_labels = (np.arange(n) % 2).astype(np.int64)
    ds = Dataset("NT", [g], 2, 4, node_labels=[node_labels])
    config = TrainConfig(hidden_dim=6, num_layers=2, task="node", hops=2,
                         seed=2, epochs=0)
    state = init_state(config, 4)
    table = embed_dataset(ds, state, config)
    assert table.vectors.shape == (n, 6)
    assert np.array_equal(table.labels, node_labels)
    # every row written (path graph: all centers reachable)
    assert not np.allclose(table.vectors, 0.0)


def test_embed_node_task_without_labels_fails_before_embedding(monkeypatch):
    g = Graph(3, np.array([(0, 1), (1, 0)]), np.ones((3, 2)), np.ones(2))
    config = TrainConfig(hidden_dim=4, num_layers=1, task="node", seed=0,
                         epochs=0)

    def must_not_encode(*args, **kwargs):
        raise AssertionError("embedded before checking the node labels")

    monkeypatch.setattr(evaluation, "encode", must_not_encode)
    with pytest.raises(DatasetError, match="no node labels"):
        embed_dataset(Dataset("NT", [g], 2, 2), init_state(config, 2), config)


def test_node_probe_without_test_nodes_rejected():
    table = separable_table(n=24, seed=3)
    with pytest.raises(ValueError, match="24 of 24 nodes leaves no test"):
        linear_probe_node(table, runs=2, train_frac=0.99, seed=0)


def test_node_probe_twenty_runs_protocol():
    table = separable_table(n=24, d=3, seed=12)
    report = linear_probe_node(table, runs=20, train_frac=0.5, seed=1)
    assert len(report.accuracies) == 20
    assert report.mean >= 0.9


# -- the closed-form logistic-regression fit ----------------------------------------

def _fit_logreg_tape(x, y, num_classes, l2):
    """Reference: the same fit with the loss differentiated on the tape."""
    n, d = x.shape
    params = ParameterSet()
    w = params.add("w", Tensor(np.zeros((d, num_classes))))
    b = params.add("b", Tensor(np.zeros(num_classes)))
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    xt = Tensor(x)
    oh = Tensor(onehot)
    adam = AdamState()
    for _ in range(PROBE_EPOCHS):
        params.zero_grads()
        logits = xt @ w + b
        ce = (logits.logsumexp(axis=1) - (logits * oh).sum(axis=1)).mean()
        loss = ce + (w * w).sum() * (l2 / (2.0 * n))
        loss.backward()
        adam_step(params, {"w": w.grad, "b": b.grad}, adam, PROBE_LR)
    return w.data.copy(), b.data.copy()


def logreg_problem(num_classes, n=30, d=4, seed=0):
    stream = RngStream(seed, "logreg")
    y = np.arange(n) % num_classes
    x = stream.uniform((n, d)) * 2.0 - 1.0
    x[:, 0] += y
    return x, y


@pytest.mark.parametrize("num_classes", [2, 3])
def test_logreg_gradient_matches_finite_differences(num_classes):
    x, y = logreg_problem(num_classes, n=12, d=3)
    onehot = np.eye(num_classes)[:, y]
    stream = RngStream(1, "fd")
    w0 = stream.uniform((2, 3, num_classes)) - 0.5
    b0 = stream.uniform((2, num_classes)) - 0.5
    l2s = np.array([0.3, 5.0])
    _, grad_w, grad_b = evaluation._logreg_objective(x, onehot, w0, b0, l2s)
    fd_w = finite_diff_grad(lambda t: evaluation._logreg_objective(
        x, onehot, t.data, b0, l2s)[0].sum(), Tensor(w0)).data
    fd_b = finite_diff_grad(lambda t: evaluation._logreg_objective(
        x, onehot, w0, t.data, l2s)[0].sum(), Tensor(b0)).data
    assert np.allclose(grad_w, fd_w, rtol=1e-6, atol=1e-8)
    assert np.allclose(grad_b, fd_b, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("l2", [1e-3, 1.0, 1e3])
def test_stacked_fit_matches_tape_reference(l2):
    x, y = logreg_problem(3)
    w_ref, b_ref = _fit_logreg_tape(x, y, 3, l2)
    w, b = evaluation._fit_logreg_stack(x, y, 3, [l2])
    assert w.shape == (1, 4, 3) and b.shape == (1, 3)
    assert np.max(np.abs(w[0] - w_ref)) <= 1e-9
    assert np.max(np.abs(b[0] - b_ref)) <= 1e-9


def test_stack_slices_match_single_fits():
    x, y = logreg_problem(3, seed=4)
    w, b = evaluation._fit_logreg_stack(x, y, 3, LAMBDA_GRID)
    assert w.shape == (len(LAMBDA_GRID), 4, 3)
    for k, l2 in enumerate(LAMBDA_GRID):
        w1, b1 = evaluation._fit_logreg_stack(x, y, 3, [l2])
        assert np.max(np.abs(w[k] - w1[0])) <= 1e-12
        assert np.max(np.abs(b[k] - b1[0])) <= 1e-12


def test_nonfinite_probe_loss_raises():
    x, y = logreg_problem(2)
    x[3, 1] = np.nan
    with pytest.raises(TrainingDivergedError):
        evaluation._fit_logreg_stack(x, y, 2, LAMBDA_GRID)


def golden_table(n=45, d=4, seed=11):
    stream = RngStream(seed, "golden")
    labels = np.arange(n) % 3
    vectors = stream.uniform((n, d)) * 2.0 - 1.0
    vectors[:, 0] += 0.8 * labels
    vectors[:, 1] -= 0.5 * (labels == 1)
    return EmbeddingTable(vectors, labels)


def test_probe_golden_fold_accuracies():
    # recorded with the tape-based fit; the closed-form fit must agree
    report = linear_probe_graph(golden_table(), folds=5, runs=2, seed=3)
    assert report.accuracies == [k / 9 for k in (6, 7, 7, 8, 6, 8, 5, 8, 7, 5)]
    assert report.l2 == [1e-3, 1e-3, 1e-3, 1e-3, 1e2, 1.0, 1e-3, 1e3, 1e-3,
                         1e-1]
    report = linear_probe_node(golden_table(), runs=3, train_frac=0.5, seed=2)
    assert report.accuracies == [12 / 23, 15 / 23, 16 / 23]
    assert report.l2 == [1e1, 1e1, 1e-3]


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
def test_unlabeled_items_rejected(probe):
    table = separable_table(n=20, seed=2)
    labels = table.labels.copy()
    labels[5] = -1
    with pytest.raises(ValueError, match="non-negative"):
        probe(EmbeddingTable(table.vectors, labels), seed=0)
