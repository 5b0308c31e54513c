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
from graphaug.tudataset import Dataset, parse_tudataset


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
    assert np.array_equal(t1.labels, ds.labels())


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
    # every row written (path graph: all centers reachable)
    assert not np.allclose(table.vectors, 0.0)


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
        adam_step(params, adam, PROBE_LR)
    return w.data.copy(), b.data.copy()


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


@pytest.mark.parametrize("num_classes", [2, 3])
def test_logreg_gradient_matches_finite_differences(num_classes):
    x, y = stacked_problems(num_classes, (0, 5), n=12, d=3)
    onehot = np.eye(num_classes)[y].transpose(0, 2, 1)
    stream = RngStream(1, "fd")
    w0 = stream.uniform((2, 2, 3, num_classes)) - 0.5
    b0 = stream.uniform((2, 2, num_classes)) - 0.5
    l2s = np.array([[0.3, 5.0], [1.0, 0.01]])
    work = evaluation._logreg_work(x, 2, num_classes)
    _, grad_w, grad_b = evaluation._logreg_objective(x, onehot, w0, b0, l2s,
                                                     work)
    # the probes get their own buffers, which the gradients above live in
    fd_work = evaluation._logreg_work(x, 2, num_classes)
    fd_w = finite_diff_grad(lambda t: evaluation._logreg_objective(
        x, onehot, t.data, b0, l2s, fd_work)[0].sum(), Tensor(w0)).data
    fd_b = finite_diff_grad(lambda t: evaluation._logreg_objective(
        x, onehot, w0, t.data, l2s, fd_work)[0].sum(), Tensor(b0)).data
    assert np.allclose(grad_w, fd_w, rtol=1e-6, atol=1e-8)
    assert np.allclose(grad_b, fd_b, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("l2", [1e-3, 1.0, 1e3])
def test_stacked_fit_matches_tape_reference(l2):
    x, y = logreg_problem(3)
    w_ref, b_ref = _fit_logreg_tape(x, y, 3, l2)
    w, b = evaluation._fit_logreg_stack(x[None], y[None], 3, [[l2]])
    assert w.shape == (1, 1, 4, 3) and b.shape == (1, 1, 3)
    assert np.max(np.abs(w[0, 0] - w_ref)) <= 1e-9
    assert np.max(np.abs(b[0, 0] - b_ref)) <= 1e-9


def test_stack_slices_match_single_fits():
    x, y = stacked_problems(3, (4, 6))
    l2s = np.array([LAMBDA_GRID, LAMBDA_GRID[::-1]])
    w, b = evaluation._fit_logreg_stack(x, y, 3, l2s)
    assert w.shape == (2, len(LAMBDA_GRID), 4, 3)
    for s in range(2):
        for k in range(len(LAMBDA_GRID)):
            w1, b1 = evaluation._fit_logreg_stack(x[s:s + 1], y[s:s + 1], 3,
                                                  l2s[s:s + 1, k:k + 1])
            assert np.max(np.abs(w[s, k] - w1[0, 0])) <= 1e-12
            assert np.max(np.abs(b[s, k] - b1[0, 0])) <= 1e-12


def test_nonfinite_probe_loss_raises():
    # one bad split fails its whole stack
    x, y = stacked_problems(2, (0, 0))
    x[1, 3, 1] = np.nan
    with pytest.raises(TrainingDivergedError):
        evaluation._fit_logreg_stack(x, y, 2, [LAMBDA_GRID] * 2)


# -- the per-split reference: one fit per split, the probe before grouping ----------

def _objective_per_split(x, onehot, w, b, l2s):
    """One split: x (n, d), onehot (C, n), w (K, d, C), b (K, C), l2s (K,)."""
    n = len(x)
    logits = w.transpose(0, 2, 1) @ x.T + b[:, :, None]
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    s = e.sum(axis=1, keepdims=True)
    ce = np.log(s[:, 0]) + m[:, 0] - (logits * onehot).sum(axis=1)
    pen = l2s / n
    loss = ce.mean(axis=1) + (w * w).sum(axis=(1, 2)) * (pen / 2.0)
    resid = (e / s - onehot) / n
    grad_w = (resid @ x).transpose(0, 2, 1) + pen[:, None, None] * w
    return loss, grad_w, resid.sum(axis=2)


def fit_per_split(x, y, num_classes, l2s):
    """Weights (K, d, C) and biases (K, C) of one split's fits."""
    l2s = np.asarray(l2s, dtype=np.float64)
    params = ParameterSet()
    w = params.add("w", Tensor(np.zeros((len(l2s), x.shape[1], num_classes))))
    b = params.add("b", Tensor(np.zeros((len(l2s), num_classes))))
    onehot = np.eye(num_classes)[:, y]
    adam = AdamState()
    for _ in range(PROBE_EPOCHS):
        loss, grad_w, grad_b = _objective_per_split(x, onehot, w.data, b.data,
                                                    l2s)
        assert np.isfinite(loss).all()
        w.grad, b.grad = grad_w, grad_b
        adam_step(params, adam, PROBE_LR)
    return w.data, b.data


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
    y, num_classes, n_train = evaluation.node_probe_split(table.labels,
                                                          train_frac)
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
    w, b = evaluation._fit_logreg_stack(x, y, num_classes, l2s)
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
    # 3 x 7 x 7 x 112 logits are 129 KiB, past the 128 KiB mark
    n = 112 if num_classes == 7 and k == 7 else 30
    x_all, y_all = logreg_problem(num_classes, n=n + 20, d=9, seed=num_classes)
    stream = RngStream(k, "objective")
    rows = [np.sort(stream.permutation(n + 20)[:n]) for _ in range(3)]
    x = np.stack([evaluation._standardize(x_all[r])[0] for r in rows])
    onehot = np.eye(num_classes)[:, np.stack([y_all[r] for r in rows])]
    onehot = np.ascontiguousarray(onehot.swapaxes(0, 1))
    l2s = np.stack([np.roll(LAMBDA_GRID, 2 * s)[:k] for s in range(3)])
    work = evaluation._logreg_work(x, k, num_classes)
    if num_classes == 7 and k == 7:
        assert work["logits"].nbytes > 128 * 1024
    for step in range(3):              # the same buffers, refilled each call
        w = stream.uniform((3, k, 9, num_classes)) - 0.5
        b = stream.uniform((3, k, num_classes)) - 0.5
        loss, grad_w, grad_b = evaluation._logreg_objective(x, onehot, w, b,
                                                            l2s, work)
        for s in range(3):
            want = _objective_per_split(x[s], onehot[s], w[s], b[s], l2s[s])
            assert np.array_equal(loss[s], want[0])
            assert np.array_equal(grad_w[s], want[1])
            assert np.array_equal(grad_b[s], want[2])


def test_stack_fits_share_no_buffers():
    xa, ya = stacked_problems(3, (1, 2))
    xb, yb = stacked_problems(3, (3, 4, 5), n=24)
    first = evaluation._fit_logreg_stack(xa, ya, 3, [LAMBDA_GRID] * 2)
    evaluation._fit_logreg_stack(xb, yb, 3, [LAMBDA_GRID] * 3)
    again = evaluation._fit_logreg_stack(xa, ya, 3, [LAMBDA_GRID] * 2)
    assert all(np.array_equal(f, a) for f, a in zip(first, again))


@pytest.mark.parametrize("probe,kwargs,fits", [
    (linear_probe_graph, {"folds": 5, "runs": 2, "seed": 3}, 40),
    (linear_probe_node, {"runs": 3, "train_frac": 0.5, "seed": 2}, 12),
])
def test_report_records_each_stacked_fit(probe, kwargs, fits):
    report = probe(golden_table(), **kwargs)
    assert sum(row[1] for row in report.stacks) == fits
    for phase, splits, rows, penalties, seconds in report.stacks:
        assert phase in ("inner", "refit") and seconds > 0.0
        assert penalties == (len(LAMBDA_GRID) if phase == "inner" else 1)
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
    steps = []

    def counted(*args):
        steps.append(1)
        adam_step(*args)

    monkeypatch.setattr(evaluation, "adam_step", counted)
    report = linear_probe_graph(mutag_table, folds=10, runs=1, seed=5)
    rows = []
    accs, l2s = probe_graph_per_split(mutag_table, 10, 1, 5, rows)
    assert report.accuracies == accs and report.l2 == l2s
    assert len(rows) == 40                    # per-split fits: 10 x (3 + 1)
    assert len(steps) == PROBE_EPOCHS * len(set(rows)) == 2100


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
