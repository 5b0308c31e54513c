"""Frozen-encoder linear probes.

Graph protocol: stratified 10-fold cross-validation, repeated over fold
seeds. Node protocol: repeated random splits. The classifier is multinomial
logistic regression trained full-batch with Adam on a closed-form numpy
gradient (no autodiff tape); the L2 penalty is picked per training split by
inner 3-fold cross-validation over a log grid, all penalties of one split
fit as one stacked problem.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .encoders import encode
from .errors import TrainingDivergedError
from .graphs import batch_graphs, khop_bfs
from .optim import AdamState, adam_step
from .rng import RngStream
from .tensor import ParameterSet, Tensor

LAMBDA_GRID = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)
PROBE_EPOCHS = 300
PROBE_LR = 1e-2
EMBED_CHUNK = 64                 # graphs or node neighborhoods per encode


@dataclass
class EmbeddingTable:
    vectors: np.ndarray              # (n, d_h)
    labels: np.ndarray               # (n,)
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.vectors).all():
            raise ValueError("embeddings contain non-finite values")
        if len(self.vectors) != len(self.labels):
            raise ValueError("labels do not cover the embeddings")


@dataclass
class ProbeReport:
    mean: float
    std: float
    accuracies: list
    l2: list                         # chosen penalty, aligned with accuracies
    seed: int
    protocol: str

    def to_json(self) -> str:
        return json.dumps({
            "protocol": self.protocol, "seed": self.seed,
            "mean_accuracy": self.mean, "std_accuracy": self.std,
            "accuracies": self.accuracies, "l2": self.l2,
        }, indent=2)

    def to_csv_rows(self) -> list:
        rows = [("run", "accuracy")]
        rows += [(i, a) for i, a in enumerate(self.accuracies)]
        rows.append(("mean", self.mean))
        rows.append(("std", self.std))
        return rows


def _report(accs: list, l2s: list, seed: int, protocol: str) -> ProbeReport:
    arr = np.asarray(accs, dtype=float)
    return ProbeReport(float(arr.mean()), float(arr.std()), list(map(float, arr)),
                       list(map(float, l2s)), seed, protocol)


# -- embedding --------------------------------------------------------------------


def embed_dataset(dataset, state, config) -> EmbeddingTable:
    """Frozen base-encoder embeddings (dropout off).

    Graph task: one graph vector per graph. Node task: one node vector per
    original node of the first graph, via BFS neighborhoods centered on each
    node in turn (the center's row is written back).
    """
    enc_cfg = config.base_encoder(dataset.feature_dim)
    if config.task == "graph":
        vecs = []
        for start in range(0, len(dataset.graphs), EMBED_CHUNK):
            part = dataset.graphs[start:start + EMBED_CHUNK]
            enc = encode(batch_graphs(part), state.theta, enc_cfg)
            vecs.append(enc.graph_vector.data)
        vectors = np.concatenate(vecs, axis=0)
        labels = dataset.labels()
        return EmbeddingTable(vectors, labels,
                              {"dataset": dataset.name, "task": "graph"})
    g = dataset.graphs[0]
    vectors = np.zeros((g.num_nodes, config.hidden_dim))
    for start in range(0, g.num_nodes, EMBED_CHUNK):
        centers = range(start, min(start + EMBED_CHUNK, g.num_nodes))
        subs = [khop_bfs(g, c, config.hops) for c in centers]
        batch = batch_graphs(subs)
        enc = encode(batch, state.theta, enc_cfg)
        rows = batch.node_offsets + batch.centers
        vectors[batch.orig_ids[rows]] = enc.node_matrix.data[rows]
    if dataset.node_labels is None:
        raise ValueError("node-task probe needs node labels")
    labels = np.asarray(dataset.node_labels[0], dtype=np.int64)
    return EmbeddingTable(vectors, labels,
                          {"dataset": dataset.name, "task": "node"})


# -- logistic regression ----------------------------------------------------------


def _standardize(train_x, *others):
    mu = train_x.mean(axis=0)
    sd = train_x.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return tuple((x - mu) / sd for x in (train_x,) + others)


def _logreg_objective(x: np.ndarray, onehot: np.ndarray, w: np.ndarray,
                      b: np.ndarray, l2s: np.ndarray):
    """Penalized softmax cross-entropy of K stacked models and its gradient.

    ``x`` is (n, d), ``onehot`` is class-major (C, n), ``w`` is (K, d, C),
    ``b`` is (K, C) and ``l2s`` is (K,). Returns the per-model losses (K,)
    and the gradients w.r.t. ``w`` and ``b``:
    ``x.T @ (softmax - onehot) / n + (l2 / n) w`` and its column sums.
    Logits are laid out (K, C, n) so the reductions over the few classes run
    along contiguous rows of n samples, not along a length-C inner axis.
    """
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


def _fit_logreg_stack(x: np.ndarray, y: np.ndarray, num_classes: int,
                      l2s) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch Adam fits of one model per penalty in ``l2s`` on (x, y).

    Returns weights (K, d, C) and biases (K, C). Adam is elementwise, so
    slice k is the fit a lone model with penalty ``l2s[k]`` would get.
    """
    l2s = np.asarray(l2s, dtype=np.float64)
    d = x.shape[1]
    params = ParameterSet()
    w = params.add("w", Tensor(np.zeros((len(l2s), d, num_classes))))
    b = params.add("b", Tensor(np.zeros((len(l2s), num_classes))))
    onehot = np.eye(num_classes)[:, y]
    adam = AdamState()
    for _ in range(PROBE_EPOCHS):
        loss, grad_w, grad_b = _logreg_objective(x, onehot, w.data, b.data, l2s)
        if not np.isfinite(loss).all():
            raise TrainingDivergedError(
                f"probe loss is not finite at step {adam.step}")
        adam_step(params, {"w": grad_w, "b": grad_b}, adam, PROBE_LR)
    return w.data, b.data


def _accuracies(w, b, x, y) -> np.ndarray:
    """Test accuracy of each stacked model."""
    pred = np.argmax(x @ w + b[:, None, :], axis=2)
    return (pred == y).mean(axis=1)


def _fit_and_score(x_train, y_train, x_test, y_test, num_classes,
                   l2s) -> np.ndarray:
    """Standardize on the training rows, fit one model per penalty and
    return each model's test accuracy."""
    xtr, xte = _standardize(x_train, x_test)
    w, b = _fit_logreg_stack(xtr, y_train, num_classes, l2s)
    return _accuracies(w, b, xte, y_test)


def _stratified_folds(labels: np.ndarray, folds: int, stream: RngStream):
    """Round-robin fold assignment per class after a seeded shuffle."""
    assignment = np.zeros(len(labels), dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < 2:
            raise ValueError(
                f"class {cls} has fewer than 2 items; cannot stratify")
        idx = idx[stream.permutation(len(idx))]
        assignment[idx] = np.arange(len(idx)) % folds
    return assignment


def _select_l2(x, y, num_classes, stream: RngStream) -> float:
    """Inner 3-fold CV over the penalty grid; first best wins.

    All penalties of one inner split are fit as one stack.
    """
    inner = _stratified_folds(y, 3, stream)
    accs = []
    for f in range(3):
        tr, te = inner != f, inner == f
        if te.sum() == 0 or len(np.unique(y[tr])) < num_classes:
            continue
        accs.append(_fit_and_score(x[tr], y[tr], x[te], y[te], num_classes,
                                   LAMBDA_GRID))
    if not accs:
        return LAMBDA_GRID[0]
    return LAMBDA_GRID[int(np.argmax(np.mean(accs, axis=0)))]


def _class_indices(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Map labels onto 0..C-1 in sorted order; unlabeled (-1) is an error."""
    labels = np.asarray(labels)
    if (labels < 0).any():
        raise ValueError("probe labels must be non-negative "
                         "(unlabeled items carry -1)")
    classes, y = np.unique(labels, return_inverse=True)
    return y, len(classes)


def linear_probe_graph(table: EmbeddingTable, folds: int = 10, runs: int = 5,
                       seed: int = 0) -> ProbeReport:
    """Stratified k-fold probe, repeated with different fold seeds."""
    if folds < 2 or runs < 1:
        raise ValueError(f"need folds >= 2 and runs >= 1, got folds={folds} "
                         f"and runs={runs}")
    x = table.vectors
    y, num_classes = _class_indices(table.labels)
    if num_classes < 2:
        raise ValueError("probe needs at least two classes")
    accs, l2s = [], []
    for run in range(runs):
        stream = RngStream(seed + run, "probe-folds")
        assignment = _stratified_folds(y, folds, stream)
        for f in range(folds):
            tr, te = assignment != f, assignment == f
            if te.sum() == 0:
                continue
            l2 = _select_l2(x[tr], y[tr], num_classes, stream.split(f"l2-{f}"))
            accs.append(_fit_and_score(x[tr], y[tr], x[te], y[te],
                                       num_classes, [l2])[0])
            l2s.append(l2)
    return _report(accs, l2s, seed, f"{folds}-fold x {runs} runs")


def linear_probe_node(table: EmbeddingTable, runs: int = 20,
                      train_frac: float = 0.1, seed: int = 0) -> ProbeReport:
    """Random-split probe over ``runs`` different splits."""
    if not (0.0 < train_frac < 1.0):
        raise ValueError("train_frac must be in (0, 1)")
    if runs < 1:
        raise ValueError(f"need runs >= 1, got {runs}")
    x = table.vectors
    y, num_classes = _class_indices(table.labels)
    accs, l2s = [], []
    for run in range(runs):
        stream = RngStream(seed + run, "probe-splits")
        order = stream.permutation(len(y))
        n_train = max(num_classes, int(round(train_frac * len(y))))
        tr_idx, te_idx = order[:n_train], order[n_train:]
        if len(np.unique(y[tr_idx])) < num_classes:
            # re-draw once with a derived stream; then accept the split
            order = stream.split("retry").permutation(len(y))
            tr_idx, te_idx = order[:n_train], order[n_train:]
        l2 = _select_l2(x[tr_idx], y[tr_idx], num_classes,
                        stream.split("l2")) \
            if len(np.unique(y[tr_idx])) == num_classes else LAMBDA_GRID[0]
        accs.append(_fit_and_score(x[tr_idx], y[tr_idx], x[te_idx], y[te_idx],
                                   num_classes, [l2])[0])
        l2s.append(l2)
    return _report(accs, l2s, seed, f"{runs} random splits @ {train_frac}")
