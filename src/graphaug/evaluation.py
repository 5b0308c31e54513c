"""Frozen-encoder linear probes.

Graph protocol: stratified 10-fold cross-validation, repeated over fold
seeds. Node protocol: repeated random splits. The classifier is multinomial
logistic regression trained full-batch with Adam on a closed-form numpy
gradient (no autodiff tape); the L2 penalty is picked per training split by
inner 3-fold cross-validation over a log grid. Fits with the same number of
training rows are solved as stacks: first the inner fits, then the refits.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .encoders import encode
from .errors import DatasetError, TrainingDivergedError
# perfbench/spans.py wraps khop_bfs here; --trace 1 fails on entry without it
from .graphs import batch_graphs, khop_bfs
from .optim import AdamState, adam_step
from .rng import RngStream
from .tensor import ParameterSet, Tensor

LAMBDA_GRID = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)
PROBE_EPOCHS = 300
PROBE_LR = 1e-2
EMBED_CHUNK = 64                 # graphs per encode
STACK_LIMIT = 1 << 15            # logits per stacked fit (256 KiB of float64)
STACK_COLUMNS = ("phase", "splits", "rows", "penalties", "seconds")


@dataclass
class EmbeddingTable:
    vectors: np.ndarray              # (n, d_h)
    labels: np.ndarray               # (n,)

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
    stacks: list                     # one STACK_COLUMNS row per stacked fit

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


def _report(accs: list, l2s: list, stacks: list, seed: int,
            protocol: str) -> ProbeReport:
    arr = np.asarray(accs, dtype=float)
    return ProbeReport(float(arr.mean()), float(arr.std()), list(map(float, arr)),
                       list(map(float, l2s)), seed, protocol, stacks)


# -- embedding --------------------------------------------------------------------


def embed_dataset(dataset, state, config) -> EmbeddingTable:
    """Frozen base-encoder embeddings (dropout off).

    Graph task: one graph vector per graph, ``EMBED_CHUNK`` graphs per
    encode. Node task: the node rows of one encode of the whole first graph,
    as DGI and MVGRL embed for their transductive probes.
    """
    theta = state.theta.detached()             # nothing walks an embed's tape
    if config.task == "graph":
        vecs = []
        for start in range(0, len(dataset.graphs), EMBED_CHUNK):
            part = dataset.graphs[start:start + EMBED_CHUNK]
            enc = encode(batch_graphs(part), theta)
            vecs.append(enc.graph_vector.data)
        vectors = np.concatenate(vecs, axis=0)
        labels = dataset.labels()
        return EmbeddingTable(vectors, labels)
    if dataset.node_labels is None:
        raise DatasetError(f"{dataset.name} has no node labels, which the "
                           "node task needs as probe targets")
    vectors = encode(dataset.graphs[0], theta).node_matrix.data
    labels = np.asarray(dataset.node_labels[0], dtype=np.int64)
    return EmbeddingTable(vectors, labels)


# -- logistic regression ----------------------------------------------------------


def _standardize(train_x, *others):
    mu = train_x.mean(axis=0)
    sd = train_x.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return tuple((x - mu) / sd for x in (train_x,) + others)


def _logreg_work(x: np.ndarray, k: int, num_classes: int) -> dict:
    """Arrays a stack's objective reuses at every step: ``xt``, x
    transposed to a C-contiguous (S, 1, d, n) (the product on a strided
    view ran about three times slower; on the copy it keeps its bits), and
    buffers for the (S, K, C, n) logits, exp and residual, the (S, K, C, d)
    product ``resid @ x`` and the two gradients."""
    s, n, d = x.shape
    return {"xt": np.ascontiguousarray(x.transpose(0, 2, 1)[:, None]),
            "logits": np.empty((s, k, num_classes, n)),
            "e": np.empty((s, k, num_classes, n)),
            "resid": np.empty((s, k, num_classes, n)),
            "xr": np.empty((s, k, num_classes, d)),
            "grad_w": np.empty((s, k, d, num_classes)),
            "grad_b": np.empty((s, k, num_classes))}


def _logreg_objective(x, onehot, w, b, l2s, work) -> tuple:
    """Penalized softmax cross-entropy of S splits x K models and its gradient.

    ``x`` is (S, n, d), ``onehot`` is class-major (S, C, n), ``w`` is
    (S, K, d, C), ``b`` is (S, K, C) and ``l2s`` is (S, K). Returns the
    per-model losses (S, K) and the gradients w.r.t. ``w`` and ``b``:
    ``x.T @ (softmax - onehot) / n + (l2 / n) w`` and its column sums.
    Logits are laid out (S, K, C, n): each (s, k) item is a lone model's
    2-D product (C, d) @ (d, n), which keeps its bits (a product over
    stacked rows would not), and class reductions run on contiguous rows.
    ``work`` is ``_logreg_work(x, K, C)``; the returned gradients live in
    it, so the next call overwrites them.
    """
    n = x.shape[1]
    logits, e, resid = work["logits"], work["e"], work["resid"]
    np.matmul(w.transpose(0, 1, 3, 2), work["xt"], out=logits)
    logits += b[..., None]
    m = logits.max(axis=2, keepdims=True)
    np.subtract(logits, m, out=e)
    np.exp(e, out=e)
    s = e.sum(axis=2, keepdims=True)
    onehot = onehot[:, None]
    np.multiply(logits, onehot, out=resid)
    ce = np.log(s[:, :, 0]) + m[:, :, 0] - resid.sum(axis=2)
    pen = l2s / n
    loss = ce.mean(axis=2) + (w * w).sum(axis=(2, 3)) * (pen / 2.0)
    np.divide(e, s, out=resid)
    resid -= onehot
    resid /= n
    grad_w = np.multiply(pen[..., None, None], w, out=work["grad_w"])
    grad_w += np.matmul(resid, x[:, None], out=work["xr"]).transpose(0, 1, 3, 2)
    return loss, grad_w, resid.sum(axis=3, out=work["grad_b"])


def _fit_logreg_stack(x: np.ndarray, y: np.ndarray, num_classes: int,
                      l2s) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch Adam fits of one model per split and penalty: x (S, n, d),
    y (S, n) and l2s (S, K) give weights (S, K, d, C) and biases (S, K, C).
    Adam is elementwise, so slice (s, k) is the fit of a lone model."""
    l2s = np.asarray(l2s, dtype=np.float64)
    params = ParameterSet()
    w = params.add("w", Tensor(np.zeros(l2s.shape + (x.shape[2], num_classes))))
    b = params.add("b", Tensor(np.zeros(l2s.shape + (num_classes,))))
    onehot = np.ascontiguousarray(np.eye(num_classes)[:, y].swapaxes(0, 1))
    work = _logreg_work(x, l2s.shape[1], num_classes)
    adam = AdamState()
    for _ in range(PROBE_EPOCHS):
        loss, w.grad, b.grad = _logreg_objective(x, onehot, w.data, b.data,
                                                 l2s, work)
        if not np.isfinite(loss).all():
            raise TrainingDivergedError(
                f"probe loss is not finite at step {adam.step}")
        adam_step(params, adam, PROBE_LR)
    return w.data, b.data


def _fit_groups(x, y, num_classes, problems, phase, stacks) -> list:
    """Test accuracies (K,) of each ``(train_rows, test_rows, l2s)`` fit.
    Fits with the same number of training rows are stacked, at most
    STACK_LIMIT logits a stack (larger ones ran slower from cache misses);
    each split is standardized on its own. Appends a STACK_COLUMNS row per
    stack to ``stacks``."""
    groups = {}
    for i, (train, _, l2s) in enumerate(problems):
        groups.setdefault((len(train), len(l2s)), []).append(i)
    accs = [None] * len(problems)
    for (n, k), group in groups.items():
        size = max(1, STACK_LIMIT // (k * num_classes * n))
        for stack in (group[j:j + size] for j in range(0, len(group), size)):
            xs, tests = np.empty((len(stack), n, x.shape[1])), []
            for s, i in enumerate(stack):
                train, test, _ = problems[i]
                xs[s], x_test = _standardize(x[train], x[test])
                tests.append((x_test, y[test]))
            start = time.perf_counter()
            w, b = _fit_logreg_stack(
                xs, y[np.stack([problems[i][0] for i in stack])], num_classes,
                [problems[i][2] for i in stack])
            stacks.append((phase, len(stack), n, k,
                           time.perf_counter() - start))
            for s, (x_test, y_test) in enumerate(tests):
                pred = np.argmax(x_test @ w[s] + b[s][:, None, :], axis=2)
                accs[stack[s]] = (pred == y_test).mean(axis=1)
    return accs


def _stratified_folds(labels: np.ndarray, folds: int, stream: RngStream):
    """Round-robin fold assignment per class after a seeded shuffle."""
    assignment = np.zeros(len(labels), dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[stream.permutation(len(idx))]
        assignment[idx] = np.arange(len(idx)) % folds
    return assignment


def _probe_splits(x, y, num_classes, splits) -> tuple[list, list, list]:
    """Test accuracy and chosen penalty of each ``(train_rows, test_rows,
    stream)`` split, by inner 3-fold CV on the training rows folded with
    ``stream`` (first best wins; inner splits with no test row or a missing
    class are skipped, and with none left the grid's first penalty wins),
    and the STACK_COLUMNS rows of the stacked fits."""
    inner = []                            # (split, train rows, test rows)
    for k, (train, _, stream) in enumerate(splits):
        fold = _stratified_folds(y[train], 3, stream)
        for f in range(3):
            tr, te = train[fold != f], train[fold == f]
            if len(te) and len(np.unique(y[tr])) == num_classes:
                inner.append((k, tr, te))
    scores, stacks = [[] for _ in splits], []
    for (k, _, _), acc in zip(inner, _fit_groups(
            x, y, num_classes, [(tr, te, LAMBDA_GRID) for _, tr, te in inner],
            "inner", stacks)):
        scores[k].append(acc)
    l2s = [LAMBDA_GRID[int(np.argmax(np.mean(acc, axis=0)))] if acc
           else LAMBDA_GRID[0] for acc in scores]
    accs = _fit_groups(x, y, num_classes, [
        (train, test, (l2,)) for (train, test, _), l2 in zip(splits, l2s)],
        "refit", stacks)
    return [acc[0] for acc in accs], l2s, stacks


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
    y, num_classes = _class_indices(table.labels)
    if num_classes < 2:
        raise ValueError("probe needs at least two classes")
    classes, counts = np.unique(table.labels, return_counts=True)
    rare = classes[counts < 2]                   # inner folds may have one
    if len(rare):
        raise ValueError(f"class {rare[0]} has fewer than 2 items; cannot "
                         "stratify")
    splits = []
    for run in range(runs):
        stream = RngStream(seed + run, "probe-folds")
        assignment = _stratified_folds(y, folds, stream)
        for f in range(folds):
            test = np.flatnonzero(assignment == f)
            if len(test):
                splits.append((np.flatnonzero(assignment != f), test,
                               stream.split(f"l2-{f}")))
    return _report(*_probe_splits(table.vectors, y, num_classes, splits),
                   seed, f"{folds}-fold x {runs} runs")


def node_probe_split(labels: np.ndarray, train_frac: float) -> tuple:
    """Class indices, class count and train size of a node-probe split."""
    if not (0.0 < train_frac < 1.0):
        raise ValueError("train_frac must be in (0, 1)")
    y, num_classes = _class_indices(labels)
    n_train = max(num_classes, int(round(train_frac * len(y))))
    if n_train >= len(y):
        raise ValueError(f"a train split of {n_train} of {len(y)} nodes "
                         "leaves no test node")
    return y, num_classes, n_train


def linear_probe_node(table: EmbeddingTable, runs: int = 20,
                      train_frac: float = 0.1, seed: int = 0) -> ProbeReport:
    """Random-split probe over ``runs`` different splits."""
    if runs < 1:
        raise ValueError(f"need runs >= 1, got {runs}")
    y, num_classes, n_train = node_probe_split(table.labels, train_frac)
    splits = []
    for run in range(runs):
        stream = RngStream(seed + run, "probe-splits")
        order = stream.permutation(len(y))
        if len(np.unique(y[order[:n_train]])) < num_classes:
            # re-draw once with a derived stream; then accept the split
            order = stream.split("retry").permutation(len(y))
        splits.append((order[:n_train], order[n_train:], stream.split("l2")))
    return _report(*_probe_splits(table.vectors, y, num_classes, splits),
                   seed, f"{runs} random splits @ {train_frac}")
