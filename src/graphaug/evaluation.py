"""Frozen-encoder linear probes.

Graph protocol: stratified 10-fold cross-validation, repeated over fold
seeds. Node protocol: repeated random splits. The classifier is multinomial
logistic regression fit to its penalised optimum by Newton's method (no
autodiff tape); the L2 penalty is picked per training split by inner 3-fold
cross-validation over a log grid. Fits with the same number of training
rows are solved as stacks: first the inner fits, then the refits.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .encoders import encode
from .errors import DatasetError, TrainingDivergedError
# perfbench/spans.py wraps khop_bfs and adam_step here; --trace 1 needs them
from .graphs import batch_graphs, khop_bfs
from .optim import adam_step
from .rng import RngStream

LAMBDA_GRID = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)
NEWTON_TOL = 1e-8                # bound on a fit's gap to its optimum, nats
NEWTON_MAX_STEPS = 50            # per penalty; a fit that needs more raises
STACK_LIMIT = 1 << 15            # logits per stacked fit; bounds its memory
STACK_COLUMNS = ("phase", "splits", "rows", "penalties", "iterations",
                 "seconds")


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


def _report(accs: list, l2s: list, stacks: list, seed: int,
            protocol: str) -> ProbeReport:
    arr = np.asarray(accs, dtype=float)
    return ProbeReport(float(arr.mean()), float(arr.std()), list(map(float, arr)),
                       list(map(float, l2s)), seed, protocol, stacks)


# -- embedding --------------------------------------------------------------------


def embed_dataset(dataset, state, config) -> EmbeddingTable:
    """Frozen base-encoder embeddings (dropout off).

    Graph task: one graph vector per graph, ``config.batch_size`` graphs
    per encode, as a training step (on MUTAG within one propagate block).
    Node task: the node rows of one encode of the whole first graph, as
    DGI and MVGRL embed for their transductive probes.
    """
    theta = state.theta.detached()             # nothing walks an embed's tape
    if config.task == "graph":
        vecs = []
        for start in range(0, len(dataset.graphs), config.batch_size):
            part = dataset.graphs[start:start + config.batch_size]
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


def _cross_entropy(x1, xr, onehot, u, basis) -> tuple:
    """Unpenalised softmax cross-entropy (S,) of models u (S, (C-1)(d+1)),
    weights and bias ``basis @ u`` as (C-1, d+1), on inputs x1 (S, d+1, n)
    ending in ones (xr = x1 transposed), and its gradient and Hessian in u.
    The class curvature sums p_c p_e (q_c - q_e)(q_c - q_e)^T over pairs
    c < e, terms that no saturated probability cancels."""
    (s, d1, n), c1 = x1.shape, len(basis) - 1
    logits = (basis @ u.reshape(s, c1, d1)) @ x1   # 2-D products keep bits
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    z = e.sum(axis=1)
    p = e / z[:, None]
    ci, ei = np.triu_indices(c1 + 1, 1)
    diff = basis[ci] - basis[ei]
    gram = ((p[:, ci] * p[:, ei])[:, :, None] * x1[:, None]) @ xr[:, None]
    hess = (np.einsum("pa,pb->abp", diff, diff).reshape(c1 * c1, -1)
            @ gram.reshape(s, len(ci), -1) / n).reshape(
        s, c1, c1, d1, d1).transpose(0, 1, 3, 2, 4).reshape(s, c1 * d1, -1)
    return ((np.log(z) + m[:, 0] - (logits * onehot).sum(axis=1)).mean(axis=1),
            ((basis.T @ (p - onehot)) @ xr / n).reshape(s, -1), hess)


def _fit_logreg_stack(x: np.ndarray, y: np.ndarray, num_classes: int,
                      l2s: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Fits of one model per split and penalty: x (S, n, d), y (S, n) and
    l2s (S, K) give weights (S, K, d, C), biases (S, K, C) and the most
    Newton steps a split took. Newton's method with backtracking (Boyd and
    Vandenberghe, Convex Optimization, 9.5) runs in the classes' sum-zero
    subspace, which holds the optimum and keeps the Hessian regular. A split
    fits its penalties from the largest down, each from the one before, and
    stops, on its own line search, once half its squared Newton decrement
    (its gap to the optimum) is below NEWTON_TOL: so slice (s, :) is the fit
    of split s alone."""
    xr = np.concatenate([x, np.ones(x.shape[:2] + (1,))], axis=2)
    x1 = np.ascontiguousarray(xr.transpose(0, 2, 1))
    onehot = np.ascontiguousarray(np.eye(num_classes)[y].transpose(0, 2, 1))
    r, j = np.arange(num_classes)[:, None], np.arange(1, num_classes)
    basis = ((r < j) - j * (r == j)) / np.sqrt(j * j + j)   # Helmert's
    ridge = np.tile(np.arange(xr.shape[2]) < x.shape[2], num_classes - 1)
    u, steps, s = np.zeros((len(x), len(ridge))), 0, np.arange(len(x))
    fits = np.empty(l2s.shape + u.shape[1:])
    ce = _cross_entropy(x1, xr, onehot, u, basis)   # reused across penalties
    for k in np.argsort(-l2s, axis=1, kind="stable").T:
        pen = l2s[s, k][:, None] / x.shape[1] * ridge    # weights, not bias
        for _ in range(NEWTON_MAX_STEPS):
            loss, grad = ce[0] + (pen * u * u).sum(axis=1) / 2, ce[1] + pen * u
            hess = ce[2].copy()
            hess.reshape(len(u), -1)[:, ::len(ridge) + 1] += pen   # diagonal
            step = np.linalg.solve(hess, -grad[..., None])[..., 0]
            dec = -(grad * step).sum(axis=1)
            if not (np.isfinite(loss).all() and np.isfinite(dec).all()):
                raise TrainingDivergedError("probe fit is not finite")
            if not (going := dec > 2.0 * NEWTON_TOL).any():
                break
            t = going * 1.0
            while True:   # halve a step until it gains 1/4 of its prediction
                trial = u + t[:, None] * step
                terms = _cross_entropy(x1, xr, onehot, trial, basis)
                new = terms[0] + (pen * trial * trial).sum(axis=1) / 2
                if (ok := new <= loss - 0.25 * t * dec).all():
                    break
                t = np.where(ok, t, t / 2.0)
            u, ce, steps = trial, terms, steps + going
        else:
            raise TrainingDivergedError(f"probe fit not within {NEWTON_TOL:g} "
                                        f"in {NEWTON_MAX_STEPS} Newton steps")
        fits[s, k] = u
    wb = basis @ fits.reshape(l2s.shape + (num_classes - 1, -1))
    return wb[..., :-1].transpose(0, 1, 3, 2), wb[..., -1], int(np.max(steps))


def _fit_groups(x, y, num_classes, problems, phase, stacks) -> list:
    """Test accuracies (K,) of each ``(train_rows, test_rows, l2s)`` fit.
    Fits with the same number of training rows are stacked, at most
    STACK_LIMIT logits a stack, which bounds the memory of the (stack,
    class pairs, d + 1, n) product in ``_cross_entropy``, not time; each
    split is standardized on its own. Appends a STACK_COLUMNS row per
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
            w, b, steps = _fit_logreg_stack(
                xs, y[np.stack([problems[i][0] for i in stack])], num_classes,
                np.array([problems[i][2] for i in stack]))
            stacks.append((phase, len(stack), n, k, steps,
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
