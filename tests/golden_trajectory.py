"""Golden training trajectory: what it holds, how to record it, how to compare.

``test_golden.py`` replays the runs below and compares them with the
recorded ``golden_trajectory.json``:

- 2 MUTAG epochs (12 steps) with the GRU policy at seeds 3, 5 and 7, and a
  5-fold x 1 run probe of the seed-5 encoder they train;
- 10 node-task steps on a seeded graph built here.

Every step records ``aug_i``, ``aug_j`` and ``coin``, compared exactly, and
``loss``, ``p_i`` and ``p_j``, compared to a relative 1e-9: the last bits
move with the BLAS thread count and the numpy build. Only a change that
moves results on purpose regenerates the file, and lists the old and new
values where it records the change. To regenerate::

    PYTHONPATH=src python tests/golden_trajectory.py [SECTION ...]

Named sections (``mutag``, ``probe``, ``node``) replace only those and keep
the others' recorded bits; with none, every section is recorded again.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from graphaug.evaluation import embed_dataset, linear_probe_graph
from graphaug.graphs import Graph
from graphaug.rng import RngStream
from graphaug.trainer import TrainConfig, train
from graphaug.tudataset import Dataset, parse_tudataset

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden_trajectory.json"
MUTAG_DIR = HERE.parent / "data" / "MUTAG"
MUTAG_SEEDS = (3, 5, 7)
PROBE_SEED = 5
REL_TOL = 1e-9
EXACT = ("epoch", "step", "aug_i", "aug_j", "coin")
CLOSE = ("loss", "p_i", "p_j")


def node_graph_dataset(n: int = 40, d_x: int = 6) -> Dataset:
    """A seeded sparse graph: a path through every node plus random chords."""
    stream = RngStream(11, "golden-node-graph")
    pairs = {(i, i + 1) for i in range(n - 1)}
    for _ in range(n):
        u, v = (int(a) for a in stream.integers(0, n, size=2))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    pairs = np.array(sorted(pairs), dtype=np.int64)
    edges = np.concatenate([pairs, pairs[:, ::-1]], axis=0)
    feats = stream.uniform((n, d_x))
    return Dataset("GOLDEN-NODE", [Graph(n, edges, feats, np.ones(len(edges)))],
                   0, d_x)


def _steps(metrics: list) -> list:
    return [{k: row[k] for k in EXACT + CLOSE} for row in metrics]


def record() -> dict:
    """Run every golden workload and return its trajectory."""
    ds = parse_tudataset(MUTAG_DIR)
    mutag = {}
    for seed in MUTAG_SEEDS:
        config = TrainConfig(epochs=2, seed=seed)
        state, metrics, _ = train(ds, config)
        mutag[str(seed)] = _steps(metrics)
        if seed == PROBE_SEED:
            report = linear_probe_graph(embed_dataset(ds, state, config),
                                        folds=5, runs=1, seed=seed)
            probe = {"accuracies": report.accuracies, "l2": report.l2}
    # 40 nodes in batches of 4 neighbourhoods: one epoch is 10 steps
    node_config = TrainConfig(task="node", epochs=1, node_batch_subgraphs=4,
                              hops=2, hidden_dim=16, seed=5)
    _, node_metrics, _ = train(node_graph_dataset(), node_config)
    return {"mutag": mutag, "probe": probe, "node": _steps(node_metrics)}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def differences(want: dict, got: dict) -> list[str]:
    """Every way ``got`` departs from ``want``, one readable line each."""
    out = []
    runs = [(f"mutag seed {s}", want["mutag"][s], got["mutag"].get(s, []))
            for s in want["mutag"]]
    runs.append(("node", want["node"], got["node"]))
    for name, w_steps, g_steps in runs:
        if len(w_steps) != len(g_steps):
            out.append(f"{name}: {len(g_steps)} steps, golden has "
                       f"{len(w_steps)}")
        for w, g in zip(w_steps, g_steps):
            for key in EXACT:
                if w[key] != g[key]:
                    out.append(f"{name} step {w['step']}: {key} is "
                               f"{g[key]!r}, golden {w[key]!r}")
            for key in CLOSE:
                if not _close(w[key], g[key]):
                    out.append(f"{name} step {w['step']}: {key} is "
                               f"{g[key]!r}, golden {w[key]!r}")
    w_probe, g_probe = want["probe"], got["probe"]
    if w_probe["l2"] != g_probe["l2"]:
        out.append(f"probe: chosen l2 {g_probe['l2']}, golden "
                   f"{w_probe['l2']}")
    if len(w_probe["accuracies"]) != len(g_probe["accuracies"]) or not all(
            _close(w, g) for w, g in zip(w_probe["accuracies"],
                                         g_probe["accuracies"])):
        out.append(f"probe: accuracies {g_probe['accuracies']}, golden "
                   f"{w_probe['accuracies']}")
    return out


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    golden = record()
    if sys.argv[1:]:
        golden = {**load(), **{name: golden[name] for name in sys.argv[1:]}}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
