"""The three benchmark workloads, their output checks and failure counts.

Each workload has a ``setup`` (program set-up calls only, timed as
``setup_s``) and a ``run`` that performs one pass of fixed work on a fresh
set-up and returns a :class:`Pass`. Library functions are called through
their modules (``trainer.train(...)``) so the traced run can patch them.
"""
from __future__ import annotations

import math
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from graphaug import evaluation, graphs, trainer, tudataset

import synth

NODE_STEPS = 100            # p90 then has 10 samples beyond it
FINAL_LOSS_WINDOW = 20
PROBE_FOLDS = 10


class Ledger:
    """Counts attempted and failed operations and records why each failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, what, fn, *args, ops: int = 1):
        """Run one library operation (worth ``ops`` operations); None if it
        raised."""
        self.attempted += ops
        try:
            return fn(*args)
        except Exception as exc:     # a failed operation is counted, not fatal
            traceback.print_exc()
            self.fail(f"{what} raised {type(exc).__name__}: {exc}", ops)
            return None

    def fail(self, why: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems.append(why)


@dataclass
class Pass:
    run_s: float = 0.0
    step_s: list = field(default_factory=list)      # per train_step call
    trained_graphs: int = 0
    train_s: float = 0.0                           # incl. node batch building
    embed_s: list = field(default_factory=list)    # per embed_dataset call
    probe_s: float | None = None
    final_loss: float | None = None
    probe_acc: float | None = None


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _final_loss(losses: list) -> float:
    return float(np.mean(losses[-FINAL_LOSS_WINDOW:]))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def _embed(ledger, rec: Pass, dataset, state, config):
    table, seconds = _timed(ledger.call, "embed_dataset",
                            evaluation.embed_dataset, dataset, state, config)
    rec.embed_s.append(seconds)
    return table


def state_differences(a, b) -> list:
    """Names of everything that differs between two training states."""
    diffs = []
    for gname in trainer.GROUPS:
        pa, pb = a.group(gname), b.group(gname)
        if pa.names() != pb.names():
            diffs.append(f"params/{gname} names")
        diffs += [f"params/{gname}/{n}" for n, t in pa.items()
                  if n in pb and not _same_bits(t.data, pb[n].data)]
        sa, sb = a.adam[gname], b.adam[gname]
        if sa.step != sb.step:
            diffs.append(f"adam/{gname}/step")
        for moment in ("m", "v"):
            ma, mb = getattr(sa, moment), getattr(sb, moment)
            if ma.keys() != mb.keys() or not all(
                    _same_bits(ma[k], mb[k]) for k in ma):
                diffs.append(f"adam/{gname}/{moment}")
    for attr in ("sample_root", "shuffle_stream", "coin_stream"):
        if getattr(a, attr).get_state() != getattr(b, attr).get_state():
            diffs.append(f"stream {attr}")
    diffs += [attr for attr in ("input_dim", "epoch", "step", "best_loss",
                                "stale") if getattr(a, attr) != getattr(b, attr)]
    return diffs


class MutagTrain:
    """20 epochs of ``train()`` on MUTAG with the GRU policy, then a
    checkpoint round trip and embeddings from the reloaded state."""

    name = "mutag-train"
    quality = "final_loss"

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.data_dir = root / "data" / "MUTAG"
        self.out_dir = out_dir
        self.config = trainer.TrainConfig(
            epochs=20, batch_size=32, hidden_dim=32, num_layers=2,
            policy_kind="gru", estimator="jsd", discriminator="dot",
            seed=seed)

    def setup(self):
        dataset = tudataset.parse_tudataset(self.data_dir)
        return dataset, trainer.init_state(self.config, dataset.feature_dim)

    def run(self, ctx, ledger: Ledger) -> Pass:
        dataset, state = ctx
        cfg, rec = self.config, Pass()
        expected = cfg.epochs * math.ceil(len(dataset) / cfg.batch_size)
        t_start = time.perf_counter()

        inner = trainer.train_step

        def timed_step(batch, *args):
            t0 = time.perf_counter()
            out = inner(batch, *args)
            rec.step_s.append(time.perf_counter() - t0)
            rec.trained_graphs += batch.num_graphs
            return out

        trainer.train_step = timed_step
        try:
            result, rec.train_s = _timed(ledger.call, "train", trainer.train,
                                         dataset, cfg, state, ops=expected)
        finally:
            trainer.train_step = inner
        if result is None:
            rec.run_s = time.perf_counter() - t_start
            return rec
        state, rows, frequencies = result
        losses = [r["loss"] for r in rows]
        if len(losses) != expected:
            ledger.fail(f"train ran {len(losses)} steps, expected {expected}",
                        abs(expected - len(losses)))
        bad = sum(not math.isfinite(x) for x in losses)
        if bad:
            ledger.fail(f"{bad} non-finite step losses", bad)
        if len(frequencies) != cfg.epochs:
            ledger.fail(f"{len(frequencies)} frequency rows, "
                        f"expected {cfg.epochs}")
        for row in frequencies:
            total = sum(v for k, v in row.items() if k != "epoch")
            if abs(total - 1.0) > 1e-12:
                ledger.fail(f"epoch {row['epoch']} frequencies sum to {total}")
        if losses:
            rec.final_loss = _final_loss(losses)

        path = self.out_dir / f"{self.name}-{os.getpid()}.ckpt"
        try:
            ledger.call("save_checkpoint", trainer.save_checkpoint,
                        state, cfg, path)
            loaded = ledger.call("load_checkpoint", trainer.load_checkpoint,
                                 path)
        finally:
            path.unlink(missing_ok=True)
        if loaded is not None:
            loaded_state, loaded_cfg = loaded
            diffs = state_differences(state, loaded_state)
            if loaded_cfg != cfg:
                diffs.append("config")
            if diffs:
                ledger.fail("checkpoint round trip changed "
                            + ", ".join(diffs[:5]))
            reference = ledger.call("embed_dataset", evaluation.embed_dataset,
                                    dataset, state, cfg)
            table = _embed(ledger, rec, dataset, loaded_state, cfg)
            if reference is not None and table is not None \
                    and not _same_bits(table.vectors, reference.vectors):
                ledger.fail("embeddings from the reloaded state differ")
        rec.run_s = time.perf_counter() - t_start
        return rec


class MutagProbe:
    """Untrained encoder from ``init_state``: embed MUTAG, then one 10-fold
    linear probe."""

    name = "mutag-probe"
    quality = "probe_acc"

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.data_dir = root / "data" / "MUTAG"
        self.seed = seed
        self.config = trainer.TrainConfig(hidden_dim=32, num_layers=2,
                                          seed=seed)

    def setup(self):
        dataset = tudataset.parse_tudataset(self.data_dir)
        return dataset, trainer.init_state(self.config, dataset.feature_dim)

    def run(self, ctx, ledger: Ledger) -> Pass:
        dataset, state = ctx
        rec = Pass()
        t_start = time.perf_counter()
        table = _embed(ledger, rec, dataset, state, self.config)
        if table is not None:
            report, probe_s = _timed(
                ledger.call, "linear_probe_graph",
                evaluation.linear_probe_graph, table, PROBE_FOLDS, 1,
                self.seed)
            rec.probe_s = rec.embed_s[0] + probe_s
            if report is not None:
                accs = report.accuracies
                if len(accs) != PROBE_FOLDS:
                    ledger.fail(f"probe gave {len(accs)} fold accuracies")
                if not all(0.0 <= a <= 1.0 for a in accs):
                    ledger.fail(f"fold accuracy out of [0, 1]: {accs}")
                rec.probe_acc = report.mean
        rec.run_s = time.perf_counter() - t_start
        return rec


class NodeSynth:
    """Node task on the synthetic Cora-shaped graph: ``NODE_STEPS`` steps of
    batch construction plus ``train_step`` (GCN base encoder, random
    policy), then node embeddings for every node."""

    name = "node-synth"
    quality = "final_loss"

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.arrays = synth.generate(seed)   # input generation, not set-up
        self.config = trainer.TrainConfig(
            task="node", policy_kind="random", hidden_dim=32, num_layers=2,
            node_batch_subgraphs=8, hops=2, seed=seed)

    def setup(self):
        a = self.arrays
        g = graphs.Graph(len(a.labels), a.edges, a.features,
                         np.ones(len(a.edges)))
        dataset = tudataset.Dataset("node-synth", [g], synth.NUM_CLASSES,
                                    synth.FEATURE_DIM, node_labels=[a.labels])
        return dataset, trainer.init_state(self.config, dataset.feature_dim)

    def run(self, ctx, ledger: Ledger) -> Pass:
        dataset, state = ctx
        cfg, rec = self.config, Pass()
        g = dataset.graphs[0]
        t_start = time.perf_counter()

        def step(k):
            t0 = time.perf_counter()
            batch = graphs.make_node_task_batch(
                g, cfg.node_batch_subgraphs, cfg.hops,
                state.sample_root.split(f"nodebatch{k}"))
            t1 = time.perf_counter()
            result = trainer.train_step(batch, state, cfg)
            t2 = time.perf_counter()
            rec.step_s.append(t2 - t1)
            rec.train_s += t2 - t0
            rec.trained_graphs += batch.num_graphs
            return result.loss

        losses = [ledger.call("train_step", step, k) for k in range(NODE_STEPS)]
        losses = [x for x in losses if x is not None]
        bad = sum(not math.isfinite(x) for x in losses)
        if bad:
            ledger.fail(f"{bad} non-finite step losses", bad)
        if losses:
            rec.final_loss = _final_loss(losses)

        table = _embed(ledger, rec, dataset, state, cfg)
        want = (g.num_nodes, cfg.hidden_dim)
        if table is not None and (table.vectors.shape != want
                                  or not np.isfinite(table.vectors).all()):
            ledger.fail(f"embeddings {table.vectors.shape}, expected {want} "
                        "finite rows")
        rec.run_s = time.perf_counter() - t_start
        return rec


WORKLOADS = {w.name: w for w in (MutagTrain, MutagProbe, NodeSynth)}
