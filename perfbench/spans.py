"""Span tracer for the traced benchmark run.

It wraps public functions of the program where their callers look them up
(``graphaug.trainer.apply_augmentation``, ``graphaug.heads.khop_bfs``, ...),
so nothing under ``src/`` changes. Each call becomes a span (name, start,
end, parent) kept in memory; the tape-tensor and stream-split counters are
read at both ends of every span. The tracer only reads clocks, sizes and
counters: it never draws from an ``RngStream``, so a traced pass computes
bit for bit what an untraced pass computes.
"""
from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

from graphaug.rng import RngStream
from graphaug.tensor import Tensor

# (module the caller looks the function up in, attribute, span name)
SITES = (
    ("graphaug.tudataset", "parse_tudataset", "tudataset.parse_tudataset"),
    ("graphaug.trainer", "train", "trainer.train"),
    ("graphaug.trainer", "train_step", "trainer.train_step"),
    ("graphaug.trainer", "encode", "encoders.encode"),
    ("graphaug.trainer", "decide", "policy.decide"),
    ("graphaug.trainer", "apply_augmentation", "heads.apply_augmentation"),
    ("graphaug.trainer", "batch_graphs", "graphs.batch_graphs"),
    ("graphaug.trainer", "batch_loss", "objective.batch_loss"),
    ("graphaug.trainer", "clip_by_global_norm", "optim.clip_by_global_norm"),
    ("graphaug.trainer", "adam_step", "optim.adam_step"),
    ("graphaug.policy", "gumbel_softmax", "sampling.gumbel_softmax"),
    ("graphaug.heads", "node_dropping_head", "heads.node_drop"),
    ("graphaug.heads", "edge_perturbation_head", "heads.edge_perturb"),
    ("graphaug.heads", "subgraph_head", "heads.subgraph"),
    ("graphaug.heads", "feature_masking_head", "heads.feature_mask"),
    ("graphaug.heads", "identity_augmentation", "heads.identity"),
    ("graphaug.heads", "khop_bfs", "graphs.khop_bfs"),
    ("graphaug.heads", "gumbel_softmax", "sampling.gumbel_softmax"),
    ("graphaug.heads", "gumbel_top_k", "sampling.gumbel_top_k"),
    ("graphaug.heads", "relaxed_bernoulli", "sampling.relaxed_bernoulli"),
    ("graphaug.graphs", "make_node_task_batch", "graphs.make_node_task_batch"),
    ("graphaug.graphs", "khop_bfs", "graphs.khop_bfs"),
    ("graphaug.graphs", "batch_graphs", "graphs.batch_graphs"),
    ("graphaug.evaluation", "embed_dataset", "evaluation.embed_dataset"),
    ("graphaug.evaluation", "linear_probe_graph",
     "evaluation.linear_probe_graph"),
    ("graphaug.evaluation", "encode", "encoders.encode"),
    ("graphaug.evaluation", "batch_graphs", "graphs.batch_graphs"),
    ("graphaug.evaluation", "khop_bfs", "graphs.khop_bfs"),
    ("graphaug.evaluation", "adam_step", "optim.adam_step"),
    ("graphaug.container", "write_container", "container.write_container"),
    ("graphaug.container", "read_container", "container.read_container"),
)

SELF_TIMES = sorted({name for _, _, name in SITES} | {"tensor.backward"})
CALLS = ("encoders.encode", "graphs.khop_bfs", "optim.adam_step")

# Layers whose spans directly under train_step should cover nearly all of
# its time; the remainder is train_step's own bookkeeping plus view batching.
STEP_LAYERS = ("tensor", "heads", "encoders", "policy", "objective", "optim")

NAME, START, END, PARENT, TENSORS0, TENSORS1, SPLITS0, SPLITS1 = range(8)


class Tracer:
    """Context manager: patches the sites on entry, restores them on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = [0, 0]                 # tape tensors, stream splits
        self.kept = defaultdict(int)         # augmented vs original sizes
        self.bytes_written = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   counts[0], 0, counts[1], 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                rec[TENSORS1], rec[SPLITS1] = counts
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _after_augmentation(self, args, out):
        original, augmented = args[1], out.graph
        self.kept["nodes"] += augmented.num_nodes
        self.kept["orig_nodes"] += original.num_nodes
        self.kept["edges"] += augmented.num_edges
        self.kept["orig_edges"] += original.num_edges

    def _after_write(self, args, out):
        self.bytes_written += os.path.getsize(args[0])

    def __enter__(self):
        after = {"heads.apply_augmentation": self._after_augmentation,
                 "container.write_container": self._after_write}
        for module, attr, name in SITES:
            owner = importlib.import_module(module)
            self._patch(owner, attr,
                        self._wrap(name, getattr(owner, attr), after.get(name)))
        self._patch(Tensor, "backward",
                    self._wrap("tensor.backward", Tensor.backward))
        counts = self.counts
        tensor_init, split = Tensor.__init__, RngStream.split

        def counting_init(tensor, *args, **kwargs):
            counts[0] += 1
            tensor_init(tensor, *args, **kwargs)

        def counting_split(stream, label):
            counts[1] += 1
            return split(stream, label)

        self._patch(Tensor, "__init__", counting_init)
        self._patch(RngStream, "split", counting_split)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    # -- summaries ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """``{name: (value, unit)}`` for every span-derived per-layer metric."""
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        covered = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]
                if s[NAME].split(".")[0] in STEP_LAYERS:
                    covered[s[PARENT]] += dur[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, s in enumerate(spans):
            calls[s[NAME]] += 1
            self_s[s[NAME]] += dur[i] - child[i]

        steps = [i for i, s in enumerate(spans)
                 if s[NAME] == "trainer.train_step"]
        step_time = sum(dur[i] for i in steps)
        per_step = max(1, len(steps))
        out = {f"{n}.self_s": (self_s[n], "s") for n in SELF_TIMES}
        out.update({f"{n}.calls": (calls[n], "count") for n in CALLS})
        out["tensor.tensors"] = (self.counts[0], "count")
        out["tensor.tensors_per_step"] = (
            sum(spans[i][TENSORS1] - spans[i][TENSORS0] for i in steps)
            / per_step, "count")
        out["rng.split.calls_per_step"] = (
            sum(spans[i][SPLITS1] - spans[i][SPLITS0] for i in steps)
            / per_step, "count")
        out["trainer.step_cover_frac"] = (
            sum(covered[i] for i in steps) / step_time if steps else 0.0,
            "fraction")
        kept = self.kept
        out["heads.kept_node_frac"] = (
            kept["nodes"] / kept["orig_nodes"] if kept["orig_nodes"] else 0.0,
            "fraction")
        out["heads.kept_edge_frac"] = (
            kept["edges"] / kept["orig_edges"] if kept["orig_edges"] else 0.0,
            "fraction")
        out["container.write_container.bytes"] = (self.bytes_written, "bytes")
        out["trace.spans"] = (len(spans), "count")
        return out

    def write(self, path) -> None:
        """One JSON object per span, times relative to the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "name": s[NAME], "start": s[START] - origin,
                    "end": s[END] - origin, "parent": s[PARENT],
                    "tensors": s[TENSORS1] - s[TENSORS0],
                    "splits": s[SPLITS1] - s[SPLITS0]}) + "\n")
