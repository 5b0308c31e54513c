"""Batch-job command line: train, embed, probe, inspect, stats.

Configuration is an INI-style file (sections of key=value) merged with
command-line overrides; unknown keys are rejected and every run writes its
resolved config next to its artifacts. Exit codes: 0 ok, 1 runtime failure,
2 configuration error.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from dataclasses import fields
from functools import partial
from inspect import signature
from pathlib import Path

import numpy as np

from .encoders import encode
from .errors import ConfigError, GraphAugError
from .evaluation import STACK_COLUMNS, embed_dataset, linear_probe_graph, \
    linear_probe_node, node_probe_split
from .heads import apply_augmentation
from .policy import AugmentationKind, active_kinds, decide
from .rng import RngStream
from .graphs import batch_graphs, make_node_task_batch
from .trainer import TrainConfig, load_checkpoint, save_checkpoint, \
    train
from .tudataset import dataset_stats, parse_tudataset

OUT_ROOT_ENV = "GRAPHAUG_OUT"
# numpy reads these before the CLI runs, so a run records them instead
BLAS_THREAD_ENVS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

# INI section -> keys, in the order --print-config writes them. Every key
# except data.dataset and output.out_dir (strings, no default) is a
# TrainConfig field, which owns its type, default and validation.
SECTIONS = {
    "data": ("dataset", "task"),
    "train": ("epochs", "batch_size", "learning_rate", "seed", "policy",
              "head_temperature", "keep_ratio", "hops",
              "early_stop_patience", "patience_unit", "alternation_prob",
              "node_batch_subgraphs", "clip_norm"),
    "encoder": ("hidden_dim", "num_layers", "dropout"),
    "objective": ("estimator", "discriminator", "nt_xent_temperature"),
    "output": ("out_dir",),
}
_INI_KEY = {"policy_kind": "policy"}     # the one field with another key
# INI key (also the flag's dest) -> TrainConfig field
_FIELDS = {_INI_KEY.get(f.name, f.name): f for f in fields(TrainConfig)}
# probe options by the checkpoint's task: flag dest -> the parameter of the
# task's probe that it sets, whose default and type are the flag's
PROBE_OPTIONS = {"graph": (linear_probe_graph, {"folds": "folds",
                                                "runs": "runs"}),
                 "node": (linear_probe_node, {"runs_node": "runs",
                                              "train_frac": "train_frac"})}


def _probe_defaults(task: str) -> dict:
    """Flag dest -> default of ``task``'s probe options."""
    probe, params = PROBE_OPTIONS[task]
    defaults = signature(probe).parameters
    return {dest: defaults[name].default for dest, name in params.items()}


def _parse_config_file(path) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        data = Path(path).read_bytes()
    except OSError:
        raise ConfigError(f"config file not found: {path}") from None
    try:
        parser.read_string(data.decode("utf-8"), source=str(path))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}, line {line}: not UTF-8 at byte "
                          f"{exc.start}") from None
    except configparser.Error as exc:  # e.g. a repeated key, a line without =
        raise ConfigError(" ".join(str(exc).split())) from None
    values = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in SECTIONS[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            values[key] = raw
    return values


def resolve_config(args) -> dict:
    """INI key -> value: file values, overridden by flags, typed and
    defaulted per TrainConfig field."""
    values = (_parse_config_file(args.config)
              if getattr(args, "config", None) else {})
    resolved = {}
    for section, keys in SECTIONS.items():
        for key in keys:
            default = _FIELDS[key].default if key in _FIELDS else None
            flag = getattr(args, key, None)
            raw = values.get(key, default) if flag is None else flag
            if raw is None:
                resolved[key] = None
                continue
            typ = str if default is None else type(default)
            try:
                resolved[key] = typ(raw)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{section}.{key}: cannot parse {raw!r} as {typ.__name__}")
    return resolved


def _train_config(resolved) -> TrainConfig:
    try:
        return TrainConfig(**{f.name: resolved[key]
                              for key, f in _FIELDS.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _format_config(resolved) -> str:
    lines = []
    for section, keys in SECTIONS.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {resolved[key]}" for key in keys
                  if resolved[key] is not None]
        lines.append("")
    return "\n".join(lines)


def _out_dir(resolved, default_name: str) -> Path:
    """The output directory, checked before any work (an existing path on
    the way that is not a directory is a config error), created after it."""
    out = resolved["out_dir"]
    if out is None:
        root = os.environ.get(OUT_ROOT_ENV, "runs")
        out = Path(root) / default_name
    out = Path(out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output.out_dir: {existing} is not a directory")
    return out


def _load_dataset(resolved, task: str):
    path = resolved["dataset"]
    if path is None:
        raise ConfigError("data.dataset: no dataset directory given")
    if not Path(path).is_dir():
        raise ConfigError(f"data.dataset: directory not found: {path}")
    return parse_tudataset(path, task)


def _load_model(args, resolved):
    """The checkpoint's state and config, and the dataset to run them on;
    the dataset must have the feature dimension the checkpoint was
    trained with."""
    state, config = load_checkpoint(args.checkpoint)
    dataset = _load_dataset(resolved, config.task)
    if dataset.feature_dim != state.input_dim:
        raise GraphAugError(
            f"checkpoint expects d_x={state.input_dim}, dataset has "
            f"d_x={dataset.feature_dim}")
    return state, config, dataset


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


# -- commands -----------------------------------------------------------------------


def cmd_train(args) -> int:
    resolved = resolve_config(args)
    config = _train_config(resolved)
    if args.print_config:
        print(_format_config(resolved))
        return 0
    dataset = _load_dataset(resolved, config.task)
    out = _out_dir(resolved, f"{dataset.name.lower()}-train")
    if config.task == "node":       # the node task reads only graph 0
        g = dataset.graphs[0]
        size = (f"graph 0 of {len(dataset.graphs)} ({g.num_nodes} nodes, "
                f"{g.num_edges} edges)")
    else:
        size = f"{len(dataset.graphs)} graphs"
    print(f"training on {dataset.name}: {size}, d_x={dataset.feature_dim}, "
          f"task={config.task}")
    state, metrics, freqs = train(dataset, config)
    # a run that fails leaves no directory behind
    out.mkdir(parents=True, exist_ok=True)
    threads = " ".join(f"{env}={os.environ.get(env, 'unset')}"
                       for env in BLAS_THREAD_ENVS)
    (out / "config_resolved.cfg").write_text(      # on one comment line
        "# outputs are byte-identical only at the same BLAS thread count: "
        + " ".join(threads.split()) + "\n" + _format_config(resolved))
    save_checkpoint(state, config, out / "checkpoint.bin")
    columns = ("epoch", "step", "loss", "aug_i", "aug_j", "p_i", "p_j", "coin")
    _write_csv(out / "metrics.csv", columns,
               [[m[c] for c in columns] for m in metrics])
    columns = ("epoch", *(k.value for k in AugmentationKind))
    _write_csv(out / "aug_frequencies.csv", columns,
               [[r[c] for c in columns] for r in freqs])
    by_epoch = {}
    for m in metrics:
        by_epoch.setdefault(m["epoch"], []).append(m["loss"])
    for epoch in sorted(by_epoch):
        print(f"epoch {epoch}: mean loss {np.mean(by_epoch[epoch]):.5g}")
    print(f"artifacts written to {out}")
    return 0


def cmd_probe(args) -> int:
    resolved = resolve_config(args)
    state, config, dataset = _load_model(args, resolved)
    other = next(task for task in PROBE_OPTIONS if task != config.task)
    stray = [f"--{dest.replace('_', '-')}" for dest in _probe_defaults(other)
             if getattr(args, dest) is not None]
    if stray:                     # before paying for the embed
        raise ConfigError(f"{' and '.join(stray)}: {other}-task options, "
                          f"but {args.checkpoint} holds a {config.task}-task "
                          "model")
    opts = {dest: default if getattr(args, dest) is None
            else getattr(args, dest)
            for dest, default in _probe_defaults(config.task).items()}
    out = _out_dir(resolved, f"{dataset.name.lower()}-probe")
    counts = ({"folds": (opts["folds"], 2), "runs": (opts["runs"], 1)}
              if config.task == "graph" else
              {"runs-node": (opts["runs_node"], 1)})
    low = [f"--{flag} >= {least}, got {value}"
           for flag, (value, least) in counts.items() if value < least]
    if low:                       # before paying for the embed
        raise GraphAugError(f"cannot probe {dataset.name}: need "
                            + " and ".join(low))
    try:
        if config.task == "node" and dataset.node_labels is not None:
            # the split before the embed, which rejects a missing label file
            node_probe_split(dataset.node_labels[0], opts["train_frac"])
        # an overflow warns nothing here; the table rejects its rows
        with np.errstate(over="ignore", invalid="ignore"):
            table = embed_dataset(dataset, state, config)
        if config.task == "graph":
            report = linear_probe_graph(table, folds=opts["folds"],
                                        runs=opts["runs"],
                                        seed=args.probe_seed)
        else:
            report = linear_probe_node(table, runs=opts["runs_node"],
                                       train_frac=opts["train_frac"],
                                       seed=args.probe_seed)
    except ValueError as exc:     # inputs the probe cannot use
        raise GraphAugError(f"cannot probe {dataset.name}: {exc}") from exc
    out.mkdir(parents=True, exist_ok=True)
    (out / "probe_report.json").write_text(report.to_json())
    _write_csv(out / "probe_report.csv", ("run", "accuracy"),
               [*enumerate(report.accuracies), ("mean", report.mean),
                ("std", report.std)])
    _write_csv(out / "probe_stacks.csv", STACK_COLUMNS, report.stacks)
    print(f"{report.protocol}: accuracy {report.mean:.4f} +/- {report.std:.4f}")
    print(f"reports written to {out}")
    return 0


def cmd_embed(args) -> int:
    resolved = resolve_config(args)
    state, config, dataset = _load_model(args, resolved)
    out = _out_dir(resolved, f"{dataset.name.lower()}-embed")
    try:
        # an overflow warns nothing here; the table rejects its rows
        with np.errstate(over="ignore", invalid="ignore"):
            table = embed_dataset(dataset, state, config)
    except ValueError as exc:     # e.g. an encoder that overflows
        raise GraphAugError(f"cannot embed {dataset.name}: {exc}") from exc
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "embeddings.csv",
               ["id", "label"] + [f"dim{j}" for j in range(table.vectors.shape[1])],
               [[i, label, *vec] for i, (label, vec)
                in enumerate(zip(table.labels, table.vectors))])
    print(f"wrote {len(table.vectors)} embeddings to {out / 'embeddings.csv'}")
    return 0


def cmd_inspect(args) -> int:
    resolved = resolve_config(args)
    valid = [k.value for k in AugmentationKind]
    if args.head not in valid:
        raise ConfigError(f"unknown head {args.head!r}; valid heads: "
                          f"{', '.join(valid)}")
    if args.num_graphs < 1:
        raise ConfigError(f"--num-graphs must be at least 1, got "
                          f"{args.num_graphs}")
    state, config, dataset = _load_model(args, resolved)
    out = _out_dir(resolved, f"{dataset.name.lower()}-inspect")
    kinds = active_kinds(config.task)
    kind = AugmentationKind(args.head)
    if kind not in kinds:
        raise ConfigError(f"head {args.head!r} is not active for task "
                          f"{config.task!r}")
    if config.task == "node":     # ego-nets of graph 0, as training cuts
        n = args.num_graphs
        batch = make_node_task_batch(
            dataset.graphs[0], n, config.hops,
            RngStream(resolved["seed"], "inspect-batch"))
    else:
        n = min(args.num_graphs, len(dataset.graphs))
        batch = batch_graphs(dataset.graphs[:n])
    try:
        # detached parameters: nothing walks the tape of a dump
        with np.errstate(over="ignore", invalid="ignore"):
            enc = encode(batch, state.omega.detached())
            # kinds unused: the draw's check of probabilities fails an overflow
            decision = decide(enc.graph_vector,
                              RngStream(resolved["seed"], "inspect-policy"),
                              state.policy.detached(), kinds)
            views = apply_augmentation(
                kind, batch, enc.node_matrix, enc.graph_vector,
                state.heads.detached(), config.keep_ratio, config.hops,
                config.head_temperature,
                RngStream(resolved["seed"], "inspect")).graph
    except ValueError as exc:     # e.g. an encoder that overflows
        raise GraphAugError(f"cannot inspect {dataset.name}: {exc}") from exc
    dist = {k.value: float(p) for k, p in zip(kinds, decision.dist.data)}
    print("policy distribution:", json.dumps(dist))
    out.mkdir(parents=True, exist_ok=True)
    for k in range(n):
        aug = views.graph(k)
        np.savetxt(out / f"graph{k}.edges",
                   np.column_stack((aug.edges, aug.edge_weights.data)),
                   fmt="%d %d %.6f", header=f"graph {k}: {aug.num_nodes} "
                   f"nodes, {aug.num_edges} edges\nsrc dst weight")
        x = aug.features.data + 0.0         # a dropped -0.0 prints as 0
        np.savetxt(out / f"graph{k}.features", x, fmt="%.17g",
                   header=f"graph {k}: {x.shape[0]} nodes, {x.shape[1]} "
                          f"features, one row per node")
    (out / "policy_distribution.json").write_text(json.dumps(dist, indent=2))
    print(f"wrote {n} augmented graphs to {out}")
    return 0


def cmd_stats(args) -> int:
    resolved = resolve_config(args)
    task = _train_config(resolved).task
    stats = dataset_stats(_load_dataset(resolved, task), task)
    print(json.dumps(stats, indent=2))
    if args.out_json:
        Path(args.out_json).write_text(json.dumps(stats, indent=2))
    return 0


# -- argument plumbing ---------------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser,
                      keys=_FIELDS.keys() | {"dataset", "out_dir"}):
    """--config, and a flag for each INI key the command reads."""
    p.add_argument("--config", help="INI config file")
    for section, section_keys in SECTIONS.items():
        for key in filter(keys.__contains__, section_keys):
            default = _FIELDS[key].default if key in _FIELDS else None
            flag = "out" if key == "out_dir" else key.replace("_", "-")
            p.add_argument("--" + flag, dest=key,
                           type=str if default is None else type(default),
                           help=f"{section}.{key}" if default is None
                           else f"{section}.{key}, default {default}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphaug",
        description="Learned graph augmentations for contrastive learning")
    sub = parser.add_subparsers(  # exact flags: stats --out is not --out-json
        dest="command", required=True,
        parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))

    p_train = sub.add_parser("train", help="train a model")
    _add_config_flags(p_train)  # every INI key
    p_train.add_argument("--print-config", action="store_true",
                         help="print the resolved config and exit")
    p_train.set_defaults(func=cmd_train)

    p_probe = sub.add_parser("probe", help="linear-probe a checkpoint")
    _add_config_flags(p_probe, ("dataset", "out_dir"))
    p_probe.add_argument("--checkpoint", required=True)
    for task in PROBE_OPTIONS:
        for dest, default in _probe_defaults(task).items():
            p_probe.add_argument("--" + dest.replace("_", "-"), dest=dest,
                                 type=type(default), help=f"{task}-task "
                                 f"checkpoints only, default {default}")
    p_probe.add_argument("--probe-seed", dest="probe_seed", type=int, default=0)
    p_probe.set_defaults(func=cmd_probe)

    p_embed = sub.add_parser("embed", help="write embeddings for a dataset")
    _add_config_flags(p_embed, ("dataset", "out_dir"))
    p_embed.add_argument("--checkpoint", required=True)
    p_embed.set_defaults(func=cmd_embed)

    p_inspect = sub.add_parser("inspect",
                               help="dump augmented graphs from a head")
    _add_config_flags(p_inspect, ("dataset", "out_dir", "seed"))
    p_inspect.add_argument("--checkpoint", required=True)
    p_inspect.add_argument("--head", required=True)
    p_inspect.add_argument("--num-graphs", dest="num_graphs", type=int,
                           default=4)
    p_inspect.set_defaults(func=cmd_inspect)

    p_stats = sub.add_parser("stats", help="print dataset statistics")
    _add_config_flags(p_stats, ("dataset", "task"))
    p_stats.add_argument("--out-json", dest="out_json")
    p_stats.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GraphAugError, OSError) as exc:      # OSError: a failed write
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
