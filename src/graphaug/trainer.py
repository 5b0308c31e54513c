"""End-to-end training loop.

Per step: encode the batch with the augmentation encoder, let the policy pick
the two view augmentations, apply each sampled head to the whole batch (one
random stream per graph and view), encode both
views with the shared base encoder, scale the graph vectors by the policy
probabilities, and minimize the two-view contrastive loss. Policy and head
parameters update every step; a coin flip decides whether the base or the
augmentation encoder joins them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .encoders import EncoderConfig, Encodings, encode, param_seed, \
    init_encoder_params
from .errors import CheckpointError, DatasetError, TrainingDivergedError
from .graphs import GraphBatch, batch_graphs, make_node_task_batch
from .heads import apply_augmentation, init_head_params
from .objective import ObjectiveConfig, batch_loss, init_discriminator_params
from .optim import AdamState, adam_step, clip_by_global_norm
from .policy import POLICY_KINDS, AugmentationKind, PolicyDecision, \
    active_kinds, decide, init_policy_params, scale_by_policy
from .rng import RngStream
from .tensor import ParameterSet
from . import container

GROUPS = ("omega", "policy", "heads", "theta")


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    hidden_dim: int = 32
    num_layers: int = 2
    policy_kind: str = "gru"             # one of POLICY_KINDS
    head_temperature: float = 1.0
    keep_ratio: float = 0.75
    hops: int = 2
    dropout: float = 0.0
    seed: int = 0
    early_stop_patience: int = 50
    patience_unit: str = "epoch"         # epoch | step
    alternation_prob: float = 0.5
    estimator: str = "jsd"
    discriminator: str = "dot"
    nt_xent_temperature: float = 0.5
    task: str = "graph"                  # graph | node
    node_batch_subgraphs: int = 8
    clip_norm: float = 5.0

    def __post_init__(self):
        """The one validator for config values, whatever their source."""
        if self.epochs < 0 or self.batch_size < 1 or self.num_layers < 1:
            raise ValueError("epochs/batch_size/num_layers out of range")
        for name, valid in (("policy_kind", POLICY_KINDS),
                            ("patience_unit", ("epoch", "step")),
                            ("task", ("graph", "node"))):
            value = getattr(self, name)
            if value not in valid:
                raise ValueError(f"{name} must be one of {', '.join(valid)}; "
                                 f"got {value!r}")
        # the graphs of one batch are each other's negatives
        name = "batch_size" if self.task == "graph" else "node_batch_subgraphs"
        if getattr(self, name) < 2:
            raise ValueError(f"{name} must be >= 2 on the {self.task} task, "
                             f"since a batch of one graph has no negatives; "
                             f"got {getattr(self, name)}")
        for name in ("hidden_dim", "early_stop_patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1; "
                                 f"got {getattr(self, name)}")
        # a node-task neighborhood may be its center alone; the graph task's
        # subgraph head needs at least one hop
        least_hops = 1 if self.task == "graph" else 0
        if self.hops < least_hops:
            raise ValueError(f"hops must be >= {least_hops} on the "
                             f"{self.task} task; got {self.hops}")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError(f"dropout must be in [0, 1); got {self.dropout}")
        if not (0.0 <= self.alternation_prob <= 1.0):
            raise ValueError("alternation_prob must be in [0, 1]")
        if not (0.0 < self.keep_ratio <= 1.0):
            raise ValueError("keep_ratio must be in (0, 1]")
        if self.head_temperature <= 0:
            raise ValueError("head_temperature must be positive")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0; "
                             f"got {self.learning_rate}")
        if not 0.0 < self.clip_norm < math.inf:
            raise ValueError(f"clip_norm must be finite and > 0; "
                             f"got {self.clip_norm}")
        self.objective()

    def objective(self) -> ObjectiveConfig:
        return ObjectiveConfig(self.estimator, self.discriminator,
                               self.nt_xent_temperature)

    def aug_encoder(self, input_dim: int) -> EncoderConfig:
        return EncoderConfig(input_dim, self.hidden_dim, self.num_layers,
                             "gin", self.dropout, "sum")

    def base_encoder(self, input_dim: int) -> EncoderConfig:
        if self.task == "node":
            return EncoderConfig(input_dim, self.hidden_dim, 2, "gcn",
                                 self.dropout, "mean")
        return EncoderConfig(input_dim, self.hidden_dim, self.num_layers,
                             "gin", self.dropout, "sum")


@dataclass
class TrainState:
    input_dim: int
    omega: ParameterSet
    policy: ParameterSet
    heads: dict
    heads_merged: ParameterSet
    theta: ParameterSet
    adam: dict
    sample_root: RngStream
    shuffle_stream: RngStream
    coin_stream: RngStream
    epoch: int = 0
    step: int = 0
    best_loss: float = math.inf
    stale: int = 0

    def group(self, name: str) -> ParameterSet:
        return {"omega": self.omega, "policy": self.policy,
                "heads": self.heads_merged, "theta": self.theta}[name]


@dataclass
class StepResult:
    loss: float
    decision: PolicyDecision
    coin: bool                   # True: base encoder updated this step


def init_state(config: TrainConfig, input_dim: int) -> TrainState:
    kinds = active_kinds(config.task)
    omega = init_encoder_params(config.aug_encoder(input_dim),
                                param_seed(config.seed, "omega"))
    theta = init_encoder_params(config.base_encoder(input_dim),
                                param_seed(config.seed, "theta"))
    disc = init_discriminator_params(config.discriminator, config.hidden_dim,
                                     param_seed(config.seed, "disc"))
    for name, t in disc.items():
        theta.add(name, t)
    policy = init_policy_params(config.policy_kind, config.hidden_dim,
                                len(kinds), param_seed(config.seed, "policy"))
    heads = {}
    merged = ParameterSet()
    for kind in kinds:
        if kind == AugmentationKind.IDENTITY:
            continue
        ps = init_head_params(kind, config.hidden_dim, input_dim,
                              param_seed(config.seed, f"head-{kind.value}"))
        heads[kind] = ps
        for name, t in ps.items():
            merged.add(f"{kind.value}/{name}", t)
    root = RngStream(config.seed, "train")
    return TrainState(
        input_dim=input_dim,
        omega=omega, policy=policy, heads=heads, heads_merged=merged,
        theta=theta,
        adam={g: AdamState() for g in GROUPS},
        sample_root=root.split("sample"),
        shuffle_stream=root.split("shuffle"),
        coin_stream=root.split("coin"),
    )


def _head_stats(out) -> dict:
    stats = {}
    for key, tensor in out.soft_params.items():
        stats[key] = (float(tensor.data.min()), float(tensor.data.max()))
    return stats


def train_step(batch: GraphBatch, state: TrainState,
               config: TrainConfig) -> StepResult:
    for g in GROUPS:
        state.group(g).zero_grads()
    kinds = active_kinds(config.task)
    step_stream = state.sample_root.split(f"step{state.step}")

    enc_w = encode(batch, state.omega, config.aug_encoder(state.input_dim),
                   stream=step_stream.split("dropout/omega"))
    decision = decide(enc_w.graph_vector, config.policy_kind,
                      step_stream.split("policy"), state.policy, kinds)

    outs = {view: apply_augmentation(
                kind, batch, enc_w.node_matrix, enc_w.graph_vector,
                state.heads, config.keep_ratio, config.hops,
                config.head_temperature,
                [step_stream.split(f"g{k}/{view}")
                 for k in range(batch.num_graphs)])
            for view, kind in (("i", decision.i), ("j", decision.j))}
    batch_i, batch_j = outs["i"].graph, outs["j"].graph
    enc_i = encode(batch_i, state.theta, config.base_encoder(state.input_dim),
                   stream=step_stream.split("dropout/i"))
    enc_j = encode(batch_j, state.theta, config.base_encoder(state.input_dim),
                   stream=step_stream.split("dropout/j"))
    scaled_i = scale_by_policy(enc_i.graph_vector, decision.p_i)
    scaled_j = scale_by_policy(enc_j.graph_vector, decision.p_j)
    loss = batch_loss(Encodings(enc_i.node_matrix, scaled_i),
                      Encodings(enc_j.node_matrix, scaled_j),
                      batch_i.node_to_graph, batch_j.node_to_graph,
                      config.objective(), state.theta)

    if not np.isfinite(loss.data).all():
        head_stats = {view: _head_stats(out) for view, out in outs.items()}
        raise TrainingDivergedError(
            f"non-finite loss at step {state.step}: "
            f"i={decision.i.value} j={decision.j.value} "
            f"p_i={decision.p_i.item():.3e} p_j={decision.p_j.item():.3e} "
            f"head_stats={head_stats}")
    loss.backward()

    coin = state.coin_stream.bernoulli(config.alternation_prob)
    update_groups = ["policy", "heads", "theta" if coin else "omega"]
    # scales the leaves' own gradients in place
    clip_by_global_norm([t.grad for g in update_groups
                         for t in state.group(g).tensors()
                         if t.grad is not None], config.clip_norm)
    for gname in update_groups:
        adam_step(state.group(gname), state.adam[gname], config.learning_rate)
    state.step += 1
    return StepResult(loss.item(), decision, coin)


def _graph_batches(dataset, config: TrainConfig, state: TrainState):
    order = state.shuffle_stream.permutation(len(dataset.graphs))
    for start in range(0, len(order), config.batch_size):
        idx = order[start:start + config.batch_size]
        if len(idx) < 2:
            continue            # a trailing singleton has no negatives
        yield batch_graphs([dataset.graphs[int(i)] for i in idx])


def _node_batches(dataset, config: TrainConfig, state: TrainState):
    g = dataset.graphs[0]
    steps = max(1, math.ceil(g.num_nodes / config.node_batch_subgraphs))
    base = state.step
    for s in range(steps):
        stream = state.sample_root.split(f"nodebatch{base + s}")
        yield make_node_task_batch(g, config.node_batch_subgraphs, config.hops,
                                   stream)


def _patience_spent(state: TrainState, loss: float, patience: int) -> bool:
    """Score ``loss`` against the best so far; True once ``patience`` losses
    in a row have not improved on it."""
    if loss < state.best_loss:
        state.best_loss = loss
        state.stale = 0
    else:
        state.stale += 1
    return state.stale >= patience


def train(dataset, config: TrainConfig, state: TrainState | None = None):
    """Run the loop; returns (state, metrics rows, frequency rows).

    Metrics rows: epoch, step, loss, aug_i, aug_j, p_i, p_j, coin.
    Frequency rows: per-epoch normalized selection counts over all kinds.
    """
    if config.task == "graph" and len(dataset.graphs) < 2:
        raise DatasetError(f"{dataset.name} has {len(dataset.graphs)} "
                           f"graph(s); the graph task needs at least 2, since "
                           f"a batch of one graph has no negatives")
    if state is None:
        state = init_state(config, dataset.feature_dim)
    metrics = []
    frequencies = []
    all_kinds = [k.value for k in AugmentationKind]
    stop = False
    for epoch in range(state.epoch, config.epochs):
        batches = (_graph_batches(dataset, config, state)
                   if config.task == "graph"
                   else _node_batches(dataset, config, state))
        losses = []
        counts = {k: 0 for k in all_kinds}
        for batch in batches:
            res = train_step(batch, state, config)
            losses.append(res.loss)
            counts[res.decision.i.value] += 1
            counts[res.decision.j.value] += 1
            metrics.append({
                "epoch": epoch, "step": state.step - 1, "loss": res.loss,
                "aug_i": res.decision.i.value, "aug_j": res.decision.j.value,
                "p_i": res.decision.p_i.item(), "p_j": res.decision.p_j.item(),
                "coin": int(res.coin),
            })
            if config.patience_unit == "step" and _patience_spent(
                    state, res.loss, config.early_stop_patience):
                stop = True
                break
        state.epoch = epoch + 1
        total = sum(counts.values())
        row = {"epoch": epoch}
        row.update({k: counts[k] / total for k in all_kinds})
        frequencies.append(row)
        if config.patience_unit == "epoch":
            stop = _patience_spent(state, float(np.mean(losses)),
                                   config.early_stop_patience)
        if stop:
            break
    return state, metrics, frequencies


# -- checkpointing ------------------------------------------------------------

def save_checkpoint(state: TrainState, config: TrainConfig, path) -> None:
    tensors = {}
    for gname in GROUPS:
        group = state.group(gname)
        for name, t in group.items():
            tensors[f"params/{gname}/{name}"] = t.data
        adam = state.adam[gname]
        for moment, buffers in (("m", adam.m), ("v", adam.v)):
            # in parameter order, the order load_checkpoint rebuilds them in
            for name in group.names():
                if name in buffers:
                    tensors[f"adam/{gname}/{moment}/{name}"] = buffers[name]
    meta = {
        "kind": "train-state",
        "config": asdict(config),
        "input_dim": state.input_dim,
        "epoch": state.epoch,
        "step": state.step,
        "best_loss": state.best_loss,
        "stale": state.stale,
        "adam_steps": {g: state.adam[g].step for g in GROUPS},
        "streams": {
            "sample_root": state.sample_root.get_state(),
            "shuffle": state.shuffle_stream.get_state(),
            "coin": state.coin_stream.get_state(),
        },
    }
    container.write_container(path, meta, tensors)


def _stored_tensor(tensors: dict, key: str, like) -> np.ndarray:
    """Take ``key`` out of ``tensors``, checking it has the shape of
    ``like`` and only finite values."""
    arr = tensors.pop(key)
    if arr.shape != like.shape:
        raise CheckpointError(f"shape mismatch for {key}: "
                              f"{arr.shape} != {like.shape}")
    if not np.isfinite(arr).all():
        raise CheckpointError(f"checkpoint has non-finite values in {key}")
    return arr


def load_checkpoint(path) -> tuple[TrainState, TrainConfig]:
    meta, tensors = container.read_container(path)
    if meta.get("kind") != "train-state":
        raise CheckpointError(f"{path} is not a training checkpoint")
    try:
        stored = dict(meta["config"])
        # it tempered only a discarded relaxation and changed no result
        stored.pop("policy_temperature", None)
        config = TrainConfig(**stored)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: invalid training config: {exc}") \
            from exc
    try:
        counts = {key: meta[key]
                  for key in ("input_dim", "epoch", "step", "stale")}
        counts.update({f"adam_steps.{g}": meta["adam_steps"][g]
                       for g in GROUPS})
        best_loss = meta["best_loss"]
        streams = [RngStream.from_state(meta["streams"][name])
                   for name in ("sample_root", "shuffle", "coin")]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad checkpoint meta "
                              f"({type(exc).__name__}: {exc})") from exc
    for key, value in counts.items():
        least = int(key == "input_dim")
        if type(value) is not int or value < least:
            raise CheckpointError(f"{path}: checkpoint meta {key} must be an "
                                  f"int >= {least}; got {value!r}")
    # inf, its initial value, is allowed; NaN and -inf are not
    if type(best_loss) not in (int, float) or not best_loss > -math.inf:
        raise CheckpointError(f"{path}: checkpoint meta best_loss must be a "
                              f"real number; got {best_loss!r}")
    state = init_state(config, counts["input_dim"])
    tensors = dict(tensors)
    for gname in GROUPS:
        adam = state.adam[gname]
        adam.step = counts[f"adam_steps.{gname}"]
        for name, t in state.group(gname).items():
            key = f"params/{gname}/{name}"
            if key not in tensors:
                raise CheckpointError(f"checkpoint missing parameter {key}")
            t.data = _stored_tensor(tensors, key, t.data)
            m_key, v_key = (f"adam/{gname}/{moment}/{name}"
                            for moment in ("m", "v"))
            if (m_key in tensors) != (v_key in tensors):
                raise CheckpointError(f"checkpoint has one Adam moment of "
                                      f"{gname}/{name} without the other")
            if m_key in tensors:
                adam.m[name] = _stored_tensor(tensors, m_key, t.data)
                adam.v[name] = _stored_tensor(tensors, v_key, t.data)
    if tensors:
        raise CheckpointError(f"checkpoint tensors match no parameter: "
                              f"{', '.join(sorted(tensors))}")
    state.epoch, state.step, state.stale = \
        counts["epoch"], counts["step"], counts["stale"]
    state.best_loss = best_loss
    state.sample_root, state.shuffle_stream, state.coin_stream = streams
    return state, config
