"""End-to-end training loop.

Per step, ``step_loss`` encodes the batch with the augmentation encoder, lets
the policy pick the two view augmentations, applies each sampled head to the
whole batch (one random stream per view, each graph drawing its slice of the
view's draws), encodes both views with the shared base encoder and scales the
graph vectors by the policy probabilities into the two-view contrastive loss,
which ``train_step`` minimizes. Policy and head parameters update every step;
a coin flip, drawn before the forward, decides whether the base or the
augmentation encoder joins them, and the other encoder runs detached.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict, fields, replace

import numpy as np

from .encoders import Encodings, encode, param_seed, init_encoder_params
from .errors import CheckpointError, DatasetError, TrainingDivergedError
from .graphs import GraphBatch, batch_graphs, make_node_task_batch
from .heads import apply_augmentation, init_head_params
from .objective import DISCRIMINATORS, ESTIMATORS, batch_loss, \
    init_discriminator_params
from .optim import AdamState, adam_step, clip_by_global_norm
from .policy import POLICY_KINDS, AugmentationKind, PolicyDecision, \
    active_kinds, decide, init_policy_params
from .rng import RngStream
from .tensor import ParameterSet, Tensor
from . import container

GROUPS = ("omega", "policy", "heads", "theta")
STREAM_LAYOUT = "per-view"      # older checkpoints drew "per-graph"


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    hidden_dim: int = 32
    num_layers: int = 2
    policy_kind: str = "gru"             # one of POLICY_KINDS
    head_temperature: float = 1.0        # relaxes the feature mask alone
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
        for f in fields(self):
            # exact types, as a checkpoint's JSON holds them: no bool for an
            # int, and no numpy scalar
            allowed = (int, float) if type(f.default) is float \
                else (type(f.default),)
            value = getattr(self, f.name)
            if type(value) not in allowed:
                raise TypeError(f"{f.name} must be of type "
                                f"{' or '.join(t.__name__ for t in allowed)}; "
                                f"got {value!r}")
        for name, valid in (("policy_kind", POLICY_KINDS),
                            ("patience_unit", ("epoch", "step")),
                            ("task", ("graph", "node")),
                            ("estimator", ESTIMATORS),
                            ("discriminator", DISCRIMINATORS)):
            value = getattr(self, name)
            if value not in valid:
                raise ValueError(f"{name} must be one of {', '.join(valid)}; "
                                 f"got {value!r}")
        if self.discriminator == "cosine" and self.policy_kind != "random":
            raise ValueError(f"discriminator cosine needs policy_kind random: "
                             f"it divides the policy's p back out of the "
                             f"graph vectors, so a learned policy gets no "
                             f"gradient; got {self.policy_kind!r}")
        # the graphs of one batch are each other's negatives
        name = "batch_size" if self.task == "graph" else "node_batch_subgraphs"
        if getattr(self, name) < 2:
            raise ValueError(f"{name} must be >= 2 on the {self.task} task, "
                             f"since a batch of one graph has no negatives; "
                             f"got {getattr(self, name)}")
        for name, least in (("epochs", 0), ("batch_size", 1),
                            ("num_layers", 1), ("hidden_dim", 1),
                            ("early_stop_patience", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}; "
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
        if not 0.0 < self.head_temperature < math.inf:
            raise ValueError(f"head_temperature must be positive and finite; "
                             f"got {self.head_temperature}")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0; "
                             f"got {self.learning_rate}")
        if not 0.0 < self.clip_norm < math.inf:
            raise ValueError(f"clip_norm must be finite and > 0; "
                             f"got {self.clip_norm}")
        if self.estimator == "nt_xent" \
                and not 0.0 < self.nt_xent_temperature < math.inf:
            raise ValueError(f"nt_xent temperature must be positive and "
                             f"finite; got {self.nt_xent_temperature}")


@dataclass
class TrainState:
    input_dim: int
    omega: ParameterSet
    policy: ParameterSet
    heads: ParameterSet                  # each head's as {kind}/...
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
        return getattr(self, name)


@dataclass
class StepResult:
    loss: float
    decision: PolicyDecision     # off the tape
    coin: bool                   # True: base encoder updated this step
    grad_norm: float             # global norm of the update's grads, pre-clip


def init_state(config: TrainConfig, input_dim: int) -> TrainState:
    kinds = active_kinds(config.task)
    d = config.hidden_dim
    gin_dims = [input_dim] + [d] * config.num_layers
    omega = init_encoder_params("gin", gin_dims,
                                param_seed(config.seed, "omega"))
    # θ is a GIN stack like ω, except on the node task: DGI's two-layer GCN
    theta_kind, theta_dims = (("gcn", [input_dim, d, d])
                              if config.task == "node" else ("gin", gin_dims))
    theta = init_encoder_params(theta_kind, theta_dims,
                                param_seed(config.seed, "theta"))
    disc = init_discriminator_params(config.discriminator, config.hidden_dim,
                                     param_seed(config.seed, "disc"))
    for name, t in disc.items():
        theta.add(name, t)
    policy = init_policy_params(config.policy_kind, config.hidden_dim,
                                len(kinds), param_seed(config.seed, "policy"))
    heads = ParameterSet()
    for kind in kinds:
        init_head_params(heads, kind, config.hidden_dim, input_dim,
                         param_seed(config.seed, f"head-{kind.value}"))
    root = RngStream(config.seed, "train")
    return TrainState(
        input_dim=input_dim,
        omega=omega, policy=policy, heads=heads, theta=theta,
        adam={g: AdamState() for g in GROUPS},
        sample_root=root.split("sample"),
        shuffle_stream=root.split("shuffle"),
        coin_stream=root.split("coin"),
    )


def step_loss(batch: GraphBatch, state: TrainState, config: TrainConfig,
              step_stream: RngStream) -> tuple[Tensor, PolicyDecision, dict]:
    """The step's forward: (loss, decision, each view's head output). Reads
    only ``state``'s parameter groups; draws only from ``step_stream``."""
    enc_w = encode(batch, state.omega, step_stream.split("dropout/omega"),
                   config.dropout)
    decision = decide(enc_w.graph_vector, step_stream.split("policy"),
                      state.policy, active_kinds(config.task))

    outs = {view: apply_augmentation(
                kind, batch, enc_w.node_matrix, enc_w.graph_vector,
                state.heads, config.keep_ratio, config.hops,
                config.head_temperature, step_stream.split(view))
            for view, kind in (("i", decision.i), ("j", decision.j))}
    batch_i, batch_j = outs["i"].graph, outs["j"].graph
    enc_i = encode(batch_i, state.theta, step_stream.split("dropout/i"),
                   config.dropout)
    enc_j = encode(batch_j, state.theta, step_stream.split("dropout/j"),
                   config.dropout)
    # the skip connection: p routes the loss's gradient into the policy
    loss = batch_loss(Encodings(enc_i.node_matrix,
                                enc_i.graph_vector * decision.p_i),
                      Encodings(enc_j.node_matrix,
                                enc_j.graph_vector * decision.p_j),
                      batch_i.node_to_graph, batch_j.node_to_graph,
                      config, state.theta)
    return loss, decision, outs


def train_step(batch: GraphBatch, state: TrainState,
               config: TrainConfig) -> StepResult:
    """One update. The coin picks the encoder to update before the forward,
    and the step runs on the other encoder's detached parameters, so the
    tape records only what the update reads. The returned decision is off
    the tape. A non-finite loss or gradient raises with ``state`` as it
    was."""
    for g in GROUPS:
        state.group(g).zero_grads()
    coin_before = state.coin_stream.get_state()
    coin = state.coin_stream.bernoulli(config.alternation_prob)
    idle = "omega" if coin else "theta"
    loss, decision, outs = step_loss(
        batch, replace(state, **{idle: state.group(idle).detached()}), config,
        state.sample_root.split(f"step{state.step}"))
    if not np.isfinite(loss.data).all():
        state.coin_stream = RngStream.from_state(coin_before)
        head_stats = {view: {key: (float(t.data.min()), float(t.data.max()))
                             for key, t in out.soft_params.items()}
                      for view, out in outs.items()}
        raise TrainingDivergedError(
            f"non-finite loss at step {state.step}: "
            f"i={decision.i.value} j={decision.j.value} "
            f"p_i={decision.p_i.item():.3e} p_j={decision.p_j.item():.3e} "
            f"head_stats={head_stats}")
    loss.backward()

    update_groups = ["policy", "heads", "theta" if coin else "omega"]
    # scales the leaves' own gradients in place
    grad_norm = clip_by_global_norm([t.grad for g in update_groups
                                     for t in state.group(g).tensors()
                                     if t.grad is not None], config.clip_norm)
    if not math.isfinite(grad_norm):
        state.coin_stream = RngStream.from_state(coin_before)
        raise TrainingDivergedError(
            f"non-finite gradient at step {state.step}: global norm "
            f"{grad_norm} (i={decision.i.value} j={decision.j.value})")
    for gname in update_groups:
        adam_step(state.group(gname), state.adam[gname], config.learning_rate)
    state.step += 1
    # off the tape, so a result kept by the caller holds no step's nodes
    decision = replace(decision, dist=decision.dist.detach(),
                       p_i=decision.p_i.detach(), p_j=decision.p_j.detach())
    return StepResult(loss.item(), decision, coin, grad_norm)


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

    Metrics rows: epoch, step, loss, aug_i, aug_j, p_i, p_j, coin, and the
    update's pre-clip gradient norm, grad_norm.
    Frequency rows: per-epoch normalized selection counts over all kinds.
    """
    if config.task == "graph" and len(dataset.graphs) < 2:
        raise DatasetError(f"{dataset.name} has {len(dataset.graphs)} "
                           f"graph(s); the graph task needs at least 2, since "
                           f"a batch of one graph has no negatives")
    if state is None:
        state = init_state(config, dataset.feature_dim)
    if state.input_dim != dataset.feature_dim:
        raise DatasetError(f"the state expects d_x={state.input_dim}, "
                           f"{dataset.name} has d_x={dataset.feature_dim}")
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
                "coin": int(res.coin), "grad_norm": res.grad_norm,
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
        "stream_layout": STREAM_LAYOUT,
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
    layout = meta.get("stream_layout", "per-graph")
    if layout != STREAM_LAYOUT:
        raise CheckpointError(f"{path}: checkpoint stream_layout is {layout!r}"
                              f"; this version draws {STREAM_LAYOUT!r}")
    try:
        config = TrainConfig(**meta["config"])
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
