"""Edge-weighted GIN and GCN stacks with summation/mean read-out and
three-layer projection heads for node and graph outputs.

Edge weights enter message passing multiplicatively, which is the gradient
channel the augmentation heads rely on.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidShapeError
from .graphs import GraphBatch
from .rng import RngStream
from .tensor import ParameterSet, Tensor, segment_sum, xavier_init, zeros_param


@dataclass
class EncoderConfig:
    input_dim: int
    hidden_dim: int
    num_layers: int = 2
    layer_kind: str = "gin"          # "gin" | "gcn"
    dropout: float = 0.0
    readout: str = "sum"             # "sum" | "mean"

    def __post_init__(self):
        if self.num_layers < 1:
            raise InvalidShapeError("num_layers must be >= 1")
        if self.input_dim < 1 or self.hidden_dim < 1:
            raise InvalidShapeError("dims must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise InvalidShapeError("dropout must be in [0, 1)")
        if self.layer_kind not in ("gin", "gcn"):
            raise ValueError(f"unknown layer kind {self.layer_kind!r}")
        if self.readout not in ("sum", "mean"):
            raise ValueError(f"unknown readout {self.readout!r}")


@dataclass
class Encodings:
    node_matrix: Tensor              # (total_nodes, d_h)
    graph_vector: Tensor             # (num_graphs, d_h)


def param_seed(base_seed: int, name: str) -> int:
    """Stable per-parameter seed, independent of creation order."""
    h = hashlib.blake2b(f"{base_seed}:{name}".encode(), digest_size=8).digest()
    return int.from_bytes(h, "little") % (2 ** 62)


def init_mlp(params: ParameterSet, name: str, dims: list[int], seed: int,
             label: str | None = None) -> None:
    """Add a dense stack through ``dims``: per layer the Glorot weight
    ``{name}/w{i}``, seeded by ``{label or name}/w{i}``, then its zero bias
    ``{name}/b{i}``. ``mlp(x, *params.under(name))`` runs it."""
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        params.add(f"{name}/w{i}", xavier_init(
            (d_in, d_out), param_seed(seed, f"{label or name}/w{i}")))
        params.add(f"{name}/b{i}", zeros_param((d_out,)))


def mlp(x: Tensor, *weights: Tensor) -> Tensor:
    """Dense layers ``x @ w + b`` over the ``(w, b)`` pairs in turn, with a
    ReLU between layers; the one dense-layer forward of every module."""
    for i in range(0, len(weights), 2):
        if i:
            x = x.relu()
        # one op per statement frees each input as soon as it is used, so a
        # forward without a tape holds two activations at a time, not three
        x = x @ weights[i]
        x = x + weights[i + 1]
    return x


def init_encoder_params(cfg: EncoderConfig, seed: int) -> ParameterSet:
    params = ParameterSet()
    d_in, d = cfg.input_dim, cfg.hidden_dim
    for layer in range(cfg.num_layers):
        base = f"layer{layer}"
        # GIN's MLP is two dense layers (w1, b1, w2, b2); GCN's is one (w, b)
        suffixes = ("1", "2") if cfg.layer_kind == "gin" else ("",)
        for suffix, fan_in in zip(suffixes, (d_in, d)):
            w = f"{base}/w{suffix}"
            params.add(w, xavier_init((fan_in, d), param_seed(seed, w)))
            params.add(f"{base}/b{suffix}", zeros_param((d,)))
        d_in = d
    for head in ("proj_node", "proj_graph"):
        init_mlp(params, head, [d] * 4, seed)
    return params


def gin_layer(h: Tensor, src: np.ndarray, dst: np.ndarray, edge_w: Tensor,
              w1, b1, w2, b2) -> Tensor:
    """h'_v = MLP(h_v + sum over in-edges of w_uv h_u), GIN with eps = 0."""
    if len(src):
        msgs = h.gather_rows(src) * edge_w.reshape(-1, 1)
        h = h + segment_sum(msgs, dst, h.shape[0])
    return mlp(h, w1, b1, w2, b2)


def gcn_layer(h: Tensor, src: np.ndarray, dst: np.ndarray, edge_w: Tensor,
              w: Tensor, b: Tensor) -> Tensor:
    """Symmetric-normalized propagation with implicit unit self-loops.

    h' = ReLU(D^-1/2 (A_w + I) D^-1/2 h W), with edge weights inside A_w.
    """
    num_nodes = h.shape[0]
    hw = mlp(h, w, b)
    if len(src):
        deg = segment_sum(edge_w, dst, num_nodes) + 1.0       # (V,)
        dinv = deg ** -0.5
        norm = dinv.gather_rows(src) * dinv.gather_rows(dst) * edge_w
        msgs = hw.gather_rows(src) * norm.reshape(-1, 1)
        agg = segment_sum(msgs, dst, num_nodes)
        self_term = hw * (dinv * dinv).reshape(-1, 1)
        return (agg + self_term).relu()
    return hw.relu()


def _dropout(h: Tensor, p: float, stream: RngStream) -> Tensor:
    mask = (stream.uniform(h.shape) >= p).astype(float) / (1.0 - p)
    return h * Tensor(mask)


def encode(batch: GraphBatch, params: ParameterSet, cfg: EncoderConfig,
           stream: RngStream | None = None,
           training: bool = False) -> Encodings:
    """Run the stacked layers, read out per graph, and project both levels."""
    src, dst = batch.edges[:, 0], batch.edges[:, 1]
    h = batch.features
    edge_w = batch.edge_weights
    layer_fn = gin_layer if cfg.layer_kind == "gin" else gcn_layer
    for layer in range(cfg.num_layers):
        h = layer_fn(h, src, dst, edge_w, *params.under(f"layer{layer}"))
        if training and cfg.dropout > 0.0 and layer < cfg.num_layers - 1:
            if stream is None:
                raise ValueError("dropout during training needs an rng stream")
            h = _dropout(h, cfg.dropout, stream.split(f"dropout{layer}"))
    pooled = segment_sum(h, batch.node_to_graph, batch.num_graphs)
    if cfg.readout == "mean":
        counts = batch.node_counts.astype(float).reshape(-1, 1)
        pooled = pooled * Tensor(1.0 / counts)
    node_out = mlp(h, *params.under("proj_node"))
    graph_out = mlp(pooled, *params.under("proj_graph"))
    return Encodings(node_matrix=node_out, graph_vector=graph_out)
