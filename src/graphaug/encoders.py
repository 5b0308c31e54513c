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


def init_encoder_params(cfg: EncoderConfig, seed: int) -> ParameterSet:
    params = ParameterSet()
    d_in = cfg.input_dim
    for layer in range(cfg.num_layers):
        base = f"layer{layer}"
        if cfg.layer_kind == "gin":
            params.add(f"{base}/w1", xavier_init((d_in, cfg.hidden_dim),
                                                 param_seed(seed, f"{base}/w1")))
            params.add(f"{base}/b1", zeros_param((cfg.hidden_dim,)))
            params.add(f"{base}/w2", xavier_init((cfg.hidden_dim, cfg.hidden_dim),
                                                 param_seed(seed, f"{base}/w2")))
            params.add(f"{base}/b2", zeros_param((cfg.hidden_dim,)))
        else:
            params.add(f"{base}/w", xavier_init((d_in, cfg.hidden_dim),
                                                param_seed(seed, f"{base}/w")))
            params.add(f"{base}/b", zeros_param((cfg.hidden_dim,)))
        d_in = cfg.hidden_dim
    for head in ("proj_node", "proj_graph"):
        for i in range(3):
            name = f"{head}/w{i}"
            params.add(name, xavier_init((cfg.hidden_dim, cfg.hidden_dim),
                                         param_seed(seed, name)))
            params.add(f"{head}/b{i}", zeros_param((cfg.hidden_dim,)))
    return params


def mlp2(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two linear layers with a ReLU between."""
    return (x @ w1 + b1).relu() @ w2 + b2


def gin_layer(h: Tensor, src: np.ndarray, dst: np.ndarray, edge_w: Tensor,
              w1, b1, w2, b2) -> Tensor:
    """h'_v = MLP(h_v + sum over in-edges of w_uv h_u), GIN with eps = 0."""
    if len(src):
        msgs = h.gather_rows(src) * edge_w.reshape(-1, 1)
        h = h + segment_sum(msgs, dst, h.shape[0])
    return mlp2(h, w1, b1, w2, b2)


def gcn_layer(h: Tensor, src: np.ndarray, dst: np.ndarray, edge_w: Tensor,
              w: Tensor, b: Tensor) -> Tensor:
    """Symmetric-normalized propagation with implicit unit self-loops.

    h' = ReLU(D^-1/2 (A_w + I) D^-1/2 h W), with edge weights inside A_w.
    """
    num_nodes = h.shape[0]
    hw = h @ w + b
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


def _project3(x: Tensor, params: ParameterSet, prefix: str) -> Tensor:
    for i in range(3):
        x = x @ params[f"{prefix}/w{i}"] + params[f"{prefix}/b{i}"]
        if i < 2:
            x = x.relu()
    return x


def encode(batch: GraphBatch, params: ParameterSet, cfg: EncoderConfig,
           stream: RngStream | None = None,
           training: bool = False) -> Encodings:
    """Run the stacked layers, read out per graph, and project both levels."""
    src, dst = batch.edges[:, 0], batch.edges[:, 1]
    h = batch.features
    edge_w = batch.edge_weights
    for layer in range(cfg.num_layers):
        base = f"layer{layer}"
        if cfg.layer_kind == "gin":
            h = gin_layer(h, src, dst, edge_w,
                          params[f"{base}/w1"], params[f"{base}/b1"],
                          params[f"{base}/w2"], params[f"{base}/b2"])
        else:
            h = gcn_layer(h, src, dst, edge_w,
                          params[f"{base}/w"], params[f"{base}/b"])
        if training and cfg.dropout > 0.0 and layer < cfg.num_layers - 1:
            if stream is None:
                raise ValueError("dropout during training needs an rng stream")
            h = _dropout(h, cfg.dropout, stream.split(f"dropout{layer}"))
    pooled = segment_sum(h, batch.node_to_graph, batch.num_graphs)
    if cfg.readout == "mean":
        counts = batch.node_counts.astype(float).reshape(-1, 1)
        pooled = pooled * Tensor(1.0 / counts)
    node_out = _project3(h, params, "proj_node")
    graph_out = _project3(pooled, params, "proj_graph")
    return Encodings(node_matrix=node_out, graph_vector=graph_out)
