"""The parameter layout that checkpoints and optimizer state depend on.

For each group of ``init_state`` this pins the ordered ``(name, shape)``
list and a sha256 of the initial values. A checkpoint stores tensors by
name in this order, the Adam moments follow it, and gradient clipping sums
squares in it, so a renamed, reordered or reseeded parameter fails here
even when training still runs. ``param_layout.json`` was recorded from the
code before the dense layers shared one builder. Only a change that moves
the layout on purpose regenerates it, and then old checkpoints no longer
load::

    PYTHONPATH=src python tests/test_param_layout.py
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from graphaug.objective import DISCRIMINATORS
from graphaug.policy import POLICY_KINDS
from graphaug.trainer import GROUPS, TrainConfig, init_state

LAYOUT_PATH = Path(__file__).resolve().parent / "param_layout.json"
INPUT_DIM = 7
CONFIGS = {
    "graph/gru/dot": dict(task="graph", policy_kind="gru",
                          discriminator="dot"),
    "graph/gru/mlp": dict(task="graph", policy_kind="gru",
                          discriminator="mlp"),
    "node/random/bilinear": dict(task="node", policy_kind="random",
                                 discriminator="bilinear"),
    # ω follows num_layers; θ on the node task is a two-layer GCN regardless
    "node/random/cosine/3-layer": dict(task="node", policy_kind="random",
                                       discriminator="cosine", num_layers=3),
}


def layout(config: TrainConfig) -> dict:
    """Per group: the ordered names and shapes, and a hash of the values."""
    state = init_state(config, INPUT_DIM)
    out = {}
    for g in GROUPS:
        digest = hashlib.sha256()
        params = []
        for name, t in state.group(g).items():
            params.append(f"{name} {list(t.shape)}")
            digest.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        out[g] = {"params": params, "sha256": digest.hexdigest()}
    return out


def record() -> dict:
    return {key: layout(TrainConfig(seed=7, **kw))
            for key, kw in CONFIGS.items()}


def test_configs_cover_every_policy_discriminator_and_task():
    for field, values in (("policy_kind", POLICY_KINDS),
                          ("discriminator", DISCRIMINATORS),
                          ("task", ("graph", "node"))):
        assert {kw[field] for kw in CONFIGS.values()} == set(values), field


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_init_state_keeps_its_parameter_layout(key):
    want = json.loads(LAYOUT_PATH.read_text())[key]
    got = layout(TrainConfig(seed=7, **CONFIGS[key]))
    for g in GROUPS:
        assert got[g]["params"] == want[g]["params"], f"{key} {g}: names"
        assert got[g]["sha256"] == want[g]["sha256"], f"{key} {g}: values"


if __name__ == "__main__":
    LAYOUT_PATH.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {LAYOUT_PATH}")
