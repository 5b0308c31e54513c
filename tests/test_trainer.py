import gc
import math
import tracemalloc

import numpy as np
import pytest

from graphaug.errors import CheckpointError, DatasetError
from graphaug.evaluation import embed_dataset
from graphaug.graphs import Graph, batch_graphs
from graphaug.policy import AugmentationKind
from graphaug.rng import RngStream
from graphaug.tensor import Tensor
from graphaug.trainer import (
    TrainConfig, init_state, load_checkpoint, save_checkpoint, train,
    train_step,
)
from graphaug.tudataset import Dataset, parse_tudataset

from conftest import head_names


def synthetic_dataset(num_graphs=16, seed=0, d_x=4):
    """Two planted classes: dense blobs vs sparse chains."""
    stream = RngStream(seed, "synth")
    graphs = []
    for k in range(num_graphs):
        label = k % 2
        n = int(stream.integers(5, 9))
        edges = []
        if label == 0:
            for i in range(n):
                for j in range(i + 1, n):
                    if stream.uniform() < 0.8:
                        edges += [(i, j), (j, i)]
        else:
            for i in range(n - 1):
                edges += [(i, i + 1), (i + 1, i)]
        if not edges:
            edges = [(0, 1), (1, 0)]
        feats = stream.uniform((n, d_x)) + (0.5 if label else -0.5)
        graphs.append(Graph(n, np.array(edges), feats, np.ones(len(edges))))
    return Dataset("SYNTH", graphs, 2, d_x,
                   graph_labels=np.arange(num_graphs) % 2)


def small_config(**overrides):
    base = dict(epochs=2, batch_size=4, learning_rate=1e-3, hidden_dim=8,
                num_layers=1, policy_kind="gru", seed=3, dropout=0.0)
    base.update(overrides)
    return TrainConfig(**base)


def snapshot(ps):
    return {k: v.data.copy() for k, v in ps.items()}


def changed(a, b):
    return any(not np.array_equal(a[k], b[k]) for k in a)


def test_coin_controls_encoder_updates():
    ds = synthetic_dataset()
    config = small_config()
    state = init_state(config, ds.feature_dim)
    batch = batch_graphs(ds.graphs[:4])
    seen = {True: 0, False: 0}
    for _ in range(12):
        before_theta = snapshot(state.theta)
        before_omega = snapshot(state.omega)
        res = train_step(batch, state, config)
        if res.coin:
            assert changed(before_theta, snapshot(state.theta))
            assert not changed(before_omega, snapshot(state.omega))
        else:
            assert changed(before_omega, snapshot(state.omega))
            assert not changed(before_theta, snapshot(state.theta))
        seen[res.coin] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_policy_and_sampled_heads_update_every_step():
    ds = synthetic_dataset()
    config = small_config(policy_kind="gru")
    state = init_state(config, ds.feature_dim)
    batch = batch_graphs(ds.graphs[:4])
    before_policy = snapshot(state.policy)
    train_step(batch, state, config)
    assert changed(before_policy, snapshot(state.policy))
    # heads that were not sampled in a step stay bitwise identical
    before_heads = snapshot(state.heads)
    res = train_step(batch, state, config)
    sampled = {res.decision.i, res.decision.j} - {AugmentationKind.IDENTITY}
    after = snapshot(state.heads)
    for kind in AugmentationKind:     # the identity has no parameters
        own = {n: before_heads[n] for n in head_names(state.heads, kind)}
        assert changed(own, after) == (kind in sampled), kind


def test_fixed_seed_reproduces_loss_exactly():
    ds = synthetic_dataset()
    losses = []
    for _ in range(2):
        config = small_config(epochs=1)
        state, metrics, _ = train(ds, config)
        losses.append([m["loss"] for m in metrics])
    assert losses[0] == losses[1]


def test_epochs_zero_returns_init_state():
    ds = synthetic_dataset()
    state, metrics, freqs = train(ds, small_config(epochs=0))
    assert metrics == [] and freqs == []
    assert state.step == 0


def test_loss_decreases_on_synthetic_data():
    ds = synthetic_dataset(num_graphs=24, seed=5)
    config = small_config(epochs=12, batch_size=8, learning_rate=3e-3,
                          hidden_dim=16, seed=11)
    state, metrics, _ = train(ds, config)
    by_epoch = {}
    for m in metrics:
        by_epoch.setdefault(m["epoch"], []).append(m["loss"])
    first = np.mean(by_epoch[0])
    last = np.mean(by_epoch[max(by_epoch)])
    assert np.isfinite(last)
    assert last < first


def test_frequency_rows_are_distributions():
    ds = synthetic_dataset()
    _, _, freqs = train(ds, small_config(epochs=2))
    for row in freqs:
        total = sum(row[k.value] for k in AugmentationKind)
        assert abs(total - 1.0) < 1e-9


def test_node_task_runs_and_excludes_subgraph():
    stream = RngStream(9, "nt")
    n = 40
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if stream.uniform() < 0.12:
                edges += [(i, j), (j, i)]
    g = Graph(n, np.array(edges), stream.uniform((n, 5)), np.ones(len(edges)))
    ds = Dataset("NODE", [g], 0, 5)
    config = small_config(task="node", epochs=1, node_batch_subgraphs=6,
                          hops=2, policy_kind="deepset")
    state, metrics, freqs = train(ds, config)
    assert metrics, "node task produced no steps"
    assert all(m["aug_i"] != "subgraph" and m["aug_j"] != "subgraph"
               for m in metrics)
    assert not head_names(state.heads, AugmentationKind.SUBGRAPH)


def test_early_stopping_by_epoch():
    ds = synthetic_dataset()
    config = small_config(epochs=50, early_stop_patience=2, learning_rate=0.0)
    state, metrics, _ = train(ds, config)
    # zero learning rate: no improvement after epoch one; stop after patience
    assert state.epoch < 50


def test_early_stopping_by_step():
    ds = synthetic_dataset()
    config = small_config(epochs=20, early_stop_patience=3,
                          patience_unit="step")
    state, metrics, _ = train(ds, config)
    best, stale, stop = float("inf"), 0, None
    for k, row in enumerate(metrics):
        if row["loss"] < best:
            best, stale = row["loss"], 0
        else:
            stale += 1
        if stale >= 3:
            stop = k
            break
    assert stop is not None, "no stopping point in 20 epochs of losses"
    assert len(metrics) == stop + 1 < 20 * 4
    assert (state.best_loss, state.stale) == (best, stale)


def test_dataset_checks_feature_columns():
    graphs = synthetic_dataset(d_x=4).graphs
    with pytest.raises(DatasetError, match="X: graph 0 has 4 feature columns, "
                                           "not feature_dim 5"):
        Dataset("X", graphs, 2, 5)


def test_training_checks_the_state_input_dim():
    ds = synthetic_dataset(d_x=4)
    state = init_state(small_config(), 6)
    with pytest.raises(DatasetError, match="expects d_x=6, .* has d_x=4"):
        train(ds, small_config(), state)


def test_training_needs_two_graphs():
    one = synthetic_dataset(num_graphs=1)
    with pytest.raises(DatasetError, match="at least 2"):
        train(one, small_config())
    # a trailing singleton is skipped: 5 graphs in batches of 4 is one step
    _, metrics, _ = train(synthetic_dataset(num_graphs=5),
                          small_config(epochs=1))
    assert len(metrics) == 1


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    ds = synthetic_dataset()
    config = small_config(epochs=1)
    state, _, _ = train(ds, config)
    path = tmp_path / "ck.bin"
    save_checkpoint(state, config, path)
    loaded, config2 = load_checkpoint(path)
    assert config2 == config
    for gname in ("omega", "policy", "heads", "theta"):
        a, b = state.group(gname), loaded.group(gname)
        assert a.names() == b.names()
        for name in a.names():
            assert np.array_equal(a[name].data, b[name].data)
    assert loaded.step == state.step
    assert loaded.best_loss == state.best_loss


def test_resume_matches_uninterrupted(tmp_path):
    ds = synthetic_dataset()
    straight_cfg = small_config(epochs=4, seed=21)
    straight_state, straight_metrics, _ = train(ds, straight_cfg)

    part_cfg = small_config(epochs=2, seed=21)
    part_state, part_metrics, _ = train(ds, part_cfg)
    path = tmp_path / "mid.bin"
    save_checkpoint(part_state, part_cfg, path)
    resumed, _ = load_checkpoint(path)
    rest_cfg = small_config(epochs=4, seed=21)
    resumed, rest_metrics, _ = train(ds, rest_cfg, state=resumed)

    combined = [m["loss"] for m in part_metrics + rest_metrics]
    straight = [m["loss"] for m in straight_metrics]
    assert len(combined) == len(straight)
    for a, b in zip(straight, combined):
        assert abs(a - b) <= 1e-12


def test_checkpoint_corrupt_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"GAPC" + b"\x01\x00\x00\x00" + b"\xff" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_parameter_count_preserved(tmp_path):
    ds = synthetic_dataset()
    config = small_config(epochs=0)
    state, _, _ = train(ds, config)
    path = tmp_path / "ck.bin"
    save_checkpoint(state, config, path)
    loaded, _ = load_checkpoint(path)
    for gname in ("omega", "policy", "heads", "theta"):
        assert sum(t.size for t in state.group(gname).tensors()) == \
            sum(t.size for t in loaded.group(gname).tensors())


def test_nan_loss_aborts_with_diagnostics():
    from graphaug.errors import TrainingDivergedError
    ds = synthetic_dataset()
    config = small_config()
    state = init_state(config, ds.feature_dim)
    for t in state.theta.tensors():
        t.data = np.full_like(t.data, np.nan)
    with pytest.raises(TrainingDivergedError, match="step"):
        with np.errstate(invalid="ignore"):
            train_step(batch_graphs(ds.graphs[:4]), state, config)


def test_checkpoint_missing_parameter_rejected(tmp_path):
    from graphaug import container
    ds = synthetic_dataset()
    config = small_config(epochs=0)
    state, _, _ = train(ds, config)
    path = tmp_path / "ck.bin"
    save_checkpoint(state, config, path)
    meta, tensors = container.read_container(path)
    dropped = {k: v for k, v in tensors.items()
               if not k.startswith("params/omega/layer0/w1")}
    container.write_container(path, meta, dropped)
    with pytest.raises(CheckpointError, match="missing parameter"):
        load_checkpoint(path)


@pytest.mark.parametrize("extra,match", [
    ({"not_a_field": 1}, "not_a_field"),
    ({"policy_kind": "bogus"}, "policy_kind"),
])
def test_checkpoint_bad_config_is_checkpoint_error(tmp_path, extra, match):
    from graphaug import container
    ds = synthetic_dataset()
    config = small_config(epochs=0)
    state, _, _ = train(ds, config)
    path = tmp_path / "ck.bin"
    save_checkpoint(state, config, path)
    meta, tensors = container.read_container(path)
    meta["config"].update(extra)
    container.write_container(path, meta, tensors)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


@pytest.mark.parametrize("overrides,match", [
    (dict(batch_size=1), "batch_size"),
    (dict(policy_kind="bogus"), "policy_kind"),
    (dict(estimator="bogus"), "estimator"),
    (dict(discriminator="bogus"), "discriminator"),
    (dict(estimator="nt_xent", nt_xent_temperature=0.0), "temperature"),
    (dict(hops=0), "hops"),
    (dict(task="node", hops=-1), "hops"),
    (dict(task="node", node_batch_subgraphs=0), "node_batch_subgraphs"),
    (dict(hidden_dim=0), "hidden_dim"),
    (dict(dropout=1.5), "dropout"),
    (dict(dropout=-0.1), "dropout"),
    (dict(task="node", node_batch_subgraphs=1), "node_batch_subgraphs"),
    (dict(learning_rate=-1.0), "learning_rate"),
    (dict(learning_rate=float("nan")), "learning_rate"),
    (dict(learning_rate=float("inf")), "learning_rate"),
    (dict(clip_norm=-1.0), "clip_norm"),
    (dict(clip_norm=0.0), "clip_norm"),
    (dict(clip_norm=float("nan")), "clip_norm"),
    (dict(clip_norm=float("inf")), "clip_norm"),
    (dict(early_stop_patience=0), "early_stop_patience"),
    (dict(early_stop_patience=-3), "early_stop_patience"),
])
def test_config_rejects_invalid_values(overrides, match):
    with pytest.raises(ValueError, match=match):
        small_config(**overrides)


def test_singleton_batches_allowed_on_node_task():
    # node batches are sized by node_batch_subgraphs; batch_size is unused
    assert small_config(task="node", batch_size=1).batch_size == 1


def test_gradients_reach_all_groups_over_steps():
    ds = synthetic_dataset()
    config = small_config(epochs=3, policy_kind="gru", seed=6)
    state, metrics, _ = train(ds, config)
    # adam moment buffers exist only for parameters that received gradients
    assert state.adam["policy"].m, "policy never received gradients"
    assert state.adam["omega"].m, "omega never received gradients"
    assert state.adam["theta"].m, "theta never received gradients"
    sampled = {m["aug_i"] for m in metrics} | {m["aug_j"] for m in metrics}
    sampled -= {"identity"}
    for kind in sampled:
        touched = [k for k in state.adam["heads"].m if k.startswith(kind)]
        assert touched, f"{kind} head sampled but never updated"


def test_step_and_embed_leave_no_reference_cycles(mutag_dir):
    """The tape is freed by reference counting: a training step and an embed
    leave nothing for the cyclic garbage collector."""
    ds = parse_tudataset(mutag_dir)
    config = TrainConfig(batch_size=32, hidden_dim=16, num_layers=2, seed=5)
    state = init_state(config, ds.feature_dim)
    batch = batch_graphs(ds.graphs[:32])
    gc.collect()
    gc.disable()
    try:
        train_step(batch, state, config)
        assert gc.collect() == 0
        embed_dataset(ds, state, config)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_graph_step_tensor_count_bounded(mutag_dir, monkeypatch):
    """The heads build a fixed tape per view, the GRU policy is one tape node
    and a dense layer or a message pass is one node: a GRU-policy step on 32
    MUTAG graphs creates at most 160 tensors (127-143; 200-217 with a node
    per matmul, bias add, ReLU, gather and scatter, ~3,080 with per-graph
    heads and ~1,080 with the unrolled GRU)."""
    ds = parse_tudataset(mutag_dir)
    config = TrainConfig(batch_size=32, seed=5)
    state = init_state(config, ds.feature_dim)
    batch = batch_graphs(ds.graphs[:32])
    created = [0]
    init = Tensor.__init__

    def counting_init(tensor, *args, **kwargs):
        created[0] += 1
        init(tensor, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    kinds = set()
    for _ in range(4):
        created[0] = 0
        res = train_step(batch, state, config)
        kinds.update((res.decision.i, res.decision.j))
        assert created[0] <= 160, (res.decision, created[0])
    assert len(kinds - {AugmentationKind.IDENTITY}) >= 2, kinds


def test_graph_step_tape_bytes_bounded(mutag_dir, monkeypatch):
    """Each fused op keeps only what its backward reads: when a GRU-policy
    step on 32 MUTAG graphs enters ``backward``, at most 7.5 MiB more is
    live than when the step began (3.7-6.7 MiB; 8.0-14.6 MiB when every
    matmul, bias add, ReLU, gather and product kept its own array)."""
    ds = parse_tudataset(mutag_dir)
    config = TrainConfig(batch_size=32, seed=5)
    state = init_state(config, ds.feature_dim)
    batch = batch_graphs(ds.graphs[:32])
    live = []
    backward = Tensor.backward

    def measured_backward(tensor):
        live.append(tracemalloc.get_traced_memory()[0])
        backward(tensor)

    monkeypatch.setattr(Tensor, "backward", measured_backward)
    tracemalloc.start()
    try:
        for _ in range(8):
            live.clear()
            start = tracemalloc.get_traced_memory()[0]
            res = train_step(batch, state, config)
            assert len(live) == 1
            tape = (live[0] - start) / 2 ** 20
            assert tape <= 7.5, (res.decision, f"{tape:.2f} MiB")
    finally:
        tracemalloc.stop()


def _saved_checkpoint(tmp_path, epochs=1):
    from graphaug import container
    ds = synthetic_dataset()
    config = small_config(epochs=epochs)
    state, _, _ = train(ds, config)
    path = tmp_path / "ck.bin"
    save_checkpoint(state, config, path)
    return path, container.read_container(path)


def test_checkpoint_with_policy_temperature_still_loads(tmp_path):
    """Checkpoints written before the setting was removed store it."""
    from graphaug import container
    path, (meta, tensors) = _saved_checkpoint(tmp_path)
    want, config = load_checkpoint(path)
    meta["config"]["policy_temperature"] = 0.05
    container.write_container(path, meta, tensors)
    loaded, config2 = load_checkpoint(path)
    assert config2 == config
    for gname in ("omega", "policy", "heads", "theta"):
        for name, t in loaded.group(gname).items():
            assert np.array_equal(t.data, want.group(gname)[name].data)


@pytest.mark.parametrize("keys", [
    ("adam_steps",), ("adam_steps", "heads"), ("streams",),
    ("streams", "coin"), ("input_dim",), ("epoch",), ("stale",),
], ids="/".join)
def test_checkpoint_missing_meta_key_rejected(tmp_path, keys):
    from graphaug import container
    path, (meta, tensors) = _saved_checkpoint(tmp_path)
    parent = meta
    for key in keys[:-1]:
        parent = parent[key]
    del parent[keys[-1]]
    container.write_container(path, meta, tensors)
    with pytest.raises(CheckpointError, match=keys[-1]):
        load_checkpoint(path)


@pytest.mark.parametrize("keys,value", [
    (("input_dim",), "7"), (("input_dim",), 0), (("input_dim",), True),
    (("epoch",), 1.5), (("epoch",), -1), (("step",), "3"),
    (("stale",), None), (("adam_steps", "heads"), "2"),
    (("adam_steps", "theta"), False), (("best_loss",), "0.5"),
    (("best_loss",), float("nan")), (("best_loss",), None),
], ids=lambda v: "/".join(v) if isinstance(v, tuple) else repr(v))
def test_checkpoint_bad_meta_type_rejected(tmp_path, keys, value):
    from graphaug import container
    path, (meta, tensors) = _saved_checkpoint(tmp_path)
    parent = meta
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    container.write_container(path, meta, tensors)
    with pytest.raises(CheckpointError, match=keys[-1]):
        load_checkpoint(path)


def test_checkpoint_with_infinite_best_loss_loads(tmp_path):
    path, _ = _saved_checkpoint(tmp_path, epochs=0)
    state, _ = load_checkpoint(path)
    assert state.best_loss == math.inf


def _edit_moments(tensors, edit):
    """Apply ``edit(name, array) -> {name: array}`` to every Adam moment."""
    out = {}
    for name, arr in tensors.items():
        out.update(edit(name, arr) if name.startswith("adam/")
                   else {name: arr})
    return out


@pytest.mark.parametrize("edit,match", [
    (lambda k, a: {k: np.zeros(1)}, "shape mismatch"),
    (lambda k, a: {k + "x": a}, "match no parameter"),
    (lambda k, a: {} if "/v/" in k else {k: a}, "one Adam moment"),
], ids=["bad-shape", "unknown-name", "m-without-v"])
def test_checkpoint_bad_adam_moment_rejected(tmp_path, edit, match):
    from graphaug import container
    path, (meta, tensors) = _saved_checkpoint(tmp_path)
    assert any(k.startswith("adam/") for k in tensors)
    container.write_container(path, meta, _edit_moments(tensors, edit))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


@pytest.mark.parametrize("bad,first", [
    ({"params/theta/layer0/w1": np.nan}, "params/theta/layer0/w1"),
    ({"params/theta/layer0/w1": np.nan, "adam/omega/v/layer0/b1": np.inf},
     "adam/omega/v/layer0/b1"),
    ({"adam/heads/m/edge_perturb/mlp/w0": -np.inf}, "adam/heads/m/edge_perturb/mlp/w0"),
], ids=["parameter", "first-of-two", "moment"])
def test_checkpoint_with_non_finite_values_rejected(tmp_path, bad, first):
    from graphaug import container
    path, (meta, tensors) = _saved_checkpoint(tmp_path)
    for key, value in bad.items():
        tensors[key].flat[-1] = value
    container.write_container(path, meta, tensors)
    with pytest.raises(CheckpointError, match=f"non-finite values in {first}$"):
        load_checkpoint(path)


def test_resumed_run_writes_the_uninterrupted_checkpoint(tmp_path):
    ds = synthetic_dataset()
    straight, _, _ = train(ds, small_config(epochs=4, seed=21))
    part, _, _ = train(ds, small_config(epochs=2, seed=21))
    save_checkpoint(part, small_config(epochs=2, seed=21), tmp_path / "mid.bin")
    resumed, _ = load_checkpoint(tmp_path / "mid.bin")
    resumed, _, _ = train(ds, small_config(epochs=4, seed=21), state=resumed)
    for name, state in (("straight", straight), ("resumed", resumed)):
        save_checkpoint(state, small_config(epochs=4, seed=21),
                        tmp_path / f"{name}.bin")
    assert (tmp_path / "straight.bin").read_bytes() == \
        (tmp_path / "resumed.bin").read_bytes()
