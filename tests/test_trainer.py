import gc
import math
import tracemalloc

import numpy as np
import pytest

from graphaug.errors import CheckpointError, DatasetError
from graphaug.evaluation import embed_dataset
from graphaug.graphs import Graph, batch_graphs, make_node_task_batch
from graphaug.optim import adam_step, clip_by_global_norm
from graphaug.policy import AugmentationKind
from graphaug.rng import RngStream
from graphaug.tensor import Tensor
from graphaug.trainer import (
    GROUPS, TrainConfig, init_state, load_checkpoint, save_checkpoint,
    step_loss, train, train_step,
)
from graphaug.tudataset import Dataset, parse_tudataset

from conftest import head_names
from planted_partition import planted_partition


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


def copies(arrays):
    return {k: v.copy() for k, v in arrays.items()}


def test_step_loss_is_the_forward_of_train_step():
    ds = synthetic_dataset()
    config = small_config(dropout=0.3)      # every encoder draws its masks
    state = init_state(config, ds.feature_dim)
    batch = batch_graphs(ds.graphs[:4])
    streams = ("sample_root", "shuffle_stream", "coin_stream")
    for _ in range(3):
        params = {g: snapshot(state.group(g)) for g in GROUPS}
        adam = {g: (a.step, copies(a.m), copies(a.v))
                for g, a in state.adam.items()}
        rng = [getattr(state, s).get_state() for s in streams]
        step = state.step
        loss, decision, _ = step_loss(
            batch, state, config, state.sample_root.split(f"step{step}"))
        assert state.step == step
        assert [getattr(state, s).get_state() for s in streams] == rng
        for g in GROUPS:
            assert not changed(params[g], snapshot(state.group(g)))
            a = state.adam[g]
            step_count, m, v = adam[g]
            assert a.step == step_count and a.m.keys() == m.keys()
            assert not changed(m, a.m) and not changed(v, a.v)
        res = train_step(batch, state, config)
        assert res.loss == loss.item()
        assert (res.decision.i, res.decision.j) == (decision.i, decision.j)
        assert res.decision.p_i.data.tobytes() == decision.p_i.data.tobytes()
        assert res.decision.p_j.data.tobytes() == decision.p_j.data.tobytes()


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
                          hops=2)
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
    """A divergence leaves the state as it was before the step: parameters,
    Adam state, step count and all three streams (the coin is drawn before
    the forward and must not stay drawn)."""
    from graphaug.errors import TrainingDivergedError
    ds = synthetic_dataset()
    config = small_config()
    state = init_state(config, ds.feature_dim)
    batch = batch_graphs(ds.graphs[:4])
    for _ in range(3):
        train_step(batch, state, config)
    streams = ("sample_root", "shuffle_stream", "coin_stream")
    for t in state.theta.tensors():
        t.data = np.full_like(t.data, np.nan)
    params = {g: snapshot(state.group(g)) for g in GROUPS}
    adam = {g: (a.step, copies(a.m), copies(a.v))
            for g, a in state.adam.items()}
    rng = [getattr(state, s).get_state() for s in streams]
    with pytest.raises(TrainingDivergedError, match="step 3"):
        with np.errstate(invalid="ignore"):
            train_step(batch, state, config)
    assert state.step == 3
    assert [getattr(state, s).get_state() for s in streams] == rng
    for g in GROUPS:
        after = snapshot(state.group(g))
        assert all(np.array_equal(params[g][k], after[k], equal_nan=True)
                   for k in after)
        step_count, m, v = adam[g]
        a = state.adam[g]
        assert a.step == step_count and a.m.keys() == m.keys()
        assert not changed(m, a.m) and not changed(v, a.v)


def test_non_finite_gradient_aborts_with_the_state_as_it_was(monkeypatch):
    """A step whose gradient is not finite raises before Adam runs, with
    the parameters, Adam state, step count and streams as they were."""
    from graphaug import trainer
    from graphaug.errors import TrainingDivergedError
    ds = synthetic_dataset()
    config = small_config()
    state = init_state(config, ds.feature_dim)
    batch = batch_graphs(ds.graphs[:4])
    for _ in range(3):
        train_step(batch, state, config)
    clip = trainer.clip_by_global_norm

    def infinite_clip(grads, max_norm):
        grads[0][...] = np.inf
        return clip(grads, max_norm)
    monkeypatch.setattr(trainer, "clip_by_global_norm", infinite_clip)
    streams = ("sample_root", "shuffle_stream", "coin_stream")
    params = {g: snapshot(state.group(g)) for g in GROUPS}
    adam = {g: (a.step, copies(a.m), copies(a.v))
            for g, a in state.adam.items()}
    rng = [getattr(state, s).get_state() for s in streams]
    with pytest.raises(TrainingDivergedError,
                       match="non-finite gradient at step 3"):
        train_step(batch, state, config)
    assert state.step == 3
    assert [getattr(state, s).get_state() for s in streams] == rng
    for g in GROUPS:
        assert not changed(params[g], snapshot(state.group(g)))
        step_count, m, v = adam[g]
        a = state.adam[g]
        assert a.step == step_count and a.m.keys() == m.keys()
        assert not changed(m, a.m) and not changed(v, a.v)


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
    # removed before stream_layout existed, so no loadable checkpoint has it
    ({"policy_temperature": 0.05}, "policy_temperature"),
    # the deep-set policy is gone, and cosine trains no learned policy
    ({"policy_kind": "deepset"}, "policy_kind"),
    ({"discriminator": "cosine"}, "policy_kind random"),
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
    (dict(discriminator="cosine"), "cosine needs policy_kind random"),
])
def test_config_rejects_invalid_values(overrides, match):
    with pytest.raises(ValueError, match=match):
        small_config(**overrides)


@pytest.mark.parametrize("overrides,match", [
    (dict(hidden_dim=32.0), "hidden_dim must be of type int; got 32.0"),
    (dict(batch_size=32.5), "batch_size must be of type int; got 32.5"),
    (dict(num_layers=True), "num_layers must be of type int; got True"),
    (dict(seed=np.int64(3)), "seed must be of type int"),
    (dict(learning_rate="0.1"), "learning_rate must be of type int or float"),
    (dict(dropout=False), "dropout must be of type int or float"),
    (dict(task=None), "task must be of type str"),
])
def test_config_rejects_values_of_the_wrong_type(overrides, match):
    with pytest.raises(TypeError, match=match):
        small_config(**overrides)


def test_config_takes_an_int_for_a_float_field():
    assert small_config(learning_rate=1, clip_norm=5).clip_norm == 5


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


def test_graph_step_tensor_count_bounded(mutag_dir, made_tensors):
    """The heads build a fixed tape per view, the GRU policy is one tape node,
    a dense layer or a message pass is one node and the idle encoder records
    nothing: a GRU-policy step on 32 MUTAG graphs records at most 114 tape
    nodes (96-114; 114-120 when the idle encoder was recorded too, 200-217
    with a node per matmul, bias add, ReLU, gather and scatter, ~3,080 with
    per-graph heads and ~1,080 with the unrolled GRU). It counts recorded
    nodes, not tensors made: the detached parameters record nothing."""
    ds = parse_tudataset(mutag_dir)
    config = TrainConfig(batch_size=32, seed=5)
    state = init_state(config, ds.feature_dim)
    batch = batch_graphs(ds.graphs[:32])
    kinds, coins = set(), set()
    for _ in range(4):
        made_tensors.clear()
        res = train_step(batch, state, config)
        kinds.update((res.decision.i, res.decision.j))
        coins.add(res.coin)
        recorded = sum(t._backprop is not None for t in made_tensors)
        assert recorded <= 114, (res.decision, res.coin, recorded)
    assert len(kinds - {AugmentationKind.IDENTITY}) >= 2, kinds
    assert coins == {True, False}


def _tape_mib_at_backward(batches, state, config, monkeypatch) -> list:
    """Per step: MiB live at ``backward()`` entry above the step's start."""
    live, tapes = [], []
    backward = Tensor.backward

    def measured_backward(tensor):
        live.append(tracemalloc.get_traced_memory()[0])
        backward(tensor)

    monkeypatch.setattr(Tensor, "backward", measured_backward)
    tracemalloc.start()
    try:
        for batch in batches:
            live.clear()
            start = tracemalloc.get_traced_memory()[0]
            train_step(batch, state, config)
            assert len(live) == 1
            tapes.append((live[0] - start) / 2 ** 20)
    finally:
        tracemalloc.stop()
    return tapes


def test_graph_step_tape_bytes_bounded(mutag_dir, monkeypatch):
    """Each op keeps only what its backward reads, a tape node holds no
    result's array and the idle encoder records nothing: when a GRU-policy
    step on 32 MUTAG graphs enters ``backward``, at most 3.9 MiB more is live
    than when the step began (1.8-3.4 MiB; 2.1-4.5 MiB when every node kept
    its result's array alive, 3.7-6.7 MiB when the idle encoder was recorded
    too, 8.0-14.6 MiB when every matmul, bias add, ReLU, gather and product
    kept its own array)."""
    ds = parse_tudataset(mutag_dir)
    config = TrainConfig(batch_size=32, seed=5)
    state = init_state(config, ds.feature_dim)
    batch = batch_graphs(ds.graphs[:32])
    tapes = _tape_mib_at_backward([batch] * 8, state, config, monkeypatch)
    assert max(tapes) <= 3.9, [f"{t:.2f}" for t in tapes]


def test_node_step_tape_bytes_bounded(monkeypatch):
    """The node-task counterpart, configured as the benchmark's node
    workload (GCN base encoder, random policy, 8 BFS subgraphs of 2 hops) on
    the 600-node planted partition: at most 2.3 MiB is live at
    ``backward()`` entry above the step's start (0.3-1.5 MiB; 0.7-3.2 MiB
    when every node kept its result's array alive)."""
    dataset = planted_partition(0)
    config = TrainConfig(task="node", policy_kind="random", hidden_dim=32,
                         num_layers=2, node_batch_subgraphs=8, hops=2, seed=5)
    state = init_state(config, dataset.feature_dim)
    batches = [make_node_task_batch(dataset.graphs[0], 8, 2,
                                    state.sample_root.split(f"nodebatch{k}"))
               for k in range(8)]
    tapes = _tape_mib_at_backward(batches, state, config, monkeypatch)
    assert max(tapes) <= 2.3, [f"{t:.2f}" for t in tapes]


def test_graph_step_peak_bytes_bounded(mutag_dir):
    """A step keeps only the tape its update reads, no tape node holds a
    result's array, the sweep frees each node once its closure has run, and
    the result holds no tape: run as ``train`` runs it, with the previous
    result alive, a GRU-policy step on 32 MUTAG graphs peaks at most 5.2 MiB
    above what was live before the first step (2.3-4.7 MiB; 2.5-5.7 MiB when
    every node kept its result's array alive, 5.6-10.4 MiB when both
    encoders were recorded and the tape lived until the step returned,
    5.5-6.9 MiB when only the sweep kept every node, 4.1-8.0 MiB when only
    the idle encoder was recorded)."""
    ds = parse_tudataset(mutag_dir)
    config = TrainConfig(batch_size=32, seed=5)
    state = init_state(config, ds.feature_dim)
    batch = batch_graphs(ds.graphs[:32])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(8):
            tracemalloc.reset_peak()
            res = train_step(batch, state, config)
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
            assert peak <= 5.2, (res.decision, res.coin, f"{peak:.2f} MiB")
    finally:
        tracemalloc.stop()


def test_node_embed_peak_bytes_bounded():
    """``propagate`` sums a large graph in destination-range blocks and a
    GCN layer frees its propagated and self-loop terms once they are
    summed: embedding every node of a 2,708-node, 10,500-edge planted
    partition with a 2-layer GCN of width 32 peaks at most 5.3 MiB above
    what was live before (3.43 MiB; 7.24 MiB when each propagate built all
    336,000 message values and their keys at once)."""
    dataset = planted_partition(0, num_nodes=2708, num_undirected_edges=5250)
    config = TrainConfig(task="node", policy_kind="random", hidden_dim=32,
                         num_layers=2, seed=5)
    state = init_state(config, dataset.feature_dim)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = embed_dataset(dataset, state, config)
        peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()
    assert table.vectors.shape == (2708, 32)
    assert peak <= 5.3, f"{peak:.2f} MiB"


def test_idle_group_gets_no_gradient_and_the_decision_is_off_the_tape():
    ds = synthetic_dataset()
    config = small_config(policy_kind="gru")
    state = init_state(config, ds.feature_dim)
    batch = batch_graphs(ds.graphs[:4])
    coins = set()
    for _ in range(10):
        res = train_step(batch, state, config)
        coins.add(res.coin)
        idle, updated = ("omega", "theta") if res.coin else ("theta", "omega")
        assert all(t.grad is None for t in state.group(idle).tensors())
        assert any(t.grad is not None for t in state.group(updated).tensors())
        for t in (res.decision.dist, res.decision.p_i, res.decision.p_j):
            assert not t.requires_grad and t._backprop is None
            assert t._parents == ()
    assert coins == {True, False}


def _full_tape_step(batch, state, config):
    """``train_step`` as it was when every group was recorded: the forward on
    all four groups, one backward, and only then the coin."""
    for g in GROUPS:
        state.group(g).zero_grads()
    loss, _, _ = step_loss(batch, state, config,
                           state.sample_root.split(f"step{state.step}"))
    loss.backward()
    coin = state.coin_stream.bernoulli(config.alternation_prob)
    update_groups = ["policy", "heads", "theta" if coin else "omega"]
    clip_by_global_norm([t.grad for g in update_groups
                         for t in state.group(g).tensors()
                         if t.grad is not None], config.clip_norm)
    for g in update_groups:
        adam_step(state.group(g), state.adam[g], config.learning_rate)
    state.step += 1
    return loss.item(), coin


@pytest.mark.parametrize("policy_kind", ["gru", "random"])
def test_detached_idle_group_keeps_every_bit(mutag_dir, policy_kind):
    """Dropping the idle encoder's nodes leaves every other node's place in
    the sweep, so each updated leaf accumulates the same sums in the same
    order: parameters and Adam moments stay bit for bit those of the step
    that recorded all four groups. The small ``clip_norm`` clips every step,
    so the global norm's summation order counts too."""
    ds = parse_tudataset(mutag_dir)
    config = TrainConfig(batch_size=16, hidden_dim=16, seed=7,
                         policy_kind=policy_kind, dropout=0.2, clip_norm=0.05)
    state = init_state(config, ds.feature_dim)
    ref = init_state(config, ds.feature_dim)
    coins = set()
    for k in range(6):
        batch = batch_graphs(ds.graphs[16 * k:16 * (k + 1)])
        res = train_step(batch, state, config)
        loss, coin = _full_tape_step(batch, ref, config)
        assert (res.loss, res.coin) == (loss, coin)
        coins.add(coin)
        for g in GROUPS:
            assert all(a.data.tobytes() == b.data.tobytes() for a, b in
                       zip(state.group(g).tensors(), ref.group(g).tensors()))
            for mine, theirs in ((state.adam[g].m, ref.adam[g].m),
                                 (state.adam[g].v, ref.adam[g].v)):
                assert mine.keys() == theirs.keys()
                assert all(mine[n].tobytes() == theirs[n].tobytes()
                           for n in mine)
    assert coins == {True, False}


def _update_grad_norm(state, coin):
    """The global norm of the gradients the step's update groups hold."""
    return math.sqrt(sum(
        float((t.grad * t.grad).sum())
        for g in ("policy", "heads", "theta" if coin else "omega")
        for t in state.group(g).tensors() if t.grad is not None))


def test_step_grad_norm_is_the_update_groups_norm_when_nothing_clips():
    ds = synthetic_dataset()
    config = small_config(clip_norm=1e12)
    state = init_state(config, ds.feature_dim)
    batch = batch_graphs(ds.graphs[:4])
    for _ in range(4):
        res = train_step(batch, state, config)
        assert res.grad_norm > 0.0
        assert res.grad_norm == pytest.approx(
            _update_grad_norm(state, res.coin), rel=1e-12)


def test_step_grad_norm_is_taken_before_the_clip():
    ds = synthetic_dataset()
    config = small_config(clip_norm=1e-3)
    state = init_state(config, ds.feature_dim)
    batch = batch_graphs(ds.graphs[:4])
    for _ in range(4):
        res = train_step(batch, state, config)
        assert res.grad_norm > config.clip_norm
        assert _update_grad_norm(state, res.coin) == pytest.approx(
            config.clip_norm, rel=1e-12)


def test_train_rows_carry_each_steps_grad_norm():
    _, metrics, _ = train(synthetic_dataset(), small_config(clip_norm=1e-3))
    assert metrics
    assert all(np.isfinite(m["grad_norm"]) and m["grad_norm"] > 1e-3
               for m in metrics)


def _saved_checkpoint(tmp_path, epochs=1):
    from graphaug import container
    ds = synthetic_dataset()
    config = small_config(epochs=epochs)
    state, _, _ = train(ds, config)
    path = tmp_path / "ck.bin"
    save_checkpoint(state, config, path)
    return path, container.read_container(path)


@pytest.mark.parametrize("keys", [
    ("adam_steps",), ("adam_steps", "heads"), ("streams",),
    ("streams", "coin"), ("input_dim",), ("epoch",), ("stale",),
    ("stream_layout",),
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
    (("stream_layout",), "per-graph"),
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
