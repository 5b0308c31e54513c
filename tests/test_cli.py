import argparse
import csv
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from graphaug import cli, container, evaluation
from graphaug.cli import main
from graphaug.errors import TrainingDivergedError
from graphaug.rng import RngStream
from graphaug.trainer import TrainConfig, load_checkpoint
from graphaug.tudataset import parse_tudataset


def write_synthetic_tudataset(root: Path, name="SYN", num_graphs=10):
    """Small two-class dataset in the TUDataset text convention."""
    d = root / name
    d.mkdir(parents=True, exist_ok=True)
    stream = RngStream(77, "cli-synth")
    a_lines, ind_lines, label_lines, node_label_lines = [], [], [], []
    node_id = 0
    for k in range(num_graphs):
        label = k % 2
        n = 4 + int(stream.integers(0, 3))
        base = node_id + 1                      # files are 1-based
        for i in range(n):
            ind_lines.append(str(k + 1))
            node_label_lines.append(str(int(stream.integers(0, 3))))
        if label == 0:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        else:
            pairs = [(i, i + 1) for i in range(n - 1)]
        for i, j in pairs:
            a_lines.append(f"{base + i}, {base + j}")
            a_lines.append(f"{base + j}, {base + i}")
        label_lines.append(str(label))
        node_id += n
    (d / f"{name}_A.txt").write_text("\n".join(a_lines) + "\n")
    (d / f"{name}_graph_indicator.txt").write_text("\n".join(ind_lines) + "\n")
    (d / f"{name}_graph_labels.txt").write_text("\n".join(label_lines) + "\n")
    (d / f"{name}_node_labels.txt").write_text("\n".join(node_label_lines) + "\n")
    return d


@pytest.fixture
def dataset_dir(tmp_path):
    return write_synthetic_tudataset(tmp_path)


def run_cli(*argv):
    return main(list(argv))


TRAIN_ARGS = ["--epochs", "2", "--batch-size", "4", "--hidden-dim", "8",
              "--num-layers", "1", "--seed", "7"]


def test_train_writes_artifacts(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run1"
    code = run_cli("train", "--dataset", str(dataset_dir), "--out", str(out),
                   *TRAIN_ARGS)
    assert code == 0
    for artifact in ("checkpoint.bin", "metrics.csv", "aug_frequencies.csv",
                     "config_resolved.cfg"):
        assert (out / artifact).exists(), artifact
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "epoch,step,loss,aug_i,aug_j,p_i,p_j,coin"


def test_train_names_what_it_trains_on(dataset_dir, tmp_path, capsys):
    """The node task trains on the dataset's first graph alone, and the
    first line says so with that graph's size."""
    g = parse_tudataset(dataset_dir).graphs[0]
    for task, size in (("graph", "10 graphs"),
                       ("node", f"graph 0 of 10 ({g.num_nodes} nodes, "
                                f"{g.num_edges} edges)")):
        assert run_cli("train", "--dataset", str(dataset_dir), "--task", task,
                       "--out", str(tmp_path / task), "--epochs", "0") == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith(f"training on SYN: {size}, d_x="), first


def test_train_determinism_byte_identical(dataset_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("train", "--dataset", str(dataset_dir), "--out",
                       str(out), *TRAIN_ARGS) == 0
        outs.append(out)
    for artifact in ("metrics.csv", "aug_frequencies.csv"):
        assert (outs[0] / artifact).read_bytes() == \
            (outs[1] / artifact).read_bytes()
    assert (outs[0] / "checkpoint.bin").read_bytes() == \
        (outs[1] / "checkpoint.bin").read_bytes()


def test_missing_dataset_is_config_error(tmp_path, capsys):
    code = run_cli("train", "--out", str(tmp_path / "x"), *TRAIN_ARGS)
    assert code == 2
    assert "data.dataset" in capsys.readouterr().err


def test_epochs_zero_writes_initial_checkpoint(dataset_dir, tmp_path):
    out = tmp_path / "init"
    code = run_cli("train", "--dataset", str(dataset_dir), "--out", str(out),
                   "--epochs", "0", "--hidden-dim", "8", "--num-layers", "1",
                   "--seed", "1")
    assert code == 0
    assert (out / "checkpoint.bin").exists()
    assert (out / "metrics.csv").read_text().strip() == \
        "epoch,step,loss,aug_i,aug_j,p_i,p_j,coin"


def test_print_config(dataset_dir, capsys):
    code = run_cli("train", "--dataset", str(dataset_dir), "--print-config",
                   "--epochs", "3")
    assert code == 0
    text = capsys.readouterr().out
    assert "[train]" in text and "epochs = 3" in text


def test_config_file_and_override(dataset_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"[data]\ndataset = {dataset_dir}\n\n[train]\nepochs = 5\nseed = 2\n")
    code = run_cli("train", "--config", str(cfg), "--epochs", "1",
                   "--print-config")
    assert code == 0
    assert "epochs = 1" in capsys.readouterr().out


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[train]\nnot_a_key = 5\n")
    code = run_cli("train", "--config", str(cfg), "--print-config")
    assert code == 2
    assert "not_a_key" in capsys.readouterr().err


@pytest.mark.parametrize("section,key", [("train", "policy"),
                                         ("objective", "estimator"),
                                         ("objective", "discriminator"),
                                         ("data", "task"),
                                         ("train", "patience_unit")])
def test_bad_ini_choice_is_config_error(tmp_path, capsys, section, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{key} = bogus\n")
    code = run_cli("train", "--config", str(cfg), "--print-config")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and "bogus" in err


@pytest.mark.parametrize("flag", ["--policy", "--estimator",
                                  "--discriminator", "--task"])
def test_bad_flag_choice_is_config_error(capsys, flag):
    code = run_cli("train", flag, "bogus", "--print-config")
    assert code == 2
    assert flag[2:] in capsys.readouterr().err


def test_singleton_graph_batches_rejected(dataset_dir, tmp_path, capsys):
    out = tmp_path / "b1"
    code = run_cli("train", "--dataset", str(dataset_dir), "--out", str(out),
                   "--epochs", "1", "--batch-size", "1")
    assert code == 2
    assert "batch_size" in capsys.readouterr().err
    assert not (out / "checkpoint.bin").exists()


def test_singleton_node_batches_rejected(dataset_dir, tmp_path, capsys):
    out = tmp_path / "n1"
    code = run_cli("train", "--dataset", str(dataset_dir), "--out", str(out),
                   "--task", "node", "--estimator", "nce",
                   "--node-batch-subgraphs", "1")
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "node_batch_subgraphs" in err[0]
    assert not out.exists()


def test_one_graph_dataset_fails_cleanly(tmp_path, capsys):
    data = write_synthetic_tudataset(tmp_path, "ONE", num_graphs=1)
    out = tmp_path / "g1"
    code = run_cli("train", "--dataset", str(data), "--out", str(out),
                   "--epochs", "1", "--estimator", "nce")
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "at least 2" in err[0]
    assert not out.exists()


# one valid non-default value per TrainConfig field
NON_DEFAULT = {
    "epochs": 3, "batch_size": 16, "learning_rate": 0.01, "hidden_dim": 16,
    "num_layers": 3, "policy_kind": "random", "head_temperature": 0.5,
    "keep_ratio": 0.5, "hops": 1, "dropout": 0.25,
    "seed": 11, "early_stop_patience": 7, "patience_unit": "step",
    "alternation_prob": 0.25, "estimator": "nce", "discriminator": "cosine",
    "nt_xent_temperature": 0.25, "task": "node", "node_batch_subgraphs": 4,
    "clip_norm": 1.5,
}


def test_every_field_has_one_ini_key_and_one_flag(tmp_path):
    names = [f.name for f in fields(TrainConfig)]
    assert sorted(NON_DEFAULT) == sorted(names)
    ini_keys = [k for keys in cli.SECTIONS.values() for k in keys]
    assert len(ini_keys) == len(set(ini_keys))
    assert sorted(f.name for f in cli._FIELDS.values()) == sorted(names)
    assert set(cli._FIELDS) | {"dataset", "out_dir"} == set(ini_keys)
    flags = argparse.ArgumentParser()
    cli._add_config_flags(flags)
    dests = [a.dest for a in flags._actions]
    defaults = TrainConfig()
    for section, keys in cli.SECTIONS.items():
        for key in filter(cli._FIELDS.__contains__, keys):
            name = cli._FIELDS[key].name
            assert dests.count(key) == 1, key
            value = NON_DEFAULT[name]
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"[{section}]\n{key} = {value}\n")
            flag = "--" + key.replace("_", "-")
            for argv in (["--config", str(cfg)], [flag, str(value)]):
                args = cli.build_parser().parse_args(["train", *argv])
                config = cli._train_config(cli.resolve_config(args))
                for other in names:
                    expect = value if other == name \
                        else getattr(defaults, other)
                    assert getattr(config, other) == expect, (argv, other)


@pytest.mark.parametrize("overrides", [
    [],
    ["--" + cli._INI_KEY.get(k, k).replace("_", "-") + "=" + str(v)
     for k, v in NON_DEFAULT.items()],
])
def test_print_config_round_trips(tmp_path, capsys, overrides):
    shipped = Path(__file__).resolve().parent.parent / "configs" / "mutag.cfg"
    assert run_cli("train", "--config", str(shipped), "--print-config",
                   *overrides) == 0
    first = capsys.readouterr().out
    cfg = tmp_path / "printed.cfg"
    cfg.write_text(first)
    assert run_cli("train", "--config", str(cfg), "--print-config") == 0
    assert capsys.readouterr().out == first


def test_resolved_config_records_blas_threads(dataset_dir, tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2\n[data]")   # stays one comment
    out = tmp_path / "run"
    args = ["--dataset", str(dataset_dir), "--out", str(out), *TRAIN_ARGS]
    assert run_cli("train", *args) == 0
    first, rest = (out / "config_resolved.cfg").read_text().split("\n", 1)
    assert first == ("# outputs are byte-identical only at the same BLAS "
                     "thread count: OPENBLAS_NUM_THREADS=1 "
                     "OMP_NUM_THREADS=unset MKL_NUM_THREADS=2 [data]")
    capsys.readouterr()
    assert run_cli("train", *args, "--print-config") == 0
    printed = capsys.readouterr().out
    assert printed == rest + "\n"              # --print-config is unchanged
    assert run_cli("train", "--config", str(out / "config_resolved.cfg"),
                   "--print-config") == 0
    assert capsys.readouterr().out == printed


def trained_checkpoint(dataset_dir, tmp_path):
    out = tmp_path / "trained"
    if not (out / "checkpoint.bin").exists():
        assert run_cli("train", "--dataset", str(dataset_dir), "--out",
                       str(out), *TRAIN_ARGS) == 0
    return out / "checkpoint.bin"


def test_probe_graph_protocol(dataset_dir, tmp_path, capsys):
    ck = trained_checkpoint(dataset_dir, tmp_path)
    out = tmp_path / "probe"
    code = run_cli("probe", "--checkpoint", str(ck), "--dataset",
                   str(dataset_dir), "--out", str(out), "--folds", "5",
                   "--runs", "2")
    assert code == 0
    report = json.loads((out / "probe_report.json").read_text())
    assert len(report["accuracies"]) == 10          # folds * runs
    assert len(report["l2"]) == 10                  # chosen penalty per fold
    assert 0.0 <= report["mean_accuracy"] <= 1.0
    assert (out / "probe_report.csv").exists()
    with open(out / "probe_stacks.csv", newline="") as f:
        stacks = list(csv.DictReader(f))
    assert list(stacks[0]) == list(evaluation.STACK_COLUMNS)
    assert {row["phase"] for row in stacks} == {"inner", "refit"}
    assert all(float(row["seconds"]) > 0.0 for row in stacks)
    # every split refits once after at most 3 inner fits
    refits = sum(int(r["splits"]) for r in stacks if r["phase"] == "refit")
    inner = sum(int(r["splits"]) for r in stacks if r["phase"] == "inner")
    assert refits == 10 and 0 < inner <= 30
    again = tmp_path / "probe-again"
    assert run_cli("probe", "--checkpoint", str(ck), "--dataset",
                   str(dataset_dir), "--out", str(again), "--folds", "5",
                   "--runs", "2") == 0
    for name in ("probe_report.json", "probe_report.csv"):
        assert (again / name).read_bytes() == (out / name).read_bytes()


def wider_dataset(tmp_path):
    """A dataset like SYN whose feature dimension is two larger."""
    other = write_synthetic_tudataset(tmp_path / "other", name="OTH")
    # OTH has the same node-label alphabet; force a different d_x via attributes
    n_nodes = len((other / "OTH_graph_indicator.txt").read_text().split())
    (other / "OTH_node_attributes.txt").write_text(
        "\n".join("0.5, 1.5" for _ in range(n_nodes)) + "\n")
    return other


def test_probe_dim_mismatch_fails(dataset_dir, tmp_path, capsys):
    ck = trained_checkpoint(dataset_dir, tmp_path)
    other = wider_dataset(tmp_path)
    code = run_cli("probe", "--checkpoint", str(ck), "--dataset", str(other),
                   "--out", str(tmp_path / "p2"))
    assert code == 1
    assert "d_x" in capsys.readouterr().err


def embed_must_not_run(*args, **kwargs):
    raise AssertionError("embedded the dataset before checking its inputs")


@pytest.mark.parametrize("flags", [("--folds", "0"), ("--folds", "1"),
                                   ("--runs", "0")])
def test_probe_rejects_unusable_counts(dataset_dir, tmp_path, capsys, flags,
                                      monkeypatch):
    ck = trained_checkpoint(dataset_dir, tmp_path)
    monkeypatch.setattr(cli, "embed_dataset", embed_must_not_run)
    out = tmp_path / "p-counts"
    code = run_cli("probe", "--checkpoint", str(ck), "--dataset",
                   str(dataset_dir), "--out", str(out), *flags)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot probe")
    assert flags[0].lstrip("-") in err
    assert not out.exists()


def test_probe_corrupt_checkpoint(dataset_dir, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code = run_cli("probe", "--checkpoint", str(bad), "--dataset",
                   str(dataset_dir), "--out", str(tmp_path / "p3"))
    assert code == 1


def test_probe_checkpoint_with_an_overflowing_shape(dataset_dir, tmp_path,
                                                    capsys):
    bad = tmp_path / "huge.bin"
    header = json.dumps({"meta": {}, "tensors": [
        {"name": "w", "shape": [2 ** 32, 2 ** 32], "dtype": "f8"}]}).encode()
    bad.write_bytes(b"GAPC" + (1).to_bytes(4, "little")
                    + len(header).to_bytes(8, "little") + header)
    code = run_cli("probe", "--checkpoint", str(bad), "--dataset",
                   str(dataset_dir), "--out", str(tmp_path / "p5"))
    assert code == 1
    err = capsys.readouterr().err
    assert "truncated (payload 'w')" in err
    assert "Traceback" not in err


def test_probe_unlabeled_graphs_fails_cleanly(dataset_dir, tmp_path, capsys):
    ck = trained_checkpoint(dataset_dir, tmp_path)
    (dataset_dir / "SYN_graph_labels.txt").unlink()
    code = run_cli("probe", "--checkpoint", str(ck), "--dataset",
                   str(dataset_dir), "--out", str(tmp_path / "p4"))
    assert code == 1
    assert "non-negative" in capsys.readouterr().err
    assert not (tmp_path / "p4").exists()


@pytest.mark.parametrize("command", ["probe", "embed", "inspect"])
@pytest.mark.parametrize("extra,match", [({"not_a_field": 1}, "not_a_field"),
                                         ({"policy_kind": "bogus"}, "bogus")])
def test_checkpoint_with_bad_config_fails(dataset_dir, tmp_path, capsys,
                                          command, extra, match):
    meta, tensors = container.read_container(
        trained_checkpoint(dataset_dir, tmp_path))
    meta["config"].update(extra)
    bad = tmp_path / "bad-config.bin"
    container.write_container(bad, meta, tensors)
    code = run_cli(command, "--checkpoint", str(bad), "--dataset",
                   str(dataset_dir), "--out", str(tmp_path / "x"),
                   *(["--head", "identity"] if command == "inspect" else []))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and match in err


def test_embed_writes_rows(dataset_dir, tmp_path):
    ck = trained_checkpoint(dataset_dir, tmp_path)
    out = tmp_path / "emb"
    code = run_cli("embed", "--checkpoint", str(ck), "--dataset",
                   str(dataset_dir), "--out", str(out))
    assert code == 0
    lines = (out / "embeddings.csv").read_text().splitlines()
    assert len(lines) == 11          # header + one row per graph
    assert lines[0].startswith("id,label,dim0")


def test_failed_embed_leaves_no_output_dir(dataset_dir, tmp_path,
                                           monkeypatch):
    ck = trained_checkpoint(dataset_dir, tmp_path)

    def failing_embed(*args, **kwargs):
        raise TrainingDivergedError("encoder output is not finite")
    monkeypatch.setattr(cli, "embed_dataset", failing_embed)
    out = tmp_path / "emb-failed"
    code = run_cli("embed", "--checkpoint", str(ck), "--dataset",
                   str(dataset_dir), "--out", str(out))
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["embed", "inspect", "probe"])
@pytest.mark.parametrize("key", ["params/theta/layer0/w1",
                                 "params/omega/layer0/w1"])
def test_non_finite_checkpoint_fails_cleanly(dataset_dir, tmp_path, capsys,
                                             command, key):
    meta, tensors = container.read_container(
        trained_checkpoint(dataset_dir, tmp_path))
    tensors[key][0, 0] = float("nan")
    bad = tmp_path / "nan.bin"
    container.write_container(bad, meta, tensors)
    out = tmp_path / "nan-out"
    code = run_cli(command, "--checkpoint", str(bad), "--dataset",
                   str(dataset_dir), "--out", str(out),
                   *(["--head", "identity"] if command == "inspect" else []))
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: checkpoint has non-finite values in {key}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the overflow
@pytest.mark.parametrize("command, group, reason", [
    ("embed", "theta", "embeddings contain non-finite values"),
    ("inspect", "omega", "logits must be finite")], ids=["embed", "inspect"])
def test_overflowing_encoder_fails_cleanly(dataset_dir, tmp_path, capsys,
                                           command, group, reason):
    """A checkpoint that loads but whose encoder overflows is one error
    line, as it is for probe, and leaves no output directory."""
    meta, tensors = container.read_container(
        trained_checkpoint(dataset_dir, tmp_path))
    for key in tensors:
        if key.startswith(f"params/{group}/"):
            tensors[key] = tensors[key] * 1e120
    big = tmp_path / "big.bin"
    container.write_container(big, meta, tensors)
    out = tmp_path / "big-out"
    code = run_cli(command, "--checkpoint", str(big), "--dataset",
                   str(dataset_dir), "--out", str(out),
                   *(["--head", "identity"] if command == "inspect" else []))
    assert code == 1
    assert one_error_line(capsys) == f"error: cannot {command} SYN: {reason}\n"
    assert not out.exists()


def one_error_line(capsys, prefix="error:"):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


def train_must_not_run(*args, **kwargs):
    raise AssertionError("trained before checking the output path")


@pytest.mark.parametrize("nested", [False, True], ids=["file", "under-file"])
def test_train_out_on_a_file_exits_2_before_training(dataset_dir, tmp_path,
                                                     capsys, monkeypatch,
                                                     nested):
    blocker = tmp_path / "taken"
    blocker.write_text("keep me")
    monkeypatch.setattr(cli, "train", train_must_not_run)
    out = blocker / "run" if nested else blocker
    code = run_cli("train", "--dataset", str(dataset_dir), "--out", str(out),
                   *TRAIN_ARGS)
    assert code == 2
    assert "is not a directory" in one_error_line(capsys, "config error:")
    assert blocker.read_text() == "keep me"


@pytest.mark.parametrize("command", ["probe", "embed", "inspect"])
def test_out_on_a_file_exits_2_before_embedding(dataset_dir, tmp_path, capsys,
                                                monkeypatch, command):
    ck = trained_checkpoint(dataset_dir, tmp_path)
    blocker = tmp_path / "taken"
    blocker.write_text("keep me")
    monkeypatch.setattr(cli, "embed_dataset", embed_must_not_run)
    monkeypatch.setattr(cli, "encode", embed_must_not_run)
    code = run_cli(command, "--checkpoint", str(ck), "--dataset",
                   str(dataset_dir), "--out", str(blocker),
                   *(["--head", "identity"] if command == "inspect" else []))
    assert code == 2
    assert "is not a directory" in one_error_line(capsys, "config error:")
    assert blocker.read_text() == "keep me"


@pytest.mark.parametrize("command", ["probe", "embed", "inspect"])
def test_checkpoint_that_is_a_directory_fails_cleanly(dataset_dir, tmp_path,
                                                      capsys, command):
    code = run_cli(command, "--checkpoint", str(tmp_path), "--dataset",
                   str(dataset_dir), "--out", str(tmp_path / "x"),
                   *(["--head", "identity"] if command == "inspect" else []))
    assert code == 1
    assert f"not a file: {tmp_path}" in one_error_line(capsys)
    assert not (tmp_path / "x").exists()


def test_failed_write_is_one_error_line(dataset_dir, tmp_path, capsys,
                                        monkeypatch):
    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(cli, "save_checkpoint", full_disk)
    code = run_cli("train", "--dataset", str(dataset_dir), "--out",
                   str(tmp_path / "run"), *TRAIN_ARGS)
    assert code == 1
    assert "No space left on device" in one_error_line(capsys)


def test_non_finite_attribute_is_one_error_line(dataset_dir, tmp_path,
                                                capsys):
    attrs = dataset_dir / "SYN_node_attributes.txt"
    nodes = len((dataset_dir / "SYN_graph_indicator.txt").read_text().split())
    attrs.write_text("0.5\n" * nodes)
    ck = trained_checkpoint(dataset_dir, tmp_path)
    attrs.write_text("0.5\n0.5\nnan\n" + "0.5\n" * (nodes - 3))
    capsys.readouterr()
    for command, args in (("train", TRAIN_ARGS),
                          ("embed", ["--checkpoint", str(ck)])):
        out = tmp_path / command
        code = run_cli(command, "--dataset", str(dataset_dir), "--out",
                       str(out), *args)
        assert code == 1
        assert "SYN_node_attributes.txt: node 3 has the non-finite value " \
            "nan" in one_error_line(capsys)
        assert not out.exists()


def test_stats_json_in_a_missing_directory_fails_cleanly(dataset_dir,
                                                         tmp_path, capsys):
    code = run_cli("stats", "--dataset", str(dataset_dir), "--out-json",
                   str(tmp_path / "missing" / "stats.json"))
    assert code == 1
    assert "stats.json" in one_error_line(capsys)


def test_checkpoint_meta_of_the_wrong_type_fails_cleanly(dataset_dir,
                                                         tmp_path, capsys):
    meta, tensors = container.read_container(
        trained_checkpoint(dataset_dir, tmp_path))
    meta["input_dim"] = str(meta["input_dim"])
    bad = tmp_path / "bad-meta.bin"
    container.write_container(bad, meta, tensors)
    code = run_cli("embed", "--checkpoint", str(bad), "--dataset",
                   str(dataset_dir), "--out", str(tmp_path / "x"))
    assert code == 1
    assert "input_dim" in one_error_line(capsys)
    assert not (tmp_path / "x").exists()


def test_inspect_identity_dumps_inputs(dataset_dir, tmp_path, capsys):
    ck = trained_checkpoint(dataset_dir, tmp_path)
    out = tmp_path / "ins"
    code = run_cli("inspect", "--checkpoint", str(ck), "--dataset",
                   str(dataset_dir), "--out", str(out), "--head", "identity",
                   "--num-graphs", "3")
    assert code == 0
    printed = capsys.readouterr().out
    assert "policy distribution" in printed
    dist = json.loads((out / "policy_distribution.json").read_text())
    assert abs(sum(dist.values()) - 1.0) < 1e-9
    dump = (out / "graph0.edges").read_text().splitlines()
    weights = [float(line.split()[2]) for line in dump[2:]]
    assert all(w == 1.0 for w in weights)


def test_inspect_dumps_each_views_features(dataset_dir, tmp_path):
    """The identity view's features are the dataset's; the feature-mask
    view's are the projected features, each kept exactly or dropped to an
    exact 0."""
    ck = trained_checkpoint(dataset_dir, tmp_path)
    graphs = parse_tudataset(dataset_dir).graphs[:3]
    w, b = load_checkpoint(ck)[0].heads.under("feature_mask/lin")
    dropped = []
    for head in ("identity", "feature_mask"):
        out = tmp_path / f"ins-{head}"
        assert run_cli("inspect", "--checkpoint", str(ck), "--dataset",
                       str(dataset_dir), "--out", str(out), "--head", head,
                       "--num-graphs", "3") == 0
        for k, g in enumerate(graphs):
            got = np.loadtxt(out / f"graph{k}.features", ndmin=2)
            x = g.features.data
            if head == "identity":
                assert np.array_equal(got, x)
                continue
            lin = x @ w.data + b.data
            assert got.shape == lin.shape and (lin != 0.0).all()
            zero = got == 0.0
            assert np.array_equal(got[~zero], lin[~zero])
            dropped.append(zero)
    dropped = np.concatenate(dropped)
    assert dropped.any() and not dropped.all()


def test_inspect_subgraph_connected(dataset_dir, tmp_path):
    ck = trained_checkpoint(dataset_dir, tmp_path)
    out = tmp_path / "ins-sub"
    code = run_cli("inspect", "--checkpoint", str(ck), "--dataset",
                   str(dataset_dir), "--out", str(out), "--head", "subgraph",
                   "--num-graphs", "4")
    assert code == 0
    for k in range(4):
        lines = (out / f"graph{k}.edges").read_text().splitlines()
        n = int(lines[0].split(":")[1].split()[0])
        edges = [(int(a), int(b)) for a, b, _ in
                 (line.split() for line in lines[2:])]
        # connectivity oracle
        adj = {v: [] for v in range(n)}
        for a, b in edges:
            adj[a].append(b)
        seen, frontier = {0}, [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        assert seen == set(range(n))


def test_inspect_dim_mismatch_fails_cleanly(dataset_dir, tmp_path, capsys):
    ck = trained_checkpoint(dataset_dir, tmp_path)
    out = tmp_path / "ins-dim"
    code = run_cli("inspect", "--checkpoint", str(ck), "--dataset",
                   str(wider_dataset(tmp_path)), "--out", str(out),
                   "--head", "feature_mask")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint expects d_x=")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_inspect_rejects_num_graphs_below_one(dataset_dir, tmp_path, capsys,
                                              count):
    ck = trained_checkpoint(dataset_dir, tmp_path)
    out = tmp_path / "ins-count"
    code = run_cli("inspect", "--checkpoint", str(ck), "--dataset",
                   str(dataset_dir), "--out", str(out), "--head", "identity",
                   "--num-graphs", count)
    assert code == 2
    assert "--num-graphs" in one_error_line(capsys, "config error:")
    assert not out.exists()


def test_inspect_unknown_head(dataset_dir, tmp_path, capsys):
    ck = trained_checkpoint(dataset_dir, tmp_path)
    code = run_cli("inspect", "--checkpoint", str(ck), "--dataset",
                   str(dataset_dir), "--out", str(tmp_path / "x"),
                   "--head", "nonsense")
    assert code == 2
    err = one_error_line(capsys, "config error:")
    assert "identity" in err and "node_drop" in err


def test_stats_output(dataset_dir, capsys, tmp_path):
    out_json = tmp_path / "stats.json"
    code = run_cli("stats", "--dataset", str(dataset_dir), "--out-json",
                   str(out_json))
    assert code == 0
    stats = json.loads(out_json.read_text())
    assert stats["graphs"] == 10
    assert stats["classes"] == 2


def test_out_root_env(dataset_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("GRAPHAUG_OUT", str(tmp_path / "envroot"))
    monkeypatch.chdir(tmp_path)
    code = run_cli("train", "--dataset", str(dataset_dir), "--epochs", "0",
                   "--hidden-dim", "8", "--num-layers", "1", "--seed", "0")
    assert code == 0
    assert (tmp_path / "envroot" / "syn-train" / "checkpoint.bin").exists()


def write_single_graph_dataset(root: Path, name="ONE", n=24, first_label=0):
    """One community graph; node labels double as probe targets."""
    d = root / name
    d.mkdir(parents=True, exist_ok=True)
    stream = RngStream(5, "cli-node")
    half = n // 2
    a_lines = []
    for i in range(n):
        for j in range(i + 1, n):
            same = (i < half) == (j < half)
            p = 0.5 if same else 0.06
            if stream.uniform() < p:
                a_lines.append(f"{i + 1}, {j + 1}")
                a_lines.append(f"{j + 1}, {i + 1}")
    (d / f"{name}_A.txt").write_text("\n".join(a_lines) + "\n")
    (d / f"{name}_graph_indicator.txt").write_text("\n".join(["1"] * n) + "\n")
    (d / f"{name}_graph_labels.txt").write_text("1\n")
    (d / f"{name}_node_labels.txt").write_text(
        "\n".join(str(first_label + (i >= half)) for i in range(n)) + "\n")
    return d


def test_node_task_cli_roundtrip(tmp_path, capsys):
    data_dir = write_single_graph_dataset(tmp_path)
    out = tmp_path / "node-run"
    code = run_cli("train", "--dataset", str(data_dir), "--task", "node",
                   "--out", str(out), "--epochs", "1", "--hidden-dim", "8",
                   "--num-layers", "1", "--hops", "1",
                   "--node-batch-subgraphs", "4", "--seed", "3",
                   "--policy", "deepset")
    assert code == 0
    probe_out = tmp_path / "node-probe"
    code = run_cli("probe", "--checkpoint", str(out / "checkpoint.bin"),
                   "--dataset", str(data_dir), "--out", str(probe_out),
                   "--runs-node", "3", "--train-frac", "0.5")
    assert code == 0
    report = json.loads((probe_out / "probe_report.json").read_text())
    assert len(report["accuracies"]) == 3
    assert "random splits" in report["protocol"]


def test_node_probe_rejects_zero_runs(tmp_path, capsys, monkeypatch):
    data_dir = write_single_graph_dataset(tmp_path)
    out = tmp_path / "node-run"
    assert run_cli("train", "--dataset", str(data_dir), "--task", "node",
                   "--out", str(out), "--epochs", "0", "--hidden-dim", "8",
                   "--num-layers", "1", "--hops", "1", "--seed", "3",
                   "--policy", "random") == 0
    monkeypatch.setattr(cli, "embed_dataset", embed_must_not_run)
    probe_out = tmp_path / "node-probe"
    code = run_cli("probe", "--checkpoint", str(out / "checkpoint.bin"),
                   "--dataset", str(data_dir), "--out", str(probe_out),
                   "--runs-node", "0")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot probe") and "runs" in err
    assert not probe_out.exists()


def train_node_task(data_dir, out):
    assert run_cli("train", "--dataset", str(data_dir), "--task", "node",
                   "--out", str(out), "--epochs", "0", "--hidden-dim", "8",
                   "--num-layers", "1", "--hops", "1", "--seed", "3",
                   "--policy", "random") == 0
    return out / "checkpoint.bin"


def test_inspect_head_inactive_for_the_task(tmp_path, capsys):
    data_dir = write_single_graph_dataset(tmp_path)
    checkpoint = train_node_task(data_dir, tmp_path / "node-run")
    capsys.readouterr()
    out = tmp_path / "ins-node"
    code = run_cli("inspect", "--checkpoint", str(checkpoint), "--dataset",
                   str(data_dir), "--out", str(out), "--head", "subgraph")
    assert code == 2
    err = one_error_line(capsys, "config error:")
    assert "'subgraph' is not active for task 'node'" in err
    assert not out.exists()


def test_node_task_without_node_labels_fails_before_embedding(
        tmp_path, capsys, monkeypatch):
    data_dir = write_single_graph_dataset(tmp_path)
    (data_dir / "ONE_node_labels.txt").unlink()
    checkpoint = train_node_task(data_dir, tmp_path / "node-run")
    monkeypatch.setattr(evaluation, "encode", embed_must_not_run)
    for command in ("embed", "probe"):
        capsys.readouterr()
        out = tmp_path / f"node-{command}"
        code = run_cli(command, "--checkpoint", str(checkpoint),
                       "--dataset", str(data_dir), "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ONE has no node labels"), err
        assert not out.exists()


@pytest.mark.parametrize("frac, reason", [
    ("0.99", "24 of 24 nodes leaves no test node"),
    ("1.5", "train_frac must be in (0, 1)")])
def test_node_probe_without_test_nodes_fails_cleanly(tmp_path, capsys,
                                                    monkeypatch, frac, reason):
    data_dir = write_single_graph_dataset(tmp_path)
    checkpoint = train_node_task(data_dir, tmp_path / "node-run")
    monkeypatch.setattr(cli, "embed_dataset", embed_must_not_run)
    probe_out = tmp_path / "node-probe"
    code = run_cli("probe", "--checkpoint", str(checkpoint),
                   "--dataset", str(data_dir), "--out", str(probe_out),
                   "--runs-node", "2", "--train-frac", frac)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot probe ONE") and reason in err, err
    assert not probe_out.exists()


def test_node_probe_one_based_labels_match_zero_based(tmp_path, capsys):
    zero = write_single_graph_dataset(tmp_path / "zero")
    one = write_single_graph_dataset(tmp_path / "one", first_label=1)
    out = tmp_path / "node-run"
    assert run_cli("train", "--dataset", str(zero), "--task", "node",
                   "--out", str(out), "--epochs", "1", "--hidden-dim", "8",
                   "--num-layers", "1", "--hops", "1",
                   "--node-batch-subgraphs", "4", "--seed", "3",
                   "--policy", "random") == 0
    reports = []
    for data_dir in (zero, one):
        probe_out = tmp_path / f"probe-{data_dir.parent.name}"
        assert run_cli("probe", "--checkpoint", str(out / "checkpoint.bin"),
                       "--dataset", str(data_dir), "--out", str(probe_out),
                       "--runs-node", "3", "--train-frac", "0.5") == 0
        reports.append((probe_out / "probe_report.json").read_text())
    assert reports[0] == reports[1]


def test_shipped_mutag_config_parses(capsys):
    cfg = Path(__file__).resolve().parent.parent / "configs" / "mutag.cfg"
    code = run_cli("train", "--config", str(cfg), "--print-config")
    assert code == 0
    text = capsys.readouterr().out
    assert "epochs = 20" in text and "policy = gru" in text


@pytest.mark.parametrize("flags,field", [
    (["--hops", "0"], "hops"),
    (["--task", "node", "--node-batch-subgraphs", "0"], "node_batch_subgraphs"),
    (["--task", "node", "--hops", "-1"], "hops"),
    (["--hidden-dim", "0"], "hidden_dim"),
    (["--dropout", "1.5"], "dropout"),
    (["--clip-norm", "-1"], "clip_norm"),
    (["--learning-rate", "nan"], "learning_rate"),
    (["--early-stop-patience", "0"], "early_stop_patience"),
])
def test_out_of_range_value_exits_2_before_any_output(dataset_dir, tmp_path,
                                                      capsys, flags, field):
    out = tmp_path / "never"
    code = run_cli("train", "--dataset", str(dataset_dir), "--out", str(out),
                   "--epochs", "1", *flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert not out.exists()


def test_node_task_accepts_zero_hops():
    assert TrainConfig(task="node", hops=0).hops == 0


def test_removed_policy_temperature_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("[train]\npolicy_temperature = 1.0\n")
    assert run_cli("train", "--config", str(cfg), "--print-config") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "policy_temperature" in err


def write_random_label_graph(root: Path, name="RND", n=200, classes=3):
    """One sparse random graph whose node labels are drawn independently of
    its structure: nothing but the labels themselves predicts them."""
    d = root / name
    d.mkdir(parents=True, exist_ok=True)
    stream = RngStream(11, "cli-random-labels")
    pairs = {(min(u, v), max(u, v))
             for u, v in stream.integers(0, n, size=(n // 2, 2)).tolist()
             if u != v}
    a_lines = [f"{u + 1}, {v + 1}\n{v + 1}, {u + 1}" for u, v in sorted(pairs)]
    (d / f"{name}_A.txt").write_text("\n".join(a_lines) + "\n")
    (d / f"{name}_graph_indicator.txt").write_text("1\n" * n)
    (d / f"{name}_node_labels.txt").write_text(
        "".join(f"{c}\n" for c in stream.integers(0, classes, size=n)))
    return d


def test_node_labels_do_not_leak_into_node_task_features(tmp_path, capsys):
    data_dir = write_random_label_graph(tmp_path)
    out = tmp_path / "leak-run"
    assert run_cli("train", "--dataset", str(data_dir), "--task", "node",
                   "--out", str(out), "--epochs", "0", "--seed", "3") == 0
    probe_out = tmp_path / "leak-probe"
    assert run_cli("probe", "--checkpoint", str(out / "checkpoint.bin"),
                   "--dataset", str(data_dir), "--out", str(probe_out),
                   "--runs-node", "5", "--train-frac", "0.5") == 0
    report = json.loads((probe_out / "probe_report.json").read_text())
    # an untrained encoder can only read the labels if they are features
    assert report["mean_accuracy"] < 0.7, report["mean_accuracy"]
