"""Inputs that are rejected, grouped by where they come from. A CLI case
exits with its documented code (2 for a config error, 1 otherwise) and one
stderr line that names the fault; a library case raises its exception."""
import json
import math
import shutil

import numpy as np
import pytest

from graphaug import cli, container
from graphaug.errors import CheckpointError, DatasetError, InvalidShapeError
from graphaug.evaluation import EmbeddingTable, linear_probe_graph, \
    linear_probe_node
from graphaug.graphs import Graph
from graphaug.trainer import load_checkpoint
from graphaug.tudataset import parse_tudataset

from test_cli import one_error_line, run_cli, trained_checkpoint, \
    write_synthetic_tudataset


def assert_rejected(capsys, argv, code, message):
    assert run_cli(*argv) == code
    err = one_error_line(capsys, "config error:" if code == 2 else "error:")
    assert message in err, err


def ini(text):
    def argv(tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        return ["train", "--config", str(path)]
    return argv


@pytest.mark.parametrize("argv,message", [
    (lambda tmp_path: ["train", "--config", str(tmp_path / "missing.cfg")],
     "config file not found: "),
    (ini("[bogus]\nepochs = 1\n"), "unknown config section [bogus]"),
    (ini("[train]\nepochs = ten\n"), "train.epochs: cannot parse 'ten' as int"),
    (ini("[train]\nkeep_ratio = most\n"),
     "train.keep_ratio: cannot parse 'most' as float"),
    (lambda tmp_path: ["train", "--dataset", str(tmp_path / "missing")],
     "data.dataset: directory not found: "),
    (ini("[train]\nepochs = 1\nepochs = 2\n"),
     "run.cfg' [line 3]: option 'epochs' in section 'train' already exists"),
    (ini("[train]\nepochs = 1\n[train]\nseed = 2\n"),
     "run.cfg' [line 3]: section 'train' already exists"),
    (ini("epochs = 1\n[train]\n"),
     "run.cfg', line: 1 'epochs = 1"),
    (ini("[train]\nepochs = 1\nseed\n"), "run.cfg' [line 3]: 'seed\\n'"),
    (ini(b"[train]\nepochs = 1\nseed = 2\xff\n"),
     "run.cfg, line 3: not UTF-8 at byte 27"),
], ids=["missing-file", "unknown-section", "unparseable-int",
        "unparseable-float", "missing-dataset", "repeated-key",
        "repeated-section", "key-before-section", "key-without-value",
        "not-utf8"])
def test_ini_and_path_rejections(tmp_path, capsys, argv, message):
    assert_rejected(capsys, argv(tmp_path), 2, message)


def node_count(d):
    return len((d / "SYN_graph_indicator.txt").read_text().split())


@pytest.mark.parametrize("name,text,message", [
    ("SYN_graph_labels.txt", lambda d: "0, 1\n" * 10,
     "SYN_graph_labels.txt: 2 fields on a line, expected 1"),
    ("SYN_node_attributes.txt", lambda d: "0.5\n" * (node_count(d) - 1),
     "SYN_node_attributes.txt row count != node count"),
    ("SYN_A.txt",       # node 1 is in graph 1, the last node in graph 10
     lambda d: (d / "SYN_A.txt").read_text() + f"1, {node_count(d)}\n",
     "crosses graphs 1 and 10"),
    ("SYN_A.txt", lambda d: b"1, 2\n\xff\n" + (d / "SYN_A.txt").read_bytes(),
     "SYN_A.txt: not UTF-8 at byte 5"),
    ("SYN_graph_labels.txt", lambda d: b"0\n1\n\xff\n",
     "SYN_graph_labels.txt: not UTF-8 at byte 4"),
], ids=["field-count", "attribute-rows", "cross-graph-edge", "edges-not-utf8",
        "labels-not-utf8"])
def test_dataset_file_rejections(tmp_path, capsys, name, text, message):
    d = write_synthetic_tudataset(tmp_path)
    data = text(d)
    (d / name).write_bytes(data if isinstance(data, bytes) else data.encode())
    assert_rejected(capsys, ["stats", "--dataset", str(d)], 1, message)


def corrupt_header(path):
    path.write_bytes(container.MAGIC + (1).to_bytes(4, "little")
                     + (2).to_bytes(8, "little") + b"{x")


def trailing_bytes(path):
    path.write_bytes(path.read_bytes() + b"\0\0")


def not_a_training_checkpoint(path):
    container.write_container(path, {"kind": "probe"}, {})


@pytest.mark.parametrize("command", ["probe", "embed", "inspect"])
@pytest.mark.parametrize("edit,message", [
    (corrupt_header, "has a corrupt header"),
    (trailing_bytes, "has 2 trailing bytes"),
    (not_a_training_checkpoint, "is not a training checkpoint"),
], ids=["corrupt-header", "trailing-bytes", "not-training"])
def test_checkpoint_rejections(tmp_path, capsys, command, edit, message):
    d = write_synthetic_tudataset(tmp_path)
    ck = trained_checkpoint(d, tmp_path)
    edit(ck)
    out = tmp_path / "never"
    assert_rejected(capsys, [command, "--checkpoint", str(ck), "--dataset",
                             str(d), "--out", str(out),
                             *(["--head", "identity"]
                               if command == "inspect" else [])],
                    1, message)
    assert not out.exists()


@pytest.fixture(scope="module")
def pristine_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine")
    d = write_synthetic_tudataset(root)
    return d, trained_checkpoint(d, root)


def rewrite_header(path, edit):
    """Apply ``edit`` to a container's JSON header in place; the bytes it
    returns, if any, are appended to the payloads."""
    raw = path.read_bytes()
    size = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + size])
    extra = edit(header) or b""
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob
                     + raw[16 + size:] + extra)


def coin_field(field, value):
    def edit(header):
        coin = header["meta"]["streams"]["coin"]
        coin[field] = value(coin[field]) if callable(value) else value
    return edit


def extra_tensor(rename):
    """Append a zero-filled copy of the last tensor, named ``rename(name)``."""
    def edit(header):
        last = header["tensors"][-1]
        header["tensors"].append(dict(last, name=rename(last["name"])))
        return bytes(8 * math.prod(last["shape"]))
    return edit


@pytest.mark.parametrize("edit,message", [
    (coin_field("counter", [-1, 0, 0, 0]), "stream counter: -1 is not an int"),
    (coin_field("uinteger", -1), "stream uinteger: -1 is not an int"),
    (coin_field("counter", [0, 0]), "stream counter must be a list of 4"),
    (coin_field("buffer_pos", -5), "stream buffer_pos: -5 is not an int"),
    (coin_field("buffer_pos", 9), "stream buffer_pos: 9 is not an int"),
    (coin_field("has_uint32", 7), "stream has_uint32: 7 is not an int"),
    (coin_field("buffer", lambda b: [float(x) for x in b]), "stream buffer: "),
    (coin_field("key", "ab"), "stream key must be 16 bytes of hex"),
    (extra_tensor(lambda name: [name]), "malformed tensor name ['"),
    (extra_tensor(lambda name: 7), "malformed tensor name 7"),
    (extra_tensor(lambda name: name), "malformed tensor name 'adam/"),
], ids=["counter-negative", "uinteger-negative", "counter-short",
        "buffer-pos-negative", "buffer-pos-large", "has-uint32",
        "buffer-float", "key-one-byte", "name-list", "name-int",
        "name-repeated"])
def test_malformed_checkpoint_rejected(pristine_checkpoint, tmp_path, capsys,
                                       edit, message):
    """Neither a traceback nor a silent load: ``load_checkpoint`` raises
    ``CheckpointError`` and ``embed`` exits 1 with one ``error:`` line."""
    d, pristine = pristine_checkpoint
    ck = tmp_path / "checkpoint.bin"
    shutil.copyfile(pristine, ck)
    rewrite_header(ck, edit)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(ck)
    assert message in str(info.value), info.value
    out = tmp_path / "never"
    assert run_cli("embed", "--checkpoint", str(ck), "--dataset", str(d),
                   "--out", str(out)) == 1
    err = one_error_line(capsys)
    assert message in err and "Traceback" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--epochs", "-1"], "epochs must be >= 0; got -1"),
    (["--task", "node", "--batch-size", "0"], "batch_size must be >= 1; got 0"),
    (["--num-layers", "0"], "num_layers must be >= 1; got 0"),
    (["--alternation-prob", "1.5"], "alternation_prob must be in [0, 1]"),
    (["--keep-ratio", "0"], "keep_ratio must be in (0, 1]"),
    (["--head-temperature", "0"], "head_temperature must be positive"),
    (["--head-temperature", "nan"],
     "head_temperature must be positive and finite; got nan"),
    (["--head-temperature", "inf"],
     "head_temperature must be positive and finite; got inf"),
    (["--estimator", "nt_xent", "--nt-xent-temperature", "nan"],
     "nt_xent temperature must be positive and finite; got nan"),
    (["--estimator", "nt_xent", "--nt-xent-temperature", "inf"],
     "nt_xent temperature must be positive and finite; got inf"),
], ids=["epochs", "batch-size", "num-layers", "alternation-prob",
        "keep-ratio", "head-temperature", "head-temperature-nan",
        "head-temperature-inf", "nt-xent-temperature-nan",
        "nt-xent-temperature-inf"])
def test_config_value_rejections(tmp_path, capsys, monkeypatch, flags,
                                 message):
    d = write_synthetic_tudataset(tmp_path)
    monkeypatch.setattr(cli, "parse_tudataset", dataset_must_not_be_read)
    out = tmp_path / "never"
    assert_rejected(capsys, ["train", "--dataset", str(d), "--out", str(out),
                             *flags], 2, message)
    assert not out.exists()


def dataset_must_not_be_read(*args, **kwargs):
    raise AssertionError("read the dataset before checking the config")


def two_class_table():
    return EmbeddingTable(np.arange(12.0).reshape(6, 2),
                          np.array([0, 1, 0, 1, 0, 1]))


@pytest.mark.parametrize("call,error,message", [
    (lambda tmp_path: Graph(0, np.zeros((0, 2)), np.zeros((0, 3)),
                            np.zeros(0)),
     InvalidShapeError, "at least one node"),
    (lambda tmp_path: Graph(2, [[0, 2]], np.zeros((2, 3)), np.ones(1)),
     InvalidShapeError, "edge endpoint out of node range"),
    (lambda tmp_path: Graph(2, [[0, 1]], np.zeros(2), np.ones(1)),
     InvalidShapeError, r"features must be a \(num_nodes, d_x\) matrix"),
    (lambda tmp_path: Graph(2, [[0, 1]], np.zeros((3, 3)), np.ones(1)),
     InvalidShapeError, "feature row count != num_nodes"),
    (lambda tmp_path: Graph(2, [[0, 1]], np.zeros((2, 3)), np.ones(2)),
     InvalidShapeError, "edge_weights length != edge count"),
    (lambda tmp_path: parse_tudataset(tmp_path / "missing"),
     DatasetError, "dataset directory not found"),
    (lambda tmp_path: EmbeddingTable(np.zeros((3, 2)), np.zeros(2)),
     ValueError, "labels do not cover the embeddings"),
    (lambda tmp_path: linear_probe_graph(two_class_table(), folds=1),
     ValueError, "need folds >= 2 and runs >= 1, got folds=1 and runs=5"),
    (lambda tmp_path: linear_probe_graph(two_class_table(), runs=0),
     ValueError, "need folds >= 2 and runs >= 1, got folds=10 and runs=0"),
    (lambda tmp_path: linear_probe_node(two_class_table(), runs=0),
     ValueError, "need runs >= 1, got 0"),
], ids=["graph-no-nodes", "graph-edge-range", "graph-feature-ndim",
        "graph-feature-rows", "graph-edge-weights", "dataset-directory",
        "table-labels", "probe-graph-folds", "probe-graph-runs",
        "probe-node-runs"])
def test_library_argument_rejections(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)
