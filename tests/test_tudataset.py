import logging
from pathlib import Path

import numpy as np
import pytest

from graphaug.cli import main
from graphaug.errors import DatasetError
from graphaug.graphs import Graph
from graphaug.tudataset import DEGREE_CAP, Dataset, dataset_stats, \
    parse_tudataset


def write_dataset(tmp_path, name="TOY", edges=((1, 2), (2, 1)), indicator=(1, 1),
                  graph_labels=(1,), node_labels=None, node_attributes=None):
    d = tmp_path / name
    d.mkdir(exist_ok=True)
    (d / f"{name}_A.txt").write_text("\n".join(f"{a}, {b}" for a, b in edges) + "\n")
    (d / f"{name}_graph_indicator.txt").write_text(
        "\n".join(str(i) for i in indicator) + "\n")
    if graph_labels is not None:
        (d / f"{name}_graph_labels.txt").write_text(
            "\n".join(str(x) for x in graph_labels) + "\n")
    if node_labels is not None:
        (d / f"{name}_node_labels.txt").write_text(
            "\n".join(str(x) for x in node_labels) + "\n")
    if node_attributes is not None:
        (d / f"{name}_node_attributes.txt").write_text(
            "\n".join(", ".join(str(v) for v in row) for row in node_attributes) + "\n")
    return d


def test_minimal_two_node_graph(tmp_path):
    d = write_dataset(tmp_path)
    ds = parse_tudataset(d)
    assert len(ds.graphs) == 1
    g = ds.graphs[0]
    assert g.num_nodes == 2
    assert g.num_edges == 2            # both orientations after symmetrization
    assert np.all(g.edge_weights.data == 1.0)


def test_symmetrization_adds_missing_orientation(tmp_path):
    d = write_dataset(tmp_path, edges=((1, 2),))
    ds = parse_tudataset(d)
    g = ds.graphs[0]
    assert sorted(map(tuple, g.edges.tolist())) == [(0, 1), (1, 0)]


def test_symmetrization_idempotent(tmp_path):
    d = write_dataset(tmp_path, edges=((1, 2), (2, 1)))
    ds1 = parse_tudataset(d)
    assert ds1.graphs[0].num_edges == 2


def test_duplicate_edges_collapse(tmp_path, caplog):
    d = write_dataset(tmp_path, edges=((1, 2), (1, 2), (2, 1)))
    import logging
    with caplog.at_level(logging.WARNING):
        ds = parse_tudataset(d)
    assert ds.graphs[0].num_edges == 2
    assert any("duplicate" in r.message for r in caplog.records)


def test_self_loops_kept(tmp_path):
    d = write_dataset(tmp_path, edges=((1, 1), (1, 2), (2, 1)))
    ds = parse_tudataset(d)
    g = ds.graphs[0]
    assert (0, 0) in set(map(tuple, g.edges.tolist()))
    # the loop plus one proper edge
    assert dataset_stats(ds)["mean_edges_undirected"] == 2.0


def test_node_labels_one_hot(tmp_path):
    d = write_dataset(tmp_path, edges=((1, 2), (2, 1), (3, 4), (4, 3)),
                      indicator=(1, 1, 2, 2), graph_labels=(5, 9),
                      node_labels=(0, 2, 2, 0))
    ds = parse_tudataset(d)
    assert ds.feature_dim == 2          # values {0, 2}
    assert ds.num_classes == 2
    assert ds.graph_labels.tolist() == [0, 1]
    assert np.array_equal(ds.graphs[0].features.data,
                          [[1.0, 0.0], [0.0, 1.0]])
    assert ds.node_labels is not None
    assert ds.node_labels[1].tolist() == [2, 0]


def test_attributes_concatenated_before_onehot(tmp_path):
    d = write_dataset(tmp_path, node_labels=(1, 0),
                      node_attributes=((0.5, 1.5), (2.5, 3.5)))
    ds = parse_tudataset(d)
    assert ds.feature_dim == 4
    assert np.allclose(ds.graphs[0].features.data,
                       [[0.5, 1.5, 0.0, 1.0], [2.5, 3.5, 1.0, 0.0]])


def test_featureless_degree_synthesis(tmp_path):
    d = write_dataset(tmp_path, edges=((1, 2), (2, 1), (2, 3), (3, 2)),
                      indicator=(1, 1, 1))
    ds = parse_tudataset(d)
    X = ds.graphs[0].features.data
    assert X.shape == (3, 66)          # degrees 0..64 one-hot + constant
    assert np.all(X[:, -1] == 1.0)
    assert X[0, 1] == 1.0 and X[1, 2] == 1.0 and X[2, 1] == 1.0


def test_node_task_leaves_node_labels_out_of_features(tmp_path):
    edges = ((1, 2), (2, 1), (2, 3), (3, 2))
    labels = write_dataset(tmp_path, name="LAB", edges=edges,
                           indicator=(1, 1, 1), node_labels=(0, 1, 2))
    both = write_dataset(tmp_path, name="ATT", edges=edges,
                         indicator=(1, 1, 1), node_labels=(0, 1, 2),
                         node_attributes=((0.5,), (1.5,), (2.5,)))
    degree = parse_tudataset(write_dataset(tmp_path, name="DEG", edges=edges,
                                           indicator=(1, 1, 1)))
    node = parse_tudataset(labels, "node")
    # labels only: the degree features of the same graph without labels
    assert node.feature_dim == DEGREE_CAP + 2
    assert np.array_equal(node.graphs[0].features.data,
                          degree.graphs[0].features.data)
    assert node.node_labels[0].tolist() == [0, 1, 2]
    assert parse_tudataset(labels).feature_dim == 3       # graph task: one-hot
    # attributes and labels: the attributes alone
    assert np.array_equal(parse_tudataset(both, "node").graphs[0].features.data,
                          [[0.5], [1.5], [2.5]])
    with pytest.raises(ValueError, match="task"):
        parse_tudataset(labels, "nodes")


def test_missing_indicator_errors(tmp_path):
    d = tmp_path / "EMPTY"
    d.mkdir()
    (d / "EMPTY_A.txt").write_text("1, 2\n")
    with pytest.raises(DatasetError, match="graph_indicator"):
        parse_tudataset(d)


def test_missing_adjacency_errors(tmp_path):
    d = tmp_path / "NOADJ"
    d.mkdir()
    (d / "NOADJ_graph_indicator.txt").write_text("1\n1\n")
    with pytest.raises(DatasetError, match="NOADJ_A.txt"):
        parse_tudataset(d)


def test_dangling_index_errors(tmp_path):
    d = write_dataset(tmp_path, edges=((1, 7),), indicator=(1, 1))
    with pytest.raises(DatasetError, match="dangling"):
        parse_tudataset(d)


# -- golden values -------------------------------------------------------------

def test_mutag_golden(mutag_dir):
    ds = parse_tudataset(mutag_dir)
    stats = dataset_stats(ds)
    assert stats["graphs"] == 188
    assert stats["classes"] == 2
    assert stats["feature_dim"] == 7
    assert abs(stats["mean_nodes"] - 17.93) <= 0.01
    assert abs(stats["mean_edges_undirected"] - 19.79) <= 0.01
    assert set(ds.labels().tolist()) == {0, 1}


def test_unlabeled_dataset_labels_sentinel(tmp_path):
    d = write_dataset(tmp_path, graph_labels=None)
    ds = parse_tudataset(d)
    assert ds.num_classes == 0
    assert ds.graph_labels is None
    assert ds.labels().tolist() == [-1]


# -- malformed files -------------------------------------------------------------

# (test id, file, its contents, what the error must say) on top of a valid
# two-graph, four-node dataset; each row broke the loop parser with a
# traceback or a misleading message.
MALFORMED = [pytest.param(*case, id=case_id) for case_id, *case in [
    ("a-three-fields", "A", "1, 2, 3\n2, 1\n",
     r"TOY_A\.txt: the number of columns changed from 3 to 2 at row 2$"),
    ("a-non-numeric", "A", "1, 2\n2, x\n",
     r"TOY_A\.txt: could not convert string ' x'"),
    ("too-few-graph-labels", "graph_labels", "0\n",
     r"TOY_graph_labels\.txt has 1 lines for 2 graphs"),
    ("too-few-node-labels", "node_labels", "0\n1\n1\n",
     r"TOY_node_labels\.txt has 3 lines for 4 nodes"),
    ("too-many-node-labels", "node_labels", "0\n1\n1\n0\n1\n",
     r"TOY_node_labels\.txt has 5 lines for 4 nodes"),
    ("graph-id-below-1", "graph_indicator", "0\n0\n1\n1\n",
     r"TOY_graph_indicator\.txt: graph ids must run 1\.\.G with every id "
     r"used; found 2 distinct ids from 0 to 1$"),
    ("graph-without-nodes", "graph_indicator", "1\n1\n3\n3\n",
     r"TOY_graph_indicator\.txt: graph ids must run 1\.\.G with every id "
     r"used; found 2 distinct ids from 1 to 3$"),
]]


def write_malformed(tmp_path, file, text):
    d = write_dataset(tmp_path, edges=((1, 2), (2, 1), (3, 4), (4, 3)),
                      indicator=(1, 1, 2, 2), graph_labels=(0, 1),
                      node_labels=(0, 1, 1, 0))
    (d / f"TOY_{file}.txt").write_text(text)
    return d


@pytest.mark.parametrize("file, text, message", MALFORMED)
def test_malformed_file_raises_dataset_error_naming_it(tmp_path, file, text,
                                                       message):
    with pytest.raises(DatasetError, match=message):
        parse_tudataset(write_malformed(tmp_path, file, text))


@pytest.mark.parametrize("file, text, message", MALFORMED)
def test_stats_on_malformed_file_exits_1(tmp_path, capsys, file, text,
                                         message):
    d = write_malformed(tmp_path, file, text)
    assert main(["stats", "--dataset", str(d)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: TOY_") and "Traceback" not in err


# -- the loop parser, kept as the reference --------------------------------------

def _read_int_lines(path: Path) -> np.ndarray:
    return np.array([int(float(line)) for line in path.read_text().split()],
                    dtype=np.int64)


def _parse_reference(directory):
    """The node-at-a-time parser that array parsing replaced, for valid
    datasets only. Returns the dataset and its duplicate-edge count."""
    directory = Path(directory)
    prefix = sorted(directory.glob("*_graph_indicator.txt"))[0].name[
        : -len("_graph_indicator.txt")]
    adj_path = directory / f"{prefix}_A.txt"
    indicator = _read_int_lines(directory / f"{prefix}_graph_indicator.txt") - 1
    num_nodes_total = len(indicator)
    num_graphs = int(indicator.max()) + 1

    rows = []
    for line in adj_path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        a, b = line.split(",")
        rows.append((int(a) - 1, int(b) - 1))
    edges_global = np.array(rows, dtype=np.int64).reshape(-1, 2)

    labels_path = directory / f"{prefix}_graph_labels.txt"
    if labels_path.exists():
        raw_labels = _read_int_lines(labels_path)
        classes = np.unique(raw_labels)
        class_map = {int(c): i for i, c in enumerate(classes)}
        graph_labels = np.array([class_map[int(c)] for c in raw_labels])
        num_classes = len(classes)
    else:
        graph_labels = None
        num_classes = 0

    node_labels_path = directory / f"{prefix}_node_labels.txt"
    node_labels = (_read_int_lines(node_labels_path)
                   if node_labels_path.exists() else None)
    attr_path = directory / f"{prefix}_node_attributes.txt"
    if attr_path.exists():
        attrs = np.array(
            [[float(x) for x in line.split(",")]
             for line in attr_path.read_text().splitlines() if line.strip()])
    else:
        attrs = None

    node_lists = [np.flatnonzero(indicator == k) for k in range(num_graphs)]
    node_of = {}
    for k, nodes in enumerate(node_lists):
        node_of[k] = {int(n): i for i, n in enumerate(nodes)}

    if node_labels is not None or attrs is not None:
        blocks = []
        if attrs is not None:
            blocks.append(attrs)
        if node_labels is not None:
            values = np.unique(node_labels)
            onehot = np.zeros((num_nodes_total, len(values)))
            col = {int(v): i for i, v in enumerate(values)}
            for n, v in enumerate(node_labels):
                onehot[n, col[int(v)]] = 1.0
            blocks.append(onehot)
        features_global = np.concatenate(blocks, axis=1)
    else:
        deg = np.zeros(num_nodes_total, dtype=np.int64)
        seen_for_degree = set()
        for a, b in edges_global:
            key = (min(a, b), max(a, b))
            if key in seen_for_degree:
                continue
            seen_for_degree.add(key)
            deg[a] += 1
            if a != b:
                deg[b] += 1
        deg = np.minimum(deg, DEGREE_CAP)
        features_global = np.zeros((num_nodes_total, DEGREE_CAP + 2))
        features_global[np.arange(num_nodes_total), deg] = 1.0
        features_global[:, -1] = 1.0

    per_graph_edges = [dict() for _ in range(num_graphs)]
    duplicates = 0
    for a, b in edges_global:
        ga = int(indicator[a])
        la, lb = node_of[ga][int(a)], node_of[ga][int(b)]
        if (la, lb) in per_graph_edges[ga]:
            duplicates += 1
            continue
        per_graph_edges[ga][(la, lb)] = 1.0

    graphs = []
    for k in range(num_graphs):
        edge_map = per_graph_edges[k]
        for (a, b) in list(edge_map):
            if a != b and (b, a) not in edge_map:
                edge_map[(b, a)] = edge_map[(a, b)]
        edges = np.array(sorted(edge_map), dtype=np.int64).reshape(-1, 2)
        nodes = node_lists[k]
        graphs.append(Graph(
            num_nodes=len(nodes), edges=edges,
            features=features_global[nodes].copy(),
            edge_weights=np.ones(len(edges))))

    per_graph_node_labels = None
    if node_labels is not None:
        per_graph_node_labels = [node_labels[nodes].copy()
                                 for nodes in node_lists]
    return Dataset(name=prefix, graphs=graphs, num_classes=num_classes,
                   feature_dim=graphs[0].features.shape[1],
                   node_labels=per_graph_node_labels,
                   graph_labels=graph_labels), duplicates


def write_random_dataset(root, seed):
    """A valid dataset with shuffled node order across graphs, duplicate
    and reversed edges, self-loops, empty edge files, blank lines, attributes,
    gapped or negative labels, or no features at all (degree one-hot, with
    a hub past DEGREE_CAP now and then)."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 9, size=rng.integers(1, 7))
    if rng.random() < 0.1:
        sizes[rng.integers(len(sizes))] = DEGREE_CAP + 6
    indicator = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    if rng.random() < 0.5:
        rng.shuffle(indicator)
    edges = []
    for k in range(1, len(sizes) + 1):
        nodes = np.flatnonzero(indicator == k) + 1
        m = int(rng.integers(0, 3 * len(nodes) + 1))
        edges += zip(rng.choice(nodes, m), rng.choice(nodes, m))
        if len(nodes) > DEGREE_CAP:
            edges += [(nodes[0], v) for v in nodes[1:]]
    if edges and rng.random() < 0.5:
        extra = rng.integers(len(edges), size=rng.integers(1, 6))
        edges += [edges[i][::-1] if rng.random() < 0.5 else edges[i]
                  for i in extra]
    if rng.random() < 0.1:
        edges = []
    order = rng.permutation(len(edges))
    formats = ("{}, {}", "{},{}", " {} , {} ")
    lines = [formats[rng.integers(3)].format(*edges[i]) for i in order]
    if lines and rng.random() < 0.3:
        lines.insert(int(rng.integers(len(lines))), "  ")
    name = "RND"
    d = root / f"{name}{seed}"
    d.mkdir()
    (d / f"{name}_A.txt").write_text("\n".join(lines) + "\n" * bool(lines))
    (d / f"{name}_graph_indicator.txt").write_text(
        "\n".join(map(str, indicator)) + "\n")
    if rng.random() < 0.8:
        (d / f"{name}_graph_labels.txt").write_text("\n".join(
            map(str, rng.integers(-3, 4, size=len(sizes)))) + "\n")
    if rng.random() < 0.5:
        labels = rng.choice([-1, 0, 2, 7], size=len(indicator))
        (d / f"{name}_node_labels.txt").write_text(
            "\n".join(map(str, labels)) + "\n")
    if rng.random() < 0.3:
        attrs = rng.normal(size=(len(indicator), int(rng.integers(1, 4))))
        if rng.random() < 0.5:
            attrs = attrs.round(3)
        (d / f"{name}_node_attributes.txt").write_text("\n".join(
            ", ".join(repr(float(v)) for v in row) for row in attrs) + "\n")
    return d


def assert_same_dataset(ds, ref):
    assert (ds.name, ds.num_classes, ds.feature_dim, len(ds)) == \
        (ref.name, ref.num_classes, ref.feature_dim, len(ref))
    for g, r in zip(ds.graphs, ref.graphs):
        assert g.num_nodes == r.num_nodes
        for a, b in ((g.edges, r.edges), (g.features.data, r.features.data),
                     (g.edge_weights.data, r.edge_weights.data)):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()
    assert (ds.graph_labels is None) == (ref.graph_labels is None)
    assert np.array_equal(ds.labels(), ref.labels())
    assert (ds.node_labels is None) == (ref.node_labels is None)
    for a, b in zip(ds.node_labels or [], ref.node_labels or []):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def duplicates_logged(caplog):
    return sum(r.args[0] for r in caplog.records if "duplicate" in r.msg)


def test_mutag_matches_reference(mutag_dir, caplog):
    ref, duplicates = _parse_reference(mutag_dir)
    with caplog.at_level(logging.WARNING):
        assert_same_dataset(parse_tudataset(mutag_dir), ref)
    assert duplicates_logged(caplog) == duplicates


def test_random_datasets_match_reference(tmp_path, caplog):
    kinds = {"duplicates": 0, "degree": 0, "hub": 0, "empty": 0}
    for seed in range(300):
        d = write_random_dataset(tmp_path, seed)
        ref, duplicates = _parse_reference(d)
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            ds = parse_tudataset(d)
        assert duplicates_logged(caplog) == duplicates, seed
        try:
            assert_same_dataset(ds, ref)
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}") from exc
        kinds["duplicates"] += duplicates > 0
        kinds["degree"] += ds.feature_dim == DEGREE_CAP + 2
        kinds["hub"] += bool(ds.feature_dim == DEGREE_CAP + 2 and any(
            g.features.data[:, DEGREE_CAP].any() for g in ds.graphs))
        kinds["empty"] += sum(g.num_edges for g in ds.graphs) == 0
    assert min(kinds.values()) >= 3, kinds


def test_fractional_ids_and_empty_indicator_rejected(tmp_path):
    d = write_dataset(tmp_path, indicator=("1", "1.0"))
    with pytest.raises(DatasetError, match=r"TOY_graph_indicator\.txt: could "
                                           r"not convert string '1\.0'"):
        parse_tudataset(d)
    (d / "TOY_graph_indicator.txt").write_text("\n  \n")
    with pytest.raises(DatasetError, match=r"TOY_graph_indicator\.txt: .*"
                                           r"found 0 distinct ids$"):
        parse_tudataset(d)
