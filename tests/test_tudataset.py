import numpy as np
import pytest

from graphaug.errors import DatasetError
from graphaug.tudataset import dataset_stats, parse_tudataset


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
    assert g.num_undirected_edges() == 2.0   # the loop plus one proper edge


def test_node_labels_one_hot(tmp_path):
    d = write_dataset(tmp_path, edges=((1, 2), (2, 1), (3, 4), (4, 3)),
                      indicator=(1, 1, 2, 2), graph_labels=(5, 9),
                      node_labels=(0, 2, 2, 0))
    ds = parse_tudataset(d)
    assert ds.feature_dim == 2          # values {0, 2}
    assert ds.num_classes == 2
    assert ds.graphs[0].label == 0 and ds.graphs[1].label == 1
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
    assert all(g.label in (0, 1) for g in ds.graphs)


def test_unlabeled_dataset_labels_sentinel(tmp_path):
    d = write_dataset(tmp_path, graph_labels=None)
    ds = parse_tudataset(d)
    assert ds.num_classes == 0
    assert ds.graphs[0].label is None
    assert ds.labels().tolist() == [-1]
