"""Tests for dataset containers, the benchmark text-format loader, and
the line-delimited JSON dataset files."""

import numpy as np
import pytest

from pinet.dataio import Dataset, load_dataset, load_tu, save_dataset
from pinet.errors import DataFormatError, DomainError, ShapeError
from pinet.graph import LabeledGraph, graph_from_edges, pad_graph
from pinet.tensor import Mat


def _write_tu(root, name, a_lines, indicator, labels, node_labels=None):
    d = root / name
    d.mkdir(parents=True, exist_ok=True)
    (d / f"{name}_A.txt").write_text("\n".join(a_lines) + "\n")
    (d / f"{name}_graph_indicator.txt").write_text("\n".join(indicator) + "\n")
    (d / f"{name}_graph_labels.txt").write_text("\n".join(labels) + "\n")
    if node_labels is not None:
        (d / f"{name}_node_labels.txt").write_text("\n".join(node_labels) + "\n")
    return d


# -- Dataset container ---------------------------------------------------------

def test_dataset_validates_shared_shape():
    g1 = graph_from_edges(3, [(0, 1)])
    g2 = graph_from_edges(4, [(0, 1)])
    with pytest.raises(ShapeError):
        Dataset("bad", (g1, g2), class_count=2, label_map={})


def test_dataset_validates_label_range():
    g = graph_from_edges(3, [(0, 1)], label=7)
    with pytest.raises(DomainError):
        Dataset("bad", (g,), class_count=2, label_map={})


def test_dataset_pad_must_be_tight():
    g = pad_graph(graph_from_edges(3, [(0, 1)]), 6)
    with pytest.raises(DomainError):
        Dataset("loose", (g,), class_count=1, label_map={})


def test_dataset_class_fraction():
    gs = [graph_from_edges(3, [(0, 1)], label=i % 2) for i in range(10)]
    ds = Dataset("toy", tuple(gs), class_count=2, label_map={})
    assert ds.class_fraction(1) == 0.5
    assert ds.n_pad == 3 and ds.d == 1


# -- benchmark text format -----------------------------------------------------

def test_tu_two_node_toy(tmp_path):
    _write_tu(tmp_path, "TOY", ["1, 2", "2, 1"], ["1", "1"], ["1"])
    ds = load_tu(tmp_path / "TOY", "TOY")
    assert len(ds) == 1
    g = ds.graphs[0]
    assert g.n_real == 2
    np.testing.assert_array_equal(g.adjacency.data, [[0.0, 1.0], [1.0, 0.0]])
    assert ds.class_count == 1


def test_tu_accepts_parent_directory(tmp_path):
    _write_tu(tmp_path, "TOY", ["1, 2", "2, 1"], ["1", "1"], ["1"])
    ds = load_tu(tmp_path, "TOY")  # finds the TOY/ subdirectory
    assert len(ds) == 1


def test_tu_pads_to_max_and_maps_labels(tmp_path):
    # graph 1: triangle on nodes 1..3 (label 7), graph 2: edge on 4..5 (label -1)
    a = ["1, 2", "2, 1", "2, 3", "3, 2", "1, 3", "3, 1", "4, 5", "5, 4"]
    ind = ["1", "1", "1", "2", "2"]
    _write_tu(tmp_path, "TWO", a, ind, ["7", "-1"])
    ds = load_tu(tmp_path, "TWO")
    assert len(ds) == 2
    assert ds.n_pad == 3
    assert ds.label_map == {-1: 0, 7: 1}
    assert [g.label for g in ds.graphs] == [1, 0]
    assert ds.graphs[1].n_real == 2
    assert (ds.graphs[1].adjacency.data[2, :] == 0).all()


def test_tu_node_labels_become_one_hot(tmp_path):
    a = ["1, 2", "2, 1", "3, 4", "4, 3"]
    ind = ["1", "1", "2", "2"]
    _write_tu(tmp_path, "NL", a, ind, ["1", "2"], node_labels=["0", "2", "2", "0"])
    ds = load_tu(tmp_path, "NL")
    assert ds.d == 2  # two distinct values
    np.testing.assert_array_equal(ds.graphs[0].features.data, [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(ds.graphs[1].features.data, [[0.0, 1.0], [1.0, 0.0]])


def test_tu_without_node_labels_uses_ones(tmp_path):
    _write_tu(tmp_path, "ONES", ["1, 2", "2, 1"], ["1", "1"], ["1"])
    ds = load_tu(tmp_path, "ONES")
    assert ds.d == 1
    np.testing.assert_array_equal(ds.graphs[0].features.data, np.ones((2, 1)))


def test_tu_drops_self_loops_and_symmetrizes(tmp_path):
    a = ["1, 1", "1, 2"]  # self-loop plus a single directed edge
    _write_tu(tmp_path, "SYM", a, ["1", "1"], ["1"])
    ds = load_tu(tmp_path, "SYM")
    np.testing.assert_array_equal(ds.graphs[0].adjacency.data, [[0.0, 1.0], [1.0, 0.0]])


def test_tu_missing_file_named(tmp_path):
    d = tmp_path / "MISS"
    d.mkdir()
    (d / "MISS_A.txt").write_text("1, 2\n")
    with pytest.raises(DataFormatError) as err:
        load_tu(d, "MISS")
    assert "MISS_graph" in str(err.value)


def test_tu_cross_graph_edge_rejected(tmp_path):
    a = ["1, 3", "3, 1"]
    ind = ["1", "1", "2"]
    _write_tu(tmp_path, "XG", a, ind, ["1", "1"])
    with pytest.raises(DataFormatError):
        load_tu(tmp_path, "XG")


def test_tu_bad_indicator_line_numbered(tmp_path):
    _write_tu(tmp_path, "BADI", ["1, 2", "2, 1"], ["1", "9"], ["1"])
    with pytest.raises(DataFormatError) as err:
        load_tu(tmp_path, "BADI")
    assert ":2]" in str(err.value)  # failing line is reported


def test_tu_malformed_edge_reported(tmp_path):
    _write_tu(tmp_path, "BADE", ["1; 2"], ["1"], ["1"])
    with pytest.raises(DataFormatError):
        load_tu(tmp_path, "BADE")


# -- dataset file round trips ---------------------------------------------------

def _toy_dataset():
    gs = [
        pad_graph(graph_from_edges(3, [(0, 1), (1, 2)], label=0), 4),
        graph_from_edges(4, [(0, 1), (2, 3)], label=1),
    ]
    return Dataset("toy", tuple(gs), class_count=2, label_map={0: 0, 1: 1})


def test_save_load_round_trip(tmp_path):
    ds = _toy_dataset()
    path = tmp_path / "toy.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.name == ds.name
    assert back.class_count == ds.class_count
    assert back.label_map == ds.label_map
    assert len(back) == len(ds)
    for a, b in zip(back.graphs, ds.graphs):
        np.testing.assert_array_equal(a.adjacency.data, b.adjacency.data)
        np.testing.assert_array_equal(a.features.data, b.features.data)
        assert a.label == b.label and a.n_real == b.n_real


def test_empty_dataset_round_trip(tmp_path):
    ds = Dataset("empty", (), class_count=1, label_map={})
    path = tmp_path / "empty.jsonl"
    save_dataset(ds, path)
    assert len(path.read_text().strip().splitlines()) == 1  # header only
    back = load_dataset(path)
    assert len(back) == 0


def test_generated_dataset_round_trips_with_provenance(tmp_path):
    from pinet.datagen import GenParams, generate_iso_dataset, verify_provenance

    ds, prov = generate_iso_dataset(GenParams(n_nodes=10, classes=2, copies=3,
                                              edge_prob=0.3, seed=2))
    path = tmp_path / "iso.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert verify_provenance(back, prov)


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "junk.jsonl"
    path.write_text('{"format": "other"}\n')
    with pytest.raises(DataFormatError):
        load_dataset(path)


def test_load_reports_bad_record_line(tmp_path):
    ds = _toy_dataset()
    path = tmp_path / "broken.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    lines[2] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert ":3]" in str(err.value)


def test_load_rejects_edge_outside_range(tmp_path):
    ds = _toy_dataset()
    path = tmp_path / "badedge.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    import json

    rec = json.loads(lines[1])
    rec["edges"] = [[0, 99]]
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError):
        load_dataset(path)


@pytest.mark.parametrize("field", ["n_pad", "d", "name", "class_count", "label_map"])
def test_load_names_missing_header_field(tmp_path, field):
    import json

    path = tmp_path / "nofield.jsonl"
    save_dataset(_toy_dataset(), path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    del header[field]
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert repr(field) in str(err.value) and str(path) in str(err.value)
