"""Tests for dataset containers, the benchmark text-format loader, the
line-delimited JSON dataset files, and the JSON documents (provenance
and checkpoints) read through `read_document`."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pinet.dataio import Dataset, atomic_write, load_dataset, load_tu, save_dataset, tu_files
from pinet.datagen import GenParams, generate_iso_dataset, load_provenance, save_provenance
from pinet.errors import DataFormatError, DomainError, ShapeError
from pinet.graph import (LabeledGraph, Permutation, edges_of, graph_from_edges, pad_graph,
                         permute_graph)
from pinet.model import PiNetConfig, init_params, load_params, save_params
from pinet.tensor import Mat
from pinet.train import TrainConfig


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
    # graphs of different sizes share a dataset; the feature width d is
    # the one shape they must share
    g1 = graph_from_edges(3, [(0, 1)])
    g2 = graph_from_edges(4, [(0, 1)])
    ds = Dataset("sizes", (g1, g2), class_count=2, label_map={})
    assert [g.n for g in ds.graphs] == [3, 4] and ds.n_pad == 4 and ds.d == 1
    wide = graph_from_edges(4, [(0, 1)], features=Mat(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        Dataset("bad", (g1, wide), class_count=2, label_map={})


def test_dataset_validates_label_range():
    g = graph_from_edges(3, [(0, 1)], label=7)
    with pytest.raises(DomainError):
        Dataset("bad", (g,), class_count=2, label_map={})


def test_dataset_pad_must_be_tight():
    # a dataset stores every graph at its own size: padding is refused
    # even up to the largest graph, which the old shared size required
    small, large = graph_from_edges(3, [(0, 1)]), graph_from_edges(6, [(0, 1)])
    assert Dataset("own", (small, large), class_count=1, label_map={}).n_pad == 6
    for padded in (pad_graph(small, 6), pad_graph(small, 4)):
        with pytest.raises(DomainError, match="own size"):
            Dataset("loose", (padded, large), class_count=1, label_map={})


@pytest.mark.parametrize("field, value", [
    ("class_count", 2.0), ("class_count", "2"), ("class_count", True), ("name", 5),
    ("label_map", {"a": 0}), ("label_map", {0: -1}), ("label_map", {0: 1.0}),
    ("label_map", [[0, 0]]), ("label_map", {0: 2}), ("label_map", {0: 1, 1: 1}),
], ids=["float-class_count", "string-class_count", "bool-class_count", "int-name",
        "string-label", "negative-class", "float-class", "list-label_map",
        "class-beyond-count", "shared-class"])
def test_dataset_refuses_fields_its_file_could_not_hold(field, value):
    fields_ = {"name": "toy", "class_count": 2, "label_map": {0: 0}, field: value}
    with pytest.raises(DomainError):
        Dataset(graphs=(graph_from_edges(3, [(0, 1)]),), **fields_)


def test_dataset_stores_numpy_integers_as_ints(tmp_path):
    ds = Dataset("toy", (graph_from_edges(3, [(0, 1)], label=1),), class_count=np.int64(2),
                 label_map={np.int64(-1): np.uint8(0), np.int32(1): np.int64(1)})
    assert type(ds.class_count) is int and ds.label_map == {-1: 0, 1: 1}
    assert all(type(x) is int for kv in ds.label_map.items() for x in kv)
    save_dataset(ds, tmp_path / "ds.jsonl")
    back = load_dataset(tmp_path / "ds.jsonl")
    assert (back.class_count, back.label_map) == (2, {-1: 0, 1: 1})


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
    # graph 1: triangle on nodes 1..3 (label 7), graph 2: edge on 4..5
    # (label -1); each is stored at its own size, and n_pad is the larger
    a = ["1, 2", "2, 1", "2, 3", "3, 2", "1, 3", "3, 1", "4, 5", "5, 4"]
    ind = ["1", "1", "1", "2", "2"]
    _write_tu(tmp_path, "TWO", a, ind, ["7", "-1"])
    ds = load_tu(tmp_path, "TWO")
    assert len(ds) == 2
    assert ds.n_pad == 3
    assert ds.label_map == {-1: 0, 7: 1}
    assert [g.label for g in ds.graphs] == [1, 0]
    assert [(g.n, g.n_real) for g in ds.graphs] == [(3, 3), (2, 2)]
    np.testing.assert_array_equal(ds.graphs[1].adjacency.data, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(ds.graphs[1].features.data, [[1], [1]])


@pytest.mark.parametrize("node_labels", [None, ["0", "2", "2", "5", "0", "0", "2", "5", "5"]],
                         ids=["ones", "node-labels"])
def test_loaders_store_each_graph_at_its_own_size(tmp_path, node_labels):
    # graphs of 4, 1 and 4 nodes: load_tu and load_dataset both
    # give N = n_real per graph, and n_pad the largest node count
    a = ["1, 2", "2, 1", "3, 4", "4, 3", "6, 7", "7, 8", "8, 9"]
    ind = ["1"] * 4 + ["2"] + ["3"] * 4
    _write_tu(tmp_path, "OWN", a, ind, ["0", "1", "0"], node_labels)
    ds = load_tu(tmp_path, "OWN")
    save_dataset(ds, tmp_path / "own.jsonl")
    back = load_dataset(tmp_path / "own.jsonl")
    for loaded in (ds, back):
        assert [(g.n, g.n_real) for g in loaded.graphs] == [(4, 4), (1, 1), (4, 4)]
        assert loaded.n_pad == 4 and loaded.d == (1 if node_labels is None else 3)
    for g, h in zip(ds.graphs, back.graphs):
        assert g.adjacency.data.tobytes() == h.adjacency.data.tobytes()
        assert g.features.data.tobytes() == h.features.data.tobytes()


def test_tu_memory_follows_each_graphs_own_size(tmp_path):
    # one 200-node path and 500 triangles: padding every graph to 200
    # nodes held 501 x 200^2 adjacency entries (a 155 MiB peak); stored at
    # their own sizes they take about 1 MiB
    import tracemalloc

    a = [f"{u}, {u + 1}" for u in range(1, 200)]
    ind = ["1"] * 200
    for gid in range(2, 502):
        first = 201 + 3 * (gid - 2)
        a += [f"{first}, {first + 1}", f"{first + 1}, {first + 2}", f"{first}, {first + 2}"]
        ind += [str(gid)] * 3
    _write_tu(tmp_path, "TAIL", a, ind, [str(i % 2) for i in range(501)])
    tracemalloc.start()
    try:
        ds = load_tu(tmp_path, "TAIL")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds) == 501 and ds.n_pad == 200
    assert peak < 16 * 2**20, f"load_tu peaked at {peak / 2**20:.1f} MiB"


def test_tu_memory_of_the_gen_iso_layout(tmp_path):
    # the gen-iso default set (500 graphs of 50 nodes, 175,000 edge
    # lines) peaked at 20.8 MiB with one Python list or set per node and
    # per graph; the int64 tables must stay within 10% of that
    import tracemalloc

    ds, _ = generate_iso_dataset(GenParams(seed=1))
    a, ind, first = [], [], 1
    for gid, g in enumerate(ds.graphs, start=1):
        a += [f"{u + first}, {v + first}\n{v + first}, {u + first}" for u, v in edges_of(g)]
        ind += [str(gid)] * g.n
        first += g.n
    _write_tu(tmp_path, "ISO", a, ind, [str(g.label) for g in ds.graphs])
    tracemalloc.start()
    try:
        loaded = load_tu(tmp_path, "ISO")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(g.adjacency.data, h.adjacency.data)
               for g, h in zip(ds.graphs, loaded.graphs))
    assert peak < 1.1 * 20.8 * 2**20, f"load_tu peaked at {peak / 2**20:.1f} MiB"


def test_tu_interleaved_indicator_keeps_order_of_appearance(tmp_path):
    # nodes 1, 3 make graph 1 and nodes 2, 4, 5 graph 2; each graph's
    # local ids follow the order its nodes appear in
    _write_tu(tmp_path, "MIX", ["1, 3", "2, 5", "5, 4"], ["1", "2", "1", "2", "2"], ["0", "1"],
              node_labels=["10", "20", "30", "40", "50"])
    first, second = load_tu(tmp_path, "MIX").graphs
    np.testing.assert_array_equal(first.adjacency.data, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(second.adjacency.data, [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    np.testing.assert_array_equal(first.features.data, np.eye(5)[[0, 2]])
    np.testing.assert_array_equal(second.features.data, np.eye(5)[[1, 3, 4]])


_GOOD_TU = {"A": ["1, 2", "2, 1"], "graph_indicator": ["1", "1"], "graph_labels": ["1"],
            "node_labels": ["0", "1"]}


@pytest.mark.parametrize("suffix, bad", [
    ("A", "1; 2"), ("A", "1, 9"), ("graph_indicator", "x"), ("graph_indicator", "7"),
    ("graph_labels", "1.5"), ("node_labels", "a"),
])
def test_tu_error_after_blank_lines_names_its_line(tmp_path, suffix, bad):
    files = {**_GOOD_TU, suffix: [*_GOOD_TU[suffix][:1], "", " ", bad, *_GOOD_TU[suffix][1:]]}
    if suffix == "graph_indicator":  # the bad line still takes a node's place
        files["graph_indicator"].pop()
    _write_tu(tmp_path, "BL", files["A"], files["graph_indicator"], files["graph_labels"],
              files["node_labels"])
    with pytest.raises(DataFormatError) as err:
        load_tu(tmp_path, "BL")
    assert err.value.path == str(tmp_path / "BL" / f"BL_{suffix}.txt")
    assert err.value.line == 4


def test_tu_node_label_count_mismatch_names_the_node_label_file(tmp_path):
    _write_tu(tmp_path, "NLC", ["1, 2"], ["1", "1"], ["1"], node_labels=["0", "1", "0"])
    with pytest.raises(DataFormatError) as err:
        load_tu(tmp_path, "NLC")
    assert err.value.path == str(tmp_path / "NLC" / "NLC_node_labels.txt")
    assert "3 node labels for 2 nodes" in str(err.value)


def test_tu_cross_graph_edge_names_its_line(tmp_path):
    _write_tu(tmp_path, "XGL", ["1, 2", "", "2, 3"], ["1", "1", "2"], ["1", "1"])
    with pytest.raises(DataFormatError) as err:
        load_tu(tmp_path, "XGL")
    assert err.value.path == str(tmp_path / "XGL" / "XGL_A.txt") and err.value.line == 3
    assert "spans graphs 1 and 2" in str(err.value)


@pytest.mark.parametrize("suffix", list(_GOOD_TU))
@pytest.mark.parametrize("big", ["99999999999999999999999", "-9223372036854775809"])
def test_tu_integer_outside_int64_names_file_and_line(tmp_path, suffix, big):
    files = {k: list(v) for k, v in _GOOD_TU.items()}
    files[suffix][-1] = f"1, {big}" if suffix == "A" else big
    _write_tu(tmp_path, "BIG", files["A"], files["graph_indicator"], files["graph_labels"],
              files["node_labels"])
    with pytest.raises(DataFormatError) as err:
        load_tu(tmp_path, "BIG")
    assert err.value.path == str(tmp_path / "BIG" / f"BIG_{suffix}.txt")
    assert err.value.line == len(files[suffix])


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


def test_tu_files_name_the_layout_in_dir_or_subdir(tmp_path):
    names = ("A", "graph_indicator", "graph_labels", "node_labels")
    for root in (tmp_path, tmp_path / "L"):  # a subdirectory named L takes over once it exists
        required, optional = tu_files(tmp_path, "L")
        assert (*required, optional) == tuple(str(root / f"L_{s}.txt") for s in names)
        (tmp_path / "L").mkdir(exist_ok=True)


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


@pytest.mark.parametrize("suffix", ["A", "graph_indicator", "graph_labels", "node_labels"])
def test_tu_undecodable_bytes_name_the_file(tmp_path, suffix):
    d = _write_tu(tmp_path, "BIN", ["1, 2"], ["1", "1"], ["1"], node_labels=["0", "1"])
    f = d / f"BIN_{suffix}.txt"
    f.write_bytes(f.read_bytes() + b"\xff\n")
    with pytest.raises(DataFormatError) as err:
        load_tu(tmp_path, "BIN")
    assert err.value.path == str(f)


_tu_lines = st.lists(
    st.one_of(
        st.sampled_from(["1", "2", "3", "-1", "0", "1, 2", "2, 1", "1, 3", "2,3", ""]),
        st.text(max_size=10),
        st.binary(max_size=6),
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.tuples(_tu_lines, _tu_lines, _tu_lines, st.none() | _tu_lines))
def test_fuzz_tu_files(tmp_path, files):
    # any lines, text or not, in any of the four files: load or name the file
    d = tmp_path / "FZ"
    d.mkdir(exist_ok=True)
    for suffix, lines in zip(["A", "graph_indicator", "graph_labels", "node_labels"], files):
        f = d / f"FZ_{suffix}.txt"
        if lines is None:
            f.unlink(missing_ok=True)
            continue
        f.write_bytes(b"\n".join(x if isinstance(x, bytes) else x.encode() for x in lines))
    try:
        load_tu(d, "FZ")
    except DataFormatError as e:
        assert e.path is not None and str(e.path).startswith(str(d))


# -- dataset file round trips ---------------------------------------------------

def _toy_dataset():
    gs = [  # graphs of two sizes, the first relabelled
        permute_graph(graph_from_edges(3, [(0, 1), (1, 2)], label=0), Permutation((1, 2, 0))),
        graph_from_edges(4, [(0, 1), (2, 3)], label=1),
    ]
    return Dataset("toy", tuple(gs), class_count=2, label_map={0: 0, 1: 1})


def test_atomic_write_replaces_only_on_success(tmp_path):
    path = tmp_path / "out.txt"
    with atomic_write(path) as fh:
        fh.write("first\n")
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(path) as fh:
            fh.write("partial")
            raise KeyboardInterrupt
    assert path.read_text() == "first\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    with atomic_write(path) as fh:
        fh.write("second\n")
    assert path.read_text() == "second\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_save_load_round_trip(tmp_path):
    # every graph comes back at its own size with its bytes: adjacency,
    # features, n_real and label; the header keeps n_pad, the largest N
    ds = _toy_dataset()
    path = tmp_path / "toy.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.name == ds.name
    assert back.class_count == ds.class_count
    assert back.label_map == ds.label_map
    assert back.n_pad == ds.n_pad == 4
    assert len(back) == len(ds)
    for a, b in zip(back.graphs, ds.graphs):
        assert a.n == a.n_real == b.n == b.n_real
        assert a.adjacency.data.tobytes() == b.adjacency.data.tobytes()
        assert a.features.data.tobytes() == b.features.data.tobytes()
        assert a.label == b.label
    save_dataset(back, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_load_rejects_a_graph_without_nodes(tmp_path):
    path = tmp_path / "empty_graph.jsonl"
    save_dataset(_toy_dataset(), path)
    _edited_line(path, 2, lambda rec: {"n_real": 0, "label": 0, "edges": [], "features": []})
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert (err.value.path, err.value.line) == (str(path), 2)


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


def test_load_undecodable_bytes_names_the_path(tmp_path):
    path = tmp_path / "bin.jsonl"
    save_dataset(_toy_dataset(), path)
    path.write_bytes(path.read_bytes() + b'{"n_real": "\xff"}\n')
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert err.value.path == str(path)


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


def _edited_line(path, line_no, change):
    """Rewrite one line of a saved dataset: `change` maps its parsed
    JSON value to the replacement value."""
    import json

    lines = path.read_text().splitlines()
    lines[line_no - 1] = json.dumps(change(json.loads(lines[line_no - 1])))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("field, value", [
    (None, [1]),
    ("label_map", 5),
    ("label_map", [[1, 2, 3]]),
    ("label_map", [[[1], 0]]),
    ("class_count", "x"),
    ("n_pad", "x"),
    ("n_pad", 5),  # larger than every graph's n_real
    ("d", True),
    ("name", 7),
    ("label_map", [[0, 0], [0, 1]]),  # raw label 0 twice
])
def test_load_rejects_malformed_header(tmp_path, field, value):
    path = tmp_path / "badhead.jsonl"
    save_dataset(_toy_dataset(), path)
    _edited_line(path, 1, lambda h: value if field is None else {**h, field: value})
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert (err.value.path, err.value.line) == (str(path), 1)
    assert field is None or repr(field) in str(err.value)


@pytest.mark.parametrize("field, value", [
    ("edges", [[0.5, 1]]),
    ("label", 7),  # outside the header's class count
    ("label", 0.5),
    ("features", [[1.0, 2.0]] * 3),
    ("features", [[10**400]] * 3),
    ("edges", [[0, True]]),
    ("features", [[True]] * 3),
    ("features", [["1.0"]] * 3),
])
def test_load_rejects_malformed_record(tmp_path, field, value):
    path = tmp_path / "badrec.jsonl"
    save_dataset(_toy_dataset(), path)
    _edited_line(path, 2, lambda rec: {**rec, field: value})
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert err.value.path == str(path)


# -- property tests of the line-JSON loader ----------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=12,
)
_fuzz = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _loads_or_names_path(path):
    try:
        load_dataset(path)
    except DataFormatError as e:
        assert e.path == str(path)


def _replacement(fields):
    """Either a whole arbitrary JSON value, or one field of the valid
    value replaced by an arbitrary JSON value."""
    return st.one_of(
        st.tuples(st.none(), _json_values),
        st.tuples(st.sampled_from(fields), _json_values),
    )


@_fuzz
@given(_replacement(["format", "name", "n_pad", "d", "class_count", "label_map"]))
def test_fuzz_header_line(tmp_path, change):
    field, value = change
    path = tmp_path / "fuzz.jsonl"
    save_dataset(_toy_dataset(), path)
    _edited_line(path, 1, lambda h: value if field is None else {**h, field: value})
    _loads_or_names_path(path)


@_fuzz
@given(_replacement(["n_real", "label", "edges", "features"]))
def test_fuzz_record_line(tmp_path, change):
    field, value = change
    path = tmp_path / "fuzz.jsonl"
    save_dataset(_toy_dataset(), path)
    _edited_line(path, 2, lambda rec: value if field is None else {**rec, field: value})
    _loads_or_names_path(path)


# -- property tests of the JSON documents read through `read_document` ---------

def _with_entry(doc, entry, value):
    """`doc` with the entry at `entry` (a path of keys and list indices)
    replaced by `value`; the empty path replaces the whole document."""
    if not entry:
        return value
    out = doc.copy()
    out[entry[0]] = _with_entry(doc[entry[0]], entry[1:], value)
    return out


def _fuzzed_document(tmp_path, save, entry, value):
    import json

    path = tmp_path / "fuzz.json"
    save(path)
    path.write_text(json.dumps(_with_entry(json.loads(path.read_text()), entry, value)))
    return path


_PROVENANCE_ENTRIES = [
    (), ("format",), ("params",), ("seed_edges",), ("degree_sequence",), ("base_edges",),
    ("permutations",), ("copy_classes",),
    *[("params", f) for f in ("n_nodes", "classes", "copies", "edge_prob", "seed")],
    ("seed_edges", 0), ("base_edges", 1), ("base_edges", 0, 2), ("degree_sequence", 3),
    ("permutations", 4), ("permutations", 0, 5), ("copy_classes", 1),
]


@_fuzz
@given(st.sampled_from(_PROVENANCE_ENTRIES), _json_values)
def test_fuzz_provenance_entry(tmp_path, entry, value):
    _, prov = generate_iso_dataset(GenParams(n_nodes=6, classes=2, copies=3, edge_prob=0.5, seed=1))
    path = _fuzzed_document(tmp_path, lambda p: save_provenance(prov, p), entry, value)
    try:
        load_provenance(path)
    except DataFormatError as e:
        assert e.path == str(path)


_CHECKPOINT_ENTRIES = [
    (), ("format",), ("config",), ("weights",), ("pq",),
    *[("config", f) for f in ("d", "C", "F0", "F1", "attention_axis", "pq_mode",
                              "fixed_p", "fixed_q", "seed")],
    ("weights", "w_x0"), ("weights", "w_x1", "rows"), ("weights", "w_a1", "cols"),
    ("weights", "w_d", "data"), ("weights", "w_a0", "data", 0), ("pq", "p_x0"), ("pq", "q_a1"),
]


@_fuzz
@given(st.sampled_from(_CHECKPOINT_ENTRIES), _json_values)
def test_fuzz_checkpoint_entry(tmp_path, entry, value):
    params = init_params(PiNetConfig(d=2, C=2, F0=3, F1=2))
    path = _fuzzed_document(tmp_path, lambda p: save_params(params, p), entry, value)
    try:
        load_params(path)
    except DataFormatError as e:
        assert e.path == str(path)


# -- property test of the value rules: reals in `Mat`, config fields ----------

_numpy_scalars = st.one_of(
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_), st.complex_numbers().map(np.complex128),
    st.sampled_from(["nodes", "fixed", "0.5", ""]).map(np.str_),
)
_huge_ints = st.integers(min_value=2**63, max_value=10**400).flatmap(
    lambda v: st.sampled_from([v, -v]))
_ragged = st.lists(st.lists(st.floats() | st.integers(), max_size=3), min_size=2, max_size=4)
_any_value = st.one_of(_json_values, _numpy_scalars, _huge_ints, _ragged,
                       st.lists(_numpy_scalars | _huge_ints, max_size=3))


def _config_builders(cls, **base):
    return [lambda v, f=f.name: cls(**{**base, f: v}) for f in fields(cls)]


_VALUE_RULES = [Mat, Mat.scalar, *_config_builders(GenParams), *_config_builders(TrainConfig),
                *_config_builders(PiNetConfig, d=1, C=2)]


@_fuzz
@given(st.sampled_from(_VALUE_RULES), _any_value)
def test_fuzz_value_rules(build, value):
    """Each rule builds or refuses with a pinet error; never a raw
    TypeError, OverflowError or numpy ValueError."""
    try:
        out = build(value)
    except (DomainError, ShapeError):
        return
    if isinstance(out, Mat):
        assert out.data.dtype == np.float64 and np.isfinite(out.data).all()
    else:
        assert all(type(getattr(out, f.name)) in (int, float, str, bool) for f in fields(out))
