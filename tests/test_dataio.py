"""Tests for dataset containers, the benchmark text-format loader, the
line-delimited JSON dataset files, and the JSON documents (provenance
and checkpoints) read through `read_document`."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pinet.dataio import Dataset, atomic_write, load_dataset, load_tu, save_dataset
from pinet.datagen import GenParams, generate_iso_dataset, load_provenance, save_provenance
from pinet.errors import DataFormatError, DomainError, ShapeError
from pinet.graph import LabeledGraph, graph_from_edges, pad_graph
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


@pytest.mark.parametrize("field, value", [
    ("class_count", 2.0), ("class_count", "2"), ("class_count", True), ("name", 5),
    ("label_map", {"a": 0}), ("label_map", {0: -1}), ("label_map", {0: 1.0}),
    ("label_map", [[0, 0]]),
], ids=["float-class_count", "string-class_count", "bool-class_count", "int-name",
        "string-label", "negative-class", "float-class", "list-label_map"])
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
    gs = [
        pad_graph(graph_from_edges(3, [(0, 1), (1, 2)], label=0), 4),
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
