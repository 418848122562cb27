"""Tests for graph generation: connected samples, degree-preserving
rewiring, and the permuted-copy dataset with its provenance record."""

import hashlib
import json

import numpy as np
import pytest

from pinet import datagen
from pinet.dataio import save_dataset
from pinet.datagen import (
    GenParams,
    degree_sequence_of,
    generate_iso_dataset,
    graph_from_degree_sequence,
    load_provenance,
    sample_er_connected,
    save_provenance,
    verify_provenance,
)
from pinet.errors import DataFormatError, DomainError, GenerationError
from pinet.tensor import Mat


def _degrees(g):
    return sorted(g.adjacency.data.sum(axis=1).astype(int).tolist())


# -- graphicality: one test, in Havel-Hakimi --------------------------------

@pytest.mark.parametrize("degrees", [(1, 1), (2, 2, 2), (3, 1, 1, 1), (0, 0)],
                         ids=["edge", "triangle", "star", "isolated"])
def test_graphical_sequences_are_realised(degrees):
    g = graph_from_degree_sequence(degrees, seed=0)
    assert degree_sequence_of(g) == degrees


@pytest.mark.parametrize("degrees", [
    (3, 1),           # not enough partners
    (1, 1, 1),        # odd sum
    (2, 2, 0),        # even sum, still not realisable
    (-1, 1),          # negative
    (1.9, 1.2),       # floats are not truncated
    (True, True),     # nor are bools read as 1
    ("1", "1"),
    ((1, 1),),        # not a flat sequence
    (),               # a graph has at least one node
], ids=["too-few-partners", "odd-sum", "even-sum", "negative", "float", "bool", "string",
        "nested", "empty"])
def test_non_graphical_or_non_integer_degrees_rejected(degrees):
    with pytest.raises(DomainError):
        graph_from_degree_sequence(degrees, seed=0)


def test_degree_sequence_of_is_a_plain_tuple():
    seq = degree_sequence_of(sample_er_connected(8, 0.5, seed=1))
    assert type(seq) is tuple and all(type(d) is int for d in seq)


# -- Erdos-Renyi sampling -----------------------------------------------------

def test_er_two_nodes_high_prob():
    g = sample_er_connected(2, 0.999, seed=0)
    assert g.adjacency.data[0, 1] == 1.0


def test_er_always_connected():
    for seed in range(25):
        g = sample_er_connected(12, 0.2, seed=seed)
        a = g.adjacency.data
        # BFS reachability from node 0
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in np.nonzero(a[u])[0]:
                    if int(v) not in seen:
                        seen.add(int(v))
                        nxt.append(int(v))
            frontier = nxt
        assert len(seen) == 12


def test_er_mean_degree_matches_expectation():
    means = [
        sample_er_connected(50, 0.15, seed=s).adjacency.data.sum() / 50
        for s in range(100)
    ]
    assert abs(float(np.mean(means)) - 0.15 * 49) < 0.5


def test_er_deterministic():
    a = sample_er_connected(10, 0.3, seed=5).adjacency.data
    b = sample_er_connected(10, 0.3, seed=5).adjacency.data
    np.testing.assert_array_equal(a, b)


def test_er_validation():
    with pytest.raises(DomainError):
        sample_er_connected(0, 0.5, seed=0)
    with pytest.raises(DomainError):
        sample_er_connected(5, 0.0, seed=0)


@pytest.mark.parametrize("n, edge_prob", [(5, "0.3"), (5.0, 0.3), (True, 0.3)],
                         ids=["str-prob", "float-n", "bool-n"])
def test_er_reads_n_and_edge_prob_by_the_value_rules(n, edge_prob):
    with pytest.raises(DomainError):
        sample_er_connected(n, edge_prob, seed=0)


# -- degree-sequence realisation ----------------------------------------------

def test_degree_sequence_single_edge():
    g = graph_from_degree_sequence((1, 1), seed=0)
    np.testing.assert_array_equal(g.adjacency.data, [[0.0, 1.0], [1.0, 0.0]])


def test_degree_sequence_triangle():
    g = graph_from_degree_sequence((2, 2, 2), seed=1)
    assert _degrees(g) == [2, 2, 2]
    assert g.adjacency.data.sum() == 6.0  # the unique 3-node realisation


def test_degree_sequence_star():
    g = graph_from_degree_sequence((3, 1, 1, 1), seed=2)
    assert _degrees(g) == [1, 1, 1, 3]


def test_degree_sequence_preserved_across_seeds():
    target = (3, 3, 2, 2, 2, 2, 1, 1)
    for seed in range(10):
        g = graph_from_degree_sequence(target, seed=seed)
        assert _degrees(g) == sorted(target)


def test_degree_sequence_rewiring_varies_edges():
    # same degrees, different seeds: the swap phase should reach
    # different realisations at least sometimes
    target = degree_sequence_of(sample_er_connected(20, 0.3, seed=0))
    edge_sets = set()
    for seed in range(8):
        g = graph_from_degree_sequence(target, seed=seed)
        edges = tuple(sorted(map(tuple, np.argwhere(np.triu(g.adjacency.data, 1)).tolist())))
        edge_sets.add(edges)
    assert len(edge_sets) > 1


def test_degree_sequence_end_check_raises(monkeypatch):
    # a realised graph that lost an edge must be refused, also under python -O
    build = datagen.graph_from_edges
    monkeypatch.setattr(datagen, "graph_from_edges", lambda n, edges: build(n, edges[:-1]))
    with pytest.raises(GenerationError, match="degree sequence"):
        graph_from_degree_sequence((2, 2, 2, 2), seed=0)


# -- dataset generation --------------------------------------------------------

def test_gen_params_validation():
    with pytest.raises(DomainError):
        GenParams(n_nodes=1)
    with pytest.raises(DomainError):
        GenParams(classes=1)
    with pytest.raises(DomainError):
        GenParams(edge_prob=1.0)


@pytest.mark.parametrize("field, value", [
    ("n_nodes", 6.0), ("copies", True), ("classes", "4"), ("seed", -1), ("seed", 1.5),
    ("edge_prob", "0.3"), ("edge_prob", True), ("edge_prob", None), ("edge_prob", [0.3]),
])
def test_gen_params_type_checks(field, value):
    with pytest.raises(DomainError, match=field):
        GenParams(**{field: value})


def test_gen_params_accept_numpy_integers():
    params = GenParams(n_nodes=np.int64(6), classes=np.int32(2), copies=np.uint8(1), seed=np.int64(3))
    assert all(type(getattr(params, f)) is int for f in ("n_nodes", "classes", "copies", "seed"))
    assert params == GenParams(n_nodes=6, classes=2, copies=1, seed=3)


def test_gen_params_store_numpy_floats_as_floats():
    params = GenParams(edge_prob=np.float32(0.25))
    assert type(params.edge_prob) is float and params.edge_prob == 0.25


@pytest.fixture(scope="module")
def small_iso():
    params = GenParams(n_nodes=12, classes=3, copies=4, edge_prob=0.3, seed=7)
    return generate_iso_dataset(params)


def test_iso_dataset_counts(small_iso):
    ds, prov = small_iso
    assert len(ds) == 12
    for cls in range(3):
        assert sum(g.label == cls for g in ds.graphs) == 4


def test_iso_shared_degree_sequence(small_iso):
    ds, _ = small_iso
    first = _degrees(ds.graphs[0])
    for g in ds.graphs:
        assert _degrees(g) == first


def test_iso_copies_match_provenance(small_iso):
    ds, prov = small_iso
    assert verify_provenance(ds, prov)
    # spot check one replay by hand
    k = 5
    perm = np.asarray(prov.permutations[k])
    base = prov.base_graph(ds.graphs[k].label).adjacency.data
    pm = np.zeros_like(base)
    pm[perm, np.arange(len(perm))] = 1.0
    np.testing.assert_array_equal(ds.graphs[k].adjacency.data, pm @ base @ pm.T)


def test_iso_distinct_base_graphs(small_iso):
    _, prov = small_iso
    bases = [tuple(sorted(map(tuple, prov.base_edges[c]))) for c in range(3)]
    assert len(set(bases)) == 3


def test_iso_features_are_all_ones(small_iso):
    ds, _ = small_iso
    for g in ds.graphs:
        np.testing.assert_array_equal(g.features.data, np.ones((g.n, 1)))


def test_iso_deterministic():
    params = GenParams(n_nodes=10, classes=2, copies=3, edge_prob=0.3, seed=11)
    a, _ = generate_iso_dataset(params)
    b, _ = generate_iso_dataset(params)
    for ga, gb in zip(a.graphs, b.graphs):
        np.testing.assert_array_equal(ga.adjacency.data, gb.adjacency.data)
        assert ga.label == gb.label


def test_paper_scale_dataset_counts():
    ds, prov = generate_iso_dataset(GenParams())
    assert len(ds) == 500
    assert ds.class_count == 5
    assert all(sum(g.label == c for g in ds.graphs) == 100 for c in range(5))


# -- provenance io -------------------------------------------------------------

def test_provenance_round_trip(tmp_path, small_iso):
    ds, prov = small_iso
    path = tmp_path / "prov.json"
    save_provenance(prov, path)
    loaded = load_provenance(path)
    assert loaded.params == prov.params
    assert loaded.permutations == prov.permutations
    assert loaded.base_edges == prov.base_edges
    assert loaded.copy_classes == prov.copy_classes
    assert verify_provenance(ds, loaded)


def test_provenance_detects_tamper(small_iso):
    ds, prov = small_iso
    from dataclasses import replace

    bad_perms = list(prov.permutations)
    p = list(bad_perms[3])
    p[0], p[1] = p[1], p[0]
    bad_perms[3] = tuple(p)
    tampered = replace(prov, permutations=tuple(bad_perms))
    assert not verify_provenance(ds, tampered)


def test_generated_files_pinned(tmp_path, small_iso):
    # provenance replay relies on gen-iso writing the same bytes per seed
    ds, prov = small_iso
    save_dataset(ds, tmp_path / "iso.jsonl")
    save_provenance(prov, tmp_path / "iso.prov.json")
    digest = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
              for f in ("iso.jsonl", "iso.prov.json")}
    assert digest == {
        "iso.jsonl": "5b9d9aedad909eb1814d328bc922d9c4d3fc734ec9c046f56f7a72fae2659120",
        "iso.prov.json": "7079c1f6f6a31669050a078f14ab541efbaecc51c008e37190b13f27c4766871",
    }


def test_verify_provenance_rejects_other_sizes_and_features(small_iso):
    ds, prov = small_iso
    from dataclasses import replace

    _, larger = generate_iso_dataset(replace(prov.params, n_nodes=13))
    assert not verify_provenance(ds, larger)
    g = ds.graphs[0]
    scaled = replace(g, features=Mat(2 * g.features.data))
    assert not verify_provenance(replace(ds, graphs=(scaled,) + ds.graphs[1:]), prov)


@pytest.mark.parametrize("edit", [
    {"degree_sequence": "zeros", "seed_edges": ()},
    {"degree_sequence": "zeros"},
    {"seed_edges": ()},
], ids=["both", "degrees", "seed-edges"])
def test_verify_provenance_checks_degree_sequence(small_iso, edit):
    # the copies still replay from their bases; the audit record does not
    ds, prov = small_iso
    from dataclasses import replace

    if edit.get("degree_sequence") == "zeros":
        edit = {**edit, "degree_sequence": (0,) * len(prov.degree_sequence)}
    assert not verify_provenance(ds, replace(prov, **edit))


def _swap_first_permutations(doc):
    doc["permutations"][0], doc["permutations"][1] = doc["permutations"][1], doc["permutations"][0]
    return doc


# entry named in the error -> edit of the saved provenance document
_BAD_PROVENANCE = {
    "non-object": (None, lambda doc: [doc]),
    "unknown-param": ("params", lambda doc: {**doc, "params": {**doc["params"], "size": 3}}),
    "param-type": ("params", lambda doc: {**doc, "params": {**doc["params"], "n_nodes": "12"}}),
    "param-float": ("params", lambda doc: {**doc, "params": {**doc["params"], "copies": 4.0}}),
    "missing-permutations": ("permutations", lambda doc: {
        k: v for k, v in doc.items() if k != "permutations"}),
    "seed-edge-self-loop": ("seed_edges", lambda doc: {**doc, "seed_edges": [[1, 1]]}),
    "seed-edge-outside": ("seed_edges", lambda doc: {**doc, "seed_edges": [[0, 12]]}),
    "seed-edge-triple": ("seed_edges", lambda doc: {**doc, "seed_edges": [[0, 1, 2]]}),
    "degree-length": ("degree_sequence", lambda doc: {**doc, "degree_sequence": [1, 1]}),
    "base-edge-string": ("base_edges", lambda doc: {
        **doc, "base_edges": [[["0", "1"]]] + doc["base_edges"][1:]}),
    "base-missing-class": ("base_edges", lambda doc: {
        **doc, "base_edges": doc["base_edges"][:2]}),
    "permutation-repeat": ("permutations", lambda doc: {
        **doc, "permutations": [[0] * 12] + doc["permutations"][1:]}),
    "permutation-length": ("permutations", lambda doc: {
        **doc, "permutations": [list(range(11))] + doc["permutations"][1:]}),
    "permutation-bool": ("permutations", lambda doc: {
        **doc, "permutations": [[True, False] + list(range(2, 12))] + doc["permutations"][1:]}),
    "class-without-base": ("copy_classes", lambda doc: {
        **doc, "copy_classes": [3] + doc["copy_classes"][1:]}),
    "class-count": ("copy_classes", lambda doc: {
        **doc, "copy_classes": doc["copy_classes"][:-1]}),
    "class-negative": ("copy_classes", lambda doc: {
        **doc, "copy_classes": [-1] + doc["copy_classes"][1:]}),
}


@pytest.mark.parametrize("case", sorted(_BAD_PROVENANCE))
def test_load_provenance_rejects_malformed(tmp_path, small_iso, case):
    entry, edit = _BAD_PROVENANCE[case]
    path = tmp_path / "prov.json"
    save_provenance(small_iso[1], path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(DataFormatError) as err:
        load_provenance(path)
    assert err.value.path == str(path)
    if entry is not None:
        assert repr(entry) in str(err.value)


@pytest.mark.parametrize("content", [
    b'{"format": "pinet-provenance-v1", "params": "\xff"}',  # not UTF-8
    b"[" * 100_000 + b"]" * 100_000,
    b"",
])
def test_load_provenance_rejects_undecodable(tmp_path, content):
    path = tmp_path / "prov.json"
    path.write_bytes(content)
    with pytest.raises(DataFormatError) as err:
        load_provenance(path)
    assert err.value.path == str(path)
