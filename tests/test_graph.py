"""Tests for graph containers, permutations, padding, and propagation.

The propagation matrix is checked against the four closed-form corner
cases and hand-evaluated small graphs; permutation handling is checked
for bijectivity, inverses, and uniformity.
"""

import numpy as np
import pytest

from pinet.errors import DomainError, ShapeError
from pinet.graph import (
    LabeledGraph,
    Permutation,
    edges_of,
    graph_from_edges,
    make_batch,
    pad_graph,
    permute_graph,
    propagation_matrix,
    random_permutation,
)
from pinet.tensor import Mat


def _triangle():
    return graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])


def _path3():
    return graph_from_edges(3, [(0, 1), (1, 2)])


# -- LabeledGraph validation --------------------------------------------------

def test_graph_from_edges_defaults():
    g = _triangle()
    assert g.n == 3 and g.n_real == 3 and g.d == 1
    np.testing.assert_array_equal(g.features.data, np.ones((3, 1)))
    np.testing.assert_array_equal(make_batch([g], 2).stacks[0].mask, [[True, True, True]])


def test_graph_requires_symmetry():
    a = np.zeros((2, 2))
    a[0, 1] = 1.0
    with pytest.raises(DomainError):
        LabeledGraph(2, Mat(a), Mat(np.ones((2, 1))), 0)


def test_graph_rejects_self_loops():
    a = np.eye(2)
    with pytest.raises(DomainError):
        LabeledGraph(2, Mat(a), Mat(np.ones((2, 1))), 0)
    with pytest.raises(DomainError):
        graph_from_edges(2, [(0, 0)])


def test_graph_rejects_nonbinary_entries():
    a = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(DomainError):
        LabeledGraph(2, Mat(a), Mat(np.ones((2, 1))), 0)


def test_graph_rejects_nonzero_padding():
    a = np.zeros((3, 3))
    a[0, 2] = a[2, 0] = 1.0  # touches the padded node
    x = np.ones((3, 1))
    x[2, 0] = 0.0
    with pytest.raises(DomainError):
        LabeledGraph(2, Mat(a), Mat(x), 0)


def test_graph_rejects_out_of_range_edges():
    with pytest.raises(DomainError):
        graph_from_edges(3, [(0, 5)])
    with pytest.raises(DomainError):  # inside n_real but outside the padded size
        graph_from_edges(3, [(0, 4)], n_real=5)


@pytest.mark.parametrize("edges", [[(0.0, 1.0)], [(True, False)], [(True, 2)], [(0, 1, 2)],
                                   [(0, 1), (1,)]],
                         ids=["float", "bool", "bool-among-ints", "triple", "ragged"])
def test_graph_rejects_malformed_edges(edges):
    with pytest.raises(DomainError):
        graph_from_edges(3, edges)


@pytest.mark.parametrize("build", [
    lambda: make_batch([graph_from_edges(2, [(0, 1)], label=0.5)], 2),
    lambda: graph_from_edges(2, [(0, 1)], label=True),
    lambda: graph_from_edges(2.5, [(0, 1)]),
    lambda: graph_from_edges(2, [], n_real=1.0),
    lambda: LabeledGraph(True, Mat(np.zeros((1, 1))), Mat(np.ones((1, 1))), 0),
    lambda: LabeledGraph(0, Mat(np.zeros((1, 1))), Mat(np.zeros((1, 1))), 0),
    lambda: graph_from_edges(0, []),
], ids=["float-label", "bool-label", "float-n", "float-n_real", "bool-n_real",
        "no-real-node", "no-node"])
def test_graph_scalars_follow_the_integer_rule(build):
    with pytest.raises(DomainError):
        build()


def test_graph_scalars_accept_numpy_integers():
    g = graph_from_edges(np.int64(3), [(0, 1)], label=np.uint8(1), n_real=np.int32(2))
    assert (g.n, g.n_real, g.label) == (3, 2, 1)
    assert type(g.n_real) is int and type(g.label) is int
    np.testing.assert_array_equal(make_batch([g], np.int64(2)).labels, [[0.0, 1.0]])
    assert len(random_permutation(np.int64(4), 0)) == 4
    assert pad_graph(g, np.int32(5)).n == 5
    assert len(_stratified_kfold_k(np.uint8(2))) == 2


def test_edges_of_round_trips():
    rng = np.random.default_rng(4)
    for n in (1, 2, 7, 12):
        upper = np.triu(rng.random((n, n)) < 0.4, k=1)
        g = graph_from_edges(n + 2, np.argwhere(upper), n_real=n)
        edges = edges_of(g)
        assert all(u < v for u, v in edges) and list(edges) == sorted(edges)
        for again in (graph_from_edges(n + 2, edges, n_real=n),
                      graph_from_edges(n + 2, np.array(edges, dtype=np.int64), n_real=n)):
            np.testing.assert_array_equal(again.adjacency.data, g.adjacency.data)


def test_graph_square_check():
    with pytest.raises(ShapeError):
        LabeledGraph(2, Mat(np.zeros((2, 3))), Mat(np.ones((2, 1))), 0)


@pytest.mark.parametrize("a, error, message", [
    ([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]], ShapeError, "adjacency must be square, got 2x3"),
    ([[0.0, 2.0], [2.0, 0.0]], DomainError, "adjacency entries must be 0 or 1"),
    ([[0.0, 1.0], [0.0, 0.0]], DomainError, "adjacency must be symmetric"),
], ids=["not-square", "entry-2", "asymmetric"])
def test_adjacency_rule_is_the_same_for_graph_and_reference(a, error, message):
    rows = len(a)
    refusals = []
    for build in (lambda: LabeledGraph(rows, Mat(a), Mat(np.ones((rows, 1))), 0),
                  lambda: propagation_matrix(Mat(a), 0.5, 0.5)):
        with pytest.raises(error) as caught:
            build()
        refusals.append((type(caught.value), str(caught.value)))
    assert refusals == [(error, message)] * 2


# -- propagation matrix -------------------------------------------------------

def _random_simple_adjacency(rng, n, min_degree=1):
    while True:
        a = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
        a = a + a.T
        if a.sum(axis=1).min() >= min_degree:
            return a


def test_propagation_corner_adjacency():
    a = _random_simple_adjacency(np.random.default_rng(0), 6)
    out = propagation_matrix(Mat(a), 1.0, 0.0)
    assert (out.data == a).all()  # exact, not approximate


def test_propagation_corner_adjacency_with_self_loops():
    a = _random_simple_adjacency(np.random.default_rng(1), 6)
    out = propagation_matrix(Mat(a), 1.0, 1.0)
    assert (out.data == a + np.eye(6)).all()


def test_propagation_corner_symmetric_normalized():
    a = _random_simple_adjacency(np.random.default_rng(2), 6)
    dis = np.diag(1.0 / np.sqrt(a.sum(axis=1)))
    out = propagation_matrix(Mat(a), 0.0, 0.0)
    np.testing.assert_allclose(out.data, dis @ a @ dis, atol=1e-12)


def test_propagation_k3_halves():
    # triangle degrees are all 2, so D^{-1/2} A D^{-1/2} = A / 2
    a = _triangle().adjacency
    out = propagation_matrix(a, 0.0, 0.0)
    np.testing.assert_allclose(out.data, a.data / 2.0, atol=1e-15)


def test_propagation_interior_point_hand_value():
    # single edge, p=q=0.5: mixing matrix is (0.5 + 0.5 d) I = I,
    # so the result is simply A + 0.5 I
    a = Mat(np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = propagation_matrix(a, 0.5, 0.5)
    np.testing.assert_allclose(out.data, a.data + 0.5 * np.eye(2), atol=1e-15)


def test_propagation_padding_never_couples_to_real_nodes():
    g = pad_graph(_triangle(), 5)
    out = propagation_matrix(g.adjacency, 0.3, 0.7).data
    # the q-diagonal survives on padded nodes (their mixing weight is p,
    # not zero), but they never exchange mass with real nodes, and the
    # zero feature rows of padded nodes keep the towers unaffected
    assert (out[3:, :3] == 0.0).all() and (out[:3, 3:] == 0.0).all()
    zero_q = propagation_matrix(g.adjacency, 0.3, 0.0).data
    assert (zero_q[3:, :] == 0.0).all() and (zero_q[:, 3:] == 0.0).all()


def test_propagation_domain_checks():
    a = _triangle().adjacency
    for bad in (-0.1, 1.5):
        with pytest.raises(DomainError):
            propagation_matrix(a, bad, 0.0)
        with pytest.raises(DomainError):
            propagation_matrix(a, 0.0, bad)
    with pytest.raises(DomainError):  # would give 3 + (1-3)*2 < 0 on the triangle
        propagation_matrix(a, Mat.scalar(3.0), 0.0)


def test_propagation_checks_matrix_pq_by_value():
    from pinet.tensor import Tape

    a = _path3().adjacency
    tape = Tape()
    with pytest.raises(DomainError):
        propagation_matrix(a, Mat.scalar(1.5), Mat.scalar(-3.0))
    with pytest.raises(DomainError):
        propagation_matrix(a, tape.leaf(Mat.scalar(0.5), "p"), tape.leaf(Mat.scalar(1.5), "q"))
    inside = propagation_matrix(a, tape.leaf(Mat.scalar(0.5), "p2"), tape.leaf(Mat.scalar(0.5), "q2"))
    np.testing.assert_array_equal(inside.data, propagation_matrix(a, 0.5, 0.5).data)


def test_propagation_accepts_tracked_scalars():
    # tracked 1x1 p and q are read by value; the reference stays off the tape
    from pinet.tensor import Tape

    a = _triangle().adjacency
    tape = Tape()
    p = tape.leaf(Mat.scalar(0.3), "p")
    q = tape.leaf(Mat.scalar(0.7), "q")
    out = propagation_matrix(a, p, q)
    assert not out.is_tracked and len(tape) == 2
    np.testing.assert_array_equal(out.data, propagation_matrix(a, 0.3, 0.7).data)


# -- permutations -------------------------------------------------------------

def test_permutation_identity():
    g = _path3()
    out = permute_graph(g, Permutation((0, 1, 2)))
    np.testing.assert_array_equal(out.adjacency.data, g.adjacency.data)
    np.testing.assert_array_equal(out.features.data, g.features.data)


def test_permutation_inverse_round_trip():
    rng = np.random.default_rng(3)
    a = _random_simple_adjacency(rng, 7)
    g = LabeledGraph(7, Mat(a), Mat(rng.random((7, 1))), 1)
    perm = random_permutation(7, 4)
    back = permute_graph(permute_graph(g, perm), Permutation(np.argsort(perm.mapping)))
    np.testing.assert_array_equal(back.adjacency.data, g.adjacency.data)
    np.testing.assert_array_equal(back.features.data, g.features.data)


def test_permutation_path_swap_ends():
    # swapping the endpoints of a 3-path relabels the edges but keeps
    # the same edge set and degree sequence
    g = _path3()
    out = permute_graph(g, Permutation((2, 1, 0)))
    np.testing.assert_array_equal(out.adjacency.data, g.adjacency.data)
    assert sorted(out.adjacency.data.sum(axis=1)) == [1.0, 1.0, 2.0]


def test_permutation_definition():
    # new index perm[i] receives old node i
    g = graph_from_edges(3, [(0, 1)])
    perm = Permutation((1, 2, 0))
    out = permute_graph(g, perm)
    inv = np.argsort(perm.mapping)
    expect = g.adjacency.data[np.ix_(inv, inv)]
    np.testing.assert_array_equal(out.adjacency.data, expect)
    assert out.adjacency.data[1, 2] == 1.0  # the edge moved to (1, 2)


def test_permutation_matrix_action():
    g = _path3()
    perm = Permutation((2, 0, 1))
    pm = perm.matrix().data
    out = permute_graph(g, perm)
    np.testing.assert_allclose(out.adjacency.data, pm @ g.adjacency.data @ pm.T)


def test_permutation_rejects_non_bijection():
    with pytest.raises(DomainError):
        Permutation((0, 0, 1))


@pytest.mark.parametrize("mapping", [
    [1.7, 0.2],
    [True, False],
    [True, 0, 2],  # numpy would read this as the integers 1, 0, 2
    ["1", "0"],
    [[1], [0]],
    [[1, 0], [0]],
    1,
], ids=["float", "bool", "bool-among-ints", "numeric-string", "nested", "ragged", "scalar"])
def test_permutation_rejects_non_integers(mapping):
    with pytest.raises(DomainError):
        Permutation(mapping)


def test_permutation_accepts_numpy_integers():
    for a in (np.array([2, 0, 1]), np.array([2, 0, 1], dtype=np.uint8), [np.int64(1), np.int64(0)]):
        perm = Permutation(a)
        assert perm.mapping == tuple(int(i) for i in a)
        assert all(type(i) is int for i in perm.mapping)
    assert Permutation([]).mapping == ()


def test_random_permutation_n1():
    assert tuple(random_permutation(1, 0).mapping) == (0,)


def test_random_permutation_deterministic():
    assert tuple(random_permutation(8, 42).mapping) == tuple(random_permutation(8, 42).mapping)


def test_random_permutation_uniform():
    counts = {}
    for s in range(10_000):
        key = tuple(random_permutation(3, s).mapping)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for freq in counts.values():
        assert abs(freq / 10_000 - 1 / 6) < 0.02


def test_permute_size_mismatch():
    with pytest.raises(ShapeError):
        permute_graph(_path3(), Permutation((1, 0)))
    with pytest.raises(ShapeError):  # a padded graph takes a permutation of its real nodes
        permute_graph(pad_graph(_path3(), 5), random_permutation(5, 0))


def test_permute_padded_graph_keeps_padding_trailing():
    g = pad_graph(_path3(), 5)
    out = permute_graph(g, Permutation((2, 0, 1)))
    assert (out.n, out.n_real) == (5, 3)
    np.testing.assert_array_equal(out.adjacency.data[:3, :3],
                                  permute_graph(_path3(), Permutation((2, 0, 1))).adjacency.data)
    assert not out.adjacency.data[3:].any() and not out.features.data[3:].any()


# -- padding ------------------------------------------------------------------

def test_pad_to_current_size_unchanged():
    g = _triangle()
    out = pad_graph(g, 3)
    np.testing.assert_array_equal(out.adjacency.data, g.adjacency.data)


def test_pad_triangle_to_five():
    g = pad_graph(_triangle(), 5)
    assert g.n == 5 and g.n_real == 3
    np.testing.assert_array_equal(g.adjacency.data[:3, :3], _triangle().adjacency.data)
    assert (g.adjacency.data[3:, :] == 0).all()
    assert (g.features.data[3:, :] == 0).all()
    np.testing.assert_array_equal(make_batch([g], 2).stacks[0].mask,
                                  [[True, True, True, False, False]])


def test_pad_below_size_rejected():
    with pytest.raises(DomainError):
        pad_graph(pad_graph(_triangle(), 5), 4)


# -- batching -----------------------------------------------------------------

def test_batch_single_graph_one_hot():
    b = make_batch([_triangle()], class_count=2)
    np.testing.assert_array_equal(b.labels, [[1.0, 0.0]])


def test_batch_two_graphs_labels():
    g1 = graph_from_edges(3, [(0, 1)], label=1)
    g0 = graph_from_edges(3, [(0, 1)], label=0)
    b = make_batch([g1, g0], class_count=2)
    np.testing.assert_array_equal(b.labels, [[0.0, 1.0], [1.0, 0.0]])


def test_batch_pads_to_largest_size():
    # graphs of N = 3, 5 and 6 (one of them permuted after padding) fall
    # in the size classes 2, 3 and 3: two stacks, each padded to its own
    # largest N, that give each graph its own loss and prediction
    from pinet.model import PiNetConfig, init_params, loss_batch, predict_class, predict_classes

    moved = permute_graph(pad_graph(graph_from_edges(4, [(0, 1), (1, 3)]), 6),
                          Permutation((3, 0, 2, 1)))
    graphs = [_path3(), pad_graph(graph_from_edges(4, [(0, 1), (1, 2), (2, 3)], label=1), 5),
              moved]
    b = make_batch(graphs, class_count=2)
    assert len(b) == 3 and b.labels.shape == (3, 2) and len(b.stacks) == 2
    small, large = b.stacks
    assert small.rows.tolist() == [0] and large.rows.tolist() == [1, 2]
    assert small.adj.shape == (1, 3, 3) and small.x.shape == (3, 1) and small.mask.shape == (1, 3)
    assert large.adj.shape == (2, 6, 6) and large.x.shape == (12, 1) and large.mask.shape == (2, 6)
    for s in b.stacks:
        assert not any(a.flags.writeable for a in (b.labels, s.rows, s.adj, s.x, s.mask, s.deg))
    np.testing.assert_array_equal(small.mask, [[1, 1, 1]])
    np.testing.assert_array_equal(large.mask, [[1, 1, 1, 1, 0, 0], [1, 1, 1, 1, 0, 0]])
    for axis in ("nodes", "features"):
        params = init_params(PiNetConfig(d=1, C=2, F0=5, F1=4, attention_axis=axis, seed=2))
        singles = sum(loss_batch(make_batch([g], 2), params).item() for g in graphs)
        assert abs(loss_batch(b, params).item() - singles) <= 1e-9
        assert list(predict_classes(params, graphs)) == [predict_class(params, g) for g in graphs]


def test_batch_degrees_per_graph_zero_on_padding():
    # N = 3, 5 and 2 are three size classes: one stack each, smallest
    # class first, each graph's degrees in its own stack
    graphs = [_triangle(), pad_graph(graph_from_edges(4, [(0, 1), (1, 2)], label=1), 5),
              graph_from_edges(2, [])]
    b = make_batch(graphs, class_count=2)
    assert [s.rows.tolist() for s in b.stacks] == [[2], [0], [1]]
    for s in b.stacks:
        (g,) = (graphs[r] for r in s.rows)
        np.testing.assert_array_equal(s.deg, g.adjacency.data.sum(axis=1, keepdims=True))
    np.testing.assert_array_equal(np.concatenate([s.deg[:, 0] for s in b.stacks]),
                                  [0, 0, 2, 2, 2, 1, 2, 1, 0, 0])


def test_batch_one_size_class_is_one_stack():
    # N = 5 to 8 share a size class: one stack padded to 8, rows in input
    # order, laid out exactly as a single padded stack
    rng = np.random.default_rng(3)
    graphs = [pad_graph(graph_from_edges(n, [(0, 1), (1, n - 1)], label=n % 2,
                                         features=Mat(rng.normal(size=(n, 2)))), n + 2 * (n == 6))
              for n in (7, 5, 6, 8, 5)]
    b = make_batch(graphs, class_count=2)
    (s,) = b.stacks
    assert s.rows.tolist() == [0, 1, 2, 3, 4]
    adj, x, mask = np.zeros((5, 8, 8)), np.zeros((5, 8, 2)), np.zeros((5, 8), dtype=bool)
    for k, g in enumerate(graphs):
        adj[k, :g.n, :g.n] = g.adjacency.data
        x[k, :g.n] = g.features.data
        mask[k, :g.n_real] = True
    np.testing.assert_array_equal(s.adj, adj)
    np.testing.assert_array_equal(s.x, x.reshape(40, 2))
    np.testing.assert_array_equal(s.mask, mask)
    np.testing.assert_array_equal(s.deg, adj.sum(axis=2).reshape(-1, 1))
    np.testing.assert_array_equal(b.labels, np.eye(2)[[g.label for g in graphs]])


def test_batch_groups_by_stored_size():
    # the size class follows the stored N, padding included: a 3-node
    # graph padded to 8 stacks with the 8-node graph, not the 3-node one
    three, padded, eight = _triangle(), pad_graph(_path3(), 8), graph_from_edges(8, [(0, 7)])
    b = make_batch([three, padded, eight], class_count=1)
    assert [s.rows.tolist() for s in b.stacks] == [[0], [1, 2]]
    assert b.stacks[1].adj.shape == (2, 8, 8)
    np.testing.assert_array_equal(b.stacks[1].mask.sum(axis=1), [3, 8])


def _cross_validate_k(k):
    from pinet.model import PiNetConfig
    from pinet.train import TrainConfig, cross_validate

    graphs = [graph_from_edges(3, [(0, 1)], label=i % 2) for i in range(4)]
    return cross_validate(graphs, k, TrainConfig(epochs=1), PiNetConfig(d=1, C=2))


def _stratified_kfold_k(k):
    from pinet.train import stratified_kfold

    return stratified_kfold([0, 1, 0, 1], k, 0)


@pytest.mark.parametrize("call", [
    lambda: random_permutation(2.0, 0),
    lambda: random_permutation(True, 0),
    lambda: pad_graph(_triangle(), 5.0),
    lambda: _stratified_kfold_k(2.0),
    lambda: _cross_validate_k(2.0),
    lambda: make_batch([_triangle()], 2.0),
    lambda: make_batch([_triangle()], True),
], ids=["permutation-float-n", "permutation-bool-n", "pad-float-n_target",
        "kfold-float-k", "cross-validate-float-k", "batch-float-class_count",
        "batch-bool-class_count"])
def test_entry_point_counts_follow_the_integer_rule(call):
    with pytest.raises(DomainError):
        call()


def test_batch_requires_shared_width():
    wide = graph_from_edges(3, [(0, 1)], features=Mat(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        make_batch([_triangle(), wide], class_count=2)


def test_batch_label_range_checked():
    g = graph_from_edges(3, [(0, 1)], label=5)
    with pytest.raises(DomainError):
        make_batch([g], class_count=2)


def test_batch_rejects_empty():
    with pytest.raises(DomainError):
        make_batch([], class_count=2)
