"""Tests for the two-tower classifier.

The heart of the model is checked here: initialization bounds,
tower equivariance, attention normalization, end-to-end permutation
invariance, parameter gradients, and checkpoint round-trips.
"""

import math

import numpy as np
import pytest

from pinet.errors import DomainError, ShapeError
from pinet.graph import (
    graph_from_edges,
    make_batch,
    pad_graph,
    permute_graph,
    random_permutation,
)
from pinet.model import (
    PQ_NAMES,
    WEIGHT_NAMES,
    PiNetConfig,
    PiNetParams,
    clamp_pq,
    forward,
    forward_attention,
    forward_features,
    grads_batch,
    init_params,
    load_params,
    loss_batch,
    predict_class,
    save_params,
)
from pinet.tensor import Mat, grad_check


def _triangle(label=0):
    return graph_from_edges(3, [(0, 1), (1, 2), (0, 2)], label=label)


def _small_config(**kw):
    base = dict(d=1, C=2, F0=6, F1=4, seed=0)
    base.update(kw)
    return PiNetConfig(**base)


def _random_graph(rng, n, d=1, label=0, p_edge=0.5):
    while True:
        a = np.triu((rng.random((n, n)) < p_edge).astype(float), 1)
        a = a + a.T
        if a.sum() > 0:
            break
    edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(a, 1)))]
    feats = Mat(rng.random((n, d)))
    g = graph_from_edges(n, edges, label=label)
    from pinet.graph import LabeledGraph

    return LabeledGraph(n, g.adjacency, feats, label)


# -- config and initialization ------------------------------------------------

def test_config_validation():
    with pytest.raises(DomainError):
        _small_config(d=0)
    with pytest.raises(DomainError):
        _small_config(attention_axis="diagonal")
    with pytest.raises(DomainError):
        _small_config(pq_mode="annealed")
    with pytest.raises(DomainError):
        _small_config(pq_mode="fixed", fixed_p=1.5)


def test_init_learned_pq_is_half():
    params = init_params(_small_config())
    for name in PQ_NAMES:
        assert params[name].item() == 0.5


def test_init_fixed_pq():
    params = init_params(_small_config(pq_mode="fixed", fixed_p=1.0, fixed_q=0.0))
    for name, value in params.pq_pairs().items():
        assert value == (1.0 if name.startswith("p_") else 0.0)
    assert not params.pq_trainable


def test_init_deterministic():
    a = init_params(_small_config())
    b = init_params(_small_config())
    for name in WEIGHT_NAMES:
        np.testing.assert_array_equal(a[name].data, b[name].data)


def test_init_glorot_bound():
    params = init_params(PiNetConfig(d=7, C=2, F0=100, F1=64, seed=1))
    bound = math.sqrt(6.0 / (7 + 100))
    w = params["w_x0"].data
    assert abs(bound - 0.2368) < 5e-4  # the bound itself
    assert np.abs(w).max() <= bound
    # the draw should actually use the full range
    assert np.abs(w).max() > 0.8 * bound


def test_init_shapes():
    params = init_params(PiNetConfig(d=3, C=4, F0=10, F1=5, seed=0))
    assert params["w_x0"].shape == (3, 10)
    assert params["w_x1"].shape == (10, 5)
    assert params["w_a0"].shape == (3, 10)
    assert params["w_a1"].shape == (10, 5)
    assert params["w_d"].shape == (5 * 5, 4)


def test_trainables_follow_mode():
    learned = init_params(_small_config())
    assert set(learned.trainables()) == set(WEIGHT_NAMES) | set(PQ_NAMES)
    fixed = init_params(_small_config(pq_mode="fixed"))
    assert set(fixed.trainables()) == set(WEIGHT_NAMES)


def test_params_replaced_validates_names():
    params = init_params(_small_config())
    with pytest.raises(DomainError):
        params.replaced({"w_bogus": Mat.scalar(1.0)})


# -- feature tower ------------------------------------------------------------

def test_features_zero_input_zero_output():
    g = _triangle()
    from pinet.graph import LabeledGraph

    gz = LabeledGraph(3, g.adjacency, Mat.zeros(3, 1), 0)
    params = init_params(_small_config())
    out = forward_features(gz, params)
    np.testing.assert_array_equal(out.data, np.zeros((3, 4)))


def test_features_row_equivariance():
    rng = np.random.default_rng(0)
    g = _random_graph(rng, 7, d=2)
    params = init_params(_small_config(d=2))
    perm = random_permutation(7, 1)
    direct = forward_features(permute_graph(g, perm), params).data
    pm = perm.matrix().data
    np.testing.assert_allclose(direct, pm @ forward_features(g, params).data, atol=1e-10)


def test_features_hand_computed_path():
    # 3-path, d=1, 1x1 weights, fixed p=1 q=0: tower is relu(A relu(A x w0) w1)
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    params = init_params(
        PiNetConfig(d=1, C=2, F0=1, F1=1, pq_mode="fixed", fixed_p=1.0, fixed_q=0.0, seed=0)
    )
    params = params.replaced({"w_x0": Mat.scalar(2.0), "w_x1": Mat.scalar(-3.0)})
    a = g.adjacency.data
    x = np.ones((3, 1))
    expect = np.maximum(a @ np.maximum(a @ x * 2.0, 0.0) * -3.0, 0.0)
    np.testing.assert_allclose(forward_features(g, params).data, expect, atol=1e-12)


def test_features_feature_width_checked():
    params = init_params(_small_config(d=2))
    with pytest.raises(ShapeError):
        forward_features(_triangle(), params)


# -- attention tower ----------------------------------------------------------

def test_attention_rows_sum_to_one_over_real_nodes():
    rng = np.random.default_rng(2)
    g = pad_graph(_random_graph(rng, 5), 8)
    params = init_params(_small_config())
    out = forward_attention(g, params)
    assert out.shape == (4, 8)
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), atol=1e-12)
    assert (out.data[:, 5:] == 0.0).all()


def test_attention_uniform_on_vertex_transitive_graph():
    params = init_params(_small_config())
    out = forward_attention(_triangle(), params)
    np.testing.assert_allclose(out.data, np.full((4, 3), 1 / 3), atol=1e-12)


def test_attention_column_equivariance():
    rng = np.random.default_rng(3)
    g = _random_graph(rng, 6)
    params = init_params(_small_config())
    perm = random_permutation(6, 7)
    direct = forward_attention(permute_graph(g, perm), params).data
    pm = perm.matrix().data
    np.testing.assert_allclose(direct, forward_attention(g, params).data @ pm.T, atol=1e-10)


def test_attention_feature_axis_normalizes_per_node():
    rng = np.random.default_rng(4)
    g = _random_graph(rng, 5)
    params = init_params(_small_config(attention_axis="features"))
    out = forward_attention(g, params)
    # each real node's feature scores form a distribution
    np.testing.assert_allclose(out.data.sum(axis=0), np.ones(5), atol=1e-12)


# -- full forward -------------------------------------------------------------

def test_forward_is_probability_vector():
    rng = np.random.default_rng(5)
    g = _random_graph(rng, 6)
    params = init_params(_small_config(C=3))
    out = forward(g, params)
    assert out.shape == (1, 3)
    assert (out.data > 0).all()
    assert math.isclose(out.data.sum(), 1.0, abs_tol=1e-12)


def test_forward_invariant_under_permutation():
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = int(rng.integers(2, 12))
        g = _random_graph(rng, n, d=int(rng.integers(1, 3)))
        params = init_params(_small_config(d=g.d, C=3, seed=trial))
        perm = random_permutation(n, int(rng.integers(0, 2**31)))
        base = forward(g, params).data
        moved = forward(permute_graph(g, perm), params).data
        assert np.abs(base - moved).max() <= 1e-9


def test_forward_zero_dense_weights_uniform():
    g = _random_graph(np.random.default_rng(7), 4)
    params = init_params(_small_config(C=2))
    params = params.replaced({"w_d": Mat.zeros(16, 2)})
    np.testing.assert_allclose(forward(g, params).data, [[0.5, 0.5]], atol=1e-12)


def test_predict_class_argmax():
    g = _random_graph(np.random.default_rng(8), 5)
    params = init_params(_small_config(C=3))
    probs = forward(g, params).data
    assert predict_class(params, g) == int(np.argmax(probs))


# -- loss ---------------------------------------------------------------------

def test_loss_batch_additive():
    rng = np.random.default_rng(9)
    graphs = [_random_graph(rng, 5, label=i % 2) for i in range(4)]
    params = init_params(_small_config(C=2))
    total = loss_batch(make_batch(graphs, 2), params).item()
    singles = sum(loss_batch(make_batch([g], 2), params).item() for g in graphs)
    assert math.isclose(total, singles, abs_tol=1e-10)


def test_loss_batch_equals_per_graph_log_probs():
    # one stacked pass over graphs of different real sizes, padded to a
    # shared N, against one forward per graph
    rng = np.random.default_rng(13)
    for axis in ("nodes", "features"):
        graphs = [pad_graph(_random_graph(rng, n, d=2, label=n % 3), 9) for n in (3, 9, 5, 7)]
        params = init_params(_small_config(d=2, C=3, attention_axis=axis, seed=4))
        params = params.replaced({k: Mat.scalar(rng.uniform()) for k in PQ_NAMES})
        total = loss_batch(make_batch(graphs, 3), params).item()
        singles = sum(-math.log(forward(g, params).data[0, g.label]) for g in graphs)
        assert math.isclose(total, singles, rel_tol=1e-12, abs_tol=1e-12)


def test_loss_uniform_prediction_value():
    g = _random_graph(np.random.default_rng(10), 4, label=1)
    params = init_params(_small_config(C=2))
    params = params.replaced({"w_d": Mat.zeros(16, 2)})
    batch = make_batch([g] * 10, 2)
    assert math.isclose(loss_batch(batch, params).item(), 10 * math.log(2), rel_tol=1e-12)


# -- gradients through the model ----------------------------------------------

def test_model_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    graphs = [_random_graph(rng, 6, label=i % 2) for i in range(2)]
    batch = make_batch(graphs, 2)
    params = init_params(PiNetConfig(d=1, C=2, F0=5, F1=4, seed=3))
    # move pq off the boundary-free default to a generic interior point
    params = params.replaced({k: Mat.scalar(0.2 + 0.07 * i) for i, k in enumerate(PQ_NAMES)})

    def f(leaves):
        return loss_batch(batch, params.replaced(dict(leaves)))

    report = grad_check(f, params.trainables(), step=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]


def test_pq_gradients_flow():
    g = _random_graph(np.random.default_rng(12), 5, label=1)
    params = init_params(_small_config(C=2))
    loss, grads = grads_batch(make_batch([g], 2), params)
    assert math.isfinite(loss)
    for name in PQ_NAMES:
        assert name in grads


# -- clamping and checkpoints -------------------------------------------------

def test_clamp_pq_projects():
    params = init_params(_small_config())
    params = params.replaced({"p_x0": Mat.scalar(1.3), "q_a1": Mat.scalar(-0.2)})
    out = clamp_pq(params)
    assert out["p_x0"].item() == 1.0
    assert out["q_a1"].item() == 0.0
    assert out["p_x1"].item() == 0.5  # untouched


def test_checkpoint_round_trip(tmp_path):
    params = init_params(_small_config(C=3))
    params = params.replaced({"p_x0": Mat.scalar(0.123456789)})
    path = tmp_path / "params.json"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.config == params.config
    for name in WEIGHT_NAMES + PQ_NAMES:
        np.testing.assert_array_equal(loaded[name].data, params[name].data)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    from pinet.errors import DataFormatError

    with pytest.raises(DataFormatError):
        load_params(path)
