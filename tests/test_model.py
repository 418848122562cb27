"""Tests for the two-tower classifier.

The heart of the model is checked here: initialization bounds,
tower equivariance, attention normalization, end-to-end permutation
invariance, parameter gradients, and checkpoint round-trips.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from pinet import model
from pinet.errors import DomainError, ShapeError, TapeError
from pinet.graph import (
    CORNERS,
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
    _tower,
    clamp_pq,
    forward,
    forward_attention,
    forward_features,
    grads_batch,
    init_params,
    load_params,
    loss_batch,
    predict_class,
    predict_classes,
    save_params,
)
from pinet.tensor import Mat, Tape, attention_pool, backward, grad_check, propagate


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


@pytest.mark.parametrize("field, value", [
    ("d", 1.0), ("C", True), ("F0", "8"), ("F1", 2.5), ("seed", -1), ("seed", 1.5),
    ("fixed_p", "x"), ("fixed_p", True), ("fixed_q", "0.5"), ("fixed_q", float("nan")),
])
def test_config_type_checks(field, value):
    with pytest.raises(DomainError, match=field):
        _small_config(**{field: value})


def test_config_accepts_numpy_integers(tmp_path):
    config = _small_config(d=np.int64(1), C=np.int32(3), seed=np.uint16(4))
    assert (type(config.d), type(config.C), type(config.seed)) == (int, int, int)
    save_params(init_params(config), tmp_path / "params.json")  # JSON needs Python ints
    assert load_params(tmp_path / "params.json").config == config


def test_config_stores_numpy_floats_as_floats():
    config = _small_config(pq_mode="fixed", fixed_p=np.float32(0.5), fixed_q=np.float64(1.0))
    assert (type(config.fixed_p), type(config.fixed_q)) == (float, float)
    assert (config.fixed_p, config.fixed_q) == (0.5, 1.0)


def test_weight_shapes_follow_the_config():
    config = _small_config(d=2, C=3)
    assert config.weight_shapes() == {
        "w_x0": (2, 6), "w_x1": (6, 4), "w_a0": (2, 6), "w_a1": (6, 4), "w_d": (16, 3)}
    params = init_params(config)
    assert list(config.weight_shapes()) == list(WEIGHT_NAMES)
    assert all(params[k].shape == s for k, s in config.weight_shapes().items())


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

    gz = LabeledGraph(3, g.adjacency, Mat(np.zeros((3, 1))), 0)
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
    # padded graphs too: the real nodes are relabelled, the padding trails
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = int(rng.integers(2, 12))
        g = pad_graph(_random_graph(rng, n, d=int(rng.integers(1, 3))), n + trial % 4)
        params = init_params(_small_config(d=g.d, C=3, seed=trial))
        perm = random_permutation(n, int(rng.integers(0, 2**31)))
        base = forward(g, params).data
        moved = forward(permute_graph(g, perm), params).data
        assert np.abs(base - moved).max() <= 1e-9


def test_forward_zero_dense_weights_uniform():
    g = _random_graph(np.random.default_rng(7), 4)
    params = init_params(_small_config(C=2))
    params = params.replaced({"w_d": Mat(np.zeros((16, 2)))})
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
    params = params.replaced({"w_d": Mat(np.zeros((16, 2)))})
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

    report = grad_check(lambda p: loss_batch(batch, params.replaced(p)).item(),
                        grads_batch(batch, params)[1], params.trainables(), step=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]


def test_pq_gradients_flow():
    g = _random_graph(np.random.default_rng(12), 5, label=1)
    params = init_params(_small_config(C=2))
    loss, grads = grads_batch(make_batch([g], 2), params)
    assert math.isfinite(loss)
    for name in PQ_NAMES:
        assert name in grads


# -- the rank-2 first layer ---------------------------------------------------

def _dense_tower(stack, values, kind, grads):
    """The reference tower: relu(At0 X W0) W1 built as a (B*N) x F0
    stack, whatever the input width."""
    w0, w1 = values[f"w_{kind}0"].data, values[f"w_{kind}1"].data
    u, vjp0 = propagate(stack, stack.x, values[f"p_{kind}0"], values[f"q_{kind}0"])
    h = np.maximum(u @ w0, 0.0)
    out, vjp1 = propagate(stack, h @ w1, values[f"p_{kind}1"], values[f"q_{kind}1"])
    top = np.maximum(out, 0.0) if kind == "x" else out

    def vjp(g):
        g = g * (top > 0) if kind == "x" else g
        g, gp1, gq1 = vjp1(g, True)
        gh = (g @ w1.T) * (h > 0)
        _, gp0, gq0 = vjp0(gh @ w0.T, True)
        got = {f"w_{kind}0": u.T @ gh, f"w_{kind}1": h.T @ g, f"p_{kind}0": gp0,
               f"q_{kind}0": gq0, f"p_{kind}1": gp1, f"q_{kind}1": gq1}
        return {k: v for k, v in got.items() if k in grads or k.startswith("w")}

    return top, vjp


def _close(a, b, tol=1e-12):
    return np.abs(a - b).max() <= tol * max(1.0, np.abs(b).max())


def _signed_stack(d, seed=21):
    """Graphs of 3 to 9 nodes, padded to 9, with features of both signs,
    so that At0 X holds positive, negative and (padded) zero entries."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i, n in enumerate((3, 9, 5, 7, 4)):
        g = _random_graph(rng, n, label=i % 2)
        graphs.append(pad_graph(replace(g, features=Mat(rng.normal(size=(n, d)))), 9))
    return make_batch(graphs, 2)


_PQ_POINTS = [*CORNERS, (0.3, 0.8), (0.65, 0.15)]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", ["x", "a"])
@pytest.mark.parametrize("pq", _PQ_POINTS, ids=str)
def test_tower_matches_dense_reference(d, kind, pq):
    (stack,) = _signed_stack(d).stacks
    params = init_params(_small_config(d=d, F0=7, F1=5, seed=4))
    values = params.replaced({k: Mat.scalar(pq[0] if k[0] == "p" else pq[1])
                              for k in PQ_NAMES}).values
    grads = tuple(params.trainables())
    top, vjp = _tower(stack, values, kind, grads)
    ref_top, ref_vjp = _dense_tower(stack, values, kind, grads)
    assert _close(top, ref_top)
    g = np.random.default_rng(5).normal(size=top.shape)
    got, ref = vjp(g.copy()), ref_vjp(g.copy())
    assert sorted(got) == sorted(ref) and len(got) == 6
    for k in ref:
        assert _close(got[k], ref[k]), k


@pytest.mark.parametrize("pq_mode", ["learned", "fixed"])
@pytest.mark.parametrize("axis", ["nodes", "features"])
def test_model_gradients_match_dense_towers(monkeypatch, pq_mode, axis):
    # the whole step, every trainable, with both towers on either path
    batch = _signed_stack(1, seed=22)
    params = init_params(_small_config(F0=7, F1=5, attention_axis=axis, pq_mode=pq_mode,
                                       fixed_p=0.4, fixed_q=0.9, seed=6))
    if pq_mode == "learned":
        params = params.replaced({k: Mat.scalar(0.15 + 0.1 * i) for i, k in enumerate(PQ_NAMES)})
    loss, grads = grads_batch(batch, params)
    monkeypatch.setattr(model, "_tower", _dense_tower)
    ref_loss, ref_grads = grads_batch(batch, params)
    assert math.isclose(loss, ref_loss, rel_tol=1e-12)
    assert list(grads) == list(ref_grads) == list(params.trainables())
    for k in grads:
        assert _close(grads[k].data, ref_grads[k].data), k


@pytest.mark.parametrize("d, not_taken", [(1, "_dense_layer"), (2, "_rank2_layer")])
def test_first_layer_path_follows_input_width(monkeypatch, d, not_taken):
    batch = _signed_stack(d)
    params = init_params(_small_config(d=d, F0=7, F1=5))
    monkeypatch.setattr(model, not_taken, lambda *a: pytest.fail(f"{not_taken} was called"))
    grads_batch(batch, params)


def test_rank2_layer_keeps_padded_rows_zero():
    rng = np.random.default_rng(23)
    g = pad_graph(graph_from_edges(4, [(0, 1), (1, 2), (2, 3)], 0,
                                   Mat(rng.normal(size=(4, 1)))), 7)
    for pq in _PQ_POINTS:
        params = init_params(_small_config(pq_mode="fixed", fixed_p=pq[0], fixed_q=pq[1]))
        out = forward_features(g, params).data
        assert np.all(out[4:] == 0.0) and np.any(out[:4] != 0.0)


# -- stacks per size class ----------------------------------------------------

def _mixed_sizes(d, seed=31):
    """Graphs of 2 to 17 nodes in five size classes, shuffled, with
    features of both signs, and a few padded by the caller."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i, n in enumerate(rng.permutation([2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 6, 3])):
        g = _random_graph(rng, int(n), d=d, label=i % 3)
        g = replace(g, features=Mat(rng.normal(size=(g.n, d))))
        graphs.append(pad_graph(g, g.n + int(rng.integers(0, 3)) * (i % 4 == 0)))
    return graphs


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("pq_mode", ["learned", "fixed"])
@pytest.mark.parametrize("axis", ["nodes", "features"])
def test_size_class_stacks_match_one_padded_stack(d, pq_mode, axis):
    # the same graphs padded to one size form today's single stack; the
    # stacks per size class give its loss and every gradient to 1e-12,
    # on either first layer (d = 1: `_rank2_layer`, d = 3: `_dense_layer`)
    graphs = _mixed_sizes(d)
    batch = make_batch(graphs, 3)
    n = max(g.n for g in graphs)
    one = make_batch([pad_graph(g, n) for g in graphs], 3)
    assert len(batch.stacks) >= 3 and len(one.stacks) == 1
    params = init_params(_small_config(d=d, C=3, F0=7, F1=5, attention_axis=axis,
                                       pq_mode=pq_mode, fixed_p=0.4, fixed_q=0.7, seed=8))
    if pq_mode == "learned":
        params = params.replaced({k: Mat.scalar(0.15 + 0.1 * i) for i, k in enumerate(PQ_NAMES)})
    loss, grads = grads_batch(batch, params)
    ref_loss, ref_grads = grads_batch(one, params)
    assert _close(np.array(loss), np.array(ref_loss))
    assert _close(np.array(loss_batch(batch, params).item()), np.array(ref_loss))
    assert list(grads) == list(ref_grads) == list(params.trainables())
    for k in grads:
        assert _close(grads[k].data, ref_grads[k].data), k


def test_predictions_keep_input_order():
    from pinet.train import evaluate

    graphs = _mixed_sizes(2, seed=32)
    params = init_params(_small_config(d=2, C=3, F0=7, F1=5, seed=9))
    assert len(make_batch(graphs, 3).stacks) >= 3
    singles = [predict_class(params, g) for g in graphs]
    assert len(set(singles)) > 1
    assert predict_classes(params, graphs).tolist() == singles
    hits = [c == g.label for c, g in zip(singles, graphs)]
    assert evaluate(params, graphs) == sum(hits) / len(graphs)
    assert evaluate(params, graphs[::-1]) == sum(hits) / len(graphs)


def _one_stack_step(stack, labels, params):
    """Loss and gradients of one stack written as a single readout over
    it, with no rows gathered or scattered."""
    values, grads = params.values, tuple(params.trainables())
    z, vjp_x = _tower(stack, values, "x", grads)
    pre, vjp_a = _tower(stack, values, "a", grads)
    pooled, vjp_pool = attention_pool(stack, pre, z, params.config.attention_axis)
    wd = values["w_d"].data
    logits = pooled @ wd
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    zc = np.maximum(probs, model.CROSS_ENTROPY_EPS)
    loss = -(labels * np.log(zc)).sum()
    g = np.where(probs >= model.CROSS_ENTROPY_EPS, -labels / zc, 0.0)
    g = probs * (g - (g * probs).sum(axis=1, keepdims=True))
    got = {"w_d": pooled.T @ g}
    gpre, gz = vjp_pool(g @ wd.T)
    got.update(vjp_a(gpre))
    got.update(vjp_x(gz))
    return loss, got


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("axis", ["nodes", "features"])
def test_one_size_class_is_the_single_stack_step(d, axis):
    # graphs of 9 to 16 nodes, some padded by the caller, share a size
    # class: one stack, and the step is bit for bit a single readout over it
    rng = np.random.default_rng(33)
    graphs = [pad_graph(_random_graph(rng, n, d=d, label=n % 2), max(n, 11))
              for n in (9, 16, 12, 10, 14)]
    batch = make_batch(graphs, 2)
    (stack,) = batch.stacks
    params = init_params(_small_config(d=d, F0=7, F1=5, attention_axis=axis, seed=10))
    loss, grads = grads_batch(batch, params)
    ref_loss, ref_grads = _one_stack_step(stack, batch.labels, params)
    assert loss == ref_loss
    for k in grads:
        np.testing.assert_array_equal(grads[k].data, ref_grads[k])


# -- the tape adapter ---------------------------------------------------------

def _tape_grads(batch, params):
    """One step as a caller of the tape drives it: leaves, `loss_batch`,
    `backward`."""
    tape = Tape()
    tracked = {k: tape.leaf(v, k) for k, v in params.trainables().items()}
    loss = loss_batch(batch, params.replaced(tracked))
    return loss.item(), backward(tape, loss)


def test_tape_step_equals_grads_batch():
    rng = np.random.default_rng(14)
    graphs = [pad_graph(_random_graph(rng, n, label=n % 2), 8) for n in (3, 8, 6)]
    batch = make_batch(graphs, 2)
    for mode in ("learned", "fixed"):
        for axis in ("nodes", "features"):
            params = init_params(_small_config(pq_mode=mode, attention_axis=axis, seed=2))
            loss, grads = grads_batch(batch, params)
            tape_loss, tape_grads = _tape_grads(batch, params)
            assert tape_loss == loss
            assert list(tape_grads) == list(grads) == list(params.trainables())
            for k in grads:
                np.testing.assert_array_equal(tape_grads[k].data, grads[k].data)


def test_tape_errors():
    batch, params = make_batch([_triangle()], 2), init_params(_small_config())
    t1, t2 = Tape(), Tape()
    mixed = params.replaced({"w_x0": t1.leaf(params["w_x0"], "w_x0"),
                             "p_a1": t2.leaf(params["p_a1"], "p_a1")})
    with pytest.raises(TapeError):
        loss_batch(batch, mixed)
    tracked = params.replaced({"w_d": t1.leaf(params["w_d"], "w_d")})
    for not_from_t1 in (loss_batch(batch, params), Mat.scalar(1.0)):
        with pytest.raises(TapeError):
            backward(t1, not_from_t1)
    loss_batch(batch, tracked)
    with pytest.raises(TapeError):  # recorded, but another loss
        backward(t1, loss_batch(batch, params))


def test_steps_leave_no_cycles():
    # a tape keeps names, not leaves, so a dropped step is freed by
    # reference counting and the cyclic collector finds nothing
    import gc

    rng = np.random.default_rng(15)
    graphs = [_random_graph(rng, 6, label=i % 2) for i in range(4)]
    batch = make_batch(graphs, 2)
    params = init_params(_small_config())
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            _tape_grads(batch, params)
        grads_batch(batch, params)
        predict_classes(params, graphs)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    import json

    from pinet.errors import DataFormatError

    good = tmp_path / "good.json"
    save_params(init_params(_small_config(C=3)), good)

    def edited(change):
        doc = json.loads(good.read_text())
        change(doc)
        return doc

    cases = {
        "format": {"format": "something-else"},
        "not an object": [1, 2],
        "config": edited(lambda doc: doc.pop("config")),
        "config unknown key": edited(lambda doc: doc["config"].update(depth=2)),
        "config type": edited(lambda doc: doc["config"].update(F0="x")),
        "weights.w_x0": edited(lambda doc: doc["config"].update(d=3)),  # w_x0 stays 1x6
        "weights.w_d": edited(lambda doc: doc["weights"]["w_d"]["data"].pop()),
        "weights.w_a1": edited(lambda doc: doc["weights"].pop("w_a1")),
        "pq.p_x0": edited(lambda doc: doc["pq"].update(p_x0=7.0)),
        "pq.q_a1": edited(lambda doc: doc["pq"].update(q_a1="half")),
        "pq.p_x1 bool": edited(lambda doc: doc["pq"].update(p_x1=True)),
        "weights.w_x0 quoted": edited(lambda doc: doc["weights"]["w_x0"].update(
            data=[str(x) for x in doc["weights"]["w_x0"]["data"]])),
        "weights.w_a0 bool": edited(lambda doc: doc["weights"]["w_a0"].update(
            data=[x > 0 for x in doc["weights"]["w_a0"]["data"]])),
        "config fixed_p bool": edited(lambda doc: doc["config"].update(fixed_p=True)),
    }
    for case, doc in cases.items():
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError) as err:
            load_params(path)
        assert err.value.path == str(path), case
        assert case.split()[0] in str(err.value) or case == "not an object", case
    (tmp_path / "bad.json").write_text("{oops")
    with pytest.raises(DataFormatError):
        load_params(tmp_path / "bad.json")


@pytest.mark.parametrize("seed", [1.5, -3, True])
def test_checkpoint_rejects_bad_seed(tmp_path, seed):
    import json

    from pinet.errors import DataFormatError

    path = tmp_path / "params.json"
    save_params(init_params(_small_config()), path)
    doc = json.loads(path.read_text())
    doc["config"]["seed"] = seed
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="'config'") as err:
        load_params(path)
    assert err.value.path == str(path)
