"""Tests for the matrix type, the fused ops and the model's gradient chain.

Covers `Mat`'s data rule, `propagate` and `attention_pool` with their
VJPs, the products, relu, softmax and clamped cross-entropy that the
model composes around them, the `Tape`/`backward` adapter over that
chain, and `grad_check` itself.
"""

import itertools
import math

import numpy as np
import pytest

from pinet import model
from pinet.errors import DomainError, NumericalError, ShapeError, TapeError
from pinet.graph import LabeledGraph, graph_from_edges, make_batch, pad_graph, propagation_matrix
from pinet.model import PiNetConfig, forward, grads_batch, init_params, loss_batch
from pinet.tensor import (
    Mat,
    Tape,
    attention_pool,
    attention_softmax,
    backward,
    Workspace,
    grad_check,
    propagate,
)


def _close(m: Mat, expected, tol=1e-12):
    np.testing.assert_allclose(m.data, np.asarray(expected, dtype=float), atol=tol)


def _triangle(label=0, features=None):
    return graph_from_edges(3, [(0, 1), (1, 2), (0, 2)], label=label, features=features)


def _star(label=0):
    """A 5-node star with distinct features: no two nodes alike."""
    x = Mat(np.array([[0.3], [1.1], [-0.7], [0.4], [2.0]]))
    return graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)], label=label, features=x)


def _params(C=2, F0=4, F1=3, **kw):
    return init_params(PiNetConfig(d=1, C=C, F0=F0, F1=F1, seed=1, **kw))


def _tape_step(batch, params):
    tape = Tape()
    tracked = {k: tape.leaf(v, k) for k, v in params.trainables().items()}
    loss = loss_batch(batch, params.replaced(tracked))
    return tape, loss, tracked


# -- Mat basics ---------------------------------------------------------------

def test_mat_shape_and_data():
    m = Mat([[1.0, 2.0], [3.0, 4.0]])
    assert m.shape == (2, 2)
    assert m.rows == 2 and m.cols == 2
    _close(m, [[1, 2], [3, 4]])


def test_mat_copies_input():
    src = np.ones((2, 2))
    m = Mat(src)
    src[0, 0] = 99.0
    assert m.data[0, 0] == 1.0


def test_mat_data_read_only():
    m = Mat(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        m.data[0, 0] = 1.0


def test_mat_rejects_non_finite():
    with pytest.raises(DomainError):
        Mat([[np.nan]])
    with pytest.raises(DomainError):
        Mat([[np.inf, 0.0]])


def test_mat_promotes_low_rank_and_rejects_high():
    assert Mat(np.zeros(3)).shape == (1, 3)   # 1-D becomes a row
    assert Mat(2.5).shape == (1, 1)
    with pytest.raises(ShapeError):
        Mat(np.zeros((2, 2, 2)))


def test_mat_constructors():
    _close(Mat(np.zeros((2, 3))), np.zeros((2, 3)))
    s = Mat.scalar(2.5)
    assert s.shape == (1, 1) and s.item() == 2.5


# -- the chain's products -----------------------------------------------------

def test_matmul_identity():
    # on an edgeless stack At(1, 1) = I, so propagate and its vjp both
    # return their argument unchanged
    (stack,) = make_batch([graph_from_edges(3, [])], 1).stacks
    h = np.random.default_rng(0).normal(size=(3, 4))
    out, vjp = propagate(stack, h, 1.0, 1.0, Workspace(), "out")
    np.testing.assert_array_equal(out, h)
    np.testing.assert_array_equal(vjp(h, False)[0], h)


def test_matmul_zero():
    # a zero first layer zeroes the features tower, the pooled rows and so
    # the gradients that flow through them
    params = _params()
    params = params.replaced({"w_x0": Mat(np.zeros((1, 4)))})
    np.testing.assert_array_equal(model.forward_features(_star(), params).data, np.zeros((5, 3)))
    _, grads = grads_batch(make_batch([_star(1)], 2), params)
    for name in ("w_x1", "w_d"):
        np.testing.assert_array_equal(grads[name].data, np.zeros(params[name].shape))


def test_matmul_hand_product():
    # the chain's probabilities against a plain numpy composition built
    # from the reference At(p, q)
    g = _star()
    for axis in ("nodes", "features"):
        params = _params(C=3, attention_axis=axis)
        params = params.replaced({k: Mat.scalar(v)
                                  for k, v in zip(model.PQ_NAMES, np.linspace(0.1, 0.9, 8))})
        v = {k: params[k].data for k in params.values}

        def at(name):
            return propagation_matrix(g.adjacency, v[f"p_{name}"], v[f"q_{name}"]).data

        x = g.features.data
        z = np.maximum(at("x1") @ np.maximum(at("x0") @ x @ v["w_x0"], 0) @ v["w_x1"], 0)
        pre = at("a1") @ np.maximum(at("a0") @ x @ v["w_a0"], 0) @ v["w_a1"]
        ax = 0 if axis == "nodes" else 1
        att = np.exp(pre - pre.max(axis=ax, keepdims=True))
        att /= att.sum(axis=ax, keepdims=True)
        logits = (att.T @ z).reshape(1, -1) @ v["w_d"]
        want = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(forward(g, params).data, want, rtol=1e-12, atol=1e-14)


def test_matmul_shape_mismatch():
    # the one inner-dimension check: a graph of the wrong feature width
    # fails with ShapeError on every forward path
    params = init_params(PiNetConfig(d=2, C=2, F0=4, F1=3))
    g = _triangle()
    batch = make_batch([g], 2)
    for run in (lambda: forward(g, params), lambda: model.forward_attention(g, params),
                lambda: model.predict_classes(params, [g]), lambda: loss_batch(batch, params),
                lambda: grads_batch(batch, params)):
        with pytest.raises(ShapeError):
            run()


def test_relu_values():
    # with the attention tower's weights and p, q set to the features
    # tower's, the features tower is exactly the relu of the attention one
    params = _params(F1=5)
    params = params.replaced({k.replace("_x", "_a"): params[k] for k in params.values if "_x" in k})
    (stack,) = make_batch([_star()], 2).stacks
    z = model._tower(stack, params.values, "x", (), Workspace(), ())[0]
    pre = model._tower(stack, params.values, "a", (), Workspace(), ())[0]
    assert (pre < 0).any() and (pre > 0).any()
    np.testing.assert_array_equal(z, np.maximum(pre, 0.0))


# -- softmax ------------------------------------------------------------------

def test_softmax_uniform_row():
    params = _params(C=3)
    params = params.replaced({"w_d": Mat(np.zeros((9, 3)))})
    _close(forward(_star(), params), [[1 / 3, 1 / 3, 1 / 3]])
    assert model.predict_classes(params, [_star(), _triangle()]).tolist() == [0, 0]


def test_softmax_shift_invariance():
    # adding c to every entry of w_d shifts each logit row by
    # c * sum(pooled row), the same for every class
    params = _params(C=4)
    shifted = params.replaced({"w_d": Mat(params["w_d"].data + 17.5)})
    np.testing.assert_allclose(forward(_star(), params).data, forward(_star(), shifted).data,
                               rtol=1e-9, atol=1e-12)


def test_softmax_extreme_values_stay_finite():
    params = _params(C=3)
    params = params.replaced({"w_d": Mat(params["w_d"].data * 1e4)})
    out = forward(_star(), params)
    assert np.isfinite(out.data).all() and (out.data < 1e-100).any()
    np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-12)
    loss, grads = grads_batch(make_batch([_star(0), _star(1)], 3), params)
    assert math.isfinite(loss) and all(np.isfinite(g.data).all() for g in grads.values())


# -- attention ----------------------------------------------------------------

def test_attention_softmax_masked_tail():
    pre = np.array([5.0, 5.0, 5.0, 123.0]).reshape(1, 4, 1)
    out = attention_softmax(pre, np.array([[True, True, True, False]]), "nodes", Workspace(), "att")
    np.testing.assert_allclose(out[0, :, 0], [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-12)
    assert out[0, 3, 0] == 0.0  # exactly zero, not merely small


def test_attention_softmax_sums_to_one_under_mask():
    rng = np.random.default_rng(4)
    pre = rng.normal(size=(2, 7, 5))
    mask = np.array([[True, True, False, True, False, True, True],
                     [False, True, True, True, True, True, False]])
    nodes = attention_softmax(pre, mask, "nodes", Workspace(), "att")  # each column over real nodes
    np.testing.assert_allclose(nodes.sum(axis=1), np.ones((2, 5)), atol=1e-12)
    # each real row over features
    feats = attention_softmax(pre, mask, "features", Workspace(), "att")
    np.testing.assert_allclose(feats.sum(axis=2), mask.astype(float), atol=1e-12)
    for out in (nodes, feats):
        assert (out[~mask] == 0.0).all()


# -- stacked message passing and attention pooling -----------------------------

def _path_stacks():
    """A path 0-1 of N = 3 and an empty graph of N = 2 from `make_batch`:
    two size classes, so two stacks, smallest first."""
    return make_batch([graph_from_edges(3, [(0, 1)]), graph_from_edges(2, [])], 1).stacks


def test_propagate_rejects_bad_stacks():
    # each stack takes exactly its own B*N rows: the batch's 5 rows fit
    # neither of its stacks
    empty, path = _path_stacks()
    assert (empty.rows.tolist(), path.rows.tolist()) == ([1], [0])
    for stack, rows in ((empty, 2), (path, 3)):
        out = propagate(stack, np.ones((rows, 2)), 0.5, 0.5, Workspace(), "out")[0]
        assert out.shape == (rows, 2)
        with pytest.raises(ShapeError):
            propagate(stack, np.ones((5, 2)), 0.5, 0.5, Workspace(), "out")
        with pytest.raises(DomainError):
            propagate(stack, np.ones((rows, 2)), 1.5, 0.5, Workspace(), "out")
        with pytest.raises(DomainError):
            propagate(stack, np.ones((rows, 2)), 0.5, -0.5, Workspace(), "out")


def test_propagate_checks_matrix_pq_by_value():
    _, path = _path_stacks()
    h = np.ones((3, 2))
    with pytest.raises(DomainError):
        propagate(path, h, Mat.scalar(2.0), Mat.scalar(-1.0), Workspace(), "out")
    tape = Tape()
    with pytest.raises(DomainError):
        propagate(path, h, tape.leaf(Mat.scalar(1.5), "p"), 0.5, Workspace(), "out")
    out = propagate(path, h, tape.leaf(Mat.scalar(0.5), "p2"), tape.leaf(Mat.scalar(0.5), "q2"),
                    Workspace(), "out")[0]
    np.testing.assert_array_equal(out, propagate(path, h, 0.5, 0.5, Workspace(), "out")[0])


@pytest.mark.parametrize("data", [
    [[True]], [[1.0, True]], [[np.True_, 2]], [["1.0"]], "0.5", [[1j]], [[None]], [[{}]],
    [[10**400]], [[1.0], [1.0, 2.0]],
], ids=["bool", "bool-among-floats", "numpy-bool-among-ints", "quoted", "string", "complex",
        "none", "object", "huge-int", "ragged"])
def test_mat_accepts_only_real_numbers(data):
    with pytest.raises(DomainError):
        Mat(data)


@pytest.mark.parametrize("x", ["0.25", True, np.True_, 0.5j, None])
def test_mat_scalar_accepts_only_real_numbers(x):
    with pytest.raises(DomainError):
        Mat.scalar(x)


def test_mat_takes_numpy_reals_as_float64():
    m = Mat([[np.float32(0.5), np.int64(2), np.uint8(3)]])
    assert m.data.dtype == np.float64 and m.data.tolist() == [[0.5, 2.0, 3.0]]
    x = Mat.scalar(np.float64(0.25)).item()
    assert type(x) is float and x == 0.25


def test_non_finite_result_is_a_numerical_error():
    # non-finite data put into a Mat is bad input; a product, a
    # propagation or a gradient that overflows on finite operands is a
    # failure of the computation
    with pytest.raises(DomainError):
        Mat([[np.inf]])
    with pytest.raises(DomainError):
        Mat.scalar(float("nan"))
    big = np.full((3, 1), 1e308)
    config = PiNetConfig(d=1, C=2, F0=1, F1=1, pq_mode="fixed", fixed_p=0.0, fixed_q=0.0)
    ones = {k: Mat.scalar(1.0) for k in ("w_x0", "w_x1", "w_a0", "w_a1")}
    params = init_params(config).replaced({**ones, "w_d": Mat([[1e-308, 0.0]])})
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError):  # (A + I) 1e308 on a triangle
            propagate(make_batch([_triangle()], 1).stacks[0], big, 1.0, 1.0, Workspace(), "out")
        with pytest.raises(NumericalError):  # 1e308 * 2 in the first product
            forward(_triangle(features=Mat(big)), params.replaced({"w_x0": Mat.scalar(2.0)}))
        # finite forward, overflowing gradient: pooled rows of 1e308 summed
        # over three graphs for w_d
        batch = make_batch([_triangle(label=1, features=Mat(big))] * 3, 2)
        assert math.isfinite(loss_batch(batch, params).item())
        with pytest.raises(NumericalError):
            grads_batch(batch, params)
        tape, loss, _ = _tape_step(batch, params)
        with pytest.raises(NumericalError):
            backward(tape, loss)
    assert not issubclass(NumericalError, DomainError)


@pytest.mark.parametrize("arg", [1, 2], ids=["p", "q"])
def test_fused_layer_check_catches_detached_pq(monkeypatch, arg):
    # propagate whose vjp drops the p (or q) term has the right output
    # and the right H gradient; only the closed-form oracle can tell
    from pinet import selfcheck

    def detached(*args):
        out, vjp = propagate(*args)

        def zeroed(g, want_pq):
            grads = list(vjp(g, want_pq))
            grads[arg] = np.zeros((1, 1))
            return tuple(grads)

        return out, zeroed

    monkeypatch.setattr(selfcheck, "propagate", detached)
    res = selfcheck.check_fused_layer()
    assert len(res.failures) == res.cases == 60


def test_attention_pool_zero_weight_on_padding():
    rng = np.random.default_rng(8)
    (stack,) = make_batch([graph_from_edges(3, [(0, 1)], n_real=2), _triangle()], 2).stacks
    np.testing.assert_array_equal(stack.mask, [[True, True, False], [True, True, True]])
    pre = rng.normal(size=(6, 2))
    z = np.zeros((6, 3))
    z[2] = 1e6  # a padded node's state must not reach the pooled rows
    for axis in ("nodes", "features"):
        out = attention_pool(stack, pre, z, axis, Workspace(), "pool")[0]
        assert out.shape == (2, 6)
        np.testing.assert_array_equal(out[0], np.zeros(6))


def test_grad_check_attention_pool():
    # the vjp of G is the gradient of sum(G * pooled)
    rng = np.random.default_rng(9)
    # on each stack of a batch that spans two size classes, and on a
    # stack of two graphs, one of them padded
    batch = make_batch([graph_from_edges(4, [(0, 2)], n_real=3), graph_from_edges(2, []),
                        pad_graph(graph_from_edges(3, [(0, 1)]), 4)], 2)
    assert [s.adj.shape for s in batch.stacks] == [(1, 2, 2), (2, 4, 4)]
    for stack, axis in itertools.product(batch.stacks, ("nodes", "features")):
        b, n = stack.mask.shape
        g = rng.normal(size=(b, 6))
        params = {"pre": Mat(rng.normal(size=(b * n, 2))), "z": Mat(rng.normal(size=(b * n, 3)))}

        def loss(p):
            pooled = attention_pool(stack, p["pre"].data, p["z"].data, axis, Workspace(), "pool")[0]
            return float((g * pooled).sum())

        gpre, gz = attention_pool(stack, params["pre"].data, params["z"].data, axis,
                                  Workspace(), "pool")[1](g)
        report = grad_check(loss, {"pre": Mat(gpre), "z": Mat(gz)}, params, step=1e-5, tol=1e-6)
        assert report.ok, report.failures[:3]


# -- cross entropy ------------------------------------------------------------

def _saturating(label, gap):
    """Params whose dense layer puts every logit of `label` `gap` above
    the others, for one triangle: its features tower is positive, so
    every pooled entry is."""
    params = _params()
    params = params.replaced({"w_x0": Mat(np.abs(params["w_x0"].data)),
                              "w_x1": Mat(np.abs(params["w_x1"].data))})
    g = _triangle()
    pooled = model.forward_attention(g, params).data @ model.forward_features(g, params).data
    w_d = np.zeros((9, 2))
    w_d[:, label] = gap / pooled.sum()
    return params.replaced({"w_d": Mat(w_d)})


def test_cross_entropy_perfect_prediction():
    batch = make_batch([_triangle(label=1)], 2)
    # exact one-hot prediction clips at the epsilon floor
    assert loss_batch(batch, _saturating(1, 1e3)).item() <= 1e-10
    # a certain wrong one (p = e^-46, below the floor) costs -log(eps),
    # and no gradient flows through the clamped probability
    loss, grads = grads_batch(batch, _saturating(0, 46.0))
    assert loss == -math.log(model.CROSS_ENTROPY_EPS)
    for name, g in grads.items():
        np.testing.assert_array_equal(g.data, np.zeros(g.shape), err_msg=name)


def test_cross_entropy_uniform_two_class():
    params = _params(C=2).replaced({"w_d": Mat(np.zeros((9, 2)))})
    loss = loss_batch(make_batch([_star(label=1)], 2), params).item()
    assert math.isclose(loss, math.log(2.0), rel_tol=1e-12)


def test_cross_entropy_uniform_five_class_batch():
    params = _params(C=5).replaced({"w_d": Mat(np.zeros((9, 5)))})
    loss = loss_batch(make_batch([_star(label=0), _triangle(label=3)], 5), params).item()
    assert math.isclose(loss, 2 * math.log(5.0), rel_tol=1e-12)


def test_cross_entropy_does_not_differentiate_targets():
    # the one-hot labels are a constant: gradients come back for the
    # trainables and nothing else
    batch = make_batch([_star(label=1)], 2)
    for mode, count in (("learned", 13), ("fixed", 5)):
        params = _params(pq_mode=mode)
        _, grads = grads_batch(batch, params)
        assert list(grads) == list(params.trainables()) and len(grads) == count
    assert not batch.labels.flags.writeable


def test_cross_entropy_rejects_bad_rows():
    # the loss's rows hold by construction: make_batch builds one-hot
    # labels and refuses a label outside the class count, and the softmax
    # rows sum to 1
    with pytest.raises(DomainError):
        make_batch([_star(label=2)], 2)
    batch = make_batch([_star(label=1), _triangle(label=0)], 2)
    np.testing.assert_array_equal(batch.labels, [[0.0, 1.0], [1.0, 0.0]])
    probs = model._forward(batch, _params(), Workspace())[0]
    np.testing.assert_allclose(probs.sum(axis=1), [1.0, 1.0], atol=1e-15)


# -- the tape adapter ---------------------------------------------------------

def test_backward_sum_is_ones():
    # the batch loss is a sum over graphs, so its gradient is the sum of
    # the per-graph gradients
    params = _params()
    g1, g2 = _star(label=0), graph_from_edges(5, [(0, 1), (1, 2), (3, 4)], label=1)
    tape, loss, _ = _tape_step(make_batch([g1, g2], 2), params)
    both = backward(tape, loss)
    one, two = (grads_batch(make_batch([g], 2), params)[1] for g in (g1, g2))
    for name in params.trainables():
        np.testing.assert_allclose(both[name].data, one[name].data + two[name].data,
                                   rtol=1e-12, atol=1e-15)


def test_backward_dead_relu_zero_gradient():
    # A >= 0 at p = 1, q = 0 and all-ones features: a negative first layer
    # leaves every relu of the features tower dead
    params = init_params(PiNetConfig(d=1, C=2, F0=4, F1=3, pq_mode="fixed"))
    params = params.replaced({"w_x0": Mat(-np.abs(params["w_x0"].data))})
    tape, loss, _ = _tape_step(make_batch([_triangle(label=1)], 2), params)
    grads = backward(tape, loss)
    for name in ("w_x0", "w_x1"):
        np.testing.assert_array_equal(grads[name].data, np.zeros(params[name].shape))


def test_backward_matmul_chain():
    # d loss / d w_d = pooled^T (probs - y) for a softmax under
    # cross-entropy, with pooled = attention^T @ features for one graph
    g = _star(label=1)
    params = _params(C=3)
    pooled = model.forward_attention(g, params).data @ model.forward_features(g, params).data
    probs = forward(g, params).data
    tape, loss, _ = _tape_step(make_batch([g], 3), params)
    want = pooled.reshape(-1, 1) @ (probs - [[0.0, 1.0, 0.0]])
    np.testing.assert_allclose(backward(tape, loss)["w_d"].data, want, rtol=1e-10, atol=1e-15)


def test_backward_missing_dependency_absent():
    tape = Tape()
    params = _params()
    tracked = params.replaced({"w_d": tape.leaf(params["w_d"], "w_d")})
    tape.leaf(Mat.scalar(5.0), "unused")
    grads = backward(tape, loss_batch(make_batch([_star()], 2), tracked))
    assert list(grads) == ["w_d"] and len(tape) == 2


def test_backward_requires_scalar_root():
    # only the loss that loss_batch computed from this tape's leaves is a
    # root: not a leaf, not a forward output of the same leaves
    params = _params()
    tape, _, tracked = _tape_step(make_batch([_star()], 2), params)
    for not_a_loss in (tracked["p_x0"], forward(_star(), params.replaced(tracked))):
        with pytest.raises(TapeError):
            backward(tape, not_a_loss)


def test_backward_rejects_foreign_root():
    batch, params = make_batch([_star()], 2), _params()
    tape, _, _ = _tape_step(batch, params)
    _, other, _ = _tape_step(batch, params)
    for foreign in (other, loss_batch(batch, params)):
        with pytest.raises(TapeError):
            backward(tape, foreign)


def test_duplicate_leaf_name_rejected():
    tape = Tape()
    tape.leaf(Mat.scalar(1.0), "w")
    with pytest.raises(TapeError):
        tape.leaf(Mat(np.zeros((1, 1))), "w")


def test_mixing_tapes_rejected():
    t1, t2 = Tape(), Tape()
    params = _params()
    mixed = params.replaced({"w_x0": t1.leaf(params["w_x0"], "w_x0"),
                             "w_d": t2.leaf(params["w_d"], "w_d")})
    with pytest.raises(TapeError):
        loss_batch(make_batch([_star()], 2), mixed)


def test_untracked_ops_stay_untracked():
    # without leaves the forward pass builds no vjp, so nothing but the
    # workspace holds its intermediates
    batch, params = make_batch([_star()], 2), _params()
    assert model._forward(batch, params, Workspace(), ())[2] is None
    assert model._tower(batch.stacks[0], params.values, "x", (), Workspace(), ())[1] is None
    assert model._pool(batch.stacks[0], params.values, "nodes", (), Workspace(), 0)[1] is None
    assert not loss_batch(batch, params).is_tracked


# -- finite-difference checks -------------------------------------------------

def test_grad_check_quadratic():
    report = grad_check(lambda p: p["x"].item() ** 2, {"x": Mat.scalar(6.0)},
                        {"x": Mat.scalar(3.0)}, step=1e-6, tol=1e-8)
    assert report.ok
    assert report.checked == 1


def test_grad_check_three_layer_composition():
    # the features tower's two products and the dense layer, in fixed mode
    rng = np.random.default_rng(5)
    path = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]).adjacency
    graphs = [LabeledGraph(4, path, Mat(rng.normal(size=(4, 1))), i % 2) for i in range(3)]
    batch = make_batch(graphs, 2)
    params = _params(pq_mode="fixed", fixed_p=0.3, fixed_q=0.6)
    report = grad_check(lambda p: loss_batch(batch, params.replaced(p)).item(),
                        grads_batch(batch, params)[1],
                        {k: params[k] for k in ("w_x0", "w_x1", "w_d")}, step=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]
    assert report.checked == 4 + 12 + 18


def test_grad_check_softmax_cross_entropy():
    # w_d's gradient goes through the product, the softmax and the
    # cross-entropy only
    batch = make_batch([_star(label=0), _triangle(label=2), _star(label=1)], 4)
    params = _params(C=4)
    report = grad_check(lambda p: loss_batch(batch, params.replaced(p)).item(),
                        grads_batch(batch, params)[1], {"w_d": params["w_d"]}, step=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]


def test_grad_check_reports_deliberate_mismatch():
    # the matching gradient passes, then a wrong analytic one (x for the
    # derivative of x^2) is reported
    report = grad_check(lambda p: 2.0 * p["x"].item(), {"x": Mat.scalar(2.0)},
                        {"x": Mat.scalar(1.0)}, step=1e-6, tol=1e-8)
    assert report.ok  # sanity: matching function passes

    x = Mat.scalar(3.0)
    report = grad_check(lambda p: p["x"].item() ** 2, {"x": x}, {"x": x}, step=1e-6, tol=1e-4)
    assert not report.ok
    assert report.failures[0].rel_err > 1e-4
