"""Tests for the matrix type, the operation set, and reverse-mode gradients.

Covers forward values on small hand-checked inputs, the vjp of every
operation against central finite differences, softmax and masked
attention edge cases, and the tape error paths.
"""

import math

import numpy as np
import pytest

from pinet.errors import DegenerateMaskError, DomainError, NumericalError, ShapeError, TapeError
from pinet.tensor import (
    Mat,
    Tape,
    attention_pool,
    attention_softmax,
    backward,
    cross_entropy,
    grad_check,
    matmul,
    propagate,
    relu,
    softmax_rows,
)


def _close(m: Mat, expected, tol=1e-12):
    np.testing.assert_allclose(m.data, np.asarray(expected, dtype=float), atol=tol)


def _total(m: Mat) -> Mat:
    """Sum of all entries as a 1x1 matrix, built from matmul alone."""
    return matmul(matmul(Mat(np.ones((1, m.rows))), m), Mat(np.ones((m.cols, 1))))


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
    m = Mat.zeros(2, 2)
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
    _close(Mat.zeros(2, 3), np.zeros((2, 3)))
    s = Mat.scalar(2.5)
    assert s.shape == (1, 1) and s.item() == 2.5


# -- forward values -----------------------------------------------------------

def test_matmul_identity():
    a = Mat(np.arange(9, dtype=float).reshape(3, 3))
    _close(matmul(Mat(np.eye(3)), a), a.data)


def test_matmul_zero():
    z = Mat.zeros(2, 3)
    b = Mat(np.random.default_rng(0).normal(size=(3, 4)))
    _close(matmul(z, b), np.zeros((2, 4)))


def test_matmul_hand_product():
    a = Mat([[1.0, 2.0], [3.0, 4.0]])
    b = Mat([[5.0, 6.0], [7.0, 8.0]])
    _close(matmul(a, b), [[19, 22], [43, 50]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(Mat.zeros(2, 3), Mat.zeros(2, 3))


def test_relu_values():
    _close(relu(Mat([[-1.0, 2.0], [0.0, -3.0]])), [[0, 2], [0, 0]])
    a = Mat(np.random.default_rng(2).normal(size=(4, 4)))
    _close(relu(relu(a)), relu(a).data)
    _close(relu(Mat([[-5.0, -0.1]])), [[0, 0]])


# -- softmax ------------------------------------------------------------------

def test_softmax_uniform_row():
    out = softmax_rows(Mat([[0.0, 0.0, 0.0]]))
    _close(out, [[1 / 3, 1 / 3, 1 / 3]])


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 6))
    a = softmax_rows(Mat(x))
    b = softmax_rows(Mat(x + 17.5))
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_softmax_extreme_values_stay_finite():
    out = softmax_rows(Mat([[1000.0, -1000.0, 0.0]]))
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-12)


def test_attention_softmax_masked_tail():
    pre = np.array([5.0, 5.0, 5.0, 123.0]).reshape(1, 4, 1)
    out = attention_softmax(pre, np.array([[True, True, True, False]]), "nodes")
    np.testing.assert_allclose(out[0, :, 0], [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-12)
    assert out[0, 3, 0] == 0.0  # exactly zero, not merely small


def test_attention_softmax_sums_to_one_under_mask():
    rng = np.random.default_rng(4)
    pre = rng.normal(size=(2, 7, 5))
    mask = np.array([[True, True, False, True, False, True, True],
                     [False, True, True, True, True, True, False]])
    nodes = attention_softmax(pre, mask, "nodes")  # each column over real nodes
    np.testing.assert_allclose(nodes.sum(axis=1), np.ones((2, 5)), atol=1e-12)
    feats = attention_softmax(pre, mask, "features")  # each real row over features
    np.testing.assert_allclose(feats.sum(axis=2), mask.astype(float), atol=1e-12)
    for out in (nodes, feats):
        assert (out[~mask] == 0.0).all()


# -- stacked message passing and attention pooling -----------------------------

def test_propagate_rejects_bad_stacks():
    adj = np.zeros((2, 3, 3))
    adj[0, 0, 1] = adj[0, 1, 0] = 1.0
    h = Mat(np.ones((6, 2)))
    with pytest.raises(ShapeError):
        propagate(adj[0], h, 0.5, 0.5)  # not a B x N x N stack
    with pytest.raises(ShapeError):
        propagate(adj, Mat(np.ones((5, 2))), 0.5, 0.5)
    with pytest.raises(DomainError):
        propagate(adj, h, 1.5, 0.5)
    lopsided = adj.copy()
    lopsided[1, 2, 0] = 1.0
    with pytest.raises(DomainError):
        propagate(lopsided, h, 0.5, 0.5)


def test_propagate_checks_matrix_pq_by_value():
    adj = np.zeros((1, 3, 3))
    adj[0, 0, 1] = adj[0, 1, 0] = 1.0
    h = Mat(np.ones((3, 2)))
    with pytest.raises(DomainError):
        propagate(adj, h, Mat.scalar(2.0), Mat.scalar(-1.0))
    tape = Tape()
    with pytest.raises(DomainError):
        propagate(adj, h, tape.leaf(Mat.scalar(1.5), "p"), 0.5)
    out = propagate(adj, h, tape.leaf(Mat.scalar(0.5), "p2"), tape.leaf(Mat.scalar(0.5), "q2"))
    np.testing.assert_array_equal(out.data, propagate(adj, h, 0.5, 0.5).data)


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
    # non-finite data put into a Mat is bad input; an op that overflows on
    # finite operands, tracked or not, is a failure of the computation
    with pytest.raises(DomainError):
        Mat([[np.inf]])
    with pytest.raises(DomainError):
        Mat.scalar(float("nan"))
    big = Mat([[1e200]])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError):
            matmul(big, big)
        with pytest.raises(NumericalError):
            matmul(Tape().leaf(big, "w"), big)
        tape = Tape()  # finite forward, overflowing gradient: 1e100 * 1e300
        loss = matmul(matmul(tape.leaf(Mat([[1e-200]]), "a"), Mat([[1e300]])), Mat([[1e100]]))
        with pytest.raises(NumericalError):
            backward(tape, loss)
    assert not issubclass(NumericalError, DomainError)


@pytest.mark.parametrize("arg", [2, 3], ids=["p", "q"])
def test_fused_layer_check_catches_detached_pq(monkeypatch, arg):
    # propagate with p (or q) read by value but kept off the tape has the
    # right output; only the closed-form gradient oracle can tell
    from pinet import selfcheck

    def detached(*args):
        args = list(args)
        args[arg] = Mat.scalar(args[arg].item())
        return propagate(*args)

    monkeypatch.setattr(selfcheck, "propagate", detached)
    res = selfcheck.check_fused_layer()
    assert len(res.failures) == res.cases


def test_attention_pool_zero_weight_on_padding():
    rng = np.random.default_rng(8)
    mask = np.array([[True, True, False], [True, True, True]])
    pre = Mat(rng.normal(size=(6, 2)))
    z = np.zeros((6, 3))
    z[2] = 1e6  # a padded node's state must not reach the pooled rows
    for axis in ("nodes", "features"):
        out = attention_pool(pre, Mat(z), mask, axis)
        assert out.shape == (2, 6)
        np.testing.assert_array_equal(out.data[0], np.zeros(6))
    with pytest.raises(DegenerateMaskError):
        attention_pool(pre, Mat(z), np.array([[False] * 3, [True] * 3]), "nodes")


def test_grad_check_attention_pool():
    rng = np.random.default_rng(9)
    mask = np.array([[True, False, True, True], [True, True, False, False]])
    y = Mat(np.eye(6)[[4, 1]])
    for axis in ("nodes", "features"):
        params = {"pre": Mat(rng.normal(size=(8, 2))), "z": Mat(rng.normal(size=(8, 3)))}

        def f(p):
            return cross_entropy(softmax_rows(attention_pool(p["pre"], p["z"], mask, axis)), y)

        report = grad_check(f, params, step=1e-5, tol=1e-6)
        assert report.ok, report.failures[:3]


# -- cross entropy ------------------------------------------------------------

def test_cross_entropy_perfect_prediction():
    y = Mat([[1.0, 0.0]])
    # exact one-hot prediction clips at the epsilon floor
    assert cross_entropy(y, y).item() <= 1e-10


def test_cross_entropy_uniform_two_class():
    z = Mat([[0.5, 0.5]])
    y = Mat([[0.0, 1.0]])
    assert math.isclose(cross_entropy(z, y).item(), math.log(2.0), rel_tol=1e-12)


def test_cross_entropy_uniform_five_class_batch():
    z = Mat(np.full((2, 5), 0.2))
    y = Mat(np.eye(5)[[0, 3]])
    assert math.isclose(cross_entropy(z, y).item(), 2 * math.log(5.0), rel_tol=1e-12)


def test_cross_entropy_rejects_bad_rows():
    y = Mat([[1.0, 0.0]])
    with pytest.raises(DomainError):
        cross_entropy(Mat([[0.9, 0.3]]), y)  # does not sum to 1
    with pytest.raises(DomainError):
        cross_entropy(Mat([[0.5, 0.5]]), Mat([[0.5, 0.5]]))  # y not one-hot


# -- tape and backward --------------------------------------------------------

def test_backward_sum_is_ones():
    tape = Tape()
    w = tape.leaf(Mat([[1.0, 2.0], [3.0, 4.0]]), "w")
    grads = backward(tape, _total(w))
    _close(grads["w"], np.ones((2, 2)))


def test_backward_dead_relu_zero_gradient():
    tape = Tape()
    w = tape.leaf(Mat([[1.0, 2.0]]), "w")
    loss = _total(relu(matmul(Mat([[-1.0]]), w)))
    grads = backward(tape, loss)
    _close(grads["w"], np.zeros((1, 2)))


def test_backward_matmul_chain():
    # loss = sum(a @ b); d/da = ones @ b.T, d/db = a.T @ ones
    a0 = np.array([[1.0, -2.0], [0.5, 3.0]])
    b0 = np.array([[2.0, 0.0], [1.0, -1.0]])
    tape = Tape()
    a = tape.leaf(Mat(a0), "a")
    b = tape.leaf(Mat(b0), "b")
    grads = backward(tape, _total(matmul(a, b)))
    _close(grads["a"], np.ones((2, 2)) @ b0.T)
    _close(grads["b"], a0.T @ np.ones((2, 2)))


def test_backward_missing_dependency_absent():
    tape = Tape()
    used = tape.leaf(Mat([[2.0]]), "used")
    tape.leaf(Mat([[5.0]]), "unused")
    grads = backward(tape, _total(used))
    assert "unused" not in grads


def test_backward_requires_scalar_root():
    tape = Tape()
    w = tape.leaf(Mat(np.ones((2, 2))), "w")
    with pytest.raises(TapeError):
        backward(tape, relu(w))


def test_backward_rejects_foreign_root():
    tape = Tape()
    tape.leaf(Mat.scalar(1.0), "w")
    other = _total(Mat(np.ones((2, 2))))
    with pytest.raises(TapeError):
        backward(tape, other)


def test_duplicate_leaf_name_rejected():
    tape = Tape()
    tape.leaf(Mat.scalar(1.0), "w")
    with pytest.raises(TapeError):
        tape.leaf(Mat.zeros(1, 1), "w")


def test_mixing_tapes_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(Mat(np.ones((2, 2))), "a")
    b = t2.leaf(Mat(np.ones((2, 2))), "b")
    with pytest.raises(TapeError):
        matmul(a, b)


def test_untracked_ops_stay_untracked():
    out = matmul(Mat(np.ones((2, 2))), Mat(np.ones((2, 2))))
    assert not out.is_tracked


# -- finite-difference checks -------------------------------------------------

def test_grad_check_quadratic():
    def f(p):
        return matmul(p["x"], p["x"])

    report = grad_check(f, {"x": Mat.scalar(3.0)}, step=1e-6, tol=1e-8)
    assert report.ok
    assert report.checked == 1


def test_grad_check_three_layer_composition():
    rng = np.random.default_rng(5)
    x0 = Mat(rng.normal(size=(4, 3)))
    y = Mat(np.eye(2)[[0, 1, 1, 0]])
    params = {
        "w1": Mat(rng.normal(size=(3, 6))),
        "w2": Mat(rng.normal(size=(6, 5))),
        "w3": Mat(rng.normal(size=(5, 2))),
    }

    def f(p):
        h = relu(matmul(x0, p["w1"]))
        out = matmul(relu(matmul(h, p["w2"])), p["w3"])
        return cross_entropy(softmax_rows(out), y)

    report = grad_check(f, params, step=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]


def test_grad_check_softmax_cross_entropy():
    rng = np.random.default_rng(6)
    params = {"z": Mat(rng.normal(size=(3, 4)))}
    y = Mat(np.eye(4)[[0, 2, 1]])

    def f(p):
        return cross_entropy(softmax_rows(p["z"]), y)

    report = grad_check(f, params, step=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]


def test_grad_check_reports_deliberate_mismatch():
    # multiply by 2 in f and compare against leaf gradients of the same,
    # then corrupt the analytic side by checking a different function
    def f_wrong(p):
        return matmul(p["x"], Mat.scalar(2.0))

    report = grad_check(f_wrong, {"x": Mat.scalar(1.0)}, step=1e-6, tol=1e-8)
    assert report.ok  # sanity: matching function passes

    calls = {"n": 0}

    def f_inconsistent(p):
        # returns x^2 on the tracked call, x on numeric probes
        calls["n"] += 1
        if calls["n"] == 1:
            return matmul(p["x"], p["x"])
        return p["x"]

    report = grad_check(f_inconsistent, {"x": Mat.scalar(3.0)}, step=1e-6, tol=1e-4)
    assert not report.ok
    assert report.failures[0].rel_err > 1e-4
