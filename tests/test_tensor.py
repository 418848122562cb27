"""Tests for the matrix type, the operation set, and reverse-mode gradients.

Covers forward values on small hand-checked inputs, the vjp of every
operation against central finite differences, masked softmax edge
cases, and the tape error paths.
"""

import math

import numpy as np
import pytest

from pinet.errors import DegenerateMaskError, DomainError, ShapeError, TapeError
from pinet.tensor import (
    Mat,
    Tape,
    add,
    attention_pool,
    backward,
    col_scale,
    cross_entropy,
    grad_check,
    hadamard,
    matmul,
    propagate,
    relu,
    row_scale,
    rsqrt_or_zero,
    scale,
    softmax_masked,
    sum_all,
    transpose,
)


def _close(m: Mat, expected, tol=1e-12):
    np.testing.assert_allclose(m.data, np.asarray(expected, dtype=float), atol=tol)


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
    _close(Mat.eye(3), np.eye(3))
    _close(Mat.zeros(2, 3), np.zeros((2, 3)))
    _close(Mat.ones(1, 4), np.ones((1, 4)))
    s = Mat.scalar(2.5)
    assert s.shape == (1, 1) and s.item() == 2.5


def test_mat_operators():
    a = Mat([[1.0, 2.0], [3.0, 4.0]])
    b = Mat.eye(2)
    _close(a @ b, a.data)
    _close(a + b, a.data + np.eye(2))
    _close(a - b, a.data - np.eye(2))


# -- forward values -----------------------------------------------------------

def test_matmul_identity():
    a = Mat(np.arange(9, dtype=float).reshape(3, 3))
    _close(matmul(Mat.eye(3), a), a.data)


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


def test_transpose_involution():
    a = Mat(np.random.default_rng(1).normal(size=(3, 5)))
    _close(transpose(transpose(a)), a.data)
    _close(transpose(Mat.eye(4)), np.eye(4))
    _close(transpose(Mat([[1.0, 2.0, 3.0]])), [[1], [2], [3]])


def test_relu_values():
    _close(relu(Mat([[-1.0, 2.0], [0.0, -3.0]])), [[0, 2], [0, 0]])
    a = Mat(np.random.default_rng(2).normal(size=(4, 4)))
    _close(relu(relu(a)), relu(a).data)
    _close(relu(Mat([[-5.0, -0.1]])), [[0, 0]])


def test_add_sub_scale_hadamard():
    a = Mat([[1.0, -2.0]])
    b = Mat([[3.0, 4.0]])
    _close(add(a, b), [[4, 2]])
    _close(scale(a, -2.0), [[-2, 4]])
    _close(scale(a, Mat.scalar(0.5)), [[0.5, -1]])
    _close(hadamard(a, b), [[3, -8]])


def test_row_col_scale():
    a = Mat([[1.0, 2.0], [3.0, 4.0]])
    s = Mat([[2.0], [10.0]])
    _close(row_scale(a, s), [[2, 4], [30, 40]])
    _close(col_scale(a, transpose(s)), [[2, 20], [6, 40]])


def test_rsqrt_or_zero():
    _close(rsqrt_or_zero(Mat([[4.0], [0.0], [1.0]])), [[0.5], [0.0], [1.0]])
    with pytest.raises(DomainError):
        rsqrt_or_zero(Mat([[-1.0]]))


def test_sum_all():
    assert sum_all(Mat([[1.0, 2.0], [3.0, 4.0]])).item() == 10.0


# -- masked softmax -----------------------------------------------------------

def test_softmax_uniform_row():
    out = softmax_masked(Mat([[0.0, 0.0, 0.0]]), axis="rows")
    _close(out, [[1 / 3, 1 / 3, 1 / 3]])


def test_softmax_masked_tail():
    out = softmax_masked(Mat([[5.0, 5.0, 5.0, 123.0]]), axis="rows",
                         mask=[True, True, True, False])
    _close(out, [[1 / 3, 1 / 3, 1 / 3, 0.0]])
    assert out.data[0, 3] == 0.0  # exactly zero, not merely small


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 6))
    a = softmax_masked(Mat(x), axis="rows")
    b = softmax_masked(Mat(x + 17.5), axis="rows")
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_softmax_cols_axis():
    x = Mat([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    out = softmax_masked(x, axis="cols")
    np.testing.assert_allclose(out.data.sum(axis=0), [1.0, 1.0], atol=1e-12)
    # all entries in a column are equal, so each is 1/3
    _close(out, np.full((3, 2), 1 / 3))


def test_softmax_rows_sum_to_one_under_mask():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 7))
    mask = [True, True, False, True, False, True, True]
    out = softmax_masked(Mat(x), axis="rows", mask=mask)
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-12)
    assert (out.data[:, [2, 4]] == 0.0).all()


def test_softmax_fully_masked_raises():
    with pytest.raises(DegenerateMaskError):
        softmax_masked(Mat([[1.0, 2.0]]), axis="rows", mask=[False, False])


def test_softmax_extreme_values_stay_finite():
    out = softmax_masked(Mat([[1000.0, -1000.0, 0.0]]), axis="rows")
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-12)


# -- stacked message passing and attention pooling -----------------------------

def test_propagate_rejects_bad_stacks():
    adj = np.zeros((2, 3, 3))
    adj[0, 0, 1] = adj[0, 1, 0] = 1.0
    h = Mat.ones(6, 2)
    with pytest.raises(ShapeError):
        propagate(adj[0], h, 0.5, 0.5)  # not a B x N x N stack
    with pytest.raises(ShapeError):
        propagate(adj, Mat.ones(5, 2), 0.5, 0.5)
    with pytest.raises(DomainError):
        propagate(adj, h, 1.5, 0.5)
    lopsided = adj.copy()
    lopsided[1, 2, 0] = 1.0
    with pytest.raises(DomainError):
        propagate(lopsided, h, 0.5, 0.5)


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
    y = Mat(rng.normal(size=(2, 6)))
    for axis in ("nodes", "features"):
        params = {"pre": Mat(rng.normal(size=(8, 2))), "z": Mat(rng.normal(size=(8, 3)))}

        def f(p):
            return sum_all(hadamard(attention_pool(p["pre"], p["z"], mask, axis), y))

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
    grads = backward(tape, sum_all(w))
    _close(grads["w"], np.ones((2, 2)))


def test_backward_dead_relu_zero_gradient():
    tape = Tape()
    w = tape.leaf(Mat([[1.0, 2.0]]), "w")
    loss = sum_all(relu(scale(w, -1.0)))
    grads = backward(tape, loss)
    _close(grads["w"], np.zeros((1, 2)))


def test_backward_matmul_chain():
    # loss = sum(a @ b); d/da = ones @ b.T, d/db = a.T @ ones
    a0 = np.array([[1.0, -2.0], [0.5, 3.0]])
    b0 = np.array([[2.0, 0.0], [1.0, -1.0]])
    tape = Tape()
    a = tape.leaf(Mat(a0), "a")
    b = tape.leaf(Mat(b0), "b")
    grads = backward(tape, sum_all(matmul(a, b)))
    _close(grads["a"], np.ones((2, 2)) @ b0.T)
    _close(grads["b"], a0.T @ np.ones((2, 2)))


def test_backward_missing_dependency_absent():
    tape = Tape()
    used = tape.leaf(Mat([[2.0]]), "used")
    tape.leaf(Mat([[5.0]]), "unused")
    grads = backward(tape, sum_all(used))
    assert "unused" not in grads


def test_backward_requires_scalar_root():
    tape = Tape()
    w = tape.leaf(Mat.ones(2, 2), "w")
    with pytest.raises(TapeError):
        backward(tape, relu(w))


def test_backward_rejects_foreign_root():
    tape = Tape()
    tape.leaf(Mat.ones(1, 1), "w")
    other = sum_all(Mat.ones(2, 2))
    with pytest.raises(TapeError):
        backward(tape, other)


def test_duplicate_leaf_name_rejected():
    tape = Tape()
    tape.leaf(Mat.ones(1, 1), "w")
    with pytest.raises(TapeError):
        tape.leaf(Mat.zeros(1, 1), "w")


def test_mixing_tapes_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(Mat.ones(2, 2), "a")
    b = t2.leaf(Mat.ones(2, 2), "b")
    with pytest.raises(TapeError):
        add(a, b)


def test_untracked_ops_stay_untracked():
    out = matmul(Mat.ones(2, 2), Mat.ones(2, 2))
    assert not out.is_tracked


# -- finite-difference checks -------------------------------------------------

def test_grad_check_quadratic():
    def f(p):
        return hadamard(p["x"], p["x"])

    report = grad_check(f, {"x": Mat.scalar(3.0)}, step=1e-6, tol=1e-8)
    assert report.ok
    assert report.checked == 1


def test_grad_check_three_layer_composition():
    rng = np.random.default_rng(5)
    x0 = Mat(rng.normal(size=(4, 3)))
    params = {
        "w1": Mat(rng.normal(size=(3, 6))),
        "w2": Mat(rng.normal(size=(6, 2))),
        "b": Mat(rng.normal(size=(4, 2))),
    }

    def f(p):
        h = relu(matmul(x0, p["w1"]))
        out = add(matmul(h, p["w2"]), p["b"])
        return sum_all(hadamard(out, out))

    report = grad_check(f, params, step=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]


def test_grad_check_softmax_cross_entropy():
    rng = np.random.default_rng(6)
    params = {"z": Mat(rng.normal(size=(3, 4)))}
    y = Mat(np.eye(4)[[0, 2, 1]])

    def f(p):
        return cross_entropy(softmax_masked(p["z"], axis="rows"), y)

    report = grad_check(f, params, step=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]


def test_grad_check_propagation_pieces():
    # rsqrt and row/col scaling all feed the propagation matrix
    rng = np.random.default_rng(7)
    a0 = Mat(rng.random((3, 3)) + 0.5)
    params = {"s": Mat(rng.random((3, 1)) + 1.0), "w": Mat(rng.normal(size=(3, 2)))}

    def f(p):
        scaled = col_scale(row_scale(a0, rsqrt_or_zero(p["s"])), transpose(p["s"]))
        return sum_all(matmul(scaled, p["w"]))

    report = grad_check(f, params, step=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]


def test_grad_check_reports_deliberate_mismatch():
    # scale by 2 in f but compare against leaf gradients of scale by 2,
    # then corrupt the analytic side by checking a different function
    def f_wrong(p):
        return scale(sum_all(p["x"]), 2.0)

    report = grad_check(f_wrong, {"x": Mat.scalar(1.0)}, step=1e-6, tol=1e-8)
    assert report.ok  # sanity: matching function passes

    calls = {"n": 0}

    def f_inconsistent(p):
        # returns x^2 on the tracked call, x on numeric probes
        calls["n"] += 1
        if calls["n"] == 1:
            return hadamard(p["x"], p["x"])
        return scale(p["x"], 1.0)

    report = grad_check(f_inconsistent, {"x": Mat.scalar(3.0)}, step=1e-6, tol=1e-4)
    assert not report.ok
    assert report.failures[0].rel_err > 1e-4
