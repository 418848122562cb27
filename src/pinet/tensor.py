"""Dense float64 matrices with a reverse-mode differentiation tape.

The tape differentiates one model and holds only the ops that model
calls: `matmul`, `relu`, `softmax_rows`, `propagate`, `attention_pool`
and `cross_entropy`. A `Mat` is an immutable 2-D float64 matrix, a
`Tape` records every op that touches a tracked `Mat`, and `backward`
walks the tape once in reverse to produce gradients for the registered
leaf parameters.

A tape is built per forward pass (define-by-run). `Mat` values are
immutable and safe to share across threads; a `Tape` is single-threaded.

Matrices stay 2-D. A batch of B graphs padded to N nodes travels as one
(B*N) x F stack of node states, graph b in rows b*N..(b+1)*N-1, next to
a plain B x N x N adjacency array and a B x N node mask. Two fused ops
work on such stacks with hand-written gradients: `propagate` applies
the At(p, q) operator of every graph without materialising it, and
`attention_pool` turns the attention-tower stack into per-graph pooled
rows. At(p, q) itself is built in plain numpy by
`graph.propagation_matrix`; the `fused-propagation` selfcheck holds
`propagate` to it in value and to its closed-form derivatives in p and q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DegenerateMaskError, DomainError, NumericalError, ShapeError, TapeError

CROSS_ENTROPY_EPS = 1e-12


def _typed_array(values, kinds: str, what: str) -> np.ndarray:
    """`values` (up to 2-D) as an array whose dtype kind is in `kinds`,
    else DomainError(`what`): ragged nesting, and a bool even among
    numbers, which numpy would promote, are refused. An empty input
    passes whatever its dtype. The dtype rule behind `Mat` and
    `graph._int_array`."""
    try:
        a = np.asarray(values)
    except ValueError:  # ragged nesting
        raise DomainError(what) from None
    entries = values if a.ndim == 1 else chain.from_iterable(values) if a.ndim == 2 else ()
    if a.size and (a.dtype.kind not in kinds or not isinstance(values, np.ndarray)
                   and not {bool, np.bool_}.isdisjoint(map(type, entries))):
        raise DomainError(what)
    return a


class Mat:
    """Immutable dense matrix of 64-bit floats in row-major layout.

    The one rule for real data: a Mat is built only from integers or
    floats (no bools, strings, complex or other objects, even nested in
    lists) that are finite, else DomainError. Every public operation
    validates that its result is finite, so NaN or Inf entries surface
    at the operation that produced them, as NumericalError, instead of
    corrupting downstream state.
    """

    __slots__ = ("_a", "_tape", "_nid")

    def __init__(self, data):
        a = _typed_array(data, "iuf", "Mat data must be real numbers (not bool, str or object)")
        # Private copy: constructing a Mat never locks or aliases the
        # caller's buffer.
        a = np.array(a, dtype=np.float64, order="C")
        if not np.isfinite(a).all():
            raise DomainError("Mat entries must be finite (no NaN/Inf)")
        self._init_from(a)

    def _init_from(self, a: np.ndarray):
        if a.ndim == 0:
            a = a.reshape(1, 1)
        elif a.ndim == 1:
            a = a.reshape(1, -1)
        elif a.ndim != 2:
            raise ShapeError(f"Mat requires 2-D data, got {a.ndim}-D")
        if a.flags.writeable:
            a.setflags(write=False)
        self._a = a
        self._tape = None
        self._nid = None

    @classmethod
    def _adopt(cls, arr) -> "Mat":
        """Zero-copy wrap of a freshly computed array the caller owns
        (or a read-only view of another Mat's storage)."""
        a = np.ascontiguousarray(arr, dtype=np.float64)
        if not np.isfinite(a).all():
            raise NumericalError("an operation produced NaN or Inf entries")
        m = cls.__new__(cls)
        m._init_from(a)
        return m

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def data(self) -> np.ndarray:
        """Read-only numpy view of the entries (C order, row-major)."""
        return self._a

    @property
    def is_tracked(self) -> bool:
        return self._tape is not None

    def item(self) -> float:
        if self._a.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 matrix, got {self.rows}x{self.cols}")
        return float(self._a[0, 0])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat._adopt(np.zeros((rows, cols)))

    @staticmethod
    def scalar(x: float) -> "Mat":
        """1x1 Mat of the real number `x`, by the rule of `Mat`."""
        return Mat([[x]])

    def __repr__(self) -> str:
        tag = " tracked" if self.is_tracked else ""
        return f"Mat({self.rows}x{self.cols}{tag})\n{self._a!r}"


@dataclass
class _Node:
    parents: tuple[int | None, ...]
    vjp: Callable[[np.ndarray], tuple[np.ndarray | None, ...]] | None


class Tape:
    """Append-only record of differentiable operations.

    Nodes are stored in creation order, which is a topological order by
    construction: an operation can only consume matrices that already
    exist. `backward` therefore visits each node exactly once, in
    reverse creation order.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._leaves: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def leaf(self, value: Mat | np.ndarray, name: str) -> Mat:
        """Register a parameter leaf and return its tracked handle."""
        if name in self._leaves:
            raise TapeError(f"duplicate leaf name {name!r}")
        value = as_mat(value)
        out = Mat._adopt(value.data)  # shares the read-only storage
        out._tape = self
        out._nid = len(self._nodes)
        self._nodes.append(_Node(parents=(), vjp=None))
        self._leaves[name] = out._nid
        return out

    def _record(self, out: np.ndarray, parents: Sequence[Mat], vjp) -> Mat:
        nids = tuple(p._nid if p._tape is self else None for p in parents)
        m = Mat._adopt(out)
        m._tape = self
        m._nid = len(self._nodes)
        self._nodes.append(_Node(parents=nids, vjp=vjp))
        return m


def as_mat(x) -> Mat:
    if isinstance(x, Mat):
        return x
    return Mat(x)


def _result(out: np.ndarray, parents: Sequence[Mat], vjp) -> Mat:
    """Wrap an op result, recording it when any operand is tracked."""
    tapes = {p._tape for p in parents if p._tape is not None}
    if not tapes:
        return Mat._adopt(out)
    if len(tapes) > 1:
        raise TapeError("operands belong to different tapes")
    return tapes.pop()._record(out, parents, vjp)


def matmul(a: Mat, b: Mat) -> Mat:
    """Matrix product a @ b."""
    a, b = as_mat(a), as_mat(b)
    if a.cols != b.rows:
        raise ShapeError(
            f"matmul: inner dimensions differ, {a.rows}x{a.cols} @ {b.rows}x{b.cols}"
        )
    ad, bd = a.data, b.data

    def vjp(g):
        return g @ bd.T, ad.T @ g

    return _result(ad @ bd, (a, b), vjp)


def relu(a: Mat) -> Mat:
    """Elementwise max(0, x); the subgradient at exactly 0 is 0."""
    a = as_mat(a)
    pos = a.data > 0

    def vjp(g):
        return (g * pos,)

    return _result(np.maximum(a.data, 0.0), (a,), vjp)


def softmax_rows(a: Mat) -> Mat:
    """Exp-normalise every row of `a` into a distribution over its
    columns. The row max is subtracted before exponentiation for
    stability."""
    a = as_mat(a)
    x = a.data
    e = np.exp(x - x.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=1, keepdims=True)),)

    return _result(y, (a,), vjp)


def _pq_scalar(v, name: str) -> Mat:
    """`v` as a 1x1 Mat in [0, 1]: the one range rule of p and q."""
    m = as_mat(v)
    if m.shape != (1, 1):
        raise ShapeError(f"{name} must be a scalar or 1x1, got {m.rows}x{m.cols}")
    if not 0.0 <= m.data[0, 0] <= 1.0:
        raise DomainError(f"{name}={m.data[0, 0]} outside [0, 1]")
    return m


def propagate(adj, h: Mat, p, q) -> Mat:
    """At(p, q) @ H for every graph of a stack, without building At.

    `adj` is a B x N x N array of symmetric adjacency matrices and `h`
    the (B*N) x F stack of node states, graph b in rows b*N..(b+1)*N-1.
    Each block is computed in the factored form s * ((A + qI)(s * H))
    with s = (p + (1-p)*deg)^(-1/2) per node and 0^(-1/2) := 0, the
    operator that `graph.propagation_matrix` builds explicitly. p and q
    are floats in [0, 1] or 1x1 matrices, possibly tracked; the result is
    differentiable with respect to h, p and q.
    """
    adj = np.asarray(adj, dtype=np.float64)
    h = as_mat(h)
    if adj.ndim != 3 or adj.shape[1] != adj.shape[2]:
        raise ShapeError(f"propagate: adjacency stack must be B x N x N, got {adj.shape}")
    b, n, _ = adj.shape
    if h.rows != b * n:
        raise ShapeError(f"propagate: {h.rows} state rows for {b} graphs of {n} nodes")
    # the vjp applies the same operator to the gradient, which needs A = A^T
    if (adj != adj.transpose(0, 2, 1)).any():
        raise DomainError("adjacency must be symmetric")
    pm, qm = _pq_scalar(p, "p"), _pq_scalar(q, "q")
    pv, qv = pm.data[0, 0], qm.data[0, 0]
    deg = adj.sum(axis=2).reshape(-1, 1)
    mixed = pv + (1.0 - pv) * deg
    if (mixed < 0).any():
        raise DomainError("propagate: p + (1-p)*deg must be non-negative")
    s = np.zeros_like(mixed)
    np.power(mixed, -0.5, out=s, where=mixed > 0)

    hd, f = h.data, h.cols
    want_pq = pm.is_tracked or qm.is_tracked
    u = hd * s
    out = np.matmul(adj, u.reshape(b, n, f)).reshape(b * n, f)
    u *= qv
    out += u
    out *= s

    def vjp(g):
        w = g * s
        gh = np.matmul(adj, w.reshape(b, n, f)).reshape(b * n, f)
        w *= qv
        gh += w
        gh *= s
        if not want_pq:
            return gh, None, None
        # With s = m^(-1/2), ds/dm = -s^3/2 and dm/dp = 1 - deg; the sum
        # over each node's row of s_i * dL/ds_i splits into the outer
        # factor (g . out) and the inner one (gh . H).
        s2 = s[:, 0] ** 2
        s_ds = np.einsum("ij,ij->i", g, out) + np.einsum("ij,ij->i", gh, hd)
        gp = -0.5 * (s2 * (1.0 - deg[:, 0])) @ s_ds
        gq = s2 @ np.einsum("ij,ij->i", g, hd)
        return gh, np.array([[gp]]), np.array([[gq]])

    return _result(out, (h, pm, qm), vjp)


def attention_softmax(pre: np.ndarray, mask: np.ndarray, axis: str) -> np.ndarray:
    """Attention weights for a B x N x F stack of tower outputs.

    axis="nodes": each (graph, feature) column becomes a distribution over
    the graph's real nodes (mask True); axis="features": each node's row
    becomes a distribution over the F positions and padded rows are then
    zeroed. Padded nodes get exactly 0 either way. Returns a new array.
    """
    m = mask[:, :, None]
    if axis == "nodes":
        if not mask.any(axis=1).all():
            raise DegenerateMaskError("softmax slice has every position masked")
        e = np.where(m, pre, -np.inf)
        e -= e.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        e /= e.sum(axis=1, keepdims=True)
    elif axis == "features":
        e = pre - pre.max(axis=2, keepdims=True)
        np.exp(e, out=e)
        e /= e.sum(axis=2, keepdims=True)
        e *= m
    else:
        raise DomainError(f"attention axis must be 'nodes' or 'features', got {axis!r}")
    return e


def attention_pool(pre: Mat, z: Mat, mask, axis: str) -> Mat:
    """Per-graph softmax(pre)^T @ z over a stack, one graph per output row.

    `pre` is the (B*N) x F attention-tower stack, `z` the (B*N) x F'
    features-tower stack and `mask` the B x N real-node mask. The weights
    are `attention_softmax(pre, mask, axis)`; row b of the B x (F*F')
    result is graph b's F x F' pooled matrix in row-major order.
    """
    pre, z = as_mat(pre), as_mat(z)
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ShapeError(f"attention_pool: mask must be B x N, got shape {mask.shape}")
    b, n = mask.shape
    if pre.rows != b * n or z.rows != b * n:
        raise ShapeError(
            f"attention_pool: {pre.rows} and {z.rows} rows for {b} graphs of {n} nodes"
        )
    f, fz = pre.cols, z.cols
    att = attention_softmax(pre.data.reshape(b, n, f), mask, axis)
    z3 = z.data.reshape(b, n, fz)
    pooled = np.matmul(att.transpose(0, 2, 1), z3)
    red, dots = (1, "bnf,bnf->bf") if axis == "nodes" else (2, "bnf,bnf->bn")
    want_z = z.is_tracked

    def vjp(g):
        g3 = g.reshape(b, f, fz)
        gz = np.matmul(att, g3).reshape(b * n, fz) if want_z else None
        ga = np.matmul(z3, g3.transpose(0, 2, 1))
        ga -= np.expand_dims(np.einsum(dots, att, ga), red)
        ga *= att
        return ga.reshape(b * n, f), gz

    return _result(pooled.reshape(b, f * fz), (pre, z), vjp)


def cross_entropy(z: Mat, y: Mat) -> Mat:
    """Categorical cross-entropy, summed over all rows.

    `z` rows must be probability distributions (sum to 1 within 1e-6)
    and `y` rows one-hot targets. Probabilities are clamped at 1e-12
    before the logarithm. Returns a 1x1 matrix.
    """
    z, y = as_mat(z), as_mat(y)
    if z.shape != y.shape:
        raise ShapeError(
            f"cross_entropy: shapes differ, {z.rows}x{z.cols} vs {y.rows}x{y.cols}"
        )
    row_sums = z.data.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-6:
        raise DomainError("cross_entropy: rows of z must sum to 1 within 1e-6")
    onehot = np.isin(y.data, (0.0, 1.0)).all() and (y.data.sum(axis=1) == 1.0).all()
    if not onehot:
        raise DomainError("cross_entropy: rows of y must be one-hot")

    zc = np.maximum(z.data, CROSS_ENTROPY_EPS)
    loss = -(y.data * np.log(zc)).sum()
    live = z.data >= CROSS_ENTROPY_EPS
    yd = y.data

    def vjp(g):
        gz = g[0, 0] * np.where(live, -yd / zc, 0.0)
        gy = g[0, 0] * -np.log(zc)
        return gz, gy

    return _result(np.array([[loss]]), (z, y), vjp)


def backward(tape: Tape, loss: Mat) -> dict[str, Mat]:
    """Gradients of a scalar tape node with respect to every leaf.

    Returns a mapping from leaf name to a gradient Mat of the leaf's
    shape. Leaves the loss does not depend on are absent (zero
    gradient). Deterministic for a fixed tape.
    """
    if loss._tape is not tape or loss._nid is None:
        raise TapeError("backward: loss is not a node of this tape")
    if loss.shape != (1, 1):
        raise TapeError(f"backward: root must be 1x1, got {loss.rows}x{loss.cols}")

    grads: list[np.ndarray | None] = [None] * len(tape._nodes)
    grads[loss._nid] = np.ones((1, 1))
    for nid in range(len(tape._nodes) - 1, -1, -1):
        g = grads[nid]
        node = tape._nodes[nid]
        if g is None or node.vjp is None:
            continue
        grads[nid] = None  # consumed: only leaf gradients outlive the walk
        for pid, contrib in zip(node.parents, node.vjp(g)):
            if pid is None or contrib is None:
                continue
            grads[pid] = contrib if grads[pid] is None else grads[pid] + contrib

    return {name: Mat._adopt(grads[nid]) for name, nid in tape._leaves.items()
            if grads[nid] is not None}


@dataclass
class GradCheckEntry:
    name: str
    row: int
    col: int
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    """Per-entry comparison of tape gradients against central differences."""

    step: float
    tol: float
    max_rel_err: float = 0.0
    checked: int = 0
    failures: list[GradCheckEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def grad_check(
    f: Callable[[Mapping[str, Mat]], Mat],
    params: Mapping[str, Mat],
    step: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare tape gradients of f(params) with central finite differences.

    `f` must accept a mapping of parameter Mats and return a 1x1 Mat; it
    is called once with tracked leaves to obtain analytic gradients and
    then twice per parameter entry at x +- step. The relative error
    denominator is max(1, |analytic|, |numeric|).
    """
    if step <= 0:
        raise DomainError("grad_check: step must be positive")
    tape = Tape()
    tracked = {k: tape.leaf(v, k) for k, v in params.items()}
    loss = f(tracked)
    if not isinstance(loss, Mat) or loss._tape is not tape:
        raise TapeError("grad_check: f must return a matrix tracked on the tape")
    analytic = backward(tape, loss)

    report = GradCheckReport(step=step, tol=tol)
    base = dict(params)
    for name, mat in params.items():
        an = analytic[name].data if name in analytic else np.zeros(mat.shape)
        for i in range(mat.rows):
            for j in range(mat.cols):
                fd = np.array(mat.data)
                fd[i, j] = mat.data[i, j] + step
                base[name] = Mat(fd)
                lp = f(base).item()
                fd[i, j] = mat.data[i, j] - step
                base[name] = Mat(fd)
                lm = f(base).item()
                num = (lp - lm) / (2.0 * step)
                rel = abs(an[i, j] - num) / max(1.0, abs(an[i, j]), abs(num))
                report.checked += 1
                report.max_rel_err = max(report.max_rel_err, rel)
                if rel > tol:
                    report.failures.append(
                        GradCheckEntry(name, i, j, float(an[i, j]), num, rel)
                    )
        base[name] = mat
    return report
