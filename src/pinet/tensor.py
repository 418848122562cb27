"""Dense float64 matrices, the model's two fused ops and their VJPs.

A `Mat` is an immutable 2-D float64 matrix, safe to share across
threads. The model in `model.py` differentiates itself: it composes
`propagate` and `attention_pool`, each of which returns its value and a
hand-written vjp, with plain numpy products, relu, softmax and
cross-entropy, and runs the VJPs in reverse order. `grad_check` holds
such a gradient, taken once, to central differences of the loss alone.

A stack of B graphs padded to N nodes travels as one (B*N) x F matrix
of node states, graph k in rows k*N..(k+1)*N-1, beside the `graph.Stack`
that `graph.make_batch` built, one per size class of a batch: the
features stack, a B x N x N adjacency stack, its degree column and a
B x N node mask, all plain read-only arrays. Both ops read one Stack:
`propagate` applies the At(p, q) operator of every graph without
materialising it, and `attention_pool` turns the attention-tower stack
into per-graph pooled rows. At(p, q) itself is built in plain numpy by
`graph.propagation_matrix`; the `fused-propagation` selfcheck holds
`propagate` to it in value and to its closed-form derivatives in p and
q.

The ops and their VJPs write every array the size of a stack into a
`Workspace`, with `out=`: the caller names the result's buffer, and
temporaries take the shared roles that `Workspace` lists. `train.fit`
and `train.evaluate` hold one workspace for the whole call, so a step
after the first writes into pages it already holds instead of
allocating, and faulting in, fresh ones.

`Tape`, `Tape.leaf` and `backward` are a small adapter over that chain
for callers that drive a step through `model.loss_batch`: the loss of
parameters that are leaves of a tape keeps its vjp on the tape, and
`backward` runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError, NumericalError, ShapeError, TapeError


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


def _finite(a: np.ndarray) -> np.ndarray:
    """`a` itself, or NumericalError if a computation on finite inputs
    overflowed into NaN or Inf."""
    if not np.isfinite(a).all():
        raise NumericalError("an operation produced NaN or Inf entries")
    return a


class Mat:
    """Immutable dense matrix of 64-bit floats in row-major layout.

    The one rule for real data: a Mat is built only from integers or
    floats (no bools, strings, complex or other objects, even nested in
    lists) that are finite, else DomainError. Every computed result is
    checked finite, so NaN or Inf entries surface at the operation that
    produced them, as NumericalError, instead of corrupting downstream
    state.
    """

    __slots__ = ("_a", "_tape")

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

    @classmethod
    def _adopt(cls, arr) -> "Mat":
        """Zero-copy wrap of a freshly computed array the caller owns
        (or a read-only view of another Mat's storage)."""
        m = cls.__new__(cls)
        m._init_from(_finite(np.ascontiguousarray(arr, dtype=np.float64)))
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
    def scalar(x: float) -> "Mat":
        """1x1 Mat of the real number `x`, by the rule of `Mat`."""
        return Mat([[x]])

    def __repr__(self) -> str:
        tag = " tracked" if self.is_tracked else ""
        return f"Mat({self.rows}x{self.cols}{tag})\n{self._a!r}"


class Tape:
    """Parameter leaves, and the vjp of the one loss computed from them.

    `leaf` hands back a tracked copy of a parameter; `model.loss_batch`
    on parameters holding such leaves stores its loss's vjp here, and
    `backward` runs it. The tape keeps the leaves' names only, never a
    Mat, so a dropped step is freed by reference counting alone.
    """

    def __init__(self):
        self._names: list[str] = []
        self._root: tuple[np.ndarray, Callable[[], dict]] | None = None

    def __len__(self) -> int:
        return len(self._names)

    def leaf(self, value: Mat | np.ndarray, name: str) -> Mat:
        """Register a parameter leaf and return its tracked handle. A leaf
        must sit in the parameters under its own name."""
        if name in self._names:
            raise TapeError(f"duplicate leaf name {name!r}")
        out = Mat._adopt(as_mat(value).data)  # shares the read-only storage
        out._tape = self
        self._names.append(name)
        return out


def _leaves_of(values: Mapping[str, Mat]) -> tuple[Tape | None, list[str]]:
    """The tape whose leaves are among `values`, and their names; TapeError
    if leaves of two tapes are mixed."""
    tapes = {m._tape for m in values.values() if m._tape is not None}
    if len(tapes) > 1:
        raise TapeError("parameters are leaves of different tapes")
    return (tapes.pop() if tapes else None), [k for k, m in values.items() if m._tape is not None]


def backward(tape: Tape, loss: Mat) -> dict[str, Mat]:
    """Gradients of `loss`, which `model.loss_batch` computed from leaves
    of `tape`, with respect to each of those leaves."""
    if tape._root is None or loss.data is not tape._root[0]:
        raise TapeError("backward: loss did not come from model.loss_batch on this tape")
    return {k: Mat._adopt(g) for k, g in tape._root[1]().items()}


def as_mat(x) -> Mat:
    if isinstance(x, Mat):
        return x
    return Mat(x)


def _pq_scalar(v, name: str) -> Mat:
    """`v` as a 1x1 Mat in [0, 1]: the one range rule of p and q."""
    m = as_mat(v)
    if m.shape != (1, 1):
        raise ShapeError(f"{name} must be a scalar or 1x1, got {m.rows}x{m.cols}")
    if not 0.0 <= m.data[0, 0] <= 1.0:
        raise DomainError(f"{name}={m.data[0, 0]} outside [0, 1]")
    return m


class Workspace:
    """Buffers that outlive a step, so that the next step writes its
    large arrays into pages it already holds.

    `take(key, shape)` hands out an uninitialised array of `shape`, a
    view of the buffer kept under `key`, which grows to the largest size
    a step has asked for and never beyond it. Arrays taken under one key
    share storage, so a key names one role whose arrays are never live
    at once. Results the model keeps for its vjp are taken under keys
    the caller names; temporaries take shared roles, each dead before
    the next array of its role is taken:

    - "scratch": `propagate`'s H*s and its vjp's G*s, and `_dense_layer`'s
      backward stack;
    - "mask": a relu's backward mask (bool);
    - "gz", "ga": `attention_pool`'s vjp results, consumed by the towers;
    - "gh": first the pooled rows' gradient, which `attention_pool`'s vjp
      reads before it returns, then `propagate`'s vjp result, consumed
      by the layer below.

    `train.fit` and `train.evaluate` own one each for the length of the
    call, and every single-step entry point takes a fresh one, so no
    workspace is shared between calls or threads, and no array handed
    back to a caller lives in one.
    """

    __slots__ = ("_bufs",)

    def __init__(self):
        self._bufs: dict = {}

    def take(self, key, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        # A step takes a few dozen arrays, some of them tiny, so the
        # common case is one constructor call on the kept bytes.
        try:
            return np.ndarray(shape, dtype, self._bufs[key])
        except (KeyError, TypeError):  # no buffer yet, or one too small for `shape`
            buf = self._bufs[key] = np.empty(math.prod(shape) * np.dtype(dtype).itemsize, np.uint8)
            return np.ndarray(shape, dtype, buf)


def propagate(stack, h: np.ndarray, p, q, ws: Workspace, key):
    """At(p, q) @ H for every graph of a `graph.Stack`, without building At.

    `h` is the (B*N) x F stack of node states, graph k in rows
    k*N..(k+1)*N-1. Each block is computed in the factored form
    s * ((A + qI)(s * H)) with s = (p + (1-p)*deg)^(-1/2) per node from
    `stack.adj` and `stack.deg`, and 0^(-1/2) := 0, the operator that
    `graph.propagation_matrix` builds explicitly. p and q are floats in
    [0, 1] or 1x1 matrices. Returns the stack, written to `ws` under
    `key`, and its vjp `(g, want_pq) -> (gh, gp, gq)`, with gh under
    "gh" and gp and gq 1x1 arrays, or None unless `want_pq`. The vjp
    reuses the operator, as A = A^T for every checked graph
    `make_batch` stacks.
    """
    adj, deg = stack.adj, stack.deg
    b, n, _ = adj.shape
    if h.shape[0] != b * n:
        raise ShapeError(f"propagate: {h.shape[0]} state rows for {b} graphs of {n} nodes")
    pv, qv = _pq_scalar(p, "p").data[0, 0], _pq_scalar(q, "q").data[0, 0]
    mixed = pv + (1.0 - pv) * deg  # >= 0: p in [0, 1], deg >= 0
    s = np.zeros_like(mixed)
    np.power(mixed, -0.5, out=s, where=mixed > 0)

    f = h.shape[1]
    u = np.multiply(h, s, out=ws.take("scratch", h.shape))
    out = np.matmul(adj, u.reshape(b, n, f), out=ws.take(key, (b, n, f))).reshape(b * n, f)
    u *= qv
    out += u
    out *= s

    def vjp(g, want_pq):
        w = np.multiply(g, s, out=ws.take("scratch", g.shape))
        gh = np.matmul(adj, w.reshape(b, n, f), out=ws.take("gh", (b, n, f))).reshape(b * n, f)
        w *= qv
        gh += w
        gh *= s
        if not want_pq:
            return gh, None, None
        # With s = m^(-1/2), ds/dm = -s^3/2 and dm/dp = 1 - deg; the sum
        # over each node's row of s_i * dL/ds_i splits into the outer
        # factor (g . out) and the inner one (gh . H).
        s2 = s[:, 0] ** 2
        s_ds = np.einsum("ij,ij->i", g, out) + np.einsum("ij,ij->i", gh, h)
        gp = -0.5 * (s2 * (1.0 - deg[:, 0])) @ s_ds
        gq = s2 @ np.einsum("ij,ij->i", g, h)
        return gh, np.array([[gp]]), np.array([[gq]])

    return _finite(out), vjp


def attention_softmax(pre: np.ndarray, mask: np.ndarray, axis: str, ws: Workspace,
                      key) -> np.ndarray:
    """Attention weights for a B x N x F stack of tower outputs, written
    to `ws` under `key`.

    axis="nodes": each (graph, feature) column becomes a distribution over
    the graph's real nodes (mask True; `make_batch` marks n_real >= 1 of
    them); axis="features": each node's row becomes a distribution over
    the F positions and padded rows are then zeroed. Padded nodes get
    exactly 0 either way.
    """
    m = mask[:, :, None]
    e = ws.take(key, pre.shape)
    if axis == "nodes":
        e.fill(-np.inf)
        np.copyto(e, pre, where=m)
        e -= e.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        e /= e.sum(axis=1, keepdims=True)
    elif axis == "features":
        np.subtract(pre, pre.max(axis=2, keepdims=True), out=e)
        np.exp(e, out=e)
        e /= e.sum(axis=2, keepdims=True)
        e *= m
    else:
        raise DomainError(f"attention axis must be 'nodes' or 'features', got {axis!r}")
    return e


def attention_pool(stack, pre: np.ndarray, z: np.ndarray, axis: str, ws: Workspace, key):
    """Per-graph softmax(pre)^T @ z over the node states of a
    `graph.Stack`, one graph per output row.

    `pre` is the (B*N) x F attention-tower stack and `z` the (B*N) x F'
    features-tower stack. The weights are `attention_softmax(pre,
    stack.mask, axis)`, kept in `ws` under (key, "att"); row k of the
    B x (F*F') result, under `key`, is graph k's F x F' pooled matrix in
    row-major order. Returns the result and its vjp `g -> (gpre, gz)`,
    under "ga" and "gz".
    """
    b, n = stack.mask.shape
    if pre.shape[0] != b * n or z.shape[0] != b * n:
        raise ShapeError(
            f"attention_pool: {pre.shape[0]} and {z.shape[0]} rows for {b} graphs of {n} nodes"
        )
    f, fz = pre.shape[1], z.shape[1]
    att = attention_softmax(pre.reshape(b, n, f), stack.mask, axis, ws, (key, "att"))
    z3 = z.reshape(b, n, fz)
    pooled = np.matmul(att.transpose(0, 2, 1), z3, out=ws.take(key, (b, f, fz)))
    red, dots = (1, "bnf,bnf->bf") if axis == "nodes" else (2, "bnf,bnf->bn")

    def vjp(g):
        g3 = g.reshape(b, f, fz)
        gz = np.matmul(att, g3, out=ws.take("gz", (b, n, fz))).reshape(b * n, fz)
        ga = np.matmul(z3, g3.transpose(0, 2, 1), out=ws.take("ga", (b, n, f)))
        ga -= np.expand_dims(np.einsum(dots, att, ga), red)
        ga *= att
        return ga.reshape(b * n, f), gz

    return _finite(pooled.reshape(b, f * fz)), vjp


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
    """Per-entry comparison of analytic gradients against central differences."""

    step: float
    tol: float
    max_rel_err: float = 0.0
    checked: int = 0
    failures: list[GradCheckEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def grad_check(
    loss: Callable[[Mapping[str, Mat]], float],
    grads: Mapping[str, Mat],
    params: Mapping[str, Mat],
    step: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients with central finite differences of `loss`.

    `grads` maps names to the analytic gradients at `params`, a missing
    name meaning a zero gradient. `loss` maps a mapping of parameter Mats
    to a float; it is called twice per parameter entry, at x +- step, so
    it should compute the loss alone. The relative error denominator is
    max(1, |analytic|, |numeric|).
    """
    if step <= 0:
        raise DomainError("grad_check: step must be positive")
    report = GradCheckReport(step=step, tol=tol)
    base = dict(params)
    for name, mat in params.items():
        an = grads[name].data if name in grads else np.zeros(mat.shape)
        for i in range(mat.rows):
            for j in range(mat.cols):
                fd = np.array(mat.data)
                fd[i, j] = mat.data[i, j] + step
                base[name] = Mat(fd)
                lp = loss(base)
                fd[i, j] = mat.data[i, j] - step
                base[name] = Mat(fd)
                lm = loss(base)
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
