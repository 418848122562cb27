"""Graph data model: adjacency/feature pairs, node relabelling, batching.

A graph is a symmetric {0,1} adjacency matrix plus a node-feature matrix,
both of some stored size N. Its real nodes are always the leading
`n_real` positions and every later row, column and feature row is zero:
the loaders store each graph at its own size (N = n_real), and
`pad_graph` zero-extends one. Relabelling permutes only the real nodes.
`make_batch` groups the graphs of a batch by the power-of-two class of
their stored N and stacks each group, padded to its own largest N, for
the model's forward pass. The message-passing operator built here
interpolates between the raw adjacency and its symmetrically
degree-normalised form, with a self-loop weight, controlled by two
scalars p and q in [0, 1].
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .tensor import Mat, _pq_scalar, _typed_array, as_mat


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """Graph with a class label, stored at N >= n_real nodes.

    The real nodes are the leading `n_real >= 1` positions; the adjacency
    rows and columns and the feature rows of every later (padded)
    position are exactly zero.
    """

    n_real: int
    adjacency: Mat
    features: Mat
    label: int

    def __post_init__(self):
        a, x = self.adjacency, self.features
        ad = _check_adjacency(a)
        if x.rows != a.rows:
            raise ShapeError(
                f"features have {x.rows} rows for {a.rows} adjacency rows"
            )
        _check_int_fields(self, n_real=1, label=0)
        if self.n_real > a.rows:
            raise DomainError(f"n_real={self.n_real} outside [1, {a.rows}]")
        if np.diagonal(ad).any():
            raise DomainError("adjacency diagonal must be zero (no self-loops)")
        # the adjacency is symmetric, so zero padded rows mean zero columns
        if ad[self.n_real:].any():
            raise DomainError("adjacency rows/cols of padded nodes must be zero")
        if x.data[self.n_real:].any():
            raise DomainError("feature rows of padded nodes must be zero")

    @property
    def n(self) -> int:
        """Stored node count N, padding included."""
        return self.adjacency.rows

    @property
    def d(self) -> int:
        return self.features.cols


def _check_adjacency(a: Mat) -> np.ndarray:
    """The adjacency rule: square, 0/1 entries, symmetric. Returns the entries."""
    if a.rows != a.cols:
        raise ShapeError(f"adjacency must be square, got {a.rows}x{a.cols}")
    ad = a.data
    if not np.isin(ad, (0.0, 1.0)).all():
        raise DomainError("adjacency entries must be 0 or 1")
    if (ad != ad.T).any():
        raise DomainError("adjacency must be symmetric")
    return ad


def _int_array(values, what: str) -> np.ndarray:
    """`values` (up to 2-D) as an integer array, else DomainError(`what`):
    the one rule for integer arrays. No floats, strings, ragged nesting or
    bools, even among ints; an empty input passes whatever its dtype."""
    return _typed_array(values, "iu", what)


def _is_int(v, low: int | None = None, high: int | None = None) -> bool:
    """An integer, Python or numpy but not bool, in [low, high)."""
    return (isinstance(v, numbers.Integral) and not isinstance(v, bool)
            and (low is None or v >= low) and (high is None or v < high))


def _check_int_fields(obj, **lows: int):
    """Type-check a dataclass's integer fields (a config's, or a graph's
    `n_real` and `label`) against their low bounds, storing numpy
    integers back as (JSON-serialisable) ints."""
    for name, low in lows.items():
        v = getattr(obj, name)
        if not _is_int(v, low):
            raise DomainError(f"{name} must be an integer >= {low}, got {v!r}")
        object.__setattr__(obj, name, int(v))


# The most nodes a graph may have. Every graph is stored as a dense
# N x N adjacency, 128 MiB at the cap, so a larger count is refused
# before anything is allocated: a few bytes of input must not ask for
# gigabytes. The largest common molecule benchmark, PROTEINS, has 620.
MAX_NODES = 4096


def graph_from_edges(
    n: int,
    edges,
    label: int = 0,
    features: Mat | None = None,
    n_real: int | None = None,
) -> LabeledGraph:
    """Build a graph from an undirected edge list over nodes [0, n).

    `edges` is a k x 2 integer array or a sequence of integer pairs;
    anything else (floats, strings, bools, rows that are not pairs), a
    node outside [0, n_real) or a self-loop raises DomainError. This is
    the one check of an edge list, for every loader. More than MAX_NODES
    nodes raise DomainError before anything is allocated. Features
    default to an all-ones column on the real nodes (zero on padding).
    """
    if not _is_int(n, 0):
        raise DomainError(f"n must be an integer >= 0, got {n!r}")
    if n > MAX_NODES:
        raise DomainError(f"{n} nodes exceed the cap of {MAX_NODES} per graph")
    n_real = n if n_real is None else n_real
    if not _is_int(n_real, 0, n + 1):
        raise DomainError(f"n_real={n_real!r} must be an integer in [0, {n}]")
    not_pairs = "edges must be a list of [u, v] integer pairs"
    e = _int_array(edges, not_pairs)
    if not e.size:
        e = np.zeros((0, 2), dtype=np.int64)
    if e.ndim != 2 or e.shape[1] != 2:
        raise DomainError(not_pairs)
    u, v = e.T
    outside = (u < 0) | (v < 0) | (u >= n_real) | (v >= n_real)
    if outside.any():
        k = int(outside.argmax())
        raise DomainError(f"edge ({u[k]},{v[k]}) outside real node range [0,{n_real})")
    loops = u == v
    if loops.any():
        raise DomainError(f"self-loop at node {u[loops.argmax()]}")
    a = np.zeros((n, n))
    a[u, v] = a[v, u] = 1.0
    if features is None:
        x = np.zeros((n, 1))
        x[:n_real, 0] = 1.0
        features = Mat(x)
    return LabeledGraph(n_real, Mat(a), features, label)


def edges_of(g: LabeledGraph) -> tuple[tuple[int, int], ...]:
    """The graph's undirected edges as (u, v) pairs with u < v, in
    row-major order; `graph_from_edges` rebuilds the adjacency from them."""
    return tuple(map(tuple, np.argwhere(np.triu(g.adjacency.data, k=1)).tolist()))


class Permutation:
    """Bijection on [0, n): node v is relabelled to mapping[v]. The one
    check of a permutation; entries follow `graph_from_edges`' integer
    rule, so bools, floats and numeric strings raise DomainError."""

    __slots__ = ("mapping",)

    def __init__(self, mapping):
        what = "permutation must be a bijection on [0, n) given as integers"
        m = _int_array(mapping, what)
        if m.ndim != 1 or not np.array_equal(np.sort(m), np.arange(m.size)):
            raise DomainError(what)
        self.mapping = tuple(m.tolist())

    def __len__(self) -> int:
        return len(self.mapping)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.mapping == other.mapping

    def __repr__(self) -> str:
        return f"Permutation({list(self.mapping)})"

    def matrix(self) -> Mat:
        """Orthogonal 0/1 matrix P with (P X)[new] = X[old]."""
        n = len(self.mapping)
        p = np.zeros((n, n))
        p[np.asarray(self.mapping), np.arange(n)] = 1.0
        return Mat(p)


def _as_rng(seed) -> np.random.Generator:
    """The seed rule: an integer seeds a fresh Generator, and a Generator
    is used as it is, so callers drawing many times can pass one stream."""
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def random_permutation(n: int, seed) -> Permutation:
    """Uniform random permutation via the Fisher-Yates shuffle; `seed`
    follows `_as_rng`."""
    if not _is_int(n, 1):
        raise DomainError(f"permutation size must be an integer >= 1, got {n!r}")
    rng = _as_rng(seed)
    idx = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return Permutation(idx)


def permute_graph(g: LabeledGraph, perm: Permutation) -> LabeledGraph:
    """Relabel the real nodes: new index perm[v] holds what was at index
    v, for v in [0, n_real). `perm` has length `g.n_real`, and padding
    stays behind the real nodes."""
    if len(perm) != g.n_real:
        raise ShapeError(f"permutation length {len(perm)} != n_real={g.n_real}")
    inv = np.concatenate([np.argsort(np.asarray(perm.mapping)), np.arange(g.n_real, g.n)])
    a = g.adjacency.data[np.ix_(inv, inv)]
    x = g.features.data[inv, :]
    return LabeledGraph(g.n_real, Mat(a), Mat(x), g.label)


def pad_graph(g: LabeledGraph, n_target: int) -> LabeledGraph:
    """Zero-extend adjacency and features to n_target nodes."""
    if not _is_int(n_target, g.n):  # g.n >= g.n_real
        raise DomainError(f"cannot pad to {n_target!r}: need an integer >= current size {g.n}")
    if n_target == g.n:
        return g
    extra = n_target - g.n
    a = np.pad(g.adjacency.data, ((0, extra), (0, extra)))
    x = np.pad(g.features.data, ((0, extra), (0, 0)))
    return LabeledGraph(g.n_real, Mat(a), Mat(x), g.label)


@dataclass(frozen=True, eq=False)
class Stack:
    """Graphs of one size class padded to a shared N, for one pass of
    `tensor.propagate` and `tensor.attention_pool`.

    N is the largest `g.n` among its B graphs. Graph k (batch row
    `rows[k]`) has adjacency `adj[k]`, and features and degrees in rows
    k*N..(k+1)*N-1 of `x` and `deg`, each in its leading g.n positions
    and zero beyond them. Its real nodes lead, so its node mask
    `mask[k]` is True on the leading `g.n_real` positions and False
    beyond. Every array is read-only, and all but the bool `mask` and
    the integer `rows` hold float64.
    """

    rows: np.ndarray  # B: the batch rows of its graphs, ascending
    adj: np.ndarray  # B x N x N
    x: np.ndarray  # (B*N) x d
    mask: np.ndarray  # B x N
    deg: np.ndarray  # (B*N) x 1 node degrees, 0 on padding


@dataclass(frozen=True, eq=False)
class Batch:
    """Graphs sharing d, with one-hot labels, as one stack per size class.

    A graph's size class is `(g.n - 1).bit_length()`, the power of two
    its stored node count rounds up to. `stacks` holds one `Stack` per
    class present, smallest class first; a batch whose graphs share a
    class is a single stack padded to its largest N. Row b of `labels`
    belongs to `graphs[b]`. Only `make_batch` builds a Batch, from
    checked graphs.
    """

    graphs: tuple[LabeledGraph, ...]
    labels: np.ndarray  # B x C one-hot, read-only
    stacks: tuple[Stack, ...]

    def __len__(self) -> int:
        return len(self.graphs)


def _stack(graphs, rows: np.ndarray, d: int) -> Stack:
    """The Stack of `graphs[r]` for r in `rows`, padded to their largest N."""
    members = [graphs[r] for r in rows]
    b, n = len(members), max(g.n for g in members)
    adj = np.zeros((b, n, n))
    x = np.zeros((b, n, d))
    mask = np.zeros((b, n), dtype=bool)
    for k, g in enumerate(members):
        adj[k, :g.n, :g.n] = g.adjacency.data
        x[k, :g.n] = g.features.data
        mask[k, :g.n_real] = True
    x = x.reshape(b * n, d)
    deg = adj.sum(axis=2).reshape(-1, 1)
    for arr in (rows, adj, x, mask, deg):
        arr.setflags(write=False)
    return Stack(rows, adj, x, mask, deg)


def make_batch(graphs, class_count: int) -> Batch:
    """Batch graphs of any sizes and one feature width d, with one-hot
    labels over `class_count` classes: each size class of stored node
    counts becomes one stack, its graphs in input order."""
    graphs = tuple(graphs)
    if not graphs:
        raise DomainError("batch must contain at least one graph")
    if not _is_int(class_count, 1):
        raise DomainError(f"class_count must be an integer >= 1, got {class_count!r}")
    d = graphs[0].d
    onehot = np.zeros((len(graphs), class_count))
    for i, g in enumerate(graphs):
        if g.d != d:
            raise ShapeError(f"graph {i} has d={g.d}, expected d={d}")
        if g.label >= class_count:
            raise DomainError(f"graph {i} label {g.label} >= class count {class_count}")
        onehot[i, g.label] = 1.0
    onehot.setflags(write=False)
    size_class = np.array([(g.n - 1).bit_length() for g in graphs])
    stacks = tuple(_stack(graphs, np.flatnonzero(size_class == c), d)
                   for c in np.unique(size_class))
    return Batch(graphs, onehot, stacks)


# The four (p, q) extremes, where At(p, q) is A, A+I or their degree-
# normalised forms (see `propagation_matrix`).
CORNERS = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))


def propagation_matrix(a: Mat, p, q) -> Mat:
    """Message-passing matrix (pI+(1-p)D)^{-1/2} (A+qI) (pI+(1-p)D)^{-1/2}.

    p interpolates between no normalisation (p=1) and symmetric degree
    normalisation (p=0); q weights self-loops. At p=1 the scaling factor
    is exactly 1 per node and at q=0 no self-loop is added, so the four
    (p,q) corners reproduce A, A+I, and their degree-normalised forms
    exactly. A zero diagonal entry (isolated node at p=0) maps to 0
    under the inverse square root, keeping such nodes inert.

    p and q are floats in [0,1] or 1x1 matrices, read by value even when
    tracked on a tape. The result is a plain, untracked matrix: this is
    the reference that `tensor.propagate` and its gradients are checked
    against, not a layer of the model.
    """
    ad = _check_adjacency(as_mat(a))
    pv, qv = _pq_scalar(p, "p").item(), _pq_scalar(q, "q").item()

    mixed = pv + (1.0 - pv) * ad.sum(axis=1, keepdims=True)  # >= 0: p in [0, 1], deg >= 0
    pos = mixed > 0
    s = np.zeros_like(mixed)  # N x 1 column of diagonal scale factors
    s[pos] = mixed[pos] ** -0.5
    return Mat((ad + qv * np.eye(len(ad))) * s.T * s)
