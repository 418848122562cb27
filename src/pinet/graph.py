"""Graph data model: padded adjacency/feature pairs and node relabelling.

A graph is a symmetric {0,1} adjacency matrix plus a node-feature matrix,
both zero-padded to a size N; `make_batch` pads the graphs of a batch
to its largest N and stacks them for one forward pass. The
message-passing operator built here interpolates between the raw
adjacency and its symmetrically degree-normalised form, with a self-loop
weight, controlled by two scalars p and q in [0, 1].
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError
from .tensor import Mat, _pq_scalar, _typed_array, as_mat


def _leading_mask(n_real: int, n: int) -> np.ndarray:
    m = np.zeros(n, dtype=bool)
    m[:n_real] = True
    return m


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """Padded graph with a class label.

    `node_mask[i]` is True for the positions holding real nodes; by
    default these are the leading `n_real` indices. Relabelling a padded
    graph permutes the mask along with everything else, so real nodes
    may occupy arbitrary positions afterwards. Adjacency and feature
    entries at padded positions are exactly zero.
    """

    n_real: int
    adjacency: Mat
    features: Mat
    label: int
    node_mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        a, x = self.adjacency, self.features
        ad = _check_adjacency(a)
        if x.rows != a.rows:
            raise ShapeError(
                f"features have {x.rows} rows for {a.rows} adjacency rows"
            )
        _check_int_fields(self, n_real=0, label=0)
        if self.n_real > a.rows:
            raise DomainError(f"n_real={self.n_real} outside [0, {a.rows}]")
        mask = self.node_mask
        if mask is None:
            mask = _leading_mask(self.n_real, a.rows)
        else:
            mask = np.asarray(mask, dtype=bool).reshape(-1)
            if mask.size != a.rows:
                raise ShapeError(f"node_mask length {mask.size} != N={a.rows}")
        if int(mask.sum()) != self.n_real:
            raise DomainError("node_mask true-count must equal n_real")
        mask.setflags(write=False)
        object.__setattr__(self, "node_mask", mask)

        if np.diagonal(ad).any():
            raise DomainError("adjacency diagonal must be zero (no self-loops)")
        pad = ~mask
        if ad[pad, :].any() or ad[:, pad].any():
            raise DomainError("adjacency rows/cols of padded nodes must be zero")
        if x.data[pad, :].any():
            raise DomainError("feature rows of padded nodes must be zero")

    @property
    def n(self) -> int:
        """Padded node count N."""
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
    the one check of an edge list, for every loader. Features default to an all-ones column on the real
    nodes (zero on padding).
    """
    if not _is_int(n, 0):
        raise DomainError(f"n must be an integer >= 0, got {n!r}")
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

    def inverse(self) -> "Permutation":
        inv = np.argsort(np.asarray(self.mapping))
        return Permutation(inv)

    def matrix(self) -> Mat:
        """Orthogonal 0/1 matrix P with (P X)[new] = X[old]."""
        n = len(self.mapping)
        p = np.zeros((n, n))
        p[np.asarray(self.mapping), np.arange(n)] = 1.0
        return Mat(p)


def random_permutation(n: int, seed) -> Permutation:
    """Uniform random permutation via the Fisher-Yates shuffle.

    `seed` is an integer or a numpy Generator (so callers drawing many
    permutations can pass one stream).
    """
    if not _is_int(n, 1):
        raise DomainError(f"permutation size must be an integer >= 1, got {n!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    idx = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return Permutation(idx)


def permute_graph(g: LabeledGraph, perm: Permutation) -> LabeledGraph:
    """Relabel nodes: new index perm[v] holds what was at index v."""
    if len(perm) != g.n:
        raise ShapeError(f"permutation length {len(perm)} != N={g.n}")
    inv = np.argsort(np.asarray(perm.mapping))
    a = g.adjacency.data[np.ix_(inv, inv)]
    x = g.features.data[inv, :]
    mask = g.node_mask[inv]
    return LabeledGraph(g.n_real, Mat(a), Mat(x), g.label, node_mask=mask)


def pad_graph(g: LabeledGraph, n_target: int) -> LabeledGraph:
    """Zero-extend adjacency and features to n_target nodes."""
    if not _is_int(n_target, g.n):  # g.n >= g.n_real
        raise DomainError(f"cannot pad to {n_target!r}: need an integer >= current size {g.n}")
    if n_target == g.n:
        return g
    extra = n_target - g.n
    a = np.pad(g.adjacency.data, ((0, extra), (0, extra)))
    x = np.pad(g.features.data, ((0, extra), (0, 0)))
    mask = np.concatenate([g.node_mask, np.zeros(extra, dtype=bool)])
    return LabeledGraph(g.n_real, Mat(a), Mat(x), g.label, node_mask=mask)


@dataclass(frozen=True, eq=False)
class Batch:
    """Graphs sharing d, stacked for one forward pass.

    N is the largest `g.n` in the batch. Graph b's adjacency is
    `adj[b]`, its features and degrees rows b*N..(b+1)*N-1 of `x` and
    `deg`, its node mask `mask[b]`, each in its leading g.n positions
    and zero (False) beyond them. Only `make_batch` builds a Batch.
    """

    graphs: tuple[LabeledGraph, ...]
    labels: Mat  # B x C one-hot
    adj: np.ndarray  # B x N x N
    x: Mat  # (B*N) x d
    mask: np.ndarray  # B x N
    deg: np.ndarray  # (B*N) x 1 node degrees, 0 on padding

    def __len__(self) -> int:
        return len(self.graphs)


def make_batch(graphs, class_count: int) -> Batch:
    """Stack graphs of any sizes and one feature width d, padding each
    to the largest N, with one-hot labels over `class_count` classes."""
    graphs = tuple(graphs)
    if not graphs:
        raise DomainError("batch must contain at least one graph")
    if not _is_int(class_count, 1):
        raise DomainError(f"class_count must be an integer >= 1, got {class_count!r}")
    b, n, d = len(graphs), max(g.n for g in graphs), graphs[0].d
    onehot = np.zeros((b, class_count))
    adj = np.zeros((b, n, n))
    x = np.zeros((b, n, d))
    mask = np.zeros((b, n), dtype=bool)
    for i, g in enumerate(graphs):
        if g.d != d:
            raise ShapeError(f"graph {i} has d={g.d}, expected d={d}")
        if g.label >= class_count:
            raise DomainError(f"graph {i} label {g.label} >= class count {class_count}")
        onehot[i, g.label] = 1.0
        adj[i, :g.n, :g.n] = g.adjacency.data
        x[i, :g.n] = g.features.data
        mask[i, :g.n] = g.node_mask
    deg = adj.sum(axis=2).reshape(-1, 1)
    for arr in (adj, mask, deg):
        arr.setflags(write=False)
    return Batch(graphs, Mat(onehot), adj, Mat(x.reshape(b * n, d)), mask, deg)


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
