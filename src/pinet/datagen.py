"""Synthetic isomorphism-classification dataset.

A connected random seed graph fixes a degree sequence; each class gets a
fresh graph realising that same sequence, and every graph in a class is
a randomly relabelled copy of the class base graph. Every graph in the
dataset therefore has identical degree statistics, so telling classes
apart requires structure beyond degrees, and telling graphs within a
class apart is exactly graph isomorphism.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dataio import Dataset, _real, _real_field, read_document, write_document
from .errors import DomainError, GenerationError
from .graph import (LabeledGraph, Permutation, _as_rng, _check_int_fields, _int_array, _is_int,
                    edges_of, graph_from_edges, permute_graph, random_permutation)

ER_RETRY_CAP = 10_000
BASE_RETRY_CAP = 100


@dataclass(frozen=True)
class GenParams:
    n_nodes: int = 50
    classes: int = 5
    copies: int = 100  # graphs per class
    edge_prob: float = 0.15
    seed: int = 0

    def __post_init__(self):
        _check_int_fields(self, n_nodes=2, classes=2, copies=1, seed=0)
        if not 0.0 < _real_field(self, "edge_prob") < 1.0:
            raise DomainError(f"edge_prob must lie in (0, 1), got {self.edge_prob}")


def degree_sequence_of(g: LabeledGraph) -> tuple[int, ...]:
    """Degrees of the real nodes, in node order."""
    return tuple(g.adjacency.data[:g.n_real].sum(axis=1).astype(int).tolist())


def _is_connected(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(adj[u]):
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return bool(seen.all())


def sample_er_connected(n: int, edge_prob: float, seed) -> LabeledGraph:
    """G(n, p) conditioned on connectivity: resample until a breadth-
    first search reaches every node, up to 10,000 attempts."""
    if not _is_int(n, 1):
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    edge_prob = _real(edge_prob, "edge_prob")
    if not 0.0 < edge_prob < 1.0:
        raise DomainError(f"edge_prob must lie in (0, 1), got {edge_prob}")
    rng = _as_rng(seed)
    for _ in range(ER_RETRY_CAP):
        upper = np.triu(rng.random((n, n)) < edge_prob, k=1)
        adj = (upper | upper.T).astype(float)
        if _is_connected(adj):
            return graph_from_edges(n, np.argwhere(upper))
    raise GenerationError(
        f"no connected sample in {ER_RETRY_CAP} attempts (n={n}, edge_prob={edge_prob}); "
        "edge_prob is likely too small"
    )


def _havel_hakimi(degrees: tuple[int, ...]) -> set[tuple[int, int]]:
    """Deterministic realisation: repeatedly connect the highest-degree
    node to the next-highest ones. The one graphicality test: a
    non-negative sequence that no simple graph realises raises
    DomainError."""
    remaining = [[d, v] for v, d in enumerate(degrees)]
    edges: set[tuple[int, int]] = set()
    for _ in range(len(remaining)):
        remaining.sort(key=lambda t: (-t[0], t[1]))
        d, v = remaining[0]
        if d == 0:
            break
        if d > len(remaining) - 1:
            raise DomainError("degree sequence is not graphical")
        remaining[0][0] = 0
        for slot in remaining[1:d + 1]:
            if slot[0] == 0:
                raise DomainError("degree sequence is not graphical")
            slot[0] -= 1
            u, w = min(v, slot[1]), max(v, slot[1])
            edges.add((u, w))
    return edges


def graph_from_degree_sequence(degrees, seed) -> LabeledGraph:
    """Simple graph realising `degrees` (non-negative integers, else
    DomainError) exactly: a deterministic realisation randomised by
    10*|E| attempted double-edge swaps. A swap replaces edges (a,b),(c,d)
    by (a,d),(c,b) or (a,c),(b,d); attempts that would produce a
    self-loop or duplicate edge are rejected. Degrees are preserved by
    every accepted swap; the realised graph's degrees are checked once at
    the end."""
    what = "degrees must be a sequence of non-negative integers"
    d = _int_array(degrees, what)
    if d.ndim != 1 or (d < 0).any():
        raise DomainError(what)
    degrees = tuple(d.tolist())
    rng = _as_rng(seed)
    edge_set = _havel_hakimi(degrees)
    edges = sorted(edge_set)
    n_swaps = 10 * len(edges)
    for _ in range(n_swaps):
        if len(edges) < 2:
            break
        i, j = rng.integers(0, len(edges), size=2)
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if rng.integers(0, 2):
            c, d = d, c
        if len({a, b, c, d}) < 4:
            continue
        e1 = (min(a, d), max(a, d))
        e2 = (min(c, b), max(c, b))
        if e1 in edge_set or e2 in edge_set:
            continue
        edge_set.remove(edges[i])
        edge_set.remove(edges[j])
        edge_set.add(e1)
        edge_set.add(e2)
        edges[i], edges[j] = e1, e2
    g = graph_from_edges(len(degrees), sorted(edge_set))
    if degree_sequence_of(g) != degrees:
        raise GenerationError("rewired graph does not realise the degree sequence")
    return g


@dataclass(frozen=True)
class IsoProvenance:
    """Everything needed to replay or audit a generated dataset: the
    seed graph, the shared degree sequence, each class's base graph, and
    the permutation behind every copy (aligned with dataset order)."""

    params: GenParams
    seed_edges: tuple[tuple[int, int], ...]
    degree_sequence: tuple[int, ...]
    base_edges: tuple[tuple[tuple[int, int], ...], ...]  # per class
    permutations: tuple[tuple[int, ...], ...]  # per dataset index
    copy_classes: tuple[int, ...]  # class of each dataset index

    def base_graph(self, cls: int) -> LabeledGraph:
        return graph_from_edges(self.params.n_nodes, self.base_edges[cls], label=cls)


def generate_iso_dataset(params: GenParams) -> tuple[Dataset, IsoProvenance]:
    """All classes share one degree sequence; class members are
    relabelled copies of one base graph per class. Returns the dataset
    (class-major order) plus its provenance. Deterministic per seed."""
    rng = np.random.default_rng(params.seed)
    n, c, copies = params.n_nodes, params.classes, params.copies
    seed_graph = sample_er_connected(n, params.edge_prob, rng)
    seq = degree_sequence_of(seed_graph)

    bases: list[LabeledGraph] = []
    graphs: list[LabeledGraph] = []
    perms: list[tuple[int, ...]] = []
    classes: list[int] = []
    for cls in range(c):
        for _ in range(BASE_RETRY_CAP):
            cand = graph_from_degree_sequence(seq, rng)
            if all((cand.adjacency.data != b.adjacency.data).any() for b in bases):
                break
        else:
            raise GenerationError(
                f"could not draw a distinct base graph for class {cls} "
                f"in {BASE_RETRY_CAP} attempts"
            )
        base = replace(cand, label=cls)
        bases.append(base)
        for _ in range(copies):
            perm = random_permutation(n, rng)
            graphs.append(permute_graph(base, perm))
            perms.append(perm.mapping)
            classes.append(cls)

    ds = Dataset(
        name=f"iso-n{n}-c{c}-x{copies}",
        graphs=tuple(graphs),
        class_count=c,
        label_map={cls: cls for cls in range(c)},
    )
    prov = IsoProvenance(
        params=params,
        seed_edges=edges_of(seed_graph),
        degree_sequence=seq,
        base_edges=tuple(edges_of(b) for b in bases),
        permutations=tuple(perms),
        copy_classes=tuple(classes),
    )
    return ds, prov


def verify_provenance(ds: Dataset, prov: IsoProvenance) -> bool:
    """Replay check: the seed graph and every class base must realise the
    stored degree sequence, and every copy's label, adjacency and
    features must equal its class base relabelled by the stored
    permutation."""
    if len(ds.graphs) != len(prov.permutations):
        return False
    bases = {cls: prov.base_graph(cls) for cls in range(len(prov.base_edges))}
    seed_graph = graph_from_edges(prov.params.n_nodes, prov.seed_edges)
    for g in (seed_graph, *bases.values()):
        if degree_sequence_of(g) != prov.degree_sequence:
            return False
    for g, mapping, cls in zip(ds.graphs, prov.permutations, prov.copy_classes):
        replay = permute_graph(bases[cls], Permutation(mapping))
        if not (g.label == cls
                and np.array_equal(g.adjacency.data, replay.adjacency.data)
                and np.array_equal(g.features.data, replay.features.data)):
            return False
    return True


PROVENANCE_FORMAT = "pinet-provenance-v1"


def save_provenance(prov: IsoProvenance, path):
    write_document(path, PROVENANCE_FORMAT, {
        "params": asdict(prov.params),
        "seed_edges": [list(e) for e in prov.seed_edges],
        "degree_sequence": list(prov.degree_sequence),
        "base_edges": [[list(e) for e in edges] for edges in prov.base_edges],
        "permutations": [list(p) for p in prov.permutations],
        "copy_classes": list(prov.copy_classes),
    })


def _index(v, bound: int) -> int:
    if not _is_int(v, 0, bound):
        raise DomainError(f"{v!r} is not an index in [0, {bound})")
    return v


def load_provenance(path) -> IsoProvenance:
    """Read a file written by `save_provenance`, checking each entry
    where its rule lives: the document in `dataio.read_document`,
    `params` in `GenParams`, edge lists in `graph_from_edges` (returned
    in `edges_of` order), permutations in `Permutation`. A missing or
    malformed entry raises DataFormatError naming the path and entry."""
    checked, bad = read_document(path, PROVENANCE_FORMAT, "provenance")
    params = checked("params", lambda raw: GenParams(**raw))
    n, classes = params.n_nodes, params.classes
    # n x n graphs are built only once n degrees have been read, so their
    # size follows from data in the file, not from a bare count in params
    degrees = checked("degree_sequence", lambda d: _index(d, n), per_item=True)
    if len(degrees) != n:
        raise bad("degree_sequence", f"must hold {n} degrees, one per node")

    def edges(v):
        return edges_of(graph_from_edges(n, v))

    seed_edges = checked("seed_edges", edges)
    bases = checked("base_edges", edges, per_item=True)
    if len(bases) != classes:
        raise bad("base_edges", f"must hold {classes} edge lists, one per class")
    perms = checked("permutations", lambda p: Permutation(p).mapping, per_item=True)
    if any(len(p) != n for p in perms):
        raise bad("permutations", f"must be permutations of [0, {n})")
    copy_classes = checked("copy_classes", lambda c: _index(c, classes), per_item=True)
    if len(copy_classes) != len(perms):
        raise bad("copy_classes", f"must hold {len(perms)} classes, one per permutation")
    return IsoProvenance(params, seed_edges, degrees, bases, perms, copy_classes)
