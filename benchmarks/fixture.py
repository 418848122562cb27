"""Inputs the benchmark writes itself.

`write_tu` writes graphs in the four-file benchmark text layout that
`pinet.dataio.load_tu` reads. `mixed_graphs` draws the heavy-tailed
mixed-size collection behind the `mixed-pad-learned` workload. Nothing
is downloaded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from pinet import datagen

NODE_LABELS = 3
# Per-class node-label probabilities: the two classes differ in label mix,
# so the fixture carries a signal a model can learn.
NODE_LABEL_PROBS = ((0.6, 0.3, 0.1), (0.3, 0.6, 0.1))


@dataclass(frozen=True)
class TuGraph:
    """One graph in text-layout terms: real node count, undirected edges
    over 0-based local ids, optional per-node labels, graph label."""

    n: int
    edges: tuple[tuple[int, int], ...]
    node_labels: tuple[int, ...] | None
    label: int


def _edges(a: np.ndarray) -> tuple[tuple[int, int], ...]:
    return tuple((int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(a, k=1))))


def tu_graphs_of(graphs) -> list[TuGraph]:
    """Text-layout view of leading-block padded `LabeledGraph`s whose
    features are the default all-ones column (so no node-label file)."""
    return [TuGraph(g.n_real, _edges(g.adjacency.data[:g.n_real, :g.n_real]), None, g.label)
            for g in graphs]


def write_tu(directory, name: str, graphs: list[TuGraph]) -> list[str]:
    """Write `<name>_A.txt`, `_graph_indicator.txt`, `_graph_labels.txt`
    and, when every graph carries node labels, `_node_labels.txt`;
    return their paths. Node ids are 1-based and global; each edge is
    listed both ways, as the public benchmark files do."""
    def path(suffix):
        return os.path.join(directory, f"{name}_{suffix}.txt")

    with_nodes = all(g.node_labels is not None for g in graphs)
    a_lines, ind_lines, nl_lines = [], [], []
    offset = 0
    for gid, g in enumerate(graphs, start=1):
        ind_lines.extend([str(gid)] * g.n)
        for u, v in g.edges:
            a_lines.append(f"{u + offset + 1}, {v + offset + 1}")
            a_lines.append(f"{v + offset + 1}, {u + offset + 1}")
        if with_nodes:
            nl_lines.extend(str(x) for x in g.node_labels)
        offset += g.n
    files = {
        "A": a_lines,
        "graph_indicator": ind_lines,
        "graph_labels": [str(g.label) for g in graphs],
    }
    if with_nodes:
        files["node_labels"] = nl_lines
    for suffix, lines in files.items():
        with open(path(suffix), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return [path(suffix) for suffix in files]


def heavy_tailed_sizes(count: int, n_min: int, n_max: int, alpha: float) -> np.ndarray:
    """Node counts at evenly spaced quantiles of a Pareto(alpha) law with
    scale n_min, truncated at n_max; the largest is n_max exactly. The
    multiset depends only on these settings, so every seed pads to the
    same N and has the same padding waste."""
    u = (np.arange(count) + 0.5) / count
    sizes = np.minimum(n_max, np.floor(n_min / (1.0 - u) ** (1.0 / alpha))).astype(int)
    sizes[-1] = n_max
    return sizes


def useful_pair_frac(sizes) -> float:
    """Share of padded adjacency entries that belong to real node pairs
    when every graph is padded to the largest: sum n^2 / (count * n_max^2)."""
    sizes = np.asarray(sizes, dtype=float)
    return float((sizes ** 2).sum() / (sizes.size * sizes.max() ** 2))


def mixed_graphs(seed: int, count: int, n_min: int, n_max: int, alpha: float) -> list[TuGraph]:
    """Connected Erdos-Renyi graphs (via `datagen.sample_er_connected`)
    of heavy-tailed sizes, balanced binary labels and class-dependent
    one-hot node labels. Deterministic per seed."""
    rng = np.random.default_rng(seed)
    sizes = rng.permutation(heavy_tailed_sizes(count, n_min, n_max, alpha))
    labels = rng.permutation(np.arange(count) % 2)
    out = []
    for n, label in zip(sizes, labels):
        n, label = int(n), int(label)
        # mean degree about 1.5 ln n: sparse, yet connected within a few draws
        p = min(0.9, 1.5 * np.log(n) / n) if n > 1 else 0.5
        edges = _edges(datagen.sample_er_connected(n, p, rng).adjacency.data)
        node_labels = tuple(int(x) for x in rng.choice(NODE_LABELS, size=n, p=NODE_LABEL_PROBS[label]))
        out.append(TuGraph(n, edges, node_labels, label))
    return out
