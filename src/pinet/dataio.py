"""Dataset container, benchmark text-format loader, and persistence.

The public molecule benchmarks ship as plain text: an edge file of
1-indexed global node pairs, a node-to-graph indicator file, a graph
label file, and optionally a node label file. `load_tu` reads that
layout. Internally datasets persist as line-delimited JSON, one graph
per line under a header record.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DomainError, ShapeError
from .graph import LabeledGraph
from .tensor import Mat


@dataclass(frozen=True, eq=False)
class Dataset:
    """Graphs padded to a shared size with contiguous class labels.

    The pad size equals the maximum real node count in the collection;
    `label_map` records how raw label values map to class indices."""

    name: str
    graphs: tuple[LabeledGraph, ...]
    class_count: int
    label_map: dict

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))
        if self.class_count < 1:
            raise DomainError("class_count must be >= 1")
        if not self.graphs:
            return
        n, d = self.graphs[0].n, self.graphs[0].d
        for i, g in enumerate(self.graphs):
            if g.n != n or g.d != d:
                raise ShapeError(f"graph {i} has N={g.n}, d={g.d}; expected N={n}, d={d}")
            if not 0 <= g.label < self.class_count:
                raise DomainError(f"graph {i} label {g.label} outside [0, {self.class_count})")
        if n != max(g.n_real for g in self.graphs):
            raise DomainError("pad size must equal the maximum real node count")

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def n_pad(self) -> int:
        return self.graphs[0].n if self.graphs else 0

    @property
    def d(self) -> int:
        return self.graphs[0].d if self.graphs else 0

    def labels(self) -> list[int]:
        return [g.label for g in self.graphs]

    def class_fraction(self, cls: int) -> float:
        if not self.graphs:
            raise DomainError("empty dataset")
        return sum(g.label == cls for g in self.graphs) / len(self.graphs)


def _read_lines(path) -> list[str]:
    with open(path) as fh:
        return fh.read().splitlines()


def _parse_int(text: str, path, line_no: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise DataFormatError(
            f"expected an integer, got {text.strip()!r}", path=path, line=line_no
        ) from None


def load_tu(dir_path, dataset_name: str) -> Dataset:
    """Load a benchmark dataset from its standard text layout.

    Requires `<name>_A.txt` (comma-separated 1-indexed global edge
    pairs), `<name>_graph_indicator.txt`, `<name>_graph_labels.txt`;
    uses `<name>_node_labels.txt` when present (one-hot features of
    width = number of distinct values) and all-ones width-1 features
    otherwise. Edges are symmetrised, self-loops dropped, raw graph
    labels mapped to 0..C-1 by sorted distinct value, and every graph is
    zero-padded to the collection's maximum node count."""
    root = os.fspath(dir_path)
    if os.path.isdir(os.path.join(root, dataset_name)):
        root = os.path.join(root, dataset_name)

    def fpath(suffix):
        return os.path.join(root, f"{dataset_name}_{suffix}.txt")

    for suffix in ("A", "graph_indicator", "graph_labels"):
        if not os.path.exists(fpath(suffix)):
            raise DataFormatError("missing required file", path=fpath(suffix))

    labels_path = fpath("graph_labels")
    raw_labels = [
        _parse_int(t, labels_path, i + 1)
        for i, t in enumerate(_read_lines(labels_path))
        if t.strip()
    ]
    n_graphs = len(raw_labels)
    if n_graphs == 0:
        raise DataFormatError("no graphs listed", path=labels_path)
    label_values = sorted(set(raw_labels))
    label_map = {v: i for i, v in enumerate(label_values)}

    ind_path = fpath("graph_indicator")
    node_graph: list[int] = []  # 0-based graph id per global node
    node_local: list[int] = []  # local index within its graph
    counts = [0] * n_graphs
    for i, t in enumerate(_read_lines(ind_path)):
        if not t.strip():
            continue
        gid = _parse_int(t, ind_path, i + 1)
        if not 1 <= gid <= n_graphs:
            raise DataFormatError(
                f"node assigned to absent graph id {gid} (have {n_graphs} graphs)",
                path=ind_path, line=i + 1,
            )
        node_graph.append(gid - 1)
        node_local.append(counts[gid - 1])
        counts[gid - 1] += 1
    n_nodes = len(node_graph)
    if min(counts) == 0:
        empty = counts.index(0) + 1
        raise DataFormatError(f"graph {empty} has no nodes", path=ind_path)

    edges: list[set[tuple[int, int]]] = [set() for _ in range(n_graphs)]
    a_path = fpath("A")
    for i, t in enumerate(_read_lines(a_path)):
        if not t.strip():
            continue
        parts = t.split(",")
        if len(parts) != 2:
            raise DataFormatError(
                f"expected 'u, v', got {t.strip()!r}", path=a_path, line=i + 1
            )
        u = _parse_int(parts[0], a_path, i + 1)
        v = _parse_int(parts[1], a_path, i + 1)
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise DataFormatError(
                f"edge ({u},{v}) references a node outside [1, {n_nodes}]",
                path=a_path, line=i + 1,
            )
        gu, gv = node_graph[u - 1], node_graph[v - 1]
        if gu != gv:
            raise DataFormatError(
                f"edge ({u},{v}) spans graphs {gu + 1} and {gv + 1}",
                path=a_path, line=i + 1,
            )
        if u == v:
            continue  # self-loops are dropped at load time
        lu, lv = node_local[u - 1], node_local[v - 1]
        edges[gu].add((min(lu, lv), max(lu, lv)))

    nl_path = fpath("node_labels")
    node_label_idx = None
    d = 1
    if os.path.exists(nl_path):
        raw_nl = [
            _parse_int(t, nl_path, i + 1)
            for i, t in enumerate(_read_lines(nl_path))
            if t.strip()
        ]
        if len(raw_nl) != n_nodes:
            raise DataFormatError(
                f"{len(raw_nl)} node labels for {n_nodes} nodes", path=nl_path
            )
        nl_values = sorted(set(raw_nl))
        nl_map = {v: i for i, v in enumerate(nl_values)}
        node_label_idx = [nl_map[v] for v in raw_nl]
        d = len(nl_values)

    n_pad = max(counts)
    adj = [np.zeros((n_pad, n_pad)) for _ in range(n_graphs)]
    for gi in range(n_graphs):
        for lu, lv in edges[gi]:
            adj[gi][lu, lv] = adj[gi][lv, lu] = 1.0
    feats = [np.zeros((n_pad, d)) for _ in range(n_graphs)]
    if node_label_idx is None:
        for gi in range(n_graphs):
            feats[gi][:counts[gi], 0] = 1.0
    else:
        for node in range(n_nodes):
            feats[node_graph[node]][node_local[node], node_label_idx[node]] = 1.0

    graphs = tuple(
        LabeledGraph(
            n_real=counts[gi],
            adjacency=Mat(adj[gi]),
            features=Mat(feats[gi]),
            label=label_map[raw_labels[gi]],
        )
        for gi in range(n_graphs)
    )
    return Dataset(
        name=dataset_name,
        graphs=graphs,
        class_count=len(label_values),
        label_map=label_map,
    )


DATASET_FORMAT = "pinet-dataset-v1"
_HEADER_FIELDS = ("name", "n_pad", "d", "class_count", "label_map")


def _canonical_mask(g: LabeledGraph) -> bool:
    return bool(g.node_mask[:g.n_real].all())


def save_dataset(ds: Dataset, path):
    """Line-delimited JSON: a header record, then one graph per line
    with real-node edges, feature rows, and label."""
    for i, g in enumerate(ds.graphs):
        if not _canonical_mask(g):
            raise DomainError(f"graph {i}: only leading-block padded graphs serialise")
    header = {
        "format": DATASET_FORMAT,
        "name": ds.name,
        "n_pad": ds.n_pad,
        "d": ds.d,
        "class_count": ds.class_count,
        "label_map": [[k, v] for k, v in ds.label_map.items()],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for g in ds.graphs:
            a = g.adjacency.data
            rec = {
                "n_real": g.n_real,
                "label": g.label,
                "edges": [
                    [int(u), int(v)] for u, v in zip(*np.nonzero(np.triu(a, k=1)))
                ],
                "features": g.features.data[:g.n_real].tolist(),
            }
            fh.write(json.dumps(rec) + "\n")


def load_dataset(path) -> Dataset:
    lines = _read_lines(path)
    if not lines or not lines[0].strip():
        raise DataFormatError("empty dataset file", path=str(path))

    def parse(text, line_no):
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            raise DataFormatError("malformed record", path=str(path), line=line_no) from None

    header = parse(lines[0], 1)
    if header.get("format") != DATASET_FORMAT:
        raise DataFormatError(
            f"unsupported dataset format {header.get('format')!r}", path=str(path)
        )
    missing = [k for k in _HEADER_FIELDS if k not in header]
    if missing:
        raise DataFormatError(f"header lacks field {missing[0]!r}", path=str(path), line=1)
    n_pad, d = header["n_pad"], header["d"]
    graphs = []
    for i, text in enumerate(lines[1:], start=2):
        if not text.strip():
            continue
        rec = parse(text, i)
        try:
            n_real, label = rec["n_real"], rec["label"]
            a = np.zeros((n_pad, n_pad))
            for u, v in rec["edges"]:
                if not (0 <= u < n_real and 0 <= v < n_real) or u == v:
                    raise DataFormatError(
                        f"invalid edge ({u},{v}) for n_real={n_real}",
                        path=str(path), line=i,
                    )
                a[u, v] = a[v, u] = 1.0
            x = np.zeros((n_pad, d))
            rows = rec["features"]
            if len(rows) != n_real:
                raise DataFormatError(
                    f"{len(rows)} feature rows for n_real={n_real}",
                    path=str(path), line=i,
                )
            for r, row in enumerate(rows):
                x[r, :] = row
            graphs.append(LabeledGraph(n_real, Mat(a), Mat(x), label))
        except (KeyError, TypeError, ValueError) as e:
            if isinstance(e, DataFormatError):
                raise
            raise DataFormatError(
                f"malformed graph record ({e})", path=str(path), line=i
            ) from None
    return Dataset(
        name=header["name"],
        graphs=tuple(graphs),
        class_count=header["class_count"],
        label_map={k: v for k, v in header["label_map"]},
    )
