"""Dataset container, benchmark text-format loader, and persistence.

The public molecule benchmarks ship as plain text: an edge file of
1-indexed global node pairs, a node-to-graph indicator file, a graph
label file, and optionally a node label file. `load_tu` reads that
layout. Internally datasets persist as line-delimited JSON, one graph
per line under a header record. Provenance sidecars and checkpoints
are single JSON documents, written by `write_document` and read by
`read_document`; `_real` reads a real scalar by the `Mat.scalar` rule,
and `_real_field` a config's real field by it. Integers are checked by
the integer rule of `graph`.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DomainError, ShapeError
from .graph import (
    LabeledGraph, _check_int_fields, _int_array, _is_int, edges_of, graph_from_edges,
)
from .tensor import Mat


@contextmanager
def atomic_write(path, newline=None):
    """Open `path` for writing text so that it changes only when the
    block completes: the text goes to a temporary file in the same
    directory, which `os.replace` then moves over `path`. If the block
    raises, the previous file at `path` is left as it was and the
    temporary file is removed."""
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "x", newline=newline)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


@dataclass(frozen=True, eq=False)
class Dataset:
    """Graphs of one feature width, each stored at its own size (N =
    n_real, no padding), with contiguous class labels.

    `n_pad` is the largest node count in the collection, the N that
    padding every graph to one size would need; `label_map` records how
    raw label values map to class indices."""

    name: str
    graphs: tuple[LabeledGraph, ...]
    class_count: int
    label_map: dict

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))
        if not isinstance(self.name, str):
            raise DomainError(f"dataset name must be a string, got {self.name!r}")
        _check_int_fields(self, class_count=1)
        # the header rules of load_dataset: raw label -> class index >= 0
        if not isinstance(self.label_map, dict) or not all(
                _is_int(k) and _is_int(v, 0) for k, v in self.label_map.items()):
            raise DomainError(
                f"label_map must map integer raw labels to classes >= 0, got {self.label_map!r}")
        object.__setattr__(self, "label_map", {int(k): int(v) for k, v in self.label_map.items()})
        classes = list(self.label_map.values())
        if len(set(classes)) != len(classes) or any(v >= self.class_count for v in classes):
            raise DomainError(
                f"label_map must give distinct raw labels distinct classes "
                f"< class_count={self.class_count}, got {self.label_map!r}")
        if not self.graphs:
            return
        d = self.graphs[0].d
        for i, g in enumerate(self.graphs):
            if g.d != d:
                raise ShapeError(f"graph {i} has d={g.d}; expected d={d}")
            if g.n != g.n_real:
                raise DomainError(f"graph {i} is padded to N={g.n} beyond its "
                                  f"{g.n_real} nodes; a dataset stores each at its own size")
            if not 0 <= g.label < self.class_count:
                raise DomainError(f"graph {i} label {g.label} outside [0, {self.class_count})")

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def n_pad(self) -> int:
        return max((g.n for g in self.graphs), default=0)

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
        try:
            return fh.read().splitlines()
        except UnicodeDecodeError as e:
            raise DataFormatError(f"undecodable byte at offset {e.start}", path=str(path)) from None


def _parse_int(text: str, path, line_no: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise DataFormatError(
            f"expected an integer, got {text.strip()!r}", path=path, line=line_no
        ) from None


def tu_files(dir_path, dataset_name: str) -> tuple[tuple[str, str, str], str]:
    """The files of the text layout that `load_tu` reads: the required
    `<name>_A.txt`, `<name>_graph_indicator.txt` and
    `<name>_graph_labels.txt`, and the optional `<name>_node_labels.txt`.
    They sit in `dir_path`, or in its subdirectory `<name>` if there is
    one."""
    root = os.fspath(dir_path)
    if os.path.isdir(os.path.join(root, dataset_name)):
        root = os.path.join(root, dataset_name)
    a, ind, labels, nodes = (os.path.join(root, f"{dataset_name}_{suffix}.txt") for suffix in
                             ("A", "graph_indicator", "graph_labels", "node_labels"))
    return (a, ind, labels), nodes


def load_tu(dir_path, dataset_name: str) -> Dataset:
    """Load a benchmark dataset from its standard text layout, the files
    of `tu_files`.

    Requires `<name>_A.txt` (comma-separated 1-indexed global edge
    pairs), `<name>_graph_indicator.txt`, `<name>_graph_labels.txt`;
    uses `<name>_node_labels.txt` when present (one-hot features of
    width = number of distinct values) and all-ones width-1 features
    otherwise. Edges are symmetrised, self-loops dropped, raw graph
    labels mapped to 0..C-1 by sorted distinct value, and every graph is
    stored at its own node count."""
    (a_path, ind_path, labels_path), nl_path = tu_files(dir_path, dataset_name)
    for path in (a_path, ind_path, labels_path):
        if not os.path.exists(path):
            raise DataFormatError("missing required file", path=path)

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

    if node_label_idx is None:
        feats = [np.ones((n, 1)) for n in counts]
    else:
        feats = [np.zeros((n, d)) for n in counts]
        for node in range(n_nodes):
            feats[node_graph[node]][node_local[node], node_label_idx[node]] = 1.0

    graphs = tuple(
        graph_from_edges(counts[gi], list(edges[gi]), label_map[raw_labels[gi]],
                         Mat(feats[gi]))
        for gi in range(n_graphs)
    )
    return Dataset(
        name=dataset_name,
        graphs=graphs,
        class_count=len(label_values),
        label_map=label_map,
    )


DATASET_FORMAT = "pinet-dataset-v1"


def _real(v, name: str) -> float:
    """`v` as a Python float by the `Mat.scalar` rule; anything else
    raises DomainError naming it."""
    try:
        return Mat.scalar(v).item()
    except (DomainError, ShapeError):
        raise DomainError(f"{name} must be a finite real number, got {v!r}") from None


def _real_field(obj, name: str) -> float:
    """A config dataclass's real field by `_real`, stored back as a
    Python float and returned."""
    x = _real(getattr(obj, name), name)
    object.__setattr__(obj, name, x)
    return x


def write_document(path, fmt: str, body: dict):
    """Atomically write `body` as the JSON object `read_document` reads,
    its "format" entry `fmt` first."""
    with atomic_write(path) as fh:
        json.dump({"format": fmt, **body}, fh)
        fh.write("\n")


def read_document(path, fmt: str, what: str):
    """Parse the JSON object at `path` whose "format" is `fmt`, or raise
    DataFormatError with the path. Returns the document and `bad(entry,
    why)`, which builds the DataFormatError naming the entry and path."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as e:
            raise DataFormatError(f"not a valid {what} file", path=str(path)) from e
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != fmt:
        raise DataFormatError(f"unsupported {what} format {found!r}", path=str(path))

    def bad(entry: str, why: str) -> DataFormatError:
        return DataFormatError(f"{what} entry {entry!r} {why}", path=str(path))

    return doc, bad


# header field -> (what it must hold, test of its value)
_HEADER_FIELDS = {
    "name": ("a string", lambda v: isinstance(v, str)),
    "n_pad": ("an integer >= 0", lambda v: _is_int(v, 0)),
    "d": ("an integer >= 0", lambda v: _is_int(v, 0)),
    "class_count": ("an integer >= 1", lambda v: _is_int(v, 1)),
    "label_map": (
        "a list of [raw label, class] integer pairs, no raw label twice",
        lambda v: isinstance(v, list) and all(
            isinstance(e, list) and len(e) == 2 and _is_int(e[0]) and _is_int(e[1], 0)
            for e in v
        ) and len({e[0] for e in v}) == len(v),
    ),
}


def save_dataset(ds: Dataset, path):
    """Line-delimited JSON: a header record, then one graph per line
    with real-node edges, feature rows, and label."""
    header = {
        "format": DATASET_FORMAT,
        "name": ds.name,
        "n_pad": ds.n_pad,
        "d": ds.d,
        "class_count": ds.class_count,
        "label_map": [[k, v] for k, v in ds.label_map.items()],
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(header) + "\n")
        for g in ds.graphs:
            rec = {
                "n_real": g.n_real,
                "label": g.label,
                "edges": edges_of(g),
                "features": g.features.data[:g.n_real].tolist(),
            }
            fh.write(json.dumps(rec) + "\n")


def load_dataset(path) -> Dataset:
    """Read a file written by `save_dataset`. Anything malformed, from
    the header to a single edge, raises DataFormatError naming the path
    and, where one is to blame, the line."""
    lines = _read_lines(path)
    if not lines or not lines[0].strip():
        raise DataFormatError("empty dataset file", path=str(path))

    def parse(text, line_no):
        try:
            return json.loads(text)
        except (ValueError, RecursionError):
            raise DataFormatError("malformed record", path=str(path), line=line_no) from None

    header = parse(lines[0], 1)
    if not isinstance(header, dict):
        raise DataFormatError("header is not a JSON object", path=str(path), line=1)
    if header.get("format") != DATASET_FORMAT:
        raise DataFormatError(
            f"unsupported dataset format {header.get('format')!r}", path=str(path)
        )
    for name, (kind, valid) in _HEADER_FIELDS.items():
        if name not in header:
            raise DataFormatError(f"header lacks field {name!r}", path=str(path), line=1)
        if not valid(header[name]):
            raise DataFormatError(
                f"header field {name!r} must be {kind}", path=str(path), line=1
            )
    n_pad, d = header["n_pad"], header["d"]
    # Every record's counts are checked before any graph's arrays are
    # allocated, so no count in the file can ask for more memory than its
    # data implies: n_real must match the feature rows, and n_pad the
    # largest n_real. Each graph is built at its own size, and
    # `graph_from_edges` checks the edges as it builds.
    records = []
    for i, text in enumerate(lines[1:], start=2):
        if not text.strip():
            continue
        rec = parse(text, i)
        try:
            n_real, label, rows = rec["n_real"], rec["label"], rec["features"]
            if not (_is_int(n_real, 0) and _is_int(label, 0)):
                raise DomainError("n_real and label must be integers >= 0")
            if len(rows) != n_real:
                raise DomainError(f"features must be {n_real} rows")
            x = Mat(rows).data.reshape(n_real, d)
            # held compactly until the graphs are built
            edges = _int_array(rec["edges"], "edges must be a list of [u, v] integer pairs")
        except (KeyError, TypeError, ValueError) as e:  # DomainError is a ValueError
            raise DataFormatError(
                f"malformed graph record ({e})", path=str(path), line=i
            ) from None
        records.append((i, n_real, label, edges, x))
    largest = max((r[1] for r in records), default=n_pad)
    if largest != n_pad:
        raise DataFormatError(
            f"header field 'n_pad' must equal the largest n_real, {largest}",
            path=str(path), line=1,
        )
    graphs = []
    for i, n_real, label, edges, x in records:
        try:
            graphs.append(graph_from_edges(n_real, edges, label, Mat(x)))
        except DomainError as e:
            raise DataFormatError(str(e), path=str(path), line=i) from None
    try:
        return Dataset(
            name=header["name"],
            graphs=tuple(graphs),
            class_count=header["class_count"],
            label_map={k: v for k, v in header["label_map"]},
        )
    except DomainError as e:  # a label outside the header's class count
        raise DataFormatError(str(e), path=str(path)) from None
