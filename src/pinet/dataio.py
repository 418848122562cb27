"""Dataset container, benchmark text-format loader, and persistence.

The public molecule benchmarks ship as plain text: an edge file of
1-indexed global node pairs, a node-to-graph indicator file, a graph
label file, and optionally a node label file. `load_tu` reads that
layout: `_int_rows`, the one reader of its lines, reads each file once
into an int64 table with each row's line number, and numpy groups nodes
and edges by graph. Internally datasets persist as line-delimited JSON,
one graph per line under a header record, which `load_dataset` reads a
line at a time. Provenance sidecars and checkpoints are single JSON
documents, written by `write_document` and read by `read_document`,
whose `checked` reads each entry. `_real` reads a real scalar by the
`Mat.scalar` rule, and `_real_field` a config's real field by it.
Integers are checked by the integer rule of `graph`.
"""

from __future__ import annotations

import json
import os
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DomainError, ShapeError
from .graph import (
    LabeledGraph, _check_int_fields, _is_int, edges_of, graph_from_edges,
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


def _lines(path):
    """Each line of the text file at `path` with its 1-based number, read
    one at a time. Bytes that do not decode raise DataFormatError naming
    the path."""
    with open(path) as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as e:
            raise DataFormatError(f"undecodable byte ({e.reason})", path=str(path)) from None


def _int_rows(path, width: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Every non-blank line of the text file at `path` as `width`
    comma-separated integers: an n x `width` int64 table and each row's
    1-based line number. A line that is not `what`, or an integer outside
    int64, raises DataFormatError naming the path and the line."""
    line_nos = array("q")

    def rows():
        for line_no, text in _lines(path):
            if not text.strip():
                continue
            line_nos.append(line_no)
            try:
                row = tuple(map(int, text.split(",")))
            except ValueError:
                row = ()
            if len(row) != width:
                raise DataFormatError(f"expected {what}, got {text.strip()!r}",
                                      path=path, line=line_no)
            yield row

    try:
        table = np.fromiter(rows(), dtype=(np.int64, width))
    except OverflowError:  # from the row just read, whose line number is the last
        raise DataFormatError("integer outside the int64 range", path=path,
                              line=line_nos[-1]) from None
    return table, np.frombuffer(line_nos, dtype=np.int64)


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


def _tu_edges(path, node_graph, node_local, n_graphs: int) -> list[np.ndarray]:
    """The edge file at `path` (1-based global node pairs) as one array of
    local node pairs per graph, self-loops dropped. An edge that names no
    node, or spans two graphs, raises DataFormatError naming its line."""
    edges, line_nos = _int_rows(path, 2, "'u, v'")
    n_nodes = node_graph.size
    inside = ((edges >= 1) & (edges <= n_nodes)).all(axis=1)
    ends = node_graph[np.clip(edges, 1, n_nodes) - 1]
    bad = ~inside | (ends[:, 0] != ends[:, 1])
    if bad.any():
        i = bad.argmax()
        (u, v), (gu, gv) = edges[i], ends[i] + 1
        why = f"spans graphs {gu} and {gv}" if inside[i] else \
            f"references a node outside [1, {n_nodes}]"
        raise DataFormatError(f"edge ({u},{v}) {why}", path=path, line=int(line_nos[i]))
    edges = edges[edges[:, 0] != edges[:, 1]] - 1  # self-loops are dropped at load time
    graph = node_graph[edges[:, 0]]
    return np.split(node_local[edges[np.argsort(graph, kind="stable")]],
                    np.cumsum(np.bincount(graph, minlength=n_graphs))[:-1])


def load_tu(dir_path, dataset_name: str) -> Dataset:
    """Load a benchmark dataset from its standard text layout, the files
    of `tu_files`.

    Requires `<name>_A.txt` (comma-separated 1-indexed global edge
    pairs), `<name>_graph_indicator.txt`, `<name>_graph_labels.txt`;
    uses `<name>_node_labels.txt` when present (one-hot features of
    width = number of distinct values) and all-ones width-1 features
    otherwise. Edges are symmetrised, self-loops dropped, raw graph
    labels mapped to 0..C-1 by sorted distinct value, and every graph is
    stored at its own node count, its nodes in order of appearance."""
    (a_path, ind_path, labels_path), nl_path = tu_files(dir_path, dataset_name)
    for path in (a_path, ind_path, labels_path):
        if not os.path.exists(path):
            raise DataFormatError("missing required file", path=path)

    raw_labels = _int_rows(labels_path, 1, "an integer")[0][:, 0]
    if not raw_labels.size:
        raise DataFormatError("no graphs listed", path=labels_path)
    label_values, labels = np.unique(raw_labels, return_inverse=True)
    n_graphs = raw_labels.size

    ids, line_nos = _int_rows(ind_path, 1, "an integer")
    absent = (ids[:, 0] < 1) | (ids[:, 0] > n_graphs)
    if absent.any():
        i = absent.argmax()
        raise DataFormatError(f"node assigned to absent graph id {ids[i, 0]} "
                              f"(have {n_graphs} graphs)", path=ind_path, line=int(line_nos[i]))
    node_graph = ids[:, 0] - 1
    n_nodes = node_graph.size
    counts = np.bincount(node_graph, minlength=n_graphs)
    if not counts.all():
        raise DataFormatError(f"graph {counts.argmin() + 1} has no nodes", path=ind_path)
    # the nodes grouped by graph, each group in order of appearance; a
    # node's local index is its place in its group
    by_graph = np.argsort(node_graph, kind="stable")
    splits = np.cumsum(counts)[:-1]
    node_local = np.empty_like(by_graph)
    node_local[by_graph] = np.arange(n_nodes) - np.repeat(np.r_[0, splits], counts)

    local_edges = _tu_edges(a_path, node_graph, node_local, n_graphs)

    features = [None] * n_graphs  # graph_from_edges' default: all ones
    if os.path.exists(nl_path):
        node_labels = _int_rows(nl_path, 1, "an integer")[0][:, 0]
        if node_labels.size != n_nodes:
            raise DataFormatError(f"{node_labels.size} node labels for {n_nodes} nodes",
                                  path=nl_path)
        nl_values, nl_index = np.unique(node_labels, return_inverse=True)
        one_hot = np.zeros((n_nodes, nl_values.size))
        one_hot[np.arange(n_nodes), nl_index[by_graph]] = 1.0
        features = [Mat(x) for x in np.split(one_hot, splits)]

    graphs = tuple(map(graph_from_edges, counts.tolist(), local_edges, labels.tolist(), features))
    return Dataset(dataset_name, graphs, class_count=label_values.size,
                   label_map=dict(zip(label_values.tolist(), range(label_values.size))))


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
    DataFormatError with the path. Returns `checked` and `bad`.

    `checked(entry, build, per_item=False)` reads the entry at the dotted
    name `entry` ("weights.w_x0" is doc["weights"]["w_x0"]) and returns
    `build` of it or, given `per_item`, the tuple of `build` of each item
    of the list it must be. A missing entry, or a `build` that raises
    KeyError, TypeError or ValueError, raises DataFormatError naming the
    entry and the path; `bad(entry, why)` builds such an error."""
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

    def checked(entry: str, build, per_item: bool = False):
        value = doc
        for key in entry.split("."):
            if not isinstance(value, dict) or key not in value:
                raise bad(entry, "is missing")
            value = value[key]
        try:
            if not per_item:
                return build(value)
            if not isinstance(value, list):
                raise DomainError("must be a list")
            return tuple(map(build, value))
        except (KeyError, TypeError, ValueError) as e:  # DomainError is a ValueError
            raise bad(entry, f"is invalid ({e})") from None

    return checked, bad


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
    """Read a file written by `save_dataset`, one line at a time. Anything
    malformed, from the header to a single edge, raises DataFormatError
    naming the path and, where one is to blame, the line."""
    lines = _lines(path)
    _, text = next(lines, (1, ""))
    if not text.strip():
        raise DataFormatError("empty dataset file", path=str(path))

    def parse(text, line_no):
        try:
            return json.loads(text)
        except (ValueError, RecursionError):
            raise DataFormatError("malformed record", path=str(path), line=line_no) from None

    header = parse(text, 1)
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
    # Each graph is built as soon as its record passes the checks, at its
    # own size: n_real must match the feature rows, so no count in the
    # file sizes an allocation that its data does not back.
    # `graph_from_edges` checks the edges as it builds.
    graphs = []
    for i, text in lines:
        if not text.strip():
            continue
        rec = parse(text, i)
        try:
            n_real, label, rows = rec["n_real"], rec["label"], rec["features"]
            if not (_is_int(n_real, 0) and _is_int(label, 0)):
                raise DomainError("n_real and label must be integers >= 0")
            if len(rows) != n_real:
                raise DomainError(f"features must be {n_real} rows")
            x = Mat(Mat(rows).data.reshape(n_real, header["d"]))
            graphs.append(graph_from_edges(n_real, rec["edges"], label, x))
        except (KeyError, TypeError, ValueError) as e:  # DomainError is a ValueError
            raise DataFormatError(
                f"malformed graph record ({e})", path=str(path), line=i
            ) from None
    largest = max((g.n for g in graphs), default=header["n_pad"])
    if largest != header["n_pad"]:
        raise DataFormatError(
            f"header field 'n_pad' must equal the largest n_real, {largest}",
            path=str(path), line=1,
        )
    try:
        return Dataset(
            name=header["name"],
            graphs=tuple(graphs),
            class_count=header["class_count"],
            label_map={k: v for k, v in header["label_map"]},
        )
    except DomainError as e:  # a label outside the header's class count
        raise DataFormatError(str(e), path=str(path)) from None
