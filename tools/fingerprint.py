"""Print five sha256 digests that pin down what the package computes.

Line 1 hashes the bytes `gen-iso` writes (dataset and provenance) for
seeds 0, 3 and 7 at 20 nodes, 3 classes and 20 copies per class.

Line 2 hashes seeded `fit` results (every parameter, every epoch loss),
the `evaluate` accuracy and the checkpoint bytes on two datasets: the
seed-0 gen-iso set, and a mixed-size set padded to its largest graph.
Each is fitted in learned and in fixed mode, on the nodes and on the
features attention axis.

Line 3 hashes what `selfcheck.run_all()` reports at seed 0: each suite's
name, case count, tolerance, exact max error and verdict.

Line 4 hashes what the loaders return, each graph's `n_real`, label,
adjacency bytes and feature bytes: `load_dataset` of the saved seed-0
gen-iso set, and `load_tu` of a small mixed-size text layout that the
tool writes, once with a node-label file and once without.

Line 5 hashes the same seeded fits and `evaluate` accuracies as line 2
on the mixed-size set stored at its own sizes, so that each batch is
stacked per size class.

A change that should not alter any result prints the same five lines as
its parent. Run it against a source tree with

    PYTHONPATH=<tree>/src python tools/fingerprint.py
"""

import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from pinet.datagen import GenParams, generate_iso_dataset, sample_er_connected, save_provenance
from pinet.dataio import load_dataset, load_tu, save_dataset
from pinet.graph import pad_graph
from pinet.model import PiNetConfig, save_params
from pinet.selfcheck import run_all
from pinet.train import TrainConfig, evaluate, fit


def gen_iso_digest(tmp: Path) -> str:
    h = hashlib.sha256()
    for seed in (0, 3, 7):
        ds, prov = generate_iso_dataset(GenParams(n_nodes=20, classes=3, copies=20, seed=seed))
        save_dataset(ds, tmp / "iso.jsonl")
        save_provenance(prov, tmp / "iso.prov.json")
        h.update((tmp / "iso.jsonl").read_bytes())
        h.update((tmp / "iso.prov.json").read_bytes())
    return h.hexdigest()


def mixed_graphs(count=36, classes=3, seed=5):
    """Connected graphs of 3 to 24 nodes, each at its own size."""
    rng = np.random.default_rng(seed)
    return [replace(sample_er_connected(int(n), 0.3, rng), label=i % classes)
            for i, n in enumerate(rng.integers(3, 25, size=count))]


def mixed_padded_graphs():
    """`mixed_graphs`, each padded to the largest: one size class."""
    graphs = mixed_graphs()
    n_pad = max(g.n for g in graphs)
    return [pad_graph(g, n_pad) for g in graphs]


def update_with_fits(h, graphs, tmp: Path | None = None):
    """Feed `h` the seeded fits of `graphs` in learned and fixed mode on
    both attention axes: every parameter, the epoch losses, the step
    count, the `evaluate` accuracy and, given `tmp`, the checkpoint bytes."""
    for pq_mode in ("learned", "fixed"):
        for axis in ("nodes", "features"):
            mc = PiNetConfig(d=1, C=3, F0=12, F1=8, attention_axis=axis,
                             pq_mode=pq_mode, seed=1)
            res = fit(graphs, TrainConfig(batch_size=16, epochs=3, seed=2), mc)
            for name in sorted(res.params.values):
                h.update(name.encode())
                h.update(res.params[name].data.tobytes())
            h.update(repr((res.epoch_losses, res.steps, evaluate(res.params, graphs))).encode())
            if tmp is not None:
                save_params(res.params, tmp / "params.json")
                h.update((tmp / "params.json").read_bytes())


def fit_digest(tmp: Path) -> str:
    iso, _ = generate_iso_dataset(GenParams(n_nodes=20, classes=3, copies=20, seed=0))
    h = hashlib.sha256()
    for graphs in (iso.graphs, mixed_padded_graphs()):
        update_with_fits(h, graphs, tmp)
    return h.hexdigest()


def stacked_fit_digest() -> str:
    h = hashlib.sha256()
    update_with_fits(h, mixed_graphs())
    return h.hexdigest()


def selfcheck_digest() -> str:
    h = hashlib.sha256()
    for r in run_all():
        h.update(repr((r.name, r.cases, r.tol, r.max_err.hex(), r.ok)).encode())
    return h.hexdigest()


def write_tu_layout(root: Path, node_labels: bool):
    """15 graphs of 1 to 9 nodes as the text layout `TOY_*.txt` in `root`:
    every edge listed both ways plus one self-loop (dropped at load), raw
    graph labels -1, 1 and 4, and node labels 0, 2 and 5 if asked for.
    Both variants draw the same graphs."""
    rng = np.random.default_rng(11)
    rows = {"A": [], "graph_indicator": [], "graph_labels": [], "node_labels": []}
    first = 1
    for gid, n in enumerate(rng.integers(1, 10, size=15), start=1):
        edges = np.argwhere(np.triu(rng.random((n, n)) < 0.4, k=1)) + first
        rows["A"] += [f"{u}, {v}" for u, v in edges] + [f"{v}, {u}" for u, v in edges]
        rows["graph_indicator"] += [str(gid)] * n
        rows["graph_labels"].append(str(rng.choice([-1, 1, 4])))
        rows["node_labels"] += [str(x) for x in rng.choice([0, 2, 5], size=n)]
        first += n
    rows["A"].append(f"{first - 1}, {first - 1}")
    if not node_labels:
        del rows["node_labels"]
    root.mkdir()
    for suffix, lines in rows.items():
        (root / f"TOY_{suffix}.txt").write_text("\n".join(lines) + "\n")


def loader_digest(tmp: Path) -> str:
    iso, _ = generate_iso_dataset(GenParams(n_nodes=20, classes=3, copies=20, seed=0))
    save_dataset(iso, tmp / "loaded.jsonl")
    datasets = [load_dataset(tmp / "loaded.jsonl")]
    for node_labels in (True, False):
        write_tu_layout(tmp / f"tu-{node_labels}", node_labels)
        datasets.append(load_tu(tmp / f"tu-{node_labels}", "TOY"))
    h = hashlib.sha256()
    for ds in datasets:
        for g in ds.graphs:
            h.update(repr((g.n_real, g.label)).encode())
            h.update(g.adjacency.data.tobytes())
            h.update(g.features.data.tobytes())
    return h.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        print(f"{gen_iso_digest(tmp)}  gen-iso n=20 c=3 x20, seeds 0 3 7")
        print(f"{fit_digest(tmp)}  fit, evaluate and checkpoints")
        print(f"{selfcheck_digest()}  selfcheck run_all, seed 0")
        print(f"{loader_digest(tmp)}  load_dataset and load_tu")
        print(f"{stacked_fit_digest()}  fit and evaluate, mixed sizes stacked per size class")


if __name__ == "__main__":
    main()
