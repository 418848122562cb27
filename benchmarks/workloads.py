"""The benchmark's workloads: set-up, the measured closed loop, checks.

Each workload is one client in a closed loop: it trains a fresh model
with `train.fit` on its training split and scores the held-out split
with `train.evaluate`, then starts over, until the run's seconds are
spent. Every repetition is the same seeded computation, so each gives
one timing sample and all must agree bit for bit.

Why each workload exists, and which layer metrics should move which
end-to-end metric, is set out in README.md.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import resource
import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

import fixture
from spans import Tracer, drive_fit, same_params
from pinet import datagen, dataio, graph, model, tensor, train
from pinet.tensor import Mat

LEARNING_RATE = 1e-3
KFOLD = 5


@dataclass(frozen=True)
class Workload:
    source: str  # "iso" (generated, line-JSON) or "mixed" (text layout fixture)
    fixed_pq: tuple[float, float] | None  # None: p, q are learned
    split: str  # "kfold": fold 0 of a stratified k-fold is held out; "per-class": a per-class draw trains


WORKLOADS = {
    "iso-train-learned": Workload("iso", None, "kfold"),
    "iso-exp-fixed": Workload("iso", (1.0, 0.0), "per-class"),
    "mixed-pad-learned": Workload("mixed", None, "kfold"),
}


@dataclass(frozen=True)
class Scale:
    iso_nodes: int
    iso_classes: int
    iso_copies: int
    iso_edge_prob: float
    mixed_count: int
    mixed_n_min: int
    mixed_n_max: int
    mixed_alpha: float
    f0: int
    f1: int
    batch: int
    per_class: int  # training graphs per class on a per-class split
    epochs: dict  # per workload, per fit
    setups: int  # set-up repetitions; setup_s is their median
    prop_reps: int  # propagation_matrix calls timed per traced run


# Paper scale. Epochs are chosen so one fit takes about 1 s on a 2-core
# machine, giving 15 or more samples per 25 s run: a fixed numpy loop on
# a shared virtual machine swings +-20% between half-second blocks, and
# medians over many short fits ride that out where totals do not.
FULL = Scale(
    iso_nodes=50, iso_classes=5, iso_copies=100, iso_edge_prob=0.15,
    mixed_count=250, mixed_n_min=6, mixed_n_max=128, mixed_alpha=1.3,
    f0=100, f1=64, batch=50, per_class=10,
    epochs={"iso-train-learned": 1, "iso-exp-fixed": 10, "mixed-pad-learned": 1},
    setups=5, prop_reps=200,
)
SMOKE = Scale(
    iso_nodes=8, iso_classes=3, iso_copies=6, iso_edge_prob=0.4,
    mixed_count=12, mixed_n_min=3, mixed_n_max=10, mixed_alpha=1.3,
    f0=4, f1=3, batch=4, per_class=2,
    epochs={name: 1 for name in WORKLOADS},
    setups=2, prop_reps=3,
)


class Ledger:
    """Operations and checks attempted, and the names of those failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def op(self):
        self.attempted += 1

    def check(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed.append(name)


@dataclass
class Inputs:
    train: list
    heldout: list
    mc: model.PiNetConfig
    tc: train.TrainConfig
    params: model.PiNetParams
    meta: dict


@dataclass
class Cycle:
    fit_s: float
    eval_s: float
    params: model.PiNetParams
    losses: list
    acc: float
    steps: int


def _sha256(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _same_graphs(a: dataio.Dataset, b: dataio.Dataset) -> bool:
    return a.class_count == b.class_count and len(a) == len(b) and all(
        g.n_real == h.n_real and g.label == h.label
        and np.array_equal(g.adjacency.data, h.adjacency.data)
        and np.array_equal(g.features.data, h.features.data)
        for g, h in zip(a.graphs, b.graphs)
    )


def _set_up_once(w, scale, seed, tmp, span):
    """Make and load the inputs the way a user does, then init the
    model. iso: `pinet gen-iso` (generate, save dataset and provenance)
    and `load_dataset`; mixed: write the fixture's text files and
    `load_tu`. Returns (dataset, model config, initial params, the
    written input files)."""
    with span("setup"):
        if w.source == "iso":
            gp = datagen.GenParams(n_nodes=scale.iso_nodes, classes=scale.iso_classes,
                                   copies=scale.iso_copies, edge_prob=scale.iso_edge_prob, seed=seed)
            with span("datagen.generate"):
                ds, prov = datagen.generate_iso_dataset(gp)
            files = [os.path.join(tmp, "iso.jsonl"), os.path.join(tmp, "iso.jsonl.prov.json")]
            with span("setup.write"):
                dataio.save_dataset(ds, files[0])
                datagen.save_provenance(prov, files[1])
            with span("dataio.load_dataset"):
                used = dataio.load_dataset(files[0])
        else:
            with span("datagen.generate"):
                tgs = fixture.mixed_graphs(seed, scale.mixed_count, scale.mixed_n_min,
                                           scale.mixed_n_max, scale.mixed_alpha)
            with span("setup.write"):
                files = fixture.write_tu(tmp, "MIXED", tgs)
            with span("dataio.load_tu"):
                used = dataio.load_tu(tmp, "MIXED")
        p, q = w.fixed_pq or (1.0, 0.0)
        mc = model.PiNetConfig(d=used.d, C=used.class_count, F0=scale.f0, F1=scale.f1,
                               pq_mode="learned" if w.fixed_pq is None else "fixed",
                               fixed_p=p, fixed_q=q, seed=seed)
        with span("model.init_params"):
            params = model.init_params(mc)
    return used, mc, params, files


def _check_inputs(w, used, files, tmp, span, ledger):
    """Outside the timed set-up: read the same graphs through the other
    loader and compare; for iso, replay the saved provenance."""
    if w.source == "iso":
        fixture.write_tu(tmp, "ISO", fixture.tu_graphs_of(used.graphs))
        with span("dataio.load_tu"):
            other = dataio.load_tu(tmp, "ISO")
        prov = datagen.load_provenance(files[1])
        ledger.check("datagen.verify_provenance", datagen.verify_provenance(used, prov))
    else:
        path = os.path.join(tmp, "mixed.jsonl")
        dataio.save_dataset(used, path)
        with span("dataio.load_dataset"):
            other = dataio.load_dataset(path)
    ledger.check("dataio.load_dataset and dataio.load_tu agree", _same_graphs(used, other))


def _split(w, scale, ds, seed):
    labels = ds.labels()
    if w.split == "kfold":
        held = set(train.stratified_kfold(labels, KFOLD, seed)[0])
    else:
        rng = np.random.default_rng(seed)
        picked: set[int] = set()
        for cls in sorted(set(labels)):
            members = np.flatnonzero(np.asarray(labels) == cls)
            picked.update(int(i) for i in rng.choice(members, size=scale.per_class, replace=False))
        held = set(range(len(labels))) - picked
    return ([g for i, g in enumerate(ds.graphs) if i not in held],
            [g for i, g in enumerate(ds.graphs) if i in held])


def set_up(name, scale, seed, tmp, tracer, ledger) -> Inputs:
    """Run the set-up `scale.setups` times (the median is setup_s) and
    check the inputs: both loaders agree, provenance replays, and the
    written input files hash the same every time."""
    w = WORKLOADS[name]
    hashes = []
    for rep in range(scale.setups):
        ledger.op()
        used, mc, params, files = _set_up_once(w, scale, seed, tmp, tracer.span)
        hashes.append(_sha256(files))
        if rep == 0:
            first = (used, mc, params)
            _check_inputs(w, used, files, tmp, tracer.span, ledger)
    ledger.check("written inputs' sha256 repeats", len(set(hashes)) == 1)
    used, mc, params = first
    train_graphs, heldout = _split(w, scale, used, seed)
    tc = train.TrainConfig(learning_rate=LEARNING_RATE, batch_size=scale.batch,
                           epochs=scale.epochs[name], seed=seed)
    sizes = [g.n_real for g in used.graphs]
    meta = {
        "inputs_sha256": hashes[0],
        "graphs": len(used), "train": len(train_graphs), "heldout": len(heldout),
        "n_pad": used.n_pad, "d": used.d, "classes": used.class_count,
        "mean_n_real": float(np.mean(sizes)),
        "fixture_useful_pair_frac": fixture.useful_pair_frac(sizes),
        "epochs_per_fit": tc.epochs, "batch_size": tc.batch_size,
        "pq": "learned" if w.fixed_pq is None else list(w.fixed_pq),
    }
    return Inputs(train_graphs, heldout, mc, tc, params, meta)


def plain_cycle(inp: Inputs, ledger: Ledger) -> Cycle:
    """One untraced fit + evaluate, as a `pinet` command runs them."""
    ledger.op()
    t0 = time.perf_counter()
    result = train.fit(inp.train, inp.tc, inp.mc, inp.params)
    t1 = time.perf_counter()
    ledger.op()
    acc = train.evaluate(result.params, inp.heldout)
    t2 = time.perf_counter()
    return Cycle(t1 - t0, t2 - t1, result.params, list(result.epoch_losses), acc, result.steps)


def traced_cycle(inp: Inputs, tracer: Tracer, ledger: Ledger):
    """The same fit + evaluate driven through public calls, one span per
    call: `drive_fit` for training, `predict_class` per held-out graph."""
    ledger.op()
    t0 = time.perf_counter()
    with tracer.span("train.fit"):
        driven = drive_fit(inp.train, inp.tc, inp.mc, inp.params, tracer.span)
    t1 = time.perf_counter()
    ledger.op()
    hits = 0
    with tracer.span("train.evaluate"):
        for g in inp.heldout:
            with tracer.span("model.predict_class"):
                hits += model.predict_class(driven.params, g) == g.label
    t2 = time.perf_counter()
    cycle = Cycle(t1 - t0, t2 - t1, driven.params, driven.epoch_losses,
                  hits / len(inp.heldout), driven.steps)
    return cycle, driven


def check_cycle(c: Cycle, ref: Cycle | None, ledger: Ledger, what: str):
    ledger.check("every epoch loss is finite", all(math.isfinite(x) for x in c.losses))
    ledger.check("all p, q lie in [0, 1]", all(0.0 <= v <= 1.0 for v in c.params.pq_pairs().values()))
    if ref is not None:
        ledger.check(what, c.losses == ref.losses and c.acc == ref.acc and same_params(c.params, ref.params))


def time_propagation_us(inp: Inputs, reps: int) -> float:
    """Median `graph.propagation_matrix` call at the workload's N: tracked
    p, q (fresh tape per call) in learned mode, floats in fixed mode."""
    a = inp.train[0].adjacency
    times = []
    for _ in range(reps):
        if inp.mc.pq_mode == "learned":
            tape = tensor.Tape()
            p, q = tape.leaf(Mat.scalar(0.5), "p"), tape.leaf(Mat.scalar(0.5), "q")
        else:
            p, q = inp.mc.fixed_p, inp.mc.fixed_q
        t0 = time.perf_counter()
        graph.propagation_matrix(a, p, q)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def step_peak_mib(inp: Inputs) -> float:
    """tracemalloc peak of one training step on the first batch."""
    batch = graph.make_batch(inp.train[:inp.tc.batch_size], inp.mc.C)
    tracemalloc.start()
    try:
        _, grads = model.grads_batch(batch, inp.params)
        train.adam_step(inp.params.trainables(), grads, train.AdamState(), inp.tc.learning_rate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _train_gps(inp: Inputs, cycles: list[Cycle]) -> float:
    return inp.tc.epochs * len(inp.train) / statistics.median(c.fit_s for c in cycles)


def run(name: str, scale: Scale, seed: int, seconds: float, traced: bool,
        tmp: str, import_s: float, ledger: Ledger):
    """Set up, measure for `seconds`, check. Returns (metrics, meta,
    tracer); metrics map each name to (value, unit)."""
    tracer = Tracer()
    inp = set_up(name, scale, seed, tmp, tracer, ledger)
    setup_s = import_s + statistics.median(tracer.durations("setup"))
    # Tapes are reference cycles, freed by the cyclic collector; start the
    # measured phase from an empty collector so peak RSS does not depend on
    # how many objects this seed's set-up happened to allocate.
    gc.collect()

    plain: list[Cycle] = []
    traced_cycles: list[Cycle] = []
    driven_runs = []
    deadline = time.perf_counter() + seconds
    while True:
        c = plain_cycle(inp, ledger)
        check_cycle(c, plain[0] if plain else None, ledger, "repeated fit + evaluate is bit-identical")
        plain.append(c)
        if traced:
            t, driven = traced_cycle(inp, tracer, ledger)
            check_cycle(t, c, ledger, "traced loop matches train.fit bit for bit")
            traced_cycles.append(t)
            driven_runs.append(driven)
        if time.perf_counter() >= deadline:
            break
    if not traced:
        # outside the measured window: the driven loop must reproduce fit
        ledger.op()
        driven = drive_fit(inp.train, inp.tc, inp.mc, inp.params)
        ledger.check("traced loop matches train.fit bit for bit",
                     driven.epoch_losses == plain[0].losses and same_params(driven.params, plain[0].params))

    ref = plain[0]
    meta = dict(inp.meta, cycles=len(plain), final_loss=ref.losses[-1], heldout_acc=ref.acc,
                pq_final=ref.params.pq_pairs(), fit_s=[c.fit_s for c in plain],
                eval_s=[c.eval_s for c in plain], setup_s=tracer.durations("setup"))
    if not traced:
        metrics = {
            "train_graphs_per_s": (_train_gps(inp, plain), "graphs/s"),
            "eval_graphs_per_s": (len(inp.heldout) / statistics.median(c.eval_s for c in plain), "graphs/s"),
            "wall_s": (statistics.median(c.fit_s + c.eval_s for c in plain), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "ok_frac": (1.0 - len(ledger.failed) / ledger.attempted, "ratio"),
        }
        return metrics, meta, tracer

    d0 = driven_runs[0]
    graphs_seen = sum(d.graphs_seen for d in driven_runs)
    steps = sum(d.steps for d in driven_runs)
    dur = tracer.durations
    step_parts = ("graph.make_batch", "model.grads_batch", "train.adam_step", "model.clamp_pq")
    grads_ms = np.asarray(dur("model.grads_batch")) * 1e3
    predict_ms = np.asarray(dur("model.predict_class")) * 1e3
    metrics = {
        "datagen.generate_s": (statistics.median(dur("datagen.generate")), "s"),
        "dataio.load_dataset_s": (statistics.median(dur("dataio.load_dataset")), "s"),
        "dataio.load_tu_s": (statistics.median(dur("dataio.load_tu")), "s"),
        "graph.propagation_matrix_us": (time_propagation_us(inp, scale.prop_reps), "us"),
        "graph.make_batch_ms": (sum(dur("graph.make_batch")) / steps * 1e3, "ms"),
        "graph.useful_pair_frac": (d0.real_pairs / d0.padded_pairs, "ratio"),
        "graph.useful_node_frac": (d0.real_nodes / d0.padded_nodes, "ratio"),
        "model.forward_ms_per_graph": (sum(dur("model.forward")) / graphs_seen * 1e3, "ms"),
        "model.grads_batch_ms.p50": (float(np.percentile(grads_ms, 50)), "ms"),
        "model.grads_batch_ms.p90": (float(np.percentile(grads_ms, 90)), "ms"),
        "model.grads_batch_ms.n": (grads_ms.size, "count"),
        "model.predict_ms.p50": (float(np.percentile(predict_ms, 50)), "ms"),
        "model.predict_ms.p90": (float(np.percentile(predict_ms, 90)), "ms"),
        "model.predict_ms.n": (predict_ms.size, "count"),
        "model.clamp_pq_ms": (sum(dur("model.clamp_pq")) / steps * 1e3, "ms"),
        "model.step_peak_mb": (step_peak_mib(inp), "MiB"),
        "tensor.backward_ms_per_graph": (sum(dur("tensor.backward")) / graphs_seen * 1e3, "ms"),
        "tensor.tape_nodes_per_graph": (d0.tape_nodes / d0.graphs_seen, "count"),
        "train.adam_step_ms": (sum(dur("train.adam_step")) / steps * 1e3, "ms"),
        "train.step_ms": (statistics.median(c.fit_s for c in plain) / ref.steps * 1e3, "ms"),
        "train.final_loss": (ref.losses[-1], "nats"),
        "train.heldout_acc": (ref.acc, "ratio"),
        "trace.overhead_frac": (_train_gps(inp, traced_cycles) / _train_gps(inp, plain), "ratio"),
        "trace.accounted_frac": (
            sum(sum(dur(part)) for part in step_parts) / sum(dur("train.fit")), "ratio"),
    }
    return metrics, meta, tracer
