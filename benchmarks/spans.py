"""Spans recorded from outside the program, and a training loop driven
through pinet's public calls so that each layer gets its own span.

`drive_fit` repeats `train.fit` step for step: same shuffle stream, same
batches, same Adam state, same clamping. Its final parameters must equal
`fit`'s bit for bit, which the benchmark checks on every run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from pinet import graph, model, tensor, train


class Tracer:
    """In-memory spans: [name, start, end, parent span index or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[sid][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        """Seconds spent in each closed span with this name, in order."""
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None]


def no_spans(name: str):
    return nullcontext()


@dataclass
class DrivenFit:
    params: model.PiNetParams
    epoch_losses: list[float]
    steps: int = 0
    graphs_seen: int = 0
    tape_nodes: int = 0
    real_nodes: int = 0
    padded_nodes: int = 0
    real_pairs: int = 0
    padded_pairs: int = 0


def drive_fit(graphs, tc: train.TrainConfig, mc: model.PiNetConfig,
              params: model.PiNetParams, span=no_spans) -> DrivenFit:
    """`train.fit(graphs, tc, mc, params)` unrolled into public calls:
    `graph.make_batch`; `Tape`/`tape.leaf` + `model.loss_batch`;
    `tensor.backward`; `train.adam_step` + `model.clamp_pq`. `span(name)`
    returns the context manager wrapped around each call."""
    rng = np.random.default_rng(tc.seed)
    state = train.AdamState()
    order = np.arange(len(graphs))
    out = DrivenFit(params, [])
    for _ in range(tc.epochs):
        if tc.shuffle:
            rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), tc.batch_size):
            idx = order[start:start + tc.batch_size]
            with span("graph.make_batch"):
                batch = graph.make_batch([graphs[i] for i in idx], mc.C)
            with span("model.grads_batch"):
                with span("model.forward"):
                    tape = tensor.Tape()
                    tracked = {k: tape.leaf(v, k) for k, v in params.trainables().items()}
                    loss = model.loss_batch(batch, params.replaced(tracked))
                with span("tensor.backward"):
                    grads = tensor.backward(tape, loss)
            epoch_loss += loss.item()
            with span("train.adam_step"):
                updated = train.adam_step(params.trainables(), grads, state, tc.learning_rate)
            with span("model.clamp_pq"):
                params = model.clamp_pq(params.replaced(updated))
            out.steps += 1
            out.graphs_seen += len(batch)
            out.tape_nodes += len(tape)
            for g in batch.graphs:
                out.real_nodes += g.n_real
                out.padded_nodes += g.n
                out.real_pairs += g.n_real ** 2
                out.padded_pairs += g.n ** 2
        out.epoch_losses.append(epoch_loss)
    out.params = params
    return out


def same_params(a: model.PiNetParams, b: model.PiNetParams) -> bool:
    """Bit-for-bit equality of every weight and every p, q."""
    return a.values.keys() == b.values.keys() and all(
        np.array_equal(a[k].data, b[k].data) for k in a.values
    )
