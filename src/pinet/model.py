"""Two-tower graph classifier with learnable message-passing scalars.

A features tower and an attention tower each run two message-passing
layers over the graph; the attention tower is softmax-normalised and the
product of the two tower outputs pools node states into a fixed-size
graph representation, which a dense layer maps to class probabilities.
Every message-passing layer owns its own (p, q) pair controlling the
propagation matrix, trainable alongside the weights.

All entry points run the same code over a stack that
`graph.make_batch` builds, every graph padded to the batch's largest
N: the node states of B graphs form one (B*N) x F matrix (graph b in
rows b*N..(b+1)*N-1), each layer is one `tensor.propagate` op over the
whole stack, and `tensor.attention_pool` pools every graph at once. A
training batch is one stack; `forward` is a stack of one; `evaluate`
scores stacks of consecutive graphs. The propagation matrix At(p, q)
is never built here; `graph.propagation_matrix` builds it as the
reference implementation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dataio import _real_field, read_document, write_document
from .errors import DomainError, ShapeError
from .graph import Batch, LabeledGraph, _check_int_fields, make_batch
from .tensor import (
    Mat,
    Tape,
    _pq_scalar,
    attention_pool,
    attention_softmax,
    backward,
    cross_entropy,
    matmul,
    propagate,
    relu,
    softmax_rows,
)

WEIGHT_NAMES = ("w_x0", "w_x1", "w_a0", "w_a1", "w_d")
PQ_NAMES = ("p_x0", "q_x0", "p_x1", "q_x1", "p_a0", "q_a0", "p_a1", "q_a1")

@dataclass(frozen=True)
class PiNetConfig:
    d: int
    C: int
    F0: int = 100
    F1: int = 64
    attention_axis: str = "nodes"  # or "features"
    pq_mode: str = "learned"  # or "fixed"
    fixed_p: float = 1.0
    fixed_q: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_int_fields(self, d=1, C=1, F0=1, F1=1, seed=0)
        for name, choices in (("attention_axis", ("nodes", "features")),
                              ("pq_mode", ("learned", "fixed"))):
            v = getattr(self, name)
            if v not in choices:
                raise DomainError(f"{name} must be {'|'.join(choices)}, got {v!r}")
            object.__setattr__(self, name, str(v))
        for name in ("fixed_p", "fixed_q"):
            _pq_scalar(_real_field(self, name), name)

    def weight_shapes(self) -> dict[str, tuple[int, int]]:
        """Shape of each weight matrix, in `init_params`' draw order; the
        one table of them, which `load_params` checks a checkpoint by."""
        d, c, f0, f1 = self.d, self.C, self.F0, self.F1
        return {"w_x0": (d, f0), "w_x1": (f0, f1), "w_a0": (d, f0), "w_a1": (f0, f1),
                "w_d": (f1 * f1, c)}


@dataclass(frozen=True)
class PiNetParams:
    """Flat name -> Mat parameter store.

    Weight matrices under WEIGHT_NAMES; the per-layer propagation
    scalars under PQ_NAMES as 1x1 matrices ('x' = features tower,
    'a' = attention tower, suffix = layer index). In fixed mode the pq
    entries hold the fixed values and are excluded from training.
    """

    values: dict[str, Mat]
    config: PiNetConfig

    def __post_init__(self):
        missing = [k for k in WEIGHT_NAMES + PQ_NAMES if k not in self.values]
        if missing:
            raise DomainError(f"params missing entries: {missing}")
        for k in PQ_NAMES:
            if self.values[k].shape != (1, 1):
                raise ShapeError(f"{k} must be 1x1")

    def __getitem__(self, name: str) -> Mat:
        return self.values[name]

    @property
    def pq_trainable(self) -> bool:
        return self.config.pq_mode == "learned"

    def trainables(self) -> dict[str, Mat]:
        names = WEIGHT_NAMES + (PQ_NAMES if self.pq_trainable else ())
        return {k: self.values[k] for k in names}

    def replaced(self, updates: dict[str, Mat]) -> "PiNetParams":
        unknown = set(updates) - set(self.values)
        if unknown:
            raise DomainError(f"unknown parameter names: {sorted(unknown)}")
        return PiNetParams({**self.values, **updates}, self.config)

    def pq_pairs(self) -> dict[str, float]:
        return {k: self.values[k].item() for k in PQ_NAMES}


def init_params(config: PiNetConfig) -> PiNetParams:
    """Glorot-uniform weights, deterministic per seed; p = q = 0.5 when
    learned, the configured constants when fixed."""
    rng = np.random.default_rng(config.seed)

    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return Mat(rng.uniform(-bound, bound, size=(fan_in, fan_out)))

    values = {k: glorot(*shape) for k, shape in config.weight_shapes().items()}
    if config.pq_mode == "learned":
        p0 = q0 = 0.5
    else:
        p0, q0 = config.fixed_p, config.fixed_q
    for k in PQ_NAMES:
        values[k] = Mat.scalar(p0 if k.startswith("p") else q0)
    return PiNetParams(values, config)


def _tower_stack(batch: Batch, params: PiNetParams, kind: str) -> Mat:
    """Two message-passing layers over a stack: relu(At1 @ relu(At0 @ X @
    W0) @ W1), without the outer relu for the attention tower (its
    nonlinearity is the attention softmax). The first layer propagates X
    before the weight product: (At0 @ X) @ W0 costs N*N*d per graph
    instead of N*N*F0, and the two orders agree up to rounding."""
    p = params.values
    h = relu(matmul(propagate(batch, batch.x, p[f"p_{kind}0"], p[f"q_{kind}0"]), p[f"w_{kind}0"]))
    out = propagate(batch, matmul(h, p[f"w_{kind}1"]), p[f"p_{kind}1"], p[f"q_{kind}1"])
    return relu(out) if kind == "x" else out


def _probs(batch: Batch, params: PiNetParams) -> Mat:
    """B x C class probabilities for a stack, one row per graph."""
    if batch.x.cols != params.config.d:
        raise ShapeError(f"graphs have d={batch.x.cols}, model d={params.config.d}")
    z_x = _tower_stack(batch, params, "x")
    pre = _tower_stack(batch, params, "a")
    pooled = attention_pool(pre, z_x, batch.mask, params.config.attention_axis)
    return softmax_rows(matmul(pooled, params.values["w_d"]))


def forward_features(g: LabeledGraph, params: PiNetParams) -> Mat:
    """N x F1 node features after the features tower.

    Padded-node rows are zero: their input features are zero and the
    propagation matrix gives them no cross-node entries.
    """
    return _tower_stack(make_batch([g], params.config.C), params, "x")


def forward_attention(g: LabeledGraph, params: PiNetParams) -> Mat:
    """F1 x N attention weights from the attention tower (not tracked).

    With attention_axis="nodes", each row is softmax-normalised over the
    real (unmasked) nodes; with "features", each node's column is
    normalised over the F1 feature positions and padded columns are then
    zeroed. Either way padded-node columns are exactly 0.
    """
    batch = make_batch([g], params.config.C)
    pre = _tower_stack(batch, params, "a").data
    att = attention_softmax(pre.reshape(1, g.n, -1), batch.mask, params.config.attention_axis)
    return Mat(att[0].T)


def forward(g: LabeledGraph, params: PiNetParams) -> Mat:
    """Class probability row (1 x C) for one graph."""
    return _probs(make_batch([g], params.config.C), params)


def loss_batch(batch: Batch, params: PiNetParams) -> Mat:
    """Cross-entropy summed over the batch (1x1), from one forward pass
    over the whole batch."""
    return cross_entropy(_probs(batch, params), batch.labels)


def predict_classes(params: PiNetParams, graphs) -> np.ndarray:
    """Argmax class per graph, from one forward pass over graphs of one
    feature width d and any sizes; ties break toward the lowest index.
    A label at or above the model's class count raises DomainError."""
    return np.argmax(_probs(make_batch(graphs, params.config.C), params).data, axis=1)


def predict_class(params: PiNetParams, g: LabeledGraph) -> int:
    """Argmax class; ties break toward the lowest index."""
    return int(predict_classes(params, [g])[0])


def clamp_pq(params: PiNetParams) -> PiNetParams:
    """Project every p, q back into [0, 1] (no-op for in-range values)."""
    updates = {}
    for k in PQ_NAMES:
        v = params.values[k].item()
        c = min(1.0, max(0.0, v))
        if c != v:
            updates[k] = Mat.scalar(c)
    return params.replaced(updates) if updates else params


def grads_batch(batch: Batch, params: PiNetParams) -> tuple[float, dict[str, Mat]]:
    """One tape pass: batch loss value and gradients for the trainables."""
    tape = Tape()
    tracked = {k: tape.leaf(v, k) for k, v in params.trainables().items()}
    loss = loss_batch(batch, params.replaced(tracked))
    return loss.item(), backward(tape, loss)


CHECKPOINT_FORMAT = "pinet-checkpoint-v1"


def save_params(params: PiNetParams, path):
    """Write a JSON checkpoint; floats serialise at full precision, so a
    load restores bit-identical values."""
    write_document(path, CHECKPOINT_FORMAT, {
        "config": asdict(params.config),
        "weights": {
            k: {
                "rows": params.values[k].rows,
                "cols": params.values[k].cols,
                "data": params.values[k].data.reshape(-1).tolist(),
            }
            for k in WEIGHT_NAMES
        },
        "pq": {k: params.values[k].item() for k in PQ_NAMES},
    })


def load_params(path) -> PiNetParams:
    """Read a checkpoint written by `save_params`. `dataio.read_document`
    reads the document, `PiNetConfig` checks the config, its
    `weight_shapes` each weight's shape, `Mat` each weight's data and
    `tensor._pq_scalar` each p and q; a malformed entry raises
    DataFormatError naming the path and the entry."""
    doc, bad = read_document(path, CHECKPOINT_FORMAT, "checkpoint")
    try:
        config = PiNetConfig(**doc["config"])
    except KeyError:
        raise bad("config", "is missing") from None
    except (TypeError, DomainError) as e:
        raise bad("config", f"is invalid ({e})") from None
    values: dict[str, Mat] = {}
    for k, shape in config.weight_shapes().items():
        try:
            w = doc["weights"][k]
            if (w["rows"], w["cols"]) != shape:
                raise DomainError(f"must be {shape[0]}x{shape[1]} for the config, "
                                  f"got {w['rows']}x{w['cols']}")
            values[k] = Mat(Mat(w["data"]).data.reshape(shape))
        except (KeyError, TypeError, ValueError) as e:  # DomainError is a ValueError
            raise bad(f"weights.{k}", f"is malformed ({e})") from None
    for k in PQ_NAMES:
        try:
            values[k] = _pq_scalar(doc["pq"][k], k)
        except (KeyError, TypeError):
            raise bad(f"pq.{k}", "is missing") from None
        except ValueError as e:
            raise bad(f"pq.{k}", f"is invalid ({e})") from None
    return PiNetParams(values, config)
