"""Two-tower graph classifier with learnable message-passing scalars.

A features tower and an attention tower each run two message-passing
layers over the graph; the attention tower is softmax-normalised and the
product of the two tower outputs pools node states into a fixed-size
graph representation, which a dense layer maps to class probabilities.
Every message-passing layer owns its own (p, q) pair controlling the
propagation matrix, trainable alongside the weights.

All entry points run the same code over a stack of graphs sharing N:
the node states of B graphs form one (B*N) x F matrix (graph b in rows
b*N..(b+1)*N-1), each layer is one `tensor.propagate` op over the whole
stack, and `tensor.attention_pool` pools every graph at once. A
training batch is one stack; `forward` is a stack of one; `evaluate`
scores stacks of graphs grouped by N. The propagation matrix At(p, q)
is never built here; `graph.propagation_matrix` builds it as the
reference implementation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DomainError, ShapeError
from .graph import Batch, LabeledGraph
from .tensor import (
    Mat,
    Tape,
    attention_pool,
    attention_softmax,
    backward,
    cross_entropy,
    matmul,
    propagate,
    relu,
    softmax_masked,
)

WEIGHT_NAMES = ("w_x0", "w_x1", "w_a0", "w_a1", "w_d")
PQ_NAMES = ("p_x0", "q_x0", "p_x1", "q_x1", "p_a0", "q_a0", "p_a1", "q_a1")

# Debug hook: when True, the attention softmax ignores node masks, so
# padded nodes receive probability mass. Exists only so the consistency
# checker can demonstrate that the padding-invariance suite catches it.
_UNSAFE_NO_MASK = False


def _set_unsafe_no_mask(value: bool):
    global _UNSAFE_NO_MASK
    _UNSAFE_NO_MASK = bool(value)


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
        if min(self.d, self.C, self.F0, self.F1) < 1:
            raise DomainError("d, C, F0, F1 must all be >= 1")
        if self.attention_axis not in ("nodes", "features"):
            raise DomainError(f"attention_axis must be nodes|features, got {self.attention_axis!r}")
        if self.pq_mode not in ("learned", "fixed"):
            raise DomainError(f"pq_mode must be learned|fixed, got {self.pq_mode!r}")
        if not (0.0 <= self.fixed_p <= 1.0 and 0.0 <= self.fixed_q <= 1.0):
            raise DomainError("fixed p, q must lie in [0, 1]")


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

    d, c, f0, f1 = config.d, config.C, config.F0, config.F1
    values: dict[str, Mat] = {
        "w_x0": glorot(d, f0),
        "w_x1": glorot(f0, f1),
        "w_a0": glorot(d, f0),
        "w_a1": glorot(f0, f1),
        "w_d": glorot(f1 * f1, c),
    }
    if config.pq_mode == "learned":
        p0 = q0 = 0.5
    else:
        p0, q0 = config.fixed_p, config.fixed_q
    for k in PQ_NAMES:
        values[k] = Mat.scalar(p0 if k.startswith("p") else q0)
    return PiNetParams(values, config)


def _stack(graphs, params: PiNetParams, masks=None) -> tuple[np.ndarray, Mat, np.ndarray]:
    """B x N x N adjacency, (B*N) x d features and B x N mask of graphs
    sharing N and the model's feature width d; graph b holds rows
    b*N..(b+1)*N-1 of the features."""
    n, d = graphs[0].n, params.config.d
    for i, g in enumerate(graphs):
        if g.n != n or g.d != d:
            raise ShapeError(f"graph {i} has N={g.n}, d={g.d}; expected N={n}, model d={d}")
    adj = np.stack([g.adjacency.data for g in graphs])
    x = Mat(np.concatenate([g.features.data for g in graphs]))
    if masks is None:
        masks = [g.node_mask for g in graphs]
    return adj, x, np.stack([np.asarray(m, dtype=bool).reshape(-1) for m in masks])


def _tower_stack(adj: np.ndarray, x: Mat, params: PiNetParams, kind: str) -> Mat:
    """Two message-passing layers over a stack: relu(At1 @ relu(At0 @ X @
    W0) @ W1), without the outer relu for the attention tower (its
    nonlinearity is the attention softmax). The first layer propagates X
    before the weight product: (At0 @ X) @ W0 costs N*N*d per graph
    instead of N*N*F0, and the two orders agree up to rounding."""
    p = params.values
    h = relu(matmul(propagate(adj, x, p[f"p_{kind}0"], p[f"q_{kind}0"]), p[f"w_{kind}0"]))
    out = propagate(adj, matmul(h, p[f"w_{kind}1"]), p[f"p_{kind}1"], p[f"q_{kind}1"])
    return relu(out) if kind == "x" else out


def _live_mask(mask: np.ndarray) -> np.ndarray:
    return np.ones_like(mask) if _UNSAFE_NO_MASK else mask


def _probs(adj: np.ndarray, x: Mat, mask: np.ndarray, params: PiNetParams) -> Mat:
    """B x C class probabilities for a stack, one row per graph."""
    z_x = _tower_stack(adj, x, params, "x")
    pre = _tower_stack(adj, x, params, "a")
    pooled = attention_pool(pre, z_x, _live_mask(mask), params.config.attention_axis)
    return softmax_masked(matmul(pooled, params.values["w_d"]), axis="rows")


def forward_features(g: LabeledGraph, params: PiNetParams, mask=None) -> Mat:
    """N x F1 node features after the features tower.

    Padded-node rows are zero: their input features are zero and the
    propagation matrix gives them no cross-node entries. `mask` is
    accepted for signature symmetry with the attention tower.
    """
    adj, x, _ = _stack([g], params)
    return _tower_stack(adj, x, params, "x")


def forward_attention(g: LabeledGraph, params: PiNetParams, mask=None) -> Mat:
    """F1 x N attention weights from the attention tower (not tracked).

    With attention_axis="nodes", each row is softmax-normalised over the
    real (unmasked) nodes; with "features", each node's column is
    normalised over the F1 feature positions and padded columns are then
    zeroed. Either way padded-node columns are exactly 0.
    """
    adj, x, m = _stack([g], params, None if mask is None else [mask])
    pre = _tower_stack(adj, x, params, "a").data
    att = attention_softmax(pre.reshape(1, g.n, -1), _live_mask(m), params.config.attention_axis)
    return Mat(att[0].T)


def forward(g: LabeledGraph, params: PiNetParams, mask=None) -> Mat:
    """Class probability row (1 x C) for one graph."""
    return _probs(*_stack([g], params, None if mask is None else [mask]), params)


def loss_batch(batch: Batch, params: PiNetParams) -> Mat:
    """Cross-entropy summed over the batch (1x1), from one forward pass
    over the whole batch."""
    if len(batch) == 0:
        raise DomainError("loss_batch needs a non-empty batch")
    probs = _probs(*_stack(batch.graphs, params, batch.masks), params)
    return cross_entropy(probs, batch.labels)


def predict_classes(params: PiNetParams, graphs) -> np.ndarray:
    """Argmax class per graph of a list sharing N and d, from one forward
    pass; ties break toward the lowest index."""
    graphs = list(graphs)
    if not graphs:
        raise DomainError("predict_classes needs at least one graph")
    return np.argmax(_probs(*_stack(graphs, params), params).data, axis=1)


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
    cfg = params.config
    doc = {
        "format": CHECKPOINT_FORMAT,
        "config": {
            "d": cfg.d, "C": cfg.C, "F0": cfg.F0, "F1": cfg.F1,
            "attention_axis": cfg.attention_axis, "pq_mode": cfg.pq_mode,
            "fixed_p": cfg.fixed_p, "fixed_q": cfg.fixed_q, "seed": cfg.seed,
        },
        "weights": {
            k: {
                "rows": params.values[k].rows,
                "cols": params.values[k].cols,
                "data": params.values[k].data.reshape(-1).tolist(),
            }
            for k in WEIGHT_NAMES
        },
        "pq": {k: params.values[k].item() for k in PQ_NAMES},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_params(path) -> PiNetParams:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise DataFormatError("not a valid checkpoint", path=str(path)) from e
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(
            f"unsupported checkpoint format {doc.get('format')!r}", path=str(path)
        )
    config = PiNetConfig(**doc["config"])
    values: dict[str, Mat] = {}
    for k in WEIGHT_NAMES:
        w = doc["weights"][k]
        values[k] = Mat(np.asarray(w["data"]).reshape(w["rows"], w["cols"]))
    for k in PQ_NAMES:
        values[k] = Mat.scalar(doc["pq"][k])
    return PiNetParams(values, config)
