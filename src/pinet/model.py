"""Two-tower graph classifier with learnable message-passing scalars.

A features tower and an attention tower each run two message-passing
layers over the graph; the attention tower is softmax-normalised and the
product of the two tower outputs pools node states into a fixed-size
graph representation, which a dense layer maps to class probabilities.
Every message-passing layer owns its own (p, q) pair controlling the
propagation matrix, trainable alongside the weights.

All entry points run the same code over the stacks that
`graph.make_batch` builds, one per power-of-two class of stored node
counts, each padded to its own largest N. The node states of a stack's
B graphs form one (B*N) x F matrix (graph k in rows k*N..(k+1)*N-1),
each layer is one `tensor.propagate` call over the whole stack, and
`tensor.attention_pool` pools every graph of it at once. The readout,
the loss and its gradient then run once over all of the batch's rows, in
input order. A training batch is one `make_batch`; `forward` is a stack
of one; `evaluate` scores chunks of consecutive graphs. Graphs that
share a size class, as every `gen-iso` set does, form one stack. The
propagation matrix At(p, q) is never built here;
`graph.propagation_matrix` builds it as the reference implementation.
When the graphs carry one input feature (d = 1, as every `gen-iso`
graph does), the first layer's input At0 @ X is one column, and
`_rank2_layer` writes relu(At0 @ X @ W0) @ W1 as a (B*N) x 2 by 2 x F1
product: no (B*N) x F0 stack is built, forward or backward.

The model differentiates itself. `_tower`, `_pool` and `_forward`
compose the two fused ops, whose VJPs `tensor` provides, with plain
numpy products, relu, softmax and clamped cross-entropy, and each
returns a vjp closure that runs its pieces' VJPs in reverse order;
`grads_batch` is the forward pass followed by that vjp.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dataio import _real_field, read_document, write_document
from .errors import DomainError, ShapeError
from .graph import Batch, LabeledGraph, Stack, _check_int_fields, make_batch
from .tensor import Mat, _finite, _leaves_of, _pq_scalar, attention_pool, attention_softmax, propagate

WEIGHT_NAMES = ("w_x0", "w_x1", "w_a0", "w_a1", "w_d")
PQ_NAMES = ("p_x0", "q_x0", "p_x1", "q_x1", "p_a0", "q_a0", "p_a1", "q_a1")
CROSS_ENTROPY_EPS = 1e-12

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


def _dense_layer(u: np.ndarray, w0: np.ndarray, w1: np.ndarray):
    """relu(u @ w0) @ w1 over the (B*N) x d stack u, and its vjp
    `(g, want_u) -> (gw0, gw1, gu)`, with gu None unless `want_u`."""
    h = _finite(u @ w0)
    np.maximum(h, 0.0, out=h)  # relu in place; h > 0 is its backward mask
    a1 = _finite(h @ w1)

    def back(g, want_u):
        gw1 = h.T @ g
        g = g @ w1.T
        g *= h > 0
        return u.T @ g, gw1, g @ w0.T if want_u else None

    return a1, back


def _rank2_layer(u: np.ndarray, w0: np.ndarray, w1: np.ndarray):
    """`_dense_layer` for a single column u, through relu(u * w) =
    u+ relu(w) + (-u)+ relu(-w): with U = [u+, (-u)+] ((B*N) x 2) and
    W = [relu(w0); relu(-w0)] (2 x F0), relu(u @ w0) = U @ W, so the
    layer is U @ R with R = W @ w1 (2 x F1) and no array is wider than
    F1. Agrees with `_dense_layer` up to rounding."""
    big_u = np.maximum(np.hstack((u, -u)), 0.0)
    big_w = np.maximum(np.vstack((w0, -w0)), 0.0)
    r = big_w @ w1
    a1 = _finite(big_u @ r)

    def back(g, want_u):
        ug = big_u.T @ g
        t = ug @ w1.T
        gw0 = np.where(w0 > 0, t[:1], 0.0) - np.where(w0 < 0, t[1:], 0.0)
        gu = None
        if want_u:
            gr = g @ r.T
            gu = np.where(u > 0, gr[:, :1], 0.0) - np.where(u < 0, gr[:, 1:], 0.0)
        return gw0, big_w.T @ ug, gu

    return a1, back


def _tower(stack: Stack, values: dict[str, Mat], kind: str, grads):
    """Two message-passing layers over a stack: relu(At1 @ relu(At0 @ X @
    W0) @ W1), without the outer relu for the attention tower (its
    nonlinearity is the attention softmax). The first layer propagates X
    before the weight product: (At0 @ X) @ W0 costs N*N*d per graph
    instead of N*N*F0, and the two orders agree up to rounding. When
    d = 1, At0 @ X is one column and `_rank2_layer` computes the weight
    products without the (B*N) x F0 stack relu(At0 @ X @ W0), forward
    and backward; wider inputs take `_dense_layer`.

    Returns the (B*N) x F1 stack and, when `grads` names any parameter,
    its vjp: the stack's gradient to the tower's weight gradients and to
    those of its p and q that `grads` names. Else None, so that nothing
    of the forward pass outlives the call."""
    x, w0, w1 = stack.x, values[f"w_{kind}0"].data, values[f"w_{kind}1"].data
    if x.shape[1] != w0.shape[0]:
        raise ShapeError(f"graphs have d={x.shape[1]}, model d={w0.shape[0]}")
    u, vjp0 = propagate(stack, x, values[f"p_{kind}0"], values[f"q_{kind}0"])
    a1, back0 = (_rank2_layer if u.shape[1] == 1 else _dense_layer)(u, w0, w1)
    if not grads:  # no vjp will read layer 0: free it before layer 1
        u = vjp0 = back0 = None
    out, vjp1 = propagate(stack, a1, values[f"p_{kind}1"], values[f"q_{kind}1"])
    top = np.maximum(out, 0.0) if kind == "x" else out
    if not grads:
        return top, None
    p0, q0, p1, q1 = (f"{v}_{kind}{layer}" for layer in (0, 1) for v in "pq")
    want0, want1 = p0 in grads or q0 in grads, p1 in grads or q1 in grads

    def vjp(g):
        if kind == "x":
            g *= top > 0  # in place: g is the pool's fresh gradient
        g, gp1, gq1 = vjp1(g, want1)
        gw0, gw1, gu = back0(g, want0)
        got = {f"w_{kind}0": gw0, f"w_{kind}1": gw1}
        if want0:
            _, gp0, gq0 = vjp0(gu, True)
            got.update({p0: gp0, q0: gq0})
        if want1:
            got.update({p1: gp1, q1: gq1})
        return got

    return top, vjp


def _pool(stack: Stack, values: dict[str, Mat], axis: str, grads):
    """Both towers over a stack and its attention pooling: the stack's
    B x F1^2 pooled rows and, when `grads` names any parameter, their
    vjp to the towers' gradients. Else None, so that nothing of the
    towers outlives the call."""
    z, vjp_x = _tower(stack, values, "x", grads)
    pre, vjp_a = _tower(stack, values, "a", grads)
    pooled, vjp_pool = attention_pool(stack, pre, z, axis)
    if not grads:
        return pooled, None

    def vjp(g):
        gpre, gz = vjp_pool(g)
        got = vjp_a(gpre)
        got.update(vjp_x(gz))
        return got

    return pooled, vjp


def _forward(batch: Batch, params: PiNetParams, grads=()):
    """B x C class probabilities of a batch, one row per graph in input
    order, and their cross-entropy against `batch.labels`, summed.
    Probabilities are clamped at CROSS_ENTROPY_EPS before the logarithm.
    Each stack's pooled rows meet the readout in their own product,
    whose rows land in their graphs' rows of the logits.

    Also returns, when `grads` names any parameter, the loss's vjp: a
    closure that returns the loss's gradient with respect to each named
    parameter, summed over the stacks. Else None."""
    values = params.values
    wd = values["w_d"].data
    logits = np.empty((len(batch), wd.shape[1]))
    parts = []
    for stack in batch.stacks:
        pooled, vjp_pool = _pool(stack, values, params.config.attention_axis, grads)
        logits[stack.rows] = pooled @ wd
        if grads:
            parts.append((stack.rows, pooled, vjp_pool))
    _finite(logits)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    y = batch.labels
    zc = np.maximum(probs, CROSS_ENTROPY_EPS)
    loss = -(y * np.log(zc)).sum()
    if not grads:
        return probs, loss, None

    def vjp():
        g = np.where(probs >= CROSS_ENTROPY_EPS, -y / zc, 0.0)  # y is a constant target
        g = probs * (g - (g * probs).sum(axis=1, keepdims=True))
        got = {}
        for rows, pooled, vjp_pool in parts:
            gs = g[rows]
            for k, v in {"w_d": pooled.T @ gs, **vjp_pool(gs @ wd.T)}.items():
                got[k] = got[k] + v if k in got else v
        return {k: got[k] for k in grads}

    return probs, loss, vjp


def forward_features(g: LabeledGraph, params: PiNetParams) -> Mat:
    """N x F1 node features after the features tower.

    Padded-node rows are zero: their input features are zero and the
    propagation matrix gives them no cross-node entries.
    """
    (stack,) = make_batch([g], params.config.C).stacks
    return Mat._adopt(_tower(stack, params.values, "x", ())[0])


def forward_attention(g: LabeledGraph, params: PiNetParams) -> Mat:
    """F1 x N attention weights from the attention tower.

    With attention_axis="nodes", each row is softmax-normalised over the
    real (unmasked) nodes; with "features", each node's column is
    normalised over the F1 feature positions and padded columns are then
    zeroed. Either way padded-node columns are exactly 0.
    """
    (stack,) = make_batch([g], params.config.C).stacks
    pre = _tower(stack, params.values, "a", ())[0]
    att = attention_softmax(pre.reshape(1, g.n, -1), stack.mask, params.config.attention_axis)
    return Mat(att[0].T)


def forward(g: LabeledGraph, params: PiNetParams) -> Mat:
    """Class probability row (1 x C) for one graph."""
    return Mat._adopt(_forward(make_batch([g], params.config.C), params)[0])


def loss_batch(batch: Batch, params: PiNetParams) -> Mat:
    """Cross-entropy summed over the batch (1x1), from one forward pass
    over the whole batch. When `params` holds leaves of a `tensor.Tape`
    (of one tape only, else TapeError), the loss's vjp is kept on that
    tape, for `tensor.backward` to run."""
    tape, names = _leaves_of(params.values)
    _, loss, vjp = _forward(batch, params, names)
    out = Mat._adopt(np.array([[loss]]))
    if tape is not None:
        tape._root = (out.data, vjp)
    return out


def predict_classes(params: PiNetParams, graphs) -> np.ndarray:
    """Argmax class per graph, in input order, from one forward pass
    over graphs of one feature width d and any sizes, one stack per size
    class; ties break toward the lowest index. A label at or above the
    model's class count raises DomainError."""
    return np.argmax(_forward(make_batch(graphs, params.config.C), params)[0], axis=1)


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
    """Batch loss value and its gradients for the trainables: one forward
    pass over the batch, then its vjp."""
    _, loss, vjp = _forward(batch, params, tuple(params.trainables()))
    return float(loss), {k: Mat._adopt(g) for k, g in vjp().items()}


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
    checked, _ = read_document(path, CHECKPOINT_FORMAT, "checkpoint")
    config = checked("config", lambda raw: PiNetConfig(**raw))

    def weight(w, shape):
        if (w["rows"], w["cols"]) != shape:
            raise DomainError(f"must be {shape[0]}x{shape[1]} for the config, "
                              f"got {w['rows']}x{w['cols']}")
        return Mat(Mat(w["data"]).data.reshape(shape))

    values = {k: checked(f"weights.{k}", lambda w, shape=shape: weight(w, shape))
              for k, shape in config.weight_shapes().items()}
    for k in PQ_NAMES:
        values[k] = checked(f"pq.{k}", lambda v, k=k: _pq_scalar(v, k))
    return PiNetParams(values, config)
