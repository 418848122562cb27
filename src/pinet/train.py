"""Mini-batch Adam training and evaluation, stratified cross-validation, and
`fit_and_score`, the one runner that fits and scores every split (cv, sweep, iso-exp)."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .dataio import _real_field
from .errors import DomainError, ShapeError
from .graph import _check_int_fields, _is_int, make_batch
from .model import PiNetConfig, PiNetParams, clamp_pq, grads_batch, init_params, predict_classes
from .stats import summarize
from .tensor import Mat

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Graphs scored per forward pass in `evaluate`: large enough that the
# per-op overhead is shared, small enough that each of a chunk's arrays
# stays a few MiB even when the whole chunk falls in the size class of
# N = 128. A chunk is stacked per size class, so smaller graphs cost
# less.
EVAL_CHUNK = 50


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 50
    epochs: int = 200
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if _real_field(self, "learning_rate") <= 0:
            raise DomainError(f"learning_rate must be positive, got {self.learning_rate}")
        _check_int_fields(self, batch_size=1, epochs=1, seed=0)
        if not isinstance(self.shuffle, bool):
            raise DomainError(f"shuffle must be a bool, got {self.shuffle!r}")


@dataclass
class AdamState:
    """First/second moment accumulators, lazily shaped from gradients."""

    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, Mat],
    grads: dict[str, Mat],
    state: AdamState,
    lr: float,
) -> dict[str, Mat]:
    """One bias-corrected Adam update; parameters without a gradient
    entry are treated as having zero gradient. An update that overflows
    raises NumericalError, like any other op result."""
    state.t += 1
    t = state.t
    out: dict[str, Mat] = {}
    for name, p in params.items():
        g = grads[name].data if name in grads else np.zeros(p.shape)
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}")
        m = state.m.setdefault(name, np.zeros(p.shape))
        v = state.v.setdefault(name, np.zeros(p.shape))
        m[...] = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v[...] = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        out[name] = Mat._adopt(p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
    return out


@dataclass(frozen=True)
class FitResult:
    params: PiNetParams
    epoch_losses: tuple[float, ...]
    steps: int


def fit(
    graphs,
    config: TrainConfig,
    model_config: PiNetConfig,
    params: PiNetParams | None = None,
) -> FitResult:
    """Train on the given graphs; returns final parameters and the total
    batch-summed loss per epoch. Deterministic per seed. An initial
    parameter set, built for `model_config`, may be passed to continue
    training."""
    graphs = list(graphs)
    if not graphs:
        raise DomainError("fit needs a non-empty dataset")
    if params is None:
        params = init_params(model_config)
    elif params.config != model_config:
        raise DomainError(f"params were built for {params.config}, not for {model_config}")
    rng = np.random.default_rng(config.seed)
    state = AdamState()
    order = np.arange(len(graphs))
    losses: list[float] = []
    steps = 0
    for _ in range(config.epochs):
        if config.shuffle:
            rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = make_batch([graphs[i] for i in idx], model_config.C)
            loss, grads = grads_batch(batch, params)
            epoch_loss += loss
            updated = adam_step(params.trainables(), grads, state, config.learning_rate)
            params = clamp_pq(params.replaced(updated))
            steps += 1
        losses.append(epoch_loss)
    return FitResult(params, tuple(losses), steps)


def evaluate(params: PiNetParams, graphs) -> float:
    """Fraction of graphs whose argmax prediction matches the label.

    Graphs are scored EVAL_CHUNK at a time in input order, one forward
    pass per chunk over its stacks, one per size class, each padded to
    its own largest N; ties break toward the lowest class."""
    graphs = list(graphs)
    if not graphs:
        raise DomainError("evaluate needs a non-empty dataset")
    hits = 0
    for start in range(0, len(graphs), EVAL_CHUNK):
        chunk = graphs[start:start + EVAL_CHUNK]
        preds = predict_classes(params, chunk)
        hits += sum(int(c) == g.label for c, g in zip(preds, chunk))
    return hits / len(graphs)


def stratified_kfold(labels, k: int, seed: int) -> list[list[int]]:
    """Split indices into k folds with per-class counts differing by at
    most one across folds. Shuffles within each class; deterministic per
    seed. Fold lists are sorted for canonical output."""
    labels = list(labels)
    if not _is_int(k, 2):
        raise DomainError(f"k must be an integer >= 2, got {k!r}")
    if k > len(labels):
        raise DomainError(f"k={k} exceeds dataset size {len(labels)}")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    cursor = 0  # runs over folds across classes so totals stay balanced
    for cls in sorted(set(labels)):
        members = np.flatnonzero(np.asarray(labels) == cls)
        rng.shuffle(members)
        for idx in members:
            folds[cursor % k].append(int(idx))
            cursor += 1
    return [sorted(f) for f in folds]


@dataclass(frozen=True)
class EvalReport:
    fold_accuracies: tuple[float, ...]
    mean: float
    std: float
    fold_seeds: tuple[int, ...]


def fit_and_score(graphs, jobs, train_config: TrainConfig,
                  model_config: PiNetConfig) -> list[float]:
    """Accuracy per job, in job order. A job is (train indices in fit
    order, seed): a fresh model is fit on those graphs with both configs'
    seed replaced, then scored by `evaluate` on every other graph in input
    order. PINET_THREADS > 1 runs the jobs in a thread pool of that size
    (default 1, serial); the accuracies are identical either way."""
    raw = os.environ.get("PINET_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise DomainError(f"PINET_THREADS must be an integer >= 1, got {raw!r}")

    def run(job) -> float:
        train_idx, seed = job
        held_out = [graphs[i] for i in sorted(set(range(len(graphs))) - set(train_idx))]
        result = fit([graphs[i] for i in train_idx], replace(train_config, seed=seed),
                     replace(model_config, seed=seed))
        return evaluate(result.params, held_out)

    if int(raw) == 1:
        return [run(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=int(raw)) as pool:
        return list(pool.map(run, jobs))


def cross_validate(
    graphs,
    k: int,
    train_config: TrainConfig,
    model_config: PiNetConfig,
) -> EvalReport:
    """k-fold cross-validation through `fit_and_score`: a fresh model per
    fold, fit on the other folds in input order and scored on the held-out
    one. Fold f uses seed train_config.seed + f, so runs are reproducible
    and folds independent. Mean and std are `stats.summarize`'s."""
    graphs = list(graphs)
    folds = stratified_kfold([g.label for g in graphs], k, train_config.seed)
    fold_seeds = tuple(train_config.seed + f for f in range(k))
    jobs = [(sorted(set(range(len(graphs))) - set(f)), s) for f, s in zip(folds, fold_seeds)]
    accs = fit_and_score(graphs, jobs, train_config, model_config)
    summary = summarize(accs)
    return EvalReport(tuple(accs), summary.mean, summary.std, fold_seeds)
