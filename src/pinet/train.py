"""Mini-batch Adam training, evaluation, and stratified cross-validation."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, TrainingError
from .graph import make_batch
from .model import PiNetConfig, PiNetParams, clamp_pq, grads_batch, init_params, predict_classes
from .tensor import Mat

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Graphs scored per forward pass in `evaluate`: large enough that the
# per-op overhead is shared, small enough that each of a chunk's arrays
# stays a few MiB at N = 128.
EVAL_CHUNK = 50


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 50
    epochs: int = 200
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise DomainError("learning_rate must be > 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise DomainError("batch_size and epochs must be >= 1")


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
    entry are treated as having zero gradient."""
    state.t += 1
    t = state.t
    out: dict[str, Mat] = {}
    for name, p in params.items():
        g = grads[name].data if name in grads else np.zeros(p.shape)
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        if g.shape != p.data.shape:
            raise TrainingError(
                f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name!r}"
            )
        m = state.m.setdefault(name, np.zeros(p.shape))
        v = state.v.setdefault(name, np.zeros(p.shape))
        m[...] = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v[...] = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        new = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if not np.isfinite(new).all():
            raise TrainingError(f"non-finite value for parameter {name!r} after update")
        out[name] = Mat(new)
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
    parameter set may be passed to continue training."""
    graphs = list(graphs)
    if not graphs:
        raise DomainError("fit needs a non-empty dataset")
    if params is None:
        params = init_params(model_config)
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

    Graphs are grouped by padded size N and scored EVAL_CHUNK at a time,
    one forward pass per chunk; ties break toward the lowest class."""
    graphs = list(graphs)
    if not graphs:
        raise DomainError("evaluate needs a non-empty dataset")
    by_n: dict[int, list] = {}
    for g in graphs:
        by_n.setdefault(g.n, []).append(g)
    hits = 0
    for group in by_n.values():
        for start in range(0, len(group), EVAL_CHUNK):
            chunk = group[start:start + EVAL_CHUNK]
            preds = predict_classes(params, chunk)
            hits += sum(int(c) == g.label for c, g in zip(preds, chunk))
    return hits / len(graphs)


def stratified_kfold(labels, k: int, seed: int) -> list[list[int]]:
    """Split indices into k folds with per-class counts differing by at
    most one across folds. Shuffles within each class; deterministic per
    seed. Fold lists are sorted for canonical output."""
    labels = list(labels)
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
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


def _fit_eval_fold(graphs, test_idx, train_config, model_config, fold_seed):
    test_set = set(test_idx)
    train = [g for i, g in enumerate(graphs) if i not in test_set]
    test = [graphs[i] for i in test_idx]
    tc = replace(train_config, seed=fold_seed)
    mc = replace(model_config, seed=fold_seed)
    result = fit(train, tc, mc)
    return evaluate(result.params, test)


def cross_validate(
    graphs,
    k: int,
    train_config: TrainConfig,
    model_config: PiNetConfig,
    workers: int | None = None,
) -> EvalReport:
    """k-fold cross-validation: a fresh model per fold, trained on the
    other folds, scored on the held-out one. Fold f uses seed
    train_config.seed + f for parameter init and batch order, so runs
    are reproducible and folds are independent. `workers` > 1 evaluates
    folds in a thread pool (default from PINET_THREADS, else serial);
    results are identical either way."""
    graphs = list(graphs)
    folds = stratified_kfold([g.label for g in graphs], k, train_config.seed)
    fold_seeds = tuple(train_config.seed + f for f in range(k))
    if workers is None:
        raw = os.environ.get("PINET_THREADS", "1")
        if not raw.strip().isdecimal() or int(raw) < 1:
            raise DomainError(f"PINET_THREADS must be an integer >= 1, got {raw!r}")
        workers = int(raw)
    jobs = [
        (graphs, folds[f], train_config, model_config, fold_seeds[f])
        for f in range(k)
    ]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            accs = list(pool.map(lambda j: _fit_eval_fold(*j), jobs))
    else:
        accs = [_fit_eval_fold(*j) for j in jobs]
    accs = [float(a) for a in accs]
    mean = float(np.mean(accs))
    std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
    return EvalReport(tuple(accs), mean, std, fold_seeds)
