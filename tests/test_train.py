"""Tests for the optimizer, the fit loop, folds, and cross-validation."""

import math

import numpy as np
import pytest

from pinet.errors import DomainError, TrainingError
from pinet.graph import graph_from_edges
from pinet.model import PiNetConfig, init_params
from pinet.tensor import Mat
from pinet.train import (
    ADAM_EPS,
    AdamState,
    TrainConfig,
    adam_step,
    cross_validate,
    evaluate,
    fit,
    stratified_kfold,
)


def _triangle(label=0):
    return graph_from_edges(3, [(0, 1), (1, 2), (0, 2)], label=label)


def _path3(label=1):
    return graph_from_edges(3, [(0, 1), (1, 2)], label=label)


def _toy_dataset(copies=6):
    return [_triangle() for _ in range(copies)] + [_path3() for _ in range(copies)]


# -- Adam ---------------------------------------------------------------------

def test_adam_zero_gradient_no_move():
    params = {"w": Mat([[1.0, 2.0]])}
    state = AdamState()
    out = adam_step(params, {"w": Mat.zeros(1, 2)}, state, lr=0.1)
    np.testing.assert_array_equal(out["w"].data, params["w"].data)
    assert state.t == 1


def test_adam_first_step_magnitude():
    # with bias correction the first update is -lr * g / (|g| + eps)
    g = 0.37
    params = {"w": Mat.scalar(5.0)}
    out = adam_step(params, {"w": Mat.scalar(g)}, AdamState(), lr=1e-3)
    expect = 5.0 - 1e-3 * g / (math.sqrt(g * g) + ADAM_EPS)
    assert math.isclose(out["w"].item(), expect, rel_tol=1e-12)


def test_adam_first_step_sign():
    params = {"w": Mat([[1.0, -1.0]])}
    grads = {"w": Mat([[0.5, -2.0]])}
    out = adam_step(params, grads, AdamState(), lr=1e-2)
    # steps are approximately -lr * sign(g)
    np.testing.assert_allclose(out["w"].data, [[1.0 - 1e-2, -1.0 + 1e-2]], atol=1e-9)


def test_adam_missing_gradient_is_zero():
    params = {"a": Mat.scalar(1.0), "b": Mat.scalar(2.0)}
    out = adam_step(params, {"a": Mat.scalar(1.0)}, AdamState(), lr=0.1)
    assert out["b"].item() == 2.0


def test_adam_deterministic_trajectory():
    def run():
        params = {"w": Mat([[0.3, -0.7]])}
        state = AdamState()
        for t in range(10):
            grads = {"w": Mat([[math.sin(t + 1.0), math.cos(t)]])}
            params = adam_step(params, grads, state, lr=1e-2)
        return params["w"].data

    np.testing.assert_array_equal(run(), run())


def test_adam_rejects_non_finite_gradient():
    # Mat itself refuses NaN, so smuggle one in through a stand-in
    class FakeMat:
        data = np.array([[float("nan")]])
        shape = (1, 1)

    with pytest.raises(TrainingError):
        adam_step({"w": Mat.scalar(1.0)}, {"w": FakeMat()}, AdamState(), lr=0.1)


# -- fit ----------------------------------------------------------------------

def test_fit_one_step_per_epoch_when_batch_covers():
    res = fit(_toy_dataset(2), TrainConfig(epochs=1, batch_size=50, seed=0),
              PiNetConfig(d=1, C=2, F0=4, F1=3, seed=0))
    assert res.steps == 1
    assert len(res.epoch_losses) == 1


def test_fit_loss_decreases_on_learnable_task():
    res = fit(_toy_dataset(), TrainConfig(learning_rate=1e-2, batch_size=12, epochs=50, seed=0),
              PiNetConfig(d=1, C=2, F0=8, F1=4, seed=0))
    assert res.epoch_losses[-1] < res.epoch_losses[0]


def test_fit_deterministic():
    cfg = TrainConfig(learning_rate=1e-2, batch_size=4, epochs=5, seed=3)
    mc = PiNetConfig(d=1, C=2, F0=4, F1=3, seed=3)
    a = fit(_toy_dataset(3), cfg, mc)
    b = fit(_toy_dataset(3), cfg, mc)
    assert a.epoch_losses == b.epoch_losses


def test_fit_pq_stay_in_unit_interval():
    res = fit(_toy_dataset(), TrainConfig(learning_rate=0.05, batch_size=12, epochs=30, seed=0),
              PiNetConfig(d=1, C=2, F0=6, F1=3, seed=1))
    for value in res.params.pq_pairs().values():
        assert 0.0 <= value <= 1.0


def test_fit_rejects_empty():
    with pytest.raises(DomainError):
        fit([], TrainConfig(), PiNetConfig(d=1, C=2, F0=2, F1=2))


def test_train_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(DomainError):
        TrainConfig(batch_size=0)


# -- evaluate -----------------------------------------------------------------

def test_evaluate_all_correct_is_one():
    # node features identify the class outright, so a short fit reaches
    # zero training error; evaluate must then report exactly 1.0
    def tagged(label):
        x = np.zeros((3, 2))
        x[:, label] = 1.0
        return graph_from_edges(3, [(0, 1), (1, 2)], label=label, features=Mat(x))

    graphs = [tagged(0) for _ in range(4)] + [tagged(1) for _ in range(4)]
    res = fit(graphs, TrainConfig(learning_rate=1e-2, batch_size=8, epochs=60, seed=0),
              PiNetConfig(d=2, C=2, F0=8, F1=4, pq_mode="fixed", fixed_p=1.0, fixed_q=0.0, seed=0))
    acc = evaluate(res.params, graphs)
    assert acc == 1.0


def test_evaluate_untrained_balanced_near_chance():
    rng = np.random.default_rng(7)
    graphs = []
    for i in range(200):
        n = int(rng.integers(3, 9))
        while True:
            a = np.triu((rng.random((n, n)) < 0.4).astype(float), 1)
            if a.sum() > 0:
                break
        edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(a))]
        graphs.append(graph_from_edges(n, edges, label=i % 2))
    params = init_params(PiNetConfig(d=1, C=2, F0=8, F1=4, seed=3))
    acc = evaluate(params, graphs)
    assert 0.4 <= acc <= 0.6


def test_evaluate_mixed_sizes_matches_per_graph_predictions():
    from pinet.graph import pad_graph
    from pinet.model import predict_class

    rng = np.random.default_rng(11)
    graphs = []
    for i in range(23):
        n = int(rng.integers(3, 7))
        while True:
            a = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
            if a.sum() > 0:
                break
        g = graph_from_edges(n, [(int(u), int(v)) for u, v in zip(*np.nonzero(a))], label=i % 3)
        graphs.append(pad_graph(g, 6 if i % 2 else 8))  # two padded sizes, interleaved
    params = init_params(PiNetConfig(d=1, C=3, F0=6, F1=4, seed=5))
    per_graph = sum(predict_class(params, g) == g.label for g in graphs) / len(graphs)
    assert evaluate(params, graphs) == per_graph
    # all-zero readout: every class ties, so every prediction is class 0
    flat = params.replaced({"w_d": Mat.zeros(16, 3)})
    assert evaluate(flat, graphs) == sum(g.label == 0 for g in graphs) / len(graphs)


def test_evaluate_permutation_stable():
    from pinet.graph import permute_graph, random_permutation

    graphs = _toy_dataset(3)
    params = init_params(PiNetConfig(d=1, C=2, F0=5, F1=3, seed=2))
    base = evaluate(params, graphs)
    moved = evaluate(
        params,
        [permute_graph(g, random_permutation(g.n, i)) for i, g in enumerate(graphs)],
    )
    assert base == moved


# -- stratified folds ----------------------------------------------------------

def test_kfold_singletons():
    folds = stratified_kfold([0, 1] * 5, k=10, seed=0)
    assert len(folds) == 10
    assert all(len(f) == 1 for f in folds)


def test_kfold_balanced_classes():
    labels = [0] * 50 + [1] * 50
    folds = stratified_kfold(labels, k=10, seed=1)
    for fold in folds:
        fold_labels = [labels[i] for i in fold]
        assert fold_labels.count(0) == 5 and fold_labels.count(1) == 5


def test_kfold_partitions_everything():
    labels = [i % 3 for i in range(47)]
    folds = stratified_kfold(labels, k=5, seed=2)
    flat = sorted(i for f in folds for i in f)
    assert flat == list(range(47))


def test_kfold_per_class_counts_differ_by_at_most_one():
    labels = [0] * 23 + [1] * 10 + [2] * 14
    folds = stratified_kfold(labels, k=4, seed=3)
    for cls in (0, 1, 2):
        counts = [sum(labels[i] == cls for i in f) for f in folds]
        assert max(counts) - min(counts) <= 1


def test_kfold_k_validation():
    with pytest.raises(DomainError):
        stratified_kfold([0, 1], k=1, seed=0)
    with pytest.raises(DomainError):
        stratified_kfold([0, 1], k=3, seed=0)


# -- cross-validation ----------------------------------------------------------

def test_cross_validate_report_shape():
    graphs = _toy_dataset(6)  # 12 graphs
    report = cross_validate(
        graphs, 3,
        TrainConfig(learning_rate=1e-2, batch_size=8, epochs=3, seed=0),
        PiNetConfig(d=1, C=2, F0=4, F1=3, seed=0),
    )
    assert len(report.fold_accuracies) == 3
    assert math.isclose(report.mean, float(np.mean(report.fold_accuracies)), abs_tol=1e-12)
    assert len(report.fold_seeds) == 3
    assert report.fold_seeds == (0, 1, 2)


def test_cross_validate_deterministic():
    graphs = _toy_dataset(4)
    args = (graphs, 2,
            TrainConfig(learning_rate=1e-2, batch_size=8, epochs=2, seed=5),
            PiNetConfig(d=1, C=2, F0=4, F1=3, seed=5))
    assert cross_validate(*args).fold_accuracies == cross_validate(*args).fold_accuracies
