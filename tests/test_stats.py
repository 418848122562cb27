"""Tests for summary statistics, the two-sample t-test, and CSV output.

The t-test p-values route through a continued-fraction incomplete beta;
expected values below were computed independently with the pooled
formula by hand and cross-checked against scipy before being frozen.
"""

import csv
import math

import numpy as np
import pytest

from pinet.errors import DomainError
from pinet.stats import (
    SampleSummary,
    reg_inc_beta,
    student_t_sf2,
    summarize,
    t_test_two_sample,
    write_results_csv,
)


# -- summaries ------------------------------------------------------------------

def test_summarize_singleton():
    s = summarize([0.5])
    assert s == SampleSummary(n=1, mean=0.5, std=0.0)


def test_summarize_two_points():
    s = summarize([0.0, 1.0])
    assert s.mean == 0.5
    assert math.isclose(s.std, math.sqrt(0.5), rel_tol=1e-12)  # sample std


def test_summarize_constant():
    assert summarize([3.3] * 7).std == 0.0


def test_summarize_empty_rejected():
    with pytest.raises(DomainError):
        summarize([])


# -- regularized incomplete beta --------------------------------------------------

def test_reg_inc_beta_endpoints():
    assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
    assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0


def test_reg_inc_beta_uniform_case():
    # I_x(1, 1) is the identity
    for x in (0.1, 0.5, 0.9):
        assert math.isclose(reg_inc_beta(1.0, 1.0, x), x, rel_tol=1e-12)


def test_reg_inc_beta_symmetry():
    # I_x(a, b) = 1 - I_{1-x}(b, a)
    val = reg_inc_beta(2.5, 4.0, 0.3)
    assert math.isclose(val, 1.0 - reg_inc_beta(4.0, 2.5, 0.7), rel_tol=1e-12)


def test_reg_inc_beta_against_reference():
    scipy_special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = float(rng.uniform(0.5, 20.0))
        b = float(rng.uniform(0.5, 20.0))
        x = float(rng.uniform(0.0, 1.0))
        ours = reg_inc_beta(a, b, x)
        ref = float(scipy_special.betainc(a, b, x))
        assert abs(ours - ref) < 1e-12, (a, b, x)


def test_student_sf_basics():
    assert student_t_sf2(0.0, 6) == 1.0
    assert student_t_sf2(float("inf"), 6) == 0.0
    # symmetric in t
    assert math.isclose(student_t_sf2(2.0, 5), student_t_sf2(-2.0, 5), rel_tol=1e-14)


def test_student_sf_against_reference():
    scipy_stats = pytest.importorskip("scipy.stats")
    for t in (0.5, 1.0, 2.31, 4.0):
        for dof in (1, 3, 6, 30):
            ref = 2.0 * float(scipy_stats.t.sf(t, dof))
            assert math.isclose(student_t_sf2(t, dof), ref, rel_tol=1e-10)


# -- two-sample t-test -------------------------------------------------------------

def test_t_test_identical_samples():
    r = t_test_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert r.t == 0.0
    assert r.p == 1.0


def test_t_test_constant_equal_samples():
    r = t_test_two_sample([2.0, 2.0], [2.0, 2.0])
    assert r.t == 0.0 and r.p == 1.0


def test_t_test_constant_different_samples():
    r = t_test_two_sample([2.0, 2.0], [1.0, 1.0])
    assert r.p == 0.0
    assert math.isinf(r.t) and r.t > 0


def test_t_test_strong_separation():
    r = t_test_two_sample([1.0, 2.0, 3.0], [11.0, 12.0, 13.0])
    assert r.p < 0.001
    assert r.t < 0


def test_t_test_worked_example():
    # pooled formula by hand: mean_a=2.275, mean_b=1.95, sp^2=0.0229167,
    # t = 0.325 / sqrt(sp^2 / 2) = 3.0361458822...; p from the t CDF at
    # dof=6. Cross-checked against scipy.stats.ttest_ind.
    r = t_test_two_sample([2.1, 2.5, 2.3, 2.2], [1.9, 2.0, 2.1, 1.8])
    assert r.dof == 6
    assert math.isclose(r.t, 3.0361458822299396, rel_tol=1e-12)
    assert math.isclose(r.p, 0.022916100238623244, rel_tol=1e-9)
    assert abs(r.p - 0.021) < 0.01


def test_t_test_matches_reference_on_random_samples():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.normal(0.0, 1.0, size=int(rng.integers(3, 12))).tolist()
        b = rng.normal(0.3, 1.2, size=int(rng.integers(3, 12))).tolist()
        ours = t_test_two_sample(a, b)
        ref_t, ref_p = scipy_stats.ttest_ind(a, b)  # pooled variance
        assert math.isclose(ours.t, float(ref_t), rel_tol=1e-10)
        assert math.isclose(ours.p, float(ref_p), rel_tol=1e-8)


def test_t_test_needs_two_points_each():
    with pytest.raises(DomainError):
        t_test_two_sample([1.0], [1.0, 2.0])


# -- CSV output ----------------------------------------------------------------------

def test_csv_empty_needs_columns(tmp_path):
    path = tmp_path / "empty.csv"
    write_results_csv([], path, columns=["a", "b"])
    assert path.read_text().strip() == "a,b"


def test_csv_round_trip_six_decimals(tmp_path):
    rows = [
        {"train_size": 1, "trial": 0, "accuracy": 0.123456789},
        {"train_size": 2, "trial": 1, "accuracy": 1.0},
    ]
    path = tmp_path / "iso.csv"
    write_results_csv(rows, path)
    with open(path) as fh:
        back = list(csv.DictReader(fh))
    assert back[0]["accuracy"] == "0.123457"
    assert int(back[1]["train_size"]) == 2


def test_csv_sweep_schema(tmp_path):
    rows = [
        {"dataset": "toy", "p": 1.0, "q": 0.0, "mode": "fixed", "fold": 0, "accuracy": 0.9},
        {"dataset": "toy", "p": None, "q": None, "mode": "learned", "fold": 0, "accuracy": 0.8},
    ]
    path = tmp_path / "sweep.csv"
    write_results_csv(rows, path, columns=["dataset", "p", "q", "mode", "fold", "accuracy"])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "dataset,p,q,mode,fold,accuracy"
    assert lines[2].startswith("toy,,,learned")  # None renders empty


def test_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(DomainError):
        write_results_csv([{"a": 1}, {"b": 2}], tmp_path / "bad.csv")


def test_csv_failed_write_keeps_previous_file(tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("cannot format")

    path = tmp_path / "iso.csv"
    write_results_csv([{"a": 1}], path)
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        # the header and first row are written before the second row raises
        write_results_csv([{"a": 2}, {"a": Unprintable()}], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["iso.csv"]
