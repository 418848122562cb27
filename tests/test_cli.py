"""End-to-end tests of the command-line interface.

Every command is exercised on small inputs through main(), checking
exit codes (0 ok, 1 bad input, 2 runtime failure), output files, and
the echoed configuration line.
"""

import csv
import json

import numpy as np
import pytest

from pinet import cli
from pinet.dataio import Dataset, save_dataset
from pinet.graph import graph_from_edges


def _run(capsys, argv):
    """Invoke main, unwrapping the SystemExit that argparse raises."""
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def _toy_dataset_file(tmp_path, copies=4, name="toy"):
    tri = [(0, 1), (1, 2), (0, 2)]
    path = [(0, 1), (1, 2)]
    gs = [graph_from_edges(3, tri, label=0) for _ in range(copies)]
    gs += [graph_from_edges(3, path, label=1) for _ in range(copies)]
    ds = Dataset(name, tuple(gs), class_count=2, label_map={0: 0, 1: 1})
    p = tmp_path / f"{name}.jsonl"
    save_dataset(ds, p)
    return p


# -- argument handling ----------------------------------------------------------

def test_unknown_command_exits_one(capsys):
    code, _, err = _run(capsys, ["frobnicate"])
    assert code == 1


def test_unknown_flag_exits_one(capsys):
    code, _, err = _run(capsys, ["selfcheck", "--frobnicate"])
    assert code == 1
    assert "error" in err


def test_gen_iso_rejects_bad_edge_prob(capsys, tmp_path):
    code, _, err = _run(capsys, [
        "gen-iso", "--edge-prob", "1.5", "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 1
    assert "usage" in err


def test_missing_dataset_flag_exits_one(capsys):
    code, _, err = _run(capsys, ["train", "--epochs", "1"])
    assert code == 1


def test_conflicting_data_flags_exit_one(capsys, tmp_path):
    data = _toy_dataset_file(tmp_path)
    code, _, err = _run(capsys, [
        "train", "--data", str(data), "--tu-dir", str(tmp_path),
        "--tu-name", "X", "--epochs", "1",
    ])
    assert code == 1


# -- gen-iso ----------------------------------------------------------------------

def test_gen_iso_writes_dataset_and_provenance(capsys, tmp_path):
    out = tmp_path / "iso.jsonl"
    code, stdout, _ = _run(capsys, [
        "gen-iso", "--nodes", "10", "--classes", "2", "--copies", "3",
        "--edge-prob", "0.3", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    assert "config:" in stdout
    assert out.exists()
    assert (tmp_path / "iso.jsonl.prov.json").exists()
    from pinet.dataio import load_dataset

    ds = load_dataset(out)
    assert len(ds) == 6


def test_gen_iso_byte_identical_per_seed(capsys, tmp_path):
    args = ["gen-iso", "--nodes", "10", "--classes", "2", "--copies", "2",
            "--edge-prob", "0.3", "--seed", "9"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert _run(capsys, args + ["--out", str(a)])[0] == 0
    assert _run(capsys, args + ["--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.jsonl.prov.json").read_bytes() == \
        (tmp_path / "b.jsonl.prov.json").read_bytes()


# -- train --------------------------------------------------------------------------

def test_train_runs_and_reports(capsys, tmp_path):
    data = _toy_dataset_file(tmp_path)
    ckpt = tmp_path / "params.json"
    code, stdout, _ = _run(capsys, [
        "train", "--data", str(data), "--epochs", "2", "--batch-size", "4",
        "--f0", "4", "--f1", "3", "--params-out", str(ckpt),
    ])
    assert code == 0
    assert "train accuracy:" in stdout
    assert "loss:" in stdout
    assert ckpt.exists()
    from pinet.model import load_params

    loaded = load_params(ckpt)
    assert loaded.config.F0 == 4


def test_train_echoes_resolved_config(capsys, tmp_path):
    data = _toy_dataset_file(tmp_path)
    code, stdout, _ = _run(capsys, [
        "train", "--data", str(data), "--epochs", "1", "--f0", "3", "--f1", "2",
    ])
    assert code == 0
    cfg_line = next(l for l in stdout.splitlines() if l.startswith("config:"))
    cfg = json.loads(cfg_line.removeprefix("config:"))
    assert cfg["epochs"] == 1
    assert cfg["lr"] == 0.001  # defaults are echoed too


# -- cv ---------------------------------------------------------------------------

def test_cv_two_folds_on_toy_set(capsys, tmp_path):
    data = _toy_dataset_file(tmp_path, copies=2)  # 4 graphs
    out = tmp_path / "cv.csv"
    code, stdout, _ = _run(capsys, [
        "cv", "--data", str(data), "--k", "2", "--epochs", "1",
        "--f0", "3", "--f1", "2", "--out", str(out),
    ])
    assert code == 0
    assert "mean accuracy:" in stdout
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert set(rows[0]) == {"dataset", "fold", "accuracy"}
    # the printed mean matches the CSV
    csv_mean = np.mean([float(r["accuracy"]) for r in rows])
    printed = float(stdout.split("mean accuracy:")[1].split("+-")[0])
    assert abs(csv_mean - printed) < 5e-5


@pytest.mark.parametrize("value", ["x", "0", "-2", "1.5"])
def test_cv_bad_pinet_threads_exits_one(capsys, tmp_path, monkeypatch, value):
    data = _toy_dataset_file(tmp_path, copies=2)
    monkeypatch.setenv("PINET_THREADS", value)
    code, _, err = _run(capsys, [
        "cv", "--data", str(data), "--k", "2", "--epochs", "1", "--f0", "3", "--f1", "2",
    ])
    assert code == 1
    assert err.startswith("error:") and "PINET_THREADS" in err


def test_cv_k_exceeding_dataset_exits_one(capsys, tmp_path):
    data = _toy_dataset_file(tmp_path, copies=1)  # 2 graphs
    code, _, err = _run(capsys, [
        "cv", "--data", str(data), "--k", "5", "--epochs", "1",
    ])
    assert code == 1
    assert "error" in err


# -- iso-exp ----------------------------------------------------------------------

@pytest.fixture()
def tiny_iso(tmp_path, capsys):
    out = tmp_path / "iso.jsonl"
    code, _, _ = _run(capsys, [
        "gen-iso", "--nodes", "8", "--classes", "2", "--copies", "4",
        "--edge-prob", "0.35", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    return out


def test_iso_exp_csv_schema(capsys, tmp_path, tiny_iso):
    out = tmp_path / "iso.csv"
    code, stdout, _ = _run(capsys, [
        "iso-exp", "--data", str(tiny_iso), "--sizes", "1,2", "--trials", "2",
        "--epochs", "2", "--f0", "3", "--f1", "2", "--out", str(out),
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 2 sizes x 2 trials
    assert set(rows[0]) == {"train_size", "trial", "accuracy"}
    for r in rows:
        assert 0.0 <= float(r["accuracy"]) <= 1.0


def test_iso_exp_size_too_large_exits_one(capsys, tmp_path, tiny_iso):
    code, _, err = _run(capsys, [
        "iso-exp", "--data", str(tiny_iso), "--sizes", "10", "--trials", "1",
        "--epochs", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert "exceeds" in err


def test_iso_exp_requires_provenance(capsys, tmp_path):
    # a dataset saved without its provenance sidecar is refused
    data = _toy_dataset_file(tmp_path)
    code, _, err = _run(capsys, [
        "iso-exp", "--data", str(data), "--sizes", "1", "--trials", "1",
        "--epochs", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert "provenance" in err


# -- sweep --------------------------------------------------------------------------

def test_sweep_five_modes_by_k_folds(capsys, tmp_path):
    data = _toy_dataset_file(tmp_path, copies=3)  # 6 graphs
    out = tmp_path / "sweep.csv"
    code, stdout, _ = _run(capsys, [
        "sweep", "--data", str(data), "--k", "2", "--epochs", "1",
        "--f0", "3", "--f1", "2", "--out", str(out),
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10  # 5 modes x 2 folds
    assert set(rows[0]) == {"dataset", "p", "q", "mode", "fold", "accuracy"}
    modes = {r["mode"] for r in rows}
    assert modes == {"fixed-0-0", "fixed-0-1", "fixed-1-0", "fixed-1-1", "learned"}
    for r in rows:
        if r["mode"] == "learned":
            assert r["p"] == "" and r["q"] == ""
        else:
            assert r["p"] in {"0.000000", "1.000000"}
    assert "learned" in stdout


def test_sweep_deterministic(capsys, tmp_path):
    data = _toy_dataset_file(tmp_path, copies=3)
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        code, _, _ = _run(capsys, [
            "sweep", "--data", str(data), "--k", "2", "--epochs", "1",
            "--f0", "3", "--f1", "2", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# -- selfcheck ------------------------------------------------------------------------

def test_selfcheck_quick_passes(capsys):
    code, stdout, _ = _run(capsys, ["selfcheck", "--quick"])
    assert code == 0
    lines = [l for l in stdout.splitlines() if "cases" in l]
    assert len(lines) >= 4  # at least four suites with case counts
    assert all("ok" in l for l in lines)


def test_selfcheck_mutation_hook_fails_padding(capsys):
    code, stdout, _ = _run(capsys, ["selfcheck", "--quick", "--unsafe-no-mask"])
    assert code == 2
    assert "padding-invariance" in stdout
    assert "FAIL" in stdout


def test_selfcheck_mutation_hook_resets(capsys):
    _run(capsys, ["selfcheck", "--quick", "--unsafe-no-mask"])
    code, _, _ = _run(capsys, ["selfcheck", "--quick"])
    assert code == 0
