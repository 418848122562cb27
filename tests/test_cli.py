"""End-to-end tests of the command-line interface.

Every command is exercised on small inputs through main(), checking
exit codes (0 ok, 1 bad input, 2 runtime failure), output files, and
the echoed configuration line.
"""

import csv
import json
import os
import stat
from dataclasses import fields, replace

import numpy as np
import pytest

from pinet import cli, datagen, train
from pinet.dataio import Dataset, load_dataset, save_dataset
from pinet.graph import graph_from_edges
from pinet.model import PiNetConfig


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


def test_train_malformed_header_exits_one(capsys, tmp_path):
    data = _toy_dataset_file(tmp_path)
    lines = data.read_text().splitlines()
    data.write_text("\n".join(["[1]"] + lines[1:]) + "\n")
    code, _, err = _run(capsys, ["train", "--data", str(data), "--epochs", "1"])
    assert code == 1
    assert err.startswith("error:") and str(data) in err


def test_train_numeric_blow_up_exits_two(capsys, tmp_path):
    # a learning rate this large overflows the next forward pass: a runtime
    # failure of the computation, not bad input
    data = tmp_path / "iso.jsonl"
    code, _, _ = _run(capsys, ["gen-iso", "--nodes", "12", "--classes", "3", "--copies", "6",
                               "--seed", "3", "--out", str(data)])
    assert code == 0
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = _run(capsys, ["train", "--data", str(data), "--epochs", "5",
                                     "--batch-size", "6", "--f0", "8", "--f1", "4",
                                     "--lr", "1e300"])
    assert code == 2
    assert err.startswith("runtime failure:")


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


_BAD_THREADS = ["x", "0", "-2", "1.5"]


@pytest.mark.parametrize("argv, value", [
    *(pytest.param(["cv", "--k", "2"], v, id=v) for v in _BAD_THREADS),
    *(pytest.param(["iso-exp", "--sizes", "1", "--trials", "1"], v, id=f"iso-exp-{v}")
      for v in _BAD_THREADS),
])
def test_cv_bad_pinet_threads_exits_one(capsys, tmp_path, monkeypatch, tiny_iso, argv, value):
    monkeypatch.setenv("PINET_THREADS", value)
    out = tmp_path / "x.csv"
    code, _, err = _run(capsys, [
        *argv, "--data", str(tiny_iso), "--epochs", "1", "--f0", "3", "--f1", "2",
        "--out", str(out),
    ])
    assert code == 1
    assert err.startswith("error:") and "PINET_THREADS" in err
    assert not out.exists()


def test_cv_k_exceeding_dataset_exits_one(capsys, tmp_path):
    data = _toy_dataset_file(tmp_path, copies=1)  # 2 graphs
    code, _, err = _run(capsys, [
        "cv", "--data", str(data), "--k", "5", "--epochs", "1",
    ])
    assert code == 1
    assert "error" in err


def test_cv_k_one_exits_one_before_any_fold(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(train, "fit", lambda *a, **k: pytest.fail("fit was called"))
    data = _toy_dataset_file(tmp_path)
    code, stdout, err = _run(capsys, ["cv", "--data", str(data), "--k", "1", "--epochs", "1"])
    assert code == 1
    assert err == "error: k must be an integer >= 2, got 1\n"
    assert "fold" not in stdout


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


def test_iso_exp_size_leaving_nothing_held_out_exits_one_before_fitting(
        capsys, tmp_path, monkeypatch, tiny_iso):
    # tiny_iso has 4 graphs per class, so size 4 trains on all of them
    monkeypatch.setattr(train, "fit", lambda *a, **k: pytest.fail("fit was called"))
    code, _, err = _run(capsys, [
        "iso-exp", "--data", str(tiny_iso), "--sizes", "1,4", "--trials", "1",
        "--epochs", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert err.startswith("error:") and "train size 4" in err and "held-out" in err
    assert not (tmp_path / "x.csv").exists()


def test_iso_exp_zero_trials_exits_one_before_fitting(capsys, tmp_path, monkeypatch, tiny_iso):
    monkeypatch.setattr(train, "fit", lambda *a, **k: pytest.fail("fit was called"))
    code, stdout, err = _run(capsys, [
        "iso-exp", "--data", str(tiny_iso), "--sizes", "1", "--trials", "0",
        "--epochs", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert err == "error: trials must be an integer >= 1, got 0\n"
    assert not [line for line in stdout.splitlines() if line.startswith("size ")]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("sizes, why", [
    ("1,1", "sizes must be distinct, got '1,1'"),
    ("0,1", "sizes must be positive integers"),
    ("1,x", "expected comma-separated integers, got '1,x'"),
])
def test_iso_exp_bad_sizes_exit_one_while_parsing(capsys, tmp_path, tiny_iso, sizes, why):
    # a repeated size would fit every trial twice and write duplicate rows
    code, stdout, err = _run(capsys, [
        "iso-exp", "--data", str(tiny_iso), "--sizes", sizes, "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert f"argument --sizes: {why}" in err
    assert stdout == ""


def _iso_exp_run(capsys, data, out, *extra):
    """Run a small iso-exp; returns the CSV bytes and the trial lines."""
    code, stdout, _ = _run(capsys, [
        "iso-exp", "--data", str(data), "--epochs", "3", "--f0", "3", "--f1", "2",
        "--out", str(out), *extra,
    ])
    assert code == 0
    return out.read_bytes(), [line for line in stdout.splitlines() if line.startswith("size ")]


def test_iso_exp_pool_matches_serial(capsys, tmp_path, monkeypatch, tiny_iso):
    pools = []
    pool = train.ThreadPoolExecutor
    monkeypatch.setattr(train, "ThreadPoolExecutor",
                        lambda max_workers: pools.append(max_workers) or pool(max_workers))
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("PINET_THREADS", threads)
        runs.append(_iso_exp_run(capsys, tiny_iso, tmp_path / f"t{threads}.csv",
                                 "--sizes", "1,2,3", "--trials", "2"))
    assert len(runs[0][1]) == 6
    assert runs[1] == runs[0]
    assert pools == [2]


def test_iso_exp_rows_follow_the_documented_split(capsys, tmp_path, tiny_iso):
    # trial t of size s draws s graphs per class, classes in sorted order,
    # with rng seed (--seed + 7919 s + t); fit on them in draw order with
    # that seed and score on the rest in file order
    _, lines = _iso_exp_run(capsys, tiny_iso, tmp_path / "x.csv",
                            "--sizes", "1,3", "--trials", "2", "--seed", "4")
    with open(tmp_path / "x.csv") as fh:
        rows = list(csv.DictReader(fh))
    graphs = load_dataset(tiny_iso).graphs
    per_class = {c: [i for i, g in enumerate(graphs) if g.label == c] for c in (0, 1)}
    expected = []
    for size in (1, 3):
        for trial in range(2):
            seed = 4 + 7919 * size + trial
            rng = np.random.default_rng(seed)
            picked = [per_class[c][j] for c in (0, 1)
                      for j in rng.choice(4, size=size, replace=False)]
            result = train.fit(
                [graphs[i] for i in picked], train.TrainConfig(epochs=3, seed=seed),
                PiNetConfig(d=1, C=2, F0=3, F1=2, pq_mode="fixed", fixed_p=1.0, fixed_q=0.0,
                            seed=seed),
            )
            rest = [g for i, g in enumerate(graphs) if i not in picked]
            expected.append((size, trial, train.evaluate(result.params, rest)))
    assert [(int(r["train_size"]), int(r["trial"]), r["accuracy"]) for r in rows] == [
        (s, t, f"{acc:.6f}") for s, t, acc in expected
    ]
    assert lines == [f"size {s} trial {t}: accuracy {acc:.4f}" for s, t, acc in expected]


def test_iso_exp_requires_provenance(capsys, tmp_path):
    # a dataset saved without its provenance sidecar is refused
    data = _toy_dataset_file(tmp_path)
    code, _, err = _run(capsys, [
        "iso-exp", "--data", str(data), "--sizes", "1", "--trials", "1",
        "--epochs", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert "provenance" in err


def test_iso_exp_rejects_provenance_that_does_not_replay(capsys, tmp_path, tiny_iso):
    # a provenance with two permutations exchanged is still well formed
    prov_path = tmp_path / "iso.jsonl.prov.json"
    doc = json.loads(prov_path.read_text())
    doc["permutations"][0], doc["permutations"][1] = doc["permutations"][1], doc["permutations"][0]
    prov_path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, [
        "iso-exp", "--data", str(tiny_iso), "--sizes", "1", "--trials", "1",
        "--epochs", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert err.startswith("error:") and "replay" in err and str(prov_path) in err
    assert not (tmp_path / "x.csv").exists()


def test_iso_exp_rejects_provenance_with_wrong_degrees(capsys, tmp_path, tiny_iso):
    # zero degrees and no seed edges are well formed but contradict the bases
    prov_path = tmp_path / "iso.jsonl.prov.json"
    doc = json.loads(prov_path.read_text())
    doc["degree_sequence"] = [0] * len(doc["degree_sequence"])
    doc["seed_edges"] = []
    prov_path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, [
        "iso-exp", "--data", str(tiny_iso), "--sizes", "1", "--trials", "1",
        "--epochs", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert err.startswith("error:") and "replay" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("content", [b"[]", b'{"format": "pinet-provenance-v1"}', b"\xff"])
def test_iso_exp_malformed_provenance_exits_one(capsys, tmp_path, tiny_iso, content):
    prov_path = tmp_path / "iso.jsonl.prov.json"
    prov_path.write_bytes(content)
    code, _, err = _run(capsys, [
        "iso-exp", "--data", str(tiny_iso), "--sizes", "1", "--trials", "1",
        "--epochs", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert err.startswith("error:") and str(prov_path) in err


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


def test_sweep_has_no_pq_flag(capsys, tmp_path):
    # sweep fixes p, q per mode itself, so it takes no --pq
    data = _toy_dataset_file(tmp_path, copies=3)
    code, _, err = _run(capsys, [
        "sweep", "--data", str(data), "--pq", "0.3,0.2", "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 1
    assert "unrecognized arguments: --pq" in err


# -- outputs ------------------------------------------------------------------------

def test_gen_iso_output_clash_writes_nothing(capsys, tmp_path):
    out = tmp_path / "d.jsonl"
    code, stdout, err = _run(capsys, [
        "gen-iso", "--nodes", "8", "--classes", "2", "--copies", "2",
        "--out", str(out), "--provenance-out", str(tmp_path / "sub" / ".." / "d.jsonl"),
    ])
    assert code == 1
    assert err.startswith("error: --provenance-out ") and "same file as --out" in err
    assert stdout == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, flag, named", [
    (["iso-exp", "--sizes", "1", "--trials", "1", "--out"], "--out", "--data"),
    (["iso-exp", "--sizes", "1", "--trials", "1", "--out"], "--out", "--provenance"),
    (["cv", "--k", "2", "--out"], "--out", "--data"),
    (["sweep", "--k", "2", "--out"], "--out", "--data"),
    (["train", "--params-out"], "--params-out", "--data"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_output_naming_an_input_leaves_it_unchanged(capsys, tmp_path, monkeypatch, tiny_iso,
                                                    argv, flag, named):
    monkeypatch.setattr(train, "fit", lambda *a, **k: pytest.fail("fit was called"))
    target = {"--data": tiny_iso, "--provenance": tmp_path / "iso.jsonl.prov.json"}[named]
    before = target.read_bytes()
    code, stdout, err = _run(capsys, [
        *argv, str(target), "--data", str(tiny_iso), "--epochs", "1", "--f0", "3", "--f1", "2",
    ])
    assert code == 1
    assert err == f"error: {flag} {target} names the same file as {named}\n"
    assert stdout == ""
    assert target.read_bytes() == before


_LAYOUT = {"A": "1, 2\n2, 3\n4, 5\n", "graph_indicator": "1\n1\n1\n2\n2\n",
           "graph_labels": "1\n-1\n", "node_labels": "0\n1\n0\n1\n1\n"}


@pytest.mark.parametrize("argv, flag", [
    (["train", "--params-out"], "--params-out"),
    (["cv", "--k", "2", "--out"], "--out"),
    (["sweep", "--k", "2", "--out"], "--out"),
], ids=lambda v: v if isinstance(v, str) else v[0])
@pytest.mark.parametrize("suffix", list(_LAYOUT))
def test_output_naming_a_layout_file_leaves_it_unchanged(capsys, tmp_path, monkeypatch,
                                                         argv, flag, suffix):
    monkeypatch.setattr(train, "fit", lambda *a, **k: pytest.fail("fit was called"))
    (tmp_path / "T").mkdir()  # load_tu also finds the layout in a subdirectory named T
    for name, text in _LAYOUT.items():
        (tmp_path / "T" / f"T_{name}.txt").write_text(text)
    target = tmp_path / "T" / f"T_{suffix}.txt"
    code, stdout, err = _run(capsys, [
        *argv, str(target), "--tu-dir", str(tmp_path), "--tu-name", "T", "--epochs", "1",
    ])
    assert code == 1
    assert err == (f"error: {flag} {target} names the same file as "
                   f"--tu-dir/--tu-name file T_{suffix}.txt\n")
    assert stdout == ""
    assert {p.name: p.read_text() for p in (tmp_path / "T").iterdir()} == {
        f"T_{name}.txt": text for name, text in _LAYOUT.items()}


@pytest.mark.parametrize("argv, flag", [
    (["gen-iso", "--nodes", "8", "--classes", "2", "--copies", "2", "--out"], "--out"),
    (["train", "--params-out"], "--params-out"),
    (["cv", "--k", "2", "--out"], "--out"),
    (["iso-exp", "--sizes", "1", "--trials", "1", "--out"], "--out"),
    (["sweep", "--k", "2", "--out"], "--out"),
], ids=lambda v: v if isinstance(v, str) else v[0])
@pytest.mark.parametrize("kind", ["directory", "fifo"])
def test_output_that_is_not_a_regular_file_exits_one_before_reading(
        capsys, tmp_path, monkeypatch, tiny_iso, argv, flag, kind):
    # the node is only ever stat-ed, never opened: a FIFO opened for
    # writing would block
    monkeypatch.setattr(train, "fit", lambda *a, **k: pytest.fail("fit was called"))
    monkeypatch.setattr(datagen, "generate_iso_dataset",
                        lambda *a, **k: pytest.fail("generate_iso_dataset was called"))
    target = tmp_path / kind
    (os.mkdir if kind == "directory" else os.mkfifo)(target)
    reads = [] if argv[0] == "gen-iso" else ["--data", str(tiny_iso), "--epochs", "1"]
    code, stdout, err = _run(capsys, [*argv, str(target), *reads])
    assert code == 1
    assert err == f"error: {flag} {target} exists and is not a regular file\n"
    assert stdout == ""
    is_kind = stat.S_ISDIR if kind == "directory" else stat.S_ISFIFO
    assert is_kind(os.stat(target).st_mode)


def test_cv_output_in_missing_directory_exits_one_before_any_fold(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(train, "fit", lambda *a, **k: pytest.fail("fit was called"))
    data = _toy_dataset_file(tmp_path, copies=2)
    out = tmp_path / "missing" / "cv.csv"
    code, stdout, err = _run(capsys, [
        "cv", "--data", str(data), "--k", "2", "--epochs", "1", "--out", str(out),
    ])
    assert code == 1
    assert err == f"error: --out {out}: no such directory\n"
    assert "fold" not in stdout
    assert not out.parent.exists()


# -- config-backed flags --------------------------------------------------------------

_CONFIG_FLAGS = [
    ("gen-iso", "--nodes", datagen.GenParams, "n_nodes", "1"),
    ("gen-iso", "--classes", datagen.GenParams, "classes", "1"),
    ("gen-iso", "--copies", datagen.GenParams, "copies", "0"),
    ("gen-iso", "--edge-prob", datagen.GenParams, "edge_prob", "1.5"),
    ("gen-iso", "--seed", datagen.GenParams, "seed", "-1"),
    ("train", "--epochs", train.TrainConfig, "epochs", "0"),
    ("train", "--batch-size", train.TrainConfig, "batch_size", "0"),
    ("train", "--lr", train.TrainConfig, "learning_rate", "nan"),
    ("train", "--f0", PiNetConfig, "F0", "0"),
    ("train", "--f1", PiNetConfig, "F1", "0"),
    ("train", "--attention-axis", PiNetConfig, "attention_axis", "rows"),
    ("train", "--seed", train.TrainConfig, "seed", "-1"),
    ("selfcheck", "--seed", train.TrainConfig, "seed", "-1"),
]


@pytest.mark.parametrize("command, flag, cls, name, refused", _CONFIG_FLAGS,
                         ids=[f"{command} {flag}" for command, flag, *_ in _CONFIG_FLAGS])
def test_config_flag_takes_rule_and_default_from_its_config(capsys, tmp_path, command, flag,
                                                            cls, name, refused):
    # Each flag's default is its config field's, and a value the config
    # refuses is refused while parsing, before the config line is echoed.
    # The command would otherwise run: gen-iso has --out, train a dataset.
    rest = {"gen-iso": ["--out", str(tmp_path / "d.jsonl")],
            "train": ["--data", str(_toy_dataset_file(tmp_path))],
            "selfcheck": ["--quick"]}[command]
    args = cli.build_parser().parse_args([command, *rest])
    default = {f.name: f.default for f in fields(cls)}[name]
    assert getattr(args, flag[2:].replace("-", "_")) == default
    short = ["--epochs", "1"] if command == "train" else []  # a later --epochs overrides it
    code, stdout, err = _run(capsys, [command, *rest, *short, flag, refused])
    assert code == 1
    assert f"argument {flag}: {name} must " in err
    assert "config:" not in stdout


# -- numeric flags ------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["train", "--lr", "nan"],
    ["train", "--lr", "inf"],
    ["cv", "--lr", "-inf"],
    ["train", "--seed", "-1"],
    ["cv", "--seed", "-1"],
    ["sweep", "--seed", "-1"],
    ["iso-exp", "--seed", "-1"],
    ["gen-iso", "--seed", "-1"],
    ["selfcheck", "--seed", "-1"],
], ids=" ".join)
def test_bad_numeric_flag_exits_one(capsys, argv):
    # refused while parsing, before any other argument is looked at
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert f"argument {argv[1]}: " in err and "Traceback" not in err


# -- selfcheck ------------------------------------------------------------------------

def test_selfcheck_quick_passes(capsys):
    code, stdout, _ = _run(capsys, ["selfcheck", "--quick"])
    assert code == 0
    lines = [l for l in stdout.splitlines() if "cases" in l]
    assert len(lines) >= 4  # at least four suites with case counts
    assert all("ok" in l for l in lines)


def test_selfcheck_mutation_hook_fails_padding(capsys, monkeypatch):
    # Pooling with the node mask ignored gives padded nodes attention
    # weight. Only the nodes axis can show it: padded feature-tower rows
    # are exactly 0, so the features axis pools the same values.
    from pinet import model

    pool = model.attention_pool
    monkeypatch.setattr(model, "attention_pool", lambda batch, pre, z, axis: pool(
        replace(batch, mask=np.ones_like(batch.mask)), pre, z, axis))
    code, stdout, _ = _run(capsys, ["selfcheck", "--quick"])
    assert code == 2
    lines = stdout.splitlines()
    assert [l.split(":")[0] for l in lines if "FAIL" in l] == ["padding-invariance"]
    failures = [l.split() for l in lines if l.startswith("  case ")]
    assert [f[1] for f in failures] == ["0:", "2:", "4:", "6:", "8:"]
    assert all(f[3] == "axis=nodes" for f in failures)
    assert "6/7 suites passed" in stdout
