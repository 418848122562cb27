"""Smoke tests for the benchmark itself: tiny sizes, no timing bound.

Run from the repository root with `python -m pytest benchmarks`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ["benchmarks/run.py"]


def _run(cwd, *args):
    return subprocess.run([sys.executable, *RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    p = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
             "--trace", str(trace), "--smoke")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert meta["seed"] == 3 and meta["blas_threads"] >= 1 and meta["failed_checks"] == []


def test_smoke_quality_repeats_for_a_seed():
    metas = []
    for _ in range(2):
        p = _run(ROOT, "--workload", "mixed-pad-learned", "--seed", "5", "--seconds", "0", "--smoke")
        assert p.returncode == 0, p.stderr
        metas.append(json.loads(p.stdout.strip().splitlines()[-2])["meta"])
    keys = ("inputs_sha256", "final_loss", "heldout_acc", "pq_final")
    assert {k: metas[0][k] for k in keys} == {k: metas[1][k] for k in keys}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(tmp_path, "--workload", "iso-train-learned", "--seed", "0", "--seconds", "1",
             "--trace", "0")
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
