"""pinet benchmark: one workload, one process, closed loop.

Run from the repository root:

    python3 benchmarks/run.py --workload iso-train-learned --seed 1 --seconds 25 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
runs the same workload with spans around every call into pinet's public
layers and reports the per-layer metrics instead. `--smoke` shrinks every
size so a run takes a second or two; it still checks every output and the
metric names and units, but its timings mean nothing.

Output: a `{"meta": ...}` line (run metadata, quality figures, failed
checks), then, as the last line, `{"correct", "attempted", "failed",
"metrics"}` with every metric as `{"value", "unit"}`. The exit code is 0
only when every operation and check passed. Inputs are generated from
`--seed` into `.bench_tmp/` and removed afterwards; a traced run also
writes its spans to `.bench_out/`.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: a single BLAS thread keeps the small
# per-graph products steady on a shared machine, and never exceeds nproc.
BLAS_THREADS = min(1, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _src_sha256() -> str:
    """Digest of the package sources, a revision id that needs no git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "pinet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas(np) -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()


def _declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    t_start = time.perf_counter()
    if not (SRC / "pinet" / "__init__.py").is_file():
        print(f"error: pinet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import pinet
    import workloads

    if Path(pinet.__file__).resolve().parent != SRC / "pinet":
        print(f"error: imported pinet from {pinet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_start

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    ledger = workloads.Ledger()
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    metrics: dict = {}
    meta: dict = {}
    try:
        metrics, meta, tracer = workloads.run(args.workload, scale, args.seed, args.seconds,
                                              bool(args.trace), tmp, import_s, ledger)
    except (ValueError, RuntimeError) as e:  # pinet's error types derive from these
        ledger.failed.append(f"{type(e).__name__}: {e}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it

    if metrics:
        declared = _declared(bool(args.trace))
        got = {k: unit for k, (_, unit) in metrics.items()}
        if got != declared:
            print(f"error: metrics {got} differ from BENCHMARK.json {declared}", file=sys.stderr)
            return 2
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            with open(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s) + "\n")

    meta.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        smoke=args.smoke, git_rev=_git_rev(), src_sha256=_src_sha256(),
        python=platform.python_version(), numpy=np.__version__, blas=_blas(np),
        blas_threads=BLAS_THREADS, cpu_count=os.cpu_count(), failed_checks=ledger.failed,
    )
    print(json.dumps({"meta": meta}))
    result = {
        "correct": not ledger.failed,
        "attempted": max(ledger.attempted, len(ledger.failed), 1),
        "failed": len(ledger.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not ledger.failed and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
