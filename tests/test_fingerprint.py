"""`tools/fingerprint.py` runs against the package and prints its five
sha256 lines: the gen-iso bytes, the seeded fits, the selfcheck results,
what the loaders return, then the seeded fits stacked per size class.

Lines 1 and 4 depend on no floating-point reduction, so they are pinned
to their digests. Lines 2, 3 and 5 go through BLAS, whose results may
differ in the last bit between builds, so only their format is checked."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_fingerprint_prints_five_digests():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "fingerprint.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 5
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    assert lines[0].startswith(
        "ab2413a18e0fe84fcf7e7eb8f5a23354ec599a848b3e48ff7d58ba3ce4da24c7  gen-iso")
    assert lines[3].startswith(
        "cc6e528c76c5b3ea14f61ef5df5efe0ef9b2469be6c3f657e6be238879921be8  load_dataset")
