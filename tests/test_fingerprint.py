"""`tools/fingerprint.py` runs against the package and prints its five
sha256 lines: the gen-iso bytes, the seeded fits, the selfcheck results,
what the loaders return, then the seeded fits stacked per size class."""

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
