"""The benchmark's tracer replaces functions of the package by name, so a
renamed or moved function makes the traced run fail. This runs the traced
warm-up case of ``benchmark/worker.py`` to catch that here."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_setup_run_writes_spans(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "worker.py"), "--setup-only",
         "--trace", str(spans)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(spans.read_text())
