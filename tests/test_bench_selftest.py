"""The benchmark's self-test, at tiny sizes: a change to an API the benchmark
reads (`SliceResult.fixed_point`, `FreeAlgebra.levels`, the functions its
tracer wraps, ...) fails here, not only when the benchmark runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "selftest: passed" in proc.stdout
