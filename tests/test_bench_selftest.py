"""The benchmark's self-test runs with the package's suite: it pins the
module bindings that the benchmark's tracer patches, which a refactor of
the package must keep."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
