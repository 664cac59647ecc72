"""The benchmark's own self-test passes on this tree.

`bench/selftest.py` runs every workload at toy size, traced and untraced,
and checks each result against the metric list in BENCHMARK.json. A package
change that breaks the benchmark's result tap, its span tracer or a metric
then fails here, not first in a benchmark run.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
