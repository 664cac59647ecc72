"""`estimate`, `diagnose` and `calibrate` run without importing scipy; only
the commands that draw data (`simulate`, `benchmark`) load it."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = '''
import sys

import numpy as np

from labelshift import cli

assert "scipy" not in sys.modules, "import labelshift.cli"
rng = np.random.default_rng(0)
for name, n in (("src.csv", 300), ("tgt.csv", 200)):
    f0 = rng.random(n) * 0.9 + 0.05
    columns = [f0, 1.0 - f0] + ([(rng.random(n) > f0).astype(float)] if name == "src.csv" else [])
    header = "class_0,class_1" + (",label" if name == "src.csv" else "")
    np.savetxt(name, np.column_stack(columns), fmt="%.12g", delimiter=",", header=header, comments="")
for argv in (
    ["estimate", "--source", "src.csv", "--target", "tgt.csv"],
    ["diagnose", "--source", "src.csv", "--target", "tgt.csv"],
    ["calibrate", "--source", "src.csv"],
):
    assert cli.main(argv) == 0, argv[0]
    assert "scipy" not in sys.modules, argv[0]
assert cli.main([
    "simulate", "--alpha", "1", "--n-source", "50", "--m-target", "50",
    "--source-out", "s.csv", "--target-out", "t.csv", "--marginal-out", "m.json",
]) == 0
assert "scipy" in sys.modules, "simulate"  # the check above can see scipy load
'''


def test_estimate_time_commands_do_not_import_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
