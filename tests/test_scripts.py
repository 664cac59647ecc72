"""The study scripts run end to end at toy size and print their tables."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOY = ["--n-trials", "3", "--n-source", "300"]
SCRIPTS = {  # script -> (arguments beyond TOY, table header, table rows)
    "consistency_rate.py": (["--m-values", "100,300"], "m,mse,stderr", 2),
    "binning_study.py": (["--m", "200", "--bins", "2,4"], "bins,mean_min_eig,mse,stderr", 2),
    "miscalibration_study.py": (
        ["--m", "200", "--mc-samples", "2000"], "temperature,calibration_error,mse,stderr", 3
    ),
}


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_prints_its_table(script):
    args, header, n_rows = SCRIPTS[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / script), *TOY, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    rows = [line.split(",") for line in lines[1:1 + n_rows]]
    assert len(rows) == n_rows
    assert all(len(row) == header.count(",") + 1 for row in rows)
