"""Every package name that bench/run.py patches or traces resolves.

The benchmark looks each name up with `getattr` when it installs its result
tap and its span recorder, so a refactor that drops or moves one breaks the
benchmark run. This test reads the names from bench/run.py itself, loaded by
path, so that it fails first.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


BENCH = _load_bench_run()
NAMES = [
    *(f"{module}.{name}" for module in ("cli", "simulation") for name in BENCH.ESTIMATOR_FUNCS),
    "cli.run_trials",
    *BENCH.TRACED,
    "simplex.ProbVector.__post_init__",
]


@pytest.mark.parametrize("dotted", NAMES)
def test_bench_name_resolves(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"labelshift.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)
