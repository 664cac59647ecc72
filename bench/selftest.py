#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload at toy size, both modes.

    python3 bench/selftest.py

Checks that each run is correct and fails nothing, that its result object
has exactly the keys the benchmark contract names, that every metric name
matches [A-Za-z0-9_.-]+ and that the metrics and units are exactly those
BENCHMARK.json lists for the mode. Last, it checks that a directory holding
only BENCHMARK.json and bench/ makes run.py exit non-zero without a result.
Takes about half a minute.
"""
from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import run
from run import check

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TOY = {
    "cli_gmm_k2_100k": {"n_source": 2000, "m_target": 2000},
    "cli_tabular_k10": {"n_source": 3000, "m_target": 3000, "n_support": 50},
    "sweep_gmm_k2": {"n_trials": 2},
}


def check_result(name: str, trace: bool, result: dict, listed: dict) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{name}: {result['attempted']} attempted, {result['failed']} failed")
    metrics = result["metrics"]
    bad = [m for m in metrics if not NAME.fullmatch(m)]
    check(not bad, f"{name}: metric names outside [A-Za-z0-9_.-]+: {bad}")
    got = {m: v["unit"] for m, v in metrics.items()}
    check(got == listed, f"{name} trace={int(trace)}: metrics or units differ from BENCHMARK.json: "
          f"{sorted(m for m in set(got) | set(listed) if got.get(m) != listed.get(m))}")
    check(all(isinstance(v["value"], (int, float)) for v in metrics.values()), f"{name}: non-numeric value")


def check_bare_directory() -> None:
    bare = run.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sweep_gmm_k2", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and done.stdout == "",
          f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload lists differ")
    listed = {
        trace: {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        for trace in (False, True)
    }
    for name, sizes in TOY.items():
        wl = dataclasses.replace(run.WORKLOADS[name], **sizes)
        for trace in (False, True):
            result, _ = run.run_workload(wl, seed=1, seconds=0, trace=trace)
            check_result(name, trace, result, listed[trace])
            print(f"ok {name} trace={int(trace)} attempted={result['attempted']}")
    check_bare_directory()
    print("ok bare directory exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
