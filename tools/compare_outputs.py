#!/usr/bin/env python3
"""Compare what two source trees of the package print and write.

    python3 tools/compare_outputs.py BASE_SRC NEW_SRC

Each argument is a directory holding the `labelshift` package, such as the
`src` of a checkout. Each tree runs in its own subprocess, which imports the
package from that directory alone and calls `labelshift.cli.main` in-process.

The inputs are the benchmark's, written by `bench/run.py`'s own `CliRun` and
`SweepRun` (loaded read-only): the files of its two CLI workloads at seeds 1
and 2, through `labelshift simulate` and `bench/tabular.py`'s writer, and its
`sweep_gmm_k2` config at seeds 1 and 2.
Each tree writes its own copy of the input files, which are compared too;
then both trees run on the base tree's copy:

- `estimate` with each method, with and without `--no-calibration`,
  `diagnose` with each method, and `calibrate`, on every input pair;
- `benchmark` on every `scripts/*.json` config and on the sweep configs.

One line per document (an input file, a command's exit code with its stdout
and stderr, or a sweep's CSV) says that it is byte-identical or gives the
largest absolute and relative difference among its numbers. The exit status
is 1 if a document is missing from one side, if an exit code or any text
other than the numbers differs, or if a number differs by more than 1e-12
relative; otherwise 0.
"""
from __future__ import annotations

import argparse
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
REL_TOL = 1e-12
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def load(path: Path):
    """A module of this repository loaded from its file, without running it."""
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # which dataclasses look up
    spec.loader.exec_module(module)
    return module


def run_cli(cli, argv) -> str:
    """One in-process `labelshift` call, as one document: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def write_inputs(cli, estimators, directory: Path) -> tuple[list, list]:
    """Write the benchmark's inputs into directory through `bench/run.py`'s
    own writers; return the (source, target) pairs and the sweep configs, as
    paths relative to directory."""
    bench = load(ROOT / "bench" / "run.py")
    ls = types.SimpleNamespace(cli=cli, estimators=estimators, tabular=load(ROOT / "bench" / "tabular.py"))
    pairs, configs = [], []
    for wl in bench.WORKLOADS.values():
        for seed in SEEDS:
            work = directory / f"{wl.name}_seed{seed}"
            work.mkdir(parents=True)
            if isinstance(wl, bench.CliWorkload):
                run = bench.CliRun(ls, wl, seed, work, None)
                with redirect_stdout(io.StringIO()):  # `simulate` prints its summary
                    run.write_inputs()
                pairs.append((run.source.relative_to(directory), run.target.relative_to(directory)))
            else:
                run = bench.SweepRun(ls, wl, seed, work, None)
                run.write_inputs()
                configs.append(run.config.relative_to(directory))
    for path in sorted((ROOT / "scripts").glob("*.json")):
        (directory / path.name).write_bytes(path.read_bytes())
        configs.append(Path(path.name))
    return pairs, configs


def run_tree(job_path: str) -> None:
    """The subprocess of one tree: write its inputs, then run every command
    on the inputs named by the job, and write the documents as JSON."""
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    from labelshift import cli, estimators

    if Path(cli.__file__).resolve().parent.parent != Path(job["src"]).resolve():
        raise SystemExit(f"imported {cli.__file__}, not the package under {job['src']}")
    own, inputs, work = Path(job["own_inputs"]), Path(job["inputs"]), Path(job["work"])
    pairs, configs = write_inputs(cli, estimators, own)
    docs = {f"input {path.relative_to(own)}": path.read_text(encoding="utf-8")
            for path in sorted(own.rglob("*")) if path.is_file()}
    for source, target in pairs:
        name = source.parent.name
        src, tgt = str(inputs / source), str(inputs / target)
        for method in estimators.METHODS:
            for extra in ([], ["--no-calibration"]):
                argv = ["estimate", "--source", src, "--target", tgt, "--method", method, *extra]
                docs[" ".join(["estimate", name, method, *extra])] = run_cli(cli, argv)
            argv = ["diagnose", "--source", src, "--target", tgt, "--method", method]
            docs[f"diagnose {name} {method}"] = run_cli(cli, argv)
        docs[f"calibrate {name}"] = run_cli(cli, ["calibrate", "--source", src])
    work.mkdir()
    os.chdir(work)  # so that a relative --output names the same path for both trees
    for config in configs:
        label = config.as_posix()
        csv = Path(f"{label.replace('/', '_').removesuffix('.json')}.csv")
        docs[f"benchmark {label}"] = run_cli(cli, ["benchmark", "--config", str(inputs / config), "--output", str(csv)])
        docs[f"benchmark {label} csv"] = csv.read_text(encoding="utf-8") if csv.exists() else ""
    Path(job["out"]).write_text(json.dumps(docs), encoding="utf-8")


def compare(base: str, new: str) -> tuple[str, bool]:
    """A verdict on one document, and whether it passes."""
    if base == new:
        return "byte-identical", True
    head_base, head_new = base.partition("\n")[0], new.partition("\n")[0]
    if head_base.startswith("exit ") and head_base != head_new:
        return f"DIFFERS: {head_base} vs {head_new}", False
    if NUMBER.sub("#", base) != NUMBER.sub("#", new):
        return "DIFFERS in text other than its numbers", False
    worst_abs = worst_rel = 0.0
    for a, b in zip(map(float, NUMBER.findall(base)), map(float, NUMBER.findall(new))):
        if a != b:
            worst_abs = max(worst_abs, abs(a - b))
            worst_rel = max(worst_rel, abs(a - b) / max(abs(a), abs(b)))
    ok = worst_rel <= REL_TOL and math.isfinite(worst_abs)
    return f"{'numbers differ' if ok else 'DIFFERS'}: max abs {worst_abs:.3g}, max rel {worst_rel:.3g}", ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base_src", type=Path)
    ap.add_argument("new_src", type=Path)
    args = ap.parse_args(argv)
    results = {}
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        tmp = Path(tmp)
        for label, src in (("base", args.base_src), ("new", args.new_src)):
            job = {"src": str(src.resolve()), "own_inputs": str(tmp / f"inputs-{label}"),
                   "inputs": str(tmp / "inputs-base"), "work": str(tmp / f"work-{label}"),
                   "out": str(tmp / f"{label}.json")}
            job_path = tmp / f"{label}-job.json"
            job_path.write_text(json.dumps(job), encoding="utf-8")
            code = (f"import sys; sys.path[:0] = [{job['src']!r}, {str(Path(__file__).parent)!r}]; "
                    "import compare_outputs; compare_outputs.run_tree(sys.argv[1])")
            done = subprocess.run([sys.executable, "-c", code, str(job_path)], cwd=tmp)
            if done.returncode != 0:
                print(f"the {label} tree ({src}) failed with exit code {done.returncode}", file=sys.stderr)
                return 1
            results[label] = json.loads(Path(job["out"]).read_text(encoding="utf-8"))
    ok = True
    base, new = results["base"], results["new"]
    for name in sorted(base.keys() | new.keys()):
        if name not in base or name not in new:
            verdict, passed = f"MISSING from the {'new' if name in base else 'base'} tree", False
        else:
            verdict, passed = compare(base[name], new[name])
        ok &= passed
        print(f"{name}: {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
