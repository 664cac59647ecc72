#!/usr/bin/env python3
"""Benchmark of the labelshift package, end to end and per module.

    python3 bench/run.py --workload cli_gmm_k2_100k --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 bench/selftest.py

The package is imported from the checkout's own ``src`` (pure Python, no
build step). One client drives it in-process through ``labelshift.cli.main``
in a closed loop: each call starts when the previous one returns. A repeat is
the workload's two calls:

    cli_gmm_k2_100k, cli_tabular_k10   call1 = estimate, call2 = diagnose
    sweep_gmm_k2                       call1 = benchmark sweep at 1 worker,
                                       call2 = the same sweep at 2 workers

Inputs are written from --seed alone. Repeats run while the next one is
expected to end within --seconds, and at least twice so that they can be
compared. With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json. With --trace 1 it makes one untraced and one traced repeat
at one worker and reports the per-layer metrics; spans go to
.bench_out/spans-<workload>-seed<seed>.jsonl. bench/baseline.json holds the
ten-seed figures measured when the benchmark was added.

Lines before the last describe the run for a reader. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics. A
failed correctness check prints correct=false with no metrics and exits 1.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
MIN_REPEATS = 2
KKT_TOL = 1e-8
SWEEP_SHIFTS = [
    {"mode": "dirichlet", "alpha": 1.0},
    {"mode": "explicit", "target_marginal": [0.99, 0.01]},  # drives MLLS to the boundary
]
ESTIMATOR_FUNCS = ("bbse", "rlls", "mlls_em", "mlls_grad", "mlls_cm")

# Public functions whose spans the traced run records, as "module.function".
TRACED = (
    "cli.cmd_estimate", "cli.cmd_diagnose", "cli.cmd_benchmark",
    "io.read_prediction_file",
    "simplex.grouped_table", "simplex.project_to_weight_simplex",
    "predictors.samples_from_outputs", "predictors.gmm_posterior",
    "calibration.bcts_fit", "calibration.bcts_apply_matrix",
    "confusion.build_hard_confusion", "confusion.build_soft_confusion",
    "confusion.build_target_prediction_marginal",
    *(f"estimators.{name}" for name in ESTIMATOR_FUNCS),
    "diagnostics.check_identifiability", "diagnostics.condition_tau",
    "diagnostics.diagnostics_report",
    "simulation.run_trials", "simulation.run_single_trial", "simulation.sample_gmm",
    "simulation.target_table_from_outputs",
)
COUNTERS = (
    "io.read_prediction_file.rows", "io.read_prediction_file.bytes",
    "simplex.grouped_table.rows_in", "simplex.grouped_table.support_out",
    "simplex.ProbVector.constructed", "calibration.bcts_fit.iterations",
    *(f"estimators.{name}.{c}" for name in ESTIMATOR_FUNCS for c in ("iterations", "not_converged")),
    "simulation.failed_reports",
)


@dataclass(frozen=True)
class CliWorkload:
    name: str
    method: str
    n_source: int
    m_target: int
    k: int = 2  # 2: `labelshift simulate` (two Gaussians); more: bench/tabular.py
    n_support: int = 0


@dataclass(frozen=True)
class SweepWorkload:
    name: str
    n_trials: int
    m: int
    n_source: int


WORKLOADS = {w.name: w for w in (
    CliWorkload("cli_gmm_k2_100k", "mlls_em", 100_000, 100_000),
    CliWorkload("cli_tabular_k10", "mlls_grad", 50_000, 50_000, k=10, n_support=200),
    SweepWorkload("sweep_gmm_k2", n_trials=20, m=1000, n_source=1000),
)}


class CheckFailed(Exception):
    """A correctness check failed; the run reports no numbers."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ------------------------------------------------------------------ machine

def machine_record() -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# ------------------------------------------------------------------ calls

def call_cli(cli, argv) -> tuple[dict, float]:
    """Run one `labelshift` call in-process; return (stdout JSON, seconds).

    Checks that it exits 0 and writes exactly one JSON document to stdout.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
    check(code == 0, f"labelshift {argv[0]} exited {code}: {err.getvalue().strip()}")
    lines = out.getvalue().splitlines()
    check(len(lines) == 1, f"labelshift {argv[0]} wrote {len(lines)} stdout lines, not one")
    try:
        doc = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"labelshift {argv[0]} stdout is not JSON: {exc}") from None
    check(isinstance(doc, dict), f"labelshift {argv[0]} stdout is not a JSON object")
    return doc, elapsed


class ResultTap:
    """Reads estimator results where the CLI and the sweep harness receive them.

    Each run needs this, traced or not: the CLI hides `converged` from
    `diagnose` and the sweep CSV drops failed trials, so failures are counted
    here. The wrappers take no timings; they cost a few calls per estimate.
    """

    def __init__(self, ls):
        self.ls = ls
        self.converged = []  # one flag per estimator result
        self.mlls = []  # (table, source marginal) of each MLLS call made by the CLI
        self.reports = []  # TrialReports of each sweep
        self._patcher = ls.spans.Patcher()

    def install(self) -> None:
        cli, simulation = self.ls.cli, self.ls.simulation
        for module in (cli, simulation):
            for name in ESTIMATOR_FUNCS:
                keep = module is cli and name in ("mlls_em", "mlls_grad")
                self._patcher.set(module, name, self._tap(getattr(module, name), keep))
        run_trials = cli.run_trials

        def tapped_run_trials(*args, **kwargs):
            reports, rows = run_trials(*args, **kwargs)
            self.reports.extend(reports)
            return reports, rows

        self._patcher.set(cli, "run_trials", tapped_run_trials)

    def _tap(self, fn, keep_args: bool):
        def tapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.converged.append(bool(result.converged))
            if keep_args:
                self.mlls.append((args[0], args[1]))
            return result

        return tapped

    def restore(self) -> None:
        self._patcher.restore()

    def take(self):
        taken = (self.converged, self.mlls, self.reports)
        self.converged, self.mlls, self.reports = [], [], []
        return taken


def kkt_residual(diagnostics, table, source_marginal, weights) -> float:
    """Largest violation of the KKT conditions of max E_t log f.w over the slice.

    At the maximizer g - lam*p is zero on the support of w and <= 0 off it,
    with g the likelihood gradient and lam = g.w / p.w.
    """
    w = np.asarray(weights, dtype=float)
    p = source_marginal.entries
    g = diagnostics.likelihood_gradient(table, w)
    r = g - (g @ w) / (p @ w) * p
    return float(np.max(np.where(w > 0, np.abs(r), np.maximum(r, 0.0))))


# ------------------------------------------------------------------ workloads

class CliRun:
    """`estimate` then `diagnose` on prediction files the package wrote."""

    labels = ("estimate", "diagnose")

    def __init__(self, ls, wl: CliWorkload, seed: int, work: Path, tap: ResultTap):
        self.ls, self.wl, self.seed, self.work, self.tap = ls, wl, seed, work, tap
        self.source, self.target = work / "source.csv", work / "target.csv"
        self.inputs = [self.source, self.target]
        self.w_star = None
        self.first = {}  # call label -> weights of its first call
        self.weight_l2_err = math.nan
        self.kkt_max = 0.0
        self.attempted = self.failed = 0

    def write_inputs(self) -> None:
        wl, work = self.wl, self.work
        if wl.k > 2:
            truth = self.ls.tabular.write_tabular_files(
                work, wl.k, wl.n_support, wl.n_source, wl.m_target, self.seed
            )
            self.w_star = truth["w_star"]
            return
        code = self.ls.cli.main([
            "simulate", "--alpha", "1.0", "--source-marginal", "0.5,0.5",
            "--n-source", str(wl.n_source), "--m-target", str(wl.m_target),
            "--seed", str(self.seed), "--source-out", str(self.source),
            "--target-out", str(self.target), "--marginal-out", str(work / "truth.json"),
        ])
        check(code == 0, f"labelshift simulate exited {code}")
        p_t = json.loads((work / "truth.json").read_text(encoding="utf-8"))["target_marginal"]
        self.w_star = [v / 0.5 for v in p_t]

    def repeat(self, one_worker: bool) -> list:
        timings = []
        for label in self.labels:
            argv = [label, "--source", str(self.source), "--target", str(self.target),
                    "--method", self.wl.method]
            doc, elapsed = call_cli(self.ls.cli, argv)
            converged, mlls, _ = self.tap.take()
            self.attempted += 1
            self.failed += not all(converged)
            check(len(mlls) == 1, f"{label} made {len(mlls)} MLLS calls, expected one")
            w = doc["weights"]
            residual = kkt_residual(self.ls.diagnostics, *mlls[0], w)
            check(residual < KKT_TOL, f"{label}: KKT residual {residual:.3e} at the returned weights")
            self.kkt_max = max(self.kkt_max, residual)
            check(w == self.first.setdefault(label, w), f"{label}: repeats returned different weights")
            if label == "estimate":
                self.weight_l2_err = float(np.linalg.norm(np.subtract(w, self.w_star)))
            timings.append((label, elapsed))
        return timings

    def report_lines(self, samples: dict) -> list:
        return [
            report_line("estimate_s", samples["estimate"], "s"),
            report_line("diagnose_s", samples["diagnose"], "s"),
            f"weight_l2_err          {self.weight_l2_err:.6g}  (||w_hat - w*||_2 of estimate, deterministic per seed)",
            f"kkt_residual           {self.kkt_max:.3g}  (largest over calls; the check is < {KKT_TOL:g})",
        ]


class SweepRun:
    """`labelshift benchmark` on one config, at 1 and at 2 workers."""

    labels = ("sweep_1w", "sweep_2w")

    def __init__(self, ls, wl: SweepWorkload, seed: int, work: Path, tap: ResultTap):
        self.ls, self.wl, self.seed, self.work, self.tap = ls, wl, seed, work, tap
        self.config = work / "sweep.json"
        self.inputs = [self.config]
        self.estimates = len(SWEEP_SHIFTS) * wl.n_trials * len(ls.estimators.METHODS)
        self.first_csv = None
        self.sweep_mse = self.weight_l2_err = math.nan
        self.attempted = self.failed = 0

    def write_inputs(self) -> None:
        wl = self.wl
        cfg = {
            "gmm": {"mu": 1.0}, "shifts": SWEEP_SHIFTS, "methods": list(self.ls.estimators.METHODS),
            "m_values": [wl.m], "n_trials": wl.n_trials, "base_seed": self.seed, "n_source": wl.n_source,
        }
        self.config.write_text(json.dumps(cfg) + "\n", encoding="utf-8")

    def repeat(self, one_worker: bool) -> list:
        timings = []
        for label, workers in zip(self.labels, (1,) if one_worker else (1, 2)):
            out = self.work / f"{label}.csv"
            os.environ["LABELSHIFT_THREADS"] = str(workers)
            _, elapsed = call_cli(self.ls.cli, ["benchmark", "--config", str(self.config), "--output", str(out)])
            converged, _, reports = self.tap.take()
            check(len(reports) == self.estimates, f"{label}: {len(reports)} trial reports, expected {self.estimates}")
            self.attempted += len(reports)
            self.failed += sum(r.error_message is not None for r in reports) + converged.count(False)
            csv = out.read_bytes()
            self.first_csv = self.first_csv or csv
            check(csv == self.first_csv, f"{label}: sweep CSV differs from the first 1-worker sweep")
            errors = [r.squared_error for r in reports if r.error_message is None]
            self.weight_l2_err = math.sqrt(sum(errors) / len(errors)) if errors else math.nan
            mses = [float(row.split(",")[-2]) for row in csv.decode().splitlines()[1:]]
            self.sweep_mse = statistics.fmean(v for v in mses if not math.isnan(v))
            timings.append((label, elapsed))
        return timings

    def report_lines(self, samples: dict) -> list:
        rates = {label: [self.estimates / t for t in samples[label]] for label in samples}
        return [
            report_line("sweep_trials_per_s", rates["sweep_1w"], "1/s"),
            report_line("sweep_trials_per_s_2w", rates["sweep_2w"], "1/s"),
            f"sweep_mse              {self.sweep_mse:.6g}  (mean over cells and methods, deterministic per seed)",
            f"weight_l2_err          {self.weight_l2_err:.6g}  (RMS over all sweep estimates)",
        ]


# ------------------------------------------------------------------ running a workload

def report_line(name: str, values: list, unit: str) -> str:
    """Median plus the highest percentile with at least 10 samples beyond it."""
    n = len(values)
    text = f"{name:<22} median {statistics.median(values):.6g} {unit}, n={n}"
    if n >= 11:
        return text + f", p{math.floor(100 * (n - 10) / n)} {sorted(values)[n - 11]:.6g} {unit}"
    return text + " (a tail percentile needs 11 samples)"


def load_package():
    """Import the package from the checkout's source tree, and the bench helpers."""
    if not (SRC / "labelshift" / "__init__.py").is_file():
        raise FileNotFoundError(f"no labelshift package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import types

    import spans
    import tabular
    from labelshift import cli, diagnostics, estimators, simplex, simulation

    return types.SimpleNamespace(cli=cli, diagnostics=diagnostics, estimators=estimators,
                                 simplex=simplex, simulation=simulation, spans=spans, tabular=tabular)


def fresh_import_seconds() -> float:
    """Seconds to import labelshift.cli in a new interpreter (startup excluded)."""
    code = "import time; t = time.perf_counter(); import labelshift.cli; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def set_up(runner, times: int) -> list:
    """Import the package afresh and write the inputs, `times` times; return seconds."""
    seconds, digests = [], set()
    for _ in range(times):
        import_s = fresh_import_seconds()
        start = time.perf_counter()
        runner.write_inputs()
        seconds.append(import_s + time.perf_counter() - start)
        digests.add(tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in runner.inputs))
    check(len(digests) == 1, "one seed wrote different inputs on different set-ups")
    return seconds


def derive_counts(rec, name: str, args, result) -> None:
    """Counts the traced run reads off arguments and results."""
    if name == "io.read_prediction_file":
        rec.add(name + ".rows", result[0].shape[0])
        rec.add(name + ".bytes", os.path.getsize(args[0]))
    elif name == "simplex.grouped_table":
        rec.add(name + ".rows_in", len(args[1]))
        rec.add(name + ".support_out", len(result.support))
    elif name == "simulation.run_single_trial":
        rec.add("simulation.failed_reports", sum(r.error_message is not None for r in result))
    elif name == "calibration.bcts_fit":
        rec.add(name + ".iterations", result.iterations)
    elif name.startswith("estimators."):
        rec.add(name + ".iterations", result.iterations)
        rec.add(name + ".not_converged", int(not result.converged))


def timed_loop(runner, seconds: float) -> dict:
    """Closed loop of repeats; stop before one that would overrun `seconds`."""
    samples = {label: [] for label in runner.labels}
    deadline = time.perf_counter() + seconds
    repeats, last = 0, 0.0
    while repeats < MIN_REPEATS or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        for label, elapsed in runner.repeat(one_worker=False):
            samples[label].append(elapsed)
        repeats, last = repeats + 1, time.perf_counter() - start
    return samples


def traced_pass(ls, runner, tap, spans_path: Path) -> tuple[dict, list]:
    """One untraced and one traced repeat at one worker; return (metrics, lines)."""
    tap.install()
    untraced = sum(t for _, t in runner.repeat(one_worker=True))
    tap.restore()  # the recorder must find the package's own functions, not the tap's
    rec = ls.spans.SpanRecorder()
    rec.install(TRACED, derive_counts)
    rec.count_calls(ls.simplex.ProbVector, "__post_init__", "simplex.ProbVector.constructed")
    tap.install()
    try:
        traced = sum(t for _, t in runner.repeat(one_worker=True))
    finally:
        tap.restore()
        rec.uninstall()
    spans_path.parent.mkdir(exist_ok=True)
    rec.write_jsonl(spans_path)

    metrics = {}
    for qual in TRACED:
        metrics[qual + ".self_s"] = rec.self_s[qual]
        metrics[qual + ".calls"] = rec.counts[qual + ".calls"]
    for key in COUNTERS:
        metrics[key] = rec.counts[key]
    metrics["estimators.weight_l2_err"] = runner.weight_l2_err
    metrics["trace.overhead_s"] = traced - untraced
    busy = sorted(((rec.self_s[q], q) for q in TRACED if rec.self_s[q] > 0), reverse=True)
    lines = [f"untraced {untraced:.4f} s, traced {traced:.4f} s; self time by function:"]
    lines += [f"  {q:<44} {s:10.4f} s  calls {rec.counts[q + '.calls']}" for s, q in busy]
    lines.append(f"spans: {spans_path.relative_to(ROOT)} ({len(rec.spans)} spans)")
    return metrics, lines


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("weight_l2_err"):
        return "norm"
    return "count"


def run_workload(wl, seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    """Run one workload; return (result object, report lines)."""
    ls = load_package()
    work = ROOT / ".bench_work" / f"{wl.name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    threads = os.environ.get("LABELSHIFT_THREADS")
    tap = ResultTap(ls)
    runner = (CliRun if isinstance(wl, CliWorkload) else SweepRun)(ls, wl, seed, work, tap)
    lines = [f"workload {wl.name}, seed {seed}, trace {int(trace)}", "machine " + json.dumps(machine_record())]
    try:
        setup = set_up(runner, 1 if trace else SETUP_REPEATS)
        if trace:
            spans_path = ROOT / ".bench_out" / f"spans-{wl.name}-seed{seed}.jsonl"
            metrics, trace_lines = traced_pass(ls, runner, tap, spans_path)
            lines += trace_lines
        else:
            tap.install()
            samples = timed_loop(runner, seconds)
            first, second = (samples[label] for label in runner.labels)
            metrics = {
                "setup_s": statistics.median(setup),
                "call1_s": statistics.median(first),
                "call2_s": statistics.median(second),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            lines += [report_line("setup_s", setup, "s")] + runner.report_lines(samples)
            lines.append(f"peak_rss_mb            {metrics['peak_rss_mb']:.6g} MB")
    finally:
        tap.restore()
        shutil.rmtree(work, ignore_errors=True)
        if threads is None:
            os.environ.pop("LABELSHIFT_THREADS", None)
        else:
            os.environ["LABELSHIFT_THREADS"] = threads
    lines.append(f"failed_frac            {runner.failed / runner.attempted:.6g} "
                 f"({runner.failed} failed of {runner.attempted} attempted)")
    result = {
        "correct": True,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    if args.workload == "all":  # each workload in its own process, so peak RSS stays its own
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)

    try:
        result, lines = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"bench: correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
