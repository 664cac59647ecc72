"""Command-line entry point.

Subcommands: simulate, estimate, calibrate, diagnose, benchmark.
One JSON document or CSV stream on stdout; logs and error JSON on stderr.
Exit codes: 0 ok, 2 input, 3 identifiability, 4 convergence, 5 I/O.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ConvergenceError, IdentifiabilityError, InputError
from .calibration import bcts_apply_matrix, bcts_fit
from .confusion import (
    build_hard_confusion,
    build_soft_confusion,
    build_target_prediction_marginal,
)
from .diagnostics import (
    condition_tau,
    check_identifiability,
    diagnostics_report,
    kkt_residual,
)
from .estimators import (
    METHODS,
    EstimatorConfig,
    bbse,
    mlls_cm,
    mlls_em,
    mlls_grad,
    rlls,
)
from .io import read_prediction_file, write_prediction_file
from .predictors import GmmSpec, gmm_posterior, samples_from_outputs
from .simplex import (
    ProbVector,
    WeightVector,
    grouped_table,
    normalized_rows,
    weights_to_target_marginal,
)
from .simulation import (
    ExperimentConfig,
    ShiftSpec,
    aggregate_to_csv,
    rng_for,
    run_trials,
    sample_gmm,
)

EXIT_INPUT, EXIT_IDENT, EXIT_CONV, EXIT_IO = 2, 3, 4, 5


def _fail(code: int, kind: str, message: str) -> int:
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")
    return code


def _prob_vector(text: str) -> ProbVector:
    return ProbVector.normalized(np.array([float(v) for v in text.split(",")]), tol=1e-6)


# ---------------------------------------------------------------- estimate

ESTIMATE_CONFIG_KEYS = {
    "method",
    "max_iters",
    "tol",
    "rlls_lambda",
    "clip_negative",
    "calibration_loss",
    "val_fraction",
    "seed",
}


def _load_overrides(path) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise InputError("config overrides must be a JSON object")
    unknown = set(obj) - ESTIMATE_CONFIG_KEYS
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    return obj


def _split_source(outputs, labels, val_fraction: float, seed: int):
    n = outputs.shape[0]
    perm = rng_for(seed, 0).permutation(n)
    n_val = int(round(n * val_fraction))
    val, est = perm[:n_val], perm[n_val:]
    if est.size == 0:
        raise InputError("validation split leaves no estimation samples")
    return (outputs[val], labels[val]), (outputs[est], labels[est])


def _run_estimator(
    method, est_cfg, source_samples, target_rows, table, source_marginal, clip_negative=False
):
    """Run one method; a result that did not converge raises ConvergenceError."""
    if method in ("bbse_hard", "bbse_soft"):
        kind = method.split("_")[1]
        conf = (build_hard_confusion if kind == "hard" else build_soft_confusion)(source_samples)
        mu = build_target_prediction_marginal(target_rows, kind)
        result, marginal = bbse(conf, mu, clip_negative=clip_negative), conf.column_marginal
    elif method == "rlls":
        conf = build_hard_confusion(source_samples)
        mu = build_target_prediction_marginal(target_rows, "hard")
        result, marginal = rlls(conf, mu, est_cfg.rlls_lambda, est_cfg), conf.column_marginal
    elif method in ("mlls_em", "mlls_grad"):
        solver = mlls_em if method == "mlls_em" else mlls_grad
        result, marginal = solver(table, source_marginal, est_cfg), source_marginal
    elif method == "mlls_cm":
        result = mlls_cm(source_samples, target_rows, source_marginal, est_cfg)
        marginal = source_marginal
    else:
        raise InputError(f"unknown method: {method}")
    if not result.converged:
        raise ConvergenceError(f"{method} did not converge in {est_cfg.max_iters} iterations")
    return result, marginal


def cmd_estimate(args) -> int:
    overrides = _load_overrides(args.config)
    method = args.method or overrides.get("method", "mlls_em")
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}")
    seed = args.seed if args.seed is not None else int(overrides.get("seed", 0))
    val_fraction = float(overrides.get("val_fraction", args.val_fraction))
    est_cfg = EstimatorConfig(
        method=method,
        max_iters=int(overrides.get("max_iters", 10_000)),
        tol=float(overrides.get("tol", 1e-8)),
        rlls_lambda=float(overrides.get("rlls_lambda", args.rlls_lambda)),
    )
    clip_negative = bool(overrides.get("clip_negative", args.clip_negative))

    src_outputs, src_labels, _ = read_prediction_file(args.source)
    if src_labels is None:
        raise InputError("source file must carry a label column")
    tgt_outputs, _, _ = read_prediction_file(args.target)
    if tgt_outputs.shape[1] != src_outputs.shape[1]:
        raise InputError("source and target class counts differ")

    calibration = None
    if args.no_calibration:
        est_out, est_lab = src_outputs, src_labels
    else:
        (val_out, val_lab), (est_out, est_lab) = _split_source(
            src_outputs, src_labels, val_fraction, seed
        )
        fit = bcts_fit(
            samples_from_outputs(val_out, val_lab),
            loss=str(overrides.get("calibration_loss", "nll")),
        )
        if not fit.converged:
            raise ConvergenceError(
                f"BCTS calibration did not converge (gradient norm {fit.final_grad_norm:.3g} "
                f"after {fit.iterations} iterations)"
            )
        calibration = fit.params
        est_out = bcts_apply_matrix(fit.params, est_out)
        tgt_outputs = bcts_apply_matrix(fit.params, tgt_outputs)

    source_samples = samples_from_outputs(est_out, est_lab)
    k = src_outputs.shape[1]
    counts = np.bincount(est_lab, minlength=k).astype(float)
    if np.any(counts == 0):
        raise InputError("a class is absent from the source estimation split")
    source_marginal = ProbVector(counts / counts.sum())
    target_rows = normalized_rows(tgt_outputs, tol=1e-6)
    table = grouped_table(target_rows, np.ones(len(target_rows)), "count")

    result, marginal = _run_estimator(
        method, est_cfg, source_samples, target_rows, table, source_marginal, clip_negative
    )

    identifiable, min_eig = check_identifiability(source_samples.outputs)
    tau = condition_tau(table, result.weights) if np.all(result.weights.weights >= 0) else None
    report = {
        "method": method,
        "weights": list(result.weights.weights),
        "source_marginal": list(marginal.entries),
        "target_marginal": list(
            weights_to_target_marginal(
                WeightVector(np.maximum(result.weights.weights, 0), marginal, check_nonneg=False)
            ).entries
        )
        if np.all(result.weights.weights >= 0)
        else None,
        "iterations": result.iterations,
        "converged": result.converged,
        "final_objective": result.final_objective,
        "calibration": None if calibration is None else calibration.to_json(),
        "diagnostics": {
            "identifiable": identifiable,
            "second_moment_min_eig": min_eig,
            "tau": tau,
        },
    }
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------- calibrate

def cmd_calibrate(args) -> int:
    outputs, labels, _ = read_prediction_file(args.source)
    if labels is None:
        raise InputError("calibration file must carry a label column")
    fit = bcts_fit(samples_from_outputs(outputs, labels), loss=args.loss)
    report = fit.params.to_json()
    report.update(
        {"iterations": fit.iterations, "converged": fit.converged,
         "final_grad_norm": fit.final_grad_norm, "final_loss": fit.loss_trace[-1]}
    )
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------- diagnose

def _weights_from_json(obj, source_marginal: ProbVector) -> WeightVector:
    """A weight vector read from JSON, rescaled so that w . p_s = 1."""
    k = source_marginal.k
    if not (
        isinstance(obj, list)
        and len(obj) == k
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)
    ):
        raise InputError(f"weights file must hold a JSON list of {k} numbers")
    try:
        w = np.asarray(obj, dtype=float)
    except OverflowError:  # an integer beyond float range
        raise InputError("weights must be finite") from None
    if not np.all(np.isfinite(w)):
        raise InputError("weights must be finite")
    dot = float(w @ source_marginal.entries)
    if dot <= 0:
        raise InputError(f"weights give w . p_s = {dot}; it must be positive")
    return WeightVector(w / dot, source_marginal)


def cmd_diagnose(args) -> int:
    src_outputs, src_labels, _ = read_prediction_file(args.source)
    tgt_outputs, _, _ = read_prediction_file(args.target)
    if tgt_outputs.shape[1] != src_outputs.shape[1]:
        raise InputError("source and target class counts differ")
    k = src_outputs.shape[1]
    target_rows = normalized_rows(tgt_outputs, tol=1e-6)
    table = grouped_table(target_rows, np.ones(len(target_rows)), "count")

    if src_labels is not None:
        counts = np.bincount(src_labels, minlength=k).astype(float)
        source_marginal = ProbVector.normalized(counts / counts.sum(), tol=1e-9)
    else:
        source_marginal = ProbVector(np.full(k, 1.0 / k))

    if args.weights:
        with open(args.weights, encoding="utf-8") as fh:
            weights = _weights_from_json(json.load(fh), source_marginal)
    else:
        if src_labels is None and args.method not in ("mlls_em", "mlls_grad"):
            raise InputError(f"method {args.method} needs a source file with a label column")
        est_cfg = EstimatorConfig(method=args.method)
        source_samples = (
            samples_from_outputs(src_outputs, src_labels) if src_labels is not None else None
        )
        result, _ = _run_estimator(
            args.method, est_cfg, source_samples, target_rows, table, source_marginal
        )
        weights = result.weights

    src_ident, src_eig = check_identifiability(normalized_rows(src_outputs, tol=1e-6))
    report = diagnostics_report(table, weights)
    hessian_nsd = bool(np.linalg.eigvalsh(-np.asarray(report.hessian))[0] >= -1e-8)
    g = report.gradient
    p = source_marginal.entries
    projected = g - (g @ p) / (p @ p) * p  # tangent component of the constraint
    out = report.to_json()
    out.update(
        {
            "identifiable": src_ident,
            "second_moment_min_eig": src_eig,
            "weights": list(weights.weights),
            "hessian_nsd": hessian_nsd,
            "projected_gradient_norm": float(np.linalg.norm(projected)),
            "kkt_residual": kkt_residual(g, p, weights.weights),
        }
    )
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    source_marginal = (
        _prob_vector(args.source_marginal) if args.source_marginal else ProbVector(np.array([0.5, 0.5]))
    )
    spec = GmmSpec(args.mu, source_marginal)
    if args.target_marginal:
        p_t = _prob_vector(args.target_marginal)
    elif args.alpha is not None:
        shift = ShiftSpec("dirichlet", alpha=args.alpha)
        p_t = shift.draw(source_marginal.k, rng_for(args.seed, 0))
    else:
        raise InputError("provide --alpha or --target-marginal")

    src_x, src_y = sample_gmm(spec, source_marginal, args.n_source, args.seed, 1)
    tgt_x, _ = sample_gmm(spec, p_t, args.m_target, args.seed, 2)
    try:
        write_prediction_file(args.source_out, gmm_posterior(spec, src_x), src_y)
        write_prediction_file(args.target_out, gmm_posterior(spec, tgt_x))
        with open(args.marginal_out, "w", encoding="utf-8") as fh:
            json.dump({"target_marginal": list(p_t.entries), "seed": args.seed}, fh)
            fh.write("\n")
    except OSError as exc:
        raise IOError(str(exc)) from exc
    return 0


# ---------------------------------------------------------------- benchmark

BENCHMARK_KEYS = {
    "gmm",
    "shifts",
    "methods",
    "m_values",
    "n_trials",
    "base_seed",
    "n_source",
    "rlls_lambda",
    "tol",
    "max_iters",
    "bins",
    "w_star_from",
}


def _parse_benchmark_config(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise InputError("benchmark config must be a JSON object")
    unknown = set(obj) - BENCHMARK_KEYS
    if unknown:
        raise InputError(f"unknown benchmark config keys: {sorted(unknown)}")
    for key in ("gmm", "shifts", "methods", "m_values", "n_trials", "base_seed"):
        if key not in obj:
            raise InputError(f"benchmark config missing {key!r}")
    gmm_obj = obj["gmm"]
    if set(gmm_obj) - {"mu", "source_marginal"}:
        raise InputError("gmm section accepts only mu and source_marginal")
    marg = gmm_obj.get("source_marginal", [0.5, 0.5])
    gmm = GmmSpec(float(gmm_obj["mu"]), ProbVector.normalized(np.asarray(marg, float), tol=1e-6))
    shifts = []
    for s in obj["shifts"]:
        if s.get("mode") == "dirichlet":
            shifts.append(ShiftSpec("dirichlet", alpha=float(s["alpha"])))
        elif s.get("mode") == "explicit":
            shifts.append(
                ShiftSpec(
                    "explicit",
                    target_marginal=ProbVector.normalized(
                        np.asarray(s["target_marginal"], float), tol=1e-6
                    ),
                )
            )
        else:
            raise InputError(f"unknown shift spec: {s}")
    methods = tuple(obj["methods"])
    if not methods:
        raise InputError("benchmark method list is empty")
    for m in methods:
        if m not in METHODS:
            raise InputError(f"unknown method {m!r}")
    base_seed = int(obj["base_seed"])
    if base_seed < 0 or base_seed > 2 ** 64 - 1:
        raise InputError("base_seed must be a 64-bit unsigned integer")
    return ExperimentConfig(
        gmm=gmm,
        shifts=tuple(shifts),
        methods=methods,
        m_values=tuple(int(m) for m in obj["m_values"]),
        n_trials=int(obj["n_trials"]),
        base_seed=base_seed,
        n_source=int(obj.get("n_source", 1000)),
        rlls_lambda=float(obj.get("rlls_lambda", 1e-3)),
        tol=float(obj.get("tol", 1e-6)),
        max_iters=int(obj.get("max_iters", 2000)),
        bins=None if obj.get("bins") is None else int(obj["bins"]),
        w_star_from=str(obj.get("w_star_from", "marginal")),
    )


def cmd_benchmark(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        cfg = _parse_benchmark_config(json.load(fh))
    _, rows = run_trials(cfg)
    csv_text = aggregate_to_csv(rows)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    except OSError as exc:
        raise IOError(str(exc)) from exc
    mses = {m: [r.mse for r in rows if r.method == m and r.n_failed < r.n_trials] for m in cfg.methods}
    failed = [m for m, v in mses.items() if not v]
    if failed:
        raise ConvergenceError(
            f"every trial failed for {', '.join(failed)}; the n_failed column of "
            f"{args.output} counts the failures per cell"
        )
    json.dump(
        {
            "output": args.output,
            "per_method_mean_mse": {m: float(np.mean(v)) for m, v in mses.items()},
            "rows": len(rows),
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="labelshift")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate shift weights from prediction files")
    est.add_argument("--source", required=True)
    est.add_argument("--target", required=True)
    est.add_argument("--method", choices=METHODS)
    est.add_argument("--seed", type=int)
    est.add_argument("--config", help="JSON overrides file")
    est.add_argument("--no-calibration", action="store_true")
    est.add_argument("--clip-negative", action="store_true")
    est.add_argument("--val-fraction", type=float, default=0.5)
    est.add_argument("--rlls-lambda", type=float, default=1e-3)
    est.set_defaults(func=cmd_estimate)

    cal = sub.add_parser("calibrate", help="fit temperature-plus-bias calibration")
    cal.add_argument("--source", required=True)
    cal.add_argument("--loss", choices=("nll", "mse"), default="nll")
    cal.set_defaults(func=cmd_calibrate)

    dia = sub.add_parser("diagnose", help="likelihood diagnostics at a weight vector")
    dia.add_argument("--source", required=True)
    dia.add_argument("--target", required=True)
    dia.add_argument("--weights", help="JSON file with a weight vector")
    dia.add_argument("--method", choices=METHODS, default="mlls_em")
    dia.set_defaults(func=cmd_diagnose)

    sim = sub.add_parser("simulate", help="write synthetic prediction files")
    sim.add_argument("--mu", type=float, default=1.0)
    sim.add_argument("--source-marginal")
    sim.add_argument("--alpha", type=float)
    sim.add_argument("--target-marginal")
    sim.add_argument("--n-source", type=int, default=1000)
    sim.add_argument("--m-target", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--source-out", required=True)
    sim.add_argument("--target-out", required=True)
    sim.add_argument("--marginal-out", required=True)
    sim.set_defaults(func=cmd_simulate)

    ben = sub.add_parser("benchmark", help="run a Monte Carlo benchmark sweep")
    ben.add_argument("--config", required=True)
    ben.add_argument("--output", required=True, help="CSV path for the MSE table")
    ben.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IdentifiabilityError as exc:
        return _fail(EXIT_IDENT, "identifiability", str(exc))
    except ConvergenceError as exc:
        return _fail(EXIT_CONV, "convergence", str(exc))
    except (InputError, json.JSONDecodeError, FileNotFoundError) as exc:
        return _fail(EXIT_INPUT, "input", str(exc))
    except (IOError, OSError) as exc:
        return _fail(EXIT_IO, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
