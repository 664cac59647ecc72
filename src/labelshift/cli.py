"""Command-line entry point.

Subcommands: simulate, estimate, calibrate, diagnose, benchmark.
One JSON document or CSV stream on stdout; logs and error JSON on stderr.
Exit codes: 0 ok, 2 input, 3 identifiability, 4 convergence, 5 I/O.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .errors import ConvergenceError, IdentifiabilityError, InputError
from .calibration import BctsParams, bcts_apply_matrix, bcts_fit
from .confusion import bbse_inputs
from .diagnostics import (
    condition_tau,
    check_identifiability,
    diagnostics_report,
    kkt_residual,
)
from .estimators import (
    MAX_ITERS,
    METHODS,
    bbse,
    mlls_cm,
    mlls_em,
    mlls_grad,
    require_converged,
    rlls,
)
from .io import read_prediction_file, write_prediction_file
from .predictors import GmmSpec, gmm_posterior, samples_from_outputs
from .simplex import LabeledPredictions, ProbVector, WeightVector, normalized_rows, weights_to_target_marginal
from .simulation import (
    ExperimentConfig,
    ShiftSpec,
    aggregate_to_csv,
    rng_for,
    run_trials,
    sample_gmm,
    target_table_from_outputs,
)

EXIT_INPUT, EXIT_IDENT, EXIT_CONV, EXIT_IO = 2, 3, 4, 5


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _read_json(path):
    """The JSON document of a file, read as UTF-8 with an optional byte-order
    mark; text that does not decode or parse is an InputError naming the
    file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _prob_vector(text: str) -> ProbVector:
    return ProbVector.normalized(np.array([float(v) for v in text.split(",")]), tol=1e-6)


# ---------------------------------------------------------------- config values

_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false",
               list: "a list", dict: "an object"}


def _config_value(obj: dict, key: str, kind, default=None):
    """obj[key], or `default` when the key is absent, as JSON of the given
    kind; [kind] is a list of that kind, and a key without a default must be
    present. An integer passes as a number, and nothing else is converted: a
    value of another kind, null or a non-finite number is an InputError
    naming the key."""
    if isinstance(kind, list):
        return [_config_value({key: v}, key, kind[0]) for v in _config_value(obj, key, list, default)]
    if key not in obj and default is None:
        raise InputError(f"config is missing {key!r}")
    value = obj.get(key, default)
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise InputError(f"{key} must be {_KIND_NAMES[kind]}, not {json.dumps(value)}")
    return value


# ---------------------------------------------------------------- estimate

# key -> (kind, default). A flag of the same name, when given, beats the key
# of a --config file, which beats the default.
ESTIMATE_SETTINGS = {
    "method": (str, "mlls_em"),
    "seed": (int, 0),
    "val_fraction": (float, 0.5),
    "rlls_lambda": (float, 1e-3),
    "clip_negative": (bool, False),
    "calibration_loss": (str, "nll"),
    "max_iters": (int, MAX_ITERS),
}


def _estimate_settings(args) -> argparse.Namespace:
    """Every `estimate` setting, checked before a prediction file is read."""
    overrides = {}
    if args.config is not None:
        overrides = _read_json(args.config)
        if not isinstance(overrides, dict):
            raise InputError("config overrides must be a JSON object")
        unknown = set(overrides) - set(ESTIMATE_SETTINGS)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
    s = argparse.Namespace()
    for key, (kind, default) in ESTIMATE_SETTINGS.items():
        flag = getattr(args, key, None)
        given = overrides if flag is None else {key: flag}
        setattr(s, key, _config_value(given, key, kind, default))
    if s.method not in METHODS:
        raise InputError(f"unknown method {s.method!r}")
    if s.seed < 0:
        raise InputError(f"seed must be nonnegative, got {s.seed}")
    if not 0 < s.val_fraction < 1:
        raise InputError(f"val_fraction must lie in (0, 1), got {s.val_fraction}")
    if not s.rlls_lambda >= 0:
        raise InputError(f"rlls_lambda must be nonnegative, got {s.rlls_lambda}")
    if s.max_iters < 1:
        raise InputError(f"max_iters must be >= 1, got {s.max_iters}")
    return s


def _split_source(outputs, labels, val_fraction: float, seed: int):
    n = outputs.shape[0]
    perm = rng_for(seed, 0).permutation(n)
    n_val = int(round(n * val_fraction))
    val, est = perm[:n_val], perm[n_val:]
    for half, rows in (("validation", val), ("estimation", est)):
        if rows.size == 0:
            raise InputError(f"val_fraction {val_fraction} leaves no {half} rows of the {n} source rows")
    return (outputs[val], labels[val]), (outputs[est], labels[est])


def _run_estimator(
    method, max_iters, rlls_lambda, source_samples, table, source_marginal, clip_negative=False
):
    """Run one method; a result that did not converge raises ConvergenceError."""
    if method in ("bbse_hard", "bbse_soft", "rlls"):
        conf, mu = bbse_inputs(source_samples, table, "soft" if method == "bbse_soft" else "hard")
        if method == "rlls":
            result = rlls(conf, mu, rlls_lambda, max_iters)
        else:
            result = bbse(conf, mu, clip_negative=clip_negative)
    elif method in ("mlls_em", "mlls_grad"):
        solver = mlls_em if method == "mlls_em" else mlls_grad
        result = solver(table, source_marginal, max_iters)
    else:  # mlls_cm
        result = mlls_cm(source_samples, table, source_marginal, max_iters)
    return require_converged(method, result, max_iters)


def _read_inputs(args):
    """(source outputs, source labels or None, target outputs) of --source
    and --target, which must have the same class count."""
    src_outputs, src_labels, _ = read_prediction_file(args.source)
    tgt_outputs, _, _ = read_prediction_file(args.target)
    if tgt_outputs.shape[1] != src_outputs.shape[1]:
        raise InputError("source and target class counts differ")
    return src_outputs, src_labels, tgt_outputs


def cmd_estimate(args) -> int:
    s = _estimate_settings(args)

    src_outputs, src_labels, tgt_outputs = _read_inputs(args)
    if src_labels is None:
        raise InputError("source file must carry a label column")

    calibration = None
    if args.no_calibration:
        est_out, est_lab = src_outputs, src_labels
    else:
        (val_out, val_lab), (est_out, est_lab) = _split_source(
            src_outputs, src_labels, s.val_fraction, s.seed
        )
        fit = bcts_fit(samples_from_outputs(val_out, val_lab), loss=s.calibration_loss)
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
    table = target_table_from_outputs(tgt_outputs)

    result = _run_estimator(
        s.method, s.max_iters, s.rlls_lambda, source_samples, table, source_marginal, s.clip_negative
    )

    identifiable, min_eig = check_identifiability(source_samples.outputs)
    nonneg = bool(np.all(result.weights.weights >= 0))
    report = {
        "method": s.method,
        "weights": list(result.weights.weights),
        "source_marginal": list(result.weights.source_marginal.entries),
        "target_marginal": list(weights_to_target_marginal(result.weights).entries) if nonneg else None,
        "iterations": result.iterations,
        "converged": result.converged,
        "final_objective": result.final_objective,
        "calibration": None if calibration is None else calibration.to_json(),
        "diagnostics": {
            "identifiable": identifiable,
            "second_moment_min_eig": min_eig,
            "tau": condition_tau(table, result.weights) if nonneg else None,
        },
    }
    print(json.dumps(report))
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
    print(json.dumps(report))
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
    src_outputs, src_labels, tgt_outputs = _read_inputs(args)
    k = src_outputs.shape[1]
    table = target_table_from_outputs(tgt_outputs)
    src_rows = normalized_rows(src_outputs, tol=1e-6)

    if src_labels is not None:
        counts = np.bincount(src_labels, minlength=k).astype(float)
        source_marginal = ProbVector.normalized(counts / counts.sum(), tol=1e-9)
    else:
        source_marginal = ProbVector(np.full(k, 1.0 / k))

    if args.weights:
        weights = _weights_from_json(_read_json(args.weights), source_marginal)
    else:
        labelled = args.method not in ("mlls_em", "mlls_grad")
        if labelled and src_labels is None:
            raise InputError(f"method {args.method} needs a source file with a label column")
        source_samples = LabeledPredictions(src_rows, src_labels) if labelled else None
        # diagnose has no lambda setting: rlls runs unregularized
        result = _run_estimator(args.method, MAX_ITERS, 0.0, source_samples, table, source_marginal)
        weights = result.weights

    report = diagnostics_report(table, weights, src_rows)
    g = report.gradient
    p = source_marginal.entries
    projected = g - (g @ p) / (p @ p) * p  # tangent component of the constraint
    out = report.to_json()
    out.update(
        {
            "weights": list(weights.weights),
            "hessian_nsd": report.sigma_min >= -1e-8,
            "projected_gradient_norm": float(np.linalg.norm(projected)),
            "kkt_residual": kkt_residual(g, p, weights.weights),
        }
    )
    print(json.dumps(out))
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
            print(json.dumps({"target_marginal": list(p_t.entries), "seed": args.seed}), file=fh)
    except OSError as exc:
        raise IOError(str(exc)) from exc
    return 0


# ---------------------------------------------------------------- benchmark

BENCHMARK_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _miscalibration(obj: dict, k: int) -> BctsParams:
    """The `miscalibration` object of a benchmark config: a temperature and
    one bias per class."""
    if set(obj) - {"temperature", "biases"}:
        raise InputError("miscalibration section accepts only temperature and biases")
    biases = _config_value(obj, "biases", [float])
    if len(biases) != k:
        raise InputError(f"miscalibration biases must hold {k} numbers, one per class, not {len(biases)}")
    return BctsParams(_config_value(obj, "temperature", float), np.asarray(biases))


def _parse_benchmark_config(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise InputError("benchmark config must be a JSON object")
    unknown = set(obj) - BENCHMARK_KEYS
    if unknown:
        raise InputError(f"unknown benchmark config keys: {sorted(unknown)}")
    gmm_obj = _config_value(obj, "gmm", dict)
    if set(gmm_obj) - {"mu", "source_marginal"}:
        raise InputError("gmm section accepts only mu and source_marginal")
    marg = _config_value(gmm_obj, "source_marginal", [float], [0.5, 0.5])
    gmm = GmmSpec(_config_value(gmm_obj, "mu", float), ProbVector.normalized(np.asarray(marg), tol=1e-6))
    shifts = []
    for s in _config_value(obj, "shifts", [dict]):
        if s.get("mode") == "dirichlet":
            shifts.append(ShiftSpec("dirichlet", alpha=_config_value(s, "alpha", float)))
        elif s.get("mode") == "explicit":
            p_t = np.asarray(_config_value(s, "target_marginal", [float]))
            shifts.append(ShiftSpec("explicit", target_marginal=ProbVector.normalized(p_t, tol=1e-6)))
        else:
            raise InputError(f"unknown shift spec: {s}")
    base_seed = _config_value(obj, "base_seed", int)
    if base_seed < 0 or base_seed > 2 ** 64 - 1:
        raise InputError("base_seed must be a 64-bit unsigned integer")
    return ExperimentConfig(
        gmm=gmm,
        shifts=tuple(shifts),
        methods=tuple(_config_value(obj, "methods", [str])),
        m_values=tuple(_config_value(obj, "m_values", [int])),
        n_trials=_config_value(obj, "n_trials", int),
        base_seed=base_seed,
        n_source=_config_value(obj, "n_source", int, ExperimentConfig.n_source),
        rlls_lambda=_config_value(obj, "rlls_lambda", float, ExperimentConfig.rlls_lambda),
        max_iters=_config_value(obj, "max_iters", int, ExperimentConfig.max_iters),
        bins=None if obj.get("bins") is None else _config_value(obj, "bins", int),
        miscalibration=None if obj.get("miscalibration") is None
        else _miscalibration(_config_value(obj, "miscalibration", dict), gmm.source_marginal.k),
    )


def cmd_benchmark(args) -> int:
    cfg = _parse_benchmark_config(_read_json(args.config))
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
    print(json.dumps({
        "output": args.output,
        "per_method_mean_mse": {m: float(np.mean(v)) for m, v in mses.items()},
        "rows": len(rows),
    }))
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
    # defaults live in ESTIMATE_SETTINGS, so that a flag left out defers to --config
    est.add_argument("--clip-negative", action="store_true", default=None)
    est.add_argument("--val-fraction", type=float)
    est.add_argument("--rlls-lambda", type=float)
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
    except (InputError, FileNotFoundError) as exc:
        return _fail(EXIT_INPUT, "input", str(exc))
    except (IOError, OSError) as exc:
        return _fail(EXIT_IO, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
