"""Command-line entry point.

Subcommands: simulate, estimate, calibrate, diagnose, benchmark.
Each returns its stdout document (or None) for `main` alone to print as
strict JSON; errors are JSON on stderr. Exit codes: 0 ok, 2 input (any input
file that cannot be opened, read or parsed), 3 identifiability, 4
convergence, 5 output.
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
from .predictors import GmmSpec, samples_from_outputs
from .simplex import LabeledPredictions, ProbVector, WeightVector, normalized_rows, weights_to_target_marginal
from .simulation import (
    ExperimentConfig,
    ShiftSpec,
    aggregate_to_csv,
    check_count,
    check_seed,
    draw_trial,
    rng_for,
    run_trials,
    target_table_from_outputs,
)

EXIT_INPUT, EXIT_IDENT, EXIT_CONV, EXIT_IO = 2, 3, 4, 5


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _read_json(path):
    """The JSON document of a file, read as UTF-8 with an optional byte-order
    mark; a file that cannot be read, or text that does not decode or parse,
    is an InputError naming the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(str(exc)) from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from None


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


def _check_keys(obj: dict, allowed, what: str) -> None:
    """An InputError naming the keys of a config object beyond `allowed`."""
    unknown = set(obj) - set(allowed)
    if unknown:
        raise InputError(f"unknown {what} keys: {sorted(unknown)}")


def _marginal(obj: dict, key: str, default=None) -> ProbVector:
    """obj[key] as a list of numbers renormalized to a probability vector."""
    return ProbVector.normalized(np.asarray(_config_value(obj, key, [float], default)), tol=1e-6)


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
        _check_keys(overrides, ESTIMATE_SETTINGS, "config")
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


def cmd_estimate(args) -> dict:
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
    return {
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


# ---------------------------------------------------------------- calibrate

def cmd_calibrate(args) -> dict:
    outputs, labels, _ = read_prediction_file(args.source)
    if labels is None:
        raise InputError("calibration file must carry a label column")
    fit = bcts_fit(samples_from_outputs(outputs, labels), loss=args.loss)
    report = fit.params.to_json()
    report.update(
        {"iterations": fit.iterations, "converged": fit.converged,
         "final_grad_norm": fit.final_grad_norm, "final_loss": fit.loss_trace[-1]}
    )
    return report


# ---------------------------------------------------------------- diagnose

def _weights_from_json(obj, source_marginal: ProbVector) -> WeightVector:
    """A weight vector read from JSON, rescaled so that w . p_s = 1."""
    w = np.asarray(_config_value({"weights": obj}, "weights", [float]))
    if len(w) != source_marginal.k:
        raise InputError(f"weights file must hold a JSON list of {source_marginal.k} numbers")
    dot = float(w @ source_marginal.entries)
    if dot <= 0:
        raise InputError(f"weights give w . p_s = {dot}; it must be positive")
    return WeightVector(w / dot, source_marginal)


def cmd_diagnose(args) -> dict:
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

    return diagnostics_report(table, weights, src_rows).to_json()


# ---------------------------------------------------------------- simulate

def _list_flags(args, *keys) -> dict:
    """The comma-separated number lists of the given flags, keyed like a
    config object; a flag left out is absent."""
    given = {}
    for key in keys:
        text = getattr(args, key)
        if text is not None:
            try:
                given[key] = [float(v) for v in text.split(",")]
            except ValueError:
                raise InputError(f"{key} must be a comma-separated list of numbers, not {text!r}") from None
    return given


def cmd_simulate(args) -> None:
    """Write the data that `draw_trial` draws for the flags' scenario under
    the key (--seed), held to the benchmark config's rules."""
    flags = _list_flags(args, "source_marginal", "target_marginal")
    spec = GmmSpec(args.mu, _marginal(flags, "source_marginal", [0.5, 0.5]))
    if "target_marginal" in flags:
        shift = ShiftSpec("explicit", target_marginal=_marginal(flags, "target_marginal"))
    elif args.alpha is not None:
        shift = ShiftSpec("dirichlet", alpha=args.alpha)
    else:
        raise InputError("provide --alpha or --target-marginal")
    check_seed("seed", args.seed)
    check_count("n_source", args.n_source)
    check_count("m_target", args.m_target)

    p_t, src_outputs, src_y, tgt_outputs = draw_trial(spec, shift, args.n_source, args.m_target, args.seed)
    write_prediction_file(args.source_out, src_outputs, src_y)
    write_prediction_file(args.target_out, tgt_outputs)
    with open(args.marginal_out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"target_marginal": list(p_t.entries), "seed": args.seed}) + "\n")


# ---------------------------------------------------------------- benchmark

BENCHMARK_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _miscalibration(obj: dict, k: int) -> BctsParams:
    """The `miscalibration` object of a benchmark config: a temperature and
    one bias per class."""
    _check_keys(obj, {"temperature", "biases"}, "miscalibration")
    biases = _config_value(obj, "biases", [float])
    if len(biases) != k:
        raise InputError(f"miscalibration biases must hold {k} numbers, one per class, not {len(biases)}")
    return BctsParams(_config_value(obj, "temperature", float), np.asarray(biases))


def _shift(obj: dict) -> ShiftSpec:
    """One entry of a benchmark config's `shifts`: a mode and that mode's one
    parameter."""
    mode = _config_value(obj, "mode", str)
    if mode == "dirichlet":
        _check_keys(obj, {"mode", "alpha"}, "dirichlet shift")
        return ShiftSpec(mode, alpha=_config_value(obj, "alpha", float))
    if mode == "explicit":
        _check_keys(obj, {"mode", "target_marginal"}, "explicit shift")
        return ShiftSpec(mode, target_marginal=_marginal(obj, "target_marginal"))
    return ShiftSpec(mode)  # which rejects any other mode


def _parse_benchmark_config(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise InputError("benchmark config must be a JSON object")
    _check_keys(obj, BENCHMARK_KEYS, "benchmark config")
    gmm_obj = _config_value(obj, "gmm", dict)
    _check_keys(gmm_obj, {"mu", "source_marginal"}, "gmm")
    gmm = GmmSpec(_config_value(gmm_obj, "mu", float), _marginal(gmm_obj, "source_marginal", [0.5, 0.5]))
    return ExperimentConfig(
        gmm=gmm,
        shifts=tuple(_shift(s) for s in _config_value(obj, "shifts", [dict])),
        methods=tuple(_config_value(obj, "methods", [str])),
        m_values=tuple(_config_value(obj, "m_values", [int])),
        n_trials=_config_value(obj, "n_trials", int),
        base_seed=_config_value(obj, "base_seed", int),
        n_source=_config_value(obj, "n_source", int, ExperimentConfig.n_source),
        rlls_lambda=_config_value(obj, "rlls_lambda", float, ExperimentConfig.rlls_lambda),
        max_iters=_config_value(obj, "max_iters", int, ExperimentConfig.max_iters),
        bins=None if obj.get("bins") is None else _config_value(obj, "bins", int),
        miscalibration=None if obj.get("miscalibration") is None
        else _miscalibration(_config_value(obj, "miscalibration", dict), gmm.source_marginal.k),
    )


def cmd_benchmark(args) -> dict:
    cfg = _parse_benchmark_config(_read_json(args.config))
    _, rows = run_trials(cfg)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(aggregate_to_csv(rows))
    mses = {m: [r.mse for r in rows if r.method == m and r.n_failed < r.n_trials] for m in cfg.methods}
    failed = [m for m, v in mses.items() if not v]
    if failed:
        raise ConvergenceError(
            f"every trial failed for {', '.join(failed)}; the n_failed column of "
            f"{args.output} counts the failures per cell"
        )
    with np.errstate(over="ignore"):
        means = {m: float(np.mean(v)) for m, v in mses.items()}
    return {
        "output": args.output,
        # strict JSON has no Infinity: a mean past the float range is null
        "per_method_mean_mse": {m: x if math.isfinite(x) else None for m, x in means.items()},
        "rows": len(rows),
    }


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
        for key, value in vars(args).items():
            if isinstance(value, list):  # Python 3.11's argparse reads `--flag=--` as []
                raise InputError(f"--{key.replace('_', '-')} takes one value, not '--'")
        doc = args.func(args)
        if doc is not None:
            print(json.dumps(doc, allow_nan=False))
        return 0
    except IdentifiabilityError as exc:
        return _fail(EXIT_IDENT, "identifiability", str(exc))
    except ConvergenceError as exc:
        return _fail(EXIT_CONV, "convergence", str(exc))
    except InputError as exc:
        return _fail(EXIT_INPUT, "input", str(exc))
    except OSError as exc:  # every input is read under an InputError, so this is an output
        return _fail(EXIT_IO, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
