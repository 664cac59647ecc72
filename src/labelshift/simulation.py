"""Synthetic benchmark harness: Gaussian-mixture sampling, Dirichlet target
shift, trial execution, and MSE aggregation.

All randomness flows through a counter-based generator (Philox) keyed by a
base seed and trial indices, so every trial reproduces from its key alone.
"""
from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError, LabelShiftError
from .calibration import bcts_apply_matrix, BctsParams
from .confusion import bbse_inputs
from .diagnostics import check_identifiability
from .estimators import (
    MAX_ITERS,
    METHODS,
    RLLS_LAMBDA,
    bbse,
    check_count,
    mlls_cm,
    mlls_em,
    mlls_grad,
    require_converged,
    rlls,
)
from .predictors import GmmSpec, bin_aggregate, gmm_posterior, samples_from_outputs
from .simplex import SIMPLEX_TOL, PredictorTable, ProbVector, WeightVector, grouped_table, normalized_rows

MEMORY_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def rng_for(base_seed: int, *indices: int) -> np.random.Generator:
    """Counter-based generator for a (seed, index...) key."""
    ss = np.random.SeedSequence(base_seed, spawn_key=tuple(indices))
    return np.random.Generator(np.random.Philox(ss))


def check_seed(key: str, seed: int) -> None:
    """A simulation's seed is a 64-bit unsigned integer."""
    if not 0 <= seed < 2 ** 64:
        raise InputError(f"{key} must be a 64-bit unsigned integer")


def check_size(key: str, n: int) -> None:
    """A sample size or bin count is a count whose arrays, of one float per
    row or bin, fit in this machine's memory; numpy cannot allocate more."""
    check_count(key, n)
    if n * 8 > MEMORY_BYTES:
        raise InputError(f"{key} of {n} cannot be allocated: one float each needs over {MEMORY_BYTES} bytes")


@dataclass(frozen=True)
class ShiftSpec:
    """Target-marginal protocol: symmetric Dirichlet draw or an explicit prior."""

    mode: str  # "dirichlet" | "explicit"
    alpha: float | None = None
    target_marginal: ProbVector | None = None

    def __post_init__(self):
        if self.mode == "dirichlet":
            if self.alpha is None or not (math.isfinite(self.alpha) and self.alpha > 0):
                raise InputError("dirichlet shift requires a finite alpha > 0")
        elif self.mode == "explicit":
            if self.target_marginal is None:
                raise InputError("explicit shift requires a target marginal")
        else:
            raise InputError(f"unknown shift mode: {self.mode}")

    @property
    def param_label(self) -> str:
        if self.mode == "dirichlet":
            return f"alpha={self.alpha:g}"
        return "pt=" + ",".join(f"{v:g}" for v in self.target_marginal.entries)

    def draw(self, k: int, rng: np.random.Generator) -> ProbVector:
        if self.mode == "explicit":
            if self.target_marginal.k != k:
                raise InputError("explicit target marginal has the wrong length")
            return self.target_marginal
        draw = rng.dirichlet(np.full(k, self.alpha))
        if not draw.sum() > 0:  # numpy returns zeros once the sum of its gamma draws overflows
            raise InputError(
                f"dirichlet alpha={self.alpha:g} is too large to draw from: its gamma draws overflow"
            )
        return ProbVector.normalized(draw, tol=SIMPLEX_TOL)


@dataclass(frozen=True)
class TrialReport:
    method: str
    w_hat: WeightVector | None
    w_star: WeightVector
    squared_error: float
    seed: int
    m: int
    min_eig: float | None = None
    error_message: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    gmm: GmmSpec
    shifts: tuple  # of ShiftSpec
    methods: tuple  # of method names
    m_values: tuple  # of target sample sizes
    n_trials: int
    base_seed: int
    n_source: int = 1000
    rlls_lambda: float = RLLS_LAMBDA
    max_iters: int = MAX_ITERS
    bins: int | None = None
    miscalibration: BctsParams | None = None

    def __post_init__(self):
        if not self.methods or not set(self.methods) <= set(METHODS):
            raise InputError(f"methods must be a nonempty selection from {METHODS}, not {self.methods}")
        if not self.rlls_lambda >= 0:
            raise InputError("rlls_lambda must be nonnegative")
        for key in ("n_trials", "n_source", "max_iters", "bins"):
            if getattr(self, key) is not None:
                (check_size if key in ("n_source", "bins") else check_count)(key, getattr(self, key))
        check_seed("base_seed", self.base_seed)
        if not self.shifts:
            raise InputError("shifts must name at least one shift")
        if not self.m_values or min(self.m_values) < 1:
            raise InputError(f"m_values must be a nonempty list of sizes >= 1, not {list(self.m_values)}")
        check_size("m_values", max(self.m_values))
        for key, labels in (("methods", self.methods), ("m_values", self.m_values),
                            ("shifts", [s.param_label for s in self.shifts])):
            repeated = sorted({x for x in labels if labels.count(x) > 1})
            if repeated:
                raise InputError(f"{key} must not repeat an entry, but repeats {repeated}")


def sample_gmm(spec: GmmSpec, marginal: ProbVector, n: int, seed: int, *indices: int) -> tuple:
    """Draw (x, label) pairs from the generator of the (seed, indices...) key:
    labels by inverse-CDF of the marginal, x by inverse-CDF Gaussians at mean
    +mu (class 0) or -mu (class 1)."""
    from scipy.special import ndtri  # imported here so that estimate-time commands skip scipy

    if n < 0:
        raise InputError("n must be nonnegative")
    rng = rng_for(seed, *indices)
    u = rng.random(n)
    labels = (u >= marginal.entries[0]).astype(int)
    z = ndtri(rng.random(n))
    xs = z + np.where(labels == 0, spec.mu, -spec.mu)
    return xs, labels


def draw_trial(spec: GmmSpec, shift: ShiftSpec, n_source: int, m: int, seed: int, *key: int) -> tuple:
    """The data of the trial keyed (seed, key...): stream 0 draws the target
    marginal p_t, stream 1 the n_source labelled source rows and stream 2
    the m target rows. Returns (p_t, source outputs, source labels, target
    outputs), the outputs being the posterior of `spec`."""
    p_s = spec.source_marginal
    p_t = shift.draw(p_s.k, rng_for(seed, *key, 0))
    src_x, src_y = sample_gmm(spec, p_s, n_source, seed, *key, 1)
    tgt_x, _ = sample_gmm(spec, p_t, m, seed, *key, 2)
    return p_t, gmm_posterior(spec, src_x), src_y, gmm_posterior(spec, tgt_x)


def target_table_from_outputs(outputs: np.ndarray, counts=None) -> PredictorTable:
    """Group an (m, k) output matrix, whose row i stands for counts[i]
    examples (one each by default), into a count table over distinct rows,
    in order of first occurrence. The distinct lines of a file can still
    normalize to equal rows, which this merges."""
    rows = normalized_rows(outputs)
    return grouped_table(rows, np.ones(rows.shape[0]) if counts is None else counts)


def _estimate_once(method, cfg, source_samples, target_table, source_marginal):
    if method in ("bbse_hard", "bbse_soft", "rlls"):
        conf, mu = bbse_inputs(source_samples, target_table, "soft" if method == "bbse_soft" else "hard")
        if method == "rlls":
            return rlls(conf, mu, cfg.rlls_lambda, cfg.max_iters)
        return bbse(conf, mu, clip_negative=True)
    if method in ("mlls_em", "mlls_grad"):
        solver = mlls_em if method == "mlls_em" else mlls_grad
        return solver(target_table, source_marginal, cfg.max_iters)
    return mlls_cm(source_samples, target_table, source_marginal, cfg.max_iters)


def run_single_trial(cfg: ExperimentConfig, shift_idx: int, m_idx: int, trial: int):
    """Generate data for one (shift, m, trial) cell and run every method on it.

    Returns a list of TrialReport, one per method. A method that raises or
    returns a result that did not converge is recorded as a failed report with
    its reason rather than aborting the trial.
    """
    m = cfg.m_values[m_idx]
    seed_key = (shift_idx, m_idx, trial)
    p_s = cfg.gmm.source_marginal
    p_t, src_outputs, src_y, tgt_outputs = draw_trial(
        cfg.gmm, cfg.shifts[shift_idx], cfg.n_source, m, cfg.base_seed, *seed_key
    )
    if cfg.miscalibration is not None:
        src_outputs = bcts_apply_matrix(cfg.miscalibration, src_outputs)
        tgt_outputs = bcts_apply_matrix(cfg.miscalibration, tgt_outputs)

    min_eig = None
    if cfg.bins is not None:
        binned = bin_aggregate(samples_from_outputs(src_outputs, src_y), cfg.bins)
        src_outputs = binned.remap_matrix(src_outputs)
        tgt_outputs = binned.remap_matrix(tgt_outputs)
        _, min_eig = check_identifiability(binned.table)

    source_samples = samples_from_outputs(src_outputs, src_y)
    target_table = target_table_from_outputs(tgt_outputs)

    w_star_vec = p_t.entries / p_s.entries
    w_star = WeightVector(w_star_vec / (w_star_vec @ p_s.entries), p_s)

    seed64 = int(np.random.SeedSequence(cfg.base_seed, spawn_key=seed_key).generate_state(1)[0])
    reports = []
    for method in cfg.methods:
        try:
            res = require_converged(
                method, _estimate_once(method, cfg, source_samples, target_table, p_s), cfg.max_iters
            )
            with np.errstate(over="ignore"):  # a weight past 1e154 squares to inf
                sq = float(((res.weights.weights - w_star.weights) ** 2).sum())
            reports.append(
                TrialReport(method, res.weights, w_star, sq, seed64, m, min_eig)
            )
        except LabelShiftError as exc:
            reports.append(
                TrialReport(method, None, w_star, math.nan, seed64, m, min_eig, str(exc))
            )
    return reports


@dataclass(frozen=True)
class AggregateRow:
    shift_param: str
    method: str
    m: int
    n_trials: int
    mse: float
    stderr: float
    n_failed: int = 0
    mean_min_eig: float | None = None


def _aggregate_cell(methods, shift_param: str, m: int, reports: list) -> list:
    """One row per method over the reports of one (shift, m) cell."""
    rows = []
    for method in methods:
        reps = [r for r in reports if r.method == method]
        errs = np.array([r.squared_error for r in reps])
        ok = errs[~np.isnan(errs)]
        with np.errstate(over="ignore", invalid="ignore"):  # infinite errors give mse inf, stderr nan
            mse = float(ok.mean()) if ok.size else math.nan
            stderr = float(ok.std(ddof=1) / math.sqrt(ok.size)) if ok.size > 1 else math.nan
        eigs = [r.min_eig for r in reps if r.min_eig is not None]
        rows.append(
            AggregateRow(
                shift_param,
                method,
                m,
                len(reps),
                mse,
                stderr,
                int(np.isnan(errs).sum()),
                float(np.mean(eigs)) if eigs else None,
            )
        )
    return rows


def run_trials(cfg: ExperimentConfig):
    """Execute the full sweep; byte-identical results for identical configs.

    Walks (shift, m, trial) in key order and aggregates each (shift, m) cell
    once its trials are done. Returns (reports, aggregate rows).
    """
    reports, rows = [], []
    for si, shift in enumerate(cfg.shifts):
        for mi, m in enumerate(cfg.m_values):
            cell = [rep for t in range(cfg.n_trials) for rep in run_single_trial(cfg, si, mi, t)]
            reports.extend(cell)
            rows.extend(_aggregate_cell(cfg.methods, shift.param_label, m, cell))
    return reports, rows


def aggregate_to_csv(rows) -> str:
    """The sweep table, one line per row. Rows of a binned sweep carry
    `mean_min_eig`, which is then the last column. A field that holds a
    comma, such as an explicit shift's `pt=0.99,0.01`, is quoted."""
    eig = any(r.mean_min_eig is not None for r in rows)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["shift_param", "method", "m", "n_trials", "n_failed", "mse", "stderr"]
                    + (["mean_min_eig"] if eig else []))
    for r in rows:
        writer.writerow([r.shift_param, r.method, r.m, r.n_trials, r.n_failed,
                         f"{r.mse:.10g}", f"{r.stderr:.10g}"]
                        + ([f"{r.mean_min_eig:.10g}"] if eig else []))
    return out.getvalue()
