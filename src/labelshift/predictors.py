"""Concrete predictors: Gaussian-mixture posterior, threshold classifier,
and binned aggregation for two-class problems."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .simplex import SIMPLEX_TOL, LabeledPredictions, PredictorTable, ProbVector, grouped_table, normalized_rows


@dataclass(frozen=True)
class GmmSpec:
    """Two-Gaussian mixture: class 0 ~ N(mu, 1), class 1 ~ N(-mu, 1)."""

    mu: float
    source_marginal: ProbVector

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise InputError("mu must be finite")
        if self.source_marginal.k != 2:
            raise InputError("GmmSpec requires a 2-class source marginal")
        with np.errstate(divide="ignore", over="ignore"):
            reciprocals = 1.0 / self.source_marginal.entries
        if not np.all(np.isfinite(reciprocals)):
            raise InputError(
                "source_marginal must have entries with finite reciprocals, as w* = p_t / p_s needs, "
                f"not {self.source_marginal.entries.tolist()}"
            )


@dataclass(frozen=True)
class ThresholdPredictorSpec:
    """Probabilistic threshold classifier at x = 0 with confidence level c."""

    c: float

    def __post_init__(self):
        if not 0.0 <= self.c <= 1.0:
            raise InputError(f"threshold parameter c={self.c} outside [0, 1]")


def gmm_posterior(spec: GmmSpec, x) -> np.ndarray:
    """Vectorized Bayes posterior p_s(y|x) for the two-Gaussian mixture.

    Via the logistic of the log density ratio: log(pi0/pi1) + 2*mu*x.
    """
    from scipy.special import expit  # imported here so that estimate-time commands skip scipy

    pi0, pi1 = spec.source_marginal.entries
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # past |mu| ~ 1e154, 2 mu x is +-inf, whose expit is exact
        p0 = expit(np.log(pi0 / pi1) + 2.0 * spec.mu * x)
    return np.stack([p0, 1.0 - p0], axis=-1)


def threshold_outputs(spec: ThresholdPredictorSpec, xs) -> np.ndarray:
    """[c, 1-c] for x >= 0, else [1-c, c], over an array of inputs.

    With class 0 centered at +mu, the classifier is calibrated exactly when
    c equals the class-0 mass right of the threshold, p_s(x >= 0 | y = 0).
    """
    c = spec.c
    xs = np.asarray(xs, dtype=float)
    return np.where((xs >= 0)[:, None], np.array([c, 1.0 - c]), np.array([1.0 - c, c]))


def _bin_of(outputs: np.ndarray, n_bins: int) -> np.ndarray:
    """Index of the equal-width bin of each row's first coordinate; the right
    edge 1 belongs to the last bin."""
    return np.minimum((outputs[:, 0] * n_bins).astype(int), n_bins - 1)


@dataclass(frozen=True)
class BinnedPredictor:
    """Result of bin_aggregate: the aggregated table, and the (n_bins, 2)
    array of each bin's output vector, a NaN row for a bin with no source
    row."""

    table: PredictorTable
    bin_outputs: np.ndarray

    def bin_indices(self, outputs: np.ndarray) -> np.ndarray:
        return _bin_of(outputs, self.bin_outputs.shape[0])

    def remap_matrix(self, outputs: np.ndarray) -> np.ndarray:
        """Replace each row of an (n, 2) output matrix by its bin's aggregated vector."""
        idx = self.bin_indices(outputs)
        remapped = self.bin_outputs[idx]
        empty = np.isnan(remapped[:, 0])
        if empty.any():
            raise InputError(f"outputs fall in zero-mass bins {np.unique(idx[empty]).tolist()}")
        return remapped


def bin_aggregate(samples: LabeledPredictions, n_bins: int) -> BinnedPredictor:
    """Aggregate two-class outputs over equal-width bins of the first coordinate.

    Each bin's vector is the mean one-hot label of the source rows landing in
    it, which makes the binned predictor calibrated on its building sample.
    Bins with zero source mass are excluded from the table.
    """
    if n_bins < 1:
        raise InputError("n_bins must be >= 1")
    outputs, labels = samples.outputs, samples.labels
    if outputs.shape[1] != 2:
        raise InputError("equal-width binning is defined for 2-class outputs only")
    idx = _bin_of(outputs, n_bins)

    counts = np.bincount(idx, samples.counts, n_bins)
    sums1 = np.bincount(idx, labels * samples.counts, n_bins)
    with np.errstate(invalid="ignore"):
        frac1 = sums1 / counts
    vecs = np.stack([1.0 - frac1, frac1], axis=1)

    nonempty = counts > 0
    masses = counts[nonempty] / samples.counts.sum()
    table = grouped_table(normalized_rows(vecs[nonempty], tol=SIMPLEX_TOL), masses)
    return BinnedPredictor(table, vecs)


def samples_from_outputs(outputs, labels, counts=None) -> LabeledPredictions:
    """Labelled predictions from parallel (n, k) outputs, (n,) labels and
    (n,) counts of the examples each row stands for (one each by default).

    Rows whose sums are off from 1 by at most ROW_SUM_TOL are renormalized;
    worse rows are rejected, naming the first.
    """
    return LabeledPredictions(normalized_rows(outputs), labels, counts)
