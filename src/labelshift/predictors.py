"""Concrete predictors: Gaussian-mixture posterior, threshold classifier,
and binned aggregation for two-class problems."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import InputError
from .simplex import LabeledPredictions, PredictorTable, ProbVector, grouped_table, normalized_rows


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
    pi0, pi1 = spec.source_marginal.entries
    x = np.asarray(x, dtype=float)
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


@dataclass(frozen=True)
class BinnedPredictor:
    """Result of bin_aggregate: the aggregated table plus the bin remapping."""

    table: PredictorTable
    n_bins: int
    bin_outputs: dict  # bin index -> np.ndarray output
    empty_bins: tuple

    def bin_indices(self, outputs: np.ndarray) -> np.ndarray:
        return np.minimum((outputs[:, 0] * self.n_bins).astype(int), self.n_bins - 1)

    def remap_matrix(self, outputs: np.ndarray) -> np.ndarray:
        """Replace each row of an (n, 2) output matrix by its bin's aggregated vector."""
        idx = self.bin_indices(outputs)
        hit_empty = [int(b) for b in np.unique(idx) if b not in self.bin_outputs]
        if hit_empty:
            raise InputError(f"outputs fall in zero-mass bins {hit_empty}")
        lookup = np.zeros((self.n_bins, outputs.shape[1]))
        for b, vec in self.bin_outputs.items():
            lookup[b] = vec
        return lookup[idx]


def bin_aggregate(samples: LabeledPredictions, n_bins: int) -> BinnedPredictor:
    """Aggregate two-class outputs over equal-width bins of the first coordinate.

    Each bin's vector is the mean one-hot label of the source rows landing in
    it, which makes the binned predictor calibrated on its building sample.
    Bins with zero source mass are excluded.
    """
    if n_bins < 1:
        raise InputError("n_bins must be >= 1")
    outputs, labels = samples.outputs, samples.labels
    n, k = outputs.shape
    if k != 2:
        raise InputError("equal-width binning is defined for 2-class outputs only")
    idx = np.minimum((outputs[:, 0] * n_bins).astype(int), n_bins - 1)

    counts = np.bincount(idx, minlength=n_bins).astype(float)
    sums1 = np.bincount(idx, weights=labels.astype(float), minlength=n_bins)
    with np.errstate(invalid="ignore"):
        frac1 = sums1 / counts
    vecs = np.stack([1.0 - frac1, frac1], axis=1)

    nonempty = np.flatnonzero(counts > 0)
    empty = tuple(int(b) for b in np.flatnonzero(counts == 0))
    table = grouped_table(
        normalized_rows(vecs[nonempty], tol=1e-9), counts[nonempty] / n, "probability"
    )
    return BinnedPredictor(table, n_bins, {int(b): vecs[b] for b in nonempty}, empty)


def samples_from_outputs(outputs, labels) -> LabeledPredictions:
    """Labelled predictions from parallel (n, k) outputs and (n,) labels.

    Rows whose sums are off from 1 by at most 1e-6 are renormalized; worse
    rows are rejected, naming the first.
    """
    return LabeledPredictions(normalized_rows(outputs, tol=1e-6), labels)
