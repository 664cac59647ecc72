"""Hard and soft confusion matrices p_s(yhat, y), their rows p_s(y | yhat),
and target prediction marginals."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .simplex import (
    SIMPLEX_TOL,
    LabeledPredictions,
    PredictorTable,
    ProbVector,
    _freeze,
    column_sums,
    normalized_rows,
    row_argmax,
    row_sums,
    scale_rows,
)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Joint distribution estimate joint[z][y] = p_s(z, y) over a latent
    space Z of |Z| >= 1 values and the k classes: a (|Z|, k) array. The
    confusion matrix p_s(yhat=i, y=j) is the case Z = yhat, |Z| = k.

    Column sums are the source label marginal p_s(y), kept as metadata.
    """

    joint: np.ndarray
    column_marginal: ProbVector

    def __post_init__(self):
        j = _freeze(self.joint)
        k = self.column_marginal.k
        if j.ndim != 2 or j.shape[0] < 1 or j.shape[1] != k:
            raise InputError(f"confusion matrix shape {j.shape} is not (|Z|, k={k}) with |Z| >= 1")
        if not np.isfinite(j).all():
            raise InputError("confusion matrix has non-finite entries")
        if np.any(j < -SIMPLEX_TOL):
            raise InputError("confusion matrix has negative entries")
        if abs(j.sum() - 1.0) > SIMPLEX_TOL:
            raise InputError(f"confusion matrix total mass {j.sum()} != 1")
        if np.max(np.abs(column_sums(j) - self.column_marginal.entries)) > SIMPLEX_TOL:
            raise InputError("confusion column sums disagree with column marginal")
        object.__setattr__(self, "joint", j)

    @property
    def k(self) -> int:
        return self.column_marginal.k


def build_hard_confusion(samples: LabeledPredictions) -> ConfusionMatrix:
    """Count-based joint with yhat = argmax output (ties to the lowest index)."""
    counts = samples.counts
    k = samples.outputs.shape[1]
    cells = row_argmax(samples.outputs) * k + samples.labels
    joint = np.bincount(cells, counts, k * k).reshape(k, k) / counts.sum()
    return ConfusionMatrix(joint, ProbVector(column_sums(joint)))


def build_soft_confusion(samples: LabeledPredictions) -> ConfusionMatrix:
    """Expectation form: joint[i][j] = mean over examples of output[i] * 1{label=j}.

    No random prediction is drawn; this is the variance-free estimator of the
    same joint, and equals the empirical second moment E_s[f f^T] re-indexed as
    p_s(yhat, y) when the predictor is calibrated on the sample.
    """
    outputs, labels, counts = samples.outputs, samples.labels, samples.counts
    k = outputs.shape[1]
    scaled = scale_rows(outputs, counts)
    joint = np.zeros((k, k))
    for j in range(k):
        mask = labels == j
        if mask.any():
            joint[:, j] = column_sums(scaled[mask])
    joint /= counts.sum()
    return ConfusionMatrix(joint, ProbVector.normalized(column_sums(joint), tol=SIMPLEX_TOL))


def build_target_prediction_marginal(table: PredictorTable, kind: str) -> ProbVector:
    """mu-hat = p_t(yhat) from the target table: mass-weighted argmax
    frequencies (hard) or mean output (soft)."""
    support, masses = table.support, table.masses
    total = masses.sum()
    if kind == "hard":
        return ProbVector(np.bincount(row_argmax(support), masses, support.shape[1]) / total)
    if kind == "soft":
        return ProbVector.normalized(column_sums(support * masses[:, None]) / total, tol=SIMPLEX_TOL)
    raise InputError(f"unknown marginal kind: {kind}")


def bbse_inputs(
    source_samples: LabeledPredictions, table: PredictorTable, kind: str
) -> tuple[ConfusionMatrix, ProbVector]:
    """The pair (C, mu) that BBSE and RLLS fit C w = mu to: the source
    confusion matrix and the target prediction marginal, both from hard
    (argmax) or both from soft (expected) predictions."""
    build = build_hard_confusion if kind == "hard" else build_soft_confusion
    return build(source_samples), build_target_prediction_marginal(table, kind)


def prediction_rows(confusion: ConfusionMatrix) -> np.ndarray:
    """The (k, k) array whose row i is p_s(y | yhat=i). A prediction the
    source never makes has no such row and is an InputError."""
    pred_mass = row_sums(confusion.joint)
    if np.any(pred_mass <= 0):
        raise InputError(
            f"confusion row for prediction {int(np.argmax(pred_mass <= 0))} has zero mass"
        )
    return normalized_rows(confusion.joint / pred_mass[:, None], tol=SIMPLEX_TOL)
