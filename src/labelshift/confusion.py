"""Hard and soft confusion matrices p_s(yhat, y) and target prediction marginals."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .simplex import SIMPLEX_TOL, LabeledPredictions, PredictorTable, ProbVector, _freeze


@dataclass(frozen=True)
class ConfusionMatrix:
    """Joint distribution estimate joint[i][j] = p_s(yhat=i, y=j).

    Column sums are the source label marginal p_s(y), kept as metadata.
    """

    joint: np.ndarray
    column_marginal: ProbVector

    def __post_init__(self):
        j = _freeze(self.joint)
        k = self.column_marginal.k
        if j.shape != (k, k):
            raise InputError(f"confusion matrix shape {j.shape} does not match k={k}")
        if np.any(j < -SIMPLEX_TOL):
            raise InputError("confusion matrix has negative entries")
        if abs(j.sum() - 1.0) > SIMPLEX_TOL:
            raise InputError(f"confusion matrix total mass {j.sum()} != 1")
        if np.max(np.abs(j.sum(axis=0) - self.column_marginal.entries)) > SIMPLEX_TOL:
            raise InputError("confusion column sums disagree with column marginal")
        object.__setattr__(self, "joint", j)

    @property
    def k(self) -> int:
        return self.column_marginal.k


def build_hard_confusion(samples: LabeledPredictions) -> ConfusionMatrix:
    """Count-based joint with yhat = argmax output (ties to the lowest index)."""
    n, k = samples.outputs.shape
    pred = samples.outputs.argmax(axis=1)  # np.argmax breaks ties toward the lowest index
    joint = np.zeros((k, k))
    np.add.at(joint, (pred, samples.labels), 1.0)
    joint /= n
    return ConfusionMatrix(joint, ProbVector(joint.sum(axis=0)))


def build_soft_confusion(samples: LabeledPredictions) -> ConfusionMatrix:
    """Expectation form: joint[i][j] = mean over rows of output[i] * 1{label=j}.

    No random prediction is drawn; this is the variance-free estimator of the
    same joint, and equals the empirical second moment E_s[f f^T] re-indexed as
    p_s(yhat, y) when the predictor is calibrated on the sample.
    """
    outputs, labels = samples.outputs, samples.labels
    n, k = outputs.shape
    joint = np.zeros((k, k))
    for j in range(k):
        mask = labels == j
        if mask.any():
            joint[:, j] = outputs[mask].sum(axis=0)
    joint /= n
    return ConfusionMatrix(joint, ProbVector.normalized(joint.sum(axis=0), tol=1e-9))


def build_target_prediction_marginal(table: PredictorTable, kind: str) -> ProbVector:
    """mu-hat = p_t(yhat) from the target table: mass-weighted argmax
    frequencies (hard) or mean output (soft)."""
    support, masses = table.support, table.masses
    total = masses.sum()
    if kind == "hard":
        return ProbVector(np.bincount(support.argmax(axis=1), masses, support.shape[1]) / total)
    if kind == "soft":
        return ProbVector.normalized((support * masses[:, None]).sum(axis=0) / total, tol=1e-9)
    raise InputError(f"unknown marginal kind: {kind}")
