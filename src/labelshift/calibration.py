"""Post-hoc calibration: bias-corrected temperature scaling (BCTS),
confusion-row calibration, and canonical calibration-error estimation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .confusion import ConfusionMatrix
from .simplex import (
    LabeledPredictions,
    PredictorTable,
    group_rows,
    grouped_table,
    normalized_rows,
)

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
CLIP_EPS = 1e-12  # floor on an entry before its log


@dataclass(frozen=True)
class BctsParams:
    """Temperature T and per-class biases b of the map
    softmax(log(x)/T + b)."""

    temperature: float
    biases: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise InputError(f"temperature must be positive, got {self.temperature}")
        b = np.array(self.biases, dtype=float)
        if not np.all(np.isfinite(b)):
            raise InputError("biases must be finite")
        b.setflags(write=False)
        object.__setattr__(self, "biases", b)

    def to_json(self) -> dict:
        return {"temperature": self.temperature, "biases": list(self.biases)}


@dataclass(frozen=True)
class BctsFit:
    params: BctsParams
    converged: bool
    iterations: int
    final_grad_norm: float
    loss_trace: tuple


@dataclass(frozen=True)
class CalibrationReport:
    """Canonical calibration error and the per-group table behind it: the
    distinct outputs (g, k), the mean one-hot label of each group (g, k) and
    each group's share of the rows (g,)."""

    calibration_error: float
    outputs: np.ndarray
    label_means: np.ndarray
    masses: np.ndarray


def clip_probs(rows) -> np.ndarray:
    """Clip entries below CLIP_EPS to CLIP_EPS and renormalize each row (for
    log-domain transforms)."""
    p = np.maximum(np.asarray(rows, dtype=float), CLIP_EPS)
    return p / p.sum(axis=-1, keepdims=True)


def _bcts_transform(logp: np.ndarray, inv_t: float, b: np.ndarray) -> np.ndarray:
    z = logp * inv_t + b
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def bcts_apply_matrix(params: BctsParams, outputs: np.ndarray) -> np.ndarray:
    """softmax(log(p)/T + b) of each row of an (n, k) matrix, clipping zeros first."""
    logp = np.log(clip_probs(outputs))
    return _bcts_transform(logp, 1.0 / params.temperature, params.biases)


def _bcts_loss_grad(logp, onehot, inv_t, b, loss):
    """Loss, its (k+1,) gradient in (1/T, b) and the calibrated rows g."""
    g = _bcts_transform(logp, inv_t, b)
    n = logp.shape[0]
    if loss == "nll":
        val = -np.log(np.maximum((g * onehot).sum(axis=1), 1e-300)).mean()
        dz = (g - onehot) / n
    else:  # mse
        diff = g - onehot
        val = (diff ** 2).sum(axis=1).mean()
        # dz through the softmax Jacobian diag(g) - g g^T
        dg = 2.0 * diff / n
        dz = g * (dg - (dg * g).sum(axis=1, keepdims=True))
    grad = np.concatenate(([(dz * logp).sum()], dz.sum(axis=0)))
    return val, grad, g


def _bcts_fisher(logp, g):
    """Softmax Fisher matrix sum_i J_i^T (diag g_i - g_i g_i^T) J_i / n in
    (1/T, b), with J_i = [log p_i | I]: the exact Hessian of the NLL. Softmax
    is shift-invariant, so the b-block has a null direction along 1; adding
    1/k to every b-block entry removes it without moving a step orthogonal to 1."""
    n, k = g.shape
    gl = g * logp
    m = gl.sum(axis=1)  # g_i . log p_i
    H = np.empty((k + 1, k + 1))
    H[0, 0] = ((gl * logp).sum() - m @ m) / n
    H[0, 1:] = H[1:, 0] = (gl.sum(axis=0) - m @ g) / n
    H[1:, 1:] = (np.diag(g.sum(axis=0)) - g.T @ g) / n + 1.0 / k
    return H


def _descent_direction(H, grad):
    """Newton direction -H^{-1} grad, or -grad if the solve fails or does not descend."""
    try:
        d = -np.linalg.solve(H, grad)
    except np.linalg.LinAlgError:
        return -grad
    if not np.all(np.isfinite(d)) or grad @ d >= 0:
        return -grad
    return d


def bcts_fit(
    validation: LabeledPredictions, loss: str = "nll", tol: float = 1e-8, max_iters: int = 10_000
) -> BctsFit:
    """Fit BCTS on (1/T, b) by damped Newton steps with backtracking line search.

    The direction solves H d = -grad with H the softmax Fisher matrix at the
    current point (`_bcts_fisher`): the exact NLL Hessian, and the
    natural-gradient preconditioner for the MSE loss. If the solve fails or
    its direction does not descend, the step is along -grad. Deterministic:
    initialized at the identity (T=1, b=0), Armijo backtracking from unit
    step, stopping once the gradient norm is below tol. `converged` is False
    when the line search can no longer lower the loss while the gradient
    norm is still at least 1e-6, and when the iteration budget runs out
    with the gradient norm still at least tol.
    """
    if loss not in ("nll", "mse"):
        raise InputError(f"unknown loss: {loss}")
    n, k = validation.outputs.shape
    if n < k + 1:
        raise InputError(f"need at least k+1={k + 1} validation samples")
    labels = validation.labels
    if np.unique(labels).size < 2:
        raise InputError("validation set is degenerate: only one class present")
    logp = np.log(clip_probs(validation.outputs))
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0

    theta = np.concatenate(([1.0], np.zeros(k)))  # (1/T, b)
    val, grad, g = _bcts_loss_grad(logp, onehot, theta[0], theta[1:], loss)
    trace = [val]
    it = 0
    for it in range(1, max_iters + 1):
        gnorm = float(np.linalg.norm(grad))
        if gnorm < tol:
            converged = True
            break
        d = _descent_direction(_bcts_fisher(logp, g), grad)
        slope = float(grad @ d)
        step = 1.0
        while True:
            nxt = theta + step * d
            if nxt[0] > 0:
                nval, ngrad, ng = _bcts_loss_grad(logp, onehot, nxt[0], nxt[1:], loss)
                if nval <= val + ARMIJO_C * step * slope:
                    break
            step *= ARMIJO_SHRINK
            if step < 1e-18:
                break
        if step < 1e-18:  # loss flat to machine precision along d
            converged = gnorm < 1e-6
            break
        theta, val, grad, g = nxt, nval, ngrad, ng
        trace.append(val)
    else:  # budget spent; the last step may still have brought the norm below tol
        gnorm = float(np.linalg.norm(grad))
        converged = gnorm < tol
    b = theta[1:]
    params = BctsParams(1.0 / theta[0], b - b.mean())  # softmax is shift-invariant in b
    return BctsFit(params, converged, it, gnorm, tuple(trace))


def confusion_row_calibrate(confusion: ConfusionMatrix) -> PredictorTable:
    """Map each hard prediction yhat=i to the row-normalized p_s(y|yhat=i).

    The resulting k-entry table is a calibrated predictor over the hard
    prediction, with mass p_s(yhat=i) per entry.
    """
    joint = confusion.joint
    row_sums = joint.sum(axis=1)
    if np.any(row_sums <= 0):
        raise InputError(
            f"confusion row for prediction {int(np.argmax(row_sums <= 0))} has zero mass"
        )
    rows = joint / row_sums[:, None]
    return grouped_table(normalized_rows(rows, tol=1e-9), row_sums, "probability")


def estimate_calibration_error(samples: LabeledPredictions) -> CalibrationReport:
    """Canonical calibration error E(f) = sqrt(E_s ||f - f_c||^2) with f_c the
    empirical label mean per exact-output group."""
    outputs, labels = samples.outputs, samples.labels
    n, k = outputs.shape
    first, group = group_rows(outputs)
    g = first.size
    sizes = np.bincount(group, minlength=g).astype(float)
    label_means = np.bincount(group * k + labels, minlength=g * k).reshape(g, k) / sizes[:, None]
    masses = sizes / n
    F = outputs[first]
    sq = float(masses @ ((F - label_means) ** 2).sum(axis=1))
    return CalibrationReport(float(np.sqrt(sq)), F, label_means, masses)


def calibration_error_of_table(table: PredictorTable, posteriors) -> float:
    """E(f) when the per-group posteriors, an (s, k) array aligned with the
    table's support, are known exactly (population form)."""
    P = np.asarray(posteriors, dtype=float)
    if P.shape != table.support.shape:
        raise InputError("posteriors must align with the table support")
    sq = float(table.normalized_masses() @ ((table.support - P) ** 2).sum(axis=1))
    return float(np.sqrt(sq))
