"""Post-hoc calibration: bias-corrected temperature scaling (BCTS),
confusion-row calibration, and canonical calibration-error estimation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .confusion import ConfusionMatrix, prediction_rows
from .simplex import (
    LabeledPredictions,
    PredictorTable,
    column_sums,
    group_rows,
    grouped_table,
    row_max,
    row_sums,
    scale_rows,
)

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
CLIP_EPS = 1e-12  # floor on an entry before its log
BCTS_TOL = 1e-8  # a BCTS fit stops once its gradient norm is below this
BCTS_MAX_ITERS = 10_000  # most Newton steps of a BCTS fit
LOSSES = ("nll", "mse")  # the losses a BCTS fit takes; the first is the default


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
    return p / row_sums(p)[..., None]


def _bcts_transform(logp: np.ndarray, inv_t: float, b: np.ndarray) -> np.ndarray:
    z = logp * inv_t + b
    with np.errstate(over="ignore"):  # past the float range z is -inf, whose exp is the right 0
        z -= row_max(z)[..., None]
    e = np.exp(z)
    return e / row_sums(e)[..., None]


def bcts_apply_matrix(params: BctsParams, outputs: np.ndarray) -> np.ndarray:
    """softmax(log(p)/T + b) of each row of an (n, k) matrix, clipping zeros first."""
    logp = np.log(clip_probs(outputs))
    return _bcts_transform(logp, 1.0 / params.temperature, params.biases)


def _bcts_loss_grad(logp, onehot, wts, inv_t, b, loss):
    """Loss, its (k+1,) gradient in (1/T, b) and the calibrated rows g, each
    row weighted by its share `wts` of the examples."""
    g = _bcts_transform(logp, inv_t, b)
    if loss == "nll":
        val = -(wts @ np.log(np.maximum(row_sums(g * onehot), 1e-300)))
        dz = scale_rows(g - onehot, wts)
    else:  # mse
        diff = g - onehot
        val = wts @ row_sums(diff ** 2)
        # dz through the softmax Jacobian diag(g) - g g^T
        dg = scale_rows(2.0 * diff, wts)
        dz = g * (dg - row_sums(dg * g)[:, None])
    grad = np.concatenate(([(dz * logp).sum()], column_sums(dz)))
    return val, grad, g


def _bcts_fisher(logp, g, wts):
    """Softmax Fisher matrix sum_i wts_i J_i^T (diag g_i - g_i g_i^T) J_i in
    (1/T, b), with J_i = [log p_i | I] and wts the rows' shares of the
    examples: the exact Hessian of the NLL. Softmax is shift-invariant, so
    the b-block has a null direction along 1; adding 1/k to every b-block
    entry removes it without moving a step orthogonal to 1."""
    k = g.shape[1]
    gl = g * logp
    m = row_sums(gl)  # g_i . log p_i
    mw = wts * m
    H = np.empty((k + 1, k + 1))
    H[0, 0] = wts @ row_sums(gl * logp) - mw @ m
    H[0, 1:] = H[1:, 0] = wts @ gl - mw @ g
    H[1:, 1:] = np.diag(wts @ g) - scale_rows(g, wts).T @ g + 1.0 / k
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


def bcts_fit(validation: LabeledPredictions, loss: str = LOSSES[0]) -> BctsFit:
    """Fit BCTS on (1/T, b) by damped Newton steps with backtracking line search.

    The direction solves H d = -grad with H the softmax Fisher matrix at the
    current point (`_bcts_fisher`): the exact NLL Hessian, and the
    natural-gradient preconditioner for the MSE loss. If the solve fails or
    its direction does not descend, the step is along -grad. Deterministic:
    initialized at the identity (T=1, b=0), Armijo backtracking from unit
    step, stopping once the gradient norm is below BCTS_TOL. `converged` is
    False when the line search can no longer lower the loss while the
    gradient norm is still at least 1e-6, and when the budget of
    BCTS_MAX_ITERS steps runs out with the gradient norm still at least
    BCTS_TOL. The losses are means over the examples, each row weighted by
    its count.
    """
    if loss not in LOSSES:
        raise InputError(f"unknown loss: {loss}")
    n, k = validation.outputs.shape
    if validation.counts.sum() < k + 1:
        raise InputError(f"need at least k+1={k + 1} validation samples")
    labels = validation.labels
    if np.unique(labels).size < 2:
        raise InputError("validation set is degenerate: only one class present")
    logp = np.log(clip_probs(validation.outputs))
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    wts = validation.weights()

    theta = np.concatenate(([1.0], np.zeros(k)))  # (1/T, b)
    val, grad, g = _bcts_loss_grad(logp, onehot, wts, theta[0], theta[1:], loss)
    trace = [val]
    it = 0
    for it in range(1, BCTS_MAX_ITERS + 1):
        gnorm = float(np.linalg.norm(grad))
        if gnorm < BCTS_TOL:
            converged = True
            break
        d = _descent_direction(_bcts_fisher(logp, g, wts), grad)
        slope = float(grad @ d)
        step = 1.0
        while True:
            nxt = theta + step * d
            if nxt[0] > 0:
                nval, ngrad, ng = _bcts_loss_grad(logp, onehot, wts, nxt[0], nxt[1:], loss)
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
    else:  # budget spent; the last step may still have brought the norm below BCTS_TOL
        gnorm = float(np.linalg.norm(grad))
        converged = gnorm < BCTS_TOL
    b = theta[1:]
    params = BctsParams(1.0 / theta[0], b - b.mean())  # softmax is shift-invariant in b
    return BctsFit(params, converged, it, gnorm, tuple(trace))


def confusion_row_calibrate(confusion: ConfusionMatrix) -> PredictorTable:
    """Map each hard prediction yhat=i to the row-normalized p_s(y|yhat=i).

    The resulting k-entry table is a calibrated predictor over the hard
    prediction, with mass p_s(yhat=i) per entry.
    """
    return grouped_table(prediction_rows(confusion), row_sums(confusion.joint))


def estimate_calibration_error(samples: LabeledPredictions) -> CalibrationReport:
    """Canonical calibration error E(f) = sqrt(E_s ||f - f_c||^2) with f_c the
    empirical label mean per exact-output group, over the examples the
    rows' counts stand for."""
    outputs, labels, counts = samples.outputs, samples.labels, samples.counts
    k = outputs.shape[1]
    first, group = group_rows(outputs)
    g = first.size
    sizes = np.bincount(group, counts, g)
    label_means = np.bincount(group * k + labels, counts, g * k).reshape(g, k) / sizes[:, None]
    masses = sizes / counts.sum()
    F = outputs[first]
    sq = float(masses @ row_sums((F - label_means) ** 2))
    return CalibrationReport(float(np.sqrt(sq)), F, label_means, masses)


def calibration_error_of_table(table: PredictorTable, posteriors) -> float:
    """E(f) when the per-group posteriors, an (s, k) array aligned with the
    table's support, are known exactly (population form)."""
    P = np.asarray(posteriors, dtype=float)
    if P.shape != table.support.shape:
        raise InputError("posteriors must align with the table support")
    sq = float(table.normalized_masses() @ row_sums((table.support - P) ** 2))
    return float(np.sqrt(sq))
