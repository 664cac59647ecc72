"""Shift estimators: confusion-matrix inversion (BBSE), regularized least
squares (RLLS-style), likelihood maximization (EM and projected gradient),
and the confusion-row-calibrated likelihood variant (MLLS-CM)."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, IdentifiabilityError, InputError
from .calibration import confusion_row_calibrate
from .confusion import ConfusionMatrix, build_hard_confusion
from .simplex import (
    LabeledPredictions,
    PredictorTable,
    ProbVector,
    WeightVector,
    grouped_table,
    normalized_rows,
    project_to_weight_simplex,
)

METHODS = ("bbse_hard", "bbse_soft", "rlls", "mlls_em", "mlls_grad", "mlls_cm")

COND_LIMIT = 1e12


@dataclass(frozen=True)
class EstimatorConfig:
    method: str = "mlls_em"
    max_iters: int = 10_000
    tol: float = 1e-8
    rlls_lambda: float = 0.0
    clip_negative: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.max_iters < 1 or self.tol <= 0 or self.rlls_lambda < 0:
            raise InputError("invalid estimator configuration")


@dataclass(frozen=True)
class EstimateResult:
    weights: WeightVector
    iterations: int
    final_objective: float
    converged: bool


def bbse(confusion: ConfusionMatrix, mu: ProbVector, clip_negative: bool = False) -> EstimateResult:
    """Solve C w = mu by LU with partial pivoting.

    Negative entries are clipped to zero and the result projected back onto the
    weight slice only when clip_negative is set; otherwise the raw solution is
    returned (it satisfies the affine constraint automatically but may leave
    the nonnegative orthant on noisy inputs).
    """
    C = confusion.joint
    if mu.k != confusion.k:
        raise InputError("target marginal length does not match confusion matrix")
    cond = np.linalg.cond(C)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IdentifiabilityError(
            f"confusion matrix is singular or near-singular (condition {cond:.3e}); "
            "the instance violates the linear-independence requirement"
        )
    w = np.linalg.solve(C, mu.entries)
    if clip_negative and np.any(w < 0):
        w = project_to_weight_simplex(np.maximum(w, 0.0), confusion.column_marginal).weights
        wv = WeightVector(w, confusion.column_marginal)
    else:
        wv = WeightVector(w, confusion.column_marginal, check_nonneg=False)
    residual = float(np.linalg.norm(C @ wv.weights - mu.entries))
    return EstimateResult(wv, 1, residual, True)


def _projected_descent(objective, gradient, source_marginal, config, w0=None):
    """Minimize a smooth convex objective over the weight slice by projected
    gradient with Armijo backtracking.

    The iterate sequence is asymptotically geometric, so the raw weight change
    understates the distance to the optimum on ill-conditioned problems. As in
    mlls_em, an Aitken extrapolation of the step sequence (projected back onto
    the slice, accepted only when the objective does not increase) both
    accelerates the tail and certifies convergence: the loop stops when a step
    moves less than tol and a further extrapolation attempt also moves less
    than tol.
    """
    p = source_marginal
    w = np.ones(p.k) if w0 is None else np.array(w0, dtype=float)
    val = objective(w)

    def aitken_jump(cur, cur_val, d, rho):
        cand = project_to_weight_simplex(cur + d * (rho / (1.0 - rho)), p).weights
        try:
            cand_val = objective(cand)
        except InputError:
            return cur, cur_val
        if cand_val <= cur_val:
            return cand, cand_val
        return cur, cur_val

    prev_delta = np.inf
    for it in range(1, config.max_iters + 1):
        g = gradient(w)
        step = 1.0
        while True:
            cand = project_to_weight_simplex(w - step * g, p).weights
            cval = objective(cand)
            if cval <= val + 1e-4 * float(g @ (cand - w)) or step < 1e-16:
                break
            step *= 0.5
        d = cand - w
        delta = float(np.abs(d).max())
        rho = delta / prev_delta if prev_delta > 0 else 1.0
        prev_delta = delta
        w, val = cand, cval
        if delta < config.tol:
            if not 0.0 < rho < 1.0:
                return w, it, val, True
            jumped, jval = aitken_jump(w, val, d, rho)
            moved = float(np.abs(jumped - w).max())
            w, val = jumped, jval
            if moved < config.tol:
                return w, it, val, True
            prev_delta = np.inf
        elif it % 10 == 0 and 0.0 < rho < 1.0:
            jumped, jval = aitken_jump(w, val, d, rho)
            if jumped is not w:
                prev_delta = np.inf
            w, val = jumped, jval
    return w, config.max_iters, val, False


def rlls(
    confusion: ConfusionMatrix,
    mu: ProbVector,
    lam: float,
    config: EstimatorConfig | None = None,
) -> EstimateResult:
    """Minimize ||C w - mu||^2 + lam * ||w - 1||^2 over the weight slice."""
    config = config or EstimatorConfig(method="rlls", rlls_lambda=lam)
    C = confusion.joint
    ones = np.ones(confusion.k)

    def obj(w):
        r = C @ w - mu.entries
        return float(r @ r + lam * ((w - ones) @ (w - ones)))

    def grad(w):
        return 2.0 * (C.T @ (C @ w - mu.entries)) + 2.0 * lam * (w - ones)

    w, it, val, ok = _projected_descent(obj, grad, confusion.column_marginal, config)
    if not ok:
        raise ConvergenceError(f"RLLS did not converge in {config.max_iters} iterations")
    return EstimateResult(WeightVector(w, confusion.column_marginal), it, val, ok)


def _check_inner(F, m, w):
    inner = F @ w
    bad = (inner <= 0) & (m > 0)
    if bad.any():
        raise InputError(
            f"support point {int(np.argmax(bad))} has non-positive likelihood f(x)^T w"
        )
    return inner


def _slice_newton_polish(F, masses, p, w, boundary_tol=1e-9, max_rounds=8):
    """Refine an MLLS iterate to the KKT point of the slice-constrained problem.

    First-order solvers (EM, projected gradient) converge linearly and can
    stall a few orders of magnitude above machine precision on weakly curved
    instances. Starting from their answer, solve the equality-constrained
    stationarity system g_free = lambda * p_free, p . w = 1 by Newton's method
    on the inactive coordinates, releasing active coordinates whose KKT
    multiplier turns out infeasible. The polished point is returned only if it
    does not decrease the likelihood by more than the rounding error of the
    sum that evaluates it; otherwise the input is kept.
    """

    def ll(cand):
        """Log-likelihood at cand and a bound on the rounding error of its sum."""
        inner = F @ cand
        if np.any((inner <= 0) & (masses > 0)):
            return -np.inf, 0.0
        terms = masses[masses > 0] * np.log(inner[masses > 0])
        rounding = 8.0 * np.finfo(float).eps * terms.size * float(np.abs(terms).sum())
        return float(terms.sum()), rounding

    w0 = np.asarray(w, dtype=float)
    w = w0.copy()
    active = w <= boundary_tol
    w[active] = 0.0
    for _ in range(max_rounds):
        free = ~active
        if not free.any():
            break
        lam = None
        for _ in range(50):
            inner = F @ w
            if np.any((inner <= 0) & (masses > 0)):
                return w0
            r = masses / inner
            g = F.T @ r
            H = -(F.T * (r / inner)) @ F
            pf = p[free]
            lam = float(g[free] @ pf) / float(pf @ pf)
            kkt = np.zeros(free.sum() + 1)
            kkt[:-1] = g[free] - lam * pf
            kkt[-1] = pf @ w[free] - 1.0
            if float(np.abs(kkt).max()) < 1e-13:
                break
            J = np.zeros((free.sum() + 1, free.sum() + 1))
            J[:-1, :-1] = H[np.ix_(free, free)]
            J[:-1, -1] = -pf
            J[-1, :-1] = pf
            try:
                delta = np.linalg.solve(J, -kkt)
            except np.linalg.LinAlgError:
                return w0
            dw = delta[:-1]
            wf = w[free]
            scale = 1.0
            shrink = dw < 0
            if shrink.any():  # stay strictly inside the face
                scale = min(1.0, 0.9 * float(np.min(-wf[shrink] / dw[shrink])))
            w[free] = wf + scale * dw
            if float(np.abs(scale * dw).max()) < 1e-15:
                break
        # release boundary coordinates whose multiplier condition fails
        if lam is None:
            break
        inner = F @ w
        if np.any((inner <= 0) & (masses > 0)):
            return w0
        g = F.T @ (masses / inner)
        violated = active & (g - lam * p > 1e-10)
        if not violated.any():
            break
        w[violated] = boundary_tol
        active = active & ~violated
    (ll_new, _), (ll_old, rounding) = ll(w), ll(w0)
    if np.any(w < 0) or ll_new < ll_old - rounding:
        return w0
    return w


def mlls_em(
    table: PredictorTable, source_marginal: ProbVector, config: EstimatorConfig | None = None
) -> EstimateResult:
    """EM fixed point for the likelihood max over the weight slice.

    Responsibilities r_i(y) proportional to f_y(x_i) w_y (the posterior under
    the re-weighted prior); the target prior estimate q_t is the mass-weighted
    mean responsibility, and w = q_t / p_s. The likelihood is non-decreasing
    across iterations, and a fixed point satisfies the slice-constrained
    stationarity condition sum_i m_i f(x_i) / (f(x_i) . w) = p_s.

    Plain EM contracts arbitrarily slowly when the maximizer has zero entries,
    so the loop periodically attempts an Aitken extrapolation of the step
    sequence, projected back onto the weight slice and accepted only when it
    does not decrease the likelihood. Convergence is declared when an EM step
    moves less than tol and a further extrapolation attempt also moves less
    than tol, which bounds the remaining geometric tail rather than just the
    last step.
    """
    config = config or EstimatorConfig(method="mlls_em")
    F, masses = table.support, table.normalized_masses()
    p = source_marginal.entries

    def safe_ll(cand):
        inner = F @ cand
        if np.any((inner <= 0) & (masses > 0)):
            return -np.inf
        return float(masses[masses > 0] @ np.log(inner[masses > 0]))

    def em_step(cur):
        resp = F * cur
        denom = resp.sum(axis=1)
        if np.any((denom <= 0) & (masses > 0)):
            raise InputError("EM hit a support point with zero likelihood under w")
        resp /= denom[:, None]
        return (masses @ resp) / p

    def aitken_jump(cur, d, rho):
        cand = project_to_weight_simplex(
            cur + d * (rho / (1.0 - rho)), source_marginal
        ).weights
        if np.any(cand < 0) or safe_ll(cand) < safe_ll(cur):
            return cur
        return cand

    w = np.ones_like(p)
    it = 0
    converged = False
    prev_step = np.inf
    for it in range(1, config.max_iters + 1):
        w_new = em_step(w)
        d = w_new - w
        step = float(np.abs(d).max())
        rho = step / prev_step if prev_step > 0 else 1.0
        prev_step = step
        if step < config.tol:
            if not 0.0 < rho < 1.0:
                w = w_new
                converged = True
                break
            jumped = aitken_jump(w_new, d, rho)
            moved = float(np.abs(jumped - w_new).max())
            w = jumped
            if moved < config.tol:
                converged = True
                break
            prev_step = np.inf
        elif it % 10 == 0 and 0.0 < rho < 1.0:
            jumped = aitken_jump(w_new, d, rho)
            if jumped is not w_new:
                prev_step = np.inf
            w = jumped
        else:
            w = w_new
    w = _slice_newton_polish(F, masses, p, w)
    inner = _check_inner(F, masses, w)
    ll = float(masses @ np.log(inner))
    wv = project_to_weight_simplex(w, source_marginal)  # exact constraint cleanup
    return EstimateResult(wv, it, ll, converged)


def mlls_grad(
    table: PredictorTable, source_marginal: ProbVector, config: EstimatorConfig | None = None
) -> EstimateResult:
    """Projected gradient ascent on the empirical log-likelihood."""
    config = config or EstimatorConfig(method="mlls_grad")
    F, masses = table.support, table.normalized_masses()

    def obj(w):  # negated, for the shared descent loop
        inner = _check_inner(F, masses, w)
        return -float(masses @ np.log(inner))

    def grad(w):
        inner = _check_inner(F, masses, w)
        return -(F.T @ (masses / inner))

    w, it, val, ok = _projected_descent(obj, grad, source_marginal, config)
    w = _slice_newton_polish(F, masses, source_marginal.entries, w)
    wv = project_to_weight_simplex(w, source_marginal)  # exact constraint cleanup
    return EstimateResult(wv, it, float(-obj(wv.weights)), ok)


def mlls_cm(
    source_samples: LabeledPredictions,
    target_outputs,
    source_marginal: ProbVector,
    config: EstimatorConfig | None = None,
) -> EstimateResult:
    """Likelihood estimation through the confusion-row-calibrated predictor.

    Each row of the (m, k) target outputs is replaced by the row p_s(y | yhat)
    of its hard prediction, and EM runs on the resulting table with at most k
    support points.
    """
    config = config or EstimatorConfig(method="mlls_cm")
    conf = build_hard_confusion(source_samples)
    confusion_row_calibrate(conf)  # validates that every hard prediction is reachable
    rows = conf.joint / conf.joint.sum(axis=1)[:, None]
    pred = np.asarray(target_outputs, dtype=float).argmax(axis=1)
    counts = np.bincount(pred, minlength=conf.k).astype(float)
    keep = counts > 0
    table = grouped_table(normalized_rows(rows[keep], tol=1e-9), counts[keep], "count")
    return mlls_em(table, source_marginal, config)


def distribution_match_lsq(
    joint: np.ndarray,
    target: np.ndarray,
    source_marginal: ProbVector,
    config: EstimatorConfig | None = None,
) -> EstimateResult:
    """Least-squares distribution matching: min ||J w - t||^2 over the slice.

    J is p_s(z, y) for a finite latent space Z (|Z| rows); with |Z| = k and an
    invertible J this reproduces the confusion-inversion solution. A
    rank-deficient J triggers a warning and the returned point is the
    projection of the minimum-norm least-squares solution refined by projected
    gradient.
    """
    config = config or EstimatorConfig(method="mlls_grad")
    J = np.asarray(joint, dtype=float)
    t = np.asarray(target, dtype=float)
    if J.ndim != 2 or J.shape[0] != t.size:
        raise InputError("joint and target shapes are inconsistent")
    if np.max(np.abs(J.sum(axis=0) - source_marginal.entries)) > 1e-6:
        raise InputError("joint column sums disagree with the source marginal")
    if np.linalg.matrix_rank(J, tol=1e-10) < J.shape[1]:
        warnings.warn("rank-deficient joint: weights are not identifiable", stacklevel=2)

    w0, *_ = np.linalg.lstsq(J, t, rcond=None)
    w0 = project_to_weight_simplex(w0, source_marginal).weights

    def obj(w):
        r = J @ w - t
        return float(r @ r)

    def grad(w):
        return 2.0 * (J.T @ (J @ w - t))

    w, it, val, ok = _projected_descent(obj, grad, source_marginal, config, w0=w0)
    return EstimateResult(WeightVector(w, source_marginal), it, val, ok)
