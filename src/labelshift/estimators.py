"""Shift estimators: confusion-matrix inversion (BBSE), regularized least
squares (RLLS-style), likelihood maximization (EM and projected gradient),
and the confusion-row-calibrated likelihood variant (MLLS-CM)."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import IdentifiabilityError, InputError
from .confusion import ConfusionMatrix, build_hard_confusion, prediction_rows
from .diagnostics import kkt_residual, ll_gradient, ll_hessian, ll_value, reduced_gradient
from .simplex import (
    LabeledPredictions,
    PredictorTable,
    ProbVector,
    WeightVector,
    column_sums,
    grouped_table,
    project_onto_slice,
    project_to_weight_simplex,
    row_argmax,
)

METHODS = ("bbse_hard", "bbse_soft", "rlls", "mlls_em", "mlls_grad", "mlls_cm")

COND_LIMIT = 1e12
KKT_TOL = 1e-10  # `converged` means the KKT residual at the result is at most this
FINISH_STEP = 1e-3  # a first-order step shorter than this starts another Newton finish
NEWTON_STEPS = 30  # most Newton steps in one attempt of the finish
STALL_STEPS = 5  # an attempt ends after this many steps without a new smallest residual


@dataclass(frozen=True)
class EstimatorConfig:
    """The solver budget of the iterative estimators."""

    max_iters: int = 10_000  # first-order and Newton steps together
    tol: float = 1e-8  # first-order stopping tolerance; see _solve_on_slice

    def __post_init__(self):
        if self.max_iters < 1 or self.tol <= 0:
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
        wv = project_to_weight_simplex(np.maximum(w, 0.0), confusion.column_marginal)
    else:
        wv = WeightVector(w, confusion.column_marginal, check_nonneg=False)
    residual = float(np.linalg.norm(C @ wv.weights - mu.entries))
    return EstimateResult(wv, 1, residual, True)


def _armijo_step(value, p):
    """First-order step for _solve_on_slice: projected gradient ascent on
    `value` with Armijo backtracking from a unit step. A candidate outside the
    domain of `value` fails the test like one that lowers it."""
    last = [None, 0.0]  # the point this step returned last, and its value

    def step(w, g):
        f0 = last[1] if last[0] is w else value(w)
        t = 1.0
        while True:
            cand = project_onto_slice(w + t * g, p)
            try:
                fc = value(cand)
            except InputError:
                fc = -np.inf
            if fc >= f0 + 1e-4 * float(g @ (cand - w)) or t < 1e-16:
                break
            t *= 0.5
        last[:] = cand, fc
        return cand

    return step


def _newton_finish(grad, hess, p, w, max_steps=NEWTON_STEPS):
    """Primal active-set Newton method for a concave maximization over the
    slice W = {w >= 0 : w . p = 1}, started at w.

    Coordinates at or below 1e-9 start fixed at 0. Each step solves the
    equality-constrained Newton system on the free (positive) coordinates. A
    step that would leave the orthant stops where the first coordinate reaches
    0 and fixes that coordinate there. Once the free coordinates are
    stationary, the fixed coordinate with the largest positive reduced gradient
    (a violated multiplier sign) is released.

    The point after each step is checked, so max_steps steps check
    max_steps + 1 points. Once some point has KKT residual at most KKT_TOL,
    the finish stops at the first point whose residual is at the rounding
    level of the gradient or not a tenth of the residual one step before.
    It also ends after max_steps steps, after STALL_STEPS steps without a
    new smallest residual, at a point outside the domain of `grad`, at a
    point with no positive coordinate, or where the point, the gradient or
    the Newton system is not finite. A singular Newton system is solved in
    the least-squares sense.

    Returns (w, steps): the point with the smallest residual if that residual
    is at most KKT_TOL and None otherwise, and the Newton steps taken.
    """
    w = np.where(w <= 1e-9, 0.0, w)
    w /= w @ p
    best, best_res, prev_res = None, np.inf, np.inf
    steps = stalled = 0
    with np.errstate(all="ignore"):  # a non-finite value ends the attempt
        while True:
            try:
                g = grad(w)
            except InputError:
                break
            if not (np.isfinite(w).all() and np.isfinite(g).all()):
                break
            res = kkt_residual(g, p, w)
            if res < best_res:
                best, best_res, stalled = w.copy(), res, 0
            else:
                stalled += 1
            # Rounding level: the reduced gradient g - (g.w / p.w) p is formed
            # from terms of size up to max|g|, and its inner products and
            # subtraction each err by a few eps * max|g| (a factor that grows
            # slowly with k and with the rows summed into g). A residual below
            # 64 eps max|g| cannot be told from 0; another step would only
            # move the last bits of w.
            rounding = 64.0 * np.finfo(float).eps * np.abs(g).max()
            if best_res <= KKT_TOL and (res <= rounding or not res < 0.1 * prev_res):
                break
            if steps == max_steps or stalled == STALL_STEPS:
                break
            prev_res = res
            r = reduced_gradient(g, p, w)
            free = w > 0
            if not free.any():
                break
            if np.abs(r[free]).max() <= KKT_TOL:
                fixed_r = np.where(free, -np.inf, r)
                if fixed_r.max() > KKT_TOL:
                    free[np.argmax(fixed_r)] = True
            f = np.flatnonzero(free)
            K = np.zeros((f.size + 1, f.size + 1))
            K[:-1, :-1] = hess(w)[np.ix_(f, f)]
            K[:-1, -1] = K[-1, :-1] = p[f]
            if not np.isfinite(K).all():  # an overflowed Hessian; LAPACK may not return on it
                break
            rhs = np.append(-g[f], 1.0 - p[f] @ w[f])
            try:
                dw = np.linalg.solve(K, rhs)[:-1]
            except np.linalg.LinAlgError:
                # A singular Hessian (two classes with equal columns in every
                # support row) leaves the maximizer a face, not a point: step
                # to its nearest point by the minimum-norm solution.
                dw = np.linalg.lstsq(K, rhs, rcond=None)[0][:-1]
            wf = w[f]
            blocked = np.flatnonzero(wf + dw < 0)
            if blocked.size:
                ratios = wf[blocked] / -dw[blocked]
                j = np.argmin(ratios)
                w[f] = np.maximum(wf + ratios[j] * dw, 0.0)
                w[f[blocked[j]]] = 0.0
            else:
                w[f] = np.maximum(wf + dw, 0.0)
            steps += 1
    return (best if best_res <= KKT_TOL else None), steps


def _solve_on_slice(step, grad, hess, p, w0, config):
    """Maximize a concave f over the slice W = {w >= 0 : w . p = 1} from w0.

    `grad` and `hess` give the gradient and Hessian of f; `step(w, g)` is one
    first-order step from w with gradient g, landing on the slice. The
    active-set Newton finish runs first, from w0. Only if it cannot certify
    do first-order steps run from w0; after a step smaller than
    max(tol, FINISH_STEP), and after every 10th step, the finish is tried
    again from the iterate. The solver returns as soon as the finish or the
    iterate has KKT residual at most KKT_TOL; that certificate is what
    `converged` reports. Without it, the loop stops once a first-order step
    moves less than tol or the budget is spent: max_iters bounds the steps of
    both kinds together.

    Returns (w, steps taken of both kinds, converged).
    """
    if np.any(p <= 0):
        raise InputError("the weight slice needs a strictly positive source marginal")
    budget, taken = config.max_iters, 0
    w, moved, first_order = w0, np.inf, 0
    while True:
        # first_order % 10 == 0 holds at the start, so the finish leads
        if taken < budget and (first_order % 10 == 0 or moved < max(config.tol, FINISH_STEP)):
            finished, newton = _newton_finish(grad, hess, p, w, min(NEWTON_STEPS, budget - taken))
            taken += newton
            if finished is not None:
                return finished, taken, True
        g = grad(w)
        if kkt_residual(g, p, w) <= KKT_TOL:
            return w, taken, True
        if taken >= budget or moved < config.tol:
            return w, taken, False
        w_next = step(w, g)
        taken += 1
        first_order += 1
        moved = float(np.abs(w_next - w).max())
        w = w_next


def _least_squares(A, b, lam, source_marginal, w0, config) -> EstimateResult:
    """Minimize ||A w - b||^2 + lam * ||w - 1||^2 over the weight slice by
    the Newton finish, with projected gradient as its fallback; the minimum
    is the objective."""
    p = source_marginal.entries
    ones = np.ones(p.size)
    with np.errstate(over="ignore"):  # a huge lam overflows H; the Newton finish then gives up
        H = -2.0 * (A.T @ A + lam * np.eye(p.size))

    def value(w):  # negated objective: the solver maximizes
        r, d = A @ w - b, w - ones
        return -float(r @ r + lam * (d @ d))

    def grad(w):
        return -2.0 * (A.T @ (A @ w - b) + lam * (w - ones))

    w, it, ok = _solve_on_slice(_armijo_step(value, p), grad, lambda w: H, p, w0, config)
    return EstimateResult(WeightVector(w, source_marginal), it, -value(w), ok)


def rlls(
    confusion: ConfusionMatrix,
    mu: ProbVector,
    lam: float,
    config: EstimatorConfig = EstimatorConfig(),
) -> EstimateResult:
    """Minimize ||C w - mu||^2 + lam * ||w - 1||^2 over the weight slice."""
    if not 0 <= lam < np.inf:
        raise InputError(f"rlls needs a finite lambda >= 0, got {lam}")
    return _least_squares(
        confusion.joint, mu.entries, lam, confusion.column_marginal, np.ones(confusion.k), config
    )


def _mlls(table, source_marginal, config, em: bool) -> EstimateResult:
    """Likelihood maximization over the weight slice by the Newton finish,
    with EM or projected gradient as its fallback."""
    F, m = table.support, table.normalized_masses()
    p = source_marginal.entries
    value = partial(ll_value, F, m)
    step = (lambda w, g: w * g / p) if em else _armijo_step(value, p)
    w, it, ok = _solve_on_slice(
        step, partial(ll_gradient, F, m), partial(ll_hessian, F, m), p, np.ones(p.size), config
    )
    return EstimateResult(WeightVector(w, source_marginal), it, value(w), ok)


def mlls_em(
    table: PredictorTable, source_marginal: ProbVector, config: EstimatorConfig = EstimatorConfig()
) -> EstimateResult:
    """EM fixed point for the likelihood max over the weight slice.

    Responsibilities r_i(y) proportional to f_y(x_i) w_y (the posterior under
    the re-weighted prior); the target prior estimate q_t is the mass-weighted
    mean responsibility, and w = q_t / p_s. With g the likelihood gradient,
    this map is w -> w * g / p_s. The likelihood is non-decreasing across
    iterations, and a fixed point with w > 0 satisfies the slice-constrained
    stationarity condition sum_i m_i f(x_i) / (f(x_i) . w) = p_s.

    Plain EM contracts arbitrarily slowly when the maximizer has zero entries;
    the Newton finish of the shared solver, which runs before any EM step and
    again from EM iterates, lands on that face and certifies the KKT point.
    """
    return _mlls(table, source_marginal, config, em=True)


def mlls_grad(
    table: PredictorTable, source_marginal: ProbVector, config: EstimatorConfig = EstimatorConfig()
) -> EstimateResult:
    """Likelihood max over the weight slice, with projected gradient ascent
    on the empirical log-likelihood as the fallback of the Newton finish."""
    return _mlls(table, source_marginal, config, em=False)


def mlls_cm(
    source_samples: LabeledPredictions,
    target_table: PredictorTable,
    source_marginal: ProbVector,
    config: EstimatorConfig = EstimatorConfig(),
) -> EstimateResult:
    """Likelihood estimation through the confusion-row-calibrated predictor.

    Each target row is replaced by the row p_s(y | yhat) of its hard
    prediction, and EM runs on the resulting table with at most k support
    points, each carrying the target mass of its prediction.
    """
    rows = prediction_rows(build_hard_confusion(source_samples))
    counts = np.bincount(row_argmax(target_table.support), target_table.masses, rows.shape[0])
    keep = counts > 0
    return mlls_em(grouped_table(rows[keep], counts[keep]), source_marginal, config)


def distribution_match_lsq(
    joint: np.ndarray,
    target: np.ndarray,
    source_marginal: ProbVector,
    config: EstimatorConfig = EstimatorConfig(),
) -> EstimateResult:
    """Least-squares distribution matching: min ||J w - t||^2 over the slice.

    J is p_s(z, y) for a finite latent space Z (|Z| rows); with |Z| = k and an
    invertible J this reproduces the confusion-inversion solution. A
    rank-deficient J triggers a warning. The solver starts from the projection
    of the minimum-norm least-squares solution.
    """
    J = np.asarray(joint, dtype=float)
    t = np.asarray(target, dtype=float)
    if J.ndim != 2 or J.shape[0] != t.size:
        raise InputError("joint and target shapes are inconsistent")
    if np.max(np.abs(column_sums(J) - source_marginal.entries)) > 1e-6:
        raise InputError("joint column sums disagree with the source marginal")
    if np.linalg.matrix_rank(J, tol=1e-10) < J.shape[1]:
        warnings.warn("rank-deficient joint: weights are not identifiable", stacklevel=2)

    w0 = project_to_weight_simplex(np.linalg.lstsq(J, t, rcond=None)[0], source_marginal)
    return _least_squares(J, t, 0.0, source_marginal, w0.weights, config)
