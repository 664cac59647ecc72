"""Shift estimators: confusion-matrix inversion (BBSE), regularized least
squares (RLLS-style), likelihood maximization (EM and projected gradient),
and the confusion-row-calibrated likelihood variant (MLLS-CM)."""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConvergenceError, IdentifiabilityError, InputError
from .confusion import ConfusionMatrix, build_hard_confusion, prediction_rows
from .diagnostics import kkt_residual, kkt_violation, ll_derivatives, ll_value, reduced_gradient
from .simplex import (
    LabeledPredictions,
    PredictorTable,
    ProbVector,
    WeightVector,
    grouped_table,
    project_onto_slice,
    project_to_weight_simplex,
    row_argmax,
)

METHODS = ("bbse_hard", "bbse_soft", "rlls", "mlls_em", "mlls_grad", "mlls_cm")

COND_LIMIT = 1e12
# `converged` means the KKT residual at the result is at most KKT_TOL, or at
# most the rounding level of the objective's terms where that is larger
KKT_TOL = 1e-10
# Rounding level per unit of term size: a reduced gradient g - (g.w / p.w) p
# is formed from terms of size up to the objective's term scale, and its
# inner products and subtraction each err by a few eps times that scale (a
# factor that grows slowly with k and with the rows summed into g). A
# residual below ROUNDING * scale cannot be told from 0; another step would
# only move the last bits of w.
ROUNDING = 64.0 * np.finfo(float).eps
FINISH_STEP = 1e-3  # a first-order step shorter than this starts another Newton finish
STEP_TOL = 1e-8  # an uncertified first-order run gives up after a step shorter than this
MAX_ITERS = 10_000  # default budget of an iterative solve: first-order and Newton steps together
RLLS_LAMBDA = 1e-3  # default ridge weight of rlls wherever a command runs it
NEWTON_STEPS = 30  # most Newton steps in one attempt of the finish
STALL_STEPS = 5  # an attempt ends after this many steps without a new smallest residual


@dataclass(frozen=True)
class EstimateResult:
    weights: WeightVector
    iterations: int
    final_objective: float
    converged: bool


def check_count(key: str, value: int) -> None:
    """A budget, sample size, trial count or bin count is at least 1."""
    if value < 1:
        raise InputError(f"{key} must be >= 1, not {value}")


def require_converged(method: str, result: EstimateResult, max_iters: int) -> EstimateResult:
    """The result of a method, or a ConvergenceError naming the steps it took."""
    if result.converged:
        return result
    raise ConvergenceError(f"{method} did not converge in {result.iterations} of at most {max_iters} steps")


def bbse(confusion: ConfusionMatrix, mu: ProbVector, clip_negative: bool = False) -> EstimateResult:
    """Solve C w = mu by LU with partial pivoting.

    Negative entries are clipped to zero and the result projected back onto the
    weight slice only when clip_negative is set; otherwise the raw solution is
    returned (it satisfies the affine constraint automatically but may leave
    the nonnegative orthant on noisy inputs).
    """
    C = confusion.joint
    if C.shape[0] != confusion.k:
        raise InputError(f"bbse needs a square joint, got shape {C.shape}")
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
    domain of `value` fails the test like one that lowers it. If no step
    length down to 2^-54 passes, the step stays at w."""
    last = [None, 0.0]  # the point this step returned last, and its value

    def step(w, g):
        f0 = last[1] if last[0] is w else value(w)
        for t in 0.5 ** np.arange(55):
            cand = project_onto_slice(w + t * g, p)
            try:
                fc = value(cand)
            except InputError:
                fc = -np.inf
            if fc >= f0 + 1e-4 * float(g @ (cand - w)):
                break
        else:
            cand, fc = w, f0
        last[:] = cand, fc
        return cand

    return step


def _likelihood_rounding(w, g):
    """Rounding level of the likelihood's gradient: it is a sum of positive
    terms, so max|g| bounds them."""
    return ROUNDING * np.abs(g).max()


def _certify_tol(rounding):
    """The residual that certifies a point whose objective's terms round at
    `rounding`: KKT_TOL, or `rounding` if larger and finite."""
    return max(KKT_TOL, rounding) if np.isfinite(rounding) else KKT_TOL


def _newton_finish(grad, hess, p, w, max_steps=NEWTON_STEPS, rounding=_likelihood_rounding):
    """Primal active-set Newton method for a concave maximization over the
    slice W = {w >= 0 : w . p = 1}, started at w.

    `grad(w)` gives the gradient at w. `hess(w)` gives the Hessian and is
    only called at the point of the last `grad` call, so it may reuse that
    call's work. `rounding(w, g)` is the rounding level of the gradient g
    at w: ROUNDING times the size of the terms summed into it.

    Coordinates at or below 1e-9 start fixed at 0. Each step solves the
    equality-constrained Newton system on the free (positive) coordinates. A
    step that would leave the orthant stops where the first coordinate reaches
    0 and fixes that coordinate there. Once the free coordinates are
    stationary, the fixed coordinate with the largest positive reduced gradient
    (a violated multiplier sign) is released.

    The point after each step is checked, so max_steps steps check
    max_steps + 1 points. A point is certified when its KKT residual is at
    most _certify_tol of its rounding level. Once the point with the smallest
    residual so far is certified, the finish stops at the first point whose
    residual is at the rounding level or not a tenth of the residual
    one step before. It also ends after max_steps steps, after STALL_STEPS
    steps without a new smallest residual, at a point outside the domain of
    `grad`, at a point with no positive coordinate, or where the point, the
    gradient or the Newton system is not finite. A singular Newton system is
    solved in the least-squares sense.

    Returns (w, steps): the point with the smallest residual if it is
    certified and None otherwise, and the Newton steps taken.
    """
    w = np.where(w <= 1e-9, 0.0, w)
    w /= w @ p
    best, best_res, best_tol, prev_res = None, np.inf, 0.0, np.inf
    steps = stalled = 0
    K, rhs = np.zeros((w.size + 1, w.size + 1)), np.empty(w.size + 1)  # bordered Newton system
    with np.errstate(all="ignore"):  # a non-finite value ends the attempt
        while True:
            try:
                g = grad(w)
            except InputError:
                break
            if not (np.isfinite(w).all() and np.isfinite(g).all()):
                break
            r, free = reduced_gradient(g, p, w), w > 0
            res, level = kkt_violation(r, free), rounding(w, g)
            if res < best_res:
                best, best_res, best_tol, stalled = w.copy(), res, _certify_tol(level), 0
            else:
                stalled += 1
            if best_res <= best_tol and (res <= level or not res < 0.1 * prev_res):
                break
            if steps == max_steps or stalled == STALL_STEPS:
                break
            prev_res = res
            if not free.any():
                break
            if np.abs(r[free]).max() <= KKT_TOL:
                fixed_r = np.where(free, -np.inf, r)
                if fixed_r.max() > KKT_TOL:
                    free[np.argmax(fixed_r)] = True
            f = free.nonzero()[0]
            n, H, pf, wf = f.size, hess(w), p[f], w[f]
            K[:n, :n] = H if n == w.size else H[f[:, None], f]
            K[:n, n] = K[n, :n] = pf
            K[n, n] = 0.0
            A = K[: n + 1, : n + 1]
            if not np.isfinite(A).all():  # an overflowed Hessian; LAPACK may not return on it
                break
            rhs[:n] = -g[f]
            rhs[n] = 1.0 - pf @ wf
            b = rhs[: n + 1]
            try:
                dw = np.linalg.solve(A, b)[:-1]
            except np.linalg.LinAlgError:
                # A singular Hessian (two classes with equal columns in every
                # support row) leaves the maximizer a face, not a point: step
                # to its nearest point by the minimum-norm solution.
                dw = np.linalg.lstsq(A, b, rcond=None)[0][:-1]
            blocked = (wf + dw < 0).nonzero()[0]
            if blocked.size:
                ratios = wf[blocked] / -dw[blocked]
                j = np.argmin(ratios)
                w[f] = np.maximum(wf + ratios[j] * dw, 0.0)
                w[f[blocked[j]]] = 0.0
            else:
                w[f] = np.maximum(wf + dw, 0.0)
            steps += 1
    return (best if best_res <= best_tol else None), steps


def _solve_on_slice(step, grad, hess, p, max_iters, rounding=_likelihood_rounding):
    """Maximize a concave f over the slice W = {w >= 0 : w . p = 1} from w = 1.

    `grad`, `hess` and `rounding` are as for _newton_finish; `step(w, g)` is one
    first-order step from w with gradient g, landing on the slice. The
    active-set Newton finish runs first, from w = 1. Only if it cannot certify
    do first-order steps run from w = 1; after a step smaller than FINISH_STEP,
    and after every 10th step, the finish is tried again from the iterate.
    The solver returns as soon as the finish or the iterate has a KKT residual
    that _certify_tol accepts; that certificate is what `converged` reports. Without
    it, the loop stops once a first-order step moves less than STEP_TOL or
    lands on a non-finite point, or once the budget is spent: max_iters
    bounds the steps of both kinds together.

    Returns (w, steps taken of both kinds, converged).
    """
    check_count("max_iters", max_iters)
    if np.any(p <= 0):
        raise InputError("the weight slice needs a strictly positive source marginal")
    taken = 0
    w, moved, first_order = np.ones(p.size), np.inf, 0
    while True:
        # first_order % 10 == 0 holds at the start, so the finish leads
        if taken < max_iters and (first_order % 10 == 0 or moved < FINISH_STEP):
            finished, newton = _newton_finish(grad, hess, p, w, min(NEWTON_STEPS, max_iters - taken), rounding)
            taken += newton
            if finished is not None:
                return finished, taken, True
        g = grad(w)
        if kkt_residual(g, p, w) <= _certify_tol(rounding(w, g)):
            return w, taken, True
        if taken >= max_iters or moved < STEP_TOL:
            return w, taken, False
        w_next = step(w, g)
        taken += 1
        first_order += 1
        if not np.isfinite(w_next).all():
            return w, taken, False
        moved = float(np.abs(w_next - w).max())
        w = w_next


def rlls(
    confusion: ConfusionMatrix,
    mu: ProbVector,
    lam: float,
    max_iters: int = MAX_ITERS,
) -> EstimateResult:
    """Minimize ||J w - mu||^2 + lam * ||w - 1||^2 over the weight slice,
    where J is the joint p_s(z, y) over any latent space Z (the confusion
    matrix when Z = yhat) and mu the target distribution over Z. The solve
    starts at w = 1, with the Newton finish first and projected gradient as
    its fallback; the minimum is the objective."""
    if not 0 <= lam < np.inf:
        raise InputError(f"rlls needs a finite lambda >= 0, got {lam}")
    A, b = confusion.joint, mu.entries
    if b.size != A.shape[0]:
        raise InputError(f"target distribution has {b.size} entries but the joint has {A.shape[0]} rows")
    source_marginal = confusion.column_marginal
    p = source_marginal.entries
    ones = np.ones(p.size)
    AtA, max_atb = A.T @ A, np.abs(A.T @ b).max()
    with np.errstate(over="ignore"):  # a huge lam overflows H; the Newton finish then gives up
        H = -2.0 * (AtA + lam * np.eye(p.size))

    def value(w):  # negated objective: the solver maximizes
        r, d = A @ w - b, w - ones
        return -float(r @ r + lam * (d @ d))

    def grad(w):
        return -2.0 * (A.T @ (A @ w - b) + lam * (w - ones))

    def rounding(w, g):  # 64 eps times the size of g's terms, 2 (max|AtA w| + max|Atb| + lam (max|w| + 1))
        with np.errstate(over="ignore"):  # 64 eps goes in before lam, so only a huge max|w| overflows
            terms, ridge = np.abs(AtA @ w).max() + max_atb, np.abs(w).max() + 1.0
            return 2.0 * ROUNDING * terms + 2.0 * ROUNDING * lam * ridge

    w, it, ok = _solve_on_slice(_armijo_step(value, p), grad, lambda w: H, p, max_iters, rounding)
    return EstimateResult(WeightVector(w, source_marginal), it, -value(w), ok)


def _mlls(table, source_marginal, max_iters, em: bool) -> EstimateResult:
    """Likelihood maximization over the weight slice from w = 1 by the
    Newton finish, with EM or projected gradient as its fallback."""
    F, m = table.support, table.normalized_masses()
    p = source_marginal.entries
    value = partial(ll_value, F, m)
    step = (lambda w, g: w * g / p) if em else _armijo_step(value, p)
    w, it, ok = _solve_on_slice(step, *ll_derivatives(F, m), p, max_iters)
    return EstimateResult(WeightVector(w, source_marginal), it, value(w), ok)


def mlls_em(
    table: PredictorTable, source_marginal: ProbVector, max_iters: int = MAX_ITERS
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
    return _mlls(table, source_marginal, max_iters, em=True)


def mlls_grad(
    table: PredictorTable, source_marginal: ProbVector, max_iters: int = MAX_ITERS
) -> EstimateResult:
    """Likelihood max over the weight slice, with projected gradient ascent
    on the empirical log-likelihood as the fallback of the Newton finish."""
    return _mlls(table, source_marginal, max_iters, em=False)


def mlls_cm(
    source_samples: LabeledPredictions,
    target_table: PredictorTable,
    source_marginal: ProbVector,
    max_iters: int = MAX_ITERS,
) -> EstimateResult:
    """Likelihood estimation through the confusion-row-calibrated predictor.

    Each target row is replaced by the row p_s(y | yhat) of its hard
    prediction, and EM runs on the resulting table with at most k support
    points, each carrying the target mass of its prediction.
    """
    rows = prediction_rows(build_hard_confusion(source_samples))
    counts = np.bincount(row_argmax(target_table.support), target_table.masses, rows.shape[0])
    keep = counts > 0
    return mlls_em(grouped_table(rows[keep], counts[keep]), source_marginal, max_iters)

