"""Likelihood derivatives, identifiability checks, curvature quantities, and
finite-sample bound ingredients for the weight estimators."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError
from .simplex import LabeledPredictions, PredictorTable, ProbVector, WeightVector, scale_rows

IDENTIFIABILITY_EIG_FLOOR = 1e-10
SANDWICH_SLACK = 1e-8  # absolute slack on each side of the eigenvalue sandwich


@dataclass(frozen=True)
class BoundTerms:
    term1: float
    term2: float
    total: float


@dataclass(frozen=True)
class DiagnosticsReport:
    log_likelihood: float
    gradient: np.ndarray
    hessian: np.ndarray
    sigma_min: float          # min eigenvalue of the negated Hessian, unclamped
    tau: float                # min over target support of f(x)^T w
    second_moment_min_eig: float  # of the source's E_s[f f^T]
    identifiable: bool
    bound_terms: BoundTerms | None
    weights: np.ndarray
    hessian_nsd: bool         # sigma_min >= -1e-8
    projected_gradient_norm: float  # of the gradient's tangent component on w . p_s = 1
    kkt_residual: float

    def to_json(self) -> dict:
        return {
            **asdict(self),
            "gradient": self.gradient.tolist(),
            "hessian": self.hessian.tolist(),
            "sigma_min": max(self.sigma_min, 0.0),
            "weights": self.weights.tolist(),
        }


def _weights_array(w) -> np.ndarray:
    return w.weights if isinstance(w, WeightVector) else np.asarray(w, dtype=float)


def _inner(F, m, w):
    """f(x)^T w for every row, with 1 in place of a non-positive or NaN value
    on a row of zero mass; a row of positive mass must have a positive value."""
    inner = F @ w
    if not (inner > 0).all():
        bad = ~(inner > 0) & (m > 0)
        if bad.any():
            i = int(np.argmax(bad))
            raise InputError(f"likelihood f(x)^T w = {inner[i]} at support point {i}; it must be positive")
        inner = np.where(inner > 0, inner, 1.0)
    return inner


# The likelihood on raw arrays: rows F of the support, masses m summing to 1,
# and a weight array w. The table functions below and the estimators call these.

def ll_value(F, m, w) -> float:
    """Mass-weighted mean of log f(x)^T w."""
    return float(m @ np.log(_inner(F, m, w)))


def ll_gradient(F, m, w, inner=None) -> np.ndarray:
    """E_t[f(x) / f(x)^T w]; `inner`, when given, is _inner(F, m, w)."""
    return F.T @ (m / (_inner(F, m, w) if inner is None else inner))


def ll_hessian(F, m, w, inner=None, sqrt_m=None) -> np.ndarray:
    """-E_t[f(x) f(x)^T / (f(x)^T w)^2]; symmetric negative semidefinite.
    `inner` and `sqrt_m`, when given, are _inner(F, m, w) and np.sqrt(m)."""
    inner = _inner(F, m, w) if inner is None else inner
    scaled = scale_rows(F, (np.sqrt(m) if sqrt_m is None else sqrt_m) / inner)
    return -(scaled.T @ scaled)


def ll_derivatives(F, m):
    """grad(w) and hess(w) of the likelihood for a solver that takes the
    Hessian only at the point of its last gradient: hess reuses the f(x)^T w
    of that call, and the square roots of the masses taken once, instead of forming them again."""
    inner, sqrt_m = None, np.sqrt(m)

    def grad(w):
        nonlocal inner
        inner = _inner(F, m, w)
        return ll_gradient(F, m, w, inner)

    def hess(w):
        return ll_hessian(F, m, w, inner, sqrt_m)

    return grad, hess


def reduced_gradient(g, p, w) -> np.ndarray:
    """g - lam * p, with lam = g.w / p.w the multiplier of the slice
    constraint w . p = 1 at w."""
    return g - (g @ w) / (p @ w) * p


def kkt_violation(r, free) -> float:
    """The KKT residual from the reduced gradient r and the mask of the
    positive coordinates: |r| where free, the positive part of r elsewhere."""
    return float(np.where(free, np.abs(r), np.maximum(r, 0.0)).max())


def kkt_residual(g, p, w) -> float:
    """Largest violation of the KKT conditions for maximizing a concave f
    over the slice W = {w >= 0 : w . p = 1}, given the gradient g of f at w:
    the reduced gradient must be zero where w > 0 and nonpositive where w = 0.
    """
    return kkt_violation(reduced_gradient(g, p, w), w > 0)


def log_likelihood(table: PredictorTable, w) -> float:
    """Mass-weighted mean of log f(x)^T w over the target support.

    Accepts a WeightVector or a raw array (for finite-difference probes off
    the constraint slice)."""
    return ll_value(table.support, table.normalized_masses(), _weights_array(w))


def likelihood_gradient(table: PredictorTable, w) -> np.ndarray:
    """E_t[f(x) / f(x)^T w]."""
    return ll_gradient(table.support, table.normalized_masses(), _weights_array(w))


def likelihood_hessian(table: PredictorTable, w) -> np.ndarray:
    """-E_t[f(x) f(x)^T / (f(x)^T w)^2]; symmetric negative semidefinite."""
    return ll_hessian(table.support, table.normalized_masses(), _weights_array(w))


def second_moment(arg) -> np.ndarray:
    """Empirical E[f f^T] over a PredictorTable's masses, over the rows of
    LabeledPredictions weighted by their counts, or over the rows of an
    (n, k) output array taken with equal mass."""
    if isinstance(arg, PredictorTable):
        F, m = arg.support, arg.normalized_masses()
    elif isinstance(arg, LabeledPredictions):
        F, m = arg.outputs, arg.weights()
    else:
        F = np.asarray(arg, dtype=float)
        if F.ndim != 2 or F.shape[0] == 0:
            raise InputError("second moment needs at least one sample")
        m = np.full(F.shape[0], 1.0 / F.shape[0])
    scaled = scale_rows(F, np.sqrt(m))
    return scaled.T @ scaled


def check_identifiability(arg) -> tuple[bool, float]:
    """Invertibility of E_s[f f^T] via its minimum eigenvalue."""
    M = second_moment(arg)
    min_eig = float(np.linalg.eigvalsh(M)[0])
    return min_eig > IDENTIFIABILITY_EIG_FLOOR, min_eig


def condition_tau(table: PredictorTable, w) -> float:
    """Empirical surrogate for the likelihood lower bound: min over positive-
    mass support points of f(x)^T w."""
    F, m = table.support, table.normalized_masses()
    inner = F @ _weights_array(w)
    return float(inner[m > 0].min())


def compute_bound_terms(
    sigma_min_c: float,
    sigma_min_f: float,
    tau: float,
    calib_error: float,
    w_star_norm: float,
    m: int,
    n: int,
    delta: float,
) -> BoundTerms:
    """Finite-sample error bound pieces, with the hidden universal constant
    reported as 1. Zero curvature yields an explicitly infinite bound."""
    if m < 1 or n < 1 or not 0 < delta < 1:
        raise InputError("need m, n >= 1 and delta in (0, 1)")
    if min(sigma_min_c, sigma_min_f, tau) < 0 or calib_error < 0 or w_star_norm < 0:
        raise InputError("bound ingredients must be nonnegative")
    sqrt_m = math.sqrt(math.log(4.0 / delta) / m)
    term1 = sqrt_m / sigma_min_c if sigma_min_c > 0 else math.inf
    term2 = (
        (sqrt_m + calib_error * w_star_norm) / sigma_min_f if sigma_min_f > 0 else math.inf
    )
    return BoundTerms(term1, term2, term1 + term2)


def eigenvalue_sandwich_check(table: PredictorTable, w: WeightVector, p_s: ProbVector) -> bool:
    """Check p_min^2 * sigma_f <= sigma_{f,w} <= sigma_f / tau^2, where sigma_f
    is the minimum eigenvalue of E_t[f f^T] and sigma_{f,w} of the negated
    likelihood Hessian."""
    sigma_f = float(np.linalg.eigvalsh(second_moment(table))[0])
    sigma_fw = float(np.linalg.eigvalsh(-likelihood_hessian(table, w))[0])
    tau = condition_tau(table, w)
    if tau <= 0:
        raise InputError("sandwich check requires tau > 0 on the instance")
    p_min = float(p_s.entries.min())
    return (p_min ** 2) * sigma_f <= sigma_fw + SANDWICH_SLACK and sigma_fw <= sigma_f / tau ** 2 + SANDWICH_SLACK


def gaussian_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def example1_closed_form(alpha: float, c: float, mu: float) -> tuple[float, float]:
    """Population likelihood-maximization error for the threshold classifier on
    the two-Gaussian mixture.

    Returns (w0, error) where w0 is the first weight coordinate of the
    population optimum (clipped to the feasible [0, 2]) and error is the
    L1 estimation error 2|w0 - 2 alpha|. The interior stationary point is
    cross-checked against the equivalent product form before clipping.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InputError("alpha must lie in [0, 1]")
    if abs(c - 0.5) < 1e-12:
        raise InputError("c = 0.5 is a degenerate classifier: weights unidentifiable")
    phi = gaussian_cdf(mu)  # p_s(x >= 0 | y = 0)
    pt_le0 = alpha * (1.0 - phi) + (1.0 - alpha) * phi
    w0_raw = (2.0 * pt_le0 - 2.0 * c) / (1.0 - 2.0 * c)
    err_raw = 2.0 * abs(w0_raw - 2.0 * alpha)
    err_display = 4.0 * abs((1.0 - 2.0 * alpha) * (phi - c) / (1.0 - 2.0 * c))
    if abs(err_raw - err_display) > 1e-12:
        raise AssertionError(
            f"closed-form routes disagree: {err_raw} vs {err_display}"
        )
    w0 = min(max(w0_raw, 0.0), 2.0)  # feasibility of the constrained optimum
    return w0, 2.0 * abs(w0 - 2.0 * alpha)


def diagnostics_report(
    table: PredictorTable,
    w: WeightVector,
    source,
    bound_terms: BoundTerms | None = None,
) -> DiagnosticsReport:
    """Assemble the full report at a given weight vector: the likelihood
    terms over the target table, identifiability over the source outputs
    (anything check_identifiability takes).
    Derivatives that overflow at w are an InputError naming the smallest
    f(x)^T w."""
    p = w.source_marginal.entries
    tau = condition_tau(table, w)
    with np.errstate(over="ignore", invalid="ignore"):
        g = likelihood_gradient(table, w)
        H = likelihood_hessian(table, w)
        projected_norm = float(np.linalg.norm(g - (g @ p) / (p @ p) * p))
    if not (np.isfinite(H).all() and math.isfinite(projected_norm)):
        raise InputError(f"the likelihood's derivatives overflow at these weights: the smallest f(x)^T w is {tau}")
    sigma_min = float(np.linalg.eigvalsh(-H)[0])
    identifiable, min_eig = check_identifiability(source)
    return DiagnosticsReport(
        log_likelihood=log_likelihood(table, w),
        gradient=g,
        hessian=H,
        sigma_min=sigma_min,
        tau=tau,
        second_moment_min_eig=min_eig,
        identifiable=identifiable,
        bound_terms=bound_terms,
        weights=w.weights,
        hessian_nsd=sigma_min >= -1e-8,
        projected_gradient_norm=projected_norm,
        kkt_residual=kkt_residual(g, p, w.weights),
    )
