"""The solvers on valid inputs at the edge of floating point: output entries
of 10^-320 to 1 and exact zeros, and ridge weights up to 1e308. Each call
must return, or raise a ConvergenceError or an IdentifiabilityError, with no
numpy warning, inside CALL_SECONDS; past that, `time_bound` ends the test
process. An InputError would tell the user that a valid input is bad.
"""
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from labelshift.confusion import build_hard_confusion, build_target_prediction_marginal
from labelshift.diagnostics import kkt_residual, likelihood_gradient
from labelshift.errors import ConvergenceError, IdentifiabilityError
from labelshift.estimators import KKT_TOL, distribution_match_lsq, mlls_cm, mlls_em, mlls_grad, rlls
from labelshift.simplex import ProbVector, grouped_table, row_sums
from tests.conftest import make_samples, time_bound

CALL_SECONDS = 30

# Confident outputs: class 1 is tiny but nonzero in both rows. Newton steps
# reach weights that are 0 off class 0, where f . w of the second row is near
# 1e-258: the gradient is still finite, but the Hessian, which squares
# 1 / f . w, overflows. The finish used to step on to a NaN point and fail on
# an empty set of free coordinates (ValueError).
TINY_ROWS = np.array([[1, 1.9e-89, 2.6e-64, 3.8e-201], [1.6e-259, 6.2e-239, 0.5, 0.5]])

# A projected gradient step from w = 1 on this table tries about
# [2.5, 1.38, 0.47, 3.3e17]. Its projection used to find no positive
# coordinate after rounding (IndexError); with that mended, a step whose
# backtracking found no point in the likelihood's domain used to return one
# outside it (InputError). EM certifies [2.396, 1.198, 0, 0.00468].
DOMINANT_STEP = (
    grouped_table(np.array([[1, 0, 0, 0], [0, 0, 1e-20, 1], [0, 1, 0, 0]]), [4, 0.0078125, 1]),
    ProbVector(np.array([1 / 3, 1 / 6, 1 / 6, 1 / 3])),
)


def ends(solve, *args):
    """The result of one time-bounded call, or None if it raised a
    ConvergenceError or an IdentifiabilityError; any other exception fails
    the test."""
    with time_bound(CALL_SECONDS):
        try:
            return solve(*args)
        except (ConvergenceError, IdentifiabilityError):
            return None


# An entry is 0 or 10^-e for e in [0, 320] (10^-320 is subnormal). Each row
# has a 1 at a drawn place, so its sum lies in [1, k] and normalizing it
# loses no precision.
ENTRY = st.one_of(st.just(0.0), st.floats(0, 320).map(lambda e: 10.0 ** -e))


@st.composite
def extreme_rows(draw, n, k):
    rows = np.array(draw(st.lists(ENTRY, min_size=n * k, max_size=n * k))).reshape(n, k)
    rows[np.arange(n), draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))] = 1.0
    return rows / row_sums(rows)[:, None]


@st.composite
def extreme_table(draw, k):
    rows = draw(extreme_rows(draw(st.integers(1, 6)), k))
    masses = draw(st.lists(st.floats(1e-3, 1.0), min_size=rows.shape[0], max_size=rows.shape[0]))
    return grouped_table(rows, masses)


@st.composite
def marginal(draw, k):
    v = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    return ProbVector.normalized(v / v.sum())


@st.composite
def extreme_samples(draw, k):
    """Labelled source rows in which every class is a label and a hard
    prediction."""
    n = draw(st.integers(2, 4)) * k
    rows = draw(extreme_rows(n, k))
    rows[np.arange(n), np.arange(n) % k] = 2.0
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    labels[:k] = np.arange(k)
    return make_samples(rows / row_sums(rows)[:, None], labels)


@st.composite
def mlls_problem(draw):
    k = draw(st.integers(2, 4))
    return draw(extreme_table(k)), draw(marginal(k))


@st.composite
def confusion_problem(draw):
    k = draw(st.integers(2, 4))
    return draw(extreme_samples(k)), draw(extreme_table(k))


def check_mlls(table, p):
    for solver in (mlls_em, mlls_grad):
        res = ends(solver, table, p)
        if res is not None and res.converged:
            w = res.weights.weights
            assert kkt_residual(likelihood_gradient(table, w), p.entries, w) <= KKT_TOL


def test_mlls_overflowed_hessian():
    check_mlls(grouped_table(TINY_ROWS / row_sums(TINY_ROWS)[:, None], [0.9, 0.1]),
               ProbVector(np.array([0.1, 0.1, 0.1, 0.7])))


def test_rlls_overflowed_hessian():
    # -2 (C^T C + lam I) overflows to -inf; the Newton finish used to hand it
    # to least squares, which did not return
    samples = make_samples([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.2, 0.8], [0.6, 0.4]], [0, 0, 1, 1, 1])
    mu = ProbVector(np.array([0.3, 0.7]))
    res = ends(rlls, build_hard_confusion(samples), mu, 1e308)
    assert res is not None and not res.converged


@given(mlls_problem())
@example(DOMINANT_STEP)
@settings(max_examples=60, deadline=None)
def test_mlls_on_extreme_tables(problem):
    check_mlls(*problem)


@given(confusion_problem())
@settings(max_examples=30, deadline=None)
def test_mlls_cm_on_extreme_rows(problem):
    source, target = problem
    ends(mlls_cm, source, target, build_hard_confusion(source).column_marginal)


@given(confusion_problem(), st.one_of(st.sampled_from([0.0, 1e308]), st.floats(-3, 308).map(lambda e: 10.0 ** e)))
@settings(max_examples=30, deadline=None)
def test_rlls_on_extreme_rows_and_lambdas(problem, lam):
    source, target = problem
    mu = build_target_prediction_marginal(target, "hard")
    ends(rlls, build_hard_confusion(source), mu, lam)


@st.composite
def matching_problem(draw):
    """A joint p_s(z, y) over |Z| in [1, 6] latent values and k classes, a
    target distribution over Z, and the source marginal the joint's columns
    sum to."""
    k, nz = draw(st.integers(2, 4)), draw(st.integers(1, 6))
    p = draw(marginal(k))
    joint = draw(extreme_rows(k, nz)).T * p.entries
    return joint, draw(extreme_rows(1, nz))[0], p


@given(matching_problem())
@settings(max_examples=30, deadline=None)
def test_distribution_match_lsq_on_extreme_joints(problem):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "rank-deficient joint", UserWarning)
        ends(distribution_match_lsq, *problem)
