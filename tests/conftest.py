"""Shared fixtures and instance generators for the test suite."""

import faulthandler
import os
from contextlib import contextmanager

import numpy as np
import pytest

from labelshift.confusion import ConfusionMatrix
from labelshift.estimators import rlls
from labelshift.simplex import (
    LabeledPredictions,
    ProbVector,
    WeightVector,
    grouped_table,
    normalized_rows,
    project_to_weight_simplex,
)

# Six-point, three-class worked instance: predictor outputs F and source
# posteriors Ps, true weights w* = [2.4, 0.3, 0.3]. Each row of Ps sums to 1
# and each column to 2, so p_s(x_i | y) = Ps[i][y] / 2 and, under the uniform
# source prior, p_s(x_i) = 1/6 and Ps[i] = p_s(y | x_i). Averaged over the six
# points F equals Ps (marginal calibration); row by row it does not (no
# canonical calibration).
F_ROWS = np.array(
    [
        [0.1, 0.2, 0.7],
        [0.1, 0.7, 0.2],
        [0.2, 0.1, 0.7],
        [0.2, 0.7, 0.1],
        [0.7, 0.1, 0.2],
        [0.7, 0.2, 0.1],
    ]
)
PS_ROWS = np.array(
    [
        [0.2, 0.1, 0.7],
        [0.0, 0.8, 0.2],
        [0.1, 0.2, 0.7],
        [0.3, 0.6, 0.1],
        [0.8, 0.0, 0.2],
        [0.6, 0.3, 0.1],
    ]
)
W_STAR_3 = np.array([2.4, 0.3, 0.3])
UNIFORM_3 = ProbVector(np.full(3, 1.0 / 3.0))

# Unique maximizer of the six-point instance's population likelihood, frozen
# from a 50-digit stationarity solve; test_diagnostics re-derives it.
W_MISCAL_OPT = np.array([2.4064411551209213, 0.2534617142311249, 0.3400971306479538])


# Three-class RLLS instance whose minimizer lies on a face of the weight
# slice. The joint confusion (7 I + J) / 30 has every column summing to 1/3;
# against the target prediction marginal [0.6, 0.4, 0] its unconstrained
# solution is [15, 9, -3] / 7. From w = 1 the first Newton step is blocked
# where w_2 reaches 0, at [1.8, 1.2, 0], and a second step on that face
# reaches the minimizer [27, 15, 0] / 14 (at lambda = 0). A budget of one
# step therefore runs out. Two-class RLLS is a quadratic on a segment, which
# one Newton step solves from any start, so no two-class instance can do this.
FACE_CONFUSION = ConfusionMatrix((7.0 * np.eye(3) + 1.0) / 30.0, UNIFORM_3)
FACE_MU = ProbVector(np.array([0.6, 0.4, 0.0]))
W_FACE = np.array([27.0, 15.0, 0.0]) / 14.0


def face_rlls(confusion, mu, lam, max_iters):
    """`rlls` solving the face instance in place of the problem it is given,
    under the caller's lambda and budget."""
    return rlls(FACE_CONFUSION, FACE_MU, lam, max_iters)


def worked_instance_target_table(w_star=W_STAR_3):
    """Population target table p_t(x_i) = Ps @ p_t(y) / 2 on the F rows."""
    pt_y = W_STAR_3 * UNIFORM_3.entries if w_star is W_STAR_3 else np.asarray(w_star) / 3.0
    masses = PS_ROWS @ pt_y / 2.0
    return grouped_table(F_ROWS, masses)


def random_table(rng, n, k):
    """Random predictor table: Dirichlet outputs with Dirichlet masses."""
    outputs = normalized_rows([rng.dirichlet(np.ones(k)) for _ in range(n)], tol=1e-9)
    masses = rng.dirichlet(np.ones(n))
    return grouped_table(outputs, masses)


def random_marginal(rng, k, floor=0.05):
    """Random source marginal bounded away from the simplex boundary."""
    return ProbVector.normalized(rng.dirichlet(np.ones(k)) + floor, tol=1.0)


def random_weight(rng, marginal):
    """Random interior point of the weight slice for the given marginal."""
    v = rng.uniform(0.1, 3.0, size=marginal.k)
    w = project_to_weight_simplex(v, marginal)
    if np.any(w.weights <= 0):  # retry deterministic nudge toward uniform
        w = WeightVector(0.5 * w.weights + 0.5, marginal)
    return w


def make_samples(outputs, labels):
    return LabeledPredictions(np.asarray(outputs, dtype=float), np.asarray(labels, dtype=int))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# A copy of the terminal's stderr, taken before output capturing replaces it,
# so that a stack dump from `time_bound` reaches the terminal.
_TERMINAL_STDERR = None


def pytest_configure(config):
    global _TERMINAL_STDERR
    _TERMINAL_STDERR = os.dup(2)


def pytest_unconfigure(config):
    os.close(_TERMINAL_STDERR)


@contextmanager
def time_bound(seconds):
    """End the whole test process, dumping every thread's stack, if the body
    runs longer than `seconds`. A solver stuck in LAPACK cannot be stopped
    from Python; this way a hang fails the run instead of stalling it."""
    faulthandler.dump_traceback_later(seconds, exit=True, file=_TERMINAL_STDERR)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


# Verdict lines recorded by the acceptance suite; echoed after the run so the
# per-criterion pass/fail summary survives output capturing.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
