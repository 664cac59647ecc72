from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from labelshift.confusion import (
    ConfusionMatrix,
    build_soft_confusion,
    build_target_prediction_marginal,
)
from labelshift.confusion import build_hard_confusion
from labelshift import estimators
from labelshift.diagnostics import (
    check_identifiability,
    kkt_residual,
    likelihood_gradient,
    likelihood_hessian,
    ll_gradient,
    ll_hessian,
    log_likelihood,
    second_moment,
)
from labelshift.errors import IdentifiabilityError, InputError
from labelshift.estimators import (
    KKT_TOL,
    NEWTON_STEPS,
    _newton_finish,
    bbse,
    distribution_match_lsq,
    mlls_cm,
    mlls_em,
    mlls_grad,
    rlls,
)
from labelshift.predictors import GmmSpec, gmm_posterior
from labelshift.simplex import PredictorTable, ProbVector, grouped_table, normalized_rows
from labelshift.simulation import rng_for, sample_gmm, target_table_from_outputs
from tests.conftest import (
    FACE_CONFUSION,
    FACE_MU,
    PS_ROWS,
    UNIFORM_3,
    W_FACE,
    W_MISCAL_OPT,
    W_STAR_3,
    make_samples,
    random_marginal,
    random_table,
    worked_instance_target_table,
)

UNIFORM_2 = ProbVector(np.array([0.5, 0.5]))
HAND_CONF = ConfusionMatrix(np.array([[0.4, 0.1], [0.1, 0.4]]), UNIFORM_2)
BUDGET = 100_000


class TestBbse:
    def test_exact_inversion(self):
        res = bbse(HAND_CONF, ProbVector(np.array([0.35, 0.65])))
        np.testing.assert_allclose(res.weights.weights, [0.5, 1.5], atol=1e-12)
        assert res.converged
        assert res.final_objective == pytest.approx(0.0, abs=1e-12)

    def test_negative_solution_passed_through(self):
        res = bbse(HAND_CONF, ProbVector(np.array([0.9, 0.1])))
        np.testing.assert_allclose(res.weights.weights, [7.0 / 3.0, -1.0 / 3.0], atol=1e-12)

    def test_clip_negative_projects_back(self):
        res = bbse(HAND_CONF, ProbVector(np.array([0.9, 0.1])), clip_negative=True)
        np.testing.assert_allclose(res.weights.weights, [2.0, 0.0], atol=1e-12)
        assert np.all(res.weights.weights >= 0)

    def test_singular_confusion_raises(self):
        conf = ConfusionMatrix(np.array([[0.25, 0.25], [0.25, 0.25]]), UNIFORM_2)
        with pytest.raises(IdentifiabilityError):
            bbse(conf, ProbVector(np.array([0.5, 0.5])))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            bbse(HAND_CONF, ProbVector(np.full(3, 1.0 / 3.0)))


class TestRlls:
    @pytest.mark.parametrize("lam", [-1e-3, float("nan")])
    def test_rejects_negative_lambda(self, lam):
        mu = ProbVector(np.array([0.35, 0.65]))
        with pytest.raises(InputError):
            rlls(HAND_CONF, mu, lam)

    def test_zero_lambda_matches_bbse(self):
        mu = ProbVector(np.array([0.35, 0.65]))
        res = rlls(HAND_CONF, mu, lam=0.0)
        np.testing.assert_allclose(res.weights.weights, [0.5, 1.5], atol=1e-8)

    def test_lambda_shrinks_toward_one(self):
        mu = ProbVector(np.array([0.35, 0.65]))
        w0 = rlls(HAND_CONF, mu, lam=0.0)
        w1 = rlls(HAND_CONF, mu, lam=1.0)
        ones = np.ones(2)
        assert np.linalg.norm(w1.weights.weights - ones) < np.linalg.norm(
            w0.weights.weights - ones
        )

    def test_matches_fine_grid_optimum(self):
        # k=2: the feasible slice is the segment w = [t, 2 - t], t in [0, 2].
        mu = ProbVector(np.array([0.35, 0.65]))
        lam = 0.7
        res = rlls(HAND_CONF, mu, lam=lam)

        def obj(t):
            w = np.array([t, 2.0 - t])
            r = HAND_CONF.joint @ w - mu.entries
            return r @ r + lam * ((w - 1.0) ** 2).sum()

        ts = np.linspace(0.0, 2.0, 200_001)
        best = ts[np.argmin([obj(t) for t in ts])]
        assert res.weights.weights[0] == pytest.approx(best, abs=1e-4)

    def test_budget_exhaustion_raises(self):
        # the budget runs out: rlls reports it in `converged`, as every method
        # does. max_iters counts Newton steps too, and the face instance needs
        # a blocked step and then a second step.
        res = rlls(FACE_CONFUSION, FACE_MU, 0.0, max_iters=1)
        assert not res.converged
        assert res.iterations == 1
        res = rlls(FACE_CONFUSION, FACE_MU, 0.0, max_iters=2)
        assert res.converged
        assert res.iterations == 2
        np.testing.assert_allclose(res.weights.weights, W_FACE, atol=1e-14)


def test_budget_below_one_rejected():
    mu = ProbVector(np.array([0.35, 0.65]))
    table = worked_instance_target_table()
    for solve in (
        partial(rlls, HAND_CONF, mu, 0.0),
        partial(mlls_em, table, UNIFORM_3),
        partial(mlls_grad, table, UNIFORM_3),
        partial(distribution_match_lsq, HAND_CONF.joint, mu.entries, UNIFORM_2),
    ):
        with pytest.raises(InputError, match="max_iters"):
            solve(max_iters=0)


class TestMllsEm:
    def test_two_point_closed_form(self):
        # Hand-solvable: stationarity sum_i m_i f_i / (f_i . w) = p_s gives
        # w = [5/3, 1/3] for masses (0.7, 0.3) on outputs (0.8,0.2), (0.2,0.8).
        table = grouped_table(
            [np.array([0.8, 0.2]), np.array([0.2, 0.8])], [0.7, 0.3]
        )
        res = mlls_em(table, UNIFORM_2, max_iters=BUDGET)
        np.testing.assert_allclose(res.weights.weights, [5.0 / 3.0, 1.0 / 3.0], atol=1e-9)
        assert res.converged

    def test_population_recovery_with_calibrated_predictor(self):
        # Outputs equal to the true source posteriors: the population optimum
        # is exactly w*.
        pt_y = W_STAR_3 / 3.0
        masses = PS_ROWS @ pt_y / 2.0
        table = grouped_table(PS_ROWS, masses)
        res = mlls_em(table, UNIFORM_3, max_iters=BUDGET)
        np.testing.assert_allclose(res.weights.weights, W_STAR_3, atol=1e-8)

    def test_worked_instance_converges_to_frozen_optimum(self):
        res = mlls_em(worked_instance_target_table(), UNIFORM_3, max_iters=BUDGET)
        np.testing.assert_allclose(res.weights.weights, W_MISCAL_OPT, atol=1e-9)

    def test_final_objective_is_log_likelihood(self):
        table = worked_instance_target_table()
        res = mlls_em(table, UNIFORM_3, max_iters=BUDGET)
        assert res.final_objective == pytest.approx(
            log_likelihood(table, res.weights), abs=1e-9
        )

    def test_count_masses_match_probability_masses(self):
        outs = [np.array([0.8, 0.2]), np.array([0.2, 0.8])]
        res_p = mlls_em(grouped_table(outs, [0.7, 0.3]), UNIFORM_2, max_iters=BUDGET)
        res_c = mlls_em(grouped_table(outs, [70.0, 30.0]), UNIFORM_2, max_iters=BUDGET)
        np.testing.assert_allclose(res_p.weights.weights, res_c.weights.weights, atol=1e-12)

    def test_all_zero_output_rejected(self):
        table = grouped_table([np.array([0.0, 1.0]), np.array([1.0, 0.0])], [1.0, 1.0])
        # zero entries are fine; an all-zero row cannot occur for ProbVector
        # inputs, so exercise the q-support failure path instead: a point with
        # f . q = 0 at initialization.
        res = mlls_em(table, UNIFORM_2, max_iters=BUDGET)
        assert res.converged

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_em_likelihood_is_monotone(self, seed):
        # One EM sweep never decreases the empirical log-likelihood.
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 8))
        table = random_table(rng, n, k)
        p = random_marginal(rng, k)
        F = table.support
        masses = table.normalized_masses()
        w = np.ones(k)
        prev = None
        for _ in range(25):
            ll = float(masses @ np.log(F @ w))
            if prev is not None:
                assert ll >= prev - 1e-10
            prev = ll
            resp = F * w
            resp /= resp.sum(axis=1)[:, None]
            w = (masses @ resp) / p.entries


def likelihood_kkt(table, p, w):
    return kkt_residual(likelihood_gradient(table, w), p, w)


class TestNewtonPolish:
    @pytest.mark.parametrize("seed", [10, 12, 19])
    def test_kkt_exact_on_ten_thousand_distinct_rows(self, seed):
        # On these instances the KKT point's log-likelihood, a sum of 10k
        # logs, reads a few ulps below that of nearby EM iterates; a finish
        # judged by that difference rather than by the KKT residual would
        # return an EM iterate with a residual of about 4e-9.
        spec = GmmSpec(1.0, UNIFORM_2)
        p_t = ProbVector.normalized(rng_for(seed, 0).dirichlet([1.0, 1.0]), tol=1e-9)
        xs, _ = sample_gmm(spec, p_t, 10_000, seed, 2)
        table = target_table_from_outputs(gmm_posterior(spec, xs))
        res = mlls_em(table, UNIFORM_2)
        assert likelihood_kkt(table, UNIFORM_2.entries, res.weights.weights) < 1e-12


class TestNewtonFinish:
    """The active-set moves of the Newton finish, on likelihoods whose
    maximizer is known in closed form."""

    @staticmethod
    def _problem(rows, masses):
        F = np.array(rows)
        m = np.array(masses) / np.sum(masses)
        return partial(ll_gradient, F, m), partial(ll_hessian, F, m)

    def test_blocked_step_fixes_the_coordinate(self):
        # max (1/3) log(f1.w) + (2/3) log(f2.w) with p uniform: on the face
        # w_1 = 0 the stationarity condition gives w = [1/3, 0, 8/3], where
        # the reduced gradient of w_1 is 2/7 - 1/3 < 0.
        grad, hess = self._problem([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]], [1.0, 2.0])
        p = UNIFORM_3.entries
        w, _ = _newton_finish(grad, hess, p, np.ones(3))
        np.testing.assert_allclose(w, [1.0 / 3.0, 0.0, 8.0 / 3.0], atol=1e-14)
        assert w[1] == 0.0
        assert _newton_finish(grad, hess, p, np.ones(3), max_steps=1) == (None, 1)

    def test_violated_multiplier_releases_the_coordinate(self):
        # the worked instance's maximizer is interior; started on the face
        # w_0 = 0, the finish must release w_0 to reach it
        table = worked_instance_target_table()
        grad, hess = self._problem(table.support, table.normalized_masses())
        w, _ = _newton_finish(grad, hess, UNIFORM_3.entries, np.array([0.0, 1.5, 1.5]))
        np.testing.assert_allclose(w, W_MISCAL_OPT, atol=1e-12)

    def test_failed_attempt_ends_early(self):
        # Columns 0 and 1 of the support are equal to 1e-9: the table is not
        # identifiable to working precision. From w = 1 the finish reaches
        # the face w_1 = 0, where the reduced gradient of w_1 is 5e-10. It
        # releases w_1, and the Newton step blocks w_1 at once, step after
        # step, at the same point. Without a new smallest residual the
        # attempt ends after STALL_STEPS such steps, not after 30.
        a, d = np.array([0.05, 0.1, 0.4]), 1e-9 * np.array([1.0, -1.0, 1.0])
        rows = np.column_stack([a, a + d, 1.0 - 2.0 * a - d])
        table = grouped_table(rows, np.ones(3))
        assert not check_identifiability(table)[0]
        p = ProbVector(np.array([0.25, 0.25, 0.5]))
        calls = []

        def hess(w):
            calls.append(1)
            return ll_hessian(rows, np.ones(3) / 3.0, w)

        grad = partial(ll_gradient, rows, np.ones(3) / 3.0)
        assert _newton_finish(grad, hess, p.entries, np.ones(3)) == (None, len(calls))
        assert len(calls) < NEWTON_STEPS / 2
        # the solver goes on to its documented result: a flag that reports
        # whether the returned point is certified, within the budget
        for solver in (mlls_em, mlls_grad):
            res = solver(table, p, max_iters=200)
            assert res.iterations <= 200
            residual = likelihood_kkt(table, p.entries, res.weights.weights)
            assert res.converged == (residual <= KKT_TOL)


def _declining_first(finish):
    """_newton_finish that declines its first attempt, the one at the start
    point, and runs every later attempt."""
    attempts = []

    def declining(grad, hess, p, w, max_steps=NEWTON_STEPS):
        attempts.append(max_steps)
        return (None, 0) if len(attempts) == 1 else finish(grad, hess, p, w, max_steps)

    return declining, attempts


class TestFirstOrderFallback:
    """The EM map and the Armijo steps run only when the Newton finish cannot
    certify at the start point. Made to run, each must certify the answer
    that the finish gives when it leads."""

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_em_and_armijo_fallbacks_match_finish_first(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        table = random_table(rng, int(rng.integers(2 * k, 4 * k + 1)), k)
        p = random_marginal(rng, k)
        lead = {solver: solver(table, p) for solver in (mlls_em, mlls_grad)}
        # Both answers end at a KKT residual near the rounding level of the
        # gradient, ~1e-14; where the curvature is at least 1e-2 the two can
        # then differ by no more than ~1e-12.
        hessian = likelihood_hessian(table, lead[mlls_em].weights)
        assume(np.linalg.eigvalsh(-hessian)[0] >= 1e-2)
        for solver, res in lead.items():
            assert res.converged
            declining, attempts = _declining_first(estimators._newton_finish)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(estimators, "_newton_finish", declining)
                fallback = solver(table, p)
            assert attempts[0] == NEWTON_STEPS
            assert fallback.converged
            assert fallback.iterations > 0
            g = likelihood_gradient(table, fallback.weights)
            assert kkt_residual(g, p.entries, fallback.weights.weights) <= KKT_TOL
            np.testing.assert_allclose(
                fallback.weights.weights, res.weights.weights, rtol=0, atol=1e-12
            )

    def test_non_finite_iterate_ends_uncertified(self):
        # the Newton matrix is NaN, so every finish attempt gives up; the one
        # first-order step lands on NaN, and the solve returns its start
        table = worked_instance_target_table()
        grad = partial(ll_gradient, table.support, table.normalized_masses())
        w, steps, converged = estimators._solve_on_slice(
            lambda w, g: np.full(3, np.nan), grad, lambda w: np.full((3, 3), np.nan),
            UNIFORM_3.entries, np.ones(3), 100,
        )
        assert (w.tolist(), steps, converged) == ([1.0, 1.0, 1.0], 1, False)


class TestKktCertificate:
    """The convergence contract: a converged result is a KKT point of its
    problem, with residual at most KKT_TOL, on the slice w . p_s = 1."""

    @staticmethod
    def _check(res, g, p):
        w = res.weights.weights
        assert res.converged
        assert kkt_residual(g, p, w) <= KKT_TOL
        assert abs(w @ p - 1.0) <= 1e-12

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_mlls_em_and_grad(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        table = random_table(rng, int(rng.integers(2, 3 * k + 1)), k)
        p = random_marginal(rng, k)
        for solver in (mlls_em, mlls_grad):
            res = solver(table, p)
            self._check(res, likelihood_gradient(table, res.weights), p.entries)

    @given(seed=st.integers(0, 100_000))
    @example(seed=92666)  # two classes share one column in every confusion row
    @settings(max_examples=40, deadline=None)
    def test_mlls_cm(self, seed):
        # the likelihood of mlls_cm is that of the target rows replaced by the
        # confusion rows p_s(y | yhat) of their hard predictions
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        outputs = _rows(rng, 12 * k, k)
        labels = rng.integers(0, k, size=12 * k)
        assume(np.unique(labels).size == k and np.unique(outputs.argmax(axis=1)).size == k)
        source = make_samples(outputs, labels)
        target = _rows(rng, int(rng.integers(1, 30)), k)
        conf = build_hard_confusion(source)
        p = conf.column_marginal
        res = mlls_cm(source, target_table_from_outputs(target), p)
        rows = conf.joint / conf.joint.sum(axis=1, keepdims=True)
        pred = target.argmax(axis=1)
        table = grouped_table(normalized_rows(rows[pred], tol=1e-9), np.ones(pred.size))
        self._check(res, likelihood_gradient(table, res.weights), p.entries)

    def test_mlls_singular_hessian(self):
        # classes 1 and 2 have equal columns in every support row, so the
        # Hessian is singular on every face: the maximizers form a segment
        table = grouped_table(
            np.array([[3 / 11, 4 / 11, 4 / 11], [1 / 6, 5 / 12, 5 / 12]]), np.ones(2)
        )
        p = np.array([10, 13, 13]) / 36
        for solver in (mlls_em, mlls_grad):
            res = solver(table, ProbVector(p))
            self._check(res, likelihood_gradient(table, res.weights), p)
            assert res.weights.weights[0] == 0.0

    @given(seed=st.integers(0, 100_000), lam=st.sampled_from([0.0, 1e-3, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_rlls(self, seed, lam):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        p = random_marginal(rng, k)
        C = rng.dirichlet(np.ones(k), size=k).T * p.entries  # column y sums to p_y
        assume(np.linalg.cond(C) < 1e8)
        conf = ConfusionMatrix(C, p)
        mu = ProbVector.normalized(rng.dirichlet(np.ones(k)), tol=1e-9)
        res = rlls(conf, mu, lam)
        w = res.weights.weights
        g = -2.0 * (C.T @ (C @ w - mu.entries) + lam * (w - 1.0))
        self._check(res, g, p.entries)


def _rows(rng, n, k):
    return normalized_rows(rng.dirichlet(np.ones(k), size=n), tol=1e-9)


class TestArrayPathProperties:
    """Invariances of MLLS (EM) and soft BBSE on the (n, k) array path: row
    order, row duplication versus doubled masses, and class relabelling."""

    @staticmethod
    def _mlls_instance(seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        rows = _rows(rng, int(rng.integers(k + 1, 3 * k + 2)), k)
        assume(np.linalg.eigvalsh(second_moment(rows))[0] > 1e-6)  # unique optimum
        return rng, k, rows, random_marginal(rng, k)

    def _mlls(self, rows, masses, p):
        return mlls_em(grouped_table(rows, masses), p, max_iters=BUDGET).weights.weights

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=15, deadline=None)
    def test_mlls_em_row_order_and_duplication(self, seed):
        rng, _, rows, p = self._mlls_instance(seed)
        ones = np.ones(len(rows))
        w = self._mlls(rows, ones, p)
        perm = rng.permutation(len(rows))
        np.testing.assert_allclose(self._mlls(rows[perm], ones, p), w, atol=1e-9)
        doubled = self._mlls(np.vstack([rows, rows]), np.ones(2 * len(rows)), p)
        direct = mlls_em(PredictorTable(rows, 2.0 * ones), p, max_iters=BUDGET)
        np.testing.assert_allclose(doubled, direct.weights.weights, atol=1e-9)
        np.testing.assert_allclose(doubled, w, atol=1e-9)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=15, deadline=None)
    def test_mlls_em_class_permutation(self, seed):
        rng, k, rows, p = self._mlls_instance(seed)
        sigma = rng.permutation(k)
        ones = np.ones(len(rows))
        w = self._mlls(rows, ones, p)
        p_perm = ProbVector(p.entries[sigma])
        np.testing.assert_allclose(self._mlls(rows[:, sigma], ones, p_perm), w[sigma], atol=1e-9)

    @staticmethod
    def _bbse_soft(outputs, labels, target):
        conf = build_soft_confusion(make_samples(outputs, labels))
        mu = build_target_prediction_marginal(target_table_from_outputs(target), "soft")
        return bbse(conf, mu).weights.weights

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=15, deadline=None)
    def test_bbse_soft_invariances(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        n = int(rng.integers(3 * k, 6 * k))
        outputs = _rows(rng, n, k)
        labels = np.array([rng.choice(k, p=row) for row in outputs])
        assume(np.unique(labels).size == k)
        conf = build_soft_confusion(make_samples(outputs, labels))
        assume(np.linalg.cond(conf.joint) < 1e6)
        target = _rows(rng, int(rng.integers(2, 10)), k)
        w = self._bbse_soft(outputs, labels, target)

        src, tgt = rng.permutation(n), rng.permutation(len(target))
        np.testing.assert_allclose(
            self._bbse_soft(outputs[src], labels[src], target[tgt]), w, atol=1e-9
        )
        np.testing.assert_allclose(
            self._bbse_soft(
                np.vstack([outputs, outputs]), np.tile(labels, 2), np.vstack([target, target])
            ),
            w,
            atol=1e-9,
        )
        sigma = rng.permutation(k)
        relabel = np.argsort(sigma)  # old class y is new class relabel[y]
        np.testing.assert_allclose(
            self._bbse_soft(outputs[:, sigma], relabel[labels], target[:, sigma]),
            w[sigma],
            atol=1e-9,
        )


class TestMllsGrad:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_em_on_identifiable_instances(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 4))
        table = random_table(rng, k + 2, k)
        M = table.support.T @ np.diag(table.normalized_masses()) @ table.support
        if np.linalg.eigvalsh(M)[0] < 1e-4:
            return
        p = random_marginal(rng, k)
        em = mlls_em(table, p, max_iters=50_000)
        gr = mlls_grad(table, p, max_iters=50_000)
        assert em.converged and gr.converged
        np.testing.assert_allclose(gr.weights.weights, em.weights.weights, atol=1e-5)

    def test_stationarity_at_solution(self):
        table = worked_instance_target_table()
        res = mlls_grad(table, UNIFORM_3, max_iters=100_000)
        g = likelihood_gradient(table, res.weights)
        # project the gradient onto the tangent of the affine constraint
        p = UNIFORM_3.entries
        tangent = g - (g @ p) / (p @ p) * p
        assert np.abs(tangent).max() < 1e-6


class TestMllsCm:
    def test_matches_inversion_on_exact_counts(self):
        # Source giving confusion [[0.4,0.1],[0.1,0.4]] and targets with hard
        # prediction frequencies (0.35, 0.65): the likelihood optimum over the
        # row-calibrated table is the confusion-inversion answer [0.5, 1.5].
        src_outputs = [[0.9, 0.1]] * 5 + [[0.1, 0.9]] * 5
        src_labels = [0, 0, 0, 0, 1, 0, 1, 1, 1, 1]
        source = make_samples(src_outputs, src_labels)
        target = np.array([[0.9, 0.1]] * 35 + [[0.1, 0.9]] * 65)
        res = mlls_cm(source, target_table_from_outputs(target), UNIFORM_2, max_iters=BUDGET)
        np.testing.assert_allclose(res.weights.weights, [0.5, 1.5], atol=1e-8)

    def test_counts_weight_the_target_rows(self):
        # the grouped table of the 100 target rows, two rows with masses
        # 35 and 65, gives the same estimate as the rows themselves
        source = make_samples([[0.9, 0.1]] * 5 + [[0.1, 0.9]] * 5, [0, 0, 0, 0, 1, 0, 1, 1, 1, 1])
        table = grouped_table(np.array([[0.9, 0.1], [0.1, 0.9]]), np.array([35.0, 65.0]))
        res = mlls_cm(source, table, UNIFORM_2, max_iters=BUDGET)
        np.testing.assert_allclose(res.weights.weights, [0.5, 1.5], atol=1e-8)

    def test_unreachable_prediction_rejected(self):
        source = make_samples([[0.1, 0.9]] * 4, [0, 1, 1, 1])  # nothing predicted 0
        target = np.array([[0.1, 0.9]])
        with pytest.raises(InputError):
            mlls_cm(source, target_table_from_outputs(target), UNIFORM_2)


class TestDistributionMatchLsq:
    def test_confusion_as_joint(self):
        t = HAND_CONF.joint @ np.array([0.5, 1.5])
        res = distribution_match_lsq(HAND_CONF.joint, t, UNIFORM_2)
        np.testing.assert_allclose(res.weights.weights, [0.5, 1.5], atol=1e-8)

    def test_binned_gmm_population_recovery(self):
        # 8 equal-width bins of the class-0 posterior of a unit-variance GMM
        # with means +-1 and a uniform source prior. Bin boundaries in x-space
        # come from inverting f0(x) = sigmoid(2x).
        mu = 1.0
        edges_f = np.linspace(0.0, 1.0, 9)
        with np.errstate(divide="ignore"):
            edges_x = np.log(edges_f / (1.0 - edges_f)) / (2.0 * mu)
        edges_x[0], edges_x[-1] = -np.inf, np.inf
        J = np.zeros((8, 2))
        for b in range(8):
            J[b, 0] = 0.5 * (norm.cdf(edges_x[b + 1] - mu) - norm.cdf(edges_x[b] - mu))
            J[b, 1] = 0.5 * (norm.cdf(edges_x[b + 1] + mu) - norm.cdf(edges_x[b] + mu))
        w_star = np.array([0.5, 1.5])
        res = distribution_match_lsq(J, J @ w_star, UNIFORM_2, max_iters=100_000)
        np.testing.assert_allclose(res.weights.weights, w_star, atol=1e-6)

    def test_rank_deficient_warns(self):
        J = np.array([[0.3, 0.3], [0.7, 0.7]]) * np.array([0.5, 0.5])
        with pytest.warns(UserWarning, match="rank-deficient"):
            distribution_match_lsq(J, J @ np.ones(2), UNIFORM_2)

    def test_column_sum_mismatch_rejected(self):
        J = np.array([[0.3, 0.1], [0.1, 0.4]])
        with pytest.raises(InputError):
            distribution_match_lsq(J, J @ np.ones(2), UNIFORM_2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            distribution_match_lsq(HAND_CONF.joint, np.ones(3), UNIFORM_2)
