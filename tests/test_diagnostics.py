import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelshift.diagnostics import (
    IDENTIFIABILITY_EIG_FLOOR,
    DiagnosticsReport,
    check_identifiability,
    compute_bound_terms,
    condition_tau,
    diagnostics_report,
    eigenvalue_sandwich_check,
    example1_closed_form,
    gaussian_cdf,
    likelihood_gradient,
    likelihood_hessian,
    log_likelihood,
    second_moment,
)
from labelshift.errors import InputError
from labelshift.simplex import ProbVector, WeightVector, grouped_table
from tests.conftest import (
    F_ROWS,
    PS_ROWS,
    W_MISCAL_OPT,
    W_STAR_3,
    make_samples,
    random_marginal,
    random_table,
    random_weight,
    worked_instance_target_table,
)

TWO_POINT = grouped_table(
    [np.array([0.8, 0.2]), np.array([0.2, 0.8])], [0.7, 0.3]
)
UNIFORM_2 = ProbVector(np.array([0.5, 0.5]))
ONES_2 = WeightVector(np.ones(2), UNIFORM_2)


class TestLikelihoodQuantities:
    def test_log_likelihood_hand_value(self):
        # at w = 1 every inner product is 1, so the log-likelihood is 0
        assert log_likelihood(TWO_POINT, ONES_2) == pytest.approx(0.0, abs=1e-15)

    def test_gradient_hand_value(self):
        np.testing.assert_allclose(
            likelihood_gradient(TWO_POINT, ONES_2), [0.62, 0.38], atol=1e-15
        )

    def test_hessian_hand_value(self):
        H = likelihood_hessian(TWO_POINT, ONES_2)
        np.testing.assert_allclose(H, [[-0.46, -0.16], [-0.16, -0.22]], atol=1e-15)

    def test_count_table_normalization(self):
        counted = grouped_table(
            [np.array([0.8, 0.2]), np.array([0.2, 0.8])], [70.0, 30.0]
        )
        w = np.array([1.4, 0.6])
        assert log_likelihood(counted, w) == pytest.approx(log_likelihood(TWO_POINT, w))

    def test_nonpositive_inner_product_names_point(self):
        table = grouped_table([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.5, 0.5])
        with pytest.raises(InputError, match="support point 0"):
            log_likelihood(table, np.array([0.0, 2.0]))
        # a NaN f(x)^T w is outside the domain too, not read as 1
        for quantity in (log_likelihood, likelihood_gradient, likelihood_hessian):
            with pytest.raises(InputError, match="= nan at support point 0"):
                quantity(TWO_POINT, np.array([np.nan, 1.0]))

    def test_worked_instance_matches_high_precision_recomputation(self):
        # 50-digit recomputation of the six-point population log-likelihood.
        import mpmath

        table = worked_instance_target_table()
        F = table.support
        m = table.normalized_masses()
        w = W_MISCAL_OPT
        with mpmath.workdps(50):
            exact = mpmath.fsum(
                mpmath.mpf(mi) * mpmath.log(mpmath.fsum(mpmath.mpf(f) * mpmath.mpf(x) for f, x in zip(row, w)))
                for row, mi in zip(F, m)
            )
        assert log_likelihood(table, w) == pytest.approx(float(exact), abs=1e-13)

    def test_worked_instance_optimum_solves_stationarity_at_50_digits(self):
        # Derives W_MISCAL_OPT from the instance's exact decimal data. On the
        # slice w . p_s = 1 the multiplier is 1, so an interior maximiser solves
        # sum_i m_i F_i / (F_i . w) = p_s; positive entries make it a KKT point,
        # and full column rank of F makes the likelihood strictly concave, so it
        # is the unique maximiser.
        import mpmath

        def exact(row):  # the decimal literal each float was written as
            return [mpmath.mpf(repr(float(x))) for x in row]

        with mpmath.workdps(50):
            F = [exact(row) for row in F_ROWS]
            ps_rows = [exact(row) for row in PS_ROWS]
            w_star = exact(W_STAR_3)
            third = mpmath.mpf(1) / 3
            masses = [mpmath.fsum(a * b for a, b in zip(row, w_star)) * third / 2 for row in ps_rows]

            def stationarity(*w):
                inner = [mpmath.fsum(a * b for a, b in zip(row, w)) for row in F]
                return [
                    mpmath.fsum(mi * row[j] / d for row, mi, d in zip(F, masses, inner)) - third
                    for j in range(3)
                ]

            root = [float(x) for x in mpmath.findroot(stationarity, w_star)]
        assert all(mi > 0 for mi in masses)
        np.testing.assert_allclose(root, W_MISCAL_OPT, rtol=0, atol=1e-15)
        assert min(root) > 0
        assert np.linalg.matrix_rank(F_ROWS) == 3

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        table = random_table(rng, int(rng.integers(2, 7)), k)
        p = random_marginal(rng, k)
        w = random_weight(rng, p).weights
        g = likelihood_gradient(table, w)
        h = 1e-6
        for j in range(k):
            e = np.zeros(k)
            e[j] = h
            fd = (log_likelihood(table, w + e) - log_likelihood(table, w - e)) / (2 * h)
            assert fd == pytest.approx(g[j], rel=1e-5, abs=1e-7)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_hessian_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 4))
        table = random_table(rng, int(rng.integers(2, 7)), k)
        p = random_marginal(rng, k)
        w = random_weight(rng, p).weights
        H = likelihood_hessian(table, w)
        h = 1e-5
        for j in range(k):
            e = np.zeros(k)
            e[j] = h
            fd = (likelihood_gradient(table, w + e) - likelihood_gradient(table, w - e)) / (2 * h)
            np.testing.assert_allclose(fd, H[:, j], rtol=1e-4, atol=1e-6)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_negated_hessian_is_psd(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        table = random_table(rng, int(rng.integers(2, 9)), k)
        p = random_marginal(rng, k)
        w = random_weight(rng, p)
        eigs = np.linalg.eigvalsh(-likelihood_hessian(table, w))
        assert eigs[0] >= -1e-8


class TestIdentifiability:
    def test_full_rank_table(self):
        ok, eig = check_identifiability(TWO_POINT)
        assert ok and eig > IDENTIFIABILITY_EIG_FLOOR

    def test_rank_deficient_table(self):
        a = np.array([0.5, 0.5, 0.0])
        b = np.array([0.0, 0.5, 0.5])
        table = grouped_table([a, b, (a + b) / 2.0], [0.4, 0.4, 0.2])
        ok, eig = check_identifiability(table)
        assert not ok
        assert eig == pytest.approx(0.0, abs=1e-12)

    def test_accepts_samples(self):
        samples = make_samples([[0.8, 0.2], [0.2, 0.8]], [0, 1])
        ok, _ = check_identifiability(samples.outputs)
        assert ok

    def test_second_moment_hand_value(self):
        M = second_moment(TWO_POINT)
        np.testing.assert_allclose(M, [[0.46, 0.16], [0.16, 0.22]], atol=1e-15)


class TestConditionNumbers:
    def test_tau_hand_value(self):
        w = WeightVector(np.array([0.5, 1.5]), UNIFORM_2)
        # inner products are 0.7 and 1.3
        assert condition_tau(TWO_POINT, w) == pytest.approx(0.7)

    def test_bound_terms_formulas(self):
        terms = compute_bound_terms(
            sigma_min_c=0.5,
            sigma_min_f=0.25,
            tau=0.7,
            calib_error=0.1,
            w_star_norm=2.0,
            m=1000,
            n=1000,
            delta=0.05,
        )
        root = math.sqrt(math.log(4.0 / 0.05) / 1000.0)
        assert terms.term1 == pytest.approx(root / 0.5)
        assert terms.term2 == pytest.approx((root + 0.1 * 2.0) / 0.25)
        assert terms.total == pytest.approx(terms.term1 + terms.term2)

    def test_bound_terms_zero_eigenvalue_is_infinite(self):
        terms = compute_bound_terms(
            sigma_min_c=0.0,
            sigma_min_f=0.25,
            tau=0.7,
            calib_error=0.1,
            w_star_norm=2.0,
            m=1000,
            n=1000,
            delta=0.05,
        )
        assert math.isinf(terms.term1)

    def test_bound_terms_input_validation(self):
        with pytest.raises(InputError):
            compute_bound_terms(0.5, 0.25, 0.7, 0.1, 2.0, m=0, n=1000, delta=0.05)
        with pytest.raises(InputError):
            compute_bound_terms(0.5, 0.25, 0.7, 0.1, 2.0, m=10, n=10, delta=1.5)

    def test_sandwich_hand_instance(self):
        w = WeightVector(np.array([0.5, 1.5]), UNIFORM_2)
        assert eigenvalue_sandwich_check(TWO_POINT, w, UNIFORM_2)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_sandwich_holds_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        table = random_table(rng, int(rng.integers(2, 8)), k)
        p = random_marginal(rng, k)
        w = random_weight(rng, p)
        if condition_tau(table, w) <= 0:
            return
        assert eigenvalue_sandwich_check(table, w, p)


class TestExampleOne:
    def test_gaussian_cdf_values(self):
        assert gaussian_cdf(0.0) == pytest.approx(0.5)
        assert gaussian_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)
        assert gaussian_cdf(-1.0) == pytest.approx(1.0 - 0.8413447460685429, abs=1e-15)

    def test_hand_value(self):
        w0, err = example1_closed_form(alpha=0.25, c=0.7, mu=1.0)
        assert err == pytest.approx(0.7067237303427156, abs=1e-12)

    def test_zero_error_at_matched_threshold(self):
        # the sign-threshold predictor with confidence c = P(x >= 0 | y = 0)
        # is calibrated, and the likelihood estimate becomes consistent
        c = gaussian_cdf(1.0)
        for alpha in (0.1, 0.25, 0.4):
            _, err = example1_closed_form(alpha=alpha, c=c, mu=1.0)
            assert err == pytest.approx(0.0, abs=1e-12)

    def test_zero_error_at_balanced_target(self):
        _, err = example1_closed_form(alpha=0.5, c=0.3, mu=1.0)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_clipping_keeps_weight_feasible(self):
        w0, err = example1_closed_form(alpha=0.1, c=0.3, mu=1.0)
        assert 0.0 <= w0 <= 2.0
        assert w0 == pytest.approx(2.0)

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            example1_closed_form(alpha=0.25, c=0.5, mu=1.0)
        with pytest.raises(InputError):
            example1_closed_form(alpha=1.2, c=0.3, mu=1.0)

    def test_matches_empirical_likelihood_optimum(self):
        # brute-force the population likelihood of the threshold predictor
        # over the weight slice and compare against the closed form
        for alpha, c in ((0.25, 0.7), (0.3, 0.2), (0.45, 0.62)):
            phi = gaussian_cdf(1.0)
            pt_neg = alpha * (1.0 - phi) + (1.0 - alpha) * phi  # P_t(x <= 0)
            table = grouped_table(
                [np.array([c, 1.0 - c]), np.array([1.0 - c, c])],
                [1.0 - pt_neg, pt_neg],
            )
            grid = np.linspace(0.0, 2.0, 400_001)
            F = table.support
            m = table.normalized_masses()
            lls = m @ np.log(F @ np.stack([grid, 2.0 - grid]))
            w0_grid = grid[np.argmax(lls)]
            w0, err = example1_closed_form(alpha=alpha, c=c, mu=1.0)
            assert w0 == pytest.approx(w0_grid, abs=1e-4)
            assert err == pytest.approx(2.0 * abs(w0_grid - 2.0 * alpha), abs=2e-4)


class TestReport:
    def test_report_assembles_and_serializes(self):
        w = WeightVector(np.array([0.5, 1.5]), UNIFORM_2)
        report = diagnostics_report(TWO_POINT, w, TWO_POINT)
        payload = json.dumps(report.to_json())
        decoded = json.loads(payload)
        assert decoded["identifiable"] is True
        assert decoded["tau"] == pytest.approx(0.7)
        assert decoded["bound_terms"] is None
        assert decoded["sigma_min"] >= 0.0

    def test_identifiability_is_the_sources(self):
        # the target table is identifiable; a source whose rows all agree is not
        w = WeightVector(np.array([0.5, 1.5]), UNIFORM_2)
        source = np.array([[0.6, 0.4]] * 3)
        report = diagnostics_report(TWO_POINT, w, source)
        assert (report.identifiable, report.second_moment_min_eig) == check_identifiability(source)
        assert report.identifiable is False

    def test_sigma_min_is_clamped_only_in_json(self):
        # a rounding error below zero stays in the report, where hessian_nsd reads it
        report = DiagnosticsReport(
            0.0, np.zeros(2), np.zeros((2, 2)), -1e-9, 1.0, 1.0, True, None, np.ones(2), True, 0.0, 0.0
        )
        assert report.sigma_min == -1e-9
        assert report.to_json()["sigma_min"] == 0.0

    def test_first_order_fields_use_the_weights_marginal(self):
        p = ProbVector(np.array([0.25, 0.75]))
        w = WeightVector(np.array([1.6, 0.8]), p)
        report = diagnostics_report(TWO_POINT, w, TWO_POINT)
        g = likelihood_gradient(TWO_POINT, w)
        r = g - (g @ w.weights) / (p.entries @ w.weights) * p.entries
        out = report.to_json()
        assert list(out)[-4:] == ["weights", "hessian_nsd", "projected_gradient_norm", "kkt_residual"]
        assert out["weights"] == [1.6, 0.8]
        assert out["hessian_nsd"] is True
        assert out["kkt_residual"] == pytest.approx(np.abs(r).max(), rel=1e-12)
        tangent = g - (g @ p.entries) / (p.entries @ p.entries) * p.entries
        assert out["projected_gradient_norm"] == pytest.approx(np.linalg.norm(tangent), rel=1e-12)
