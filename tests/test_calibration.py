import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.optimize import minimize
from scipy.special import logsumexp

from labelshift import calibration
from labelshift.calibration import (
    BctsParams,
    bcts_apply_matrix,
    bcts_fit,
    calibration_error_of_table,
    clip_probs,
    confusion_row_calibrate,
    estimate_calibration_error,
)
from labelshift.confusion import ConfusionMatrix
from labelshift.errors import InputError
from labelshift.simplex import ProbVector, grouped_table
from tests.conftest import make_samples

SQRT3 = np.sqrt(3.0)


class TestBctsApply:
    def test_temperature_two(self):
        # T=2 takes square roots before renormalizing: [0.25, 0.75] has
        # sqrt-ratio 1 : sqrt(3).
        (out,) = bcts_apply_matrix(BctsParams(2.0, np.zeros(2)), np.array([[0.25, 0.75]]))
        np.testing.assert_allclose(out, [1.0 / (1.0 + SQRT3), SQRT3 / (1.0 + SQRT3)])
        assert out[0] == pytest.approx(0.36602540378443865)

    def test_bias_only(self):
        (out,) = bcts_apply_matrix(
            BctsParams(1.0, np.array([np.log(2.0), 0.0])), np.array([[0.5, 0.5]])
        )
        np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0])

    def test_identity_is_noop(self):
        p = np.array([[0.3, 0.6, 0.1]])
        out = bcts_apply_matrix(BctsParams(1.0, np.zeros(3)), p)
        np.testing.assert_allclose(out, p, atol=1e-15)

    def test_matrix_clips_zeros_and_matches_scalar(self):
        params = BctsParams(1.7, np.array([0.2, -0.2]))
        mat = np.array([[0.3, 0.7], [0.0, 1.0]])
        res = bcts_apply_matrix(params, mat)
        z = np.exp(np.log(mat[0]) / 1.7 + params.biases)  # the formula on a zero-free row
        np.testing.assert_allclose(res[0], z / z.sum(), atol=1e-12)
        assert np.all(res > 0)
        np.testing.assert_allclose(res.sum(axis=1), 1.0, atol=1e-12)

    def test_params_json_round_trip(self):
        params = BctsParams(2.5, np.array([0.1, -0.1]))
        assert json.loads(json.dumps(params.to_json())) == {"temperature": 2.5, "biases": [0.1, -0.1]}

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(InputError):
            BctsParams(0.0, np.zeros(2))


def calibrated_validation_set():
    """Two output groups whose label frequencies equal the outputs exactly."""
    outputs, labels = [], []
    for _ in range(1):
        outputs.append([0.25, 0.75]); labels.append(0)
    for _ in range(3):
        outputs.append([0.25, 0.75]); labels.append(1)
    for _ in range(3):
        outputs.append([0.75, 0.25]); labels.append(0)
    for _ in range(1):
        outputs.append([0.75, 0.25]); labels.append(1)
    return make_samples(outputs, labels)


def distorted_ten_class_instance():
    """Seeded 10-class labels drawn from calibrated outputs, seen through a
    fixed BCTS distortion; returns the samples and their clipped log-outputs."""
    rng = np.random.default_rng(2026)
    n, k = 3000, 10
    clean = rng.dirichlet(np.full(k, 0.7), size=n)
    labels = (clean.cumsum(axis=1) > rng.random(n)[:, None]).argmax(axis=1)
    noisy = bcts_apply_matrix(BctsParams(1.6, rng.normal(0.0, 0.3, k)), clean)
    return make_samples(noisy, labels), np.log(clip_probs(noisy))


class TestBctsFit:
    def test_identity_on_calibrated_data(self):
        # Perfectly calibrated data makes the identity transform stationary for
        # the NLL, so the fit should stay at T=1, b=0.
        fit = bcts_fit(calibrated_validation_set())
        assert fit.converged
        assert fit.params.temperature == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(fit.params.biases, [0.0, 0.0], atol=1e-6)

    def test_loss_trace_is_nonincreasing(self):
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(3), size=60)
        labels = rng.integers(0, 3, size=60)
        for loss in ("nll", "mse"):
            fit = bcts_fit(make_samples(probs, labels), loss=loss)
            trace = np.array(fit.loss_trace)
            assert np.all(np.diff(trace) <= 1e-12)

    def test_boundary_optimum_reports_not_converged(self):
        # Labels drawn independently of the outputs: the loss keeps falling as
        # 1/T goes to 0, so the line search stalls at the 1/T > 0 boundary with
        # a large gradient, and the fit must say it did not converge.
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(3), size=60)
        labels = rng.integers(0, 3, size=60)
        for loss in ("nll", "mse"):
            fit = bcts_fit(make_samples(probs, labels), loss=loss)
            assert not fit.converged
            assert fit.final_grad_norm >= 1e-6

    def test_small_budget_raises(self, monkeypatch):
        # a spent budget is reported through the flag, as a flat line search is
        monkeypatch.setattr(calibration, "BCTS_MAX_ITERS", 2)
        samples, _ = distorted_ten_class_instance()
        fit = bcts_fit(samples)
        assert not fit.converged
        assert fit.iterations == 2
        assert fit.final_grad_norm >= 1e-8

    def test_recovers_distortion(self):
        # Distort calibrated outputs by a fixed BCTS map; fitting on the
        # distorted outputs must find the inverse within tolerance.
        rng = np.random.default_rng(3)
        n = 4000
        f0 = rng.random(n) * 0.9 + 0.05
        labels = (rng.random(n) > f0).astype(int)
        clean = np.column_stack([f0, 1.0 - f0])
        distort = BctsParams(2.0, np.array([0.4, -0.4]))
        noisy = bcts_apply_matrix(distort, clean)
        fit = bcts_fit(make_samples(noisy, labels))
        # applying the fitted map to the distorted outputs restores calibration
        restored = bcts_apply_matrix(fit.params, noisy)
        gap = np.abs(restored - clean).max()
        assert gap < 0.05

    def test_newton_fit_converges_in_few_iterations(self):
        samples, _ = distorted_ten_class_instance()
        fit = bcts_fit(samples)
        assert fit.converged
        assert fit.iterations <= 10
        assert fit.final_grad_norm < 1e-8

    def test_matches_scipy_optimum(self):
        # An independent fit: scipy BFGS on the NLL written with logsumexp.
        samples, logp = distorted_ten_class_instance()
        n, k = logp.shape
        rows, y = np.arange(n), samples.labels

        def nll(theta):
            z = theta[0] * logp + theta[1:]
            lse = logsumexp(z, axis=1)
            dz = np.exp(z - lse[:, None])
            dz[rows, y] -= 1.0
            dz /= n
            return (lse - z[rows, y]).mean(), np.concatenate(([(dz * logp).sum()], dz.sum(axis=0)))

        ref = minimize(nll, np.r_[1.0, np.zeros(k)], jac=True, method="BFGS",
                       options={"gtol": 1e-12, "maxiter": 10_000})
        fit = bcts_fit(samples)
        assert fit.params.temperature == pytest.approx(1.0 / ref.x[0], abs=1e-7)
        np.testing.assert_allclose(fit.params.biases, ref.x[1:] - ref.x[1:].mean(), atol=1e-7)

    def test_fisher_is_nll_hessian_plus_shift_fix(self):
        # Central differences of the NLL gradient give the Hessian; the Fisher
        # matrix must equal it plus 1/k on the b-block, and be positive definite.
        rng = np.random.default_rng(5)
        n, k = 200, 4
        logp = np.log(rng.dirichlet(np.ones(k), size=n))
        onehot = np.eye(k)[rng.integers(0, k, size=n)]
        theta = np.r_[0.8, rng.normal(0.0, 0.5, k)]
        wts = np.full(n, 1.0 / n)
        _, _, g = calibration._bcts_loss_grad(logp, onehot, wts, theta[0], theta[1:], "nll")
        H = calibration._bcts_fisher(logp, g, wts)
        h = 1e-6
        fd = np.empty((k + 1, k + 1))
        for j in range(k + 1):
            e = np.zeros(k + 1)
            e[j] = h
            up = calibration._bcts_loss_grad(logp, onehot, wts, theta[0] + e[0], theta[1:] + e[1:], "nll")[1]
            dn = calibration._bcts_loss_grad(logp, onehot, wts, theta[0] - e[0], theta[1:] - e[1:], "nll")[1]
            fd[:, j] = (up - dn) / (2 * h)
        fd[1:, 1:] += 1.0 / k
        np.testing.assert_allclose(H, fd, atol=1e-7)
        assert np.linalg.eigvalsh(H)[0] > 0

    def test_falls_back_to_gradient_when_newton_ascends(self, monkeypatch):
        # With the Fisher matrix replaced by -I every Newton direction points
        # uphill, so each step must be taken along -grad; plain descent then
        # reaches the same optimum in more iterations.
        samples = calibrated_validation_set()
        distorted = make_samples(
            bcts_apply_matrix(BctsParams(1.5, np.array([0.3, -0.3])), samples.outputs),
            samples.labels,
        )
        newton = bcts_fit(distorted)
        monkeypatch.setattr(
            calibration, "_bcts_fisher", lambda logp, g, wts: -np.eye(logp.shape[1] + 1)
        )
        descent = bcts_fit(distorted)
        assert descent.converged
        assert descent.iterations > newton.iterations
        assert np.all(np.diff(descent.loss_trace) <= 1e-12)
        assert descent.params.temperature == pytest.approx(newton.params.temperature, abs=1e-6)
        np.testing.assert_allclose(descent.params.biases, newton.params.biases, atol=1e-6)

    def test_mse_loss_runs(self):
        fit = bcts_fit(calibrated_validation_set(), loss="mse")
        assert fit.converged

    def test_unknown_loss(self):
        with pytest.raises(InputError):
            bcts_fit(calibrated_validation_set(), loss="brier")

    def test_needs_enough_samples(self):
        with pytest.raises(InputError):
            bcts_fit(make_samples([[0.3, 0.7], [0.6, 0.4]], [0, 1]))

    def test_rejects_single_class(self):
        with pytest.raises(InputError):
            bcts_fit(make_samples([[0.3, 0.7]] * 5, [1] * 5))

    def test_biases_are_centered(self):
        rng = np.random.default_rng(11)
        probs = rng.dirichlet(np.ones(3), size=80)
        labels = rng.integers(0, 3, size=80)
        fit = bcts_fit(make_samples(probs, labels))
        assert abs(fit.params.biases.mean()) < 1e-12


class TestConfusionRowCalibrate:
    def test_hand_example(self):
        conf = ConfusionMatrix(
            np.array([[0.4, 0.1], [0.1, 0.4]]), ProbVector(np.array([0.5, 0.5]))
        )
        table = confusion_row_calibrate(conf)
        rows = dict(zip(map(tuple, table.support), table.masses))
        np.testing.assert_allclose(rows[(0.8, 0.2)], 0.5)
        np.testing.assert_allclose(rows[(0.2, 0.8)], 0.5)

    def test_zero_row_names_prediction(self):
        conf = ConfusionMatrix(
            np.array([[0.0, 0.0], [0.6, 0.4]]), ProbVector(np.array([0.6, 0.4]))
        )
        with pytest.raises(InputError, match="prediction 0"):
            confusion_row_calibrate(conf)

    def test_result_has_zero_calibration_error(self):
        # By construction the row table's outputs are the conditional label
        # distributions given the prediction, so its population calibration
        # error vanishes.
        conf = ConfusionMatrix(
            np.array([[0.3, 0.2], [0.1, 0.4]]), ProbVector(np.array([0.4, 0.6]))
        )
        table = confusion_row_calibrate(conf)
        assert calibration_error_of_table(table, table.support) == pytest.approx(0.0, abs=1e-12)


class TestCalibrationError:
    def test_hand_example(self):
        # group A: output [0.8, 0.2], label mean [0.75, 0.25]; group B: output
        # [0.4, 0.6], label mean [0.25, 0.75]; each has mass 1/2.
        outputs = [[0.8, 0.2]] * 4 + [[0.4, 0.6]] * 4
        labels = [0, 0, 0, 1] + [0, 1, 1, 1]
        report = estimate_calibration_error(make_samples(outputs, labels))
        expected = np.sqrt(0.5 * 2 * 0.05 ** 2 + 0.5 * 2 * 0.15 ** 2)
        assert report.calibration_error == pytest.approx(expected, abs=1e-12)

    def test_zero_for_calibrated_samples(self):
        report = estimate_calibration_error(calibrated_validation_set())
        assert report.calibration_error == pytest.approx(0.0, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            estimate_calibration_error(make_samples(np.empty((0, 2)), []))

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=50, deadline=None)
    def test_order_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pool = [np.array([0.3, 0.7]), np.array([0.6, 0.4]), np.array([0.5, 0.5])]
        n = int(rng.integers(2, 40))
        outputs = [pool[i] for i in rng.integers(0, 3, size=n)]
        labels = rng.integers(0, 2, size=n)
        samples = make_samples(outputs, labels)
        e1 = estimate_calibration_error(samples).calibration_error
        perm = rng.permutation(n)
        e2 = estimate_calibration_error(
            make_samples(samples.outputs[perm], samples.labels[perm])
        ).calibration_error
        assert e1 == pytest.approx(e2, abs=1e-15)

    def test_population_form_matches_empirical(self):
        outputs = [[0.8, 0.2]] * 4 + [[0.4, 0.6]] * 4
        labels = [0, 0, 0, 1] + [0, 1, 1, 1]
        report = estimate_calibration_error(make_samples(outputs, labels))
        table = grouped_table(
            [np.array([0.8, 0.2]), np.array([0.4, 0.6])], [0.5, 0.5]
        )
        posteriors = np.array([[0.75, 0.25], [0.25, 0.75]])
        assert calibration_error_of_table(table, posteriors) == pytest.approx(
            report.calibration_error, abs=1e-12
        )
