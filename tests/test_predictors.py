import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelshift.errors import InputError
from labelshift.predictors import (
    GmmSpec,
    ThresholdPredictorSpec,
    bin_aggregate,
    gmm_posterior,
    samples_from_outputs,
    threshold_outputs,
)
from labelshift.simplex import LabeledPredictions, ProbVector
from tests.conftest import make_samples

UNIFORM_2 = ProbVector(np.array([0.5, 0.5]))
SIGMOID_2 = 0.8807970779778823  # 1 / (1 + exp(-2))


class TestGmm:
    def test_posterior_at_known_point(self):
        spec = GmmSpec(mu=1.0, source_marginal=UNIFORM_2)
        # log-odds at x=1 are 2*mu*x = 2 under a uniform prior
        np.testing.assert_allclose(
            gmm_posterior(spec, 1.0), [SIGMOID_2, 1.0 - SIGMOID_2], atol=1e-15
        )

    def test_posterior_symmetry(self):
        spec = GmmSpec(mu=1.3, source_marginal=UNIFORM_2)
        for x in (-2.0, -0.4, 0.0, 0.9, 3.1):
            np.testing.assert_allclose(
                gmm_posterior(spec, x), gmm_posterior(spec, -x)[::-1], atol=1e-14
            )

    def test_posterior_midpoint_uniform_prior(self):
        spec = GmmSpec(mu=2.0, source_marginal=UNIFORM_2)
        np.testing.assert_allclose(gmm_posterior(spec, 0.0), [0.5, 0.5], atol=1e-15)

    def test_nonuniform_prior_shifts_posterior(self):
        spec = GmmSpec(mu=1.0, source_marginal=ProbVector(np.array([0.9, 0.1])))
        # prior log-odds log(9) added to the likelihood log-odds
        expect = 1.0 / (1.0 + np.exp(-(np.log(9.0) + 2.0)))
        np.testing.assert_allclose(gmm_posterior(spec, 1.0)[0], expect, atol=1e-14)

    def test_vectorized_matches_scalar(self):
        spec = GmmSpec(mu=0.8, source_marginal=ProbVector(np.array([0.3, 0.7])))
        xs = np.linspace(-3, 3, 11)
        batch = gmm_posterior(spec, xs)
        for x, row in zip(xs, batch):
            np.testing.assert_allclose(row, gmm_posterior(spec, float(x)), atol=1e-15)

    def test_requires_binary_marginal(self):
        with pytest.raises(InputError):
            GmmSpec(mu=1.0, source_marginal=ProbVector(np.full(3, 1.0 / 3.0)))

    @pytest.mark.parametrize("entries", [[1.0, 0.0], [0.0, 1.0], [1.0, 5e-324]])
    def test_source_marginal_needs_finite_reciprocals(self, entries):
        # w* = p_t / p_s divides by every entry
        with pytest.raises(InputError, match="source_marginal"):
            GmmSpec(mu=1.0, source_marginal=ProbVector(np.array(entries)))

    @pytest.mark.parametrize("mu", [1e300, -1e300, 1.7976931348623157e308])
    def test_huge_mu_gives_one_hot_rows_without_warning(self, mu):
        spec = GmmSpec(mu=mu, source_marginal=ProbVector(np.array([1e-300, 1.0 - 1e-300])))
        x = np.array([mu, -mu])
        np.testing.assert_array_equal(gmm_posterior(spec, x), np.eye(2))  # 2 mu x is +-inf


class TestThreshold:
    def test_confidence_convention(self):
        # The sign-threshold rule reports confidence c on the nonnegative side.
        spec = ThresholdPredictorSpec(c=0.2)
        np.testing.assert_allclose(
            threshold_outputs(spec, [3.7, -3.7, 0.0, -1e-12]),
            [[0.2, 0.8], [0.8, 0.2], [0.2, 0.8], [0.8, 0.2]],
        )

    def test_c_bounds(self):
        with pytest.raises(InputError):
            ThresholdPredictorSpec(c=-0.01)
        with pytest.raises(InputError):
            ThresholdPredictorSpec(c=1.01)


class TestBinning:
    def _toy(self):
        outputs = np.array([[0.1, 0.9], [0.2, 0.8], [0.8, 0.2], [0.9, 0.1]])
        labels = np.array([0, 1, 1, 1])
        return outputs, labels

    def test_label_mean_values(self):
        outputs, labels = self._toy()
        pred = bin_aggregate(make_samples(outputs, labels), n_bins=2)
        np.testing.assert_allclose(pred.bin_outputs[0], [0.5, 0.5])
        np.testing.assert_allclose(pred.bin_outputs[1], [0.0, 1.0])
        np.testing.assert_allclose(pred.table.normalized_masses(), [0.5, 0.5])

    def test_bin_index_edges(self):
        outputs, labels = self._toy()
        pred = bin_aggregate(make_samples(outputs, labels), n_bins=4)
        # the right edge is closed: [1, 0] lands in the last bin
        np.testing.assert_array_equal(
            pred.bin_indices(np.array([[0.1, 0.9], [0.999, 0.001], [1.0, 0.0]])), [0, 3, 3]
        )

    def test_remap_matrix(self):
        outputs, labels = self._toy()
        pred = bin_aggregate(make_samples(outputs, labels), n_bins=2)
        remapped = pred.remap_matrix(np.array([[0.05, 0.95], [0.7, 0.3]]))
        np.testing.assert_allclose(remapped[0], [0.5, 0.5])
        np.testing.assert_allclose(remapped[1], [0.0, 1.0])

    def test_remap_through_empty_bin_fails(self):
        outputs, labels = self._toy()
        pred = bin_aggregate(make_samples(outputs, labels), n_bins=4)
        empty = int(np.flatnonzero(np.isnan(pred.bin_outputs[:, 0]))[0])
        probe = np.array([[(empty + 0.5) / 4.0, 1.0 - (empty + 0.5) / 4.0]])
        with pytest.raises(InputError):
            pred.remap_matrix(probe)

    def test_bin_aggregate_wraps_samples(self):
        outputs, labels = self._toy()
        samples = samples_from_outputs(outputs, labels)
        pred = bin_aggregate(samples, n_bins=2)
        np.testing.assert_allclose(pred.bin_outputs[0], [0.5, 0.5])

    @given(seed=st.integers(0, 5000), n_bins=st.sampled_from([2, 4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_label_mean_binning_is_calibrated_in_sample(self, seed, n_bins):
        # Grouping by bin and averaging labels makes the binned predictor
        # exactly calibrated on the data that built it.
        rng = np.random.default_rng(seed)
        n = 400
        f0 = rng.random(n)
        outputs = np.column_stack([f0, 1.0 - f0])
        labels = (rng.random(n) > f0).astype(int)
        if np.unique(labels).size < 2:
            return
        pred = bin_aggregate(make_samples(outputs, labels), n_bins=n_bins)
        from labelshift.calibration import estimate_calibration_error

        remapped = pred.remap_matrix(outputs)
        samples = samples_from_outputs(remapped, labels)
        assert estimate_calibration_error(samples).calibration_error < 1e-12


class TestTabular:
    def test_samples_from_outputs(self):
        samples = samples_from_outputs(np.array([[0.3, 0.7]]), np.array([1]))
        assert samples.labels[0] == 1
        assert isinstance(samples, LabeledPredictions)
