import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelshift.confusion import (
    ConfusionMatrix,
    build_hard_confusion,
    build_soft_confusion,
    build_target_prediction_marginal,
)
from labelshift.diagnostics import second_moment
from labelshift.errors import InputError
from labelshift.simplex import ProbVector, grouped_table
from labelshift.simulation import target_table_from_outputs
from tests.conftest import make_samples


def hand_samples():
    """Ten samples whose hard confusion is [[0.4, 0.1], [0.1, 0.4]]."""
    outputs, labels = [], []
    for _ in range(4):
        outputs.append([0.9, 0.1]); labels.append(0)
    outputs.append([0.9, 0.1]); labels.append(1)
    outputs.append([0.1, 0.9]); labels.append(0)
    for _ in range(4):
        outputs.append([0.1, 0.9]); labels.append(1)
    return make_samples(outputs, labels)


class TestHardConfusion:
    def test_hand_example(self):
        conf = build_hard_confusion(hand_samples())
        np.testing.assert_allclose(conf.joint, [[0.4, 0.1], [0.1, 0.4]])
        np.testing.assert_allclose(conf.column_marginal.entries, [0.5, 0.5])

    def test_argmax_tie_goes_to_lowest_index(self):
        conf = build_hard_confusion(make_samples([[0.5, 0.5]], [1]))
        np.testing.assert_allclose(conf.joint, [[0.0, 1.0], [0.0, 0.0]])

    def test_rows_are_prediction_indexed(self):
        # One sample predicted 1 with true label 0 must land at joint[1][0].
        conf = build_hard_confusion(make_samples([[0.2, 0.8]], [0]))
        assert conf.joint[1][0] == 1.0


class TestSoftConfusion:
    def test_hand_example(self):
        samples = make_samples([[0.8, 0.2], [0.4, 0.6]], [0, 1])
        conf = build_soft_confusion(samples)
        np.testing.assert_allclose(conf.joint, [[0.4, 0.2], [0.1, 0.3]])

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=100, deadline=None)
    def test_equals_second_moment_for_calibrated_samples(self, seed):
        # When empirical label frequencies within each output group equal the
        # output itself, E[f_i 1{y=j}] = E[f_i f_j] holds exactly: the soft
        # confusion coincides with the predictor's second-moment matrix.
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        outputs, labels = [], []
        for _ in range(int(rng.integers(2, 6))):
            denom = int(rng.integers(2, 7))
            counts = rng.multinomial(denom, rng.dirichlet(np.ones(k)))
            vec = counts / denom
            for y in range(k):
                outputs.extend([vec] * counts[y])
                labels.extend([y] * counts[y])
        if not outputs:
            return
        samples = make_samples(outputs, labels)
        conf = build_soft_confusion(samples)
        M = second_moment(samples.outputs)
        np.testing.assert_allclose(conf.joint, M, atol=1e-12)


class TestTargetMarginal:
    def test_hard(self):
        outs = np.array([[0.9, 0.1], [0.2, 0.8], [0.1, 0.9], [0.3, 0.7]])
        mu = build_target_prediction_marginal(target_table_from_outputs(outs), "hard")
        np.testing.assert_allclose(mu.entries, [0.25, 0.75])

    def test_soft(self):
        outs = np.array([[0.9, 0.1], [0.1, 0.9]])
        mu = build_target_prediction_marginal(target_table_from_outputs(outs), "soft")
        np.testing.assert_allclose(mu.entries, [0.5, 0.5])

    @pytest.mark.parametrize("kind", ["hard", "soft"])
    def test_masses_weight_the_support(self, kind):
        # a count table over two rows equals the table of its rows repeated
        support = np.array([[0.9, 0.1], [0.2, 0.8]])
        grouped = grouped_table(support, np.array([3.0, 1.0]))
        repeated = target_table_from_outputs(support[[0, 0, 0, 1]])
        mu = build_target_prediction_marginal(grouped, kind)
        np.testing.assert_allclose(mu.entries, build_target_prediction_marginal(repeated, kind).entries)
        np.testing.assert_allclose(mu.entries, [0.75, 0.25] if kind == "hard" else [0.725, 0.275])

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            build_target_prediction_marginal(target_table_from_outputs(np.array([[0.5, 0.5]])), "fuzzy")


class TestConfusionMatrixValidation:
    def test_rejects_negative_entry(self):
        with pytest.raises(InputError):
            ConfusionMatrix(
                np.array([[-0.1, 0.6], [0.3, 0.2]]), ProbVector(np.array([0.2, 0.8]))
            )

    def test_rejects_total_not_one(self):
        with pytest.raises(InputError):
            ConfusionMatrix(
                np.array([[0.4, 0.1], [0.1, 0.2]]), ProbVector(np.array([0.5, 0.3]))
            )

    def test_rejects_column_marginal_mismatch(self):
        with pytest.raises(InputError):
            ConfusionMatrix(
                np.array([[0.4, 0.1], [0.1, 0.4]]), ProbVector(np.array([0.3, 0.7]))
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, bad):
        with pytest.raises(InputError, match="non-finite"):
            ConfusionMatrix(np.array([[bad, 0.1], [0.1, 0.4]]), ProbVector(np.array([0.5, 0.5])))

    @pytest.mark.parametrize("shape", [(2,), (0, 2), (2, 3), (2, 2, 1)])
    def test_rejects_shape_that_is_not_latent_by_class(self, shape):
        with pytest.raises(InputError, match="shape"):
            ConfusionMatrix(np.full(shape, 0.25), ProbVector(np.array([0.5, 0.5])))

    def test_empty_samples(self):
        with pytest.raises(InputError):
            build_hard_confusion(make_samples(np.empty((0, 2)), []))
