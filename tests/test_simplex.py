import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelshift.errors import InputError
from labelshift.simplex import (
    SIMPLEX_TOL,
    LabeledPredictions,
    PredictorTable,
    ProbVector,
    WeightVector,
    grouped_table,
    project_to_weight_simplex,
    weights_to_target_marginal,
)


class TestProbVector:
    def test_valid(self):
        p = ProbVector(np.array([0.25, 0.75]))
        assert p.k == 2
        assert p.entries.sum() == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            ProbVector(np.array([-0.1, 1.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(InputError):
            ProbVector(np.array([0.5, 0.6]))

    def test_sum_tolerance_is_tight(self):
        ProbVector(np.array([0.5, 0.5 + 0.5 * SIMPLEX_TOL]))
        with pytest.raises(InputError):
            ProbVector(np.array([0.5, 0.5 + 1e-8]))

    def test_normalized_repairs_small_drift(self):
        p = ProbVector.normalized(np.array([0.5, 0.5 + 1e-7]), tol=1e-6)
        assert p.entries.sum() == pytest.approx(1.0, abs=1e-15)

    def test_normalized_rejects_large_drift(self):
        with pytest.raises(InputError):
            ProbVector.normalized(np.array([0.5, 0.6]), tol=1e-6)

    def test_frozen_and_read_only(self):
        p = ProbVector(np.array([0.3, 0.7]))
        with pytest.raises((AttributeError, ValueError)):
            p.entries[0] = 0.0


class TestWeightVector:
    def test_constraint_enforced(self):
        p = ProbVector(np.array([0.5, 0.5]))
        WeightVector(np.array([0.5, 1.5]), p)
        with pytest.raises(InputError):
            WeightVector(np.array([0.5, 1.0]), p)

    def test_nonnegativity_enforced_by_default(self):
        p = ProbVector(np.array([0.5, 0.5]))
        with pytest.raises(InputError):
            WeightVector(np.array([-0.5, 2.5]), p)
        w = WeightVector(np.array([-0.5, 2.5]), p, check_nonneg=False)
        assert w.weights[0] == -0.5

    def test_target_marginal(self):
        p = ProbVector(np.array([0.5, 0.5]))
        w = WeightVector(np.array([0.5, 1.5]), p)
        q = weights_to_target_marginal(w)
        np.testing.assert_allclose(q.entries, [0.25, 0.75])


class TestLabeledPredictions:
    def test_label_bounds(self):
        out = np.array([[0.2, 0.8]])
        assert LabeledPredictions(out, [1]).labels[0] == 1
        with pytest.raises(InputError):
            LabeledPredictions(out, [2])
        with pytest.raises(InputError):
            LabeledPredictions(out, [-1])


class TestPredictorTable:
    def test_grouped_table_merges_bitwise_duplicates(self):
        a = np.array([0.3, 0.7])
        t = grouped_table([a, np.array([0.6, 0.4]), a.copy()], [1.0, 2.0, 3.0], "count")
        assert len(t.support) == 2
        merged = dict(zip(map(tuple, t.support), t.masses))
        assert merged[(0.3, 0.7)] == 4.0

    def test_normalized_masses(self):
        t = grouped_table([np.array([0.3, 0.7]), np.array([0.6, 0.4])], [1.0, 3.0], "count")
        np.testing.assert_allclose(t.normalized_masses(), [0.25, 0.75])

    def test_probability_kind_must_sum_to_one(self):
        with pytest.raises(InputError):
            grouped_table([np.array([0.3, 0.7])], [0.5], "probability")

    def test_rejects_duplicate_support(self):
        out = np.array([0.3, 0.7])
        with pytest.raises(InputError):
            PredictorTable(np.array([out, out]), np.array([0.5, 0.5]), "probability")


def _k2_feasible(w, p):
    return w[0] >= -1e-12 and w[1] >= -1e-12 and abs(w @ p - 1.0) < 1e-9


class TestProjection:
    def test_known_values(self):
        p = ProbVector(np.array([0.5, 0.5]))
        np.testing.assert_allclose(
            project_to_weight_simplex(np.array([3.0, 1.0]), p).weights, [2.0, 0.0], atol=1e-12
        )
        np.testing.assert_allclose(
            project_to_weight_simplex(np.array([-1.0, -1.0]), p).weights, [1.0, 1.0], atol=1e-12
        )

    def test_interior_point_is_fixed(self):
        p = ProbVector(np.array([0.4, 0.6]))
        w = np.array([0.7, 1.2])
        np.testing.assert_allclose(project_to_weight_simplex(w, p).weights, w, atol=1e-12)

    @given(
        v0=st.floats(-5, 5),
        v1=st.floats(-5, 5),
        p0=st.floats(0.05, 0.95),
    )
    @settings(max_examples=200, deadline=None)
    def test_projection_beats_fine_grid(self, v0, v1, p0):
        # For k=2 the slice is a segment; compare against a dense sweep of it.
        p = ProbVector(np.array([p0, 1.0 - p0]))
        v = np.array([v0, v1])
        w = project_to_weight_simplex(v, p).weights
        assert _k2_feasible(w, p.entries)
        best = float(((w - v) ** 2).sum())
        for w0 in np.linspace(0.0, 1.0 / p0, 2001):
            cand = np.array([w0, (1.0 - w0 * p0) / (1.0 - p0)])
            if cand[1] < 0:
                continue
            assert best <= float(((cand - v) ** 2).sum()) + 1e-9

    @given(
        k=st.integers(2, 6),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_projection_feasible_and_idempotent(self, k, seed):
        rng = np.random.default_rng(seed)
        p = ProbVector.normalized(rng.dirichlet(np.ones(k)) + 0.02, tol=1.0)
        v = rng.normal(scale=3.0, size=k)
        w = project_to_weight_simplex(v, p)
        assert np.all(w.weights >= 0)
        assert abs(w.weights @ p.entries - 1.0) < 1e-9
        w2 = project_to_weight_simplex(w.weights, p)
        np.testing.assert_allclose(w2.weights, w.weights, atol=1e-9)

    @given(k=st.integers(2, 6), seed=st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_projection_is_nonexpansive(self, k, seed):
        rng = np.random.default_rng(seed)
        p = ProbVector.normalized(rng.dirichlet(np.ones(k)) + 0.02, tol=1.0)
        a = rng.normal(scale=3.0, size=k)
        b = rng.normal(scale=3.0, size=k)
        pa = project_to_weight_simplex(a, p).weights
        pb = project_to_weight_simplex(b, p).weights
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-9
