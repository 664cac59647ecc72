import numpy as np
import pytest

from labelshift import simulation
from labelshift.errors import InputError
from labelshift.predictors import GmmSpec, gmm_posterior
from labelshift.simplex import ProbVector
from labelshift.simulation import (
    AggregateRow,
    ExperimentConfig,
    ShiftSpec,
    aggregate_to_csv,
    draw_trial,
    rng_for,
    run_single_trial,
    run_trials,
    sample_gmm,
    target_table_from_outputs,
)
from tests.conftest import face_rlls

UNIFORM_2 = ProbVector(np.array([0.5, 0.5]))
GMM = GmmSpec(mu=1.0, source_marginal=UNIFORM_2)


def small_config(**overrides):
    base = dict(
        gmm=GMM,
        shifts=(ShiftSpec(mode="dirichlet", alpha=1.0),),
        methods=("bbse_hard", "mlls_em"),
        m_values=(200,),
        n_trials=2,
        base_seed=42,
        n_source=300,
        max_iters=2000,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRngStreams:
    def test_same_keys_same_stream(self):
        a = rng_for(7, 1, 2).random(5)
        b = rng_for(7, 1, 2).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ(self):
        a = rng_for(7, 1, 2).random(5)
        b = rng_for(7, 1, 3).random(5)
        assert not np.array_equal(a, b)

    def test_base_seed_matters(self):
        a = rng_for(7, 1).random(5)
        b = rng_for(8, 1).random(5)
        assert not np.array_equal(a, b)


class TestSampling:
    def test_gmm_is_deterministic(self):
        xs1, ys1 = sample_gmm(GMM, UNIFORM_2, 100, 5, 0)
        xs2, ys2 = sample_gmm(GMM, UNIFORM_2, 100, 5, 0)
        np.testing.assert_array_equal(xs1, xs2)
        np.testing.assert_array_equal(ys1, ys2)

    def test_gmm_class_means(self):
        xs, ys = sample_gmm(GMM, UNIFORM_2, 50_000, 11, 0)
        assert xs[ys == 0].mean() == pytest.approx(1.0, abs=0.05)
        assert xs[ys == 1].mean() == pytest.approx(-1.0, abs=0.05)
        assert ys.mean() == pytest.approx(0.5, abs=0.02)

    def test_gmm_respects_marginal(self):
        skew = ProbVector(np.array([0.9, 0.1]))
        _, ys = sample_gmm(GMM, skew, 50_000, 13, 0)
        assert ys.mean() == pytest.approx(0.1, abs=0.01)

    def test_dirichlet_shift_simplex(self):
        q = ShiftSpec("dirichlet", alpha=0.5).draw(4, rng_for(3, 0))
        assert q.k == 4
        assert q.entries.sum() == pytest.approx(1.0)

    def test_target_table_merges(self):
        outputs = np.array([[0.3, 0.7], [0.3, 0.7], [0.6, 0.4]])
        table = target_table_from_outputs(outputs)
        assert len(table.support) == 2
        assert table.masses.sum() == pytest.approx(3.0)


class TestShiftSpec:
    def test_validation(self):
        with pytest.raises(InputError):
            ShiftSpec(mode="dirichlet")
        with pytest.raises(InputError):
            ShiftSpec(mode="dirichlet", alpha=0.0)
        for alpha in (np.nan, np.inf):
            with pytest.raises(InputError, match="finite alpha"):
                ShiftSpec(mode="dirichlet", alpha=alpha)
        with pytest.raises(InputError):
            ShiftSpec(mode="explicit")
        with pytest.raises(InputError):
            ShiftSpec(mode="magic", alpha=1.0)

    def test_param_labels(self):
        assert ShiftSpec(mode="dirichlet", alpha=0.5).param_label == "alpha=0.5"
        spec = ShiftSpec(mode="explicit", target_marginal=ProbVector(np.array([0.9, 0.1])))
        assert spec.param_label == "pt=0.9,0.1"

    def test_explicit_draw_is_constant(self):
        spec = ShiftSpec(mode="explicit", target_marginal=ProbVector(np.array([0.9, 0.1])))
        q = spec.draw(2, rng_for(0, 0))
        np.testing.assert_allclose(q.entries, [0.9, 0.1])


class TestTrials:
    def test_single_trial_deterministic(self):
        cfg = small_config()
        r1 = run_single_trial(cfg, 0, 0, 0)
        r2 = run_single_trial(cfg, 0, 0, 0)
        assert len(r1) == len(r2) == len(cfg.methods)
        for a, b in zip(r1, r2):
            assert a.method == b.method
            assert a.squared_error == b.squared_error
            np.testing.assert_array_equal(a.w_hat.weights, b.w_hat.weights)

    def test_w_star_comes_from_the_drawn_target_marginal(self):
        p_s = ProbVector(np.array([0.3, 0.7]))
        cfg = small_config(gmm=GmmSpec(1.0, p_s), shifts=(ShiftSpec("dirichlet", alpha=0.5),))
        for trial in range(3):
            p_t, *_ = draw_trial(cfg.gmm, cfg.shifts[0], cfg.n_source, 200, cfg.base_seed, 0, 0, trial)
            ratio = p_t.entries / p_s.entries
            for rep in run_single_trial(cfg, 0, 0, trial):
                np.testing.assert_array_equal(rep.w_star.weights, ratio / (ratio @ p_s.entries))

    def test_draw_trial_is_its_streams(self):
        # stream 0 draws p_t, stream 1 the source rows and stream 2 the target rows
        shift = ShiftSpec("dirichlet", alpha=1.0)
        p_t, src_outputs, src_labels, tgt_outputs = draw_trial(GMM, shift, 30, 20, 9, 4)
        np.testing.assert_array_equal(p_t.entries, shift.draw(2, rng_for(9, 4, 0)).entries)
        src_x, labels = sample_gmm(GMM, UNIFORM_2, 30, 9, 4, 1)
        np.testing.assert_array_equal(src_labels, labels)
        np.testing.assert_array_equal(src_outputs, gmm_posterior(GMM, src_x))
        np.testing.assert_array_equal(tgt_outputs, gmm_posterior(GMM, sample_gmm(GMM, p_t, 20, 9, 4, 2)[0]))

    def test_trial_reports_are_finite(self):
        for rep in run_single_trial(small_config(), 0, 0, 1):
            assert np.isfinite(rep.squared_error)
            assert rep.error_message is None

    def test_squared_error_definition(self):
        for rep in run_single_trial(small_config(), 0, 0, 0):
            expect = float(((rep.w_hat.weights - rep.w_star.weights) ** 2).sum())
            assert rep.squared_error == pytest.approx(expect, abs=1e-12)

    def test_worker_count_does_not_change_results(self):
        # every trial reproduces from its key, so a rerun returns the same sweep
        cfg = small_config(n_trials=3)
        first_reports, first_rows = run_trials(cfg)
        again_reports, again_rows = run_trials(cfg)
        assert len(first_reports) == len(again_reports) == 3 * len(cfg.methods)
        for a, b in zip(first_reports, again_reports):
            assert a.method == b.method and a.squared_error == b.squared_error
            assert a.seed == b.seed
        assert first_rows == again_rows

    def test_aggregate_statistics(self):
        cfg = small_config(n_trials=4)
        reports, rows = run_trials(cfg)
        for row in rows:
            errs = [
                r.squared_error
                for r in reports
                if r.method == row.method and r.m == row.m
            ]
            assert row.mse == pytest.approx(np.mean(errs))
            assert row.stderr == pytest.approx(np.std(errs, ddof=1) / np.sqrt(len(errs)))
            assert row.n_failed == 0

    def test_non_converged_result_is_a_failed_report(self, monkeypatch):
        # mlls_em and rlls both return converged=False; each counts as a
        # failure. One step solves no trial's likelihood, and rlls is given
        # the face instance, which needs two (see conftest).
        monkeypatch.setattr(simulation, "rlls", face_rlls)
        cfg = small_config(methods=("mlls_em", "rlls"), max_iters=1)
        for rep in run_single_trial(cfg, 0, 0, 0):
            assert rep.w_hat is None
            assert np.isnan(rep.squared_error)
            assert "did not converge" in rep.error_message
        _, rows = run_trials(cfg)
        assert all(row.n_failed == cfg.n_trials for row in rows)

    def test_config_validation(self):
        with pytest.raises(InputError):
            small_config(methods=())
        with pytest.raises(InputError):
            small_config(n_trials=0)

    @pytest.mark.parametrize(
        "overrides",
        [{"methods": ("bbse_hard", "mlls")}, {"rlls_lambda": -1e-3}, {"max_iters": 0},
         {"shifts": ()}, {"m_values": ()}, {"m_values": (100, 0)}, {"base_seed": -1},
         {"base_seed": 2 ** 64}],
        ids=["unknown_method", "negative_lambda", "no_budget", "no_shifts", "no_m_values", "zero_m",
             "negative_seed", "seed_beyond_64_bits"],
    )
    def test_config_rejects_before_any_trial(self, overrides):
        with pytest.raises(InputError):
            small_config(**overrides)

    def test_csv_round_shape(self):
        rows = [AggregateRow("alpha=1", "bbse_hard", 100, 5, 0.25, 0.01),
                AggregateRow("pt=0.99,0.01", "mlls_em", 100, 5, 0.5, 0.02)]
        csv = aggregate_to_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "shift_param,method,m,n_trials,n_failed,mse,stderr"
        assert lines[1] == "alpha=1,bbse_hard,100,5,0,0.25,0.01"
        assert lines[2] == '"pt=0.99,0.01",mlls_em,100,5,0,0.5,0.02'  # a comma is quoted

    def test_binned_csv_ends_in_mean_min_eig(self):
        _, rows = run_trials(small_config(bins=4))
        header, *lines = aggregate_to_csv(rows).splitlines()
        assert header == "shift_param,method,m,n_trials,n_failed,mse,stderr,mean_min_eig"
        assert [line.split(",")[-1] for line in lines] == [f"{r.mean_min_eig:.10g}" for r in rows]
