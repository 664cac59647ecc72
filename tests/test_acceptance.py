"""Acceptance gate: one test per release criterion, each emitting a PASS/FAIL
line on the real stdout so the verdicts survive pytest's capture.

Criterion 1 checks the six-point counterexample against the instance's unique
likelihood maximiser, which test_diagnostics re-derives at 50 digits. The
reference vector printed for this instance (PUBLISHED_W) is not that maximiser;
the companion test keeps it on record and shows why.
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from labelshift.calibration import bcts_apply_matrix, confusion_row_calibrate, estimate_calibration_error
from labelshift.confusion import ConfusionMatrix, build_hard_confusion, build_soft_confusion
from labelshift.cli import _parse_benchmark_config
from labelshift.diagnostics import (
    check_identifiability,
    compute_bound_terms,
    condition_tau,
    eigenvalue_sandwich_check,
    example1_closed_form,
    gaussian_cdf,
    likelihood_gradient,
    likelihood_hessian,
    log_likelihood,
    second_moment,
)
from labelshift.estimators import bbse, mlls_em, mlls_grad
from labelshift.predictors import GmmSpec, ThresholdPredictorSpec, gmm_posterior, samples_from_outputs, threshold_outputs
from labelshift.simplex import ProbVector, normalized_rows
from labelshift.simulation import run_trials, sample_gmm, target_table_from_outputs
from tests import conftest
from tests.conftest import (
    F_ROWS,
    PS_ROWS,
    UNIFORM_3,
    W_MISCAL_OPT,
    W_STAR_3,
    make_samples,
    random_marginal,
    random_table,
    random_weight,
    worked_instance_target_table,
)

UNIFORM_2 = ProbVector(np.array([0.5, 0.5]))
GMM = GmmSpec(1.0, UNIFORM_2)
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# reference vector printed for the six-point instance; not its maximiser
PUBLISHED_W = np.array([2.505893, 0.240644, 0.253463])


def study_config(name: str):
    """The ExperimentConfig of scripts/<name>.json, as `labelshift benchmark`
    parses it."""
    return _parse_benchmark_config(json.loads((SCRIPTS / f"{name}.json").read_text(encoding="utf-8")))


def verdict(criterion: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def test_criterion_1_counterexample_reproduction():
    """A marginally calibrated predictor makes MLLS inconsistent: on the
    six-point population, the likelihood maximiser w_f stays away from w*."""
    p_x = PS_ROWS @ UNIFORM_3.entries / 2.0
    marginal_gap = float(np.abs(p_x @ F_ROWS - UNIFORM_3.entries).max())
    canonical_error = float(p_x @ ((F_ROWS - PS_ROWS) ** 2).sum(axis=1))
    start = time.perf_counter()
    res = mlls_em(worked_instance_target_table(), UNIFORM_3, max_iters=200_000)
    elapsed = time.perf_counter() - start
    w_f = res.weights.weights
    opt_gap = float(np.abs(w_f - W_MISCAL_OPT).max())
    bias = float(np.linalg.norm(w_f - W_STAR_3))
    ok = (
        marginal_gap <= 1e-12
        and canonical_error > 0
        and opt_gap <= 1e-9
        and bias > 0.05
        and elapsed < 1.0
    )
    verdict(
        "criterion 1 (six-point counterexample)",
        ok,
        f"marginal gap {marginal_gap:.1e}, E[|f-p(y|x)|^2]={canonical_error:.4f}, "
        f"w_f={np.round(w_f, 6).tolist()}, |w_f-w_opt|_inf={opt_gap:.1e}, "
        f"|w_f-w*|={bias:.6f}, {elapsed:.3f}s",
    )
    assert marginal_gap <= 1e-12, "F is not marginally calibrated under the source"
    assert canonical_error > 0, "F equals the source posterior, so it is canonically calibrated"
    assert opt_gap <= 1e-9, "EM does not return the instance's likelihood maximiser"
    # the bias (0.0618) is a population quantity, far above the solver tolerance
    assert bias > 0.05
    assert elapsed < 1.0


def test_criterion_1_companion_corrected_optimum():
    """Keeps the printed reference vector on record: it is not stationary on
    the constraint slice and has a lower likelihood than the unique maximiser
    that EM returns. The maximiser still shows the intended effect: marginal
    calibration alone leaves a bias of about 0.062 from w*, which does not
    vanish with more target data."""
    table = worked_instance_target_table()
    res = mlls_em(table, UNIFORM_3, max_iters=200_000)
    w_f = res.weights.weights
    np.testing.assert_allclose(w_f, W_MISCAL_OPT, atol=1e-9)
    # stationarity on the constraint slice: the tangent gradient vanishes at
    # the frozen optimum but not at the published vector
    p = UNIFORM_3.entries

    def tangent_norm(w):
        g = likelihood_gradient(table, np.asarray(w))
        return float(np.linalg.norm(g - (g @ p) / (p @ p) * p))

    assert tangent_norm(W_MISCAL_OPT) < 1e-9
    assert tangent_norm(PUBLISHED_W) > 1e-3
    assert log_likelihood(table, W_MISCAL_OPT) > log_likelihood(table, PUBLISHED_W)
    bias = float(np.linalg.norm(w_f - W_STAR_3))
    assert 0.05 < bias < 0.1
    verdict(
        "criterion 1 companion (corrected optimum)",
        True,
        f"w_f={np.round(w_f, 7).tolist()}, |w_f-w*|={bias:.6f}, inconsistency reproduced",
    )


def _mlls_error_for_threshold(alpha: float, c: float, m: int, seed_keys) -> float:
    spec = ThresholdPredictorSpec(c)
    marginal = ProbVector(np.array([alpha, 1.0 - alpha]))
    xs, _ = sample_gmm(GMM, marginal, m, *seed_keys)
    table = target_table_from_outputs(threshold_outputs(spec, xs))
    res = mlls_em(table, UNIFORM_2, max_iters=200_000)
    return float(np.abs(res.weights.weights - np.array([2 * alpha, 2 * (1 - alpha)])).sum())


def test_criterion_2_example1_closed_form():
    start = time.time()
    worst = 0.0
    for alpha in (0.1, 0.25, 0.4):
        for c in (0.2, 0.3, 0.7, 0.8):
            emp = _mlls_error_for_threshold(
                alpha, c, 200_000, (124, int(alpha * 100), int(c * 100))
            )
            _, closed = example1_closed_form(alpha, c, 1.0)
            worst = max(worst, abs(emp - closed))
    calib_errors = []
    c_star = gaussian_cdf(1.0)
    for alpha in (0.1, 0.25, 0.4):
        calib_errors.append(
            _mlls_error_for_threshold(alpha, c_star, 200_000, (99, int(alpha * 100)))
        )
    elapsed = time.time() - start
    ok = worst <= 0.02 and max(calib_errors) < 0.02 and elapsed < 30.0
    verdict(
        "criterion 2 (Example 1 closed form)",
        ok,
        f"worst grid gap {worst:.4f} <= 0.02, calibrated-threshold errors "
        f"{[round(e, 4) for e in calib_errors]} < 0.02, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_bbse_population_exactness():
    # population hard confusion of the six-point instance: predictions are the
    # argmax of the F rows, truth columns follow the Ps table
    pred_of_row = F_ROWS.argmax(axis=1)
    joint = np.zeros((3, 3))
    for i in range(6):
        joint[pred_of_row[i]] += PS_ROWS[i] / 6.0
    conf = ConfusionMatrix(joint, UNIFORM_3)
    mu = ProbVector(joint @ W_STAR_3)
    res = bbse(conf, mu)
    gap = float(np.abs(res.weights.weights - W_STAR_3).max())
    ok = gap <= 1e-10
    verdict("criterion 3 (BBSE exactness on population moments)", ok, f"|w-w*|_inf={gap:.2e}")
    assert ok


def test_criterion_4_consistency_rate():
    start = time.time()
    _, rows = run_trials(study_config("consistency_rate"))
    ms = np.array([r.m for r in rows], dtype=float)
    mses = np.array([r.mse for r in rows])
    slope = float(np.polyfit(np.log(ms), np.log(mses), 1)[0])
    elapsed = time.time() - start
    ok = -1.3 <= slope <= -0.7 and elapsed < 60.0
    verdict(
        "criterion 4 (1/m consistency rate)",
        ok,
        f"log-log slope {slope:.3f} in [-1.3, -0.7], mse={np.round(mses, 5).tolist()}, {elapsed:.1f}s",
    )
    assert ok


@pytest.fixture(scope="module")
def severe_shift_rows():
    # trial keys carry the index of m, so m = 1000 alone is drawn at index 0,
    # as these criteria have always drawn it, not at the config's index 1
    cfg = dataclasses.replace(
        study_config("severe_shift"), methods=("mlls_em", "bbse_hard", "mlls_cm"), m_values=(1000,)
    )
    _, rows = run_trials(cfg)
    return {r.method: r for r in rows}


def test_criterion_5_mlls_dominates_bbse_under_severe_shift(severe_shift_rows):
    ratio = severe_shift_rows["mlls_em"].mse / severe_shift_rows["bbse_hard"].mse
    ok = ratio <= 0.8
    verdict(
        "criterion 5 (MLLS dominance, p_t(1)=0.01)",
        ok,
        f"mse ratio mlls_em/bbse_hard = {ratio:.3f} <= 0.8",
    )
    assert ok


def test_criterion_6_mlls_cm_tracks_bbse(severe_shift_rows):
    ratio = severe_shift_rows["mlls_cm"].mse / severe_shift_rows["bbse_hard"].mse
    ok = 0.5 <= ratio <= 2.0
    verdict(
        "criterion 6 (MLLS-CM ≈ BBSE)",
        ok,
        f"mse ratio mlls_cm/bbse_hard = {ratio:.3f} in [0.5, 2.0]",
    )
    assert ok


def test_criterion_7_binning_study():
    start = time.time()
    sigma, mses, stderrs = [], [], []
    for bins in (2, 4, 8, 16):
        _, rows = run_trials(study_config(f"binning_study_bins{bins}"))
        sigma.append(rows[0].mean_min_eig)
        mses.append(rows[0].mse)
        stderrs.append(rows[0].stderr)
    elapsed = time.time() - start
    sigma_increasing = all(a < b for a, b in zip(sigma, sigma[1:]))
    endpoints = mses[-1] < mses[0]
    intermediate = all(
        mses[i + 1] <= mses[i] + stderrs[i] for i in range(len(mses) - 1)
    )
    ok = sigma_increasing and endpoints and intermediate
    verdict(
        "criterion 7 (binning: eigenvalue up, MSE down)",
        ok,
        f"sigma_min={[round(s, 4) for s in sigma]}, mse={[round(m, 6) for m in mses]}, {elapsed:.1f}s",
    )
    assert ok


# ------------------------------------------------------------------ criterion 8


def test_criterion_8a_em_monotone_500_instances():
    failures = 0
    for seed in range(500):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        table = random_table(rng, int(rng.integers(2, 8)), k)
        p = random_marginal(rng, k)
        F, masses = table.support, table.normalized_masses()
        w = np.ones(k)
        prev = None
        for _ in range(30):
            ll = float(masses @ np.log(F @ w))
            if prev is not None and ll < prev - 1e-10:
                failures += 1
                break
            prev = ll
            resp = F * w
            resp /= resp.sum(axis=1)[:, None]
            w = (masses @ resp) / p.entries
    ok = failures == 0
    verdict("criterion 8a (EM monotone, 500 instances)", ok, f"{failures} violations")
    assert ok


def test_criterion_8b_finite_differences_200_instances():
    bad_grad = bad_hess = bad_psd = 0
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        k = int(rng.integers(2, 5))
        table = random_table(rng, int(rng.integers(2, 7)), k)
        p = random_marginal(rng, k)
        w = random_weight(rng, p).weights
        g = likelihood_gradient(table, w)
        H = likelihood_hessian(table, w)
        if float(np.linalg.eigvalsh(-H)[0]) < -1e-8:
            bad_psd += 1
        h = 1e-6
        for j in range(k):
            e = np.zeros(k)
            e[j] = h
            fd = (log_likelihood(table, w + e) - log_likelihood(table, w - e)) / (2 * h)
            if abs(fd - g[j]) > 1e-5 * max(1.0, abs(g[j])):
                bad_grad += 1
        h = 1e-5
        for j in range(k):
            e = np.zeros(k)
            e[j] = h
            fd = (likelihood_gradient(table, w + e) - likelihood_gradient(table, w - e)) / (2 * h)
            if np.any(np.abs(fd - H[:, j]) > 1e-4 * np.maximum(1.0, np.abs(H[:, j]))):
                bad_hess += 1
    ok = bad_grad == 0 and bad_hess == 0 and bad_psd == 0
    verdict(
        "criterion 8b (FD gradient/Hessian + PSD, 200 instances)",
        ok,
        f"grad violations {bad_grad}, hessian violations {bad_hess}, psd violations {bad_psd}",
    )
    assert ok


def _calibrated_samples(rng):
    """Samples grouped by output whose empirical label mix equals the output."""
    k = int(rng.integers(2, 5))
    outputs, labels = [], []
    for _ in range(int(rng.integers(2, 6))):
        denom = int(rng.integers(2, 8))
        counts = rng.multinomial(denom, rng.dirichlet(np.ones(k)))
        vec = counts / denom
        for y in range(k):
            outputs.extend([vec] * counts[y])
            labels.extend([y] * counts[y])
    return make_samples(outputs, labels)


def test_criterion_8c_soft_confusion_is_second_moment():
    failures = 0
    for seed in range(200):
        rng = np.random.default_rng(2000 + seed)
        samples = _calibrated_samples(rng)
        if not samples:
            continue
        conf = build_soft_confusion(samples)
        if np.abs(conf.joint - second_moment(samples.outputs)).max() > 1e-12:
            failures += 1
    ok = failures == 0
    verdict(
        "criterion 8c (soft confusion = E[f f^T] for calibrated predictors)",
        ok,
        f"{failures} violations over 200 instances",
    )
    assert ok


def test_criterion_8d_confusion_row_calibrate_zero_error():
    failures = 0
    checked = 0
    for seed in range(200):
        rng = np.random.default_rng(3000 + seed)
        k = int(rng.integers(2, 4))
        n = int(rng.integers(2 * k, 40))
        outputs = rng.dirichlet(np.ones(k), size=n)
        labels = rng.integers(0, k, size=n)
        samples = samples_from_outputs(outputs, labels)
        conf = build_hard_confusion(samples)
        if np.any(conf.joint.sum(axis=1) == 0):
            continue
        table = confusion_row_calibrate(conf)
        support_bytes = {row.tobytes() for row in table.support}
        # remap each sample's output to its hard prediction's calibrated row
        row_by_pred = conf.joint / conf.joint.sum(axis=1)[:, None]
        cal = normalized_rows(row_by_pred[samples.outputs.argmax(axis=1)], tol=1e-9)
        assert {row.tobytes() for row in cal} <= support_bytes
        remapped = make_samples(cal, samples.labels)
        if estimate_calibration_error(remapped).calibration_error > 1e-12:
            failures += 1
        checked += 1
    ok = failures == 0 and checked > 100
    verdict(
        "criterion 8d (confusion-row calibration has zero empirical error)",
        ok,
        f"{failures} violations over {checked} instances",
    )
    assert ok


def test_criterion_8e_eigenvalue_sandwich_1000_instances():
    failures = 0
    checked = 0
    for seed in range(1000):
        rng = np.random.default_rng(4000 + seed)
        k = int(rng.integers(2, 5))
        table = random_table(rng, int(rng.integers(2, 9)), k)
        p = random_marginal(rng, k)
        w = random_weight(rng, p)
        if condition_tau(table, w) <= 0:
            continue
        if not eigenvalue_sandwich_check(table, w, p):
            failures += 1
        checked += 1
    ok = failures == 0 and checked >= 900
    verdict(
        "criterion 8e (eigenvalue sandwich, 1000 instances)",
        ok,
        f"{failures} violations over {checked} feasible instances",
    )
    assert ok


def test_criterion_8f_em_grad_agreement_100_instances():
    tol = 1e-8
    failures = 0
    worst = 0.0
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        rng = np.random.default_rng(5000 + seed)
        k = int(rng.integers(2, 4))
        table = random_table(rng, k + 2, k)
        certified, min_eig = check_identifiability(table)
        if not certified or min_eig <= 1e-6:
            continue
        p = random_marginal(rng, k)
        em = mlls_em(table, p, max_iters=100_000)
        gr = mlls_grad(table, p, max_iters=100_000)
        gap = float(np.abs(em.weights.weights - gr.weights.weights).max())
        worst = max(worst, gap)
        if gap > 10 * tol:
            failures += 1
        checked += 1
    ok = failures == 0
    verdict(
        "criterion 8f (EM/gradient agreement within 10*tol, 100 instances)",
        ok,
        f"{failures} disagreements, worst gap {worst:.2e} vs {10 * tol:.0e}",
    )
    assert ok


def test_criterion_8g_miscalibration_scaling():
    cases = []
    for temperature in ("1", "1.5", "3"):  # t1 has no miscalibration key
        cfg = study_config(f"miscalibration_study_t{temperature}")
        _, rows = run_trials(cfg)
        # measured calibration error sqrt(E_s ||f_T - f||^2): the distortion is
        # invertible, so the canonical posterior given f_T is the clean posterior
        xs, _ = sample_gmm(GMM, UNIFORM_2, 200_000, 777, 0)
        clean = gmm_posterior(GMM, xs)
        out = clean if cfg.miscalibration is None else bcts_apply_matrix(cfg.miscalibration, clean)
        calib_error = float(np.sqrt(np.mean(((out - clean) ** 2).sum(axis=1))))
        bound = compute_bound_terms(
            sigma_min_c=0.25,
            sigma_min_f=0.25,
            tau=0.5,
            calib_error=calib_error,
            w_star_norm=float(np.linalg.norm([1.8, 0.2])),
            m=2000,
            n=2000,
            delta=0.05,
        )
        cases.append((calib_error, rows[0].mse, bound.total))
    errors_increase = all(a[0] < b[0] for a, b in zip(cases, cases[1:]))
    mse_increases = all(a[1] < b[1] for a, b in zip(cases, cases[1:]))
    bound_tracks = all(a[2] < b[2] for a, b in zip(cases, cases[1:]))
    ok = errors_increase and mse_increases and bound_tracks
    verdict(
        "criterion 8g (error-bound ordering under miscalibration)",
        ok,
        f"(E, mse, bound) by temperature: {[(round(e, 3), round(m, 4), round(b, 3)) for e, m, b in cases]}",
    )
    assert ok
