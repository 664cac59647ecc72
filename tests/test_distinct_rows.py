"""Distinct rows with counts stand for the rows they expand to.

Every consumer of labelled rows weights each row by its count, so a file's
distinct lines with their line counts give what its lines give one by one:
to 1e-12, and bit for bit where every count is 1 and the sum keeps its
order. The CLI reads distinct lines, so its output must not depend on which
reader path a file takes, on the string-hash seed, or on what the process
allocated before the call.
"""
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import labelshift.io
from labelshift.calibration import bcts_fit, estimate_calibration_error
from labelshift.cli import main
from labelshift.confusion import build_hard_confusion, build_soft_confusion
from labelshift.diagnostics import check_identifiability, second_moment
from labelshift.errors import InputError
from labelshift.io import write_prediction_file
from labelshift.predictors import bin_aggregate
from labelshift.simplex import LabeledPredictions, column_sums, row_argmax

SRC = Path(__file__).resolve().parent.parent / "src"


@st.composite
def counted_rows(draw):
    """(distinct rows, labels, counts): d rows on the k-simplex drawn from a
    few values, so that equal rows with different labels occur, and counts
    from 1 to 6."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    k = draw(st.integers(2, 5))
    d = draw(st.integers(1, 30))
    rng = np.random.default_rng(seed)
    pool = rng.dirichlet(np.ones(k), size=max(1, d // 2))
    rows = pool[rng.integers(0, pool.shape[0], d)]
    labels = rng.integers(0, k, d)
    labels[: min(d, k)] = np.arange(min(d, k))  # most classes appear
    counts = rng.integers(1, 7, d).astype(float)
    return rows, labels, counts


def expanded(rows, labels, counts):
    """The same examples with one row each, in the order of the distinct rows."""
    reps = counts.astype(int)
    return LabeledPredictions(np.repeat(rows, reps, axis=0), np.repeat(labels, reps))


class TestCountsAgainstExpandedRows:
    @settings(max_examples=150, deadline=None)
    @given(data=counted_rows())
    def test_every_counted_consumer(self, data):
        rows, labels, counts = data
        counted, ones = LabeledPredictions(rows, labels, counts), expanded(rows, labels, counts)
        for build in (build_hard_confusion, build_soft_confusion):
            np.testing.assert_allclose(build(counted).joint, build(ones).joint, rtol=0, atol=1e-12)
        np.testing.assert_allclose(second_moment(counted), second_moment(ones), rtol=0, atol=1e-12)
        eig = check_identifiability(counted)[1]
        assert eig == pytest.approx(check_identifiability(ones)[1], rel=1e-12, abs=1e-13)
        err = estimate_calibration_error(counted)
        ref = estimate_calibration_error(ones)
        assert err.calibration_error == pytest.approx(ref.calibration_error, rel=0, abs=1e-12)
        np.testing.assert_allclose(err.masses, ref.masses, rtol=0, atol=1e-12)
        if rows.shape[1] == 2:
            for n_bins in (1, 3, 8):
                got, want = bin_aggregate(counted, n_bins), bin_aggregate(ones, n_bins)
                np.testing.assert_allclose(got.bin_outputs, want.bin_outputs, rtol=0, atol=1e-12)
                np.testing.assert_allclose(got.table.masses, want.table.masses, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("loss", ["nll", "mse"])
    @pytest.mark.parametrize("k", [2, 4])
    def test_bcts_fit(self, loss, k):
        rng = np.random.default_rng(k)
        support = rng.dirichlet(np.ones(k), size=25)
        idx = rng.integers(0, 25, 600)
        labels = np.minimum((rng.random(600)[:, None] >= np.cumsum(support[idx], axis=1)).sum(axis=1), k - 1)
        pairs, first, index = np.unique(idx * k + labels, return_index=True, return_inverse=True)
        counted = LabeledPredictions(support[idx[first]], labels[first], np.bincount(index))
        got = bcts_fit(counted, loss=loss)
        want = bcts_fit(LabeledPredictions(support[idx], labels), loss=loss)
        assert got.converged and want.converged and pairs.size < 100
        assert got.params.temperature == pytest.approx(want.params.temperature, rel=1e-12)
        np.testing.assert_allclose(got.params.biases, want.params.biases, rtol=0, atol=1e-12)

    def test_bcts_fit_counts_lines_for_its_size_check(self):
        rows = np.array([[0.7, 0.3], [0.2, 0.8]])
        assert bcts_fit(LabeledPredictions(rows, [0, 1], [2, 1])).converged  # 3 examples for k + 1 = 3
        with pytest.raises(InputError, match=r"need at least k\+1=3 validation samples"):
            bcts_fit(LabeledPredictions(rows, [0, 1]))

    @settings(max_examples=100, deadline=None)
    @given(data=counted_rows())
    def test_counts_of_one_keep_the_row_formulas_bits(self, data):
        rows, labels, _ = data
        samples = LabeledPredictions(rows, labels)
        n, k = rows.shape
        hard = np.zeros((k, k))
        np.add.at(hard, (row_argmax(rows), labels), 1.0)
        hard /= n
        soft = np.zeros((k, k))
        for j in range(k):
            if (labels == j).any():
                soft[:, j] = column_sums(rows[labels == j])
        soft /= n
        scaled = rows * np.sqrt(np.full(n, 1.0 / n))[:, None]
        assert build_hard_confusion(samples).joint.tobytes() == hard.tobytes()
        assert build_soft_confusion(samples).joint.tobytes() == soft.tobytes()
        assert second_moment(samples).tobytes() == (scaled.T @ scaled).tobytes()
        assert second_moment(rows).tobytes() == (scaled.T @ scaled).tobytes()


def write_repeated_files(directory: Path, seed: int = 3) -> list:
    """A labelled source and a target of 3,000 lines each, drawn from 40
    calibrated 4-class outputs: mostly repeated lines."""
    rng = np.random.default_rng(seed)
    support = rng.dirichlet(np.ones(4), size=40)
    src = support[rng.integers(0, 40, 3000)]
    labels = np.minimum((rng.random(3000)[:, None] >= np.cumsum(src, axis=1)).sum(axis=1), 3)
    write_prediction_file(directory / "s.csv", src, labels)
    write_prediction_file(directory / "t.csv", support[rng.integers(0, 40, 3000)])
    return ["--source", str(directory / "s.csv"), "--target", str(directory / "t.csv")]


def stdout_of(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def numbers(text: str) -> np.ndarray:
    """Every number of a JSON document, in key order."""
    def flat(x):
        if isinstance(x, dict):
            return [v for key in sorted(x) for v in flat(x[key])]
        if isinstance(x, list):
            return [v for item in x for v in flat(item)]
        return [float(x)] if isinstance(x, (int, float)) and not isinstance(x, bool) else []

    return np.array(flat(json.loads(text)))


class TestCliOnDistinctLines:
    @pytest.mark.parametrize("method", ["bbse_soft", "mlls_grad", "mlls_cm"])
    def test_both_reader_paths_give_one_estimate(self, tmp_path, monkeypatch, method):
        files = write_repeated_files(tmp_path)
        argv = ["estimate", *files, "--method", method]
        repeated = stdout_of(argv)
        monkeypatch.setattr(labelshift.io, "PROBE_LINES", 1)  # a one-line probe never repeats
        parsed_whole = stdout_of(argv)
        np.testing.assert_allclose(numbers(parsed_whole), numbers(repeated), rtol=1e-12, atol=1e-12)

    def test_repeats_in_one_process_print_the_same_bytes(self, tmp_path):
        files = write_repeated_files(tmp_path)
        calls = [["estimate", *files, "--method", "mlls_grad"], ["diagnose", *files, "--method", "mlls_grad"]]
        first = [stdout_of(argv) for argv in calls]
        held = []
        for i in range(20):
            held.append(np.ones(1 + 997 * i))  # move where later arrays are allocated
            assert [stdout_of(argv) for argv in calls] == first

    def test_string_hash_seed_does_not_reach_the_output(self, tmp_path):
        files = write_repeated_files(tmp_path)
        script = (
            "import sys\nfrom labelshift.cli import main\n"
            "for c in ('estimate', 'diagnose'):\n"
            "    assert main([c, *sys.argv[1:], '--method', 'mlls_grad']) == 0\n"
        )
        outs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", script, *files], capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0].count("\n") == 2
