import codecs
import contextlib
import csv
import io
import itertools
import json
import os
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import labelshift.cli
import labelshift.io
import labelshift.simulation
from labelshift.calibration import BctsParams
from labelshift.cli import ESTIMATE_SETTINGS, _parse_benchmark_config, main
from labelshift.errors import InputError
from labelshift.estimators import METHODS, EstimateResult
from labelshift.io import (
    CHUNK_BYTES,
    PROBE_LINES,
    WRITE_CHUNK_ROWS,
    _read_rows,
    read_prediction_file,
    read_predictions,
    write_prediction_file,
)
from labelshift.predictors import GmmSpec
from labelshift.simplex import ProbVector, WeightVector
from labelshift.simulation import MEMORY_BYTES, ExperimentConfig, ShiftSpec, draw_trial
from tests.conftest import F_ROWS, PS_ROWS, W_MISCAL_OPT, face_rlls, time_bound

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def read_lines(path):
    """(outputs, labels or None, class names) of a prediction file, one row
    per data line: its distinct rows indexed by its line index."""
    out, labels, index, names = read_prediction_file(path)
    return out[index], None if labels is None else labels[index], names
# rows that all differ: as a probe they choose the parse of every line
DISTINCT_ROWS = "".join(f"{i / PROBE_LINES!r},{1 - i / PROBE_LINES!r}\n" for i in range(PROBE_LINES))


# Cells both readers must treat alike: tokens that float()/int() and a C parser
# may read differently, and values at the edges of the checks.
ZEROS = ["0", "-0.0", "1e-300", "1e-301", "5e-324", "-1e-7"]
FAULTS = (
    [("space", None), ("sum", None), ("negative", None), ("columns", None)]
    + [("prob", t) for t in ["1_0", "0x1p-1", "nan", "inf", "-inf", "1e400", "", "-1e-5"]]
    + [("label", t) for t in ["1.0", "1e0", "1_0", "-1", "9" * 25, "", "K"]]  # K: the class count
)


@st.composite
def prediction_csv_text(draw):
    """CSV text, k in 2..4: a valid file, or one with one fault in one row.
    Often the body is drawn from a pool of one or two of its rows, so that
    lines repeat and the reader parses each distinct line once."""
    k = draw(st.integers(2, 4))
    has_label = draw(st.booleans())
    n = draw(st.integers(0, 6))
    fault, token = draw(st.sampled_from([(None, None)] * len(FAULTS) + FAULTS)) if n else (None, None)
    bad = draw(st.integers(0, n - 1)) if fault else -1

    def cell(text):
        how = draw(st.sampled_from(["plain", "plain", "quoted", "padded", "quoted_padded"]))
        return {"plain": text, "quoted": f'"{text}"', "padded": f" {text} ",
                "quoted_padded": f'" {text} "'}[how]

    def row(i):
        if i == bad and fault == "space":
            return draw(st.sampled_from([" ", "\t", " \t "]))
        if draw(st.booleans()) or (i == bad and fault == "sum"):
            w = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
            probs = [v / sum(w) for v in w]
            probs[0] += 1e-5 if i == bad and fault == "sum" else draw(st.sampled_from([0.0, 1e-7, -1e-7]))
            texts = [draw(st.sampled_from([repr(v), f"{v:.12g}"])) for v in probs]
        else:
            texts = [draw(st.sampled_from(ZEROS)) for _ in range(k)]
            texts[draw(st.integers(0, k - 1))] = draw(st.sampled_from(["1", "1.0", "1.0000001"]))
        if i == bad and fault == "negative":  # sums to 1 within the tolerance
            texts = ["1.00001", "-1e-5"] + ["0"] * (k - 2)
        if i == bad and fault == "prob":
            texts[draw(st.integers(0, k - 1))] = token
        if has_label:
            label = draw(st.integers(0, k - 1))
            # Arabic-Indic digits: int() reads them, numpy's parser does not
            forms = [str(label), "-0" if label == 0 else f"+{label}", f"0{label}", chr(0x660 + label)]
            if i == bad and fault == "label":
                texts.append(str(k) if token == "K" else token)
            else:
                texts.append(draw(st.sampled_from(forms)))
        cells = [cell(t) for t in texts]
        if i == bad and fault == "columns":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["0"]
        return ",".join(cells)

    rows = [row(i) for i in range(n)]
    if rows and draw(st.booleans()):
        pool = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=2))
        rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    lines = [",".join([f"c{j}" for j in range(k)] + (["label"] if has_label else []))]
    for text in rows:
        if draw(st.integers(0, 3)) == 0:
            lines.append("")
        lines.append(text)
    eols = st.sampled_from(["\n", "\r\n", "\r"])
    eol = draw(eols)  # mostly one ending, so that repeated rows stay equal lines
    return "".join(line + (draw(eols) if draw(st.integers(0, 3)) == 0 else eol) for line in lines)


@st.composite
def writer_rows(draw):
    """(outputs, labels) for the writer, k = 2 or 10: rows drawn from a small
    pool, so that they repeat within and across WRITE_CHUNK_ROWS chunks,
    all distinct, or distinct with pool rows among them. The pool may hold
    rows whose text a grouping writer could confuse: a one-hot row beside
    the same row with -0.0 (equal values, other bits and text), and a row
    beside its neighbouring float (other bits, the same 12 digits). Labels
    are drawn per row, so equal rows often carry different labels."""
    k = draw(st.sampled_from([2, 10]))
    n = draw(st.one_of(
        st.integers(1, 40),
        st.sampled_from([WRITE_CHUNK_ROWS - 1, WRITE_CHUNK_ROWS, WRITE_CHUNK_ROWS + 1, 2 * WRITE_CHUNK_ROWS + 3]),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = draw(st.sampled_from([0.05, 1.0]))  # 0.05 gives entries near 0 and rounded to 0
    pool = [*rng.dirichlet(np.full(k, alpha), size=draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        one_hot = np.eye(k)[0]
        pool += [one_hot, np.where(one_hot == 0, -0.0, one_hot)]
    if draw(st.booleans()):
        near = pool[0].copy()
        near[np.argmax(near)] = np.nextafter(near.max(), 0.0)
        pool.append(near)
    pool = np.array(pool)
    layout = draw(st.sampled_from(["pool", "distinct", "mixed"]))
    if layout == "pool":
        outputs = pool[rng.integers(0, len(pool), n)]
    else:
        outputs = rng.dirichlet(np.full(k, alpha), size=n)
        if layout == "mixed":
            at = rng.random(n) < 0.5
            outputs[at] = pool[rng.integers(0, len(pool), at.sum())]
    return outputs, rng.integers(0, k, n)


def csv_writer_bytes(outputs, labels, names):
    """The bytes of a prediction file written row by row through csv.writer."""
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(list(names) + (["label"] if labels is not None else []))
    for i, row in enumerate(outputs):
        writer.writerow([f"{v:.12g}" for v in row] + ([str(labels[i])] if labels is not None else []))
    return ref.getvalue().encode("utf-8")


class TestPredictionFiles:
    def test_round_trip_with_labels(self, tmp_path):
        path = tmp_path / "preds.csv"
        outputs = np.array([[0.25, 0.75], [0.6, 0.4]])
        labels = np.array([1, 0])
        write_prediction_file(path, outputs, labels)
        back_out, back_lab, names = read_lines(path)
        np.testing.assert_allclose(back_out, outputs, atol=1e-12)
        np.testing.assert_array_equal(back_lab, labels)
        assert len(names) == 2

    def test_round_trip_without_labels(self, tmp_path):
        path = tmp_path / "preds.csv"
        outputs = np.array([[0.25, 0.75]])
        write_prediction_file(path, outputs)
        back_out, back_lab, _ = read_lines(path)
        assert back_lab is None
        np.testing.assert_allclose(back_out, outputs, atol=1e-12)

    def test_bad_row_sum_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("c0,c1\n0.5,0.6\n")
        with pytest.raises(InputError, match="bad.csv:2"):
            read_prediction_file(path)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_entry_names_line(self, tmp_path, cell):
        # a NaN row passes both the negativity and the row-sum comparison
        path = tmp_path / "nan.csv"
        path.write_text(f"c0,c1\n0.5,0.5\n{cell},0.5\n")
        with pytest.raises(InputError, match="nan.csv:3"):
            read_prediction_file(path)

    @pytest.mark.parametrize("text, message", [
        ("", "f.csv: empty prediction file"),
        ("c0\n1\n", "f.csv: need at least two class columns"),
        ("c0,label\n1,0\n", "f.csv: need at least two class columns"),
    ], ids=["empty", "one_column", "one_column_and_label"])
    def test_bad_header_names_file(self, text, message):
        with pytest.raises(InputError) as exc_info:
            read_predictions(io.BytesIO(text.encode()), "f.csv")
        assert str(exc_info.value) == message

    def test_small_drift_renormalized(self, tmp_path):
        path = tmp_path / "drift.csv"
        path.write_text("c0,c1\n0.5000001,0.5\n")
        out, _, _ = read_lines(path)
        assert out[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_valid_file_is_read_without_the_row_loop(self, tmp_path, monkeypatch):
        def row_loop(fh, name):
            raise AssertionError("a valid file fell back to the row-by-row reader")

        monkeypatch.setattr(labelshift.io, "_read_rows", row_loop)
        # once, and repeated so that each distinct line is parsed once: blank
        # lines among the repeats must not unmatch the parsed and indexed rows
        for repeats in (1, 50):
            path = tmp_path / "ok.csv"
            path.write_bytes(b'c0,c1,label\r\n' + b'"0.25", 0.75 ,01\r\n\r\n0.6,0.4,-0\r\n\n' * repeats)
            out, labels, names = read_lines(path)
            assert out.shape == (2 * repeats, 2) and labels.tolist() == [1, 0] * repeats
            assert names == ["c0", "c1"]

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("body", ["repeated", "distinct"])
    def test_valid_endings_never_reach_the_row_loop(self, tmp_path, monkeypatch, eol, body):
        def row_loop(fh, name):
            raise AssertionError("a valid file fell back to the row-by-row reader")

        monkeypatch.setattr(labelshift.io, "_read_rows", row_loop)
        lines = DISTINCT_ROWS.splitlines() * 2 if body == "distinct" else ["0.25,0.75", "0.5,0.5"] * PROBE_LINES
        data = (eol.join(["c0,c1", *lines]) + eol).encode()
        path = tmp_path / "ok.csv"
        path.write_bytes(data)
        out, labels, index, names = read_prediction_file(path)
        assert out[index].shape == (len(lines), 2) and labels is None and names == ["c0", "c1"]
        assert len(out) == (len(lines) if body == "distinct" else 2)
        head = data[:data.rindex(eol.encode(), 0, 60_000) + len(eol)]  # what a pipe holds unread
        r, w = os.pipe()
        with open(r, "rb") as fh:
            os.write(w, head)
            os.close(w)
            piped = read_predictions(fh, "p.csv")
        assert piped[0][piped[2]].tobytes() == out[index][:len(piped[2])].tobytes()
        assert len(piped[2]) == head.count(eol.encode()) - 1

    def test_repeated_lines_are_parsed_once(self, tmp_path, monkeypatch):
        parsed = []
        loadtxt = np.loadtxt

        def counting_loadtxt(lines, **kwargs):
            lines = list(lines)
            parsed.append(len(lines))
            return loadtxt(lines, **kwargs)

        monkeypatch.setattr(labelshift.io.np, "loadtxt", counting_loadtxt)
        path = tmp_path / "r.csv"
        path.write_text("c0,c1,label\n" + "0.25,0.75,1\n0.5,0.5,0\n" * 3 * PROBE_LINES)
        out, labels, index, _ = read_prediction_file(path)
        with open(path, newline="", encoding="utf-8") as fh:
            ref = _read_rows(fh, str(path))
        assert out.shape == (2, 2) and index.tolist() == [0, 1] * 3 * PROBE_LINES
        assert out[index].tobytes() == ref[0].tobytes() and labels[index].tobytes() == ref[1].tobytes()
        assert parsed == [3]  # the two distinct lines, and the last one again

    # numpy versions that read float text into an integer field truncate it
    # with a DeprecationWarning, which the CLI does not turn into an error
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("label", ["1.0", "1e0", "1.5", "-0.5"])
    def test_float_text_label_rejected_without_warning_filters(self, tmp_path, label):
        path = tmp_path / "f.csv"
        path.write_text(f"c0,c1,label\n0.5,0.5,1\n0.5,0.5,{label}\n")
        with pytest.raises(InputError, match=r"f\.csv:3: label is not an integer"):
            read_prediction_file(path)

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_parse_that_warns_goes_to_the_row_loop(self, tmp_path, monkeypatch):
        # older numpy warns while it truncates "1.5" to 1 in an integer field
        loadtxt = np.loadtxt

        def truncating_loadtxt(lines, dtype, **kwargs):
            lines = [line.replace("1.5", "1") for line in lines]
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            return loadtxt(lines, dtype=dtype, **kwargs)

        monkeypatch.setattr(labelshift.io.np, "loadtxt", truncating_loadtxt)
        path = tmp_path / "f.csv"
        path.write_text("c0,c1,label\n0.5,0.5,1\n0.5,0.5,1.5\n")
        with pytest.raises(InputError, match=r"f\.csv:3: label is not an integer"):
            read_prediction_file(path)

    def test_pipe_is_parsed_like_a_file(self, tmp_path, monkeypatch):
        def read_piped(data: bytes):
            r, w = os.pipe()
            os.write(w, data)
            os.close(w)
            with open(r, "rb") as fh:
                assert not fh.seekable()
                return read_predictions(fh, "p.csv")

        text = "c0,c1,label\r\n0.25,0.75,1\r\n0.6,0.4,0\r\n"
        path = tmp_path / "p.csv"
        path.write_text(text, newline="")
        ref = read_prediction_file(path)
        # a bad body still reaches the row loop, which names its line
        with pytest.raises(InputError, match=r"p\.csv:3: probabilities sum to"):
            read_piped(b"c0,c1\n0.5,0.5\n0.5,0.6\n")

        def row_loop(fh, name):
            raise AssertionError("a valid piped file fell back to the row-by-row reader")

        monkeypatch.setattr(labelshift.io, "_read_rows", row_loop)
        out, labels, index, names = read_piped(text.encode())
        assert out.tobytes() == ref[0].tobytes() and labels.tolist() == [1, 0] and names == ref[3]
        assert index.tolist() == ref[2].tolist() == [0, 1]

    # an open quote makes csv read on past its 131,072-character field limit
    @pytest.mark.parametrize("head, line", [("c0,c1\n0.5,\"0.5\n", 2), ('"c0,c1\n', 1)],
                             ids=["body", "header"])
    def test_field_past_csv_limit_names_its_line(self, tmp_path, capsys, head, line):
        path = tmp_path / "q.csv"
        path.write_text(head + "0.5,0.5\n" * 20_000)
        code, out, err = run_cli(capsys, "calibrate", "--source", str(path))
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "input", "message": f"{path}:{line}: field larger than field limit (131072)"
        }

    def test_bad_row_late_in_large_file_names_its_line(self, tmp_path):
        rows = ["0.25,0.75"] * 60_000
        rows[49_999] = "0.25,0.8"  # header is line 1, so row i is line i + 2
        path = tmp_path / "big.csv"
        path.write_text("c0,c1\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputError, match=r"big\.csv:50001: probabilities sum to"):
            read_prediction_file(path)

    @pytest.mark.parametrize("with_labels", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(case=writer_rows())
    @example(case=(np.tile([[-0.0, 1.0], [1e-300, 1.0], [1 / 3, 2 / 3], [0.0, 1.0]], (WRITE_CHUNK_ROWS // 4 + 1, 1)),
                   np.arange(WRITE_CHUNK_ROWS + 4) % 2))  # repeats that span two chunks
    @example(case=(np.array([[0.5, 0.5]]), np.array([1])))
    def test_writer_matches_csv_writer(self, with_labels, case):
        """The file is csv.writer's, byte for byte, and reads back as the
        rows within 1e-12 and the labels exactly."""
        outputs, labels = case
        labels = labels if with_labels else None
        names = [f"c{j}" for j in range(outputs.shape[1])]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w.csv"
            write_prediction_file(path, outputs, labels, class_names=names)
            assert path.read_bytes() == csv_writer_bytes(outputs, labels, names)
            back, back_labels, index, back_names = read_prediction_file(path)
        assert back_names == names
        np.testing.assert_allclose(back[index], outputs, rtol=0, atol=1e-12)
        if with_labels:
            np.testing.assert_array_equal(back_labels[index], labels)
        else:
            assert back_labels is None

    @pytest.mark.parametrize("outputs, labels, names, message", [
        ([[0.5, 0.5]], [1.7], None, r"row 0: label 1\.7 is not a class index in \[0, 2\)"),
        ([[0.5, 0.5], [0.5, 0.5]], [0, -1], None, r"row 1: label -1 is not a class index"),
        ([[0.5, 0.5]], [2], None, r"row 0: label 2 is not a class index"),
        ([[0.5, 0.5]], [np.nan], None, r"row 0: label nan is not a class index"),
        ([[0.5, 0.5]], [0, 1], None, r"labels of shape \(2,\) for 1 prediction rows"),
        ([[0.5, 0.5], [0.5, 0.5]], [[0], [1]], None, r"labels of shape \(2, 1\) for 2 prediction rows"),
        ([[0.5, 0.5]], ["1"], None, "labels must be integers"),
        ([[0.5, 0.5]], None, ["a", "b", "c"], "3 class names for 2 class columns"),
        ([[0.5, 0.5]], None, ["a", " label"], "label column"),
        ([[0.5, 0.5], [2.0, 1.0]], None, None, r"prediction row 1: \[2\.0, 1\.0\] is not a probability row"),
        ([[0.5, 0.5], [np.nan, 1.0]], [0, 1], None, r"prediction row 1: \[nan, 1\.0\]"),
        ([[0.5, 0.5], [np.inf, 1.0]], None, None, r"prediction row 1: \[inf, 1\.0\]"),
        ([[1.5, -0.5]], None, None, r"prediction row 0: \[1\.5, -0\.5\]"),
        ([[0.5, 0.5], [0.5, 0.5 + 2e-6]], None, None, "prediction row 1: "),
        ([[1.0 + 2e-6, -2e-6]], None, None, "prediction row 0: "),
        (np.empty((0, 2)), None, None, r"n >= 1 and k >= 2, not \(0, 2\)"),
        ([[1.0]], None, None, r"n >= 1 and k >= 2, not \(1, 1\)"),
    ])
    def test_writer_rejects_what_reader_would_not_read_back(self, tmp_path, outputs, labels, names, message):
        path = tmp_path / "w.csv"
        with pytest.raises(InputError, match=message):
            write_prediction_file(path, np.array(outputs, dtype=float), labels, class_names=names)
        assert not path.exists()

    @pytest.mark.parametrize("outputs", [
        [[0.5, 0.5 + 1e-7]],  # off from 1 by 1e-7: beyond 1e-9, within the reader's 1e-6
        [[0.5, 0.5 - 9e-7], [1.0 - 1e-7, 0.0]],
        [[-1e-17, 1.0], [1.0, -0.0]],  # a negative entry the reader clamps to 0
        np.array([[0.1, 0.2, 0.7], [1 / 3, 1 / 3, 1 / 3]], dtype=np.float32),  # float32 rows, cast
    ])
    def test_writer_accepts_what_reader_renormalizes(self, tmp_path, outputs):
        """Rows the reader accepts and renormalizes are written, and read
        back as the rows clamped at 0 and divided by their sums."""
        outputs = np.asarray(outputs, dtype=float)
        path = tmp_path / "w.csv"
        write_prediction_file(path, outputs, np.zeros(len(outputs), dtype=int))
        back, _, index, _ = read_prediction_file(path)
        expected = np.maximum(outputs, 0.0) / outputs.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(back[index], expected, rtol=0, atol=1e-12)

    @staticmethod
    def traced_peak(write) -> int:
        """The tracemalloc peak, in bytes, of a call to write()."""
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_writer_memory_on_distinct_rows(self, tmp_path):
        """Writing 100,000 distinct labelled rows holds about one chunk of
        text; holding every row's text at once peaks near 20 MB."""
        rng = np.random.default_rng(0)
        p = rng.random(100_000)
        outputs, labels = np.column_stack([p, 1.0 - p]), rng.integers(0, 2, p.size)
        assert self.traced_peak(lambda: write_prediction_file(tmp_path / "w.csv", outputs, labels)) < 8_000_000

    @settings(max_examples=300, deadline=None)
    @given(text=prediction_csv_text())
    @example(text="c0,c1\r\n0.5,0.5\r\nnan,0\r\n")
    @example(text="c0,c1\n0.5,0.5\n1.00001,-1e-5\n")
    @example(text="c0,c1\n0.5,0.5\n0.5,0.50001\n")
    @example(text="c0,c1\r\n\r\n")
    @example(text="c0,c1,label\n0.5,0.5,1\n0.5,0.5,-1\n")
    @example(text="c0,c1,label\n0.5,0.5,1\n0.5,0.5,2\n")
    @example(text="c0,c1,label\n0.5,0.5,1\n0.5,0.5,1.0\n")
    @example(text="c0,c1\n0.25,0.75\n\n0.25,0.75\n0.25,0.75\n\n")  # repeats, blank lines
    @example(text="c0,c1\r\n0.25,0.75\r\n0.25,0.75\n0.25,0.75\r\n0.25,0.75\n0.25,0.75")
    @example(text="c0,c1,label\n0.5,0.5,1\n0.5,0.5,0\n0.5,0.5,1\n0.5,0.5,0\n0.5,0.5,1\n")
    @example(text="c0,c1\n" + "0.5,0.5\n" * PROBE_LINES + DISTINCT_ROWS)  # fresh lines after the probe
    @example(text="c0,c1\n" + "0.5,0.5\n" * PROBE_LINES + DISTINCT_ROWS + "0.5,0.6\n")
    @example(text="c0,c1\n" + DISTINCT_ROWS + "0.5,0.5\n" * PROBE_LINES)  # repeats after the probe
    @example(text="c0,c1\n0.5,0.5\n0.5,0.6\n0.5,0.5\n0.5,0.6\n0.5,0.5\n")  # a repeated bad row
    @example(text='c0,c1\n0.5,"0.5\n0.5,"0.5\n0.5,"0.5\n')  # a quote left open
    @example(text='c0,c1\n"0.5\n",0.5\n"0.5\n",0.5\n')  # a quoted field over two lines
    @example(text="c0,c1\r0.25,0.75\r0.25,0.75\r\r0.5,0.5\r0.25,0.75\r")  # lone \r endings
    @example(text="c0,c1\n0.25,0.75\r\n0.25,0.75\n0.25,0.75\r\n0.25,0.75\n")  # mixed \r\n and \n
    @example(text="c0,c1\r\n\r\n\r\n0.25,0.75\r\n0.25,0.75\r\n0.25,0.75\r\n")  # blank lines first
    @example(text="c0,c1\n0.25,0.75\n0.25,0.75\n0.25,0.75")  # no final newline
    @example(text="c0,c1\n0.25,0.75\x85\n0.25,0.75\x85\n0.25,0.75\n")  # str.splitlines breaks at these
    @example(text="c0,c1\n0.25\u2028,0.75\n0.25\u2028,0.75\n0.5,0.5\n")
    @example(text="c0,c1\n0.25,\ufeff0.75\n0.25,\ufeff0.75\n0.5,0.5\n")
    @example(text="c0,c1\n\ufeff0.5,0.5\n0.5,0.5\n")  # a byte-order mark that opens the body
    @example(text="c0,c1\n0.25,0.75\udcff\n0.25,0.75\udcff\n0.25,0.75\udcff\n")  # not UTF-8
    @example(text="c0,c1\n0.25,0.75\n0.25,0.75\n0.25,0.75\n0.5\udcff,0.5")
    @example(text="c0,c1\n0.25,0.8\n" + "0.25,0.75\n" * 3000 + "0.25,0.75\udcff\n")  # a bad row first
    @example(text='"c0",c1,"la\nbel"\n0.25,0.75\n0.25,0.75\n')  # a quoted header
    @example(text='"c0","c1","label"\r\n0.25,0.75,1\r\n0.25,0.75,1\r\n0.25,0.75,0\r\n')
    def test_matches_row_reader(self, text):
        # a lone surrogate stands for a byte that is not UTF-8
        data = text.encode("utf-8", "surrogateescape")

        def read(reader, source, name):
            try:
                return reader(source, name)
            except InputError as exc:
                return str(exc)
            except UnicodeDecodeError as exc:
                return f"{name}: {exc}"

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.csv"
            for chunk_bytes, bom in itertools.product([CHUNK_BYTES, 7], [b"", codecs.BOM_UTF8]):
                with mock.patch.object(labelshift.io, "CHUNK_BYTES", chunk_bytes):
                    path.write_bytes(bom + data)
                    rows = read(_read_rows, io.TextIOWrapper(
                        io.BytesIO(bom + data), encoding="utf-8-sig", newline=""), str(path))
                    lines = None if isinstance(rows, str) else distinct_line_index(bom + data)
                    check_like_row_reader(
                        read(lambda p, _: read_prediction_file(p), path, str(path)), rows, lines)
                    check_like_row_reader(read(read_predictions, io.BytesIO(bom + data), str(path)), rows, lines)


def distinct_line_index(data):
    """Entry i is the distinct body line that data line i is, counted in the
    order met, with lines cut by a newline="" text handle."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    next(csv.reader(text))
    seen = {}
    return [seen.setdefault(line, len(seen)) for line in text if line not in ("\n", "\r\n", "\r")]


def check_like_row_reader(fast, rows, lines=None):
    if isinstance(rows, str):
        assert fast == rows
        return
    assert not isinstance(fast, str), fast
    # the row loop reads one row per line; the reader's distinct rows,
    # indexed by its line index, must be those rows bit for bit
    assert rows[2].tolist() == list(range(rows[0].shape[0]))
    index = fast[2]
    assert index.dtype == np.intp and index.shape == rows[2].shape
    # the distinct rows are the distinct lines, or every line is its own row
    assert lines is None or index.tolist() in (rows[2].tolist(), lines)
    assert fast[0].dtype == rows[0].dtype and fast[0][index].shape == rows[0].shape
    assert fast[0][index].tobytes() == rows[0].tobytes()
    if rows[1] is None:
        assert fast[1] is None
    else:
        assert fast[1].dtype == rows[1].dtype and fast[1].shape == fast[0].shape[:1]
        assert fast[1][index].tobytes() == rows[1].tobytes()
    assert fast[3] == rows[3]


def write_csv(path, outputs, labels=None):
    k = outputs.shape[1]
    header = [f"class_{j}" for j in range(k)] + (["label"] if labels is not None else [])
    rows = [",".join(header)]
    for i, row in enumerate(outputs):
        cells = [f"{v:.12g}" for v in row]
        if labels is not None:
            cells.append(str(int(labels[i])))
        rows.append(",".join(cells))
    path.write_text("\n".join(rows) + "\n")


@pytest.fixture
def hand_files(tmp_path):
    """Source/target pair whose hard confusion inversion gives w = [0.5, 1.5]."""
    src = np.array([[0.9, 0.1]] * 5 + [[0.1, 0.9]] * 5)
    src_labels = np.array([0, 0, 0, 0, 1, 0, 1, 1, 1, 1])
    tgt = np.array([[0.9, 0.1]] * 35 + [[0.1, 0.9]] * 65)
    src_path, tgt_path = tmp_path / "src.csv", tmp_path / "tgt.csv"
    write_csv(src_path, src, src_labels)
    write_csv(tgt_path, tgt)
    return src_path, tgt_path


@pytest.fixture
def face_files(tmp_path):
    """Three-class source/target pair whose hard confusion and target
    prediction marginal are those of the RLLS face instance in conftest."""
    rows = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
    # of the 10 rows of each class y, 8 predict y and one each of the others
    pred = [(y + max(i - 7, 0)) % 3 for y in range(3) for i in range(10)]
    src_path, tgt_path = tmp_path / "src.csv", tmp_path / "tgt.csv"
    write_csv(src_path, rows[pred], np.repeat(np.arange(3), 10))
    write_csv(tgt_path, rows[[0] * 60 + [1] * 40])
    return src_path, tgt_path


@pytest.fixture(scope="module")
def simulated_files(tmp_path_factory):
    """A 600-row two-class source and target pair drawn by `simulate`."""
    work = tmp_path_factory.mktemp("simulated")
    src, tgt = work / "s.csv", work / "t.csv"
    assert main([
        "simulate", "--alpha", "1", "--seed", "1", "--n-source", "600", "--m-target", "600",
        "--source-out", str(src), "--target-out", str(tgt), "--marginal-out", str(work / "m.json"),
    ]) == 0
    return src, tgt


@pytest.fixture
def calibration_files(tmp_path):
    """400 calibrated two-class source rows and 50 target rows that all
    predict class 1, so that BBSE gives a negative weight."""
    rng = np.random.default_rng(0)
    f0 = rng.random(400) * 0.9 + 0.05
    outputs = np.column_stack([f0, 1.0 - f0])
    src_path, tgt_path = tmp_path / "src.csv", tmp_path / "tgt.csv"
    write_csv(src_path, outputs, (rng.random(400) > f0).astype(int))
    write_csv(tgt_path, outputs[f0 < 0.5][:50])
    return src_path, tgt_path


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of one CLI call. Each stream must be empty
    or one line of strict JSON: no NaN or Infinity, no traceback, no warning."""
    capsys.readouterr()  # drop what earlier calls in the test wrote
    code = main(list(argv))
    captured = capsys.readouterr()
    for stream in (captured.out, captured.err):
        if stream:
            assert stream.endswith("\n") and stream.count("\n") == 1, stream
            json.loads(stream, parse_constant=_reject_constant)
    return code, captured.out, captured.err


class TestEstimateCommand:
    def test_bbse_hard_hand_instance(self, hand_files, capsys):
        src, tgt = hand_files
        code, out, _ = run_cli(
            capsys,
            "estimate", "--source", str(src), "--target", str(tgt),
            "--method", "bbse_hard", "--no-calibration",
        )
        assert code == 0
        report = json.loads(out)
        np.testing.assert_allclose(report["weights"], [0.5, 1.5], atol=1e-10)
        np.testing.assert_allclose(report["target_marginal"], [0.25, 0.75], atol=1e-10)
        assert report["converged"] is True
        assert report["calibration"] is None
        assert report["diagnostics"]["identifiable"] is True

    def test_mlls_em_worked_instance(self, tmp_path, capsys):
        # population six-point instance laid out as exact file counts
        src_rows, src_labels = [], []
        for i in range(6):
            for y in range(3):
                reps = int(round(PS_ROWS[i, y] * 10))
                src_rows.extend([F_ROWS[i]] * reps)
                src_labels.extend([y] * reps)
        tgt_counts = np.round(PS_ROWS @ np.array([0.8, 0.1, 0.1]) / 2.0 * 1000).astype(int)
        tgt_rows = []
        for i in range(6):
            tgt_rows.extend([F_ROWS[i]] * tgt_counts[i])
        src_path, tgt_path = tmp_path / "src.csv", tmp_path / "tgt.csv"
        write_csv(src_path, np.array(src_rows), np.array(src_labels))
        write_csv(tgt_path, np.array(tgt_rows))
        code, out, _ = run_cli(
            capsys,
            "estimate", "--source", str(src_path), "--target", str(tgt_path),
            "--method", "mlls_em", "--no-calibration",
        )
        assert code == 0
        report = json.loads(out)
        np.testing.assert_allclose(report["weights"], W_MISCAL_OPT, atol=1e-5)

    def test_calibration_path_reports_params(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        f0 = rng.random(400) * 0.9 + 0.05
        outputs = np.column_stack([f0, 1.0 - f0])
        labels = (rng.random(400) > f0).astype(int)
        src_path = tmp_path / "src.csv"
        write_csv(src_path, outputs, labels)
        tgt_path = tmp_path / "tgt.csv"
        write_csv(tgt_path, outputs[:50])
        code, out, _ = run_cli(
            capsys,
            "estimate", "--source", str(src_path), "--target", str(tgt_path),
            "--method", "mlls_em", "--seed", "1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["calibration"]["temperature"] > 0
        assert len(report["calibration"]["biases"]) == 2

    def test_unknown_config_key_exits_2(self, hand_files, tmp_path, capsys):
        src, tgt = hand_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "bbse_hard", "stepsize": 0.1}))
        code, _, err = run_cli(
            capsys,
            "estimate", "--source", str(src), "--target", str(tgt), "--config", str(cfg),
        )
        assert code == 2
        assert json.loads(err)["error"] == "input"

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"max_iters": "abc"}, "max_iters"),
            ({"rlls_lambda": None}, "rlls_lambda"),
            ({"seed": -3}, "seed"),
            ({"max_iters": 0}, "max_iters"),
            ({"tol": 1e-8}, "tol"),
            ({"clip_negative": "yes"}, "clip_negative"),
            (["method", "bbse_hard"], "JSON object"),
            ({"method": "magic"}, "method"),
            ({"calibration_loss": "junk"}, "calibration_loss"),
        ],
        ids=["string_max_iters", "null_lambda", "negative_seed", "no_budget", "unknown_tol",
             "string_flag", "not_an_object", "unknown_method", "unknown_loss"],
    )
    def test_bad_config_value_exits_2(
        self, calibration_files, tmp_path, capsys, monkeypatch, overrides, key
    ):
        monkeypatch.setattr(labelshift.cli, "read_prediction_file", None)  # no file may be read
        src, tgt = calibration_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        for switch in ([], ["--no-calibration"]):  # a setting is checked whether or not it is used
            code, out, err = run_cli(
                capsys, "estimate", "--source", str(src), "--target", str(tgt), "--config", str(cfg), *switch
            )
            assert code == 2
            assert out == ""
            error = json.loads(err)
            assert error["error"] == "input"
            assert key in error["message"]

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
    def test_seed_outside_64_bits_exits_2(self, calibration_files, capsys, monkeypatch, seed):
        monkeypatch.setattr(labelshift.cli, "read_prediction_file", None)  # no file may be read
        src, tgt = calibration_files
        code, out, err = run_cli(
            capsys, "estimate", "--source", str(src), "--target", str(tgt), "--seed", str(seed)
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "input", "message": "seed must be a 64-bit unsigned integer"}

    @pytest.mark.parametrize("value", [-0.5, 0.0, 1.0, 1.5])
    @pytest.mark.parametrize("given_by", ["flag", "config"])
    def test_val_fraction_outside_unit_interval_exits_2(
        self, calibration_files, tmp_path, capsys, value, given_by
    ):
        src, tgt = calibration_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"val_fraction": value}))
        how = ["--val-fraction", str(value)] if given_by == "flag" else ["--config", str(cfg)]
        code, out, err = run_cli(capsys, "estimate", "--source", str(src), "--target", str(tgt), *how)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "input", "message": f"val_fraction must lie in (0, 1), got {value}"
        }

    @pytest.mark.parametrize(
        "value, message",
        [
            ("inf", "rlls_lambda must be a finite number, not Infinity"),
            ("nan", "rlls_lambda must be a finite number, not NaN"),
            ("-1", "rlls_lambda must be nonnegative, got -1.0"),
        ],
        ids=["inf", "nan", "negative"],
    )
    def test_bad_lambda_flag_exits_2(self, calibration_files, capsys, value, message):
        src, tgt = calibration_files
        code, out, err = run_cli(
            capsys, "estimate", "--source", str(src), "--target", str(tgt),
            "--method", "rlls", "--rlls-lambda", value,
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "input", "message": message}

    def test_overflowing_lambda_certifies_w_one(self, calibration_files, capsys):
        # -2 (C^T C + lam I) overflows; the solver must not hang, and the
        # start point w = 1 is the minimizer to working precision
        src, tgt = calibration_files
        with time_bound(30):
            code, out, err = run_cli(
                capsys, "estimate", "--source", str(src), "--target", str(tgt),
                "--method", "rlls", "--rlls-lambda", "1e308",
            )
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["converged"] is True and report["iterations"] == 0
        assert report["weights"] == [1.0, 1.0]

    @pytest.mark.parametrize("value, half", [(0.001, "validation"), (0.999, "estimation")])
    def test_empty_split_names_val_fraction(self, calibration_files, capsys, value, half):
        # 400 source rows: 0.001 rounds to 0 validation rows, 0.999 to 400
        src, tgt = calibration_files
        code, out, err = run_cli(
            capsys, "estimate", "--source", str(src), "--target", str(tgt), "--val-fraction", str(value)
        )
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "input",
            "message": f"val_fraction {value} leaves no {half} rows of the 400 source rows",
        }

    def test_flag_beats_config_key(self, calibration_files, tmp_path, capsys):
        src, tgt = calibration_files
        cases = [  # (flag, conflicting config key, arguments both runs share)
            (["--method", "bbse_hard"], {"method": "mlls_em"}, ["--no-calibration"]),
            (["--seed", "1"], {"seed": 2}, []),
            (["--val-fraction", "0.3"], {"val_fraction": 0.7}, []),
            (["--rlls-lambda", "0"], {"rlls_lambda": 10.0}, ["--method", "rlls", "--no-calibration"]),
            (["--clip-negative"], {"clip_negative": False}, ["--method", "bbse_hard", "--no-calibration"]),
        ]
        for flag, key, shared in cases:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(key))
            base = ["estimate", "--source", str(src), "--target", str(tgt), *shared]
            by_flag = run_cli(capsys, *base, *flag)
            by_key = run_cli(capsys, *base, "--config", str(cfg))
            both = run_cli(capsys, *base, *flag, "--config", str(cfg))
            assert by_flag[0] == by_key[0] == 0
            assert by_flag[1] != by_key[1], flag  # the setting changes the report
            assert both == by_flag, flag

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "estimate", "--source", str(tmp_path / "nope.csv"),
            "--target", str(tmp_path / "nope2.csv"), "--no-calibration",
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "input", "message": f"[Errno 2] No such file or directory: '{tmp_path / 'nope.csv'}'"
        }

    def test_singular_confusion_exits_3(self, tmp_path, capsys):
        outputs = np.array([[0.9, 0.1]] * 6)
        labels = np.array([0, 0, 0, 1, 1, 1])
        src_path, tgt_path = tmp_path / "s.csv", tmp_path / "t.csv"
        write_csv(src_path, outputs, labels)
        write_csv(tgt_path, outputs[:2])
        code, _, err = run_cli(
            capsys,
            "estimate", "--source", str(src_path), "--target", str(tgt_path),
            "--method", "bbse_hard", "--no-calibration",
        )
        assert code == 3
        assert json.loads(err)["error"] == "identifiability"

    def test_budget_exhaustion_exits_4(self, face_files, tmp_path, capsys):
        src, tgt = face_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "rlls", "max_iters": 1}))
        code, _, err = run_cli(
            capsys,
            "estimate", "--source", str(src), "--target", str(tgt),
            "--config", str(cfg), "--no-calibration",
        )
        assert code == 4
        assert json.loads(err)["error"] == "convergence"

    def test_class_absent_from_estimation_split_exits_2(self, hand_files, tmp_path, capsys):
        src = tmp_path / "one_class.csv"
        outputs = read_lines(hand_files[0])[0]
        write_csv(src, outputs, np.zeros(outputs.shape[0], dtype=int))
        code, out, err = run_cli(
            capsys, "estimate", "--source", str(src), "--target", str(hand_files[1]), "--no-calibration"
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "input", "message": "class 1 is absent from the source rows the estimator reads"
        }

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_on_a_simulated_pair(self, tmp_path, capsys, method):
        src, tgt = tmp_path / "s.csv", tmp_path / "t.csv"
        assert main([
            "simulate", "--target-marginal", "0.3,0.7", "--seed", "5", "--n-source", "2000",
            "--m-target", "1000", "--source-out", str(src), "--target-out", str(tgt),
            "--marginal-out", str(tmp_path / "m.json"),
        ]) == 0
        files = ["--source", str(src), "--target", str(tgt), "--method", method]
        code, out, err = run_cli(capsys, "estimate", *files)
        assert (code, err) == (0, "")
        assert json.loads(out)["converged"] is True
        code, out, err = run_cli(capsys, "diagnose", *files)
        assert (code, err) == (0, "")
        assert json.loads(out)["kkt_residual"] >= 0

    def test_calibration_not_converged_exits_4(self, tmp_path, capsys):
        # labels drawn independently of the outputs: the BCTS fit runs off to
        # 1/T = 0, where every calibrated row is the same vector
        rng = np.random.default_rng(6)
        src_path, tgt_path = tmp_path / "src.csv", tmp_path / "tgt.csv"
        write_csv(src_path, rng.dirichlet(np.ones(3), size=600), rng.integers(0, 3, size=600))
        write_csv(tgt_path, rng.dirichlet(np.ones(3), size=100))
        code, out, err = run_cli(
            capsys, "estimate", "--source", str(src_path), "--target", str(tgt_path)
        )
        assert code == 4
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "convergence"
        assert error["message"].startswith("BCTS calibration did not converge")


class TestCalibrateCommand:
    def test_reports_fit(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        f0 = rng.random(200) * 0.9 + 0.05
        probs = np.column_stack([f0, 1.0 - f0])
        labels = (rng.random(200) > f0).astype(int)
        src = tmp_path / "src.csv"
        write_csv(src, probs, labels)
        code, out, _ = run_cli(capsys, "calibrate", "--source", str(src))
        assert code == 0
        report = json.loads(out)
        assert report["temperature"] > 0
        assert report["converged"] is True
        assert report["final_grad_norm"] < 1e-6

    def test_requires_labels(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        write_csv(src, np.array([[0.4, 0.6]] * 5))
        code, _, err = run_cli(capsys, "calibrate", "--source", str(src))
        assert code == 2


class TestDiagnoseCommand:
    def test_with_weights_file(self, hand_files, tmp_path, capsys):
        src, tgt = hand_files
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps([0.5, 1.5]))
        code, out, _ = run_cli(
            capsys,
            "diagnose", "--source", str(src), "--target", str(tgt), "--weights", str(wfile),
        )
        assert code == 0
        report = json.loads(out)
        assert report["identifiable"] is True
        assert report["hessian_nsd"] is True
        assert report["tau"] > 0
        np.testing.assert_allclose(report["weights"], [0.5, 1.5], atol=1e-9)

    def test_with_method(self, hand_files, capsys):
        src, tgt = hand_files
        code, out, _ = run_cli(
            capsys, "diagnose", "--source", str(src), "--target", str(tgt), "--method", "mlls_em"
        )
        assert code == 0
        report = json.loads(out)
        # at the likelihood optimum the constraint-tangent gradient vanishes
        assert report["projected_gradient_norm"] < 1e-5
        assert report["kkt_residual"] <= 1e-10

    @pytest.mark.parametrize("method", METHODS)
    def test_each_method_runs_as_estimate_without_calibration(self, simulated_files, capsys, method):
        files = ["--source", str(simulated_files[0]), "--target", str(simulated_files[1]), "--method", method]
        code, out, err = run_cli(capsys, "estimate", *files, "--no-calibration")
        assert (code, err) == (0, "")
        estimated = json.loads(out)["weights"]
        code, out, err = run_cli(capsys, "diagnose", *files)
        assert (code, err) == (0, "")
        assert json.loads(out)["weights"] == estimated

    @pytest.mark.parametrize(
        "text, message",
        [
            ('[1, "a"]', 'weights must be a finite number, not "a"'),
            ('{"w": [1, 1]}', 'weights must be a list, not {"w": [1, 1]}'),
            ("[1, 1", "w.json: Expecting ',' delimiter: line 1 column 6 (char 5)"),
        ],
        ids=["non_numeric", "object", "syntax_error"],
    )
    def test_bad_weights_json_exits_2_before_reading_predictions(
        self, hand_files, tmp_path, capsys, monkeypatch, text, message
    ):
        monkeypatch.setattr(labelshift.cli, "read_prediction_file", None)  # no file may be read
        wfile = tmp_path / "w.json"
        wfile.write_text(text)
        code, out, err = run_cli(
            capsys, "diagnose", "--source", str(hand_files[0]), "--target", str(hand_files[1]),
            "--weights", str(wfile),
        )
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "input" and error["message"].endswith(message)

    def test_estimator_not_converged_exits_4(self, hand_files, capsys, monkeypatch):
        def stalled(table, source_marginal, max_iters):
            w = WeightVector(np.ones(source_marginal.k), source_marginal)
            return EstimateResult(w, max_iters, 0.0, False)

        monkeypatch.setattr(labelshift.cli, "mlls_em", stalled)
        src, tgt = hand_files
        code, out, err = run_cli(
            capsys, "diagnose", "--source", str(src), "--target", str(tgt), "--method", "mlls_em"
        )
        assert code == 4
        assert out == ""
        assert json.loads(err)["error"] == "convergence"

    def test_class_count_mismatch_exits_2(self, hand_files, tmp_path, capsys):
        tgt = tmp_path / "tgt3.csv"
        write_csv(tgt, np.array([[0.2, 0.3, 0.5]] * 4))
        code, out, err = run_cli(
            capsys, "diagnose", "--source", str(hand_files[0]), "--target", str(tgt),
            "--method", "mlls_em",
        )
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "input", "message": "source and target class counts differ"}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 1, 1]", "weights file must hold a JSON list of 2 numbers"),
            ('[1, "a"]', 'weights must be a finite number, not "a"'),
            ("[0, 0]", "weights give w . p_s = 0.0; it must be positive"),
            (f"[{10 ** 400}, 1]", f"weights must be a finite number, not {10 ** 400}"),
            ("[Infinity, 1]", "weights must be a finite number, not Infinity"),
        ],
        ids=["wrong_length", "non_numeric", "zero_source_mass", "integer_beyond_float", "infinity"],
    )
    def test_bad_weights_file_exits_2(self, hand_files, tmp_path, capsys, text, message):
        wfile = tmp_path / "w.json"
        wfile.write_text(text)
        code, out, err = run_cli(
            capsys, "diagnose", "--source", str(hand_files[0]), "--target", str(hand_files[1]),
            "--weights", str(wfile),
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1  # the JSON error alone: no traceback, no warning
        assert json.loads(err) == {"error": "input", "message": message}

    # f(x) . w = 2e-310 overflows the gradient and the Hessian; 2e-200 only the Hessian
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tiny", [1e-310, 1e-200])
    def test_overflowing_derivatives_exit_2(self, hand_files, tmp_path, capsys, tiny):
        tgt, wfile = tmp_path / "tgt.csv", tmp_path / "w.json"
        tgt.write_text(f"c0,c1\n{tiny!r},1\n0.5,0.5\n")
        wfile.write_text("[2, 0]")
        code, out, err = run_cli(
            capsys, "diagnose", "--source", str(hand_files[0]), "--target", str(tgt),
            "--weights", str(wfile),
        )
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "input",
            "message": f"the likelihood's derivatives overflow at these weights: "
                       f"the smallest f(x)^T w is {2 * tiny!r}",
        }

    @pytest.mark.parametrize("method", METHODS)
    def test_class_absent_from_source_exits_2(self, face_files, tmp_path, capsys, method):
        # every method reads the labels through one rule; --weights reads no estimate
        src = tmp_path / "two_classes.csv"
        outputs, labels, _ = read_lines(face_files[0])
        write_csv(src, outputs, np.where(labels == 1, 2, labels))
        files = ["--source", str(src), "--target", str(face_files[1])]
        code, out, err = run_cli(capsys, "diagnose", *files, "--method", method)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "input", "message": "class 1 is absent from the source rows the estimator reads"
        }
        wfile = tmp_path / "w.json"
        wfile.write_text("[1, 1, 1]")
        code, out, err = run_cli(capsys, "diagnose", *files, "--weights", str(wfile))
        assert (code, err) == (0, "")
        assert json.loads(out)["weights"] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize(
        "command, method",
        [("diagnose", "bbse_hard"), ("diagnose", "bbse_soft"), ("diagnose", "rlls"),
         ("diagnose", "mlls_cm"), ("estimate", "mlls_em")],
        ids=["bbse_hard", "bbse_soft", "rlls", "mlls_cm", "estimate"],
    )
    def test_unlabeled_source_exits_2(self, hand_files, tmp_path, capsys, command, method):
        src = tmp_path / "unlabeled.csv"
        write_csv(src, read_lines(hand_files[0])[0])
        code, out, err = run_cli(
            capsys, command, "--source", str(src), "--target", str(hand_files[1]),
            "--method", method,
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "input"


@st.composite
def simulate_argv(draw):
    """`simulate` flags: floats of any size, marginals of 1-4 numbers or junk
    tokens, sizes from -2 and seeds on both sides of [0, 2^64). Half the
    numbers and marginals are drawn from the valid range."""
    number = st.floats().map(repr) | st.floats(1e-3, 10).map(repr)
    token = st.floats().map(repr) | st.sampled_from(["", "x", " ", "1_0", "0x1p-1", "1e400", "0.5.5"])
    marginal = (st.floats(0, 1).map(lambda p: f"{p!r},{1 - p!r}")
                | st.lists(token, min_size=1, max_size=4).map(",".join))
    flags = {
        "mu": draw(st.none() | number),
        "alpha": draw(st.none() | number),
        "source-marginal": draw(st.none() | marginal),
        "target-marginal": draw(st.none() | marginal),
        "n-source": draw(st.integers(-2, 50) | st.sampled_from(UNALLOCATABLE)),
        "m-target": draw(st.integers(-2, 50) | st.sampled_from(UNALLOCATABLE)),
        "seed": draw(st.integers(-2, 2 ** 70)),
    }
    return [f"--{name}={value}" for name, value in flags.items() if value is not None]


# numpy's Dirichlet draw is all zeros once the sum of its gamma draws overflows
OVERFLOWING_ALPHA = "dirichlet alpha=1e+308 is too large to draw from: its gamma draws overflow"
# sizes past any machine's memory, and past what numpy can index (2**62 floats)
UNALLOCATABLE = [10 ** 15, 2 ** 62]


def unallocatable(key, size):
    return f"{key} of {size} cannot be allocated: one float each needs over {MEMORY_BYTES} bytes"


class TestSimulateCommand:
    def test_writes_files_and_is_deterministic(self, tmp_path, capsys):
        argv = [
            "simulate", "--alpha", "1.0", "--seed", "9",
            "--n-source", "50", "--m-target", "40",
            "--source-out", str(tmp_path / "s.csv"),
            "--target-out", str(tmp_path / "t.csv"),
            "--marginal-out", str(tmp_path / "m.json"),
        ]
        assert main(argv) == 0
        first = (tmp_path / "s.csv").read_text()
        sidecar = json.loads((tmp_path / "m.json").read_text())
        assert len(sidecar["target_marginal"]) == 2
        assert main(argv) == 0
        assert (tmp_path / "s.csv").read_text() == first
        out, labels, _ = read_lines(tmp_path / "s.csv")
        assert out.shape == (50, 2)
        assert labels is not None
        tout, tlabels, _ = read_lines(tmp_path / "t.csv")
        assert tout.shape == (40, 2)
        assert tlabels is None

    def test_round_trip_with_estimate(self, tmp_path, capsys):
        assert main([
            "simulate", "--target-marginal", "0.2,0.8", "--seed", "3",
            "--n-source", "2000", "--m-target", "2000",
            "--source-out", str(tmp_path / "s.csv"),
            "--target-out", str(tmp_path / "t.csv"),
            "--marginal-out", str(tmp_path / "m.json"),
        ]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys,
            "estimate", "--source", str(tmp_path / "s.csv"), "--target", str(tmp_path / "t.csv"),
            "--method", "mlls_em", "--no-calibration", "--clip-negative",
        )
        assert code == 0
        report = json.loads(out)
        np.testing.assert_allclose(report["target_marginal"], [0.2, 0.8], atol=0.08)

    def test_requires_shift_spec(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate",
            "--source-out", str(tmp_path / "s.csv"),
            "--target-out", str(tmp_path / "t.csv"),
            "--marginal-out", str(tmp_path / "m.json"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--target-marginal", "0.2,0.3,0.5"], "explicit target marginal has the wrong length"),
            (["--source-marginal", "1,0", "--alpha", "1"],
             "source_marginal must have entries with finite reciprocals, as w* = p_t / p_s needs, "
             "not [1.0, 0.0]"),
            (["--target-marginal", "a,b"],
             "target_marginal must be a comma-separated list of numbers, not 'a,b'"),
            (["--target-marginal", "0.5,0.5,"],
             "target_marginal must be a comma-separated list of numbers, not '0.5,0.5,'"),
            (["--source-marginal", "0.5,x", "--alpha", "1"],
             "source_marginal must be a comma-separated list of numbers, not '0.5,x'"),
            (["--target-marginal", "nan,1"], "target_marginal must be a finite number, not NaN"),
            (["--seed", "-1", "--alpha", "1"], "seed must be a 64-bit unsigned integer"),
            (["--seed", str(2 ** 64), "--alpha", "1"], "seed must be a 64-bit unsigned integer"),
            (["--n-source", "0", "--m-target", "0", "--alpha", "1"], "n_source must be >= 1, not 0"),
            (["--m-target", "0", "--alpha", "1"], "m_target must be >= 1, not 0"),
            (["--alpha", "nan"], "dirichlet shift requires a finite alpha > 0"),
            (["--alpha", "inf"], "dirichlet shift requires a finite alpha > 0"),
            (["--alpha", "1e308"], OVERFLOWING_ALPHA),
            (["--alpha=--"], "--alpha takes one value, not '--'"),
            (["--mu=--", "--alpha", "1"], "--mu takes one value, not '--'"),
            (["--target-marginal=--"], "--target-marginal takes one value, not '--'"),
            (["--n-source", str(10 ** 15), "--alpha", "1"], unallocatable("n_source", 10 ** 15)),
            (["--m-target", str(2 ** 62), "--alpha", "1"], unallocatable("m_target", 2 ** 62)),
        ],
        ids=["wrong_length_target", "zero_source_mass", "junk_target", "trailing_comma",
             "junk_source", "nan_target", "negative_seed", "seed_beyond_64_bits", "no_rows",
             "no_target_rows", "nan_alpha", "infinite_alpha", "overflowing_alpha",
             "double_dash_alpha", "double_dash_mu", "double_dash_target", "unallocatable_source",
             "unallocatable_target"],
    )
    def test_bad_flag_exits_2(self, tmp_path, capsys, flags, message):
        code, out, err = run_cli(
            capsys, "simulate", *flags,
            "--source-out", str(tmp_path / "s.csv"),
            "--target-out", str(tmp_path / "t.csv"),
            "--marginal-out", str(tmp_path / "m.json"),
        )
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1  # the JSON error alone: no traceback, no warning
        assert json.loads(err) == {"error": "input", "message": message}
        assert list(tmp_path.iterdir()) == []  # no file is written

    @settings(max_examples=200, deadline=None)
    @given(flags=simulate_argv())
    @example(flags=["--mu=1e+308", "--alpha=1e-308", "--source-marginal=1.0,5e-324", "--n-source=3"])
    @example(flags=["--mu=-1e+308", "--target-marginal=1e+308,1e+308"])
    @example(flags=["--alpha=1.0", "--source-marginal=1e-300,1.0", "--seed=18446744073709551615"])
    @example(flags=["--alpha=1.0", f"--n-source={10 ** 15}"])
    def test_generated_flags_end_in_files_or_one_error(self, tmp_path_factory, flags):
        work = tmp_path_factory.mktemp("simulate")
        files = {name: work / name for name in ("s.csv", "t.csv", "m.json")}
        argv = ["simulate", *flags, "--source-out", str(files["s.csv"]),
                "--target-out", str(files["t.csv"]), "--marginal-out", str(files["m.json"])]
        out, err = io.StringIO(), io.StringIO()
        with time_bound(60), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            assert out.getvalue() == err.getvalue() == ""
            # what was written reads back: finite rows that sum to 1
            n_source = read_lines(files["s.csv"])[0].shape[0]
            m_target = read_lines(files["t.csv"])[0].shape[0]
            assert min(n_source, m_target) >= 1
            assert len(json.loads(files["m.json"].read_text())["target_marginal"]) == 2
        else:
            assert code in (2, 5), err.getvalue()
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1  # the JSON error alone
            assert set(json.loads(err.getvalue())) == {"error", "message"}

    def test_files_are_draw_trial_written_out(self, tmp_path):
        argv = ["--mu", "1.7", "--source-marginal", "0.3,0.7", "--alpha", "0.4", "--seed", "7",
                "--n-source", "300", "--m-target", "200"]
        out_files = ["--source-out", str(tmp_path / "s.csv"), "--target-out", str(tmp_path / "t.csv"),
                     "--marginal-out", str(tmp_path / "m.json")]
        assert main(["simulate", *argv, *out_files]) == 0
        spec = GmmSpec(1.7, ProbVector(np.array([0.3, 0.7])))
        p_t, src_outputs, src_labels, tgt_outputs = draw_trial(
            spec, ShiftSpec("dirichlet", alpha=0.4), 300, 200, 7
        )
        write_prediction_file(tmp_path / "s_expect.csv", src_outputs, src_labels)
        write_prediction_file(tmp_path / "t_expect.csv", tgt_outputs)
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "s_expect.csv").read_bytes()
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t_expect.csv").read_bytes()
        truth = json.loads((tmp_path / "m.json").read_text())
        assert truth == {"target_marginal": p_t.entries.tolist(), "seed": 7}

    def test_unwritable_path_exits_5(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--alpha", "1.0",
            "--source-out", str(tmp_path / "missing_dir" / "s.csv"),
            "--target-out", str(tmp_path / "t.csv"),
            "--marginal-out", str(tmp_path / "m.json"),
        )
        assert code == 5
        assert json.loads(err)["error"] == "io"


# JSON values of every kind: numbers up to the float range and past it (as
# integers), NaN and infinities, strings, methods, lists and objects
JSON_LEAF = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
             | st.floats(0, 1) | st.integers(-1, 50) | st.text(max_size=4)
             | st.sampled_from([*METHODS, "nll", "mse"]))
JSON_VALUE = st.recursive(JSON_LEAF, lambda inner: st.lists(inner, max_size=4), max_leaves=6)


@st.composite
def file_command_argv(draw):
    """(argv before the file flags, whether the source has labels, the JSON
    document of --weights or --config or None) for `estimate`, `diagnose` or
    `calibrate`. A flag is left out, valid, or drawn from any number up to
    +-1e308, nan, inf and junk tokens; seeds lie on both sides of 0."""
    command = draw(st.sampled_from(["estimate", "diagnose", "calibrate"]))
    junk = ["", "x", " ", "--", "1_0", "0x1p-1", "1e400", "nan", "inf", "-inf", "1e308", "-1e308"]
    any_value = st.floats().map(repr) | st.sampled_from(junk)
    method = st.sampled_from(METHODS)
    if command == "estimate":
        flags = {"method": method.map(str),
                 "seed": st.integers(-2, 2 ** 70).map(str),
                 "val-fraction": st.floats(0.05, 0.95).map(repr),
                 "rlls-lambda": st.floats(0, 1e308).map(repr)}
        switches = ["--no-calibration", "--clip-negative"]
        valid_settings = {**{key: st.just(default) for key, (_, default) in ESTIMATE_SETTINGS.items()},
                          "method": method, "max_iters": st.integers(1, 2 ** 70)}
        document = st.fixed_dictionaries(
            {}, optional={key: value | JSON_VALUE for key, value in valid_settings.items()}
        )
        keys = st.sampled_from([*ESTIMATE_SETTINGS, "junk"])
        document = document | st.dictionaries(keys, JSON_VALUE) | JSON_VALUE
    elif command == "diagnose":
        flags, switches = {"method": method}, []
        document = st.lists(st.floats() | st.floats(-2, 2), min_size=2, max_size=2) | JSON_VALUE
    else:
        flags, switches, document = {"loss": st.sampled_from(["nll", "mse"])}, [], st.nothing()
    argv = [command]
    for name, valid in flags.items():
        kind = draw(st.sampled_from(["absent", "valid", "valid", "any"]))
        if kind != "absent":
            argv.append(f"--{name}={draw(valid if kind == 'valid' else any_value)}")
    argv += [flag for flag in switches if draw(st.booleans())]
    labelled = draw(st.sampled_from([True, True, True, False]))
    return argv, labelled, draw(document) if draw(st.booleans()) else None


class TestFileCommandsOnGeneratedArgv:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        """The hand instance's files, the source with and without labels."""
        work = tmp_path_factory.mktemp("hand")
        src = np.array([[0.9, 0.1]] * 5 + [[0.1, 0.9]] * 5)
        write_csv(work / "labelled.csv", src, np.array([0, 0, 0, 0, 1, 0, 1, 1, 1, 1]))
        write_csv(work / "unlabelled.csv", src)
        write_csv(work / "tgt.csv", np.array([[0.9, 0.1]] * 35 + [[0.1, 0.9]] * 65))
        return work

    @settings(max_examples=250, deadline=None)
    @given(drawn=file_command_argv())
    @example(drawn=(["estimate", "--method=rlls", "--rlls-lambda=1e308"], True, None))
    @example(drawn=(["diagnose"], True, [1e308, -1e308]))
    @example(drawn=(["estimate", "--no-calibration"], True, {"max_iters": 2 ** 70, "seed": 2 ** 70}))
    def test_ends_in_one_document_or_one_error(self, files, drawn):
        argv, labelled, document = drawn
        argv = [*argv, "--source", str(files / ("labelled.csv" if labelled else "unlabelled.csv"))]
        if argv[0] != "calibrate":
            argv += ["--target", str(files / "tgt.csv")]
        if document is not None:
            path = files / "doc.json"
            path.write_text(json.dumps(document))
            argv += ["--weights" if argv[0] == "diagnose" else "--config", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, time_bound(60), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        assert [str(w.message) for w in caught] == []
        stream = out.getvalue() if code == 0 else err.getvalue()
        assert (err.getvalue() if code == 0 else out.getvalue()) == ""
        assert code in (0, 2, 3, 4, 5)
        assert stream.endswith("\n") and stream.count("\n") == 1, stream
        doc = json.loads(stream, parse_constant=_reject_constant)
        assert isinstance(doc, dict)
        if code:
            assert set(doc) == {"error", "message"}


@st.composite
def benchmark_config_json(draw):
    """A `benchmark` config whose every key is, nine times in ten, drawn from
    its valid values and otherwise from junk: numbers up to +-1e308, nan and
    inf, marginal entries down to 1e-300, miscalibration biases up to
    +-1e308, shift entries of both modes and junk, method names and junk
    tokens, sizes from -2 up (n_source and m <= 50, n_trials <= 3, bins <= 20)
    and sizes no machine can allocate. Now and then a key other than the
    budget is left out, an unknown key is added, or the document is not an
    object."""
    def pick(valid, junk):
        return draw(valid if draw(st.sampled_from([True] * 9 + [False])) else junk)

    number = st.floats() | st.floats(-1e308, 1e308) | JSON_VALUE

    def marginal():
        return pick(st.floats(1e-300, 1.0).map(lambda p: [p, 1.0 - p]),
                    st.lists(st.floats() | st.sampled_from([1e-300, 5e-324, 0.0]), min_size=1, max_size=3))

    def shift():
        if draw(st.booleans()):
            return {"mode": "dirichlet", "alpha": pick(st.floats(1e-3, 10), number | st.just(1e308))}
        return pick(st.builds(lambda m: {"mode": "explicit", "target_marginal": m}, st.just(marginal())),
                    st.dictionaries(st.sampled_from(["mode", "alpha", "target_marginal", "junk"]),
                                    st.sampled_from(["dirichlet", "explicit", "magic"]) | number, max_size=3))

    values = {
        "gmm": lambda: {"mu": pick(st.floats(-3, 3), number), "source_marginal": marginal()},
        "shifts": lambda: [shift() for _ in range(draw(st.integers(1, 2)))],
        "methods": lambda: pick(st.lists(st.sampled_from(METHODS), min_size=1, max_size=3),
                                st.lists(st.sampled_from([*METHODS, "mlls", "", "BBSE_HARD"]), max_size=3)),
        "m_values": lambda: pick(st.lists(st.integers(1, 50), min_size=1, max_size=3),
                                 st.lists(st.integers(-2, 50) | st.sampled_from(UNALLOCATABLE), max_size=3)),
        "n_trials": lambda: pick(st.integers(1, 3), st.integers(-2, 0) | number),
        "base_seed": lambda: pick(st.integers(0, 2 ** 64 - 1), st.integers(-2, 2 ** 70) | number),
        "n_source": lambda: pick(st.integers(1, 50), st.integers(-2, 0) | st.sampled_from(UNALLOCATABLE)),
        "rlls_lambda": lambda: pick(st.floats(0, 1e308), number),
        "max_iters": lambda: pick(st.integers(1, 50), st.integers(-2, 0) | number),
        "bins": lambda: pick(st.none() | st.integers(1, 20), st.integers(-2, 0) | st.just(10 ** 15) | number),
        "miscalibration": lambda: pick(
            st.none() | st.fixed_dictionaries({"temperature": st.floats(1e-2, 1e2),
                                                "biases": st.lists(st.floats(-1e308, 1e308), min_size=2, max_size=2)}),
            st.fixed_dictionaries({"temperature": number, "biases": st.lists(number, min_size=1, max_size=3)})),
    }
    required = {"gmm", "shifts", "methods", "m_values", "n_trials", "base_seed"}
    # The budget is always given and small: at the default 10,000 steps,
    # mlls_grad spends about a second on each trial whose source marginal has
    # a tiny entry, such as 6e-40, too slow for a generated test (CHANGES.md).
    cfg = {"max_iters": values.pop("max_iters")()}
    for key, value in values.items():
        if draw(st.sampled_from([True] * (19 if key in required else 3) + [False])):
            cfg[key] = value()
    if draw(st.sampled_from([False] * 19 + [True])):
        cfg["junk"] = draw(JSON_VALUE)
    return cfg if draw(st.sampled_from([True] * 29 + [False])) else draw(JSON_VALUE)


class TestBenchmarkOnGeneratedConfigs:
    @settings(max_examples=150, deadline=None)
    @given(cfg=benchmark_config_json())
    @example(cfg={"gmm": {"mu": 1}, "shifts": [{"mode": "dirichlet", "alpha": 1}], "methods": ["mlls_em"],
                  "m_values": [10], "n_trials": 1, "base_seed": 0, "n_source": 10 ** 15})
    @example(cfg={"gmm": {"mu": 1, "source_marginal": [1e-300, 1]}, "shifts": [{"mode": "dirichlet", "alpha": 1}],
                  "methods": ["mlls_em"], "m_values": [10, 2 ** 62], "n_trials": 1, "base_seed": 0,
                  "miscalibration": {"temperature": 1, "biases": [1e308, -1e308]}})
    @example(cfg={"gmm": {"mu": -7.272890413844837e-198, "source_marginal": [1e-300, 1.0]},
                  "shifts": [{"mode": "explicit", "target_marginal": [0.3767042486578157, 0.6232957513421843]}],
                  "methods": ["mlls_grad"], "m_values": [4, 20, 34], "n_trials": 3, "base_seed": 31, "n_source": 49,
                  "max_iters": 31, "miscalibration": {"temperature": 70.54047707482879, "biases": [0.0, 0.0]}})
    def test_ends_in_csv_and_document_or_one_error(self, tmp_path_factory, cfg):
        work = tmp_path_factory.mktemp("benchmark")
        cfg_path, csv_path = work / "cfg.json", work / "out.csv"
        cfg_path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, time_bound(60), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["benchmark", "--config", str(cfg_path), "--output", str(csv_path)])
        assert [str(w.message) for w in caught] == []
        stream = out.getvalue() if code == 0 else err.getvalue()
        assert (err.getvalue() if code == 0 else out.getvalue()) == ""
        assert code in (0, 2, 3, 4, 5), stream
        assert stream.endswith("\n") and stream.count("\n") == 1, stream
        doc = json.loads(stream, parse_constant=_reject_constant)
        if code == 0:
            assert set(doc) == {"output", "per_method_mean_mse", "rows"}
            assert len(csv_path.read_text().splitlines()) == doc["rows"] + 1
        else:
            assert set(doc) == {"error", "message"}


class TestBenchmarkCommand:
    def benchmark_config(self, **overrides):
        cfg = {
            "gmm": {"mu": 1.0},
            "shifts": [{"mode": "dirichlet", "alpha": 1.0}],
            "methods": ["bbse_hard"],
            "m_values": [100],
            "n_trials": 2,
            "base_seed": 1,
            "n_source": 200,
        }
        cfg.update(overrides)
        return cfg

    def test_runs_and_writes_csv(self, tmp_path, capsys):
        cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg_path.write_text(json.dumps(self.benchmark_config()))
        code, out, _ = run_cli(
            capsys, "benchmark", "--config", str(cfg_path), "--output", str(out_path)
        )
        assert code == 0
        summary = json.loads(out)
        assert "bbse_hard" in summary["per_method_mean_mse"]
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "shift_param,method,m,n_trials,n_failed,mse,stderr"
        assert len(lines) == 2

    @pytest.mark.filterwarnings("error")
    def test_infinite_mean_mse_is_null(self, tmp_path, capsys):
        # w* is about 5e299, so each squared error is past the float range
        cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg_path.write_text(json.dumps(self.benchmark_config(
            gmm={"mu": 1, "source_marginal": [1e-300, 1]}, methods=["mlls_em"]
        )))
        code, out, _ = run_cli(capsys, "benchmark", "--config", str(cfg_path), "--output", str(out_path))
        assert code == 0
        assert json.loads(out)["per_method_mean_mse"] == {"mlls_em": None}
        assert out_path.read_text().splitlines()[1] == "alpha=1,mlls_em,100,2,0,inf,nan"

    def test_every_trial_failing_exits_4(self, tmp_path, capsys, monkeypatch):
        # one step cannot solve the face instance (see conftest), nor the
        # likelihood of any trial; two-class rlls would be solved by it
        monkeypatch.setattr(labelshift.simulation, "rlls", face_rlls)
        cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg_path.write_text(
            json.dumps(self.benchmark_config(methods=["rlls", "mlls_em"], max_iters=1))
        )
        code, out, err = run_cli(
            capsys, "benchmark", "--config", str(cfg_path), "--output", str(out_path)
        )
        assert code == 4
        assert out == ""
        assert len(err.splitlines()) == 1  # the JSON error alone: no warning
        error = json.loads(err)
        assert error["error"] == "convergence"
        assert "rlls, mlls_em" in error["message"]
        rows = list(csv.DictReader(io.StringIO(out_path.read_text())))
        assert [r["method"] for r in rows] == ["rlls", "mlls_em"]
        assert all(r["n_failed"] == r["n_trials"] == "2" for r in rows)

    def test_readme_config_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        cfg = _parse_benchmark_config(json.loads(block))
        assert cfg.gmm.source_marginal.k == 2

    def test_thread_env_keeps_results_identical(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.benchmark_config(n_trials=3)))
        out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        assert main(["benchmark", "--config", str(cfg_path), "--output", str(out1)]) == 0
        monkeypatch.setenv("LABELSHIFT_THREADS", "4")
        assert main(["benchmark", "--config", str(cfg_path), "--output", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_text() == out2.read_text()

    @pytest.mark.parametrize("threads", ["abc", "0"])
    def test_thread_env_is_ignored(self, threads, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.benchmark_config()))
        unset, with_env = tmp_path / "unset.csv", tmp_path / "env.csv"
        monkeypatch.delenv("LABELSHIFT_THREADS", raising=False)
        assert main(["benchmark", "--config", str(cfg_path), "--output", str(unset)]) == 0
        monkeypatch.setenv("LABELSHIFT_THREADS", threads)
        code, _, err = run_cli(
            capsys, "benchmark", "--config", str(cfg_path), "--output", str(with_env)
        )
        assert code == 0 and err == ""
        assert with_env.read_bytes() == unset.read_bytes()

    def test_empty_methods_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.benchmark_config(methods=[])))
        code, _, err = run_cli(
            capsys, "benchmark", "--config", str(cfg_path), "--output", str(tmp_path / "o.csv")
        )
        assert code == 2

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"shifts": [{"mode": "dirichlet"}]}, "alpha"),
            ({"n_source": "x"}, "n_source"),
            ({"shifts": "abc"}, "shifts"),
            ({"m_values": [100.5]}, "m_values"),
            ({"gmm": {"mu": None}}, "mu"),
            ({"max_iters": 0}, "max_iters"),
            ({"tol": 1e-8}, "tol"),
            ({"miscalibration": {"temperature": 0, "biases": [0, 0]}}, "temperature"),
            ({"miscalibration": {"temperature": 2, "biases": [0, 0, 0]}}, "biases"),
            ({"miscalibration": {"temperature": 2, "biases": [0, 0], "scale": 1}}, "miscalibration"),
            ({"miscalibration": {"temperature": 2, "biases": [0, "a"]}}, "biases"),
            ({"shifts": []}, "shifts"),
            ({"m_values": []}, "m_values"),
            ({"m_values": [100, 0]}, "m_values"),
            ({"n_trials": 0}, "n_trials"),
            ({"n_source": 0}, "n_source"),
            ({"bins": 0}, "bins"),
            ([{"gmm": {"mu": 1.0}}], "JSON object"),
            ({"gmm": {"mu": 1.0, "sigma": 2.0}}, "sigma"),
            ({"shifts": [{"mode": "magic", "alpha": 1.0}]}, "mode"),
            ({"shifts": [{"alpha": 1.0}]}, "mode"),
            ({"base_seed": -1}, "base_seed"),
            ({"base_seed": 2 ** 64}, "base_seed"),
            ({"gmm": {"mu": 1.0, "source_marginal": [1, 0]}}, "source_marginal"),
            ({"shifts": [{"mode": "dirichlet", "alpha": 1, "typo": 3}]}, "typo"),
            ({"shifts": [{"mode": "explicit", "target_marginal": [0.9, 0.1], "alpha": -5}]}, "alpha"),
            ({"n_source": 10 ** 15}, unallocatable("n_source", 10 ** 15)),
            ({"n_source": 2 ** 62}, unallocatable("n_source", 2 ** 62)),
            ({"m_values": [100, 10 ** 15]}, unallocatable("m_values", 10 ** 15)),
            ({"bins": 10 ** 15}, unallocatable("bins", 10 ** 15)),
            ({"methods": ["mlls_em", "bbse_hard", "mlls_em"]}, "methods"),
            ({"m_values": [100, 50, 100]}, "m_values"),
            ({"shifts": [{"mode": "explicit", "target_marginal": [0.9, 0.1]},
                         {"mode": "explicit", "target_marginal": [0.9000000001, 0.0999999999]}]}, "shifts"),
        ],
        ids=["dirichlet_without_alpha", "string_n_source", "string_shifts", "float_m", "null_mu",
             "no_budget", "unknown_tol", "zero_temperature", "biases_not_k",
             "unknown_miscalibration_key", "string_bias", "no_shifts", "no_m_values", "zero_m",
             "zero_trials", "zero_source", "zero_bins", "not_an_object", "unknown_gmm_key",
             "unknown_shift_mode", "shift_without_mode", "negative_seed", "seed_beyond_64_bits",
             "zero_source_mass", "unknown_shift_key", "explicit_shift_with_alpha",
             "unallocatable_source", "source_past_numpy_index", "unallocatable_m", "unallocatable_bins",
             "repeated_method", "repeated_m", "repeated_shift_label"],
    )
    def test_bad_config_value_exits_2(self, tmp_path, capsys, monkeypatch, overrides, key):
        monkeypatch.setattr(labelshift.cli, "run_trials", None)  # no trial may run
        cfg_path = tmp_path / "cfg.json"
        cfg = self.benchmark_config(**overrides) if isinstance(overrides, dict) else overrides
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(
            capsys, "benchmark", "--config", str(cfg_path), "--output", str(tmp_path / "o.csv")
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1  # the JSON error alone: no warning
        error = json.loads(err)
        assert error["error"] == "input"
        assert key in error["message"]

    def test_overflowing_alpha_exits_2_naming_alpha(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.benchmark_config(shifts=[{"mode": "dirichlet", "alpha": 1e308}])))
        code, out, err = run_cli(
            capsys, "benchmark", "--config", str(cfg_path), "--output", str(tmp_path / "o.csv")
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "input", "message": OVERFLOWING_ALPHA}

    def test_huge_biases_calibrate_without_warning(self, tmp_path, capsys):
        # logp + 1e308 - 1e308 overflows to -inf where logp - 1e300 - 1e300 does
        # not; both calibrate every row to [1, 0], so the sweeps agree
        csv_text = {}
        for bias in (1e300, 1e308):
            cfg_path, out_path = tmp_path / "cfg.json", tmp_path / f"{bias:g}.csv"
            mis = {"temperature": 1, "biases": [bias, -bias]}
            cfg_path.write_text(json.dumps(self.benchmark_config(methods=["mlls_em"], miscalibration=mis)))
            code, _, err = run_cli(capsys, "benchmark", "--config", str(cfg_path), "--output", str(out_path))
            assert (code, err) == (0, "")
            csv_text[bias] = out_path.read_text()
        assert csv_text[1e308] == csv_text[1e300]

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.benchmark_config(turbo=True)))
        code, _, _ = run_cli(
            capsys, "benchmark", "--config", str(cfg_path), "--output", str(tmp_path / "o.csv")
        )
        assert code == 2

    def test_miscalibration_key_parses_to_bcts_params(self):
        mis = {"temperature": 1.5, "biases": [0.25, -0.25]}
        parsed = _parse_benchmark_config(self.benchmark_config(miscalibration=mis)).miscalibration
        expect = BctsParams(1.5, np.array([0.25, -0.25]))
        assert parsed.temperature == expect.temperature
        np.testing.assert_array_equal(parsed.biases, expect.biases)

    @pytest.mark.parametrize("name", sorted(p.name for p in SCRIPTS.glob("*.json")))
    def test_config_in_scripts_runs(self, name, tmp_path, capsys):
        cfg = json.loads((SCRIPTS / name).read_text(encoding="utf-8"))
        # the cap turns distinct sizes above it into one, which a config may not repeat
        m_values = list(dict.fromkeys(min(m, 300) for m in cfg["m_values"]))
        cfg.update(n_trials=2, n_source=300, m_values=m_values)
        cfg_path, out_path = tmp_path / name, tmp_path / "out.csv"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "benchmark", "--config", str(cfg_path), "--output", str(out_path))
        assert code == 0, err
        text = out_path.read_text()
        header, *rows = text.splitlines()
        assert header == "shift_param,method,m,n_trials,n_failed,mse,stderr" + (
            ",mean_min_eig" if "bins" in cfg else ""
        )
        assert len(rows) == len(cfg["shifts"]) * len(cfg["m_values"]) * len(cfg["methods"])
        fields, *records = csv.reader(io.StringIO(text))
        assert [len(r) for r in records] == [len(fields)] * len(rows)

    def test_required_keys_alone_take_the_dataclass_defaults(self):
        required = {key: value for key, value in self.benchmark_config().items() if key != "n_source"}
        cfg = _parse_benchmark_config(required)
        assert cfg == ExperimentConfig(cfg.gmm, cfg.shifts, ("bbse_hard",), (100,), 2, 1)

    def test_unwritable_output_exits_5(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.benchmark_config()))
        code, _, err = run_cli(
            capsys, "benchmark", "--config", str(cfg_path),
            "--output", str(tmp_path / "no_dir" / "o.csv"),
        )
        assert code == 5
        assert json.loads(err)["error"] == "io"


class TestUsageErrors:
    """The argument parser's own errors end in the JSON input error."""

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "--method", "bogus"], "labelshift estimate: argument --method: invalid choice: 'bogus'"),
        (["estimate", "--source", "a"], "labelshift estimate: the following arguments are required: --target"),
        (["simulate", "--alpha", "x"], "labelshift simulate: argument --alpha: invalid float value: 'x'"),
        ([], "labelshift: the following arguments are required: command"),
        (["bogus"], "labelshift: argument command: invalid choice: 'bogus'"),
    ], ids=["unknown_method", "missing_target", "junk_float", "no_command", "unknown_command"])
    def test_usage_error_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "input"
        assert error["message"].startswith(message)

    def test_help_still_prints(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["estimate", "-h"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: labelshift estimate")


class TestUnreadableInput:
    """An input path that cannot be opened is the input error (exit 2);
    exit 5 is left to outputs."""

    @pytest.mark.parametrize("argv", [
        ("estimate", "--source"), ("estimate", "--target"), ("estimate", "--config"),
        ("calibrate", "--source"), ("diagnose", "--source"), ("diagnose", "--target"),
        ("diagnose", "--weights"), ("benchmark", "--output", "out.csv", "--config"),
    ], ids="_".join)
    def test_directory_exits_2(self, hand_files, tmp_path, capsys, argv):
        command, *rest, flag = argv
        given = {"--source": str(hand_files[0]), "--target": str(hand_files[1])}
        if command == "calibrate":
            given.pop("--target")
        elif command == "benchmark":
            given = {}
        given[flag] = str(tmp_path)
        code, out, err = run_cli(capsys, command, *rest, *itertools.chain(*given.items()))
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "input", "message": f"[Errno 21] Is a directory: '{tmp_path}'"}


class TestNonUtf8Input:
    """File inputs are UTF-8 text, with or without a byte-order mark; one
    that does not decode or parse ends in the JSON input error naming it."""

    @pytest.mark.parametrize("which", ["source", "target"])
    def test_prediction_file_exits_2(self, hand_files, capsys, which):
        src, tgt = hand_files
        bad = src if which == "source" else tgt
        bad.write_bytes(bad.read_bytes() + b"\xff,\xfe\n")
        for command in ("estimate", "diagnose"):
            code, out, err = run_cli(capsys, command, "--source", str(src), "--target", str(tgt))
            assert code == 2
            assert out == ""
            assert len(err.splitlines()) == 1  # the JSON error alone: no traceback
            assert json.loads(err)["error"] == "input"
            assert json.loads(err)["message"].startswith(f"{bad}: 'utf-8' codec can't decode")

    def test_prediction_file_with_bom_reads_as_without(self, hand_files):
        src, _ = hand_files
        plain = read_prediction_file(src)
        src.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        with_bom = read_prediction_file(src)
        assert with_bom[3] == plain[3] == ["class_0", "class_1"]
        for got, want in zip(with_bom[:3], plain[:3]):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("argv", [
        ("diagnose", "--weights"),
        ("estimate", "--config"),
        ("benchmark", "--output", "out.csv", "--config"),
    ], ids=["weights", "estimate_config", "benchmark_config"])
    def test_json_file_exits_2(self, hand_files, tmp_path, capsys, argv):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe\x00")
        src, tgt = hand_files
        files = [] if argv[0] == "benchmark" else ["--source", str(src), "--target", str(tgt)]
        code, out, err = run_cli(capsys, *argv, str(path), *files)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "input"
        assert json.loads(err)["message"].startswith(f"{path}: ")

    @pytest.mark.parametrize("command", ["diagnose", "estimate", "benchmark"])
    def test_json_syntax_error_names_file(self, hand_files, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_text("[0.5,", encoding="utf-8")
        code, _, err = run_cli(capsys, *self.json_argv(command, path, hand_files, tmp_path))
        assert code == 2
        assert json.loads(err) == {
            "error": "input", "message": f"{path}: Expecting value: line 1 column 6 (char 5)"
        }

    @pytest.mark.parametrize("command, document", [
        ("diagnose", [0.5, 1.5]),
        ("estimate", {"method": "bbse_hard"}),
        ("benchmark", TestBenchmarkCommand().benchmark_config()),
    ], ids=["weights", "estimate_config", "benchmark_config"])
    def test_json_file_with_bom_is_read(self, hand_files, tmp_path, capsys, command, document):
        path = tmp_path / "in.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(document).encode())
        code, out, err = run_cli(capsys, *self.json_argv(command, path, hand_files, tmp_path))
        assert code == 0, err
        if command == "diagnose":
            assert json.loads(out)["weights"] == [0.5, 1.5]

    @staticmethod
    def json_argv(command, path, hand_files, tmp_path):
        """Arguments that make `command` read the JSON file `path`."""
        src, tgt = (str(p) for p in hand_files)
        return {
            "diagnose": ["diagnose", "--weights", str(path), "--source", src, "--target", tgt],
            "estimate": ["estimate", "--config", str(path), "--no-calibration", "--source", src,
                         "--target", tgt],
            "benchmark": ["benchmark", "--config", str(path), "--output", str(tmp_path / "o.csv")],
        }[command]
