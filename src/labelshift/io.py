"""CSV interchange for predictor outputs.

A prediction file is UTF-8 CSV with a header of class-column names, optional
trailing integer "label" column (0-based class index), '.' decimals, one row
per example. Entries must be finite; probability rows off from 1 by at most
1e-6 are renormalized; anything worse is rejected. A file reads as an (n, k)
output array plus an optional (n,) label array.

The body of a file is parsed in one `np.loadtxt` call, streamed from the open
handle, and checked over whole columns; labels are parsed in C by numpy's
integer field parser, which accepts a subset of what the row loop's `int`
accepts, with equal values. A file that this parse or its checks reject, or
whose parse raises a warning, is read again from the start by the row-by-row
loop `_read_rows`, which either accepts it or names the first bad row as
`file:line`; that loop is the only source of error messages, and it returns
exactly what the single parse returns on every file both accept. A handle that
cannot seek back is read by the row loop alone.
"""
from __future__ import annotations

import csv
import itertools
import warnings

import numpy as np

from .errors import InputError

ROW_SUM_TOL = 1e-6
WRITE_CHUNK_ROWS = 4096  # rows formatted per write, which bounds the text held at once


def read_prediction_file(path) -> tuple[np.ndarray, np.ndarray | None, list[str]]:
    """Return (outputs (n, k), labels or None, class column names)."""
    with open(path, newline="", encoding="utf-8") as fh:
        return read_predictions(fh, name=str(path))


def read_predictions(fh, name: str = "<stream>"):
    """Read a prediction file from a text handle opened with newline="".

    A handle that cannot seek back (a pipe, stdin) is read by the row loop.
    """
    if not fh.seekable():
        return _read_rows(fh, name)
    start = fh.tell()
    class_names, has_label = _read_header(fh, name)
    parsed = _parse_body(fh, len(class_names), has_label)
    if parsed is None:
        fh.seek(start)
        return _read_rows(fh, name)
    return parsed[0], parsed[1], class_names


def _read_header(fh, name: str) -> tuple[list[str], bool]:
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise InputError(f"{name}: empty prediction file") from None
    header = [h.strip() for h in header]
    has_label = bool(header) and header[-1] == "label"
    class_names = header[:-1] if has_label else header
    if len(class_names) < 2:
        raise InputError(f"{name}: need at least two class columns")
    return class_names, has_label


def _parse_body(fh, k: int, has_label: bool):
    """(outputs, labels or None) of a valid body in one parse, else None."""
    for first in fh:  # loadtxt warns on a body with no rows, so look for one first
        if first.strip("\r\n"):
            break
    else:
        return None
    fields = [("p", np.float64, (k,))] + ([("y", np.int64)] if has_label else [])
    try:
        with warnings.catch_warnings():
            # numpy reads labels with its C integer parse, which accepts a
            # subset of what int() accepts; releases that truncate float text
            # such as "1.5" into an integer field warn as they do, and a
            # warning sends the file to the row loop like a parse error
            warnings.simplefilter("error")
            data = np.loadtxt(
                itertools.chain((first,), fh), dtype=fields,
                delimiter=",", comments=None, quotechar='"', ndmin=1,
            )
    except (ValueError, Warning):
        return None
    probs = data["p"]
    labels = data["y"].copy() if has_label else None
    s = probs.sum(axis=1)
    # NaN fails every comparison and an inf entry makes its row sum inf, so
    # these also reject non-finite entries
    if not (
        (probs >= -ROW_SUM_TOL).all()
        and (np.abs(s - 1.0) <= ROW_SUM_TOL).all()
        and (labels is None or ((labels >= 0) & (labels < k)).all())
    ):
        return None
    return np.maximum(probs, 0.0) / np.maximum(s, 1e-300)[:, None], labels


def _read_rows(fh, name: str):
    """Row-by-row reader; names the first bad row as `file:line`."""
    class_names, has_label = _read_header(fh, name)
    k = len(class_names)
    outputs, labels = [], []
    for lineno, row in enumerate(csv.reader(fh), start=2):
        if not row:
            continue
        expect = k + 1 if has_label else k
        if len(row) != expect:
            raise InputError(f"{name}:{lineno}: expected {expect} columns, got {len(row)}")
        try:
            probs = np.array([float(v) for v in row[:k]])
        except ValueError as exc:
            raise InputError(f"{name}:{lineno}: {exc}") from None
        if not np.all(np.isfinite(probs)):
            raise InputError(f"{name}:{lineno}: non-finite probability")
        if np.any(probs < -ROW_SUM_TOL):
            raise InputError(f"{name}:{lineno}: negative probability")
        s = probs.sum()
        if abs(s - 1.0) > ROW_SUM_TOL:
            raise InputError(f"{name}:{lineno}: probabilities sum to {s}")
        outputs.append(np.maximum(probs, 0.0) / max(s, 1e-300))
        if has_label:
            try:
                lab = int(row[k])
            except ValueError:
                raise InputError(f"{name}:{lineno}: label is not an integer") from None
            if not 0 <= lab < k:
                raise InputError(f"{name}:{lineno}: label {lab} out of range [0, {k})")
            labels.append(lab)
    if not outputs:
        raise InputError(f"{name}: no data rows")
    return (
        np.array(outputs),
        np.array(labels) if has_label else None,
        class_names,
    )


def write_prediction_file(path, outputs: np.ndarray, labels=None, class_names=None) -> None:
    outputs = np.asarray(outputs, dtype=float)
    n, k = outputs.shape
    if class_names is None:
        class_names = [f"class_{i}" for i in range(k)]
    # the bytes csv.writer writes for these rows: %.12g cells, \r\n endings
    fmt = ",".join(["%.12g"] * k) + (",%d" if labels is not None else "") + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(class_names) + (["label"] if labels is not None else [])
        writer.writerow(header)
        for start in range(0, n, WRITE_CHUNK_ROWS):
            cols = outputs[start:start + WRITE_CHUNK_ROWS].T.tolist()
            if labels is not None:
                cols.append(np.asarray(labels[start:start + WRITE_CHUNK_ROWS]).tolist())
            fh.write("".join(fmt % row for row in zip(*cols, strict=True)))
