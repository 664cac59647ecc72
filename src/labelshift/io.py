"""CSV interchange for predictor outputs.

A prediction file is UTF-8 CSV, with or without a leading byte-order mark,
with a header of class-column names, optional trailing integer "label" column
(0-based class index), '.' decimals, one row per example. Entries must be
finite; probability rows off from 1 by at most 1e-6 are renormalized; anything
worse is rejected.

A file reads as its distinct rows: a (d, k) output array, an optional (d,)
label array and the line index, an (n,) array whose entry i is the distinct
row of data line i, so `outputs[index]` is the file row by row and
`np.bincount(index)` counts the lines that show each distinct row. Distinct
means distinct text; lines that differ only in how they write a number are
separate rows with equal values.

The body of a file is parsed in one `np.loadtxt` call, streamed from the open
handle, and checked over whole columns; labels are parsed in C by numpy's
integer field parser, which accepts a subset of what the row loop's `int`
accepts, with equal values. A file that this parse or its checks reject, or
whose parse raises a warning, is read again from the start by the row-by-row
loop `_read_rows`, which either accepts it or names the first bad row as
`file:line`; that loop is the only source of error messages, and it returns
exactly what the single parse returns on every file both accept. A handle that
cannot seek back, such as a pipe, is read into memory first and parsed the
same way.

When at least half of the first PROBE_LINES body lines repeat an earlier
line, each distinct line is parsed once and indexed; a line that is one
whole record parses the same wherever it stands, so the indexed rows are bit
for bit the single parse's. Memory then grows with the distinct lines and
one chunk of text, not with the file. Otherwise every line is its own row
and the index is `arange(n)`.
"""
from __future__ import annotations

import csv
import io
import itertools
import warnings

import numpy as np

from .errors import InputError
from .simplex import row_sums

ROW_SUM_TOL = 1e-6
WRITE_CHUNK_ROWS = 4096  # rows formatted per write, which bounds the text held at once
PROBE_LINES = 4096  # body lines whose repeats choose how the rest is parsed
CHUNK_CHARS = 1 << 20  # text read at once while mapping repeated lines
BLANK_LINES = ("\n", "\r\n", "\r")  # what a blank line is in a newline="" handle


def read_prediction_file(path) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, list[str]]:
    """Return (distinct outputs (d, k), their labels or None, line index (n,),
    class column names). The file is read as UTF-8 with an optional byte-order
    mark; a file that cannot be read, or text that does not decode, is an
    InputError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return read_predictions(fh, name=str(path))
    except OSError as exc:
        raise InputError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


def read_predictions(fh, name: str = "<stream>"):
    """Read a prediction file from a text handle opened with newline=""."""
    if not fh.seekable():
        fh = io.StringIO(fh.read(), newline="")
    start = fh.tell()
    class_names, has_label = _read_header(fh, name)
    parsed = _parse_body(fh, len(class_names), has_label)
    if parsed is None:
        fh.seek(start)
        return _read_rows(fh, name)
    return (*parsed, class_names)


def _records(fh, name: str, first_line: int):
    """(line, row) of each CSV record read from fh, counting the first as
    `first_line`; a record csv rejects, such as a quoted field past csv's
    field size limit, is an InputError naming its line."""
    lineno = first_line - 1
    try:
        for lineno, row in enumerate(csv.reader(fh), start=first_line):
            yield lineno, row
    except csv.Error as exc:
        raise InputError(f"{name}:{lineno + 1}: {exc}") from None


def _read_header(fh, name: str) -> tuple[list[str], bool]:
    first = next(_records(fh, name, 1), None)
    if first is None:
        raise InputError(f"{name}: empty prediction file")
    header = [h.strip() for h in first[1]]
    has_label = bool(header) and header[-1] == "label"
    class_names = header[:-1] if has_label else header
    if len(class_names) < 2:
        raise InputError(f"{name}: need at least two class columns")
    return class_names, has_label


def _parse_body(fh, k: int, has_label: bool):
    """(outputs, labels or None, line index) of a valid body, else None. The
    body is parsed whole unless most of its first PROBE_LINES lines repeat."""
    for first in fh:  # loadtxt warns on a body with no rows, so look for one first
        if first.strip("\r\n"):
            break
    else:
        return None
    probe = [first, *itertools.islice(fh, PROBE_LINES - 1)]
    if 2 * len(set(probe)) > len(probe):
        parsed = _parse_lines(itertools.chain(probe, fh), k, has_label)
        return None if parsed is None else (*parsed, np.arange(parsed[0].shape[0]))
    # Most lines repeat: parse each distinct line once and index the rows.
    # loadtxt skips blank lines, so they map to -1 and are dropped.
    position = dict.fromkeys(BLANK_LINES, -1)
    index = []
    chunk = probe
    while chunk:
        fresh = [line for line in dict.fromkeys(chunk) if line not in position]
        position.update(zip(fresh, itertools.count(len(position) - len(BLANK_LINES))))
        index.append(np.fromiter(map(position.__getitem__, chunk), np.intp, len(chunk)))
        chunk = fh.readlines(CHUNK_CHARS)
    distinct = list(position)[len(BLANK_LINES):]
    # A line parses alone as it does in the file only if it is one whole
    # record. A line that leaves a quoted field open swallows the next one,
    # so one row per line, with the last line parsed twice, shows that.
    parsed = _parse_lines([*distinct, distinct[-1]], k, has_label)
    if parsed is None or len(parsed[0]) != len(distinct) + 1:
        return None
    index = np.concatenate(index)
    probs, labels = parsed
    d = len(distinct)
    return probs[:d], None if labels is None else labels[:d], index[index >= 0]


def _parse_lines(lines, k: int, has_label: bool):
    """(outputs, labels or None) of valid lines in one np.loadtxt call, else None."""
    fields = [("p", np.float64, (k,))] + ([("y", np.int64)] if has_label else [])
    try:
        with warnings.catch_warnings():
            # numpy reads labels with its C integer parse, which accepts a
            # subset of what int() accepts; releases that truncate float text
            # such as "1.5" into an integer field warn as they do, and a
            # warning sends the file to the row loop like a parse error
            warnings.simplefilter("error")
            data = np.loadtxt(
                lines, dtype=fields, delimiter=",", comments=None, quotechar='"', ndmin=1,
            )
    except (ValueError, Warning):
        return None
    probs = data["p"]
    labels = data["y"].copy() if has_label else None
    s = row_sums(probs)
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
    """Row-by-row reader; names the first bad row as `file:line`. Each line
    is its own row, so the line index is `arange(n)`."""
    class_names, has_label = _read_header(fh, name)
    k = len(class_names)
    outputs, labels = [], []
    for lineno, row in _records(fh, name, 2):
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
        np.arange(len(outputs)),
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
