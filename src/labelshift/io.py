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
means distinct bytes; lines that write one number two ways are two rows.

A file is read in binary blocks, cut into lines at \n, \r\n and a lone \r as
a newline="" text handle cuts them; the header is their first CSV record.
When at least half of the first PROBE_LINES body lines repeat an earlier
line, lines are keyed by their bytes and only the distinct ones are decoded
and parsed, in one `np.loadtxt` call, and indexed: a line that is one whole
record parses the same wherever it stands, so the rows are bit for bit a
parse of every line, and memory grows with the distinct lines, not the file.
Otherwise one `np.loadtxt` call streams the body from a text view of the
handle and the index is `arange(n)`. Both parses are checked over whole
columns; labels are parsed by numpy's C integer parser, which accepts a
subset of what the row loop's `int` accepts, with equal values. A file that
either parse or check rejects, whose parse warns, or whose lines do not
decode as UTF-8, is read again from the start by the row loop `_read_rows`,
which accepts it or names the first bad row as `file:line`; that loop is the
only source of error messages, and it returns what the parses return on
every file both accept. A handle that cannot seek back, such as a pipe, is
read into memory first.

`write_prediction_file` writes only what the reader reads back: rows that
the reader's own whole-column check (`_unreadable_rows`) accepts, labels that
are integers in [0, k), n >= 1 rows, k >= 2 class names whose last is not
"label" when there is no label column. Each check covers a whole column and
names the first bad row, before the file is opened. The reader gets back each
row's 12-digit text, renormalized to sum 1. Rows are checked as float64
values and read back as their text, whose row sums differ by up to 5e-12, so
only a row that close to a limit can be refused by one and not the other.
Rows are written WRITE_CHUNK_ROWS at a time: a chunk's rows are keyed by
their float64 bits and label and grouped, so -0.0 and 0.0, whose text
differs, stay apart; each distinct row of the chunk is formatted once, and
the chunk is written as the join of its rows' texts. The text held is one
chunk's.
"""
from __future__ import annotations

import codecs
import collections
import contextlib
import csv
import io
import itertools
import warnings

import numpy as np

from .errors import InputError
from .simplex import ROW_SUM_TOL, group_rows, row_sums

WRITE_CHUNK_ROWS = 4096  # rows grouped and written at once, which bounds the text held
PROBE_LINES = 4096  # body lines whose repeats choose how the rest is parsed
CHUNK_BYTES = 1 << 20  # bytes read at once
BLANK_LINES = (b"\n", b"\r\n", b"\r")  # the blank lines the block cut gives


def read_prediction_file(path) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, list[str]]:
    """Return (distinct outputs (d, k), their labels or None, line index (n,),
    class column names). The file is read as UTF-8 with an optional byte-order
    mark; a file that cannot be read, or text that does not decode, is an
    InputError naming the file."""
    try:
        with open(path, "rb") as fh:
            return read_predictions(fh, name=str(path))
    except OSError as exc:
        raise InputError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


def read_predictions(fh, name: str = "<stream>"):
    """Read a prediction file from a binary handle, such as `open(path, "rb")`
    or `io.BytesIO`."""
    piped = not fh.seekable()
    if piped:
        fh = io.BytesIO(fh.read())
    start = fh.tell()
    parsed = _parse_file(fh, name)
    if parsed is not None:
        return parsed
    fh.seek(start)
    with _text_view(fh, "utf-8-sig") as text:
        # decoded as a text handle did, a pipe whole and a file by blocks, so
        # that a byte that does not decode is placed alike
        return _read_rows(io.StringIO(text.read(), newline="") if piped else text, name)


@contextlib.contextmanager
def _text_view(fh, encoding: str):
    """fh from where it stands as text with newline="", left open."""
    text = io.TextIOWrapper(fh, encoding=encoding, newline="")
    try:
        yield text
    finally:
        text.detach()


def _line_blocks(fh):
    """The lines of fh with their endings, a list per block read. Blocks grow
    to CHUNK_BYTES from 16 bytes a probe line, so a probe cuts few lines it
    does not use. A line that a block cuts, or whose \r may be half of a
    \r\n, is carried to the next list."""
    tail, size = b"", min(16 * PROBE_LINES, CHUNK_BYTES)
    while block := fh.read(size):
        size = min(2 * size, CHUNK_BYTES)
        lines = (tail + block).splitlines(keepends=True)
        tail = b"" if lines[-1].endswith(b"\n") else lines.pop()
        yield lines
    if tail:
        yield [tail]


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


def _parse_file(fh, name: str):
    """(outputs, labels or None, line index, class names) of a valid file,
    else None. The body is parsed whole unless most of its first PROBE_LINES
    lines repeat."""
    blocks, block, offset = _line_blocks(fh), iter(()), fh.tell()

    def lines():  # every line, counted in `offset`; the rest of its block stays in `block`
        nonlocal block, offset
        for block in map(iter, blocks):
            for line in block:
                offset += len(line)
                yield line

    try:  # utf-8-sig drops a leading byte-order mark
        class_names, has_label = _read_header(codecs.iterdecode(lines(), "utf-8-sig"), name)
    except (InputError, UnicodeDecodeError):
        return None
    body, rest = offset, itertools.chain(block, itertools.chain.from_iterable(blocks))
    for first in rest:  # loadtxt warns on a body with no rows, so look for one first
        if first not in BLANK_LINES:
            break
    else:
        return None
    k = len(class_names)
    probe = [first, *itertools.islice(rest, PROBE_LINES - 1)]
    if 2 * len(set(probe)) > len(probe):
        fh.seek(body)
        with _text_view(fh, "utf-8") as text:
            parsed = _parse_lines(text, k, has_label)
        return None if parsed is None else (*parsed, np.arange(parsed[0].shape[0]), class_names)
    # Most lines repeat: parse each distinct line once and index the rows. A
    # new line takes the next position as it is met; blank lines, which
    # loadtxt skips, map to -1 and are dropped.
    position = collections.defaultdict(itertools.count().__next__, dict.fromkeys(BLANK_LINES, -1))
    index = np.fromiter(map(position.__getitem__, itertools.chain(probe, rest)), np.intp)
    distinct = list(position)[len(BLANK_LINES):]
    # A line parses alone as it does in the file only if it is one whole
    # record. A line that leaves a quoted field open swallows the next one,
    # so one row per line, with the last line parsed twice, shows that. A
    # line that does not decode fails the parse.
    parsed = _parse_lines(map(bytes.decode, [*distinct, distinct[-1]]), k, has_label)
    if parsed is None or len(parsed[0]) != len(distinct) + 1:
        return None
    probs, labels = parsed
    d = len(distinct)
    return probs[:d], None if labels is None else labels[:d], index[index >= 0], class_names


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
    if _unreadable_rows(probs, s).any() or not (labels is None or ((labels >= 0) & (labels < k)).all()):
        return None
    return np.maximum(probs, 0.0) / np.maximum(s, 1e-300)[:, None], labels


def _unreadable_rows(probs: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Mask of the rows of an (n, k) array, with their sums, that a prediction
    file may not hold: a sum off from 1 by more than ROW_SUM_TOL, which any
    non-finite entry gives (its row sums to inf or NaN), or an entry below
    -ROW_SUM_TOL."""
    bad = ~(np.abs(sums - 1.0) <= ROW_SUM_TOL)
    bad[np.flatnonzero(probs < -ROW_SUM_TOL) // probs.shape[1]] = True
    return bad


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
    """Write (n, k) probability rows, with their (n,) class indices if given,
    as a prediction file: a header of the class names (class_0 ... by
    default) and "label", then one row per line, cells as %.12g, labels as
    integers and \r\n line endings, the bytes a csv.writer writes for them.
    Inputs that `read_prediction_file` would reject or read back otherwise
    are an InputError naming the first bad row, raised before the file is
    opened. Each chunk of WRITE_CHUNK_ROWS rows formats each of its distinct
    rows once."""
    outputs = np.ascontiguousarray(outputs, dtype=float)
    if outputs.ndim != 2 or outputs.shape[0] == 0 or outputs.shape[1] < 2:
        raise InputError(f"prediction rows must form an (n, k) array, n >= 1 and k >= 2, not {outputs.shape}")
    n, k = outputs.shape
    bad = _unreadable_rows(outputs, row_sums(outputs))
    if bad.any():
        i = int(np.argmax(bad))
        raise InputError(
            f"prediction row {i}: {outputs[i].tolist()} is not a probability row: entries must be "
            f"finite and at least -{ROW_SUM_TOL}, summing to 1 within {ROW_SUM_TOL}"
        )
    names = [f"class_{i}" for i in range(k)] if class_names is None else list(class_names)
    if len(names) != k:
        raise InputError(f"{len(names)} class names for {k} class columns")
    if labels is None and str(names[-1]).strip() == "label":
        raise InputError("a last class name 'label' would read back as the label column")
    if labels is not None:
        labels = _label_column(labels, n, k)
    fmt = ",".join(["%.12g"] * k) + (",%d" if labels is not None else "") + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(names + (["label"] if labels is not None else []))
        for start in range(0, n, WRITE_CHUNK_ROWS):
            chunk = slice(start, start + WRITE_CHUNK_ROWS)
            rows, lab = outputs[chunk], None if labels is None else labels[chunk]
            keys = rows.view(np.int64)  # bits, so -0.0 and 0.0, whose text differs, stay apart
            first, group = group_rows(keys if lab is None else np.column_stack((keys, lab)))
            cols = rows[first].T.tolist() + ([] if lab is None else [lab[first].tolist()])
            texts = [fmt % row for row in zip(*cols)]
            fh.write("".join([texts[i] for i in group.tolist()]))


def _label_column(labels, n: int, k: int) -> np.ndarray:
    """labels as an (n,) int64 array of class indices in [0, k); an
    InputError names the first that is not one."""
    lab = np.asarray(labels)
    if lab.shape != (n,):
        raise InputError(f"labels of shape {lab.shape} for {n} prediction rows")
    if lab.dtype.kind not in "biuf":
        raise InputError(f"labels must be integers, not {lab.dtype}")
    with np.errstate(invalid="ignore"):  # NaN and inf fail the tests below
        bad = ~((lab >= 0) & (lab < k) & (lab % 1 == 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise InputError(f"row {i}: label {lab[i]} is not a class index in [0, {k})")
    return lab.astype(np.int64)
