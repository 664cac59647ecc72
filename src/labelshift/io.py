"""CSV interchange for predictor outputs and confusion matrices.

A prediction file is UTF-8 CSV with a header of class-column names, optional
trailing integer "label" column (0-based class index), '.' decimals, one row
per example. Entries must be finite; probability rows off from 1 by at most
1e-6 are renormalized; anything worse is rejected. A file reads as an (n, k)
output array plus an optional (n,) label array.
"""
from __future__ import annotations

import csv
import io

import numpy as np

from .errors import InputError
from .confusion import ConfusionMatrix

ROW_SUM_TOL = 1e-6


def read_prediction_file(path) -> tuple[np.ndarray, np.ndarray | None, list[str]]:
    """Return (outputs (n, k), labels or None, class column names)."""
    with open(path, newline="", encoding="utf-8") as fh:
        return read_predictions(fh, name=str(path))


def read_predictions(fh, name: str = "<stream>"):
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{name}: empty prediction file") from None
    header = [h.strip() for h in header]
    has_label = bool(header) and header[-1] == "label"
    class_names = header[:-1] if has_label else header
    k = len(class_names)
    if k < 2:
        raise InputError(f"{name}: need at least two class columns")

    outputs, labels = [], []
    for lineno, row in enumerate(reader, start=2):
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(class_names) + (["label"] if labels is not None else [])
        writer.writerow(header)
        for i in range(n):
            row = [f"{v:.12g}" for v in outputs[i]]
            if labels is not None:
                row.append(str(int(labels[i])))
            writer.writerow(row)


def confusion_to_csv(confusion: ConfusionMatrix, class_names=None) -> str:
    """Row-major CSV with a header row of class labels."""
    k = confusion.k
    if class_names is None:
        class_names = [f"class_{i}" for i in range(k)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(class_names)
    for row in confusion.joint:
        writer.writerow([f"{v:.12g}" for v in row])
    return buf.getvalue()
