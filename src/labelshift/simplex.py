"""Prediction arrays and probability/weight vectors shared by every estimator.

Predictor outputs are held as validated (n, k) arrays of probability rows:
`LabeledPredictions` pairs source rows with their labels, and a
`PredictorTable` holds distinct rows with masses. `ProbVector` and
`WeightVector` are single length-k vectors. A weight vector w lives on the
affine slice W = {w >= 0 : sum_y w_y p_s(y) = 1} fixed by a source label
marginal p_s. All shift estimators optimize over W.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

SIMPLEX_TOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ProbVector:
    """Point on the probability simplex: entries >= 0, summing to 1."""

    entries: np.ndarray

    def __post_init__(self):
        e = _freeze(self.entries)
        if e.ndim != 1 or e.size == 0:
            raise InputError("probability vector must be a nonempty 1-D array")
        if not np.all(np.isfinite(e)):
            raise InputError("probability vector has non-finite entries")
        if np.any(e < 0):
            raise InputError(f"negative probability entry: {e.min()}")
        s = e.sum()
        if abs(s - 1.0) > SIMPLEX_TOL:
            raise InputError(f"probabilities sum to {s}, off by more than {SIMPLEX_TOL}")
        object.__setattr__(self, "entries", e)

    @classmethod
    def normalized(cls, entries, tol: float = 1e-6) -> "ProbVector":
        """Renormalize entries whose sum is within tol of 1; reject beyond.

        Renormalization is permitted only here, at construction, so that drift
        inside long iterative runs stays detectable.
        """
        e = np.asarray(entries, dtype=float)
        s = e.sum()
        if abs(s - 1.0) > tol:
            raise InputError(f"probabilities sum to {s}, beyond renormalization tolerance {tol}")
        return cls(e / s)

    @property
    def k(self) -> int:
        return self.entries.size

    def __len__(self) -> int:
        return self.entries.size


@dataclass(frozen=True)
class WeightVector:
    """Importance weights w with w >= 0 and sum_y w_y p_s(y) = 1."""

    weights: np.ndarray
    source_marginal: ProbVector
    check_nonneg: bool = field(default=True, compare=False)

    def __post_init__(self):
        w = _freeze(self.weights)
        p = self.source_marginal.entries
        if w.shape != p.shape:
            raise InputError("weights and source marginal have mismatched lengths")
        if not np.all(np.isfinite(w)):
            raise InputError("weight vector has non-finite entries")
        if self.check_nonneg and np.any(w < -SIMPLEX_TOL):
            raise InputError(f"negative weight entry: {w.min()}")
        dot = float(w @ p)
        if abs(dot - 1.0) > SIMPLEX_TOL:
            raise InputError(f"weights violate sum_y w_y p_s(y) = 1 (got {dot})")
        object.__setattr__(self, "weights", w)

    @property
    def k(self) -> int:
        return self.weights.size


# Every sum, max or argmax over the class axis of a float array goes through
# `row_sums`, `row_max`, `row_argmax` or `column_sums`. numpy reduces an
# (n, k) array over either axis with a k-long inner loop run once per row,
# which at k = 2 costs 5 to 50 times as much as whole-column operations. Each
# helper returns the bits numpy returns; a NaN comes out in the same places,
# though which payload it carries may differ.
COLUMNWISE_MAX_K = 7  # numpy adds 8 or more entries pairwise, not in order


def row_sums(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=-1)`. Up to COLUMNWISE_MAX_K classes, numpy adds a row's
    entries in order onto +0.0, and so does this, one column at a time."""
    k = a.shape[-1]
    if not 2 <= k <= COLUMNWISE_MAX_K:
        return a.sum(axis=-1)
    s = a[..., 0] + 0.0  # a row of -0.0 sums to +0.0
    for j in range(1, k):
        s += a[..., j]
    return s


def row_max(a: np.ndarray) -> np.ndarray:
    """`a.max(axis=-1)`, by np.maximum over columns in order. Beyond
    COLUMNWISE_MAX_K classes numpy's vector loop can pick the other of two
    signed zeros, so those rows stay with numpy."""
    k = a.shape[-1]
    if not 2 <= k <= COLUMNWISE_MAX_K:
        return a.max(axis=-1)
    m = a[..., 0]
    for j in range(1, k):
        m = np.maximum(m, a[..., j])
    return m


def row_argmax(a: np.ndarray) -> np.ndarray:
    """`a.argmax(axis=-1)` of an array without NaN: each row's hard
    prediction. Two classes are one compare of whole columns, whose strict
    `>` keeps numpy's tie rule, the lowest index; more stay with numpy."""
    if a.shape[-1] != 2:
        return a.argmax(axis=-1)
    return (a[..., 1] > a[..., 0]).astype(np.intp)


def column_sums(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=0)` of an (n, k) array. When rows lie one after another
    in memory, numpy adds them into the k sums in row order, as einsum does
    without numpy's per-row reduction loop; when a column is the shorter
    stride (k = 1, Fortran order), numpy sums it pairwise, so it keeps it."""
    if a.shape[1] > 1 and abs(a.strides[0]) > abs(a.strides[1]):
        return np.einsum("ij->j", a)
    return a.sum(axis=0)


def _check_rows(rows: np.ndarray, what: str) -> None:
    """Apply ProbVector's checks to every row of an (n, k) array at once;
    the error names the first bad row and gives ProbVector's reason."""
    if rows.ndim != 2 or rows.size == 0:
        raise InputError(f"{what} rows must form a nonempty (n, k) array")
    off = np.abs(row_sums(rows) - 1.0) > SIMPLEX_TOL
    # NaN fails every comparison and an inf entry makes its row sum inf, so
    # these two whole-array tests also reject non-finite entries
    if (rows >= 0).all() and not off.any():
        return
    bad = ~np.isfinite(rows).all(axis=1) | (rows < 0).any(axis=1) | off
    i = int(np.argmax(bad))
    try:
        ProbVector(rows[i])
    except InputError as exc:
        raise InputError(f"{what} row {i}: {exc}") from None


def normalized_rows(rows, tol: float) -> np.ndarray:
    """Row form of ProbVector.normalized: divide each row of an (n, k) array
    by its sum, rejecting a row whose sum is off from 1 by more than tol. The
    value built from the result validates it."""
    a = np.asarray(rows, dtype=float)
    sums = row_sums(a)
    bad = np.abs(sums - 1.0) > tol
    if bad.any():
        i = int(np.argmax(bad))
        raise InputError(
            f"row {i}: probabilities sum to {sums[i]}, beyond renormalization tolerance {tol}"
        )
    return a / sums[:, None]


@dataclass(frozen=True)
class LabeledPredictions:
    """Predictor outputs on labelled rows: a read-only (n, k) array of
    probability rows and the (n,) true class indices (0-based)."""

    outputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        out = _freeze(self.outputs)
        _check_rows(out, "prediction")
        lab = np.array(self.labels, dtype=int)
        if lab.shape != out.shape[:1]:
            raise InputError(f"{lab.size} labels for {out.shape[0]} prediction rows")
        bad = (lab < 0) | (lab >= out.shape[1])
        if bad.any():
            i = int(np.argmax(bad))
            raise InputError(f"row {i}: label {lab[i]} out of range for k={out.shape[1]}")
        lab.setflags(write=False)
        object.__setattr__(self, "outputs", out)
        object.__setattr__(self, "labels", lab)

    def __len__(self) -> int:
        return self.outputs.shape[0]


@dataclass(frozen=True)
class PredictorTable:
    """Finite-support predictor: distinct output rows with masses.

    `support` is a read-only (s, k) array of probability rows, no two equal;
    `masses` is the (s,) array of their nonnegative masses, with a positive
    finite total. Every reader normalizes them, so probabilities and counts
    give the same results.
    """

    support: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        support = _freeze(self.support)
        _check_rows(support, "support")
        masses = _freeze(self.masses)
        if masses.shape != support.shape[:1]:
            raise InputError(f"{masses.size} masses for {support.shape[0]} support rows")
        if np.any(masses < 0):
            raise InputError(f"negative mass {masses.min()} in predictor table")
        if not (_first_column_distinct(support) or _sorted_runs(support)[1].all()):
            raise InputError("duplicate output vector in predictor table support")
        total = masses.sum()
        if not 0 < total < np.inf:
            raise InputError(f"predictor table masses must have a positive finite total, not {total}")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "masses", masses)

    def normalized_masses(self) -> np.ndarray:
        return self.masses / self.masses.sum()


def _first_column_distinct(rows: np.ndarray) -> bool:
    """Whether no two entries of the first column of an (n, k) array are
    equal by value, which certifies that no two rows are equal. One sort of
    one column; a False says nothing about the rows."""
    col = np.sort(rows[:, 0])
    return not (col[1:] == col[:-1]).any()


def _sorted_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows of an (n, k) array, and the mask
    over that order of rows that differ from their predecessor by value (the
    start of each run of equal rows)."""
    order = np.lexsort(rows.T[::-1])
    s = rows[order]
    start = np.ones(rows.shape[0], dtype=bool)
    start[1:] = (s[1:] != s[:-1]).any(axis=1)
    return order, start


def group_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows of an (n, k) array: the index of each group's first
    row, in order of first occurrence, and the group index of every row.

    Rows compare by value (-0.0 equals 0.0). One stable lexsort puts equal
    rows next to each other, earliest first, so each run's first sorted row
    is its group's first occurrence. Rows whose first column has no repeated
    value are all distinct, and form n groups of one without the lexsort."""
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[:, None]
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise InputError("rows must form an (n, k) array with k >= 1")
    if _first_column_distinct(rows):
        return np.arange(rows.shape[0]), np.arange(rows.shape[0])
    order, start = _sorted_runs(rows)
    firsts = order[start]  # per run, in sorted order
    by_first = np.argsort(firsts)
    rank = np.empty(firsts.size, dtype=np.intp)
    rank[by_first] = np.arange(firsts.size)
    group = np.empty(rows.shape[0], dtype=np.intp)
    group[order] = rank[np.cumsum(start) - 1]
    return firsts[by_first], group


def grouped_table(outputs, masses) -> PredictorTable:
    """Build a PredictorTable from (n, k) output rows, merging equal rows by
    summing their masses. Support rows keep their order of first occurrence,
    and each merged mass is summed in row order."""
    outputs = np.asarray(outputs, dtype=float)
    masses = np.asarray(masses, dtype=float)
    if masses.shape != outputs.shape[:1]:
        raise InputError(f"{masses.size} masses for {outputs.shape[0]} output rows")
    first, group = group_rows(outputs)
    return PredictorTable(outputs[first], np.bincount(group, masses, first.size))


def project_onto_slice(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Euclidean projection of a raw array v onto W = {w >= 0 : w . p = 1}
    for a strictly positive p, returned as a raw array.

    The minimizer of ||v - w||^2 is w_y = max(0, v_y - lam * p_y). Sorted by
    v_y / p_y, the positive coordinates form a prefix, and lam is the value the
    constraint fixes on the longest prefix whose last coordinate stays
    positive (sort plus cumsum; Condat, Math. Program. 2016, weighted form).
    When one v_y / p_y dwarfs the rest, rounding can leave no coordinate
    positive; the projection is then the vertex e_j / p_j of the largest.
    """
    order = np.argsort(-(v / p))
    vs, ps = v[order], p[order]
    lams = (np.cumsum(vs * ps) - 1.0) / np.cumsum(ps * ps)
    positive = np.flatnonzero(vs > lams * ps)
    if positive.size == 0:
        return np.where(np.arange(p.size) == order[0], 1.0 / p, 0.0)
    w = np.maximum(v - lams[positive[-1]] * p, 0.0)
    return w / (w @ p)  # remove last-bit drift


def project_to_weight_simplex(v, source_marginal: ProbVector) -> WeightVector:
    """Euclidean projection of v onto W = {w >= 0 : w . p_s = 1}."""
    p = source_marginal.entries
    if np.any(p <= 0):
        raise InputError("projection requires a strictly positive source marginal")
    v = np.asarray(v, dtype=float)
    if v.shape != p.shape:
        raise InputError("vector and source marginal have mismatched lengths")
    if not np.all(np.isfinite(v)):
        raise InputError("cannot project a vector with non-finite entries")
    return WeightVector(project_onto_slice(v, p), source_marginal)


def weights_to_target_marginal(w: WeightVector) -> ProbVector:
    """Target label marginal p_t(y) = w_y * p_s(y)."""
    return ProbVector.normalized(w.weights * w.source_marginal.entries, tol=1e-9)
