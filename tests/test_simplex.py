import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from labelshift.errors import InputError
from labelshift.simplex import (
    SIMPLEX_TOL,
    LabeledPredictions,
    PredictorTable,
    ProbVector,
    WeightVector,
    _first_column_distinct,
    column_sums,
    group_rows,
    grouped_table,
    normalized_rows,
    project_to_weight_simplex,
    row_argmax,
    project_onto_slice,
    row_max,
    row_sums,
    scale_rows,
    weights_to_target_marginal,
)


def assert_same_bits(got, want):
    """Equal shape and equal bits, except that a NaN only has to meet a NaN:
    which payload an operation on two NaNs keeps is up to the machine loop."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def check_class_axis_helpers(a):
    with np.errstate(all="ignore"):  # inf - inf and overflow warn on both sides
        assert_same_bits(row_sums(a), a.sum(axis=-1))
        assert_same_bits(row_max(a), a.max(axis=-1))
        assert_same_bits(column_sums(a), a.sum(axis=0))
        assert_same_bits(row_sums(a[0]), a[0].sum(axis=-1))
        assert_same_bits(row_max(a[0]), a[0].max(axis=-1))
        c = a[::-1, -1]  # a strided factor per row
        assert_same_bits(scale_rows(a, c), a * c[:, None])
    no_nan = np.where(np.isnan(a), 1.0, a)  # row_argmax takes arrays without NaN
    assert_same_bits(row_argmax(no_nan), no_nan.argmax(axis=-1))
    assert_same_bits(row_argmax(no_nan[0]), no_nan[0].argmax(axis=-1))


@st.composite
def strided_views(draw, k):
    """An (n, k) float array with n >= 1, as one of the layouts the package
    reduces: contiguous, the reader's structured field view `data["p"]`, a
    boolean-mask row subset, a column slice of a wider array, Fortran order
    or reversed rows. Entries range over every float, -0.0, inf and NaN included."""
    n = draw(st.integers(1, 40))
    a = draw(arrays(np.float64, (n, k), elements=st.floats(), fill=st.nothing()))
    layout = draw(st.sampled_from(["contiguous", "field", "mask", "column_slice", "fortran", "reversed"]))
    if layout == "field":
        data = np.zeros(n, dtype=[("p", np.float64, (k,)), ("y", np.int64)])
        data["p"] = a
        return data["p"]
    if layout == "mask":
        keep = draw(arrays(bool, n))
        keep[draw(st.integers(0, n - 1))] = True
        return a[keep]
    if layout == "column_slice":
        return np.concatenate([a, np.ones((n, draw(st.integers(1, 3))))], axis=1)[:, :k]
    if layout == "fortran":
        return np.asfortranarray(a)
    if layout == "reversed":
        return a[::-1]
    return a


class TestClassAxisHelpers:
    """row_sums, row_max, row_argmax, column_sums and scale_rows return numpy's own bits."""

    @pytest.mark.parametrize("k", range(1, 13))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_bits_as_numpy(self, k, data):
        check_class_axis_helpers(data.draw(strided_views(k)))

    @pytest.mark.parametrize("k", [2, 7, 8, 10])
    @pytest.mark.parametrize("n", [4097, 100_001])
    def test_same_bits_on_long_arrays(self, n, k):
        rng = np.random.default_rng(n + k)
        a = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-8, 8, size=(n, k))
        a[rng.random((n, k)) < 0.05] = -0.0
        check_class_axis_helpers(a)
        check_class_axis_helpers(np.concatenate([a, a], axis=1)[:, :k])

    @pytest.mark.parametrize("k", range(1, 13))
    def test_signed_zeros(self, k):
        # numpy's row sum starts from +0.0, so a row of -0.0 sums to +0.0, and
        # its max loop over 8 or more entries can return either zero of a tie
        a = np.where(np.random.default_rng(k).random((256, k)) < 0.5, 0.0, -0.0)
        a[0] = -0.0
        assert_same_bits(row_sums(a)[0], 0.0)
        check_class_axis_helpers(a)


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

    def test_normalized_rows_names_the_row(self):
        with pytest.raises(InputError) as exc_info:
            normalized_rows([[0.5, 0.5], [0.5, 0.625]], tol=1e-6)
        assert str(exc_info.value) == "row 1: probabilities sum to 1.125, beyond renormalization tolerance 1e-06"

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
    @pytest.mark.parametrize("build, what", [
        (lambda rows: LabeledPredictions(rows, [0, 1, 0]), "prediction"),
        (lambda rows: PredictorTable(rows, np.ones(3)), "support"),
    ], ids=["labeled", "table"])
    @pytest.mark.parametrize("bad, reason", [
        ([1.25, -0.25], "negative probability entry: -0.25"),
        ([np.nan, 0.5], "probability vector has non-finite entries"),
        ([0.5, 0.625], f"probabilities sum to 1.125, off by more than {SIMPLEX_TOL}"),
    ], ids=["negative", "nan", "sum"])
    def test_bad_row_is_named(self, build, what, bad, reason):
        rows = np.array([[0.5, 0.5], bad, [0.25, 0.75]])
        with pytest.raises(InputError) as exc_info:
            build(rows)
        assert str(exc_info.value) == f"{what} row 1: {reason}"

    def test_counts_default_to_one_and_are_checked(self):
        out = np.array([[0.2, 0.8], [0.5, 0.5]])
        assert LabeledPredictions(out, [1, 0]).counts.tolist() == [1.0, 1.0]
        counted = LabeledPredictions(out, [1, 0], [3, 1])
        assert counted.weights().tolist() == [0.75, 0.25] and not counted.counts.flags.writeable
        with pytest.raises(InputError, match="1 counts for 2 prediction rows"):
            LabeledPredictions(out, [1, 0], [3])
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(InputError, match=f"row 1: count {bad} is not positive and finite"):
                LabeledPredictions(out, [1, 0], [1.0, bad])

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
        t = grouped_table([a, np.array([0.6, 0.4]), a.copy()], [1.0, 2.0, 3.0])
        assert len(t.support) == 2
        merged = dict(zip(map(tuple, t.support), t.masses))
        assert merged[(0.3, 0.7)] == 4.0

    def test_normalized_masses(self):
        t = grouped_table([np.array([0.3, 0.7]), np.array([0.6, 0.4])], [1.0, 3.0])
        np.testing.assert_allclose(t.normalized_masses(), [0.25, 0.75])

    @pytest.mark.parametrize(
        "masses", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]], ids=["zero", "nan", "inf"]
    )
    def test_masses_need_a_positive_finite_total(self, masses):
        with pytest.raises(InputError, match="positive finite total"):
            grouped_table([np.array([0.3, 0.7]), np.array([0.6, 0.4])], masses)

    def test_grouped_table_rejects_rows_without_columns(self):
        with pytest.raises(InputError, match="k >= 1"):
            grouped_table(np.empty((3, 0)), np.ones(3))

    def test_rejects_duplicate_support(self):
        out = np.array([0.3, 0.7])
        with pytest.raises(InputError):
            PredictorTable(np.array([out, out]), np.array([0.5, 0.5]))


def group_rows_by_unique(rows):
    """Reference: the former `group_rows`, built on np.unique over rows."""
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse.reshape(-1)]


@st.composite
def repeated_rows(draw, probability=False):
    """(n, k) rows, k in 1..12, picked from a small pool so that rows repeat;
    the pool may hold rows one ulp (`np.nextafter`) from another pool row in
    one entry, and a random subset of zero entries is flipped to -0.0."""
    k = draw(st.integers(1, 12))
    n = draw(st.integers(1, 40))
    if probability:
        values = st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e-300])
    else:
        values = st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, -1.0, 1e-300, 5e-324]),
            st.floats(-1.0, 1.0, allow_nan=False),
        )
    pool = np.array(
        draw(st.lists(st.lists(values, min_size=k, max_size=k), min_size=1, max_size=6))
    ).reshape(-1, k)
    if probability:
        pool[pool.sum(axis=1) == 0, 0] = 1.0
        pool /= pool.sum(axis=1, keepdims=True)
    # rows that differ from another only in the last bit of one entry;
    # probability entries move up, so they stay nonnegative
    direction = st.just(2.0) if probability else st.sampled_from([-np.inf, np.inf])
    twins = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(0, k - 1), direction), max_size=3))
    for i, j, toward in twins:
        twin = pool[i].copy()
        twin[j] = np.nextafter(twin[j], toward)
        pool = np.vstack([pool, twin])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = pool[rng.integers(0, len(pool), size=n)]
    flip = rng.random((n, k)) < 0.5
    return np.where((rows == 0) & flip, -rows, rows)


@st.composite
def certificate_rows(draw):
    """(n, k) probability rows built to reach one branch of `group_rows`, and
    whether the first-column certificate holds on them:
    - "distinct": k >= 2, no repeated value in the first column (no lexsort);
    - "tied": k >= 3, a repeated first-column value over distinct rows
      (lexsort);
    - "signed_zero": k >= 3, first column 0.0 and -0.0, which compare equal
      (lexsort);
    - "tiny": n = 0 or n = 1 (the certificate holds).
    Outside "tiny", one row may be copied onto another, which ties the first
    column and makes two rows equal."""
    branch = draw(st.sampled_from(["distinct", "tied", "signed_zero", "tiny"]))
    k = draw(st.integers(2 if branch in ("distinct", "tiny") else 3, 6))
    n = draw(st.integers(0, 1) if branch == "tiny" else st.integers(2, 30))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    if branch == "tied":  # n draws from at most n - 1 values
        pool = draw(st.lists(unit, min_size=1, max_size=n - 1))
        first = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    elif branch == "signed_zero":
        more = st.lists(st.sampled_from([0.0, -0.0, 0.5]), min_size=n - 2, max_size=n - 2)
        first = [0.0, -0.0] + draw(more)
    else:  # unique=True keeps 0.0 and -0.0 apart, since they compare equal
        first = draw(st.lists(unit, min_size=n, max_size=n, unique=branch == "distinct"))
    first = np.array(first, dtype=float).reshape(n, 1)
    # rows share 1 - |first| out; distinct second entries keep rows apart
    share = np.ones((n, 1))
    if k > 2:
        second = np.arange(1, n + 1)[:, None] / (n + 1.0)
        rest = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n * (k - 2), max_size=n * (k - 2))))
        rest = rest.reshape(n, k - 2)
        share = np.hstack([second, (1.0 - second) * rest / rest.sum(axis=1, keepdims=True)])
    rows = np.hstack([first, (1.0 - np.abs(first)) * share])
    copied = branch != "tiny" and draw(st.booleans())
    if copied:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[j] = rows[i]
    return rows, branch == "tiny" or (branch == "distinct" and not copied)


class TestGroupRows:
    @given(rows=repeated_rows())
    @settings(max_examples=300, deadline=None)
    @example(rows=np.array([[0.25, 0.75]]))
    @example(rows=np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, -0.0]]))
    @example(rows=np.array([[0.5] * 12, [0.25] * 12, [0.5] * 12]))
    @example(rows=np.array([[1.0], [-0.0], [1.0], [0.0]]))
    def test_matches_unique_reference(self, rows):
        first, group = group_rows(rows)
        ref_first, ref_group = group_rows_by_unique(rows)
        np.testing.assert_array_equal(first, ref_first)
        np.testing.assert_array_equal(group, ref_group)

    @given(rows=repeated_rows(probability=True))
    @settings(max_examples=200, deadline=None)
    def test_table_rejects_support_iff_rows_repeat(self, rows):
        distinct = group_rows_by_unique(rows)[0].size == rows.shape[0]
        if distinct:
            PredictorTable(rows, np.ones(rows.shape[0]))
        else:
            with pytest.raises(InputError, match="duplicate output vector"):
                PredictorTable(rows, np.ones(rows.shape[0]))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 0), (2, 2, 2), (3,)])
    def test_rejects_arrays_that_are_not_rows(self, shape):
        with pytest.raises(InputError, match=r"\(n, k\) array"):
            group_rows(np.empty(shape))

    @given(case=certificate_rows())
    @settings(max_examples=300, deadline=None)
    @example(case=(np.empty((0, 2)), True))
    @example(case=(np.array([[0.25, 0.75]]), True))
    @example(case=(np.array([[0.0, 0.5, 0.5], [-0.0, 0.25, 0.75]]), False))
    @example(case=(np.array([[0.0, 0.5, 0.5], [-0.0, 0.5, 0.5]]), False))
    def test_certificate_branches_match_reference_and_table(self, case):
        rows, certified = case
        assert _first_column_distinct(rows) == certified
        first, group = group_rows(rows)
        ref_first, ref_group = group_rows_by_unique(rows)
        np.testing.assert_array_equal(first, ref_first)
        np.testing.assert_array_equal(group, ref_group)
        masses = np.ones(rows.shape[0])
        if rows.shape[0] == 0:
            with pytest.raises(InputError, match="nonempty"):
                PredictorTable(rows, masses)
        elif ref_first.size == rows.shape[0]:
            PredictorTable(rows, masses)
        else:
            with pytest.raises(InputError, match="duplicate output vector"):
                PredictorTable(rows, masses)


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

    def test_dominant_entry_projects_to_vertex(self):
        # in floating point no coordinate passes the threshold test, which
        # used to leave the projection with no threshold (IndexError)
        p = ProbVector(np.array([1 / 3, 1 / 6, 1 / 6, 1 / 3]))
        w = project_to_weight_simplex(np.array([2.5, 1.38, 0.47, 3.3e17]), p)
        np.testing.assert_array_equal(w.weights, [0.0, 0.0, 0.0, 3.0])

    @pytest.mark.parametrize(
        "v, expect",
        [([1.0, 0.5], [1.0, 1.0]), ([2.0, 3.0], [2.0, 1.0]),
         ([1.0, 1e17], [1.0, 1.0]), ([1e301, 1.0], [1 / 1e-300, 0.0])],
    )
    def test_underflowing_square_projects_without_warning(self, v, expect):
        # p_0^2 = 1e-600 underflows to 0, so the first prefix's lam is not
        # finite; where it decides the projection, the projection is the
        # vertex. Against [1, 1e17] both coordinates stay positive: the exact
        # projection is 1 + 1e-300 (1 - 1e17) and 1 - 1e-300 w_0, which round to 1.
        p = ProbVector(np.array([1e-300, 1.0]))
        np.testing.assert_array_equal(project_to_weight_simplex(np.array(v), p).weights, expect)

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


def exact_projection(v, p):
    """The projection of v onto {w >= 0 : w . p = 1}, computed at 50 digits
    from the same decimal inputs: the longest prefix by v_y / p_y whose last
    coordinate stays positive fixes lam."""
    import mpmath

    with mpmath.workdps(50):
        vs, ps = [mpmath.mpf(float(x)) for x in v], [mpmath.mpf(float(x)) for x in p]
        s = q = mpmath.mpf(0)
        for i in sorted(range(len(vs)), key=lambda i: -vs[i] / ps[i]):
            s, q = s + vs[i] * ps[i], q + ps[i] ** 2
            if vs[i] - (s - 1) / q * ps[i] > 0:
                lam = (s - 1) / q
        return np.array([float(max(vi - lam * pi, 0)) for vi, pi in zip(vs, ps)])


def closed_form_projection(v, p):
    """Reference: the closed form that `project_onto_slice` once tried first.
    lam is fixed by the longest prefix by v_y / p_y whose last coordinate
    stays positive, and w = max(v - lam p, 0) is divided by its w . p."""
    order = np.argsort(-(v / p))
    vs, ps = v[order], p[order]
    lams = (np.cumsum(vs * ps) - 1.0) / np.cumsum(ps * ps)
    w = np.maximum(v - lams[np.flatnonzero(vs > lams * ps)[-1]] * p, 0.0)
    return w / (w @ p)


class TestProjectionAgainstExact:
    def test_coordinate_dwarfed_by_another_stays_positive(self):
        # lam = 1e17 - 1 rounds to 1e17, which once left the second
        # coordinate at 0 and returned [1e-20, 1]
        v, p = np.array([1.0, 1e17]), np.array([1e-20, 1.0])
        np.testing.assert_allclose(project_onto_slice(v, p), exact_projection(v, p), rtol=1e-15, atol=0)
        np.testing.assert_allclose(project_onto_slice(v, p), [0.999, 1.0], rtol=1e-15)

    @given(k=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_50_digit_projection(self, k, seed):
        # entries of v from 1e-3 to 1e18 and of p down to 1e-30, so that one
        # v_y / p_y often dwarfs the rest
        rng = np.random.default_rng(seed)
        p = np.maximum(rng.dirichlet(np.full(k, rng.choice([0.1, 1.0]))), 1e-30)
        p /= p.sum()
        v = rng.random(k) * 10.0 ** rng.uniform(-3, 18, size=k)
        exact = exact_projection(v, p)
        got = project_onto_slice(v, p)
        # most instances agree to 1e-15 * max|exact|, but about one in 5,000
        # has two nearly tied breakpoints in its prefix, where rounding
        # v_y / p_y costs up to eps * v_y: over 2,000,000 instances the worst
        # error was 3.6e-13 * max|exact|
        assert np.abs(got - exact).max() <= 2e-12 * np.abs(exact).max()

    def test_cancelling_closed_form_is_recomputed(self):
        # the closed form's prefix is right, but its v - lam * p leaves the
        # largest coordinate 64 for 1.31, and dividing by w . p = 49 shrinks
        # the small-p one 49-fold
        v = np.array([4.09539265e17, 6.43986643e-3, 2.62077664e-3, 1.32113020e1,
                      2.31521010e-1, 2.86488426e4, 2.72129802e-3, 1.67703998e14])
        p = np.array([7.65262918e-1, 7.46975458e-2, 8.91191113e-14, 9.80027538e-8,
                      3.31243340e-4, 2.03239927e-21, 1.30453128e-2, 1.46662882e-1])
        p /= p.sum()
        np.testing.assert_allclose(project_onto_slice(v, p), exact_projection(v, p), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_matches_closed_form_on_gradient_steps(self, k):
        # v is a point of the slice, some of its coordinates 0, plus a
        # gradient-sized step: the traffic of projected gradient and of BBSE's
        # clip, on which the closed form was accurate
        rng = np.random.default_rng(k)
        for _ in range(300):
            p = rng.dirichlet(np.full(k, rng.choice([0.3, 1.0, 5.0])))
            w = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.8)
            w = w / p / w.sum() if w.any() else np.eye(k)[0] / p
            v = w + 10.0 ** rng.uniform(-6, 1) * rng.standard_normal(k)
            got = project_onto_slice(v, p)
            assert np.abs(got - closed_form_projection(v, p)).max() <= 1e-14 * np.abs(got).max()
