"""The encoded counting core against the row-scan oracle on small
generated datasets: same cells, counts, subclass order, subclass cells and
errors; the threshold sweep against one battery per threshold, row for
row; and the divergence kernel against its validated-mixture version, bit
for bit."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import rowscan_oracle as oracle
from fairaudit import divergence as dv
from fairaudit.config import MODES, RevenueConfig
from fairaudit.detection import (Comparison, DetectionConfig, run_test,
                                 subclass_double_check)
from fairaudit.revenue import sweep
from fairaudit.tabular import (
    BAD,
    CATEGORICAL,
    DERIVED,
    GOOD,
    INTEGER,
    Column,
    Dataset,
    ProbabilityDistribution,
    SensitiveSpec,
    group_rows,
    label_distribution,
    outcome_levels,
    partition,
)

# NUL, case and non-ASCII characters in category values: distinct values
# must stay distinct and sort as Python sorts them.
_STRINGS = st.text(alphabet="aB\x00é", max_size=2)


@st.composite
def audits(draw, undeclared=True):
    """(dataset, sensitive spec, conditioning column names)."""
    n = draw(st.integers(1, 24))

    def column(elements):
        return tuple(draw(st.lists(elements, min_size=n, max_size=n)))

    classes = tuple(f"c{i}" for i in range(draw(st.integers(2, 4))))
    # labels use a prefix of the classes (later classes may have no rows),
    # and up to two labels that are not declared at all
    used = classes[:draw(st.integers(1, len(classes)))]
    used += ("zz", "yy")[:draw(st.integers(0, 2 if undeclared else 0))]
    cols = []
    for j in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            cols.append(Column(f"x{j}", INTEGER, column(st.integers(-2, 2))))
        else:
            cols.append(Column(f"x{j}", CATEGORICAL, column(_STRINGS)))
    d = Dataset(columns=(*cols,
                         Column("s", DERIVED, column(st.sampled_from(used))),
                         Column("outcome", CATEGORICAL, column(st.sampled_from((GOOD, BAD))))),
                outcome="outcome")
    return d, SensitiveSpec("s", "s", classes), [c.name for c in cols]


@st.composite
def keyed_rows(draw):
    """(size, [(codes, n_codes), ...]): a few rows keyed by up to six columns
    whose code ranges multiply past int64, each within int64 times `size`."""
    size = draw(st.integers(0, 30))
    keys = []
    for _ in range(draw(st.integers(0, 6))):
        n_codes = draw(st.one_of(st.integers(1, 4), st.integers(1, 2 ** 63 // 32)))
        codes = draw(st.lists(st.integers(0, min(n_codes - 1, 3)) | st.integers(0, n_codes - 1),
                              min_size=size, max_size=size))
        keys.append((np.array(codes, dtype=np.int64), n_codes))
    return size, keys


@st.composite
def sweeps(draw):
    """(dataset with an `amount` column, sensitive spec, conditioning
    columns, scores, threshold grid), with declared class labels only (the
    battery's errors are the audits' own).  Scores and thresholds share a
    small range, so scores tie with thresholds, and some grids lie wholly
    below or above every score."""
    d, spec, cols = draw(audits(undeclared=False))
    amounts = draw(st.lists(st.integers(0, 50), min_size=d.size, max_size=d.size))
    d = d.with_columns([Column("amount", INTEGER, tuple(amounts))])
    scores = draw(st.lists(st.integers(0, 4), min_size=d.size, max_size=d.size))
    lowest = draw(st.integers(-4, 5))
    grid = sorted(draw(st.sets(st.integers(lowest, lowest + 3), min_size=1, max_size=4)))
    return d, spec, cols, scores, grid


@st.composite
def count_pairs(draw):
    """Two non-zero count vectors over one support of 1 to 4 labels."""
    size = draw(st.integers(1, 4))
    counts = st.lists(st.integers(0, 40), min_size=size, max_size=size).filter(any)
    return draw(counts), draw(counts)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _label_masses(dist):
    """A distribution as label -> mass, over the labels it gives mass to."""
    return {label: m for label, m in zip(dist.support, dist.mass) if m}


class TestAgainstRowScan:
    @given(audits(), st.integers(1, 3), st.sampled_from((0, 1, 3, 10)))
    def test_partitions_counts_and_subclasses(self, audit, depth, min_support):
        d, spec, cols = audit
        got = _outcome(partition, d, spec)
        want = _outcome(oracle.partition, d, spec)
        cfg = DetectionConfig(depth=depth, min_support=min_support)
        if got[0] != "ok" or want[0] != "ok":
            # the same whole-data, first-row error, and never only one of them
            assert got == want == _outcome(run_test, d, spec, "outcome", cols, cfg)
            return
        fp, expected_fp = got[1], want[1]
        # arrays have no == truth value: compare the cells as tuples
        assert {c: tuple(r.tolist()) for c, r in fp.cells.items()} == expected_fp.cells
        assert (fp.feature, fp.conditions) == (expected_fp.feature, expected_fp.conditions)
        levels = outcome_levels(d, "outcome")
        for rows in fp.cells.values():
            if len(rows):
                dist, = label_distribution(levels, rows, 1)
                assert (_label_masses(dist)
                        == _label_masses(oracle.label_distribution(d, rows, "outcome")))

        expected = oracle.subclass_conditions(d, cols, depth)
        lines = subclass_double_check(d, fp, cols, cfg)
        assert [line.conditions for line in lines] == expected
        assert [line.union_count for line in lines] == [
            sum(len(rows) for rows in oracle.partition(d, spec, c).cells.values())
            for c in expected]

    @given(audits(undeclared=False), st.integers(1, 3), st.sampled_from((0, 1, 3, 10)))
    def test_subclass_cells(self, audit, depth, min_support):
        d, spec, cols = audit
        lines = subclass_double_check(d, partition(d, spec), cols,
                                      DetectionConfig(depth=depth, min_support=min_support))
        expected = oracle.subclass_conditions(d, cols, depth)
        assert [line.conditions for line in lines] == expected
        for line in lines:
            cells = oracle.partition(d, spec, line.conditions).cells
            present = {c: rows for c, rows in cells.items() if rows}
            if isinstance(line, Comparison):
                assert {c: tuple(r.tolist()) for c, r in line.cells.items()} == present
                assert list(line.cells) == list(present)  # in class order
                for rows in line.cells.values():
                    assert rows.dtype == np.intp and rows.ndim == 1
                    assert (np.diff(rows) > 0).all()
                continue
            support = sum(map(len, present.values()))
            assert line.union_count == support
            assert line.compared == (() if support < min_support else tuple(present))

    @given(keyed_rows())
    # mixed-radix keys of up to 2**64 - 1 and of exactly 2**63 - 1
    @example((2, [(np.array([2 ** 32 - 1, 0]), 2 ** 32)] * 2))
    @example((2, [(np.array([2 ** 32 - 1, 0]), 2 ** 32), (np.array([2 ** 31 - 1, 0]), 2 ** 31)]))
    def test_group_rows(self, keyed):
        size, keys = keyed
        got, want = group_rows(size, iter(keys)), oracle.group_rows(size, iter(keys))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tolist() == w.tolist()

    def test_undeclared_label_reported_in_row_order(self):
        d = Dataset(columns=(Column("x", CATEGORICAL, ("a", "b", "a", "b")),
                             Column("s", DERIVED, ("c0", "zz", "yy", "c1")),
                             Column("outcome", CATEGORICAL, (GOOD, BAD, GOOD, BAD))),
                    outcome="outcome")
        spec = SensitiveSpec("s", "s", ("c0", "c1"))
        # 'yy' is the first undeclared label of subclass x == a, 'zz' of the data
        for fn, args in ((partition, ()), (run_test, ("outcome", ["x"], DetectionConfig()))):
            with pytest.raises(ValueError, match="class label 'zz' outside"):
                fn(d, spec, *args)


class TestSweepAgainstPerThresholdBatteries:
    @given(sweeps(), st.integers(1, 2), st.sampled_from(dv.AGGREGATIONS),
           st.sampled_from((0, 1, 3, 10)))
    def test_every_row_equal(self, case, depth, aggregation, min_support):
        d, spec, cols, scores, grid = case
        args = (d, scores, grid, [spec], cols,
                DetectionConfig(depth=depth, aggregation=aggregation, min_support=min_support),
                MODES, RevenueConfig(amount_column="amount"))
        assert _outcome(sweep, *args) == _outcome(oracle.sweep, *args)

    def test_scores_past_int64(self):
        # 2**62 and 2**62 + 1 are one float64: a float level would accept the
        # 2**62 row at threshold 2**62 + 1
        d = Dataset(columns=(Column("x", CATEGORICAL, ("a", "a", "b", "b")),
                             Column("s", DERIVED, ("c0", "c1", "c0", "c1")),
                             Column("amount", INTEGER, (1, 2, 3, 4)),
                             Column("outcome", CATEGORICAL, (GOOD, BAD, GOOD, GOOD))),
                    outcome="outcome")
        scores = [2 ** 62, 2 ** 64 - 1, -10 ** 30, 2 ** 62 + 1]
        grid = [-10 ** 30, 2 ** 62, 2 ** 62 + 1, 2 ** 64]
        args = (d, scores, grid, [SensitiveSpec("s", "s", ("c0", "c1"))], ["x"],
                DetectionConfig(min_support=0), MODES, RevenueConfig(amount_column="amount"))
        rows = sweep(*args)
        assert rows == oracle.sweep(*args)
        assert [row.accepted_count for row in rows] == [4, 3, 2, 0]


class TestKernel:
    @given(count_pairs())
    @example(([3, 0], [0, 5]))  # disjoint supports
    @example(([0, 7], [0, 2]))  # one label carries all the mass of both
    @example(([4], [9]))  # a single label
    def test_js_equals_mixture_oracle(self, pair):
        support = tuple("abcd"[:len(pair[0])])
        p, q = (ProbabilityDistribution.from_counts(support, counts) for counts in pair)
        assert dv.js(p, q) == oracle.js(p, q)
