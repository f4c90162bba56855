"""The encoded counting core against the row-scan oracle on small
generated datasets: same cells, counts and errors, and every line of a
test (subclass order, support, compared classes, divergence, threshold,
warnings) rebuilt from per-row scans; the (subclass, class) counts of
distinct rows against a count of every row; the scorecard's row grouping; the threshold sweep against one
battery and one row-order sum per threshold, row for row and bit for
bit; and the divergence kernel against its validated-mixture version,
bit for bit."""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import rowscan_oracle as oracle
from fairaudit import divergence as dv
from fairaudit.config import MODES, RevenueConfig
from fairaudit.detection import DetectionConfig, run_test
from fairaudit.revenue import sweep
from fairaudit.scorecard import group_rows
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
    label_distribution,
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
def coded_rows(draw):
    """(rows, columns, n_classes, labellings): up to 30 rows, each of up to
    three codes, a class in [0, n_classes) and a level in [0, labellings],
    many of them repeated, and the ascending positions of the codes that
    fix a subclass; often some classes have no rows."""
    width = draw(st.integers(0, 3))
    labellings = draw(st.integers(1, 5))
    n_classes = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(0, 2)] * width, st.integers(0, n_classes - 1),
                    st.integers(0, labellings))
    rows = draw(st.lists(row, max_size=30))
    columns = tuple(sorted(draw(st.sets(st.integers(0, width - 1)))) if width else ())
    return rows, columns, n_classes, labellings


@st.composite
def sweeps(draw):
    """(dataset with an `amount` column, sensitive spec, conditioning
    columns, scores, threshold grid, revenue config), with declared class
    labels only (the battery's errors are the audits' own).  Scores and
    thresholds share a small range, so scores tie with thresholds, and some
    grids lie wholly below or above every score.  Amounts have fractional
    parts, so a sum in any order but row order shows in the last bits, and
    some datasets carry a per-row `rate` column."""
    d, spec, cols = draw(audits(undeclared=False))

    def column(elements):
        return tuple(draw(st.lists(elements, min_size=d.size, max_size=d.size)))

    amounts = column(st.floats(0, 1e4) | st.integers(0, 50).map(float) | st.just(-0.0))
    d = d.with_columns([Column("amount", DERIVED, amounts)])
    rev_cfg = RevenueConfig(amount_column="amount")
    if draw(st.booleans()):
        d = d.with_columns([Column("rate", DERIVED, column(st.floats(0, 1)))])
        rev_cfg = RevenueConfig(amount_column="amount", interest_rate_column="rate")
    scores = column(st.integers(0, 4))
    lowest = draw(st.integers(-4, 5))
    grid = sorted(draw(st.sets(st.integers(lowest, lowest + 3), min_size=1, max_size=4)))
    return d, spec, cols, scores, grid, rev_cfg


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


def _oracle_line(d, spec, conditions, min_support, cfg):
    """A line's (compared, union_count, divergence, epsilon, violated,
    warnings), rebuilt from a row scan of its subclass."""
    cells = oracle.partition(d, spec, conditions).cells
    support = sum(map(len, cells.values()))
    if support < min_support:
        return ((), support, None, None, False,
                (f"subclass support {support} below minimum {min_support}; skipped",))
    present = tuple(c for c in spec.classes if cells[c])
    warnings = tuple(f"class '{c}' is empty; excluded from comparison"
                     for c in spec.classes if not cells[c])
    if len(present) < 2:
        return (present, support, None, None, False,
                warnings + ("fewer than 2 non-empty classes; comparison skipped",))
    dists = [oracle.label_distribution(d, cells[c], "outcome") for c in present]
    agg = dv.aggregate([dv.js(p, q) for p, q in combinations(dists, 2)], cfg.aggregation)
    eps = dv.auto_threshold(cfg.r, len(spec.classes), support, d.size,
                            intervals=cfg.intervals, c_ref=cfg.c_ref).epsilon
    return present, support, agg, eps, agg.value > eps, warnings


class TestAgainstRowScan:
    @given(audits(), st.integers(1, 3), st.sampled_from((0, 1, 3, 10)),
           st.sampled_from(dv.AGGREGATIONS))
    def test_partitions_counts_and_subclasses(self, audit, depth, min_support, aggregation):
        d, spec, cols = audit
        got = _outcome(partition, d, spec)
        want = _outcome(oracle.partition, d, spec)
        cfg = DetectionConfig(depth=depth, min_support=min_support, aggregation=aggregation)
        if got[0] != "ok" or want[0] != "ok":
            # the same whole-data, first-row error, and never only one of them
            assert got == want == _outcome(run_test, d, spec, "outcome", cols, cfg)
            return
        fp, expected_fp = got[1], want[1]
        assert {c: tuple(r for r, j in enumerate(fp.classes) if j == i)
                for i, c in enumerate(spec.classes)} == expected_fp.cells
        assert fp.feature == expected_fp.feature

        lines = run_test(d, spec, "outcome", cols, cfg).lines
        conditions = [()] + oracle.subclass_conditions(d, cols, depth)
        assert [line.conditions for line in lines] == conditions
        # the top line is never skipped for its support
        floors = [0] + [min_support] * (len(conditions) - 1)
        assert [(line.compared, line.union_count, line.divergence, line.epsilon,
                 line.violated, line.warnings) for line in lines] == [
            _oracle_line(d, spec, c, floor, cfg) for c, floor in zip(conditions, floors)]

    @given(coded_rows())
    def test_label_distribution(self, case):
        rows, columns, n_classes, labellings = case

        def subclass(row):
            return tuple(row[j] for j in columns)

        got = label_distribution(Counter(rows), columns, n_classes, labellings)
        want = {s: [[sum(1 for r in rows if subclass(r) == s and r[-2] == c)]
                    + [sum(1 for r in rows if subclass(r) == s and r[-2] == c and i < r[-1])
                       for i in range(labellings)]
                    for c in range(n_classes)]
                for s in sorted(set(map(subclass, rows)))}
        assert list(got.items()) == list(want.items())  # in sorted subclass order

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
        d, spec, cols, scores, grid, rev_cfg = case
        args = (d, scores, grid, [spec], cols,
                DetectionConfig(depth=depth, aggregation=aggregation, min_support=min_support),
                MODES, rev_cfg)
        # repr tells every float's bits apart, -0.0 from 0.0 too
        assert repr(_outcome(sweep, *args)) == repr(_outcome(oracle.sweep, *args))

    @pytest.mark.parametrize("amounts", [
        # 2**53 + 1.0 rounds back to 2**53, so added in row order the ones
        # vanish; a pairwise sum adds them up first and keeps some of them
        (2.0 ** 53,) + (1.0,) * 17,
        # added from Python's start of 0, -0.0s total 0.0
        (-0.0,) * 18,
    ])
    def test_sums_in_row_order(self, amounts):
        n = len(amounts)
        d = Dataset(columns=(Column("x", CATEGORICAL, ("a", "b") * (n // 2)),
                             Column("s", DERIVED, ("c0", "c1") * (n // 2)),
                             Column("amount", DERIVED, amounts),
                             Column("outcome", CATEGORICAL, (GOOD,) * (n - 1) + (BAD,))),
                    outcome="outcome")
        args = (d, [1] * n, [0], [SensitiveSpec("s", "s", ("c0", "c1"))], ["x"],
                DetectionConfig(), MODES, RevenueConfig(interest_rate=1.0, amount_column="amount"))
        assert repr(sweep(*args)) == repr(oracle.sweep(*args))

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
