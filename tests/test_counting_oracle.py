"""The encoded counting core against the row-scan oracle on small
generated datasets: same cells, counts, subclass order and errors."""

import pytest
from hypothesis import given, strategies as st

import rowscan_oracle as oracle
from fairaudit.detection import DetectionConfig, subclass_double_check
from fairaudit.tabular import (
    BAD,
    CATEGORICAL,
    DERIVED,
    GOOD,
    INTEGER,
    Column,
    Dataset,
    SensitiveSpec,
    label_distribution,
    partition,
)

# NUL, case and non-ASCII characters in category values: distinct values
# must stay distinct and sort as Python sorts them.
_STRINGS = st.text(alphabet="aB\x00é", max_size=2)


@st.composite
def audits(draw):
    """(dataset, sensitive spec, conditioning column names)."""
    n = draw(st.integers(1, 24))

    def column(elements):
        return tuple(draw(st.lists(elements, min_size=n, max_size=n)))

    classes = tuple(f"c{i}" for i in range(draw(st.integers(2, 4))))
    # labels use a prefix of the classes (later classes may have no rows),
    # and up to two labels that are not declared at all
    used = classes[:draw(st.integers(1, len(classes)))]
    used += ("zz", "yy")[:draw(st.integers(0, 2))]
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


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


class TestAgainstRowScan:
    @given(audits(), st.integers(1, 3))
    def test_partitions_counts_and_subclasses(self, audit, depth):
        d, spec, cols = audit
        expected = oracle.subclass_conditions(d, cols, depth)
        unknown = [[("nope", "a")], [(cols[0], "never")], [(cols[0], 99)]]
        for conditions in [(), *expected, *unknown]:
            got = _outcome(partition, d, spec, conditions)
            assert got == _outcome(oracle.partition, d, spec, conditions)
            if got[0] != "ok":
                continue
            for rows in got[1].cells.values():
                for outcome in ("outcome", "s", *cols):
                    assert (_outcome(label_distribution, d, rows, outcome)
                            == _outcome(oracle.label_distribution, d, rows, outcome))

        cfg = DetectionConfig(depth=depth, min_support=0)
        try:
            lines = subclass_double_check(d, spec, "outcome", cols, cfg)
        except ValueError as exc:
            first_error = next(err for err in (_outcome(oracle.partition, d, spec, c)
                                               for c in expected) if err[0] != "ok")
            assert ("ValueError", str(exc)) == first_error
            return
        assert [line.conditions for line in lines] == expected
        assert [line.union_count for line in lines] == [
            oracle.partition(d, spec, c).covered for c in expected]

    def test_undeclared_label_reported_in_row_order(self):
        d = Dataset(columns=(Column("x", CATEGORICAL, ("a", "b", "a", "b")),
                             Column("s", DERIVED, ("c0", "zz", "yy", "c1")),
                             Column("outcome", CATEGORICAL, (GOOD, BAD, GOOD, BAD))),
                    outcome="outcome")
        spec = SensitiveSpec("s", "s", ("c0", "c1"))
        for conditions, label in (((), "zz"), ((("x", "a"),), "yy")):
            with pytest.raises(ValueError, match=f"class label '{label}' outside"):
                partition(d, spec, conditions)
