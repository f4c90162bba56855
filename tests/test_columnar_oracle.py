"""The columnar German Credit loader and the count-table binning fit
against their row-scan oracles: equal datasets and identical parse
errors on resampled and corrupted files, identical bins on generated
columns."""

import os

import pytest
from hypothesis import given, strategies as st

import rowscan_oracle as oracle
from fairaudit import scorecard as sc
from fairaudit.tabular import (
    _CODE_DOMAINS,
    _INTEGER_ATTRS,
    BAD,
    CATEGORICAL,
    GOOD,
    INTEGER,
    Column,
    Dataset,
    ParseError,
    load_german_credit,
)

GERMAN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "data",
                           "german.data")
with open(GERMAN_PATH, encoding="ascii") as fh:
    GERMAN_ROWS = [line.split() for line in fh.read().splitlines()]

_CODE_FIELDS = [i for i in range(20) if f"Attribute{i + 1}" in _CODE_DOMAINS]
_INTEGER_FIELDS = [i for i in range(20) if f"Attribute{i + 1}" in _INTEGER_ATTRS]


def _blank(draw, fields):
    return [draw(st.sampled_from(["", " ", "\t"]))]


def _short(draw, fields):
    return fields[:draw(st.integers(1, len(fields) - 1))] if len(fields) > 1 else []


def _long(draw, fields):
    return fields + draw(st.lists(st.sampled_from(["1", "A11", "x"]), min_size=1, max_size=2))


def _code(draw, fields):
    i = draw(st.sampled_from(_CODE_FIELDS))
    return _replace(fields, i, draw(st.sampled_from(["A99", "A1", "a11", "A111", "1", "A34"])))


def _integer(draw, fields):
    # int() accepts the last four, so they corrupt nothing
    i = draw(st.sampled_from(_INTEGER_FIELDS))
    return _replace(fields, i, draw(st.sampled_from(
        ["x", "1.5", "11x9", "0x10", "1e3", "A11", "+7", "-3", "1_000", "007"])))


def _label(draw, fields):
    return _replace(fields, 20, draw(st.sampled_from(["0", "3", "good", "A11", "12", "1.0"])))


def _replace(fields, i, value):
    return fields[:i] + [value] + fields[i + 1:] if i < len(fields) else fields


CORRUPTIONS = (_blank, _short, _long, _code, _integer, _label)


@st.composite
def german_files(draw, max_corruptions):
    """The text of a German-format file of rows resampled from
    data/german.data, with up to `max_corruptions` corruptions on random
    lines (several may hit one line)."""
    rows = draw(st.lists(st.sampled_from(GERMAN_ROWS), min_size=1, max_size=25))
    for _ in range(draw(st.integers(0, max_corruptions))):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = draw(st.sampled_from(CORRUPTIONS))(draw, rows[i])
    sep = draw(st.sampled_from([" ", "  ", "\t", " \t"]))
    return "".join(sep.join(fields) + "\n" for fields in rows)


def _load(load, path):
    try:
        d = load(path)
    except ParseError as exc:
        return "error", str(exc)
    return "ok", d, [tuple(map(type, c.values)) for c in d.columns]


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return tmp_path_factory.mktemp("loader") / "german.data"


class TestLoaderAgainstRowScan:
    @given(german_files(max_corruptions=0))
    def test_resampled_files_give_equal_datasets(self, data_path, text):
        data_path.write_text(text, encoding="ascii")
        got = _load(load_german_credit, data_path)
        assert got[0] == "ok"
        assert got == _load(oracle.load_german_credit, data_path)

    @given(german_files(max_corruptions=4))
    def test_corrupted_files_give_the_same_error(self, data_path, text):
        data_path.write_text(text, encoding="ascii")
        assert _load(load_german_credit, data_path) == _load(oracle.load_german_credit,
                                                              data_path)

    @pytest.mark.parametrize("edits, message", [
        ([(2, 3, "A99"), (3, slice(0, 20), None)], "line 2: unknown code 'A99' for Attribute4"),
        ([(2, slice(0, 20), None), (3, 3, "A99")], "line 2: expected 21 fields, got 20"),
        ([(2, 4, "1x"), (3, slice(0, 0), None)], "line 2: non-integer value '1x' for Attribute5"),
        ([(2, slice(0, 0), None), (3, 4, "1x")], "line 2: blank line"),
        ([(2, 0, "A19"), (1, 20, "3")], "line 1: label must be 1 or 2, got '3'"),
        ([(2, 15, "A0"), (2, 9, "A1"), (2, 20, "7")], "line 2: unknown code 'A1' for Attribute10"),
        ([(2, 20, "5"), (2, 19, "A209")], "line 2: unknown code 'A209' for Attribute20"),
        ([(2, 3, "A99"), (2, slice(0, 10), None)], "line 2: expected 21 fields, got 10"),
    ], ids=["field_before_short_line", "short_line_before_field", "field_before_blank_line",
            "blank_line_before_field", "label_before_later_line", "fields_left_to_right",
            "last_attribute_before_label", "field_count_before_fields_of_its_line"])
    def test_first_error_in_row_order(self, tmp_path, edits, message):
        rows = [list(GERMAN_ROWS[i]) for i in range(4)]
        for line, where, value in edits:
            if isinstance(where, slice):
                rows[line - 1] = rows[line - 1][where]
            else:
                rows[line - 1][where] = value
        path = tmp_path / "german.data"
        path.write_text("".join(" ".join(r) + "\n" for r in rows), encoding="ascii")
        assert _load(load_german_credit, path) == ("error", message)
        assert _load(oracle.load_german_credit, path) == ("error", message)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "german.data"
        path.write_text("")
        assert _load(load_german_credit, path) == _load(oracle.load_german_credit, path) == (
            "error", f"{path}: empty file")

    def test_rows_share_one_string_per_code(self, german_raw):
        for c in german_raw.columns:
            if c.kind == CATEGORICAL:
                assert len({id(v) for v in c.values}) == len(set(c.values))


# --- binning from count tables against the per-row fit ----------------------

# NUL, case and non-ASCII characters: distinct codes must stay distinct
_CODES = st.text(alphabet="aB\x00é", max_size=2)
_NUMBERS = (st.integers(-3, 3),
            st.integers(-2 ** 70, 2 ** 70),
            # distinct ints that collapse to one float
            st.integers(0, 3).map(lambda k: 2 ** 70 + k),
            st.floats(-5, 5))


@st.composite
def binned_columns(draw, kind):
    """(values, labels, binning config) of a column of the given kind."""
    elements = _CODES if kind == CATEGORICAL else draw(st.sampled_from(_NUMBERS))
    # a pool of 1-8 values makes ties, constant columns and rare codes common
    pool = draw(st.lists(elements, min_size=1, max_size=8, unique=True))
    n = draw(st.integers(2, 80))
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    labels = [GOOD, BAD] + draw(st.lists(st.sampled_from([GOOD, BAD]),
                                         min_size=n - 2, max_size=n - 2))
    config = sc.BinningConfig(
        max_prebins=draw(st.integers(1, 20)),
        min_bin_fraction=draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.99])))
    return values, labels, config


def assert_same_bins(kind, values, labels, config):
    d = Dataset(columns=(Column("x", kind, tuple(values)),
                         Column("outcome", CATEGORICAL, tuple(labels))),
                outcome="outcome")
    got = sc.fit_scorecard(d, sc.ScorecardConfig(binning=config, iterations=1)).binnings[0]
    binned = sc.NUMERIC if kind == INTEGER else sc.CATEGORICAL
    assert got == oracle.fit_bins("x", binned, values, labels, config)


class TestBinsAgainstRowScan:
    @given(binned_columns(INTEGER))
    def test_numeric_columns(self, case):
        assert_same_bins(INTEGER, *case)

    @given(binned_columns(CATEGORICAL))
    def test_categorical_columns(self, case):
        assert_same_bins(CATEGORICAL, *case)

    @pytest.mark.parametrize("label", [GOOD, BAD])
    def test_one_outcome_class_rejected(self, label):
        d = Dataset(columns=(Column("x", INTEGER, (1, 2, 3)),
                             Column("outcome", CATEGORICAL, (label,) * 3)), outcome="outcome")
        with pytest.raises(ValueError, match="column 'x': need both outcome classes to fit bins"):
            sc.fit_scorecard(d)
