"""The columnar German Credit and CSV loaders, the sensitive-feature
derivation and the count-table binning fit against their row-scan
oracles: equal datasets and identical errors on resampled and corrupted
files and datasets, at several loader block sizes, identical bins on
generated columns."""

import contextlib
import csv
import io
import os

import pytest
from hypothesis import given, strategies as st

import rowscan_oracle as oracle
from fairaudit import scorecard as sc, tabular
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
    derive_sensitive_features,
    load_csv,
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


# blocks of one line, a few lines and the default: a file is cut between
# blocks after every line, after some lines, or nowhere
BLOCK_SIZES = (1, 2, 7, tabular._BLOCK_LINES)
BLOCK_LINES = pytest.mark.parametrize("block_lines", BLOCK_SIZES)


@contextlib.contextmanager
def _blocks_of(lines):
    """Loaders that split and convert `lines` lines at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tabular, "_BLOCK_LINES", lines)
        yield


def _load(load, *args):
    """The dataset `load(*args)` returns, with the value types of each
    column, or the type and message of the ValueError it raises."""
    try:
        d = load(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return "ok", d, [tuple(map(type, c.values)) for c in d.columns]


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return tmp_path_factory.mktemp("loader") / "german.data"


class TestLoaderAgainstRowScan:
    @given(german_files(max_corruptions=0), st.sampled_from(BLOCK_SIZES))
    def test_resampled_files_give_equal_datasets(self, data_path, text, block_lines):
        data_path.write_text(text, encoding="ascii")
        with _blocks_of(block_lines):
            got = _load(load_german_credit, data_path)
        assert got[0] == "ok"
        assert got == _load(oracle.load_german_credit, data_path)

    @given(german_files(max_corruptions=4), st.sampled_from(BLOCK_SIZES))
    def test_corrupted_files_give_the_same_error(self, data_path, text, block_lines):
        data_path.write_text(text, encoding="ascii")
        with _blocks_of(block_lines):
            got = _load(load_german_credit, data_path)
        assert got == _load(oracle.load_german_credit, data_path)

    @BLOCK_LINES
    def test_decode_error_after_a_short_line(self, tmp_path, block_lines):
        rows = [GERMAN_ROWS[0][:20], *GERMAN_ROWS[1:9], [*GERMAN_ROWS[9][:20], "\xff"]]
        path = tmp_path / "german.data"
        path.write_bytes("".join(" ".join(r) + "\n" for r in rows).encode("latin-1"))
        with _blocks_of(block_lines):
            got = _load(load_german_credit, path)
        assert got[0] is UnicodeDecodeError
        assert got == _load(oracle.load_german_credit, path)

    @BLOCK_LINES
    def test_other_line_breaks(self, tmp_path, block_lines):
        # str.splitlines also ends a line at \r, \x0c and \x1c, and takes \r\n as one break
        breaks = ["\r", "\x0c", "\n", "\x1c", "\r\n", "\r", "\n", "\n", "\x0c", "\n"]
        path = tmp_path / "german.data"
        path.write_bytes("".join(" ".join(r) + b for r, b in zip(GERMAN_ROWS, breaks))
                         .encode("ascii"))
        with _blocks_of(block_lines):
            got = _load(load_german_credit, path)
        assert got[0] == "ok" and got[1].size == len(breaks)
        assert got == _load(oracle.load_german_credit, path)

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
        assert _load(load_german_credit, path) == (ParseError, message)
        assert _load(oracle.load_german_credit, path) == (ParseError, message)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "german.data"
        path.write_text("")
        assert _load(load_german_credit, path) == _load(oracle.load_german_credit, path) == (
            ParseError, f"{path}: empty file")

    def test_rows_share_one_string_per_code(self, german_raw, tmp_path):
        path = tmp_path / "german.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([[f"c{i}" for i in range(21)], *GERMAN_ROWS])
        for d in (german_raw, load_csv(path, "c20", "1", "2")):
            for c in d.columns:
                if c.kind == CATEGORICAL:
                    assert len({id(v) for v in c.values}) == len(set(c.values))


# --- the CSV loader against the row-scan loader ------------------------------

# int() accepts the first six: blanks, a sign, underscores, non-ASCII digits;
# a quoted line break makes a record of two lines, which a block cut may split
_CSV_VALUES = (" 7", "+7", "1_0", "-3", "\u0663", "007",
               "", "x", "\u00e9", "7.0", "1__0", "A11", "1\n2")
_OUTCOME_VALUES = ("ok", "ko", "good", "bad", "1", "")


@st.composite
def csv_files(draw, max_corruptions):
    """(text, good value, bad value) of a CSV file with an outcome column
    `label`; each other column draws from its own pool of values int()
    accepts or rejects.  Up to `max_corruptions` corruptions put an unknown
    outcome value on a line or make it ragged."""
    names = draw(st.lists(st.sampled_from(["a", "b", "\u00e9"]), max_size=3, unique=True))
    names.insert(draw(st.integers(0, len(names))), "label")
    good, bad = draw(st.lists(st.sampled_from(_OUTCOME_VALUES), min_size=2, max_size=2,
                              unique=True))
    pools = [[good, bad] if name == "label" else
             draw(st.lists(st.sampled_from(_CSV_VALUES), min_size=1, max_size=3))
             for name in names]
    n = draw(st.integers(1, 12))
    rows = [[draw(st.sampled_from(pool)) for pool in pools] for _ in range(n)]
    label = names.index("label")
    for _ in range(draw(st.integers(0, max_corruptions))):
        i = draw(st.integers(0, n - 1))
        if draw(st.booleans()) and label < len(rows[i]):  # not cut off a ragged row
            rows[i][label] = draw(st.sampled_from(["OK", " ok", "maybe", "2"]))
        else:
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["x"]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([names, *rows])
    return text.getvalue(), good, bad


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("loader") / "data.csv"


class TestCsvLoaderAgainstRowScan:
    @given(csv_files(max_corruptions=0), st.sampled_from(BLOCK_SIZES))
    def test_well_formed_files_give_equal_datasets(self, csv_path, case, block_lines):
        text, good, bad = case
        csv_path.write_text(text, encoding="utf-8")
        with _blocks_of(block_lines):
            got = _load(load_csv, csv_path, "label", good, bad)
        assert got[0] == "ok"
        assert got == _load(oracle.load_csv, csv_path, "label", good, bad)

    @given(csv_files(max_corruptions=3), st.sampled_from(BLOCK_SIZES))
    def test_corrupted_files_give_the_same_error(self, csv_path, case, block_lines):
        text, good, bad = case
        csv_path.write_text(text, encoding="utf-8")
        with _blocks_of(block_lines):
            got = _load(load_csv, csv_path, "label", good, bad)
        assert got == _load(oracle.load_csv, csv_path, "label", good, bad)

    def test_ragged_row_in_a_later_block_before_an_earlier_outcome(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,label\n1,ok\n2,maybe\n3,ko\n4,ok\n5\n6,ko\n", encoding="utf-8")
        with _blocks_of(2):
            got = _load(load_csv, path, "label", "ok", "ko")
        assert got == _load(oracle.load_csv, path, "label", "ok", "ko") == (
            ParseError, "line 6: expected 2 fields, got 1")

    @BLOCK_LINES
    def test_other_line_breaks(self, tmp_path, block_lines):
        # a csv reader ends a line at \r and \r\n, but not at \x0c or \x1c
        path = tmp_path / "data.csv"
        path.write_bytes("a,label\r1,ok\r\n2\x0c,ko\n3\x1c,ok\r4,ko\n".encode("utf-8"))
        with _blocks_of(block_lines):
            got = _load(load_csv, path, "label", "ok", "ko")
        assert got[0] == "ok" and got[1].size == 4
        assert got == _load(oracle.load_csv, path, "label", "ok", "ko")

    def test_good_value_equal_to_bad_value_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,label\n1,ok\n2,ok\n", encoding="utf-8")
        assert _load(load_csv, path, "label", "ok", "ok") == (
            ValueError, "good_value and bad_value are both 'ok'")


# --- the sensitive-feature derivation against the per-row loops ---------------

GERMAN = load_german_credit(GERMAN_PATH)
# an age column may hold any int (or a float int() truncates) in a library dataset
_AGES = st.one_of(st.integers(-5, 120), st.integers(-2 ** 70, 2 ** 70),
                  st.sampled_from([26.9, 27.0, 47.5, 48.0]))
_BAD_CODES = {"Attribute9": ["A99", "A201", "a92", "A92 ", ""],
              "Attribute20": ["A203", "A91", "a201", "A201 ", ""]}


@st.composite
def german_datasets(draw, max_bad):
    """Rows resampled from data/german.data, with free ages and up to
    `max_bad` unmappable personal-status or foreign-worker codes; now and
    then a source column is missing or the dataset is already derived."""
    rows = draw(st.lists(st.integers(0, GERMAN.size - 1), min_size=1, max_size=25))
    values = {c.name: [c.values[i] for i in rows] for c in GERMAN.columns}
    values["Attribute13"] = [draw(st.one_of(st.just(age), _AGES))
                             for age in values["Attribute13"]]
    for _ in range(draw(st.integers(0, max_bad))):
        name = draw(st.sampled_from(sorted(_BAD_CODES)))
        values[name][draw(st.integers(0, len(rows) - 1))] = draw(
            st.sampled_from(_BAD_CODES[name]))
    missing = draw(st.sampled_from([None, None, None, "Attribute9", "Attribute13",
                                    "Attribute20"]))
    d = Dataset(columns=tuple(Column(c.name, c.kind, tuple(values[c.name]))
                              for c in GERMAN.columns if c.name != missing),
                outcome="outcome")
    if missing is None and max_bad == 0 and draw(st.booleans()):
        d = oracle.derive_sensitive_features(d)
    return d


class TestDerivationAgainstRowScan:
    @given(german_datasets(max_bad=0))
    def test_resampled_datasets_give_equal_columns(self, d):
        assert _load(derive_sensitive_features, d) == _load(
            oracle.derive_sensitive_features, d)

    @given(german_datasets(max_bad=4))
    def test_unmappable_codes_give_the_same_error(self, d):
        assert _load(derive_sensitive_features, d) == _load(
            oracle.derive_sensitive_features, d)

    def test_non_integer_age_names_the_value(self):
        # the one message that changed: int()'s own, now one naming the value
        ages = ("x",) + GERMAN.column("Attribute13").values[1:]
        d = GERMAN.with_columns([Column("Attribute13", CATEGORICAL, ages)])
        assert _load(derive_sensitive_features, d) == (ValueError, "unmappable age 'x'")
        assert _load(oracle.derive_sensitive_features, d) == (
            ValueError, "invalid literal for int() with base 10: 'x'")


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
