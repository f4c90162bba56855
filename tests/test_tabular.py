import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from peak_rss import write_resample
from fairaudit import divergence as dv
from fairaudit.detection import DetectionConfig, run_test
from fairaudit.tabular import (
    AGE_GROUP,
    BAD,
    Column,
    Dataset,
    EmptyClassError,
    FOREIGN,
    GENDER,
    GOOD,
    ParseError,
    ProbabilityDistribution,
    SensitiveSpec,
    age_bracket,
    derive_sensitive_features,
    label_distribution,
    load_csv,
    load_german_credit,
    outcome_levels,
    partition,
    sensitive_spec_for,
)

VALID_LINE = ("A11 6 A34 A43 1169 A65 A75 4 A93 A101 4 A121 67 A143 A152 2 "
              "A173 1 A192 A201 1")


class TestGermanLoader:
    def test_size(self, german_raw):
        assert german_raw.size == 1000

    def test_outcome_counts(self, german_raw):
        values = german_raw.column("outcome").values
        assert values.count(GOOD) == 700
        assert values.count(BAD) == 300

    def test_columns_present(self, german_raw):
        for i in range(1, 21):
            assert german_raw.has_column(f"Attribute{i}")

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.data"
        short = " ".join(VALID_LINE.split()[:20])
        path.write_text(VALID_LINE + "\n" + short + "\n")
        with pytest.raises(ParseError, match="line 2"):
            load_german_credit(path)

    def test_unknown_code_names_line(self, tmp_path):
        path = tmp_path / "bad.data"
        mangled = VALID_LINE.replace("A34", "A39")
        path.write_text(mangled + "\n")
        with pytest.raises(ParseError, match="line 1.*A39"):
            load_german_credit(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "bad.data"
        path.write_text(VALID_LINE[:-1] + "3\n")
        with pytest.raises(ParseError, match="label"):
            load_german_credit(path)

    def test_non_integer_numeric(self, tmp_path):
        path = tmp_path / "bad.data"
        path.write_text(VALID_LINE.replace(" 1169 ", " 11x9 ") + "\n")
        with pytest.raises(ParseError, match="Attribute5"):
            load_german_credit(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.data"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_german_credit(path)

    def test_load_holds_little_beyond_the_dataset(self, tmp_path):
        # beyond the dataset, the load holds the file's text, one block's
        # fields and one column's copy (about 1.8x the file); holding every
        # field of the file as its own string at once takes about 13x
        path = tmp_path / "german.data"
        write_resample(path, 20_000, seed=7)
        tracemalloc.start()
        try:
            d = load_german_credit(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.size == 20_000
        assert peak - kept < 3 * path.stat().st_size


class TestCsvLoader:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("age,city,label\n30,rome,ok\n40,oslo,ko\n")
        d = load_csv(path, "label", good_value="ok", bad_value="ko")
        assert d.size == 2
        assert d.column("age").kind == "integer"
        assert d.column("age").values == (30, 40)
        assert d.column("city").kind == "categorical"
        assert d.column("label").values == (GOOD, BAD)

    def test_unknown_outcome_value(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,label\n1,weird\n")
        with pytest.raises(ParseError, match="weird"):
            load_csv(path, "label", good_value="ok", bad_value="ko")

    def test_missing_outcome_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError, match="outcome column"):
            load_csv(path, "label")


class TestDatasetInvariants:
    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="differing lengths"):
            Dataset(columns=(Column("a", "integer", (1, 2)),
                             Column("outcome", "categorical", (GOOD,))),
                    outcome="outcome")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            Dataset(columns=(Column("outcome", "categorical", ()),), outcome="outcome")

    def test_outcome_domain_enforced(self):
        with pytest.raises(ValueError, match="outcome values"):
            Dataset(columns=(Column("outcome", "categorical", ("yes",)),),
                    outcome="outcome")

    def test_rows_give_every_column(self, german_raw):
        assert [c.name for c in german_raw.columns] == [
            *(f"Attribute{i}" for i in range(1, 21)), "outcome"]
        assert {len(c.values) for c in german_raw.columns} == {german_raw.size}

    # 256 distinct values still fit a byte; 257 take a tuple
    @pytest.mark.parametrize("n_values, kind", [(1, bytes), (256, bytes), (257, tuple)])
    def test_codes_fit_bytes_up_to_256_values(self, n_values, kind):
        values = tuple(reversed(range(n_values))) * 2
        enc = Column("a", "integer", values).encoded
        assert type(enc.codes) is kind
        assert [enc.uniques[c] for c in enc.codes] == list(values)
        assert list(enc.codes) == [enc.index[v] for v in values]


class TestDeriveSensitive:
    def test_gender_counts(self, german):
        values = german.column("gender").values
        assert values.count("female") == 310
        assert values.count("male") == 690

    def test_foreign_counts(self, german):
        values = german.column("foreign").values
        assert values.count("foreign") == 963
        assert values.count("domestic") == 37

    @pytest.mark.parametrize("age,bracket", [
        (19, "[0-27]"), (26, "[0-27]"),
        (27, "[27-37]"), (36, "[27-37]"),
        (37, "[37-47]"), (47, "[37-47]"),
        (48, "[>47]"), (75, "[>47]"),
    ])
    def test_age_brackets(self, age, bracket):
        assert age_bracket(age) == bracket

    def test_idempotent(self, german):
        again = derive_sensitive_features(german)
        for name in ("gender", "age_group", "foreign"):
            assert again.column(name).values == german.column(name).values

    def test_missing_source_column(self):
        d = Dataset(columns=(Column("outcome", "categorical", (GOOD, BAD)),),
                    outcome="outcome")
        with pytest.raises(ValueError, match="Attribute9"):
            derive_sensitive_features(d)

    def test_unmappable_code(self):
        d = Dataset(columns=(
            Column("Attribute9", "categorical", ("A99",)),
            Column("Attribute13", "integer", (30,)),
            Column("Attribute20", "categorical", ("A201",)),
            Column("outcome", "categorical", (GOOD,)),
        ), outcome="outcome")
        with pytest.raises(ValueError, match="A99"):
            derive_sensitive_features(d)

    def test_generic_spec_resolution(self, german):
        spec = sensitive_spec_for(german, "Attribute15")
        assert spec.classes == ("A151", "A152", "A153")
        with pytest.raises(ValueError, match="unknown sensitive feature"):
            sensitive_spec_for(german, "nope")


def _subclass_line(d, feature, column, value):
    """The line of the subclass `column == value` in the test of `feature`."""
    lines = run_test(d, feature, "outcome", [column], DetectionConfig(min_support=0)).lines
    line, = (l for l in lines[1:] if l.conditions == ((column, value),))
    return line


def _scanned(d, feature, rows):
    """The (compared classes, divergence) of a line over `rows`, from a scan
    of their class labels and outcomes."""
    labels, outcomes = d.column(feature.column).values, d.column("outcome").values
    counts = {c: [0, 0] for c in feature.classes}  # class -> (bad, good)
    for r in rows:
        counts[labels[r]][outcomes[r] == GOOD] += 1
    present = tuple(c for c in feature.classes if sum(counts[c]))
    dists = [ProbabilityDistribution.from_counts((BAD, GOOD), counts[c]) for c in present]
    pairs = [dv.js(p, q) for i, p in enumerate(dists) for q in dists[i + 1:]]
    return present, dv.aggregate(pairs, DetectionConfig().aggregation) if pairs else None


class TestPartition:
    def test_gender_covers_everything(self, german):
        classes = partition(german, GENDER)
        assert classes.count(GENDER.classes.index("male")) == 690
        assert classes.count(GENDER.classes.index("female")) == 310
        assert len(classes) == german.size

    def test_condition_filters(self, german):
        line = _subclass_line(german, GENDER, "Attribute10", "A103")
        guarantor_rows = {i for i, v in enumerate(german.column("Attribute10").values)
                          if v == "A103"}
        assert line.union_count == len(guarantor_rows)
        assert (line.compared, line.divergence) == _scanned(german, GENDER, guarantor_rows)

    def test_age_partition_property(self, german):
        counts = Counter(partition(german, AGE_GROUP))
        assert set(counts) <= set(range(len(AGE_GROUP.classes)))
        assert sum(counts.values()) == 1000

    @pytest.mark.parametrize("feature", [GENDER, AGE_GROUP, FOREIGN])
    @pytest.mark.parametrize("column,value", [
        ("Attribute1", "A14"), ("Attribute3", "A30"), ("Attribute6", "A64"),
    ])
    def test_disjoint_cover_under_conditions(self, german, feature, column, value):
        line = _subclass_line(german, feature, column, value)
        matching = {i for i, v in enumerate(german.column(column).values) if v == value}
        assert line.union_count == len(matching)
        assert (line.compared, line.divergence) == _scanned(german, feature, matching)

    def test_rows_carry_their_class_index(self, german):
        assert [AGE_GROUP.classes[i] for i in partition(german, AGE_GROUP)] == list(
            german.column(AGE_GROUP.column).values)
        d = Dataset(columns=(Column("s", "categorical", ("b", "a")),
                             Column("outcome", "categorical", (GOOD, BAD))), outcome="outcome")
        # class indices follow the declared order, not the sorted labels
        assert partition(d, SensitiveSpec("s", "s", ("b", "c", "a"))) == (0, 2)

    def test_unknown_column(self, german):
        with pytest.raises(ValueError, match="unknown column"):
            run_test(german, GENDER, "outcome", ["NoSuch"], DetectionConfig())


def _classes(size, rows):
    """A two-class row labelling: class 1 on `rows`, class 0 on the others."""
    classes = [0] * size
    for r in rows:
        classes[r] = 1
    return classes


def _top(classes, levels, n_classes, labellings=1):
    """Each class's counts over all rows, as `label_distribution` gives them."""
    counts = label_distribution(Counter(zip(classes, levels)), (), n_classes, labellings)
    assert list(counts) == [()]
    return counts[()]


class TestLabelDistribution:
    def test_pooled(self, german):
        levels = outcome_levels(german, "outcome")
        assert _top([0] * german.size, levels, 1) == [[1000, 700]]

    def test_singleton(self, german):
        good_row = german.column("outcome").values.index(GOOD)
        assert _top(_classes(german.size, [good_row]), outcome_levels(german, "outcome"),
                    2) == [[999, 699], [1, 1]]

    def test_empty_is_a_signal(self, german):
        # a class with no rows counts zero rows, which no distribution accepts
        at_least = _top([0] * german.size, outcome_levels(german, "outcome"), 3)
        assert at_least[1:] == [[0, 0], [0, 0]]
        with pytest.raises(EmptyClassError):
            ProbabilityDistribution.from_counts((BAD, GOOD), at_least[1])

    @given(st.lists(st.integers(min_value=0, max_value=999),
                    min_size=1, max_size=300))
    def test_masses_sum_to_one(self, rows):
        d = _GERMAN_CACHE[0]
        total, good = _top(_classes(d.size, rows), outcome_levels(d, "outcome"), 2)[1]
        assert total == len(set(rows))
        dist = ProbabilityDistribution.from_counts((BAD, GOOD), (total - good, good))
        assert abs(math.fsum(dist.mass) - 1.0) <= 1e-9

    def test_counts_every_labelling(self):
        # row r is good under labelling i iff i < levels[r]
        assert _top([0, 0, 0, 0, 1], [0, 3, 1, 3, 4], 2, 4) == [[4, 3, 2, 2, 0],
                                                                [1, 1, 1, 1, 1]]

    def test_outcome_levels(self):
        d = Dataset(columns=(Column("y", "categorical", (GOOD, BAD, GOOD)),
                             Column("z", "categorical", (GOOD, "maybe", BAD))), outcome="y")
        assert outcome_levels(d, "y") == (1, 0, 1)
        with pytest.raises(ValueError, match=r"column 'z' holds values outside \{good, bad\}"):
            outcome_levels(d, "z")

    def test_from_counts_rejects_empty(self):
        with pytest.raises(EmptyClassError):
            ProbabilityDistribution.from_counts(("a", "b"), [0, 0])

    def test_invalid_mass_rejected(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution(("a", "b"), (0.9, 0.3))


_GERMAN_CACHE = []


@pytest.fixture(autouse=True, scope="module")
def _cache_german(german):
    # hypothesis @given cannot take pytest fixtures directly
    _GERMAN_CACHE.clear()
    _GERMAN_CACHE.append(german)
    yield
    _GERMAN_CACHE.clear()
