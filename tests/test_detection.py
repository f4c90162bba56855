import pytest

from fairaudit import detection as det
from fairaudit import divergence as dv
from fairaudit.tabular import (
    BAD,
    GOOD,
    Column,
    Dataset,
    FOREIGN,
    GENDER,
    ProbabilityDistribution,
    SensitiveSpec,
    partition,
)

CFG = det.DetectionConfig()


def build(sex, grp, outcome):
    return Dataset(columns=(
        Column("sex", "categorical", tuple(sex)),
        Column("grp", "categorical", tuple(grp)),
        Column("outcome", "categorical", tuple(outcome)),
    ), outcome="outcome")


SEX = SensitiveSpec("sex", "sex", ("a", "b"))


def balanced_dataset():
    # both sexes have identical outcome distributions everywhere
    sex, grp, outcome = [], [], []
    for s in ("a", "b"):
        for g in ("x", "y"):
            for label in (GOOD, GOOD, BAD):
                sex.append(s)
                grp.append(g)
                outcome.append(label)
    return build(sex, grp, outcome)


def disjoint_dataset():
    # sex 'a' always good, sex 'b' always bad
    sex = ["a"] * 10 + ["b"] * 10
    grp = ["x"] * 20
    outcome = [GOOD] * 10 + [BAD] * 10
    return build(sex, grp, outcome)


def top_line(d, spec, cfg=CFG):
    """The top-level line of the test of `spec` on the outcome labels."""
    return det.run_test(d, spec, "outcome", [], cfg).lines[0]


class TestCompareClasses:
    def test_identical_distributions(self):
        d = balanced_dataset()
        line = top_line(d, SEX)
        assert line.divergence.value == 0.0
        assert not line.violated
        assert line.union_count == d.size

    def test_disjoint_distributions(self):
        d = disjoint_dataset()
        line = top_line(d, SEX)
        assert line.divergence.kind == dv.JS
        assert line.divergence.value == 1.0
        assert line.violated

    def test_three_cells_max_aggregation(self):
        trip = SensitiveSpec("t", "t", ("p", "q", "r"))
        cols = {"p": [GOOD] * 8 + [BAD] * 2,
                "q": [GOOD] * 5 + [BAD] * 5,
                "r": [GOOD] * 2 + [BAD] * 8}
        t, outcome = [], []
        for cls, labels in cols.items():
            t += [cls] * len(labels)
            outcome += labels
        d = Dataset(columns=(Column("t", "categorical", tuple(t)),
                             Column("outcome", "categorical", tuple(outcome))),
                    outcome="outcome")
        dists = {cls: ProbabilityDistribution.from_counts(
                     (BAD, GOOD), (labels.count(BAD), labels.count(GOOD)))
                 for cls, labels in cols.items()}
        pairwise = [dv.js(dists[a], dists[b]).value
                    for a, b in (("p", "q"), ("p", "r"), ("q", "r"))]
        line = top_line(d, trip, det.DetectionConfig(aggregation="max"))
        assert line.divergence.value == max(pairwise)
        line = top_line(d, trip, det.DetectionConfig(aggregation="mean"))
        assert line.divergence.value == pytest.approx(sum(pairwise) / 3)

    def test_single_populated_class_is_skipped(self):
        d = build(["a"] * 6, ["x"] * 6, [GOOD, BAD] * 3)
        line = top_line(d, SEX)
        assert line.skipped
        assert not line.violated
        assert any("fewer than 2" in w for w in line.warnings)
        assert any("empty" in w for w in line.warnings)


def subclass_lines(d, spec, cols, cfg):
    """The subclass lines of the test of `spec` on the outcome labels."""
    return det.run_test(d, spec, "outcome", cols, cfg).lines[1:]


class TestSubclassDoubleCheck:
    def test_enumeration_count(self, german):
        cols = ["Attribute1", "Attribute3"]  # 4 + 5 observed values
        cfg = det.DetectionConfig(min_support=10_000)  # force all to skip
        lines = subclass_lines(german, GENDER, cols, cfg)
        assert len(lines) == 4 + 5
        assert all(l.skipped for l in lines)

    def test_depth_two_combinations(self, german):
        cols = ["Attribute19", "Attribute20"]  # 2 x 2 codes
        cfg = det.DetectionConfig(depth=2, min_support=10_000)
        lines = subclass_lines(german, GENDER, cols, cfg)
        joint = {(a, b) for a, b in zip(german.column("Attribute19").values,
                                        german.column("Attribute20").values)}
        assert len(lines) == 2 + 2 + len(joint)

    def test_absent_class_under_condition(self):
        sex = ["a"] * 8 + ["b"] * 8
        grp = ["x"] * 8 + ["y"] * 8  # sex is constant within each grp value
        outcome = [GOOD, BAD] * 8
        d = build(sex, grp, outcome)
        cfg = det.DetectionConfig(min_support=1)
        lines = subclass_lines(d, SEX, ["grp"], cfg)
        assert len(lines) == 2
        assert all(l.skipped for l in lines)
        assert all(any("fewer than 2" in w for w in l.warnings) for l in lines)
        assert [l.compared for l in lines] == [("a",), ("b",)]
        assert [l.warnings[0] for l in lines] == [
            "class 'b' is empty; excluded from comparison",
            "class 'a' is empty; excluded from comparison"]

    def test_min_support_skips_with_warning(self, german):
        cfg = det.DetectionConfig(min_support=300)
        lines = subclass_lines(german, GENDER, ["Attribute1"], cfg)
        values = german.column("Attribute1").values
        counts = {v: values.count(v) for v in ("A11", "A12", "A13", "A14")}
        assert [l.union_count for l in lines] == list(counts.values())
        for line, support in zip(lines, counts.values()):
            if support < 300:
                assert line.skipped and line.compared == ()
                assert line.warnings == (f"subclass support {support} below minimum 300; skipped",)
            else:
                assert not line.skipped and line.compared == ("male", "female")
        assert any(l.skipped for l in lines) and not all(l.skipped for l in lines)

    @pytest.mark.parametrize("min_support", [0, 10_000])
    def test_run_test_partitions_once(self, german, monkeypatch, min_support):
        from fairaudit.tabular import GENDER
        calls = []
        monkeypatch.setattr(det, "partition", lambda *args: calls.append(args) or partition(*args))
        cfg = det.DetectionConfig(depth=2, min_support=min_support)
        lines = det.run_test(german, GENDER, "outcome", ["Attribute1", "Attribute3"], cfg).lines
        assert len(calls) == 1
        assert len(lines) == 1 + 4 + 5 + 20
        assert sum(l.union_count for l in lines[1:5]) == german.size
        if min_support:
            assert all(l.skipped and "below minimum" in l.warnings[0] for l in lines[1:])

    def test_undeclared_label_in_starved_subclass_raises(self):
        # the only undeclared label sits in a one-row subclass below min_support
        d = Dataset(columns=(
            Column("x", "categorical", ("a", "a", "a", "b", "b", "b", "c")),
            Column("s", "derived", ("c0", "c1", "c0", "c1", "c0", "c1", "zz")),
            Column("outcome", "categorical", (GOOD, BAD) * 3 + (GOOD,)),
        ), outcome="outcome")
        spec = SensitiveSpec("s", "s", ("c0", "c1"))
        cfg = det.DetectionConfig(min_support=2)
        with pytest.raises(ValueError, match="class label 'zz' outside declared classes of 's'"):
            det.run_test(d, spec, "outcome", ["x"], cfg)

    def test_foreign_audit_has_skipped_lines(self, german):
        cfg = det.DetectionConfig()
        report = det.run_test(german, FOREIGN, "outcome",
                              ["Attribute1", "Attribute3", "Attribute6",
                               "Attribute10", "Attribute12", "Attribute14"], cfg)
        assert any(l.skipped for l in report.lines)
        assert any(l.warnings for l in report.lines)

    def test_union_counts_bounded_per_column(self, german):
        cfg = det.DetectionConfig(min_support=0)
        lines = subclass_lines(german, GENDER, ["Attribute1"], cfg)
        assert sum(l.union_count for l in lines) <= german.size


class TestRunTest:
    COLS = ["Attribute1", "Attribute3"]

    def test_deterministic(self, german):
        from fairaudit.tabular import GENDER
        r1 = det.run_test(german, GENDER, "outcome", self.COLS, CFG)
        r2 = det.run_test(german, GENDER, "outcome", self.COLS, CFG)
        assert r1 == r2

    def test_first_line_is_top_level(self, german):
        from fairaudit.tabular import GENDER
        r = det.run_test(german, GENDER, "outcome", self.COLS, CFG)
        assert r.lines[0].conditions == ()
        assert r.mode == det.CLASS_VS_CLASS
        assert r.divergence_kind == dv.JS
        assert r.conditioning_columns == tuple(self.COLS)
        assert r.dataset_size == german.size

    def test_violation_flag_consistent(self, german):
        from fairaudit.tabular import AGE_GROUP
        r = det.run_test(german, AGE_GROUP, "outcome", self.COLS, CFG)
        for line in r.lines:
            if line.skipped:
                assert not line.violated
            else:
                assert line.violated == (line.divergence.value > line.epsilon)

    def test_relabelling_classes_preserves_divergences(self):
        d = disjoint_dataset()
        r1 = det.run_test(d, SEX, "outcome", ["grp"], CFG)
        renamed = Dataset(columns=(
            Column("sex", "categorical",
                   tuple({"a": "left", "b": "right"}[v]
                         for v in d.column("sex").values)),
            d.column("grp"),
            d.column("outcome"),
        ), outcome="outcome")
        spec2 = SensitiveSpec("sex", "sex", ("left", "right"))
        r2 = det.run_test(renamed, spec2, "outcome", ["grp"], CFG)
        for l1, l2 in zip(r1.lines, r2.lines):
            if l1.skipped:
                assert l2.skipped
            else:
                assert l1.divergence.value == l2.divergence.value
                assert l1.epsilon == l2.epsilon

    def test_equal_labellings_share_a_line(self, monkeypatch):
        # no row has level 2, so labellings 1 and 2 count the same good rows
        levels = [0, 1, 3, 3] * 5
        calls = []
        compare = det.compare_classes
        monkeypatch.setattr(det, "compare_classes",
                            lambda *args: calls.append(args) or compare(*args))
        reports = det.run_tests(disjoint_dataset(), SEX, levels, 3, ["grp"],
                                det.DetectionConfig(min_support=0))
        assert len(calls) == 2 * 2  # (top, grp == x) x distinct labellings
        for lines in zip(*(r.lines for r in reports)):
            assert lines[1] is lines[2] and lines[0] != lines[1]

    def test_all_skipped_report_warning(self):
        d = build(["a"] * 6, ["x"] * 6, [GOOD, BAD] * 3)  # class b never present
        cfg = det.DetectionConfig(min_support=100)
        r = det.run_test(d, SEX, "outcome", ["grp"], cfg)
        assert r.warnings and "skipped" in r.warnings[0]


class TestLineInvariants:
    def test_skipped_cannot_violate(self):
        with pytest.raises(ValueError, match="skipped line"):
            det.TestLine(conditions=(), compared=(), union_count=0,
                         divergence=None, epsilon=None, violated=True)

    def test_divergence_and_epsilon_travel_together(self):
        with pytest.raises(ValueError, match="both"):
            det.TestLine(conditions=(), compared=(), union_count=0,
                         divergence=dv.DivergenceValue(dv.JS, 0.5),
                         epsilon=None, violated=False)
