import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from fairaudit import divergence as dv
from fairaudit import risk
from fairaudit.config import AuditConfig, DetectionConfig
from fairaudit.tabular import sensitive_spec_for
from test_revenue import compensated_sum
from fairaudit.detection import CLASS_VS_CLASS
from fairaudit.detection import TestLine as Line
from fairaudit.detection import TestReport as Report


def make_line(union=500, div=0.002, eps=0.001, violated=True, k=0,
              conditions=None):
    conditions = conditions if conditions is not None else tuple(
        (f"c{i}", "v") for i in range(k))
    return Line(conditions=conditions, compared=("a", "b"),
                    union_count=union,
                    divergence=dv.DivergenceValue(dv.JS, div),
                    epsilon=eps, violated=violated)


def make_report(lines, size=1000, conditioning=()):
    return Report(sensitive_feature="sex", mode=CLASS_VS_CLASS,
                      divergence_kind=dv.JS, aggregation_mode="max",
                      dataset_size=size, conditioning_columns=tuple(conditioning),
                      lines=tuple(lines))


def skipped_line():
    return Line(conditions=(), compared=(), union_count=3,
                    divergence=None, epsilon=None, violated=False,
                    warnings=("skipped",))


class TestLineWeight:
    def test_group_top_level_is_one(self):
        assert risk.line_weight(0, 6, risk.GROUP) == 1.0

    def test_individual_fully_specified_is_one(self):
        assert risk.line_weight(6, 6, risk.INDIVIDUAL) == 1.0

    def test_group_one_condition(self):
        assert risk.line_weight(1, 6, risk.GROUP) == 0.5

    def test_group_decreases_individual_increases(self):
        for k in range(5):
            assert risk.line_weight(k + 1, 6, risk.GROUP) < risk.line_weight(k, 6, risk.GROUP)
            assert risk.line_weight(k + 1, 6, risk.INDIVIDUAL) > risk.line_weight(k, 6, risk.INDIVIDUAL)

    def test_bounds(self):
        for k in range(7):
            for mode in risk.MODES:
                assert 0.0 < risk.line_weight(k, 6, mode) <= 1.0

    def test_overspecified_rejected(self):
        with pytest.raises(ValueError, match="only"):
            risk.line_weight(3, 2, risk.GROUP)


class TestHazard:
    def test_unit_formula_exact(self):
        # q=0.5, eps=0.001, |e|=0.001, w=1: cbrt(0.001) is exactly 0.1,
        # so the addend is the float product 0.5 * 0.1 * 0.1
        report = make_report([make_line(union=500, div=0.002, eps=0.001)])
        h = risk.hazard(report, risk.GROUP)
        cbrt = risk.cbrt(0.001)
        assert cbrt == 0.1
        assert h.value == 0.5 * cbrt * cbrt * 1.0
        assert abs(h.value - 0.005) < 1e-15

    def test_no_violations_is_zero(self):
        report = make_report([make_line(violated=False), skipped_line()])
        assert risk.hazard(report, risk.GROUP).value == 0.0
        assert risk.hazard(report, risk.INDIVIDUAL).value == 0.0

    def test_skipped_lines_contribute_zero(self):
        base = make_report([make_line()])
        extended = make_report([make_line(), skipped_line()])
        a = risk.hazard(base, risk.GROUP)
        b = risk.hazard(extended, risk.GROUP)
        assert b.value == a.value
        assert b.line_contributions[-1] == 0.0

    def test_value_is_sum_of_contributions(self):
        report = make_report(
            [make_line(union=200, div=0.01, eps=0.004),
             make_line(union=100, div=0.02, eps=0.001)])
        h = risk.hazard(report, risk.GROUP)
        assert abs(h.value - sum(h.line_contributions)) <= 1e-12

    def test_monotone_in_excess_and_share(self):
        low = risk.hazard(make_report([make_line(div=0.0015)]), risk.GROUP).value
        high = risk.hazard(make_report([make_line(div=0.0030)]), risk.GROUP).value
        assert high > low
        small = risk.hazard(make_report([make_line(union=100)]), risk.GROUP).value
        big = risk.hazard(make_report([make_line(union=900)]), risk.GROUP).value
        assert big > small

    def test_permutation_invariance(self):
        lines = [make_line(union=100 * (i + 1), div=0.002 + 0.001 * i)
                 for i in range(5)]
        fwd = risk.hazard(make_report(lines), risk.GROUP).value
        rev = risk.hazard(make_report(lines[::-1]), risk.GROUP).value
        assert abs(fwd - rev) <= 1e-12

    def test_modes_coincide_without_conditioning(self):
        report = make_report([make_line(k=0)], conditioning=())
        g = risk.hazard(report, risk.GROUP)
        i = risk.hazard(report, risk.INDIVIDUAL)
        assert g.value == i.value

    def test_modes_differ_on_subclass_lines(self):
        report = make_report([make_line(k=1)], conditioning=("c0", "c1", "c2"))
        g = risk.hazard(report, risk.GROUP)       # w = 1/2
        i = risk.hazard(report, risk.INDIVIDUAL)  # w = 2/4
        assert g.value == i.value                 # 1/2 == 2/4 here
        report2 = make_report([make_line(k=1)], conditioning=("c0", "c1", "c2", "c3"))
        i2 = risk.hazard(report2, risk.INDIVIDUAL)  # w = 2/5 < 1/2
        assert i2.value < g.value


class TestOverallRisk:
    def _hv(self, x, name="t", mode=risk.GROUP):
        return risk.HazardValue(test=name, mode=mode, value=x,
                                line_contributions=(x,))

    def test_mean(self):
        r = risk.overall_risk([self._hv(0.004), self._hv(0.006)])
        assert r.overall == (0.004 + 0.006) / 2

    def test_singleton(self):
        assert risk.overall_risk([self._hv(0.42)]).overall == 0.42

    def test_zeros(self):
        r = risk.overall_risk([self._hv(0.0), self._hv(0.0)])
        assert r.overall == 0.0

    def test_identical_hazards_mean_identity(self):
        r = risk.overall_risk([self._hv(0.0073)] * 5)
        assert abs(r.overall - 0.0073) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            risk.overall_risk([])


class TestCompareHazards:
    def _report(self, values):
        hazards = tuple(
            risk.HazardValue(test=t, mode=m, value=v, line_contributions=(v,))
            for (t, m), v in values.items())
        return risk.overall_risk(hazards)

    def test_identical_reports(self):
        vals = {("sex", "group"): 0.01, ("sex", "individual"): 0.02}
        cmp = risk.compare_hazards(self._report(vals), self._report(vals))
        assert all(e.difference == 0.0 for e in cmp.entries)
        assert cmp.overall_difference == 0.0

    def test_differences_and_signs(self):
        model = self._report({("sex", "group"): 0.03, ("age", "group"): 0.01})
        data = self._report({("sex", "group"): 0.01, ("age", "group"): 0.02})
        cmp = risk.compare_hazards(model, data)
        by_feature = {e.feature: e for e in cmp.entries}
        assert by_feature["sex"].difference == pytest.approx(0.02)
        assert by_feature["age"].difference == pytest.approx(-0.01)
        assert cmp.overall_difference == pytest.approx(model.overall - data.overall)

    def test_mismatched_batteries_rejected(self):
        model = self._report({("sex", "group"): 0.03})
        data = self._report({("age", "group"): 0.01})
        with pytest.raises(ValueError, match="different tests"):
            risk.compare_hazards(model, data)

    @pytest.mark.parametrize("repeated", ["model", "data"])
    def test_repeated_hazard_rejected(self, repeated):
        once = self._report({("sex", "group"): 0.01, ("age", "group"): 0.02})
        hazards = once.hazards + (risk.HazardValue("sex", "group", 0.7, (0.7,)),)
        twice = risk.overall_risk(hazards)
        model, data = (twice, once) if repeated == "model" else (once, twice)
        with pytest.raises(ValueError) as exc:
            risk.compare_hazards(model, data)
        assert str(exc.value) == f"{repeated} risk report lists hazard ('sex', 'group') twice"


class TestRunBattery:
    def test_battery_shape_and_order(self, german):
        from fairaudit.detection import DetectionConfig
        from fairaudit.tabular import FOREIGN, GENDER
        reports, rr = risk.run_battery(german, "outcome", [GENDER, FOREIGN],
                                       ["Attribute1"], DetectionConfig())
        assert [r.sensitive_feature for r in reports] == ["gender", "foreign"]
        keys = [(h.test, h.mode) for h in rr.hazards]
        assert keys == [("gender", "group"), ("gender", "individual"),
                        ("foreign", "group"), ("foreign", "individual")]
        assert rr.overall == pytest.approx(
            sum(h.value for h in rr.hazards) / len(rr.hazards), abs=1e-12)


def is_nearest_cube_root(x: float, y: float) -> bool:
    """Whether `y` is the float nearest the real cube root of `x > 0`: `x`
    lies strictly between the cubes of the midpoints that `y` shares with
    its two neighbours, compared as exact rationals (integer ratios)."""
    below, above = ((Fraction(y) + Fraction(math.nextafter(y, toward))) / 2
                    for toward in (0.0, math.inf))
    return below ** 3 < Fraction(x) < above ** 3


# inputs of the golden runs on which numpy's cbrt, as seen on one AVX-512
# host, was one ulp off: the default sweep's, then the depth-3 data audit's
ONE_ULP_INPUTS = (
    0.000417628742471466, 0.012591520758896791, 0.01818575668323963,
    0.0488647559483968, 0.08679221342438823, 0.0944678785283001,
    0.11466343743197499, 0.12957818174247204,
    0.02356, 0.02372, 0.023832000000000002, 0.024820000000000002,
    0.026987160321315512, 0.10525384892915876,
)


class TestCubeRoot:
    @pytest.mark.parametrize("x, root", [
        (0.0, 0.0), (-0.0, -0.0), (8.0, 2.0), (27.0, 3.0),
        (0.001, 0.1),  # the float nearest 0.001 has 0.1 as its nearest cube root
        (2.0 ** -1074, 2.0 ** -358),  # the smallest subnormal is a perfect cube
        (2.0 ** 1023, 2.0 ** 341),
    ])
    def test_named_values(self, x, root):
        got = risk.cbrt(x)
        assert got == root and math.copysign(1.0, got) == math.copysign(1.0, root)

    @pytest.mark.parametrize("x", [5e-324, 2.0 ** -1073, 1e-310, 2.2250738585072014e-308,
                                   *ONE_ULP_INPUTS])
    def test_subnormals_and_golden_inputs(self, x):
        assert is_nearest_cube_root(x, risk.cbrt(x))

    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @example(math.ulp(0.0))
    @example(1.7976931348623157e308)
    def test_correctly_rounded(self, x):
        assert is_nearest_cube_root(x, risk.cbrt(x))


class TestInOrderSums:
    def test_bits_independent_of_builtin_sum(self, german, monkeypatch):
        # Python 3.12 made `sum` of floats compensated; hazards and the
        # overall risk must not use it
        cfg = AuditConfig()
        features = [sensitive_spec_for(german, name) for name in cfg.sensitive_features]
        reports, want = risk.run_battery(german, "outcome", features, cfg.conditioning_columns,
                                         DetectionConfig(depth=2))
        monkeypatch.setattr(risk, "sum", compensated_sum, raising=False)
        got = risk.battery_risk(reports)
        assert repr(got) == repr(want)
