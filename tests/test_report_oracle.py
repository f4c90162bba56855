"""`report.to_doc` and `report.scorecard_doc` against the hand-written
builders they replaced (`tests/report_oracle.py`): the same JSON text,
byte for byte, for every result type the CLI writes."""

import json

from hypothesis import given, strategies as st

import report_oracle as oracle
from fairaudit import detection as dt, divergence as dv, report, scorecard as sc
from fairaudit.config import AuditConfig
from fairaudit.revenue import SweepRow
from fairaudit.risk import (MODES, HazardComparison, HazardEntry, HazardValue, RiskReport,
                            compare_hazards, run_battery)
from fairaudit.tabular import BAD, CATEGORICAL, GOOD, INTEGER, Column, Dataset, sensitive_spec_for

# NUL and non-ASCII text; -0.0, NaN, infinities and large floats
_TEXT = st.text(alphabet="aZ \x00é☃\"\\", max_size=4)
_FLOATS = (st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([0.0, -0.0, 1e300, -1e-300, 123456789.125, 0.5]))
_UNIT = st.floats(0.0, 1.0) | st.sampled_from([-0.0, float("nan")])
_INTS = st.integers(-2 ** 40, 2 ** 40)


def _tuples(elements, max_size=3):
    return st.lists(elements, max_size=max_size).map(tuple)


def _same(doc, old_doc):
    assert report.dumps(doc) == json.dumps(old_doc, indent=2, sort_keys=True) + "\n"


@st.composite
def lines(draw):
    conditions = draw(_tuples(st.tuples(_TEXT, _TEXT)))
    if draw(st.booleans()):  # skipped: no divergence, no epsilon, no violation
        divergence = epsilon = None
        violated = False
    else:
        divergence = dv.DivergenceValue(dv.JS, draw(_UNIT))  # the one kind a test reports
        epsilon = draw(_FLOATS)
        violated = draw(st.booleans())
    return dt.TestLine(conditions=conditions, compared=draw(_tuples(_TEXT)),
                       union_count=draw(_INTS), divergence=divergence, epsilon=epsilon,
                       violated=violated, warnings=draw(_tuples(_TEXT, 2)))


@st.composite
def fairness_tests(draw):
    return dt.TestReport(sensitive_feature=draw(_TEXT),
                         mode=dt.CLASS_VS_CLASS,
                         divergence_kind=dv.JS,
                         aggregation_mode=draw(st.sampled_from(dv.AGGREGATIONS)),
                         dataset_size=draw(_INTS), conditioning_columns=draw(_tuples(_TEXT)),
                         lines=draw(_tuples(lines(), 4)), warnings=draw(_tuples(_TEXT, 2)))


_HAZARDS = st.builds(HazardValue, test=_TEXT, mode=st.sampled_from(MODES), value=_FLOATS,
                     line_contributions=_tuples(_FLOATS.filter(lambda x: not x < 0)))
_ENTRIES = st.builds(HazardEntry, feature=_TEXT, mode=st.sampled_from(MODES),
                     data_hazard=_FLOATS, model_hazard=_FLOATS, difference=_FLOATS)
_SWEEP_ROWS = st.builds(SweepRow, threshold=_INTS, accepted_count=_INTS, bad_rate=_FLOATS,
                        provisions=_FLOATS, profit=_FLOATS, model_risk=_FLOATS,
                        data_risk=_FLOATS, risk_difference=_FLOATS,
                        warnings=_tuples(_TEXT, 2))
_METRICS = st.builds(sc.ScoreMetrics, roc=_tuples(st.tuples(_FLOATS, _FLOATS), 5),
                     auc=_FLOATS, gini=_FLOATS, threshold=_INTS)


@st.composite
def binnings(draw):
    name = draw(_TEXT)
    iv = draw(st.floats(0.0, 1e6))
    if draw(st.booleans()):
        edges = tuple(sorted(draw(st.sets(st.floats(-1e6, 1e6), max_size=4))))
        woes = draw(st.lists(_FLOATS, min_size=len(edges) + 1, max_size=len(edges) + 1))
        return sc.BinningSpec(name, sc.NUMERIC, edges=edges, woes=tuple(woes), iv=iv)
    groups = draw(st.lists(_tuples(_TEXT), min_size=1, max_size=4).map(tuple))
    woes = draw(st.lists(_FLOATS, min_size=len(groups), max_size=len(groups)))
    rest_bin = draw(st.none() | st.integers(0, len(groups) - 1))
    return sc.BinningSpec(name, CATEGORICAL, groups=groups, rest_bin=rest_bin,
                          woes=tuple(woes), iv=iv)


@st.composite
def scorecards(draw):
    specs = draw(st.lists(binnings(), min_size=1, max_size=3))
    return sc.Scorecard(binnings=tuple(specs),
                        coefficients=tuple(draw(st.lists(st.floats(-10, 10), min_size=len(specs),
                                                         max_size=len(specs)))),
                        intercept=draw(st.floats(-10, 10)),
                        scaling=sc.ScoreScaling(pdo=draw(st.floats(1, 100)),
                                                base_score=draw(st.floats(0, 1000)),
                                                base_odds=draw(_FLOATS)),
                        final_loss=draw(st.none() | _FLOATS))


@st.composite
def fitted_scorecards(draw):
    """A card fitted on a small dataset of 1-3 integer or code columns."""
    n = draw(st.integers(4, 40))
    labels = [GOOD, BAD, *draw(st.lists(st.sampled_from([GOOD, BAD]), min_size=n - 2,
                                        max_size=n - 2))]
    columns = []
    for j in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            values = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
            columns.append(Column(f"x{j}", INTEGER, tuple(values)))
        else:
            values = draw(st.lists(st.sampled_from(["a", "b\x00", "é"]), min_size=n, max_size=n))
            columns.append(Column(f"x{j}", CATEGORICAL, tuple(values)))
    d = Dataset(columns=(*columns, Column("outcome", CATEGORICAL, tuple(labels))),
                outcome="outcome")
    return sc.fit_scorecard(d, sc.ScorecardConfig(iterations=draw(st.integers(1, 50))))


class TestToDocAgainstBuilders:
    @given(lines())
    def test_lines(self, line):
        _same(report.to_doc(line), oracle.line_to_dict(line))

    @given(fairness_tests())
    def test_test_reports(self, test_report):
        _same(report.to_doc(test_report), oracle.test_report_to_dict(test_report))

    @given(_HAZARDS)
    def test_hazards(self, h):
        _same(report.to_doc(h), oracle.hazard_to_dict(h))

    @given(_tuples(_HAZARDS), _FLOATS, _TEXT)
    def test_risk_reports(self, hazards, overall, target):
        risk = RiskReport(hazards=hazards, overall=overall)
        _same({**report.to_doc(risk), "target": target},
              oracle.risk_report_to_dict(risk, target))

    @given(st.builds(HazardComparison, entries=_tuples(_ENTRIES), data_overall=_FLOATS,
                     model_overall=_FLOATS, overall_difference=_FLOATS))
    def test_hazard_comparisons(self, cmp):
        _same(report.to_doc(cmp), oracle.comparison_to_dict(cmp))

    @given(st.lists(_SWEEP_ROWS, max_size=4), _FLOATS, _FLOATS)
    def test_sweep_rows(self, rows, provision_factor, interest_rate):
        _same({"provision_factor": provision_factor, "interest_rate": interest_rate,
               "rows": report.to_doc(rows)},
              oracle.sweep_to_dict(rows, provision_factor, interest_rate))

    @given(_METRICS, st.none() | _FLOATS)
    def test_roc_metrics(self, metrics, final_loss):
        _same({**report.to_doc(metrics), "final_loss": final_loss},
              oracle.metrics_to_dict(metrics, final_loss))

    @given(scorecards() | fitted_scorecards())
    def test_scorecards(self, card):
        _same(report.scorecard_doc(card), oracle.scorecard_to_json_dict(card))

    def test_german_run(self, german, card, scores):
        _same(report.scorecard_doc(card), oracle.scorecard_to_json_dict(card))
        metrics = sc.evaluate(scores, german.column("outcome").values, 550)
        _same({**report.to_doc(metrics), "final_loss": card.final_loss},
              oracle.metrics_to_dict(metrics, card.final_loss))
        cfg = AuditConfig()
        features = [sensitive_spec_for(german, name) for name in cfg.sensitive_features]
        reports, risk = run_battery(german, "outcome", features, cfg.conditioning_columns,
                                    cfg.detection)
        for test_report in reports:
            _same(report.to_doc(test_report), oracle.test_report_to_dict(test_report))
        for h in risk.hazards:
            _same(report.to_doc(h), oracle.hazard_to_dict(h))
        _same({**report.to_doc(risk), "target": "data"},
              oracle.risk_report_to_dict(risk, "data"))
        cmp = compare_hazards(risk, risk)
        _same(report.to_doc(cmp), oracle.comparison_to_dict(cmp))
