"""The hand-written report builders that `report.to_doc` replaced.

Each one spells out the document of one result type field by field, as
the CLI used to write it.  They are kept here, outside the package, as a
differential oracle for `report.to_doc` and `report.scorecard_doc`
(`tests/test_report_oracle.py`).
"""

from fairaudit.detection import TestLine, TestReport
from fairaudit.revenue import SweepRow
from fairaudit.risk import HazardComparison, HazardValue, RiskReport
from fairaudit.scorecard import Scorecard, ScoreMetrics

SCORECARD_FORMAT_VERSION = 1


def _display(x: float, places: int = 5) -> str:
    return f"{x:.{places}f}"


def line_to_dict(line: TestLine) -> dict:
    div = None
    if line.divergence is not None:
        div = {"kind": line.divergence.kind,
               "value": line.divergence.value,
               "value_display": _display(line.divergence.value)}
    return {
        "conditions": [{"column": c, "value": v} for c, v in line.conditions],
        "compared": list(line.compared),
        "union_count": line.union_count,
        "divergence": div,
        "epsilon": line.epsilon,
        "epsilon_display": None if line.epsilon is None else _display(line.epsilon),
        "violated": line.violated,
        "warnings": list(line.warnings),
    }


def test_report_to_dict(report: TestReport) -> dict:
    return {
        "sensitive_feature": report.sensitive_feature,
        "mode": report.mode,
        "divergence_kind": report.divergence_kind,
        "aggregation_mode": report.aggregation_mode,
        "dataset_size": report.dataset_size,
        "conditioning_columns": list(report.conditioning_columns),
        "lines": [line_to_dict(line) for line in report.lines],
        "warnings": list(report.warnings),
    }


def hazard_to_dict(h: HazardValue) -> dict:
    return {
        "test": h.test,
        "mode": h.mode,
        "value": h.value,
        "value_display": _display(h.value),
        "line_contributions": list(h.line_contributions),
    }


def risk_report_to_dict(report: RiskReport, target: str) -> dict:
    return {
        "target": target,
        "hazards": [hazard_to_dict(h) for h in report.hazards],
        "overall": report.overall,
        "overall_display": _display(report.overall),
    }


def comparison_to_dict(cmp: HazardComparison) -> dict:
    return {
        "entries": [{
            "feature": e.feature,
            "mode": e.mode,
            "data_hazard": e.data_hazard,
            "model_hazard": e.model_hazard,
            "difference": e.difference,
            "difference_display": _display(e.difference),
        } for e in cmp.entries],
        "data_overall": cmp.data_overall,
        "model_overall": cmp.model_overall,
        "overall_difference": cmp.overall_difference,
        "overall_difference_display": _display(cmp.overall_difference),
    }


def sweep_to_dict(rows: list[SweepRow], provision_factor: float,
                  interest_rate: float) -> dict:
    out = []
    for r in rows:
        out.append({
            "threshold": r.threshold,
            "accepted_count": r.accepted_count,
            "bad_rate": r.bad_rate,
            "bad_rate_display": _display(r.bad_rate),
            "provisions": r.provisions,
            "provisions_display": _display(r.provisions, 2),
            "profit": r.profit,
            "profit_display": _display(r.profit, 2),
            "model_risk": r.model_risk,
            "model_risk_display": _display(r.model_risk),
            "data_risk": r.data_risk,
            "data_risk_display": _display(r.data_risk),
            "risk_difference": r.risk_difference,
            "risk_difference_display": _display(r.risk_difference),
            "warnings": list(r.warnings),
        })
    return {"provision_factor": provision_factor,
            "interest_rate": interest_rate,
            "rows": out}


def scorecard_to_json_dict(card: Scorecard) -> dict:
    bins = []
    for b, points in zip(card.binnings, card.points):
        bins.append({
            "column": b.column,
            "kind": b.kind,
            "edges": list(b.edges),
            "groups": [list(g) for g in b.groups],
            "rest_bin": b.rest_bin,
            "woes": list(b.woes),
            "iv": b.iv,
            "points": list(points),
        })
    return {
        "format_version": SCORECARD_FORMAT_VERSION,
        "binnings": bins,
        "coefficients": list(card.coefficients),
        "intercept": card.intercept,
        "scaling": {"pdo": card.scaling.pdo,
                    "base_score": card.scaling.base_score,
                    "base_odds": card.scaling.base_odds},
        "final_loss": card.final_loss,
    }


def metrics_to_dict(metrics: ScoreMetrics, final_loss: float | None) -> dict:
    return {
        "auc": metrics.auc,
        "auc_display": f"{metrics.auc:.5f}",
        "gini": metrics.gini,
        "gini_display": f"{metrics.gini:.5f}",
        "threshold": metrics.threshold,
        "final_loss": final_loss,
        "roc": [[fpr, tpr] for fpr, tpr in metrics.roc],
    }
