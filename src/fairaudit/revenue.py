"""Revenue side of the audit: bad rate, provisions, profit, threshold sweep.

Acceptance at a score threshold splits applicants; among the accepted,
the observed default labels give the bad rate, provisions reserve a
fixed fraction of the exposed credit, and profit is interest income on
accepted non-defaulters minus provisions.  The sweep walks a threshold
grid, weighing the model's fairness risk at each point (one labelling of
a battery counted once for the whole grid) against the data's risk.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .config import MODES, DetectionConfig, RevenueConfig, SweepGrid  # noqa: F401
from .detection import run_tests
from .risk import battery_risk, run_battery
from .scorecard import classify
from .tabular import BAD, GOOD, Dataset, Column, DERIVED

PREDICTION_COLUMN = "prediction"


@dataclass(frozen=True)
class SweepRow:
    threshold: int
    accepted_count: int
    bad_rate: float
    provisions: float
    profit: float
    model_risk: float
    data_risk: float
    risk_difference: float
    warnings: tuple[str, ...] = ()

    FIELDS = ("threshold", "accepted_count", "bad_rate", "provisions",
              "profit", "model_risk", "data_risk", "risk_difference")


def bad_rate(labels) -> float:
    """Share of defaults among accepted applicants; 0 for an empty set."""
    labels = list(labels)
    if not labels:
        return 0.0
    return sum(1 for l in labels if l == BAD) / len(labels)


def provisions(total_credit_amount: float, br: float, provision_factor: float) -> float:
    """Funds reserved against expected defaults."""
    return total_credit_amount * br * provision_factor


def profit(amounts, rates, provisions_amount: float) -> float:
    """Interest income over accepted non-defaulters minus provisions."""
    revenue = sum(a * r for a, r in zip(amounts, rates))
    return revenue - provisions_amount


def with_predictions(d: Dataset, scores, threshold: int) -> Dataset:
    """Attach the model's good/bad classification at a threshold, as a
    column of its own: a dataset that already has one is rejected."""
    if len(scores) != d.size:
        raise ValueError("one score per row required")
    if d.has_column(PREDICTION_COLUMN):
        raise ValueError(f"dataset column {PREDICTION_COLUMN!r} would be replaced by "
                         "the model's classifications; rename it")
    return d.with_columns([Column(PREDICTION_COLUMN, DERIVED,
                                  tuple(classify(scores, threshold)))])


def _float_column(d: Dataset, key: str, what: str, name: str) -> list[float]:
    if not d.has_column(name):
        raise ValueError(f"{key}: {what} column {name!r} not in dataset")
    try:
        return [float(v) for v in d.column(name).values]
    except ValueError as exc:
        raise ValueError(f"{key}: {what} column {name!r} is not numeric ({exc})") from None


def credit_columns(d: Dataset, cfg: RevenueConfig) -> tuple[list[float], list[float]]:
    """Per-row credit amounts and interest rates, parsed and range-checked;
    every error names its config key, so a caller can reject it before any maths."""
    amounts = _float_column(d, "revenue.amount_column", "credit amount", cfg.amount_column)
    if not all(map(math.isfinite, amounts)):
        raise ValueError(f"revenue.amount_column: column {cfg.amount_column!r} "
                         "holds non-finite credit amounts")
    if any(a < 0 for a in amounts):
        raise ValueError(f"revenue.amount_column: column {cfg.amount_column!r} "
                         "holds negative credit amounts")
    if cfg.interest_rate_column is None:
        return amounts, [cfg.interest_rate] * d.size
    rates = _float_column(d, "revenue.interest_rate_column", "interest rate",
                          cfg.interest_rate_column)
    if any(not 0.0 <= r <= 1.0 for r in rates):  # NaN fails both comparisons
        raise ValueError(f"revenue.interest_rate_column: column {cfg.interest_rate_column!r} "
                         "holds interest rates outside [0, 1]")
    return amounts, rates


def sweep(d: Dataset, scores, thresholds, features, nonsensitive,
          det_cfg: DetectionConfig = DetectionConfig(),
          modes=MODES,
          rev_cfg: RevenueConfig = RevenueConfig()) -> list[SweepRow]:
    """Profit and fairness-risk trade-off over an ascending threshold grid."""
    thresholds = list(thresholds)
    if not thresholds:
        raise ValueError("threshold grid is empty")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("threshold grid must be strictly ascending")
    scores = list(scores)
    if len(scores) != d.size:
        raise ValueError("one score per row required")

    amounts, rates = credit_columns(d, rev_cfg)
    outcomes = d.column(d.outcome).values

    _, data_risk = run_battery(d, d.outcome, features, nonsensitive, det_cfg, modes)

    # accepted at threshold t iff t < level (score >= threshold), in exact ints
    levels = np.array([bisect_right(thresholds, s) for s in scores], dtype=np.intp)
    model = [run_tests(d, f, levels, len(thresholds), nonsensitive, det_cfg) for f in features]

    rows = []
    for t, threshold in enumerate(thresholds):
        accepted = np.flatnonzero(levels > t).tolist()
        warnings = () if accepted else ("no rows accepted at this threshold",)
        br = bad_rate([outcomes[i] for i in accepted])
        total_credit = sum(amounts[i] for i in accepted)
        prov = provisions(total_credit, br, rev_cfg.provision_factor)
        performing = [i for i in accepted if outcomes[i] == GOOD]
        prof = profit([amounts[i] for i in performing],
                      [rates[i] for i in performing], prov)

        model_risk = battery_risk([reports[t] for reports in model], modes)
        rows.append(SweepRow(
            threshold=threshold, accepted_count=len(accepted), bad_rate=br,
            provisions=prov, profit=prof,
            model_risk=model_risk.overall, data_risk=data_risk.overall,
            risk_difference=model_risk.overall - data_risk.overall,
            warnings=warnings))
    return rows
