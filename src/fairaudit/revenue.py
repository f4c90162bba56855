"""Revenue side of the audit: the profit and fairness-risk threshold sweep.

Acceptance at a score threshold splits applicants; among the accepted,
the observed default labels give the bad rate, provisions reserve a
fixed fraction of the exposed credit, and profit is interest income on
accepted non-defaulters minus provisions.  The sweep walks a threshold
grid, weighing the model's fairness risk at each point (one labelling of
a battery counted once for the whole grid) against the data's risk.

Each row's level (how many grid thresholds its score reaches) serves
both sides: the batteries count the model's labellings from it, and
`tabular.label_distribution` counts the accepted and bad rows at every
threshold from it.  The credit total and the interest income are summed
over the accepted rows in row order with numpy, which `sweep` imports when
called, so that the model audit (`with_predictions`) loads no numpy; their
bits do not depend on the Python version.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

from .config import MODES, DetectionConfig, RevenueConfig, SweepGrid  # noqa: F401
from .detection import run_tests
from .risk import battery_risk, run_battery
from .scorecard import classify
from .tabular import DERIVED, Column, Dataset, label_distribution, outcome_levels

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


def provisions(total_credit_amount: float, br: float, provision_factor: float) -> float:
    """Funds reserved against expected defaults."""
    return total_credit_amount * br * provision_factor


def _row_order_total(x, accepted) -> float:
    """`x` (a float array) added over the `accepted` rows (a bool array) in
    row order from 0.0, as Python's `sum` adds floats up to 3.11
    (`np.cumsum` adds in order, `np.sum` pairwise; the leading `0.0 +`
    turns a total of -0.0 into 0.0)."""
    import numpy as np
    return 0.0 + float(np.cumsum(np.where(accepted, x, 0.0))[-1])


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
    import numpy as np
    thresholds = list(thresholds)
    if not thresholds:
        raise ValueError("threshold grid is empty")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("threshold grid must be strictly ascending")
    scores = list(scores)
    if len(scores) != d.size:
        raise ValueError("one score per row required")

    amounts, rates = credit_columns(d, rev_cfg)
    _, data_risk = run_battery(d, d.outcome, features, nonsensitive, det_cfg, modes)

    # accepted at threshold t iff t < level (score >= threshold), in exact ints
    levels = [bisect_right(thresholds, s) for s in scores]
    model = [run_tests(d, f, levels, len(thresholds), nonsensitive, det_cfg) for f in features]

    good = outcome_levels(d, d.outcome)
    # the accepted good (class 0) and bad (class 1) rows at every threshold
    outcomes = Counter(zip([1 - g for g in good], levels))
    n_good, n_bad = (at_least[1:] for at_least in
                     label_distribution(outcomes, (), 2, len(thresholds))[()])
    amounts = np.array(amounts)
    income = np.where(np.array(good) == 1, amounts * np.array(rates), 0.0)
    levels = np.array(levels)

    rows = []
    for t, threshold in enumerate(thresholds):
        n = n_good[t] + n_bad[t]
        br = n_bad[t] / n if n else 0.0
        accepted = levels > t
        prov = provisions(_row_order_total(amounts, accepted), br, rev_cfg.provision_factor)
        model_risk = battery_risk([reports[t] for reports in model], modes)
        rows.append(SweepRow(
            threshold=threshold, accepted_count=n, bad_rate=br, provisions=prov,
            profit=_row_order_total(income, accepted) - prov,
            model_risk=model_risk.overall, data_risk=data_risk.overall,
            risk_difference=model_risk.overall - data_risk.overall,
            warnings=() if n else ("no rows accepted at this threshold",)))
    return rows
