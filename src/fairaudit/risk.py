"""Hazard values and overall fairness-violation risk.

Every violated line of a test contributes
    q * cbrt(epsilon) * cbrt(|divergence - epsilon|) * w
where q is the involved population share and w the group/individual
weight; skipped and non-violated lines contribute zero.  A test's hazard
is the sum of its line contributions and the overall risk is the mean of
the hazards in the battery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import GROUP, INDIVIDUAL, MODES


@dataclass(frozen=True)
class HazardValue:
    test: str
    mode: str
    value: float
    line_contributions: tuple[float, ...]

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown fairness mode {self.mode!r}")
        if any(c < 0 for c in self.line_contributions):
            raise ValueError("line contributions cannot be negative")


@dataclass(frozen=True)
class RiskReport:
    hazards: tuple[HazardValue, ...]
    overall: float


@dataclass(frozen=True)
class HazardEntry:
    feature: str
    mode: str
    data_hazard: float
    model_hazard: float
    difference: float  # model - data; positive means amplification


@dataclass(frozen=True)
class HazardComparison:
    entries: tuple[HazardEntry, ...]
    data_overall: float
    model_overall: float
    overall_difference: float


def line_weight(k: int, total: int, mode: str) -> float:
    """Weight of a violation on a subclass fixed by k of `total` features.

    Group fairness privileges broad classes (weight 1/(1+k)); individual
    fairness privileges fully specified ones (weight (1+k)/(1+total)).
    Both are 1 at their extreme and stay within (0, 1].
    """
    if k < 0 or total < 0:
        raise ValueError("feature counts cannot be negative")
    if k > total:
        raise ValueError(f"conditioning on {k} features but only {total} selected")
    if mode == GROUP:
        return 1.0 / (1.0 + k)
    if mode == INDIVIDUAL:
        return (1.0 + k) / (1.0 + total)
    raise ValueError(f"unknown fairness mode {mode!r}")


def hazard(report, mode: str) -> HazardValue:
    """Aggregate one `detection.TestReport` into its hazard value."""
    import numpy as np
    total = len(report.conditioning_columns)
    contributions = []
    for line in report.lines:
        if line.skipped or not line.violated:
            contributions.append(0.0)
            continue
        q = line.union_count / report.dataset_size
        excess = abs(line.divergence.value - line.epsilon)
        w = line_weight(len(line.conditions), total, mode)
        contributions.append(q * float(np.cbrt(line.epsilon)) * float(np.cbrt(excess)) * w)
    return HazardValue(test=report.sensitive_feature, mode=mode,
                       value=sum(contributions),
                       line_contributions=tuple(contributions))


def overall_risk(hazards) -> RiskReport:
    """Mean of the hazard values across the battery."""
    hazards = tuple(hazards)
    if not hazards:
        raise ValueError("cannot aggregate an empty hazard battery")
    return RiskReport(hazards=hazards,
                      overall=sum(h.value for h in hazards) / len(hazards))


def run_battery(d, outcome, features, nonsensitive, cfg, modes=MODES):
    """Run one fairness test per feature and weigh it under each mode.

    Returns the per-feature test reports plus the aggregated risk over the
    (feature x mode) battery, in deterministic order.
    """
    from .detection import run_test
    modes = tuple(modes)
    if not modes:
        raise ValueError("at least one fairness mode is required")
    reports = [run_test(d, f, outcome, nonsensitive, cfg) for f in features]
    hazards = [hazard(r, mode) for r in reports for mode in modes]
    return reports, overall_risk(hazards)


def compare_hazards(model: RiskReport, data: RiskReport) -> HazardComparison:
    """Per-test and overall model-minus-data hazard differences.

    A positive difference flags bias amplification by the model; a
    negative one means the model corrects bias present in the data.
    """
    for name, risk in (("model", model), ("data", data)):
        keys = [(h.test, h.mode) for h in risk.hazards]
        twice = next((k for i, k in enumerate(keys) if k in keys[:i]), None)
        if twice is not None:
            raise ValueError(f"{name} risk report lists hazard {twice} twice")
    data_by_key = {(h.test, h.mode): h for h in data.hazards}
    if {(h.test, h.mode) for h in model.hazards} != data_by_key.keys():
        raise ValueError("model and data batteries cover different tests")
    entries = []
    for h in model.hazards:
        other = data_by_key[(h.test, h.mode)]
        entries.append(HazardEntry(feature=h.test, mode=h.mode,
                                   data_hazard=other.value, model_hazard=h.value,
                                   difference=h.value - other.value))
    return HazardComparison(entries=tuple(entries),
                            data_overall=data.overall,
                            model_overall=model.overall,
                            overall_difference=model.overall - data.overall)
