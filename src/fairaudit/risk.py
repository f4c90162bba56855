"""Hazard values and overall fairness-violation risk.

Every violated line of a test contributes
    q * cbrt(epsilon) * cbrt(|divergence - epsilon|) * w
where q is the involved population share and w the group/individual
weight; skipped and non-violated lines contribute zero.  A test's hazard
is the sum of its line contributions and the overall risk is the mean of
the hazards in the battery.

The cube roots are correctly rounded and the sums add in order from 0.0,
in plain Python, so that a hazard has the same bits on every host and
Python version (numpy's `cbrt` depends on the CPU's vector loops, and
Python 3.12 made `sum` of floats compensated).
"""

from __future__ import annotations

import functools
import math

from .config import GROUP, INDIVIDUAL, MODES
from .record import Record


class HazardValue(Record):
    test: str
    mode: str
    value: float
    line_contributions: tuple[float, ...]

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown fairness mode {self.mode!r}")
        if any(c < 0 for c in self.line_contributions):
            raise ValueError("line contributions cannot be negative")


class RiskReport(Record):
    hazards: tuple[HazardValue, ...]
    overall: float


class HazardEntry(Record):
    feature: str
    mode: str
    data_hazard: float
    model_hazard: float
    difference: float  # model - data; positive means amplification


class HazardComparison(Record):
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


def _exceeds_midpoint_cube(x: float, a: float, b: float) -> bool:
    """Whether `x` exceeds the cube of the midpoint of the positive floats
    `a` and `b`, compared exactly on integers."""
    xn, xd = x.as_integer_ratio()
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    # midpoint = (an * bd + bn * ad) / (2 * ad * bd); every denominator is a power of two
    return xn * (2 * ad * bd) ** 3 > (an * bd + bn * ad) ** 3 * xd


def cbrt(x: float) -> float:
    """The cube root of a finite `x >= 0`, correctly rounded to the nearest
    float.  Zeros are their own cube roots and stay out of the cache, which
    would not tell 0.0 from -0.0."""
    return x if x == 0.0 else _positive_cbrt(x)


@functools.lru_cache(maxsize=4096)
def _positive_cbrt(x: float) -> float:
    """The correctly rounded cube root of a positive finite `x`.

    With `x = m * 2**(3k)` and `m` in [1/2, 4), the start `m ** (1/3) *
    2**k` is within about an ulp (scaling by powers of two is exact, and
    `** (1/3)` of a small `m` is close).  It then moves to a neighbour
    while `x` lies beyond the cube of the midpoint between the two; no cube
    of a midpoint is a float, so there are no ties.  A battery's lines
    share few thresholds, so results are cached.
    """
    m, e = math.frexp(x)  # x = m * 2**e with m in [1/2, 1)
    k, r = divmod(e, 3)
    y = math.ldexp(math.ldexp(m, r) ** (1.0 / 3.0), k)
    while _exceeds_midpoint_cube(x, y, up := math.nextafter(y, math.inf)):
        y = up
    while not _exceeds_midpoint_cube(x, down := math.nextafter(y, 0.0), y):
        y = down
    return y


@functools.lru_cache(maxsize=4096)
def _severity(q: float, epsilon: float, excess: float) -> float:
    """A violated line's contribution before its mode weight, `q *
    cbrt(epsilon) * cbrt(excess)`.  Lines repeat across a sweep's
    labellings and the two fairness modes, so results are cached; the
    arguments are never -0.0, which the cache would not tell from 0.0."""
    return q * cbrt(epsilon) * cbrt(excess)


def _in_order_sum(values) -> float:
    """The floats added one by one in order from 0.0, as Python's `sum`
    adds them up to 3.11, on every Python version."""
    total = 0.0
    for v in values:
        total += v
    return total


def hazard(report, mode: str) -> HazardValue:
    """Aggregate one `detection.TestReport` into its hazard value."""
    total = len(report.conditioning_columns)
    contributions = []
    for line in report.lines:
        if line.skipped or not line.violated:
            contributions.append(0.0)
            continue
        q = line.union_count / report.dataset_size
        excess = abs(line.divergence.value - line.epsilon)
        w = line_weight(len(line.conditions), total, mode)
        contributions.append(_severity(q, line.epsilon, excess) * w)
    return HazardValue(test=report.sensitive_feature, mode=mode,
                       value=_in_order_sum(contributions),
                       line_contributions=tuple(contributions))


def overall_risk(hazards) -> RiskReport:
    """Mean of the hazard values across the battery."""
    hazards = tuple(hazards)
    if not hazards:
        raise ValueError("cannot aggregate an empty hazard battery")
    return RiskReport(hazards=hazards,
                      overall=_in_order_sum(h.value for h in hazards) / len(hazards))


def battery_risk(reports, modes=MODES) -> RiskReport:
    """The risk of the (test x mode) battery, in deterministic order."""
    modes = tuple(modes)
    if not modes:
        raise ValueError("at least one fairness mode is required")
    return overall_risk(hazard(r, mode) for r in reports for mode in modes)


def run_battery(d, outcome, features, nonsensitive, cfg, modes=MODES):
    """Run one fairness test per feature; return the per-feature test
    reports and their risk (`battery_risk`)."""
    from .detection import run_test
    reports = [run_test(d, f, outcome, nonsensitive, cfg) for f in features]
    return reports, battery_risk(reports, modes)


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
