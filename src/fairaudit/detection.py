"""Fairness-violation checks over sensitive classes and their subclasses.

A fairness test produces lines.  The top-level line compares the outcome
distributions of the sensitive classes pairwise (Jensen-Shannon,
aggregated); the double-check lines redo that comparison inside every
observed subclass obtained by fixing non-sensitive feature values.  Every
class of every subclass is counted, under any number of labellings (the
data's outcome, or each sweep threshold), from one count of the
battery's distinct rows (conditioning codes, class and level), summed per
combination of those features in plain Python.  Degenerate cases (empty
classes, starved subclasses) become warnings on skipped lines, never
crashes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .config import DetectionConfig
from .tabular import (
    BAD,
    GOOD,
    Dataset,
    SensitiveSpec,
    label_distribution,
    outcome_levels,
    partition,
)
from . import divergence as dv

CLASS_VS_CLASS = "class_vs_class"


@dataclass(frozen=True)
class TestLine:
    """One comparison: the subclass conditions, who was compared, the
    divergence against its threshold, and any warnings raised on the way.

    A line with no divergence was skipped (warnings say why) and carries
    no violation.
    """

    conditions: tuple[tuple[str, str], ...]
    compared: tuple[str, ...]
    union_count: int
    divergence: dv.DivergenceValue | None
    epsilon: float | None
    violated: bool
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if (self.divergence is None) != (self.epsilon is None):
            raise ValueError("divergence and epsilon must be both set or both absent")
        if self.divergence is None and self.violated:
            raise ValueError("a skipped line cannot be a violation")

    @property
    def skipped(self) -> bool:
        return self.divergence is None


@dataclass(frozen=True)
class TestReport:
    sensitive_feature: str
    mode: str  # always CLASS_VS_CLASS
    divergence_kind: str
    aggregation_mode: str
    dataset_size: int
    conditioning_columns: tuple[str, ...]
    lines: tuple[TestLine, ...]
    warnings: tuple[str, ...] = ()


def compare_classes(dists, cfg: DetectionConfig) -> dv.DivergenceValue:
    """Pairwise Jensen-Shannon over the compared classes' outcome
    distributions, aggregated."""
    return dv.aggregate([dv.js(p, q) for p, q in combinations(dists, 2)], cfg.aggregation)


def _distributions(counts) -> list[dv.ProbabilityDistribution]:
    """The (bad, good) distribution of a class under each labelling, from
    its row count and good counts (`counts`, one class's list from
    `label_distribution`); equal counts share one object."""
    total, dists, last = counts[0], [], None
    for good in counts[1:]:
        if good != last:
            dist = dv.ProbabilityDistribution.from_counts((BAD, GOOD), (total - good, good))
            last = good
        dists.append(dist)
    return dists


def _lines(feature: SensitiveSpec, conditions, counts, min_support: int, dataset_size: int,
           cfg: DetectionConfig) -> list[TestLine]:
    """The line of one (sub)class under each labelling, from its classes'
    counts (`counts[i]` is the i-th class's list from `label_distribution`).

    A support below `min_support` skips the line; empty classes surface as
    warnings, and fewer than 2 non-empty classes skip it too.  A labelling
    whose distributions equal the previous one's reuses that line.
    """
    labellings = len(counts[0]) - 1
    support = sum(c[0] for c in counts)
    if support < min_support:
        return [TestLine(conditions=conditions, compared=(), union_count=support,
                         divergence=None, epsilon=None, violated=False,
                         warnings=(f"subclass support {support} below minimum "
                                   f"{min_support}; skipped",))] * labellings
    warnings = tuple(f"class '{cls}' is empty; excluded from comparison"
                     for cls, c in zip(feature.classes, counts) if not c[0])
    compared = tuple(cls for cls, c in zip(feature.classes, counts) if c[0])
    if len(compared) < 2:
        return [TestLine(conditions=conditions, compared=compared, union_count=support,
                         divergence=None, epsilon=None, violated=False,
                         warnings=warnings + ("fewer than 2 non-empty classes; "
                                              "comparison skipped",))] * labellings
    eps = dv.auto_threshold(cfg.r, len(feature.classes), support, dataset_size,
                            intervals=cfg.intervals, c_ref=cfg.c_ref).epsilon
    out, last = [], None
    for dists in zip(*(_distributions(c) for c in counts if c[0])):
        if dists != last:
            agg, last = compare_classes(dists, cfg), dists
            line = TestLine(conditions=conditions, compared=compared, union_count=support,
                            divergence=agg, epsilon=eps, violated=agg.value > eps,
                            warnings=warnings)
        out.append(line)
    return out


def run_tests(d: Dataset, feature: SensitiveSpec, levels, labellings: int,
              nonsensitive, cfg: DetectionConfig) -> list[TestReport]:
    """One full fairness test per labelling (row r is good under labelling i
    iff `i < levels[r]`, with `0 <= levels <= labellings`): the top-level
    line, then the line of every observed subclass.

    Subclasses are all joint value assignments, observed in the data, of
    up to `cfg.depth` non-sensitive columns (columns in the given order,
    values sorted).  Subclasses with fewer than `cfg.min_support` rows are
    skipped with a warning.
    """
    nonsensitive = tuple(nonsensitive)
    # partition first: an undeclared label beats an unknown conditioning column
    classes = partition(d, feature).classes
    encodings = [d.column(col).encoded for col in nonsensitive]
    # each distinct (*conditioning codes, class, level) row and its row count
    rows = Counter(zip(*(e.codes for e in encodings), classes, levels))
    k = len(feature.classes)
    columns = [_lines(feature, (), label_distribution(rows, (), k, labellings)[()],
                      0, d.size, cfg)]
    for depth in range(1, cfg.depth + 1):
        for combo in combinations(range(len(nonsensitive)), depth):
            for subclass, counts in label_distribution(rows, combo, k, labellings).items():
                conditions = tuple((nonsensitive[j], encodings[j].uniques[code])
                                   for j, code in zip(combo, subclass))
                columns.append(_lines(feature, conditions, counts, cfg.min_support,
                                      d.size, cfg))
    all_skipped = ("every comparison was skipped; see line warnings",)
    return [TestReport(sensitive_feature=feature.name, mode=CLASS_VS_CLASS,
                       divergence_kind=dv.JS, aggregation_mode=cfg.aggregation,
                       dataset_size=d.size, conditioning_columns=nonsensitive, lines=lines,
                       warnings=all_skipped if all(line.skipped for line in lines) else ())
            for lines in zip(*columns)]


def run_test(d: Dataset, feature: SensitiveSpec, outcome: str,
             nonsensitive, cfg: DetectionConfig) -> TestReport:
    """One full fairness test of the good/bad labels in column `outcome`."""
    return run_tests(d, feature, outcome_levels(d, outcome), 1, nonsensitive, cfg)[0]
