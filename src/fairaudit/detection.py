"""Fairness-violation checks over sensitive classes and their subclasses.

A fairness test produces lines.  The top-level line compares the outcome
distributions of the sensitive classes pairwise (Jensen-Shannon,
aggregated); the double-check lines redo that comparison inside every
observed subclass obtained by fixing non-sensitive feature values.
Degenerate cases (empty classes, starved subclasses) become warnings on
skipped lines, never crashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .config import DetectionConfig
from .tabular import (
    Dataset,
    FeaturePartition,
    SensitiveSpec,
    group_rows,
    label_distribution,
    partition,
    sensitive_labels,
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


def _threshold(cfg: DetectionConfig, n_c: int, n_d: int, dataset_size: int) -> float:
    return dv.auto_threshold(cfg.r, n_c, n_d, dataset_size,
                             intervals=cfg.intervals, c_ref=cfg.c_ref).epsilon


def compare_classes(d: Dataset, fp: FeaturePartition, outcome: str,
                    cfg: DetectionConfig) -> TestLine:
    """Pairwise Jensen-Shannon over the non-empty classes, aggregated into
    a single line; empty classes surface as warnings."""
    warnings = tuple(f"class '{cls}' is empty; excluded from comparison"
                     for cls in fp.empty())
    present = fp.non_empty()
    union_count = sum(len(fp.cells[c]) for c in present)
    if len(present) < 2:
        return TestLine(
            conditions=fp.conditions, compared=tuple(present),
            union_count=union_count, divergence=None, epsilon=None,
            violated=False,
            warnings=warnings + ("fewer than 2 non-empty classes; comparison skipped",))

    dists = {cls: label_distribution(d, fp.cells[cls], outcome) for cls in present}
    values = [dv.js(dists[a], dists[b]) for a, b in combinations(present, 2)]
    agg = dv.aggregate(values, cfg.aggregation)
    eps = _threshold(cfg, len(fp.feature.classes), union_count, d.size)
    return TestLine(conditions=fp.conditions, compared=tuple(present),
                    union_count=union_count, divergence=agg, epsilon=eps,
                    violated=agg.value > eps, warnings=warnings)


def subclass_double_check(d: Dataset, feature: SensitiveSpec, outcome: str,
                          nonsensitive, cfg: DetectionConfig) -> list[TestLine]:
    """Class-vs-class comparison inside every observed subclass.

    Subclasses are all joint value assignments, observed in the data, of
    up to `cfg.depth` non-sensitive columns (columns in the given order,
    values sorted).  Subclasses with fewer than `cfg.min_support` rows are
    skipped with a warning; they are counted but not partitioned, unless
    one of their rows has an undeclared class label, on which `partition`
    raises.
    """
    nonsensitive = list(nonsensitive)
    for col in nonsensitive:
        d.column(col)  # raises on unknown column
    if not nonsensitive:
        return []
    labels, declared = sensitive_labels(d, feature)  # raises as `partition` would
    undeclared = ~declared[labels.codes]

    lines = []
    for depth in range(1, cfg.depth + 1):
        for combo in combinations(nonsensitive, depth):
            # group order is the sorted order of the value tuples
            encodings = (d.column(col).encoded for col in combo)
            first_rows, group = group_rows(d.size, ((e.codes, len(e.uniques)) for e in encodings))
            supports = np.bincount(group).tolist()
            undeclared_counts = np.bincount(group[undeclared], minlength=len(first_rows)).tolist()
            for row, support, n_undeclared in zip(first_rows.tolist(), supports,
                                                  undeclared_counts):
                conditions = tuple((col, d.column(col).values[row]) for col in combo)
                if support < cfg.min_support and not n_undeclared:
                    lines.append(TestLine(
                        conditions=conditions, compared=(), union_count=support,
                        divergence=None, epsilon=None, violated=False,
                        warnings=(f"subclass support {support} below minimum "
                                  f"{cfg.min_support}; skipped",)))
                    continue
                lines.append(compare_classes(d, partition(d, feature, conditions), outcome, cfg))
    return lines


def run_test(d: Dataset, feature: SensitiveSpec, outcome: str,
             nonsensitive, cfg: DetectionConfig) -> TestReport:
    """One full fairness test: top-level comparison plus subclass lines,
    assembled in deterministic order."""
    lines = [compare_classes(d, partition(d, feature, ()), outcome, cfg)]
    lines.extend(subclass_double_check(d, feature, outcome, nonsensitive, cfg))

    warnings = ()
    if all(line.skipped for line in lines):
        warnings = ("every comparison was skipped; see line warnings",)
    return TestReport(sensitive_feature=feature.name, mode=CLASS_VS_CLASS,
                      divergence_kind=dv.JS, aggregation_mode=cfg.aggregation,
                      dataset_size=d.size, conditioning_columns=tuple(nonsensitive),
                      lines=tuple(lines), warnings=warnings)
