"""Fairness-violation checks over sensitive classes and their subclasses.

A fairness test produces lines.  The top-level line compares the outcome
distributions of the sensitive classes pairwise (Jensen-Shannon,
aggregated); the double-check lines redo that comparison inside every
observed subclass obtained by fixing non-sensitive feature values, its
cells cut from one sort of the rows per combination of those features.
Degenerate cases (empty classes, starved subclasses) become warnings on
skipped lines, never crashes.  A test is planned once and evaluated under
any number of labellings: the data's outcome, or each sweep threshold.
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
class Comparison:
    """A planned line to compare: all of it that no labelling changes."""

    conditions: tuple[tuple[str, str], ...]
    cells: dict  # compared (non-empty) class -> its row indices
    union_count: int
    epsilon: float
    warnings: tuple[str, ...]


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


def _plan_line(d: Dataset, fp: FeaturePartition, cfg: DetectionConfig) -> TestLine | Comparison:
    """The line of a partition: empty classes surface as warnings, and fewer
    than 2 non-empty classes make a skipped line."""
    warnings = tuple(f"class '{cls}' is empty; excluded from comparison"
                     for cls in fp.empty())
    present = fp.non_empty()
    union_count = sum(len(fp.cells[c]) for c in present)
    if len(present) < 2:
        return TestLine(conditions=fp.conditions, compared=tuple(present), union_count=union_count,
                        divergence=None, epsilon=None, violated=False,
                        warnings=warnings + ("fewer than 2 non-empty classes; comparison skipped",))
    eps = dv.auto_threshold(cfg.r, len(fp.feature.classes), union_count, d.size,
                            intervals=cfg.intervals, c_ref=cfg.c_ref).epsilon
    return Comparison(conditions=fp.conditions, cells={c: fp.cells[c] for c in present},
                      union_count=union_count, epsilon=eps, warnings=warnings)


def compare_classes(line: Comparison, dists, cfg: DetectionConfig) -> TestLine:
    """Pairwise Jensen-Shannon over the compared classes' outcome
    distributions (in `line.cells` order), aggregated into a single line."""
    agg = dv.aggregate([dv.js(p, q) for p, q in combinations(dists, 2)], cfg.aggregation)
    return TestLine(conditions=line.conditions, compared=tuple(line.cells),
                    union_count=line.union_count, divergence=agg, epsilon=line.epsilon,
                    violated=agg.value > line.epsilon, warnings=line.warnings)


def subclass_double_check(d: Dataset, top: FeaturePartition, nonsensitive,
                          cfg: DetectionConfig) -> list[TestLine | Comparison]:
    """The class-vs-class lines of every observed subclass, planned.

    Subclasses are all joint value assignments, observed in the data, of
    up to `cfg.depth` non-sensitive columns (columns in the given order,
    values sorted); `top` is `partition(d, feature)`, so every row has a
    declared class.  Subclasses with fewer than `cfg.min_support` rows are
    skipped with a warning.
    """
    nonsensitive = list(nonsensitive)
    for col in nonsensitive:
        d.column(col)  # raises on unknown column
    classes, k = top.feature.classes, len(top.feature.classes)
    label = np.empty(d.size, dtype=np.intp)  # row -> index of its class
    for i, rows in enumerate(top.cells.values()):
        label[rows] = i

    lines = []
    for depth in range(1, cfg.depth + 1):
        for combo in combinations(nonsensitive, depth):
            # group order is the sorted order of the value tuples
            encodings = (d.column(col).encoded for col in combo)
            first_rows, group = group_rows(d.size, ((e.codes, len(e.uniques)) for e in encodings))
            # one sort by (subclass g, class i), as key g * k + i, gives every
            # cell as a slice; numpy sorts ints of up to 16 bits by radix, while
            # a stable int64 argsort is a timsort.  Stable keeps cells ascending.
            key, n_cells = group * k + label, len(first_rows) * k
            bounds = [0] + np.cumsum(np.bincount(key, minlength=n_cells)).tolist()
            order = np.argsort(key.astype(np.min_scalar_type(n_cells)), kind="stable")
            for g, row in enumerate(first_rows.tolist()):
                conditions = tuple((col, d.column(col).values[row]) for col in combo)
                edges = bounds[g * k:(g + 1) * k + 1]
                support = edges[-1] - edges[0]
                if support < cfg.min_support:
                    lines.append(TestLine(
                        conditions=conditions, compared=(), union_count=support,
                        divergence=None, epsilon=None, violated=False,
                        warnings=(f"subclass support {support} below minimum "
                                  f"{cfg.min_support}; skipped",)))
                    continue
                cells = {c: order[a:b] for c, a, b in zip(classes, edges, edges[1:])}
                lines.append(_plan_line(d, FeaturePartition(top.feature, cells, conditions), cfg))
    return lines


def _evaluate(line: Comparison, levels, labellings: int, cfg: DetectionConfig) -> list[TestLine]:
    """The line under each labelling; one whose distributions equal the
    previous labelling's reuses that labelling's line."""
    per_class = [label_distribution(levels, rows, labellings) for rows in line.cells.values()]
    out, last = [], None
    for dists in zip(*per_class):
        if dists != last:
            evaluated, last = compare_classes(line, dists, cfg), dists
        out.append(evaluated)
    return out


def run_tests(d: Dataset, feature: SensitiveSpec, levels, labellings: int,
              nonsensitive, cfg: DetectionConfig) -> list[TestReport]:
    """One full fairness test per labelling (row r is good under labelling i
    iff `i < levels[r]`): top-level line, then the subclass lines."""
    nonsensitive = tuple(nonsensitive)
    top = partition(d, feature)
    planned = [_plan_line(d, top, cfg)] + subclass_double_check(d, top, nonsensitive, cfg)
    columns = [_evaluate(line, levels, labellings, cfg) if isinstance(line, Comparison)
               else [line] * labellings for line in planned]
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
