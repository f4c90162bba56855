"""Fairness-violation checks over sensitive classes and their subclasses.

A fairness test produces lines.  The top-level line compares the outcome
distributions of the sensitive classes pairwise (Jensen-Shannon,
aggregated); the double-check lines redo that comparison inside every
observed subclass obtained by fixing non-sensitive feature values.
Classes compared against a reference ("ideal") distribution use the
normalised KL instead.  Degenerate cases (empty classes, starved
subclasses) become warnings on skipped lines, never crashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .config import DetectionConfig
from .tabular import (
    Dataset,
    FeaturePartition,
    SensitiveSpec,
    group_rows,
    label_distribution,
    partition,
)
from . import divergence as dv

VS_IDEAL = "vs_ideal"
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
    mode: str  # VS_IDEAL | CLASS_VS_CLASS
    divergence_kind: str
    aggregation_mode: str
    dataset_size: int
    conditioning_columns: tuple[str, ...]
    lines: tuple[TestLine, ...]
    warnings: tuple[str, ...] = ()


def _threshold(cfg: DetectionConfig, n_c: int, n_d: int, dataset_size: int) -> float:
    return dv.auto_threshold(cfg.r, n_c, n_d, dataset_size,
                             intervals=cfg.intervals, c_ref=cfg.c_ref).epsilon


def compare_to_ideal(d: Dataset, fp: FeaturePartition, outcome: str,
                     cfg: DetectionConfig,
                     ideal: dv.ProbabilityDistribution | None = None) -> list[TestLine]:
    """One line per class: normalised KL of the observed outcome
    distribution from the ideal (default: the pooled distribution over
    the whole dataset)."""
    if ideal is None:
        ideal = label_distribution(d, range(d.size), outcome)
    n_c = len(fp.feature.classes)
    lines = []
    for cls in fp.feature.classes:
        rows = fp.cells[cls]
        if not rows:
            lines.append(TestLine(
                conditions=fp.conditions, compared=(cls,), union_count=0,
                divergence=None, epsilon=None, violated=False,
                warnings=(f"class '{cls}' is empty; comparison skipped",)))
            continue
        observed = label_distribution(d, rows, outcome)
        div = dv.kl_normalized(ideal, observed)
        eps = _threshold(cfg, n_c, len(rows), d.size)
        lines.append(TestLine(
            conditions=fp.conditions, compared=(cls,), union_count=len(rows),
            divergence=div, epsilon=eps, violated=div.value > eps))
    return lines


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
    skipped with a warning.
    """
    nonsensitive = list(nonsensitive)
    for col in nonsensitive:
        d.column(col)  # raises on unknown column

    lines = []
    for depth in range(1, cfg.depth + 1):
        for combo in combinations(nonsensitive, depth):
            # group order is the sorted order of the value tuples
            encodings = (d.column(col).encoded for col in combo)
            first_rows, _ = group_rows(d.size, ((e.codes, len(e.uniques)) for e in encodings))
            for row in first_rows.tolist():
                conditions = tuple((col, d.column(col).values[row]) for col in combo)
                fp = partition(d, feature, conditions)
                support = fp.covered
                if support < cfg.min_support:
                    lines.append(TestLine(
                        conditions=conditions, compared=(), union_count=support,
                        divergence=None, epsilon=None, violated=False,
                        warnings=(f"subclass support {support} below minimum "
                                  f"{cfg.min_support}; skipped",)))
                    continue
                lines.append(compare_classes(d, fp, outcome, cfg))
    return lines


def run_test(d: Dataset, feature: SensitiveSpec, outcome: str,
             nonsensitive, cfg: DetectionConfig,
             mode: str = CLASS_VS_CLASS) -> TestReport:
    """One full fairness test: top-level comparison plus subclass lines,
    assembled in deterministic order."""
    top = partition(d, feature, ())
    if mode == CLASS_VS_CLASS:
        lines = [compare_classes(d, top, outcome, cfg)]
        lines.extend(subclass_double_check(d, feature, outcome, nonsensitive, cfg))
        kind = dv.JS
    elif mode == VS_IDEAL:
        lines = list(compare_to_ideal(d, top, outcome, cfg))
        kind = dv.KL_NORMALIZED
    else:
        raise ValueError(f"unknown test mode {mode!r}")

    warnings = ()
    if all(line.skipped for line in lines):
        warnings = ("every comparison was skipped; see line warnings",)
    return TestReport(sensitive_feature=feature.name, mode=mode,
                      divergence_kind=kind, aggregation_mode=cfg.aggregation,
                      dataset_size=d.size,
                      conditioning_columns=tuple(nonsensitive) if mode == CLASS_VS_CLASS else (),
                      lines=tuple(lines), warnings=warnings)
