"""Row-scan reference implementations of the counting and scoring cores.

These are the original per-row versions of `tabular.partition`,
`tabular.label_distribution` and the subclass enumeration of
`detection.subclass_double_check` (test_counting_oracle.py), and of the
scorecard's value-to-bin mapping, logistic fit and scoring
(test_scorecard.py).  They are kept only as a differential oracle for the
numpy-based versions.
"""

import math
from bisect import bisect_right
from itertools import combinations

import numpy as np

from fairaudit.scorecard import (
    CATEGORICAL,
    NUMERIC,
    BinningSpec,
    Scorecard,
    ScorecardConfig,
    fit_bins,
)
from fairaudit.tabular import (
    BAD,
    DERIVED,
    INTEGER,
    Dataset,
    EmptyClassError,
    FeaturePartition,
    ProbabilityDistribution,
    SensitiveSpec,
)


def partition(d: Dataset, feature: SensitiveSpec, conditions=()) -> FeaturePartition:
    if not d.has_column(feature.column):
        raise ValueError(f"sensitive column {feature.column!r} not in dataset")
    conditions = tuple((str(c), v) for c, v in conditions)
    for col, value in conditions:
        column = d.column(col)  # raises on unknown column
        if value not in set(column.values):
            raise ValueError(f"value {value!r} never occurs in column {col!r}")

    labels = d.column(feature.column).values
    cells: dict = {c: [] for c in feature.classes}
    for i in range(d.size):
        if all(d.column(col).values[i] == value for col, value in conditions):
            label = labels[i]
            if label not in cells:
                raise ValueError(f"class label {label!r} outside declared classes "
                                 f"of {feature.name!r}")
            cells[label].append(i)
    return FeaturePartition(feature=feature,
                            cells={c: tuple(rows) for c, rows in cells.items()},
                            conditions=conditions)


def label_distribution(d: Dataset, rows, outcome: str) -> ProbabilityDistribution:
    rows = tuple(rows)
    if not rows:
        raise EmptyClassError(f"empty row set for outcome {outcome!r}")
    support = tuple(sorted(set(d.column(outcome).values)))
    values = d.column(outcome).values
    counts = [0] * len(support)
    index = {label: i for i, label in enumerate(support)}
    for r in rows:
        counts[index[values[r]]] += 1
    return ProbabilityDistribution.from_counts(support, counts)


def subclass_conditions(d: Dataset, nonsensitive, max_depth: int) -> list:
    """The conditions of every observed subclass, in double-check order."""
    out = []
    for depth in range(1, max_depth + 1):
        for combo in combinations(nonsensitive, depth):
            cols = [d.column(c).values for c in combo]
            observed = sorted({tuple(col[i] for col in cols) for i in range(d.size)})
            out.extend(tuple(zip(combo, values)) for values in observed)
    return out


def bin_index(spec: BinningSpec, value) -> int:
    if spec.kind == NUMERIC:
        return bisect_right(spec.edges, float(value))
    code_to_bin = {code: i for i, group in enumerate(spec.groups) for code in group}
    idx = code_to_bin.get(value)
    if idx is None:
        if spec.rest_bin is None:
            raise ValueError(f"unseen code {value!r} for column {spec.column!r} "
                             "and no rest bin to absorb it")
        return spec.rest_bin
    return idx


def score(card: Scorecard, row) -> int:
    """Integer score of one row (mapping column -> value)."""
    k = len(card.binnings)
    factor = card.scaling.pdo / math.log(2)
    total = 0.0
    for coef, binning in zip(card.coefficients, card.binnings):
        if binning.column not in row:
            raise ValueError(f"row is missing column {binning.column!r}")
        woe = binning.woes[bin_index(binning, row[binning.column])]
        total += -(coef * woe + card.intercept / k) * factor + card.scaling.base_score / k
    return round(total)


def score_dataset(card: Scorecard, d: Dataset) -> list[int]:
    cols = {b.column: d.column(b.column).values for b in card.binnings}
    return [score(card, {name: values[i] for name, values in cols.items()})
            for i in range(d.size)]


def fit_scorecard(d: Dataset, config: ScorecardConfig = ScorecardConfig()) -> Scorecard:
    """Full-batch gradient descent over the whole per-row WOE matrix."""
    if config.columns is None:
        columns = [c.name for c in d.columns
                   if c.name != d.outcome and c.kind != DERIVED]
    else:
        columns = list(config.columns)
    if not columns:
        raise ValueError("no usable columns to fit on")

    labels = list(d.column(d.outcome).values)
    binnings = []
    for name in columns:
        col = d.column(name)
        kind = NUMERIC if col.kind == INTEGER else CATEGORICAL
        binnings.append(fit_bins(name, kind, col.values, labels, config.binning))

    n = d.size
    woe_matrix = np.empty((n, len(binnings)))
    for j, b in enumerate(binnings):
        woe_matrix[:, j] = [b.woes[bin_index(b, v)] for v in d.column(b.column).values]
    y = np.array([1.0 if label == BAD else 0.0 for label in labels])

    weights = np.zeros(len(binnings))
    intercept = 0.0
    lr = config.learning_rate
    for _ in range(config.iterations):
        p = 1.0 / (1.0 + np.exp(-(woe_matrix @ weights + intercept)))
        err = p - y
        weights = weights - lr * (woe_matrix.T @ err) / n
        intercept = intercept - lr * float(np.mean(err))

    p = np.clip(1.0 / (1.0 + np.exp(-(woe_matrix @ weights + intercept))), 1e-12, 1.0 - 1e-12)
    loss = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))

    return Scorecard(binnings=tuple(binnings),
                     coefficients=tuple(float(w) for w in weights),
                     intercept=float(intercept),
                     scaling=config.scaling,
                     final_loss=loss)
