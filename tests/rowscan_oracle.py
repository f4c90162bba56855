"""Row-scan reference implementations of the detection counting core.

These are the original per-row versions of `tabular.partition`,
`tabular.label_distribution` and the subclass enumeration of
`detection.subclass_double_check`.  They are kept only as a differential
oracle for the encoded, numpy-based versions (test_counting_oracle.py).
"""

from itertools import combinations

from fairaudit.tabular import (
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
