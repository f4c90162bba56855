"""Row-scan reference implementations of the loading, counting and
scoring cores.

These are the original per-row versions of: `tabular.partition` under
optional subclass conditions, the outcome distribution of a row set and
the subclass enumeration, from which test_counting_oracle.py rebuilds
every line of `detection.run_test`; `scorecard.group_rows`; the threshold
sweep as one battery and one scan of the accepted rows per threshold,
with its bad rate and profit; and the Kullback-Leibler and
Jensen-Shannon kernels over a validated mixture distribution (all in
test_counting_oracle.py).  Also of the scorecard's value-to-bin mapping,
logistic fit and scoring (test_scorecard.py), and of the German Credit
and CSV loaders, the sensitive-feature derivation and the binning fit
(test_columnar_oracle.py).  They are kept only as a differential oracle
for the columnar versions.
"""

import csv
import math
from bisect import bisect_right
from collections import Counter
from itertools import combinations
from typing import NamedTuple

import numpy as np

from fairaudit import divergence as dv
from fairaudit.config import MODES, DetectionConfig, RevenueConfig
from fairaudit.revenue import (
    PREDICTION_COLUMN,
    SweepRow,
    credit_columns,
    provisions,
    with_predictions,
)
from fairaudit.risk import run_battery
from fairaudit.scorecard import (
    CATEGORICAL,
    NUMERIC,
    BinningConfig,
    BinningSpec,
    Scorecard,
    ScorecardConfig,
    woe_iv_from_counts,
)
from fairaudit.tabular import (
    _ATTRS,
    _CODE_DOMAINS,
    _INTEGER_ATTRS,
    BAD,
    DERIVED,
    GOOD,
    INTEGER,
    Column,
    Dataset,
    EmptyClassError,
    ParseError,
    ProbabilityDistribution,
    SensitiveSpec,
)


def load_german_credit(path) -> Dataset:
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()

    raw: list[list] = []
    outcome: list[str] = []
    n_parsed = 0
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            raise ParseError(f"line {lineno}: blank line")
        if len(fields) != 21:
            raise ParseError(f"line {lineno}: expected 21 fields, got {len(fields)}")
        rec = []
        for attr, value in zip(_ATTRS, fields[:20]):
            if attr in _INTEGER_ATTRS:
                try:
                    rec.append(int(value))
                except ValueError:
                    raise ParseError(f"line {lineno}: non-integer value {value!r} for {attr}") from None
            else:
                if value not in _CODE_DOMAINS[attr]:
                    raise ParseError(f"line {lineno}: unknown code {value!r} for {attr}")
                rec.append(value)
        if fields[20] not in ("1", "2"):
            raise ParseError(f"line {lineno}: label must be 1 or 2, got {fields[20]!r}")
        outcome.append(GOOD if fields[20] == "1" else BAD)
        raw.append(rec)
        n_parsed += 1
    if n_parsed == 0:
        raise ParseError(f"{path}: empty file")

    columns = [
        Column(attr, INTEGER if attr in _INTEGER_ATTRS else CATEGORICAL,
               tuple(rec[i] for rec in raw))
        for i, attr in enumerate(_ATTRS)
    ]
    columns.append(Column("outcome", CATEGORICAL, tuple(outcome)))
    return Dataset(columns=tuple(columns), outcome="outcome")


def load_csv(path, outcome_column: str, good_value: str = GOOD,
             bad_value: str = BAD) -> Dataset:
    """Load a generic labelled CSV (header row, comma separated).

    Column types are inferred: integer if every value parses as int,
    categorical otherwise.  Outcome values are mapped onto good/bad.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        rows = list(reader)
    twice = next((name for i, name in enumerate(header) if name in header[:i]), None)
    if twice is not None:
        raise ParseError(f"line 1: column {twice!r} appears twice in the header")
    if not rows:
        raise ParseError(f"{path}: no data rows")
    if outcome_column not in header:
        raise ParseError(f"{path}: outcome column {outcome_column!r} not in header")
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ParseError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")

    columns = []
    for i, name in enumerate(header):
        values = [row[i] for row in rows]
        if name == outcome_column:
            mapped = []
            for lineno, v in enumerate(values, start=2):
                if v == good_value:
                    mapped.append(GOOD)
                elif v == bad_value:
                    mapped.append(BAD)
                else:
                    raise ParseError(f"line {lineno}: outcome value {v!r} is neither "
                                     f"{good_value!r} nor {bad_value!r}")
            columns.append(Column(name, CATEGORICAL, tuple(mapped)))
            continue
        try:
            columns.append(Column(name, INTEGER, tuple(int(v) for v in values)))
        except ValueError:
            columns.append(Column(name, CATEGORICAL, tuple(values)))
    return Dataset(columns=tuple(columns), outcome=outcome_column)


_FEMALE_CODES = {"A92", "A95"}
_MALE_CODES = {"A91", "A93", "A94"}


def age_bracket(age: int) -> str:
    # Shared printed endpoints are lower-inclusive (27 -> [27-37], 37 -> [37-47]);
    # [>47] starts at 48, so [37-47] covers ages 37..47.
    if age < 27:
        return "[0-27]"
    if age < 37:
        return "[27-37]"
    if age < 48:
        return "[37-47]"
    return "[>47]"


def derive_sensitive_features(d: Dataset) -> Dataset:
    """Add gender / age_group / foreign columns derived from the raw attributes.

    Idempotent: re-deriving replaces the columns with identical values.
    """
    for src in ("Attribute9", "Attribute13", "Attribute20"):
        if not d.has_column(src):
            raise ValueError(f"cannot derive sensitive features: missing column {src!r}")

    genders = []
    for code in d.column("Attribute9").values:
        if code in _FEMALE_CODES:
            genders.append("female")
        elif code in _MALE_CODES:
            genders.append("male")
        else:
            raise ValueError(f"unmappable personal-status code {code!r}")
    ages = [age_bracket(int(a)) for a in d.column("Attribute13").values]
    foreign = []
    for code in d.column("Attribute20").values:
        if code == "A201":
            foreign.append("foreign")
        elif code == "A202":
            foreign.append("domestic")
        else:
            raise ValueError(f"unmappable foreign-worker code {code!r}")

    return d.with_columns([
        Column("gender", DERIVED, tuple(genders)),
        Column("age_group", DERIVED, tuple(ages)),
        Column("foreign", DERIVED, tuple(foreign)),
    ])


class ConditionedPartition(NamedTuple):
    """The cells induced by a sensitive feature on the rows that match
    `conditions`: class label -> tuple of ascending row indices."""

    feature: SensitiveSpec
    cells: dict
    conditions: tuple


def partition(d: Dataset, feature: SensitiveSpec, conditions=()) -> ConditionedPartition:
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
    return ConditionedPartition(feature=feature,
                                cells={c: tuple(rows) for c, rows in cells.items()},
                                conditions=conditions)


def group_rows(size: int, keys) -> tuple[np.ndarray, np.ndarray]:
    """Group `size` rows by their joint code over several columns.

    `keys` yields one `(codes, n_codes)` pair per column, with every code
    in `[0, n_codes)`.  The codes are folded into one int64 key per row,
    re-ranked after each column so it stays below `size`.  Returns
    `(first_rows, group)`: `group[i]` is the rank of row i's code tuple
    among the distinct tuples in sorted order, and `first_rows[g]` is the
    first row of group g.
    """
    group = np.zeros(size, dtype=np.int64)
    first_rows = np.zeros(min(size, 1), dtype=np.intp)
    for codes, n_codes in keys:
        _, first_rows, group = np.unique(group * n_codes + codes,
                                         return_index=True, return_inverse=True)
    return first_rows, group


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


def kl(p: ProbabilityDistribution, q: ProbabilityDistribution) -> dv.DivergenceValue:
    """Kullback-Leibler divergence of p from q, in bits."""
    dv._check_supports(p, q)
    terms = []
    for pi, qi in zip(p.mass, q.mass):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return dv.DivergenceValue(dv.KL, math.inf)
        terms.append(pi * math.log2(pi / qi))
    return dv.DivergenceValue(dv.KL, max(0.0, math.fsum(terms)))


def _mixture(p: ProbabilityDistribution, q: ProbabilityDistribution) -> ProbabilityDistribution:
    mass = tuple((pi + qi) / 2.0 for pi, qi in zip(p.mass, q.mass))
    return ProbabilityDistribution(p.support, mass)


def js(p: ProbabilityDistribution, q: ProbabilityDistribution) -> dv.DivergenceValue:
    """Jensen-Shannon divergence (symmetric, finite, in [0, 1])."""
    dv._check_supports(p, q)
    m = _mixture(p, q)
    value = (kl(p, m).value + kl(q, m).value) / 2.0
    return dv.DivergenceValue(dv.JS, min(1.0, max(0.0, value)))


def row_order_sum(values) -> float:
    """Floats added one by one in order from 0.0, as Python's `sum` adds
    them up to 3.11 (3.12 compensates), on every Python version."""
    total = 0.0
    for v in values:
        total += v
    return total


def bad_rate(labels) -> float:
    """Share of defaults among accepted applicants; 0 for an empty set."""
    labels = list(labels)
    if not labels:
        return 0.0
    return labels.count(BAD) / len(labels)


def profit(amounts, rates, provisions_amount: float) -> float:
    """Interest income over accepted non-defaulters minus provisions."""
    return row_order_sum(a * r for a, r in zip(amounts, rates)) - provisions_amount


def sweep(d: Dataset, scores, thresholds, features, nonsensitive,
          det_cfg: DetectionConfig = DetectionConfig(),
          modes=MODES,
          rev_cfg: RevenueConfig = RevenueConfig()) -> list[SweepRow]:
    """Profit and fairness-risk trade-off over an ascending threshold grid,
    with a fresh battery on the model's classifications at each threshold."""
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

    rows = []
    for threshold in thresholds:
        accepted = [i for i, s in enumerate(scores) if s >= threshold]
        warnings = ()
        if not accepted:
            warnings = ("no rows accepted at this threshold",)
        br = bad_rate([outcomes[i] for i in accepted])
        total_credit = row_order_sum(amounts[i] for i in accepted)
        prov = provisions(total_credit, br, rev_cfg.provision_factor)
        performing = [i for i in accepted if outcomes[i] == GOOD]
        prof = profit([amounts[i] for i in performing],
                      [rates[i] for i in performing], prov)

        audited = with_predictions(d, scores, threshold)
        _, model_risk = run_battery(audited, PREDICTION_COLUMN, features,
                                    nonsensitive, det_cfg, modes)
        rows.append(SweepRow(
            threshold=threshold, accepted_count=len(accepted), bad_rate=br,
            provisions=prov, profit=prof,
            model_risk=model_risk.overall, data_risk=data_risk.overall,
            risk_difference=model_risk.overall - data_risk.overall,
            warnings=warnings))
    return rows


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


def _bin_counts(assignments, n_bins: int, y_bad) -> tuple[list[int], list[int]]:
    goods = np.bincount(assignments[~y_bad], minlength=n_bins)
    bads = np.bincount(assignments[y_bad], minlength=n_bins)
    return goods.tolist(), bads.tolist()


def fit_bins(column: str, kind: str, values, labels,
             config: BinningConfig = BinningConfig()) -> BinningSpec:
    """Fit the binning of one column against good/bad labels."""
    values = list(values)
    labels = list(labels)
    if len(values) != len(labels):
        raise ValueError("values and labels differ in length")
    distinct_labels = set(labels)
    if not distinct_labels <= {GOOD, BAD}:
        raise ValueError(f"labels outside {{good, bad}}: {sorted(distinct_labels - {GOOD, BAD})}")
    if len(distinct_labels) < 2:
        raise ValueError(f"column {column!r}: need both outcome classes to fit bins")
    y_bad = np.array([label == BAD for label in labels], dtype=bool)

    if kind == NUMERIC:
        return _fit_numeric(column, values, y_bad, config)
    return _fit_categorical(column, values, y_bad, config)


def _fit_numeric(column, values, y_bad, config) -> BinningSpec:
    floats = np.asarray(values, dtype=float)
    lo = float(floats.min())
    if lo == floats.max():  # constant column: single bin, WOE 0, IV 0
        return BinningSpec(column=column, kind=NUMERIC, edges=(), woes=(0.0,), iv=0.0)

    qs = [i / config.max_prebins for i in range(1, config.max_prebins)]
    edges = sorted({float(e) for e in np.quantile(floats, qs)})
    edges = [e for e in edges if e > lo]  # an edge at the minimum leaves an empty first bin

    min_count = config.min_bin_fraction * len(floats)

    def counts_for(es):
        return _bin_counts(np.searchsorted(es, floats, side="right"), len(es) + 1, y_bad)

    goods, bads = counts_for(edges)
    totals = [g + b for g, b in zip(goods, bads)]

    # merge for support: repeatedly fold the smallest undersized bin into
    # its smaller neighbour (ties towards the left)
    while len(totals) > 1 and min(totals) < min_count:
        i = totals.index(min(totals))
        if i == 0:
            j = 0
        elif i == len(totals) - 1:
            j = i - 1
        else:
            j = i - 1 if totals[i - 1] <= totals[i + 1] else i
        del edges[j]
        goods, bads = counts_for(edges)
        totals = [g + b for g, b in zip(goods, bads)]

    # merge for monotonicity of the WOE sequence
    woes, iv = woe_iv_from_counts(goods, bads)
    while len(woes) > 2:
        direction = 1.0 if woes[-1] >= woes[0] else -1.0
        bad_pair = next((i for i in range(len(woes) - 1)
                         if (woes[i + 1] - woes[i]) * direction < 0), None)
        if bad_pair is None:
            break
        del edges[bad_pair]
        goods, bads = counts_for(edges)
        woes, iv = woe_iv_from_counts(goods, bads)

    return BinningSpec(column=column, kind=NUMERIC, edges=tuple(edges),
                       woes=tuple(woes), iv=iv)


def _fit_categorical(column, values, y_bad, config) -> BinningSpec:
    counts = Counter(values)
    codes = sorted(counts)
    min_count = config.min_bin_fraction * len(values)
    frequent = [c for c in codes if counts[c] >= min_count]
    rare = [c for c in codes if counts[c] < min_count]

    groups = [(c,) for c in frequent]
    rest_bin = None
    if rare:
        groups.append(tuple(rare))
        rest_bin = len(groups) - 1
    if not frequent and rare:  # everything rare: one catch-all bin
        groups = [tuple(rare)]
        rest_bin = 0

    group_index = {code: i for i, g in enumerate(groups) for code in g}
    assignments = np.fromiter(map(group_index.__getitem__, values), dtype=np.intp,
                              count=len(values))
    goods, bads = _bin_counts(assignments, len(groups), y_bad)
    woes, iv = woe_iv_from_counts(goods, bads)
    return BinningSpec(column=column, kind=CATEGORICAL, groups=tuple(groups),
                       rest_bin=rest_bin, woes=tuple(woes), iv=iv)
