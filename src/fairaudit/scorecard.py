"""WOE scorecard: supervised binning, logistic fit, integer scores, ROC.

Binning is quantile pre-binning plus greedy merging until every bin holds
a minimum share of rows and the WOE sequence is monotone (categorical
columns get one bin per code with rare codes pooled into a rest bin).
It works on a column's count table, the good and bad row count of each
distinct value, which `fit_scorecard` takes from the column's encoding.
The logistic regression is deterministic by construction: zero init,
fixed learning rate, fixed iteration count, full-batch gradient descent.
It runs on the distinct bin rows (rows whose bins agree in every column),
each weighted by how many rows it stands for and how many of them are
bad, which gives the per-row gradient and loss up to float summation
order.

`BinningSpec.assign` is the one value-to-bin mapping: numeric values by
`np.searchsorted` over the edges, categorical codes through a
code-to-group dict.  The fit and the scoring bin each column's distinct
values once and index the result by the rows' codes.  Scoring looks each
column's bins up in that column's row of `Scorecard.points` and adds the
columns in order.

The functions that compute import numpy when called, so that loading the
module (which `revenue` does, for `classify`) loads no numpy.

Score points per column follow
    points = -(coef * woe + intercept / K) * pdo / ln 2 + base_score / K
so a row whose bins all carry zero WOE scores round(base_score) when the
intercept is zero, and the total score rises as predicted default odds
fall.  The fitted target is the bad class (bad=1).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING

from .config import BinningConfig, ScorecardConfig, ScoreScaling
from .record import Record
from .tabular import BAD, GOOD, CATEGORICAL, DERIVED, INTEGER, Dataset

if TYPE_CHECKING:
    import numpy as np

NUMERIC = "numeric"


def _codes(encoding) -> np.ndarray:
    """A column's codes (`tabular.Encoding.codes`) as an array: a uint8 view
    of codes held as bytes, with no copy, or else an int64 copy."""
    import numpy as np
    codes = encoding.codes
    if isinstance(codes, bytes):
        return np.frombuffer(codes, dtype=np.uint8)
    return np.fromiter(codes, dtype=np.int64, count=len(codes))


def group_rows(size: int, keys) -> tuple[np.ndarray, np.ndarray]:
    """Group `size` rows by their joint code over several columns.

    `keys` yields one `(codes, n_codes)` pair per column, with every code
    in `[0, n_codes)` and `size * n_codes` within int64.  The codes are
    folded into one mixed-radix int64 key per row, which orders rows as
    their code tuples order; the key is re-ranked (which keeps that order)
    only when the next fold could pass int64, and once at the end.
    Returns `(first_rows, group)`: `group[i]` is the rank of row i's code
    tuple among the distinct tuples in sorted order, and `first_rows[g]`
    is the first row of group g.
    """
    import numpy as np
    key = np.zeros(size, dtype=np.int64)
    radix = 1  # every key lies in [0, radix)
    for codes, n_codes in keys:
        if radix * n_codes > 2 ** 63:  # the largest key would pass int64
            ranks, key = np.unique(key, return_inverse=True)
            radix = len(ranks)
        key = key * n_codes + codes
        radix *= n_codes
    _, first_rows, group = np.unique(key, return_index=True, return_inverse=True)
    return first_rows, group


class BinningSpec(Record):
    """Binning of one column with the WOE per bin and the column IV.

    Numeric bins are the half-open intervals between consecutive `edges`
    (the first and last bin extend to -inf/+inf, which clamps out-of-range
    values to the boundary bins).  Categorical bins are code groups; the
    optional rest bin also catches codes unseen at fit time.
    """

    column: str
    kind: str  # NUMERIC | CATEGORICAL
    edges: tuple[float, ...] = ()
    groups: tuple[tuple[str, ...], ...] = ()
    rest_bin: int | None = None
    woes: tuple[float, ...] = ()
    iv: float = 0.0

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"unknown binning kind {self.kind!r}")
        if self.kind == NUMERIC:
            if len(self.woes) != len(self.edges) + 1:
                raise ValueError("numeric binning needs len(edges)+1 WOE values")
            if any(a >= b for a, b in zip(self.edges, self.edges[1:])):
                raise ValueError("numeric edges must be strictly increasing")
        else:
            if len(self.woes) != len(self.groups):
                raise ValueError("categorical binning needs one WOE per group")
        if self.iv < 0:
            raise ValueError("information value cannot be negative")

    @property
    def n_bins(self) -> int:
        return len(self.woes)

    def assign(self, values) -> np.ndarray:
        """The bin index of every value, in order."""
        import numpy as np
        if self.kind == NUMERIC:
            return np.searchsorted(self.edges, np.asarray(values, dtype=float), side="right")
        group_of = {code: i for i, group in enumerate(self.groups) for code in group}
        bins = [group_of.get(v, self.rest_bin) for v in values]
        if self.rest_bin is None and None in bins:
            raise ValueError(f"unseen code {values[bins.index(None)]!r} for column "
                             f"{self.column!r} and no rest bin to absorb it")
        return np.array(bins, dtype=np.intp)


class Scorecard(Record):
    binnings: tuple[BinningSpec, ...]
    coefficients: tuple[float, ...]
    intercept: float
    scaling: ScoreScaling = ScoreScaling()
    final_loss: float | None = None

    def __post_init__(self):
        if len(self.coefficients) != len(self.binnings):
            raise ValueError("one coefficient per binned column required")

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(b.column for b in self.binnings)

    @cached_property
    def points(self) -> tuple[tuple[float, ...], ...]:
        """Score points per bin, one row per binned column."""
        k = len(self.binnings)
        factor = self.scaling.pdo / math.log(2)
        return tuple(
            tuple(-(coef * woe + self.intercept / k) * factor + self.scaling.base_score / k
                  for woe in b.woes)
            for b, coef in zip(self.binnings, self.coefficients))

    def score_dataset(self, d: Dataset) -> list[int]:
        """Deterministic integer score of every row."""
        import numpy as np
        columns = [d.column(b.column) for b in self.binnings]
        total = np.zeros(d.size)
        # column by column, in order, like a per-row sum: np.sum's pairwise
        # summation could flip a round()
        for b, points, col in zip(self.binnings, self.points, columns):
            enc = col.encoded
            try:
                value_bins = b.assign(enc.uniques)
            except ValueError:
                # report the first row's unseen value, not the smallest one
                b.assign(col.values)
                raise
            total += np.array(points)[value_bins[_codes(enc)]]
        return [round(t) for t in total.tolist()]


class ScoreMetrics(Record):
    roc: tuple[tuple[float, float], ...]  # (fpr, tpr), monotone in both
    auc: float
    gini: float
    threshold: int


# --- WOE / IV --------------------------------------------------------------

def woe_iv_from_counts(good_counts, bad_counts) -> tuple[list[float], float]:
    """WOE per bin and column IV from good/bad count tables.

    WOE = ln(good share / bad share).  When a bin has a zero cell, 0.5 is
    added to both of its cells (totals stay raw), which keeps pure bins
    finite and leaves proportional bins at exactly zero.
    """
    goods = [float(g) for g in good_counts]
    bads = [float(b) for b in bad_counts]
    if len(goods) != len(bads):
        raise ValueError("good/bad count tables differ in length")
    total_good = sum(goods)
    total_bad = sum(bads)
    if total_good == 0 or total_bad == 0:
        raise ValueError("both outcome classes must be present")
    woes = []
    iv_terms = []
    for g, b in zip(goods, bads):
        if g == 0.0 or b == 0.0:
            g += 0.5
            b += 0.5
        dist_g = g / total_good
        dist_b = b / total_bad
        w = math.log(dist_g / dist_b)
        woes.append(w)
        iv_terms.append((dist_g - dist_b) * w)
    return woes, math.fsum(iv_terms)


def fit_bins(column: str, kind: str, uniques, goods, bads,
             config: BinningConfig = BinningConfig()) -> BinningSpec:
    """Fit the binning of one column from its count table: the sorted
    distinct values `uniques` and the good and bad row count of each."""
    import numpy as np
    goods = np.asarray(goods, dtype=np.int64)
    bads = np.asarray(bads, dtype=np.int64)
    if not len(uniques) == len(goods) == len(bads):
        raise ValueError("distinct values and count tables differ in length")
    if not goods.sum() or not bads.sum():
        raise ValueError(f"column {column!r}: need both outcome classes to fit bins")

    if kind == NUMERIC:
        return _fit_numeric(column, uniques, goods, bads, config)
    return _fit_categorical(column, uniques, goods, bads, config)


def _sum_by_bin(bins, n_bins: int, goods, bads) -> tuple[list[int], list[int]]:
    """Good and bad counts per bin, given the bin of each distinct value."""
    import numpy as np
    return tuple(np.bincount(bins, weights=counts, minlength=n_bins).astype(np.int64).tolist()
                 for counts in (goods, bads))


def _fit_numeric(column, uniques, value_goods, value_bads, config) -> BinningSpec:
    import numpy as np
    floats = np.asarray(uniques, dtype=float)  # sorted, so non-decreasing
    lo = float(floats[0])
    if lo == floats[-1]:  # constant column: single bin, WOE 0, IV 0
        return BinningSpec(column=column, kind=NUMERIC, edges=(), woes=(0.0,), iv=0.0)

    rows = np.repeat(floats, value_goods + value_bads)  # every row's value, sorted
    qs = [i / config.max_prebins for i in range(1, config.max_prebins)]
    edges = sorted({float(e) for e in np.quantile(rows, qs)})
    edges = [e for e in edges if e > lo]  # an edge at the minimum leaves an empty first bin

    min_count = config.min_bin_fraction * len(rows)

    def counts_for(es):
        return _sum_by_bin(np.searchsorted(es, floats, side="right"), len(es) + 1,
                           value_goods, value_bads)

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


def _fit_categorical(column, uniques, goods, bads, config) -> BinningSpec:
    counts = (goods + bads).tolist()
    min_count = config.min_bin_fraction * sum(counts)
    frequent = [c for c, n in zip(uniques, counts) if n >= min_count]
    rare = [c for c, n in zip(uniques, counts) if n < min_count]

    groups = [(c,) for c in frequent]
    rest_bin = None
    if rare:
        groups.append(tuple(rare))
        rest_bin = len(groups) - 1
    if not frequent and rare:  # everything rare: one catch-all bin
        groups = [tuple(rare)]
        rest_bin = 0

    group_index = {code: i for i, g in enumerate(groups) for code in g}
    goods, bads = _sum_by_bin([group_index[c] for c in uniques], len(groups), goods, bads)
    woes, iv = woe_iv_from_counts(goods, bads)
    return BinningSpec(column=column, kind=CATEGORICAL, groups=tuple(groups),
                       rest_bin=rest_bin, woes=tuple(woes), iv=iv)


# --- training ---------------------------------------------------------------

def _sigmoid(z):
    import numpy as np
    return 1.0 / (1.0 + np.exp(-z))


def fit_scorecard(d: Dataset, config: ScorecardConfig = ScorecardConfig()) -> Scorecard:
    """Fit bins and a deterministic logistic scorecard on a labelled dataset."""
    import numpy as np
    if config.columns is None:
        columns = [c.name for c in d.columns
                   if c.name != d.outcome and c.kind != DERIVED]
    else:
        columns = list(config.columns)
    if not columns:
        raise ValueError("no usable columns to fit on")

    outcome = d.column(d.outcome).encoded
    y_bad = _codes(outcome) == outcome.index.get(BAD, -1)
    y_good = ~y_bad
    binnings, row_bins = [], []
    for name in columns:
        col = d.column(name)
        enc = col.encoded
        codes = _codes(enc)
        kind = NUMERIC if col.kind == INTEGER else CATEGORICAL
        n_values = len(enc.uniques)
        b = fit_bins(name, kind, enc.uniques,
                     np.bincount(codes[y_good], minlength=n_values),
                     np.bincount(codes[y_bad], minlength=n_values),
                     config.binning)
        binnings.append(b)
        # each distinct value is binned once and the rows take their value's
        # bin, in the smallest integer type that holds every bin index
        row_bins.append(b.assign(enc.uniques)[codes].astype(np.min_scalar_type(b.n_bins)))

    # One row of WOEs per distinct bin combination, weighted by its row count
    # and bad count: the gradient and loss sums of a per-row fit, grouped.
    first_rows, group = group_rows(d.size, ((rb, b.n_bins) for b, rb in zip(binnings, row_bins)))
    woe_matrix = np.column_stack([np.array(b.woes)[rb[first_rows]]
                                  for b, rb in zip(binnings, row_bins)])
    count = np.bincount(group).astype(float)
    bad = np.bincount(group, weights=y_bad)

    n = d.size
    weights = np.zeros(len(binnings))
    intercept = 0.0
    lr = config.learning_rate
    for _ in range(config.iterations):
        p = _sigmoid(woe_matrix @ weights + intercept)
        err = count * p - bad
        weights = weights - lr * (woe_matrix.T @ err) / n
        intercept = intercept - lr * (float(err.sum()) / n)

    p = np.clip(_sigmoid(woe_matrix @ weights + intercept), 1e-12, 1.0 - 1e-12)
    loss = float(-(bad @ np.log(p) + (count - bad) @ np.log(1.0 - p)) / n)

    return Scorecard(binnings=tuple(binnings),
                     coefficients=tuple(float(w) for w in weights),
                     intercept=float(intercept),
                     scaling=config.scaling,
                     final_loss=loss)


# --- evaluation --------------------------------------------------------------

def classify(scores, threshold: int) -> list[str]:
    """Good iff score >= threshold."""
    return [GOOD if s >= threshold else BAD for s in scores]


def evaluate(scores, labels, threshold: int) -> ScoreMetrics:
    """ROC over all distinct score cutoffs, trapezoidal AUC, Gini = 2*AUC - 1."""
    import numpy as np
    scores = np.asarray(list(scores))
    good = np.array([l == GOOD for l in labels], dtype=bool)
    if len(scores) != len(good):
        raise ValueError("scores and labels differ in length")
    n_good = int(good.sum())
    n_bad = len(good) - n_good
    if n_good == 0 or n_bad == 0:
        raise ValueError("both outcome classes must be present to evaluate")

    # predict good at score >= cutoff: cutoffs from the highest score down
    cutoffs, group = np.unique(scores, return_inverse=True)
    cum_g = np.cumsum(np.bincount(group[good], minlength=len(cutoffs))[::-1])
    cum_b = np.cumsum(np.bincount(group[~good], minlength=len(cutoffs))[::-1])
    roc = [(0.0, 0.0), *zip((cum_b / n_bad).tolist(), (cum_g / n_good).tolist())]

    auc = math.fsum((x1 - x0) * (y1 + y0) / 2.0
                    for (x0, y0), (x1, y1) in zip(roc, roc[1:]))
    return ScoreMetrics(roc=tuple(roc), auc=auc, gini=2.0 * auc - 1.0,
                        threshold=threshold)
