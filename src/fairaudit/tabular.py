"""Typed tabular data: loaders, sensitive-feature derivation, partitions.

Two loaders build a Dataset a column at a time: the German Credit loader
reads the classic whitespace-separated, A-coded file (21 fields per line,
label 1=good / 2=bad), and a generic CSV loader (header row, inferred
integer columns, outcome mapped onto good/bad) keeps the engine
model-agnostic.  Both, and the derivation of the built-in sensitive
features, convert a whole column through one checked mapping that
reports the first value it rejects.  Datasets are immutable after
load; "mutating" helpers return new Dataset objects sharing column data.
Each column encodes itself once, on first use, as integer codes over its
sorted distinct values; partitions and label counts are numpy operations
over those codes.
"""

from __future__ import annotations

import csv
import functools
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .divergence import EmptyClassError, ProbabilityDistribution

GOOD = "good"
BAD = "bad"

CATEGORICAL = "categorical"
INTEGER = "integer"
DERIVED = "derived"


class ParseError(ValueError):
    """Malformed input file (bad field count, unknown code, empty file)."""


class Encoding(NamedTuple):
    """A column as integer codes: `codes[i]` is the rank of row i's value
    among the sorted distinct values `uniques`; `index` maps value -> code."""

    uniques: tuple
    index: dict
    codes: np.ndarray


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # CATEGORICAL | INTEGER | DERIVED
    values: tuple

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, INTEGER, DERIVED):
            raise ValueError(f"unknown column kind {self.kind!r}")

    @functools.cached_property
    def encoded(self) -> Encoding:
        # sorted(set()) rather than np.unique: a numpy string array drops
        # trailing NULs and would merge distinct values.
        uniques = tuple(sorted(set(self.values)))
        index = {v: i for i, v in enumerate(uniques)}
        codes = np.fromiter(map(index.__getitem__, self.values), dtype=np.int64,
                            count=len(self.values))
        return Encoding(uniques, index, codes)


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


@dataclass(frozen=True)
class Dataset:
    """An immutable labelled table.

    Every row has a value for every column, the outcome column holds
    good/bad labels only, and the table is non-empty.
    """

    columns: tuple[Column, ...]
    outcome: str
    _by_name: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.columns:
            raise ValueError("dataset has no columns")
        sizes = {len(c.values) for c in self.columns}
        if len(sizes) != 1:
            raise ValueError("columns have differing lengths")
        if next(iter(sizes)) == 0:
            raise ValueError("dataset has no rows")
        object.__setattr__(self, "_by_name", {c.name: c for c in self.columns})
        if len(self._by_name) != len(self.columns):
            raise ValueError("duplicate column names")
        if self.outcome not in self._by_name:
            raise ValueError(f"outcome column {self.outcome!r} not present")
        bad_labels = set(self.column(self.outcome).values) - {GOOD, BAD}
        if bad_labels:
            raise ValueError(f"outcome values outside {{good, bad}}: {sorted(bad_labels)}")

    @property
    def size(self) -> int:
        return len(self.columns[0].values)

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown column {name!r}") from None

    def with_columns(self, new: list[Column]) -> "Dataset":
        """Return a dataset with the given columns added or replaced."""
        by_name = {c.name: c for c in new}
        cols = [by_name.pop(c.name, c) for c in self.columns]
        cols.extend(by_name[c.name] for c in new if c.name in by_name)
        return replace(self, columns=tuple(cols))


@dataclass(frozen=True)
class SensitiveSpec:
    """A sensitive feature: the column holding its class labels and the
    ordered, pairwise-distinct class labels it can take."""

    name: str
    column: str
    classes: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("sensitive classes must be pairwise distinct")
        if len(self.classes) < 2:
            raise ValueError("a sensitive feature needs at least two classes")


@dataclass(frozen=True)
class FeaturePartition:
    """The cells induced by a sensitive feature under optional conditions.

    Cells are pairwise disjoint and their union is exactly the set of rows
    matching `conditions`.  Empty cells are kept (they are flagged with
    warnings downstream, never silently dropped).
    """

    feature: SensitiveSpec
    cells: dict  # class label -> tuple of row indices
    conditions: tuple[tuple[str, str], ...]

    def non_empty(self) -> list[str]:
        return [c for c in self.feature.classes if self.cells[c]]

    def empty(self) -> list[str]:
        return [c for c in self.feature.classes if not self.cells[c]]

    @property
    def covered(self) -> int:
        return sum(len(rows) for rows in self.cells.values())


# --- German Credit loader -------------------------------------------------

_CODE_DOMAINS = {
    "Attribute1": {f"A1{i}" for i in range(1, 5)},
    "Attribute3": {f"A3{i}" for i in range(0, 5)},
    "Attribute4": {f"A4{i}" for i in range(0, 11)},
    "Attribute6": {f"A6{i}" for i in range(1, 6)},
    "Attribute7": {f"A7{i}" for i in range(1, 6)},
    "Attribute9": {f"A9{i}" for i in range(1, 6)},
    "Attribute10": {f"A10{i}" for i in range(1, 4)},
    "Attribute12": {f"A12{i}" for i in range(1, 5)},
    "Attribute14": {f"A14{i}" for i in range(1, 4)},
    "Attribute15": {f"A15{i}" for i in range(1, 4)},
    "Attribute17": {f"A17{i}" for i in range(1, 5)},
    "Attribute19": {f"A19{i}" for i in range(1, 3)},
    "Attribute20": {f"A20{i}" for i in range(1, 3)},
}
_INTEGER_ATTRS = {"Attribute2", "Attribute5", "Attribute8", "Attribute11",
                  "Attribute13", "Attribute16", "Attribute18"}
_ATTRS = tuple(f"Attribute{i}" for i in range(1, 21))
# one (name, kind, convert, message) per field of a line; a code column maps
# each code onto itself, so that every row holding it shares one string
_FIELDS = tuple(
    (attr, INTEGER, int, f"non-integer value {{!r}} for {attr}") if attr in _INTEGER_ATTRS
    else (attr, CATEGORICAL, {code: code for code in _CODE_DOMAINS[attr]}.__getitem__,
          f"unknown code {{!r}} for {attr}")
    for attr in _ATTRS
) + (("outcome", CATEGORICAL, {"1": GOOD, "2": BAD}.__getitem__,
      "label must be 1 or 2, got {!r}"),)


def _convert(raw, convert) -> tuple:
    """`(tuple(map(convert, raw)), None)`, or `(None, (row, value))` for the
    first value of `raw` that `convert` rejects with a KeyError or ValueError."""
    try:
        return tuple(map(convert, raw)), None
    except (KeyError, ValueError):
        pass
    for row, value in enumerate(raw):
        try:
            convert(value)
        except (KeyError, ValueError):
            return None, (row, value)


def load_german_credit(path) -> Dataset:
    """Load the UCI-format German Credit file (A-coded, 21 fields/line).

    Each line is split once and its field count checked; the fields go
    into one flat list, from which the columns are checked and built one
    at a time.  Every row of a code column shares one string per code.
    When several lines are malformed, the first error in row order is
    reported: on that line, a wrong field count before any field, and
    fields left to right.
    """
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")

    # (row, field, message) of the first failure of each check; field -1 is
    # the field count, and only the rows above a bad one are checked further
    failures = []
    flat = []
    for row, line in enumerate(lines):
        fields = line.split()
        if len(fields) != 21:
            problem = f"expected 21 fields, got {len(fields)}" if fields else "blank line"
            failures.append((row, -1, problem))
            break
        flat += fields
    del lines

    columns = []
    for j, (name, kind, convert, message) in enumerate(_FIELDS):
        values, bad = _convert(flat[j::21], convert)
        if bad is None:
            columns.append(Column(name, kind, values))
        else:
            failures.append((bad[0], j, message.format(bad[1])))
    if failures:
        row, _, problem = min(failures)
        raise ParseError(f"line {row + 1}: {problem}")
    return Dataset(columns=tuple(columns), outcome="outcome")


def load_csv(path, outcome_column: str, good_value: str = GOOD,
             bad_value: str = BAD) -> Dataset:
    """Load a generic labelled CSV (header row, comma separated).

    Column types are inferred: integer if every value parses as int,
    categorical otherwise.  Outcome values are mapped onto good/bad, so
    `good_value` and `bad_value` must differ.
    """
    if good_value == bad_value:
        raise ValueError(f"good_value and bad_value are both {good_value!r}")
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

    outcomes = {good_value: GOOD, bad_value: BAD}
    columns = []
    for name, raw in zip(header, zip(*rows)):
        if name == outcome_column:
            values, bad = _convert(raw, outcomes.__getitem__)
            if bad is not None:
                raise ParseError(f"line {bad[0] + 2}: outcome value {bad[1]!r} is neither "
                                 f"{good_value!r} nor {bad_value!r}")
            columns.append(Column(name, CATEGORICAL, values))
            continue
        values, bad = _convert(raw, int)
        columns.append(Column(name, INTEGER, values) if bad is None
                       else Column(name, CATEGORICAL, raw))
    return Dataset(columns=tuple(columns), outcome=outcome_column)


# --- Sensitive features ----------------------------------------------------

GENDER = SensitiveSpec("gender", "gender", ("male", "female"))
AGE_GROUP = SensitiveSpec("age_group", "age_group", ("[0-27]", "[27-37]", "[37-47]", "[>47]"))
FOREIGN = SensitiveSpec("foreign", "foreign", ("foreign", "domestic"))

BUILTIN_SENSITIVE = {s.name: s for s in (GENDER, AGE_GROUP, FOREIGN)}


def age_bracket(age: int) -> str:
    # Shared printed endpoints are lower-inclusive (27 -> [27-37], 37 -> [37-47]);
    # [>47] starts at 48, so [37-47] covers ages 37..47.
    return AGE_GROUP.classes[bisect_right((27, 37, 48), age)]


# (spec, source column, what its values are, source value -> class label)
_DERIVATIONS = (
    (GENDER, "Attribute9", "personal-status code",
     {"A91": "male", "A92": "female", "A93": "male", "A94": "male", "A95": "female"}.__getitem__),
    (AGE_GROUP, "Attribute13", "age", lambda age: age_bracket(int(age))),
    (FOREIGN, "Attribute20", "foreign-worker code",
     {"A201": "foreign", "A202": "domestic"}.__getitem__),
)


def derive_sensitive_features(d: Dataset) -> Dataset:
    """Add gender / age_group / foreign columns derived from the raw attributes.

    Each source value is mapped once; an unmappable one raises, the first
    in row order of the first source column holding one.  Idempotent:
    re-deriving replaces the columns with identical values.
    """
    for _, src, _, _ in _DERIVATIONS:
        if not d.has_column(src):
            raise ValueError(f"cannot derive sensitive features: missing column {src!r}")
    columns = []
    for spec, src, what, derive in _DERIVATIONS:
        values = d.column(src).values
        distinct = tuple(dict.fromkeys(values))  # in order of first occurrence
        classes, bad = _convert(distinct, derive)
        if bad is not None:
            raise ValueError(f"unmappable {what} {bad[1]!r}")
        table = dict(zip(distinct, classes))
        columns.append(Column(spec.column, DERIVED, tuple(map(table.__getitem__, values))))
    return d.with_columns(columns)


def sensitive_spec_for(d: Dataset, name: str) -> SensitiveSpec:
    """Resolve a sensitive feature by name: builtin or any categorical column."""
    if name in BUILTIN_SENSITIVE:
        spec = BUILTIN_SENSITIVE[name]
        if not d.has_column(spec.column):
            raise ValueError(f"sensitive column {spec.column!r} of built-in feature "
                             f"{name!r} not in dataset")
        return spec
    if d.has_column(name):
        if d.column(name).kind == INTEGER:
            raise ValueError(f"sensitive feature {name!r} is an integer column, not categorical")
        return SensitiveSpec(name, name, d.column(name).encoded.uniques)
    raise ValueError(f"unknown sensitive feature {name!r}")


# --- Partitions and distributions ------------------------------------------

def partition(d: Dataset, feature: SensitiveSpec,
              conditions=()) -> FeaturePartition:
    """Partition the rows matching `conditions` by sensitive class."""
    if not d.has_column(feature.column):
        raise ValueError(f"sensitive column {feature.column!r} not in dataset")
    conditions = tuple((str(c), v) for c, v in conditions)
    mask = np.ones(d.size, dtype=bool)
    for col, value in conditions:
        enc = d.column(col).encoded  # raises on unknown column
        if value not in enc.index:
            raise ValueError(f"value {value!r} never occurs in column {col!r}")
        mask &= enc.codes == enc.index[value]

    labels = d.column(feature.column).encoded
    rows = np.flatnonzero(mask)
    codes = labels.codes[rows]
    declared = np.zeros(len(labels.uniques), dtype=bool)
    declared[[labels.index[c] for c in feature.classes if c in labels.index]] = True
    undeclared = ~declared[codes]
    if undeclared.any():
        label = labels.uniques[codes[undeclared.argmax()]]
        raise ValueError(f"class label {label!r} outside declared classes "
                         f"of {feature.name!r}")
    cells = {c: tuple(rows[codes == labels.index[c]].tolist()) if c in labels.index else ()
             for c in feature.classes}
    return FeaturePartition(feature=feature, cells=cells, conditions=conditions)


def label_distribution(d: Dataset, rows, outcome: str) -> ProbabilityDistribution:
    """Empirical outcome distribution over a row-index set.

    The support is the outcome domain of the full dataset, so distributions
    of different cells are always comparable.  An empty row set raises
    EmptyClassError (a signal for the caller, not a crash).
    """
    rows = tuple(rows)
    if not rows:
        raise EmptyClassError(f"empty row set for outcome {outcome!r}")
    enc = d.column(outcome).encoded
    picked = enc.codes[np.fromiter(rows, dtype=np.intp, count=len(rows))]
    counts = np.bincount(picked, minlength=len(enc.uniques))
    return ProbabilityDistribution.from_counts(enc.uniques, counts.tolist())
