"""Typed tabular data: loaders, sensitive-feature derivation, partitions.

Two loaders build a Dataset: the German Credit loader reads the classic
whitespace-separated, A-coded file (21 fields per line, label 1=good /
2=bad), and a generic CSV loader (header row, inferred integer columns,
outcome mapped onto good/bad) keeps the engine model-agnostic.  Both
decode the whole file first, then split and convert it in blocks of
about a thousand lines, so that only one block's fields are held as
strings at a time; each column of a block goes through one checked
mapping that reports the first value it rejects, as does the derivation
of the built-in sensitive features.  The converted blocks are joined into
whole columns one column at a time.  Datasets are immutable after
load; "mutating" helpers return new Dataset objects sharing column data.
Each column encodes itself once, on first use, as integer codes over its
sorted distinct values.  Partitions and label counts are plain Python
over those codes, so that an audit loads no numpy: `partition` gives
every row its sensitive class, and `label_distribution` counts the rows
of every (subclass, class) cell under every labelling from the distinct
rows of a battery, each with its row count.
"""

from __future__ import annotations

import csv
import functools
import io
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, islice
from operator import itemgetter
from typing import NamedTuple

# re-exported for callers that build distributions from these counts
from .divergence import EmptyClassError, ProbabilityDistribution  # noqa: F401

GOOD = "good"
BAD = "bad"

CATEGORICAL = "categorical"
INTEGER = "integer"
DERIVED = "derived"


class ParseError(ValueError):
    """Malformed input file (bad field count, unknown code, empty file)."""


class Encoding(NamedTuple):
    """A column as integer codes: `codes[i]` is the rank of row i's value
    among the sorted distinct values `uniques`; `index` maps value -> code.

    `codes` is `bytes` when every code fits a byte (at most 256 distinct
    values), which takes an eighth of a tuple's memory and which numpy
    views without a copy, and a tuple otherwise; both give ints."""

    uniques: tuple
    index: dict
    codes: bytes | tuple


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
        uniques = tuple(sorted(set(self.values)))
        index = {v: i for i, v in enumerate(uniques)}
        codes = map(index.__getitem__, self.values)
        return Encoding(uniques, index, bytes(codes) if len(uniques) <= 256 else tuple(codes))


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
    """Every row's sensitive class: `classes[r]` is the index, in
    `feature.classes`, of row r's class.  A declared class that no row
    holds is still compared as empty (flagged with warnings downstream,
    never silently dropped)."""

    feature: SensitiveSpec
    classes: tuple[int, ...]


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


_BLOCK_LINES = 1000  # lines a loader splits and converts at a time


def _text_blocks(text):
    """`text` in pieces of about `_BLOCK_LINES` lines, each cut just after a
    line feed.  No line break spans such a cut (a "\\r\\n" ends at its
    "\\n"), so the pieces' lines, as `str.splitlines` or a csv reader
    finds them, are the whole text's."""
    start = 0
    while start < len(text):
        end = start
        for _ in range(_BLOCK_LINES):
            end = text.find("\n", end) + 1
            if not end:
                end = len(text)
                break
        yield text[start:end]
        start = end


def load_german_credit(path) -> Dataset:
    """Load the UCI-format German Credit file (A-coded, 21 fields/line).

    The file is decoded whole, so that a decode error anywhere is the one
    reported; it is then split and converted in blocks of about
    `_BLOCK_LINES` lines, so that no more than one block's fields are held
    as strings at a time.  Each block's lines are split once and their
    field counts checked, and each of its columns is converted through one
    checked mapping; the converted blocks are joined into whole columns at
    the end.  Every row of a code column shares one string per code.
    When several lines are malformed, the first error in row order is
    reported: on that line, a wrong field count before any field, and
    fields left to right.
    """
    with open(path, encoding="ascii") as fh:
        blocks = _text_blocks(fh.read())  # the text lives as long as `blocks`
    parts = [[] for _ in _FIELDS]  # each column's converted blocks
    first = 0  # the row of the block's first line
    for block in blocks:
        lines = block.splitlines()
        # (row, field, message) of the first failure of each check; field -1
        # is the field count, and only the rows above a bad one are checked
        failures = []
        flat = []
        for row, line in enumerate(lines, start=first):
            fields = line.split()
            if len(fields) != 21:
                problem = f"expected 21 fields, got {len(fields)}" if fields else "blank line"
                failures.append((row, -1, problem))
                break
            flat += fields
        for j, ((_, _, convert, message), part) in enumerate(zip(_FIELDS, parts)):
            values, bad = _convert(flat[j::21], convert)
            if bad is None:
                part.append(values)
            else:
                failures.append((first + bad[0], j, message.format(bad[1])))
        if failures:
            row, _, problem = min(failures)
            raise ParseError(f"line {row + 1}: {problem}")
        first += len(lines)
    if not first:
        raise ParseError(f"{path}: empty file")
    return Dataset(columns=tuple(_joined(name, kind, part)
                                 for (name, kind, _, _), part in zip(_FIELDS, parts)),
                   outcome="outcome")


def _joined(name, kind, part, table=None) -> Column:
    """The column of the converted blocks in `part`, each value mapped
    through `table` if given; empties `part` as it goes."""
    values = chain.from_iterable(part)
    column = Column(name, kind, tuple(values if table is None
                                      else map(table.__getitem__, values)))
    part.clear()
    return column


def load_csv(path, outcome_column: str, good_value: str = GOOD,
             bad_value: str = BAD) -> Dataset:
    """Load a generic labelled CSV (header row, comma separated).

    Column types are inferred: integer if every value parses as int,
    categorical otherwise.  Outcome values are mapped onto good/bad, so
    `good_value` and `bad_value` must differ.  The file is decoded whole
    and its records read in blocks of about `_BLOCK_LINES`; every row of a
    categorical column shares one string per distinct value.  Errors come
    in this order: a decode error, a column named twice in the header, no
    data rows, no outcome column, the first ragged row, the first unknown
    outcome value.  A record the csv module cannot read is reported where
    the reader meets it.
    """
    if good_value == bad_value:
        raise ValueError(f"good_value and bad_value are both {good_value!r}")
    with open(path, newline="", encoding="utf-8") as fh:
        blocks = _text_blocks(fh.read())
    # a whole-text StringIO would hold four bytes a character
    reader = csv.reader(chain.from_iterable(io.StringIO(b, newline="") for b in blocks))
    try:
        return _read_csv(path, reader, outcome_column, good_value, bad_value)
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None


def _read_csv(path, reader, outcome_column, good_value, bad_value) -> Dataset:
    header = next(reader, None)
    if header is None:
        raise ParseError(f"{path}: empty file")
    twice = next((name for i, name in enumerate(header) if name in header[:i]), None)
    if twice is not None:
        raise ParseError(f"line 1: column {twice!r} appears twice in the header")
    rows = list(islice(reader, _BLOCK_LINES))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    if outcome_column not in header:
        raise ParseError(f"{path}: outcome column {outcome_column!r} not in header")

    label = header.index(outcome_column)
    outcomes = {good_value: GOOD, bad_value: BAD}
    distinct = [{} for _ in header]  # each column's distinct values, mapped onto themselves
    parts = [[] for _ in header]  # each column's blocks
    bad_outcome = None  # (row, value) of the first unknown outcome value
    first = 0  # the row of the block's first record
    while rows:
        if set(map(len, rows)) != {len(header)}:
            row, fields = next((i, r) for i, r in enumerate(rows, start=first)
                               if len(r) != len(header))
            raise ParseError(f"line {row + 2}: expected {len(header)} fields, got {len(fields)}")
        for j, (raw, table, part) in enumerate(zip(zip(*rows), distinct, parts)):
            if j != label:
                table.update((v, v) for v in set(raw).difference(table))
                part.append(tuple(map(table.__getitem__, raw)))
            elif bad_outcome is None:
                values, bad = _convert(raw, outcomes.__getitem__)
                if bad is None:
                    part.append(values)
                else:
                    bad_outcome = (first + bad[0], bad[1])
        first += len(rows)
        rows = list(islice(reader, _BLOCK_LINES))
    if bad_outcome is not None:
        raise ParseError(f"line {bad_outcome[0] + 2}: outcome value {bad_outcome[1]!r} is "
                         f"neither {good_value!r} nor {bad_value!r}")

    columns = []
    for j, (name, table, part) in enumerate(zip(header, distinct, parts)):
        try:  # an integer column maps each distinct string onto its int
            ints = None if j == label else {v: int(v) for v in table}
        except ValueError:
            ints = None
        columns.append(_joined(name, CATEGORICAL if ints is None else INTEGER, part, ints))
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


def _check_declared(d: Dataset, feature: SensitiveSpec, context: str = "") -> None:
    """Raise on the first label, in row order, of the feature's column that
    is not one of its classes."""
    column = d.column(feature.column)
    if not set(column.encoded.uniques) <= set(feature.classes):
        label = next(v for v in column.values if v not in feature.classes)
        raise ValueError(f"{context}class label {label!r} outside declared classes "
                         f"of {feature.name!r}")


def sensitive_spec_for(d: Dataset, name: str) -> SensitiveSpec:
    """Resolve a sensitive feature by name: builtin (its column holding only
    its classes) or any categorical column."""
    if name in BUILTIN_SENSITIVE:
        spec = BUILTIN_SENSITIVE[name]
        if not d.has_column(spec.column):
            raise ValueError(f"sensitive column {spec.column!r} of built-in feature "
                             f"{name!r} not in dataset")
        _check_declared(d, spec, f"sensitive column {spec.column!r}: ")
        return spec
    if d.has_column(name):
        if d.column(name).kind == INTEGER:
            raise ValueError(f"sensitive feature {name!r} is an integer column, not categorical")
        return SensitiveSpec(name, name, d.column(name).encoded.uniques)
    raise ValueError(f"unknown sensitive feature {name!r}")


# --- Partitions and distributions ------------------------------------------

def partition(d: Dataset, feature: SensitiveSpec) -> FeaturePartition:
    """Give every row its sensitive class; a label outside the declared
    classes raises, the first in row order."""
    if not d.has_column(feature.column):
        raise ValueError(f"sensitive column {feature.column!r} not in dataset")
    _check_declared(d, feature)
    index = {c: i for i, c in enumerate(feature.classes)}
    return FeaturePartition(feature, tuple(map(index.__getitem__,
                                               d.column(feature.column).values)))


def outcome_levels(d: Dataset, outcome: str) -> tuple[int, ...]:
    """A good/bad column as the levels of one labelling: 1 good, 0 bad."""
    column = d.column(outcome)
    if not set(column.encoded.uniques) <= {GOOD, BAD}:
        raise ValueError(f"outcome column {outcome!r} holds values outside {{good, bad}}")
    return tuple(map({BAD: 0, GOOD: 1}.__getitem__, column.values))


def label_distribution(rows: dict, columns, n_classes: int, labellings: int) -> dict:
    """Count the rows of every (subclass, class) cell under each labelling
    i < `labellings`, where a row is good iff `i < level`.

    `rows` maps each distinct row `(*codes, class, level)` to how many rows
    it stands for, as a `Counter` over the zipped per-row values does;
    `columns` are the positions of the codes that fix a subclass.  Requires
    `0 <= class < n_classes` and `0 <= level <= labellings`.  Returns, for
    every subclass (its codes at `columns`) in sorted order, one list per
    class, `at_least`: `at_least[0]` is the class's rows in the subclass and
    `at_least[i + 1]` its rows good under labelling i, 0 for a class with
    no rows.  The cells are summed over the distinct rows only, then each
    cell's rows per level are summed from the highest level down.
    """
    width = labellings + 1
    pick = itemgetter(*columns, -2, -1)  # (*subclass, class, level)
    cells = {}
    for row, n in rows.items():
        key = pick(row)
        cells[key] = cells.get(key, 0) + n
    per_level = {}  # subclass -> one row count per (class, level)
    for key, n in cells.items():
        subclass = key[:-2]
        counts = per_level.get(subclass)
        if counts is None:
            counts = per_level[subclass] = [[0] * width for _ in range(n_classes)]
        counts[key[-2]][key[-1]] += n
    return {subclass: [list(accumulate(reversed(c)))[::-1] for c in per_level[subclass]]
            for subclass in sorted(per_level)}
