"""Machine-readable reports: JSON documents validated against the shipped
schemas, plus the CSV outputs.

Every JSON output is `dumps(to_doc(result))` of its result record.
Numeric fields are emitted at full precision together with a rounded
display string (5 decimals for rates and risks, 2 for money).  All
serialization is deterministic: sorted keys, fixed indentation, no
wall-clock anywhere, so identical runs produce byte-identical files.
`dumps` writes the bytes json writes with `indent=2` and `sort_keys=True`.

Each shipped schema is compiled once into a predicate made of nested
closures that decides exactly as `jsonschema.Draft202012Validator.is_valid`
does for the keywords the schemas use; the compiler rejects any other
keyword.  A document the predicate passes is valid.  Only a failing
document imports jsonschema, which then writes the error message.
"""

from __future__ import annotations

import csv
import functools
import json
import numbers
from importlib import resources
from json.encoder import encode_basestring_ascii as _string_text

from .record import Record
from .risk import HazardValue, RiskReport

SCHEMA_NAMES = ("test_report", "risk_report", "hazard_comparison", "sweep")
SCORECARD_FORMAT_VERSION = 1


def load_schema(name: str) -> dict:
    if name not in SCHEMA_NAMES:
        raise ValueError(f"unknown schema {name!r}")
    path = resources.files("fairaudit.schemas").joinpath(f"{name}.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


# --- schema predicates -------------------------------------------------------

# The exact types int and float come first: the `numbers.Number` ABC check
# costs several times more, and they are nearly all a report holds.
def _is_number(x) -> bool:
    return (type(x) is float or type(x) is int
            or isinstance(x, numbers.Number) and not isinstance(x, bool))


_TYPE_CHECKS = {  # the Draft 2020-12 type checker
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: (type(x) is int
                          or isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
    "null": lambda x: x is None,
    "number": _is_number,
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}
_KEYWORDS = frozenset({"type", "enum", "required", "properties", "additionalProperties",
                       "items", "minItems", "minimum", "maximum", "oneOf", "$ref"})
_ROOT_METADATA = frozenset({"$schema", "$id", "title", "$defs"})
_METADATA = frozenset({"title"})
_REF_PREFIX = "#/$defs/"


def compile_schema(schema: dict):
    """Predicate equal to `Draft202012Validator(schema).is_valid`.

    Raises NotImplementedError for any keyword, `$ref` or `enum` outside the
    subset the shipped schemas use, so an edit to a schema cannot go
    unchecked.
    """
    defs = dict.fromkeys(schema.get("$defs", {}))
    for name in defs:
        defs[name] = _compile(schema["$defs"][name], defs)
    return _compile(schema, defs, _ROOT_METADATA)


def _compile(schema, defs, metadata=_METADATA):
    if not isinstance(schema, dict):
        raise NotImplementedError(f"subschema {schema!r} is not an object")
    unknown = sorted(set(schema) - metadata - _KEYWORDS)
    if unknown:
        raise NotImplementedError(f"unsupported keyword {unknown[0]!r}")
    checks = []
    if "type" in schema:
        names = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        for t in names:
            if t not in _TYPE_CHECKS:
                raise NotImplementedError(f"unknown type {t!r}")
        checks.append(functools.reduce(lambda a, b: lambda x: a(x) or b(x),
                                       [_TYPE_CHECKS[t] for t in names]))
    if "enum" in schema:
        if not all(isinstance(v, str) for v in schema["enum"]):
            raise NotImplementedError(f"enum {schema['enum']!r} is not all strings")
        allowed = frozenset(schema["enum"])
        checks.append(lambda x: isinstance(x, str) and x in allowed)
    if not schema.keys().isdisjoint({"required", "properties", "additionalProperties"}):
        checks.append(_object_check(schema, defs))
    if "items" in schema:
        item = _compile(schema["items"], defs)
        checks.append(lambda x: not isinstance(x, list) or all(map(item, x)))
    if "minItems" in schema:
        least = schema["minItems"]
        checks.append(lambda x: not isinstance(x, list) or len(x) >= least)
    # `not x < m` rather than `x >= m`: NaN passes, as in jsonschema
    if "minimum" in schema:
        low = schema["minimum"]
        checks.append(lambda x: not _is_number(x) or not x < low)
    if "maximum" in schema:
        high = schema["maximum"]
        checks.append(lambda x: not _is_number(x) or not x > high)
    if "oneOf" in schema:
        branches = [_compile(s, defs) for s in schema["oneOf"]]
        checks.append(lambda x: sum(1 for b in branches if b(x)) == 1)
    if "$ref" in schema:
        ref = schema["$ref"]
        name = ref[len(_REF_PREFIX):]
        if not ref.startswith(_REF_PREFIX) or name not in defs:
            raise NotImplementedError(f"$ref {ref!r} is not a local $defs entry")
        checks.append(lambda x: defs[name](x))  # the entry may not be compiled yet
    if not checks:
        return lambda x: True
    return functools.reduce(lambda a, b: lambda x: a(x) and b(x), checks)


def _object_check(schema, defs):
    required = schema.get("required", ())
    properties = [(key, _compile(sub, defs))
                  for key, sub in schema.get("properties", {}).items()]
    extra = schema.get("additionalProperties", True)
    if not isinstance(extra, bool):
        raise NotImplementedError("additionalProperties must be true or false")
    known = None if extra else frozenset(key for key, _ in properties)

    def check(x):
        if not isinstance(x, dict):
            return True
        if known is not None and not x.keys() <= known:
            return False
        for key in required:
            if key not in x:
                return False
        for key, valid in properties:
            if key in x and not valid(x[key]):
                return False
        return True
    return check


@functools.cache
def _predicate(schema_name: str):
    return compile_schema(load_schema(schema_name))


@functools.cache
def _validator(schema_name: str):
    import jsonschema
    schema = load_schema(schema_name)
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def validation_error() -> type:
    """`jsonschema.ValidationError`, imported on demand.  As the class of an
    `except` clause it is looked up only once an exception reaches that
    clause, so a run whose documents are valid never imports jsonschema."""
    import jsonschema
    return jsonschema.ValidationError


def validate(doc: dict, schema_name: str):
    """Raise the error `jsonschema.validate` would, checking the schema once."""
    if _predicate(schema_name)(doc):
        return
    import jsonschema
    error = jsonschema.exceptions.best_match(_validator(schema_name).iter_errors(doc))
    if error is not None:
        raise error


# --- JSON writer -------------------------------------------------------------

_INFINITY = float("inf")


def _float_text(x) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


_SCALAR_TEXT = {
    str: _string_text,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_scalar_writer = _SCALAR_TEXT.get


def _text(value, newline: str) -> str:
    """JSON text of `value`; `newline` is a newline plus the indentation of
    the line the value starts on.  Exact types are looked up first; any
    other value is decided in the order json's encoder tests it, so
    subclasses of str, int and float are written as json writes them."""
    kind = type(value)
    scalar = _scalar_writer(kind)
    if scalar is not None:
        return scalar(value)
    if kind is dict:
        return _object_text(value, newline)
    if kind is list or kind is tuple:
        return _array_text(value, newline)
    if isinstance(value, str):
        return _string_text(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (list, tuple)):
        return _array_text(value, newline)
    if isinstance(value, dict):
        return _object_text(value, newline)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# The two container writers look an item's writer up themselves and call
# `_text` only for the rest: most items are scalars, and the extra call
# would cost a fifth of the writing time.

def _object_text(obj, newline: str) -> str:
    if not obj:
        return "{}"
    inner = newline + "  "
    items = []
    for key in sorted(obj):
        value = obj[key]
        scalar = _scalar_writer(type(value))
        # a key that is not a str raises TypeError from `_string_text`
        items.append(_string_text(key) + ": "
                     + (scalar(value) if scalar is not None else _text(value, inner)))
    return "{" + inner + ("," + inner).join(items) + newline + "}"


def _array_text(array, newline: str) -> str:
    if not array:
        return "[]"
    inner = newline + "  "
    items = []
    for value in array:
        scalar = _scalar_writer(type(value))
        items.append(scalar(value) if scalar is not None else _text(value, inner))
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def dumps(doc: dict) -> str:
    """The text json writes for `doc` with `indent=2` and `sort_keys=True`,
    plus a final newline; every dict key must be a str.  json has no C
    encoder for indented output; this writer builds the same text with
    fewer calls."""
    return _text(doc, "\n") + "\n"


def write_json(path, doc: dict, schema_name: str | None = None):
    """Validate and serialize `doc`, then write it: a document that fails
    either leaves `path` as it was."""
    if schema_name is not None:
        validate(doc, schema_name)
    text = dumps(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# --- report documents --------------------------------------------------------

# Fields that also get a rounded `<field>_display` string, with its decimals.
_DISPLAY_PLACES = {name: 5 for name in (
    "value", "epsilon", "overall", "difference", "overall_difference", "auc", "gini",
    "bad_rate", "risk_difference", "model_risk", "data_risk")}
_DISPLAY_PLACES.update(provisions=2, profit=2)

_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _plan(cls) -> tuple[tuple[str, str, int | None], ...] | None:
    """(field name, display key, display places) of each field of a
    record class, else None."""
    if not issubclass(cls, Record):
        return None
    return tuple((name, name + "_display", _DISPLAY_PLACES.get(name))
                 for name in cls._fields)


def to_doc(obj):
    """The JSON document of a result: a record becomes an object of its
    fields, a tuple or list a list, and `conditions` a list of
    `{column, value}` objects.  Each field in `_DISPLAY_PLACES` also gets
    its `<field>_display` string, or null when the value is None."""
    if type(obj) in _SCALARS:
        return obj
    if isinstance(obj, (tuple, list)):
        # a result's tuple holds items of one type, so the first one tells
        return list(obj) if not obj or type(obj[0]) in _SCALARS else [to_doc(x) for x in obj]
    plan = _plan(type(obj))
    if plan is None:
        return obj
    doc = {}
    for name, display, places in plan:
        value = getattr(obj, name)
        if type(value) in _SCALARS:
            doc[name] = value
        elif name == "conditions":
            doc[name] = [{"column": c, "value": v} for c, v in value]
        else:
            doc[name] = to_doc(value)
        if places is not None:
            doc[display] = None if value is None else f"{value:.{places}f}"
    return doc


def scorecard_doc(card) -> dict:
    """`scorecard.json`: the fields of a `scorecard.Scorecard`, its format
    version and the score points of every bin."""
    doc = to_doc(card)
    for binning, points in zip(doc["binnings"], card.points):
        binning["points"] = list(points)
    return {**doc, "format_version": SCORECARD_FORMAT_VERSION}


def risk_report_from_dict(doc: dict) -> tuple[RiskReport, str]:
    validate(doc, "risk_report")
    hazards = tuple(HazardValue(test=h["test"], mode=h["mode"], value=h["value"],
                                line_contributions=tuple(h["line_contributions"]))
                    for h in doc["hazards"])
    return RiskReport(hazards=hazards, overall=doc["overall"]), doc["target"]


# --- CSV ---------------------------------------------------------------------

def write_scores_csv(path, scores, classifications):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row_id", "score", "classification"])
        for i, (s, c) in enumerate(zip(scores, classifications)):
            writer.writerow([i, s, c])


def read_scores_csv(path) -> list[int]:
    """Integer scores of a scores CSV whose row ids run 0..n-1 in order."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            return _read_scores(path, reader)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_scores(path, reader) -> list[int]:
    header = next(reader, None)
    if header is None or header[:2] != ["row_id", "score"]:
        raise ValueError(f"{path}: not a scores CSV (expected row_id,score,... header)")
    scores = []
    for row_id, row in enumerate(reader):
        if len(row) < 2 or row[0] != str(row_id):
            raise ValueError(f"{path}: line {reader.line_num}: expected row_id {row_id} "
                             f"and a score, got {row}")
        try:
            scores.append(int(row[1]))
        except ValueError:
            raise ValueError(f"{path}: line {reader.line_num}: score {row[1]!r} "
                             "is not an integer") from None
    return scores


def write_sweep_csv(path, rows):
    """One line per `revenue.SweepRow`."""
    from .revenue import SweepRow
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SweepRow.FIELDS)
        for r in rows:
            writer.writerow([repr(getattr(r, f)) if isinstance(getattr(r, f), float)
                             else getattr(r, f) for f in SweepRow.FIELDS])
