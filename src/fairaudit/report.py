"""Machine-readable reports: JSON documents validated against the shipped
schemas, plus the CSV outputs.

Numeric fields are emitted at full precision together with a rounded
display string (5 decimals for rates and risks, 2 for money).  All
serialization is deterministic: sorted keys, fixed indentation, no
wall-clock anywhere, so identical runs produce byte-identical files.

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

from .detection import TestLine, TestReport
from .revenue import SweepRow
from .risk import HazardComparison, HazardValue, RiskReport

SCHEMA_NAMES = ("test_report", "risk_report", "hazard_comparison", "sweep")


def _display(x: float, places: int = 5) -> str:
    return f"{x:.{places}f}"


def load_schema(name: str) -> dict:
    if name not in SCHEMA_NAMES:
        raise ValueError(f"unknown schema {name!r}")
    path = resources.files("fairaudit.schemas").joinpath(f"{name}.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


# --- schema predicates -------------------------------------------------------

def _is_number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


_TYPE_CHECKS = {  # the Draft 2020-12 type checker
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
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


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path, doc: dict, schema_name: str | None = None):
    if schema_name is not None:
        validate(doc, schema_name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


# --- report dictionaries -----------------------------------------------------

def line_to_dict(line: TestLine) -> dict:
    div = None
    if line.divergence is not None:
        div = {"kind": line.divergence.kind,
               "value": line.divergence.value,
               "value_display": _display(line.divergence.value)}
    return {
        "conditions": [{"column": c, "value": v} for c, v in line.conditions],
        "compared": list(line.compared),
        "union_count": line.union_count,
        "divergence": div,
        "epsilon": line.epsilon,
        "epsilon_display": None if line.epsilon is None else _display(line.epsilon),
        "violated": line.violated,
        "warnings": list(line.warnings),
    }


def test_report_to_dict(report: TestReport) -> dict:
    return {
        "sensitive_feature": report.sensitive_feature,
        "mode": report.mode,
        "divergence_kind": report.divergence_kind,
        "aggregation_mode": report.aggregation_mode,
        "dataset_size": report.dataset_size,
        "conditioning_columns": list(report.conditioning_columns),
        "lines": [line_to_dict(line) for line in report.lines],
        "warnings": list(report.warnings),
    }


def hazard_to_dict(h: HazardValue) -> dict:
    return {
        "test": h.test,
        "mode": h.mode,
        "value": h.value,
        "value_display": _display(h.value),
        "line_contributions": list(h.line_contributions),
    }


def risk_report_to_dict(report: RiskReport, target: str) -> dict:
    return {
        "target": target,
        "hazards": [hazard_to_dict(h) for h in report.hazards],
        "overall": report.overall,
        "overall_display": _display(report.overall),
    }


def risk_report_from_dict(doc: dict) -> tuple[RiskReport, str]:
    validate(doc, "risk_report")
    hazards = tuple(HazardValue(test=h["test"], mode=h["mode"], value=h["value"],
                                line_contributions=tuple(h["line_contributions"]))
                    for h in doc["hazards"])
    return RiskReport(hazards=hazards, overall=doc["overall"]), doc["target"]


def comparison_to_dict(cmp: HazardComparison) -> dict:
    return {
        "entries": [{
            "feature": e.feature,
            "mode": e.mode,
            "data_hazard": e.data_hazard,
            "model_hazard": e.model_hazard,
            "difference": e.difference,
            "difference_display": _display(e.difference),
        } for e in cmp.entries],
        "data_overall": cmp.data_overall,
        "model_overall": cmp.model_overall,
        "overall_difference": cmp.overall_difference,
        "overall_difference_display": _display(cmp.overall_difference),
    }


def sweep_to_dict(rows: list[SweepRow], provision_factor: float,
                  interest_rate: float) -> dict:
    out = []
    for r in rows:
        out.append({
            "threshold": r.threshold,
            "accepted_count": r.accepted_count,
            "bad_rate": r.bad_rate,
            "bad_rate_display": _display(r.bad_rate),
            "provisions": r.provisions,
            "provisions_display": _display(r.provisions, 2),
            "profit": r.profit,
            "profit_display": _display(r.profit, 2),
            "model_risk": r.model_risk,
            "model_risk_display": _display(r.model_risk),
            "data_risk": r.data_risk,
            "data_risk_display": _display(r.data_risk),
            "risk_difference": r.risk_difference,
            "risk_difference_display": _display(r.risk_difference),
            "warnings": list(r.warnings),
        })
    return {"provision_factor": provision_factor,
            "interest_rate": interest_rate,
            "rows": out}


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
        header = next(reader, None)
        if header is None or header[:2] != ["row_id", "score"]:
            raise ValueError(f"{path}: not a scores CSV (expected row_id,score,... header)")
        scores = []
        for row_id, row in enumerate(reader):
            where = f"{path}: line {reader.line_num}"
            if len(row) < 2 or row[0] != str(row_id):
                raise ValueError(f"{where}: expected row_id {row_id} and a score, got {row}")
            try:
                scores.append(int(row[1]))
            except ValueError:
                raise ValueError(f"{where}: score {row[1]!r} is not an integer") from None
    return scores


def write_sweep_csv(path, rows: list[SweepRow]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SweepRow.FIELDS)
        for r in rows:
            writer.writerow([repr(getattr(r, f)) if isinstance(getattr(r, f), float)
                             else getattr(r, f) for f in SweepRow.FIELDS])
