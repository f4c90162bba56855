"""The compiled schema predicates decide exactly as jsonschema does.

`report.validate` trusts `report.compile_schema` to pass only what
`Draft202012Validator.is_valid` passes, and to reject all it rejects, so
jsonschema stays the oracle here: on the real reports of the default German
run, mutated or replaced by random JSON values, and on small synthetic schemas
whose `oneOf` branches overlap.
"""

import copy
import functools
import json
import math
import os

import jsonschema
import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairaudit import report

REAL_DOCS = {
    "test_report": "test_report_gender_data.json",
    "risk_report": "risk_report_model.json",
    "hazard_comparison": "hazard_comparison.json",
    "sweep": "sweep.json",
}

# keys and enum strings of the shipped schemas, so random objects meet them
KEYS = sorted({key for name in report.SCHEMA_NAMES
               for key in json.dumps(report.load_schema(name)).split('"')
               if key.isidentifier()})


class IntSub(int):
    pass


class FloatSub(float):
    pass


# numbers of other types than int and float take the predicates' slow path
OTHER_NUMBERS = [np.float64(1.5), np.float64(2.0), np.float64(-1.0), np.float64(math.nan),
                 np.int64(3), np.bool_(True), IntSub(2), IntSub(-1), FloatSub(0.5),
                 FloatSub(3.0), FloatSub(math.inf)]
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0, 1, -1, 1.0, 1.5, 2**70, -2**70,
           True, False, None, "", "group", "model", "js", "max", "class_vs_class",
           *OTHER_NUMBERS]
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.text(max_size=4), st.sampled_from(KEYS), st.sampled_from(SPECIAL))
VALUES = st.recursive(SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=3).map(tuple),
    st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), kids, max_size=4)),
    max_leaves=12)


@functools.cache
def predicate(name):
    return report.compile_schema(report.load_schema(name))


@functools.cache
def oracle(name):
    return jsonschema.Draft202012Validator(report.load_schema(name))


def assert_agrees(name, doc):
    assert predicate(name)(doc) == oracle(name).is_valid(doc), doc


@pytest.fixture(scope="module")
def real_docs(outputs):
    docs = {}
    for name, file in REAL_DOCS.items():
        with open(os.path.join(outputs, file), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    return docs


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, (*path, i))


def _get(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@st.composite
def mutated(draw, doc):
    """`doc` with one to three values replaced, deleted, added or turned into tuples."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        target = _get(doc, path)
        kind = draw(st.sampled_from(["replace", "delete", "add", "tuple"]))
        if kind == "delete" and path:
            del _get(doc, path[:-1])[path[-1]]
        elif kind == "add" and isinstance(target, dict):
            target[draw(st.sampled_from(KEYS) | st.text(max_size=4))] = draw(VALUES)
        elif kind == "add" and isinstance(target, list):
            target.append(draw(VALUES))
        else:
            value = tuple(target) if kind == "tuple" and isinstance(target, list) else draw(VALUES)
            if not path:
                return value
            _get(doc, path[:-1])[path[-1]] = value
    return doc


@pytest.mark.parametrize("name", report.SCHEMA_NAMES)
def test_real_report_is_valid(name, real_docs):
    assert predicate(name)(real_docs[name])
    assert oracle(name).is_valid(real_docs[name])


# one hypothesis test per kind of document, drawing the schema, keeps tier-1 short
@given(name=st.sampled_from(report.SCHEMA_NAMES), data=st.data())
def test_mutated_reports(name, data, real_docs):
    doc = data.draw(mutated(real_docs[name]))
    assert_agrees(name, doc)
    want = jsonschema.exceptions.best_match(oracle(name).iter_errors(doc))
    if want is None:
        report.validate(doc, name)
    else:
        with pytest.raises(jsonschema.ValidationError) as got:
            report.validate(doc, name)
        assert (got.value.message, got.value.path) == (want.message, want.path)


@given(name=st.sampled_from(report.SCHEMA_NAMES),
       doc=VALUES | st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=6))
def test_random_documents(name, doc):
    assert_agrees(name, doc)


def _first_divergence(doc):
    return next(line for line in doc["lines"] if line["divergence"] is not None)


def _first_condition(doc):
    return next(line for line in doc["lines"] if line["conditions"])["conditions"][0]


def _set(path, value):
    def edit(doc):
        _get(doc, path[:-1])[path[-1]] = value
    return edit


def _delete(path):
    def edit(doc):
        del _get(doc, path[:-1])[path[-1]]
    return edit


NAMED_CASES = {  # case id -> (schema, edit of the real report, valid afterwards)
    "nan_passes_minimum": ("risk_report", _set(("overall",), math.nan), True),
    "nan_passes_maximum": ("sweep", _set(("rows", 0, "bad_rate"), math.nan), True),
    "nan_line_contribution": ("risk_report",
                              _set(("hazards", 0, "line_contributions", 0), math.nan), True),
    "inf_number": ("risk_report", _set(("overall",), math.inf), True),
    "minus_inf_below_minimum": ("risk_report", _set(("overall",), -math.inf), False),
    "inf_above_maximum": ("sweep", _set(("interest_rate",), math.inf), False),
    "minus_zero_at_minimum": ("risk_report", _set(("overall",), -0.0), True),
    "true_is_not_a_number": ("risk_report", _set(("overall",), True), False),
    "one_is_a_number": ("risk_report", _set(("overall",), 1), True),
    "true_is_not_an_integer": ("test_report", _set(("dataset_size",), True), False),
    "integral_float_is_an_integer": ("test_report", _set(("dataset_size",), 1000.0), True),
    "fractional_float_is_not": ("test_report", _set(("dataset_size",), 999.5), False),
    "nan_is_not_an_integer": ("test_report", _set(("dataset_size",), math.nan), False),
    "huge_integer": ("sweep", _set(("rows", 0, "threshold"), 2**70), True),
    "huge_negative_below_minimum": ("sweep", _set(("rows", 0, "accepted_count"), -2**70),
                                    False),
    "false_is_not_an_integer": ("sweep", _set(("rows", 0, "threshold"), False), False),
    "float64_is_a_number": ("risk_report", _set(("overall",), np.float64(0.25)), True),
    "float64_below_minimum": ("risk_report", _set(("overall",), np.float64(-0.5)), False),
    "integral_float64_is_an_integer": ("test_report",
                                       _set(("dataset_size",), np.float64(1000.0)), True),
    "int64_is_not_an_integer": ("test_report", _set(("dataset_size",), np.int64(1000)),
                                False),
    "int64_is_a_number": ("risk_report", _set(("overall",), np.int64(1)), True),
    "numpy_bool_is_not_a_number": ("risk_report", _set(("overall",), np.bool_(False)), False),
    "int_subclass_is_an_integer": ("test_report", _set(("dataset_size",), IntSub(1000)),
                                   True),
    "int_subclass_is_a_number": ("risk_report", _set(("overall",), IntSub(1)), True),
    "negative_int_subclass_below_minimum": ("sweep", _set(("rows", 0, "accepted_count"),
                                                          IntSub(-1)), False),
    "float_subclass_is_a_number": ("risk_report", _set(("overall",), FloatSub(0.5)), True),
    "integral_float_subclass_is_an_integer": ("test_report",
                                              _set(("dataset_size",), FloatSub(1000.0)), True),
    "fractional_float_subclass_is_not": ("test_report",
                                         _set(("dataset_size",), FloatSub(999.5)), False),
    "tuple_is_not_an_array": ("risk_report", lambda doc: doc.update(
        hazards=tuple(doc["hazards"])), False),
    "tuple_of_strings": ("test_report", lambda doc: doc.update(
        conditioning_columns=tuple(doc["conditioning_columns"])), False),
    "integer_for_enum": ("risk_report", _set(("target",), 1), False),
    "null_for_enum": ("hazard_comparison", _set(("entries", 0, "mode"), None), False),
    "condition_value_bool": ("test_report", lambda doc: _first_condition(doc).update(
        value=True), False),
    "condition_value_float": ("test_report", lambda doc: _first_condition(doc).update(
        value=1.5), True),
    "divergence_empty_object": ("test_report", lambda doc: _first_divergence(doc).update(
        divergence={}), False),
    "divergence_null": ("test_report", lambda doc: _first_divergence(doc).update(
        divergence=None), True),
    "divergence_integer_kind": ("test_report", lambda doc: _first_divergence(doc)[
        "divergence"].update(kind=0), False),
    "kl_divergence_kind": ("test_report", _set(("divergence_kind",), "kl"), False),
    "kl_normalized_line_kind": ("test_report", lambda doc: _first_divergence(doc)[
        "divergence"].update(kind="kl_normalized"), False),
    "missing_key": ("risk_report", _delete(("overall",)), False),
    "missing_nested_key": ("sweep", _delete(("rows", 3, "warnings")), False),
    "extra_key": ("risk_report", _set(("extra",), 1), False),
    "extra_nested_key": ("hazard_comparison", _set(("entries", 0, "extra"), 1), False),
    "extra_key_in_open_sweep_row": ("sweep", _set(("rows", 0, "extra"), 1), True),
    "empty_hazards": ("risk_report", _set(("hazards",), []), False),
    "empty_lines": ("test_report", _set(("lines",), []), True),
}


@pytest.mark.parametrize("name, edit, valid", NAMED_CASES.values(), ids=NAMED_CASES.keys())
def test_named_case(name, edit, valid, real_docs):
    doc = copy.deepcopy(real_docs[name])
    edit(doc)
    assert predicate(name)(doc) is valid
    assert oracle(name).is_valid(doc) is valid


@pytest.mark.parametrize("name", report.SCHEMA_NAMES)
@pytest.mark.parametrize("top", [None, [], "report", 1, ()])
def test_non_object_top_level(name, top, real_docs):
    assert predicate(name)(top) is False
    assert predicate(name)([real_docs[name]]) is False
    assert oracle(name).is_valid(top) is False


SYNTHETIC = [
    {"oneOf": [{"type": "number"}, {"type": "integer"}]},
    {"oneOf": [{"type": "number", "minimum": 0}, {"type": "number", "maximum": 1},
               {"type": "null"}]},
    {"type": ["integer", "null"], "minimum": 1, "maximum": 10},
    {"type": "array", "minItems": 2, "items": {"enum": ["group", "model"]}},
    {"required": ["mode"], "properties": {"mode": {"type": "integer"}},
     "additionalProperties": False},
    {"$defs": {"rate": {"type": "number", "minimum": 0, "maximum": 1}},
     "items": {"$ref": "#/$defs/rate"}, "minItems": 1},
]


@given(schema=st.sampled_from(SYNTHETIC), value=VALUES)
def test_synthetic_schemas(schema, value):
    assert (report.compile_schema(schema)(value)
            == jsonschema.Draft202012Validator(schema).is_valid(value)), value


@pytest.mark.parametrize("schema", SYNTHETIC)
def test_synthetic_schemas_are_valid(schema):
    jsonschema.Draft202012Validator.check_schema(schema)


def test_one_of_means_exactly_one():
    overlapping = report.compile_schema(SYNTHETIC[0])
    assert overlapping(1.5)
    assert not overlapping(1)  # valid under both branches
    assert not overlapping("1")


class TestCompileGuard:
    @pytest.mark.parametrize("name", report.SCHEMA_NAMES)
    def test_shipped_schemas_compile(self, name):
        jsonschema.Draft202012Validator.check_schema(report.load_schema(name))
        assert callable(report.compile_schema(report.load_schema(name)))

    @pytest.mark.parametrize("schema, message", [
        ({"type": "string", "pattern": "^a"}, "unsupported keyword 'pattern'"),
        ({"anyOf": [{"type": "string"}, {"type": "null"}]}, "unsupported keyword 'anyOf'"),
        ({"properties": {"x": {"format": "date"}}}, "unsupported keyword 'format'"),
        ({"items": {"$ref": "other.schema.json#/$defs/row"}}, "not a local $defs entry"),
        ({"items": {"$ref": "#/$defs/missing"}}, "not a local $defs entry"),
        ({"enum": [1, 2]}, "is not all strings"),
        ({"additionalProperties": {"type": "string"}}, "additionalProperties"),
        ({"type": "decimal"}, "unknown type 'decimal'"),
        ({"items": {"$id": "nested"}}, "unsupported keyword '$id'"),
    ])
    def test_unsupported_schema_raises(self, schema, message):
        with pytest.raises(NotImplementedError) as err:
            report.compile_schema(schema)
        assert message in str(err.value)
