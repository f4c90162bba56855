"""`report.dumps` against `json.dumps(indent=2, sort_keys=True)`, the
writer it replaces: the same text for every JSON value with str keys, and
TypeError where json raises it or a key is not a str."""

import glob
import json
import os

import pytest
from hypothesis import example, given, strategies as st

from fairaudit import report


def oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


class Real(float):
    def __repr__(self):
        return "Real()"

    __str__ = __repr__


class Count(int):
    def __repr__(self):
        return "Count()"

    __str__ = __repr__


class Name(str):
    def __repr__(self):
        return "Name()"

    __str__ = __repr__


class Record(dict):
    pass


class Row(list):
    pass


# NUL, quote, backslash, control, DEL, non-ASCII and astral characters
_TEXT = st.text() | st.text(alphabet='a"\\\x00\n\t\x1f\x7f\xe9☃\U0001f600')
_FLOATS = (st.floats()
           | st.sampled_from([0.0, -0.0, 1.0, 1e300, -1e300, 5e-324, 2.2250738585072014e-308,
                              float("nan"), float("inf"), float("-inf")]))
_SCALARS = (st.none() | st.booleans() | _FLOATS | _TEXT
            | st.integers() | st.sampled_from([0, 1, -1, 2 ** 70, -2 ** 70])
            | _FLOATS.map(Real) | st.integers().map(Count) | _TEXT.map(Name))


def _containers(children):
    lists = st.lists(children, max_size=4)
    dicts = st.dictionaries(_TEXT | _TEXT.map(Name), children, max_size=4)
    return lists | lists.map(tuple) | lists.map(Row) | dicts | dicts.map(Record)


_VALUES = st.recursive(_SCALARS, _containers, max_leaves=40)


@given(_VALUES)
@example({})
@example([])
@example({"a": [[], {}, [[{}]], {"b": {"c": []}}]})
@example([True, 1, 1.0, False, 0, 0.0, None])
@example({"b": 1, "a": 2, "B": 3, "": 4, "a\x00": 5, "\xe9": 6})
def test_same_text_as_json(value):
    assert report.dumps(value) == oracle(value)


def test_cli_reports_are_json_text(outputs):
    paths = sorted(glob.glob(os.path.join(outputs, "*.json")))
    assert len(paths) > 20
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
        assert text == oracle(doc) == report.dumps(doc)


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", {"a": [complex(1, 2)]}],
                         ids=["object", "set", "bytes", "nested complex"])
def test_unsupported_value_raises_type_error(value):
    with pytest.raises(TypeError):
        oracle(value)
    with pytest.raises(TypeError):
        report.dumps(value)


@pytest.mark.parametrize("value", [{1: "a"}, {None: 1}, {True: 1}, {1.5: 1}, {"a": {("b",): 1}}],
                         ids=["int", "None", "bool", "float", "nested tuple"])
def test_non_str_key_raises_type_error(value):
    with pytest.raises(TypeError):
        report.dumps(value)


@pytest.mark.parametrize("doc", [{"a": object()}, {"a": {2: "b"}}], ids=["value", "key"])
def test_unserializable_document_leaves_file_untouched(tmp_path, doc):
    path = tmp_path / "report.json"
    report.write_json(path, {"ok": [1, 2.5, "x"]})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        report.write_json(path, doc)
    assert path.read_bytes() == before
