import dataclasses
import functools

import pytest

from fairaudit.record import Record, factory


class Point(Record):
    x: int
    y: int = 0
    tags: list = factory(list)

    ORIGIN = "not a field"  # an attribute without an annotation

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("x: negative")

    @functools.cached_property
    def norm(self):
        return abs(self.x) + abs(self.y)


class Pair(Record):
    x: int
    y: int = 0
    tags: list = factory(list)


class TestFields:
    def test_own_annotations_in_order(self):
        assert Point._fields == ("x", "y", "tags")

    def test_class_attribute_is_the_default(self):
        p = Point(1)
        assert (p.x, p.y, p.tags) == (1, 0, [])

    def test_factory_default_is_fresh_per_instance(self):
        a, b = Point(1), Point(1)
        a.tags.append("a")
        assert b.tags == []
        assert Point(1).tags == []

    def test_given_value_replaces_a_factory(self):
        tags = ["t"]
        assert Point(1, tags=tags).tags is tags


class TestConstruction:
    def test_by_position_keyword_or_both(self):
        assert Point(1, 2) == Point(x=1, y=2) == Point(1, y=2) == Point(y=2, x=1)

    @pytest.mark.parametrize("args, kwargs, message", [
        ((), {}, r"missing fields \['x'\]"),
        ((1,), {"z": 3}, r"unknown fields \['z'\]"),
        ((1,), {"x": 2}, "takes 3 fields"),
        ((1, 2, [], 4), {}, "takes 3 fields"),
    ], ids=["missing", "unknown", "repeated", "too_many"])
    def test_bad_arguments_raise_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Point(*args, **kwargs)

    def test_keyword_dict_stays_the_callers(self):
        fields = {"x": 1, "y": 2}
        p = Point(**fields)
        fields["x"] = 5
        assert p.x == 1

    def test_post_init_runs(self):
        with pytest.raises(ValueError, match="negative"):
            Point(-1)

    def test_replace_applies_changes_and_checks_again(self):
        p = Point(1, 2)
        assert p.replace(y=5) == Point(1, 5)
        assert p == Point(1, 2)
        with pytest.raises(ValueError, match="negative"):
            p.replace(x=-1)
        with pytest.raises(TypeError, match="unknown fields"):
            p.replace(z=1)


class TestImmutable:
    def test_assign_and_delete_raise(self):
        p = Point(1)
        with pytest.raises(AttributeError):
            p.x = 2
        with pytest.raises(AttributeError):
            p.other = 2
        with pytest.raises(AttributeError):
            del p.x
        assert p.x == 1

    def test_cached_property_works(self):
        p = Point(3, -4)
        assert p.norm == 7
        assert p.norm == 7
        # a cached value is no field: it is neither compared nor repeated
        assert p == Point(3, -4)
        assert "norm" not in repr(p)


class TestComparison:
    def test_equal_fields_equal_records_and_hashes(self):
        assert Point(1, 2, ()) == Point(1, 2, ())
        assert hash(Point(1, 2, ())) == hash(Point(1, 2, ()))
        assert Point(1, 2) != Point(1, 3)

    def test_another_class_with_equal_fields_is_not_equal(self):
        p, q = Point(1, 2, ()), Pair(1, 2, ())
        assert p.__eq__(q) is NotImplemented
        assert p != q
        assert len({p, q}) == 2

    def test_unhashable_field_makes_an_unhashable_record(self):
        with pytest.raises(TypeError):
            hash(Point(1))


def test_repr_reads_like_a_dataclass():
    @dataclasses.dataclass(frozen=True)
    class Point:
        x: int
        y: int = 0
        tags: list = dataclasses.field(default_factory=list)

    assert repr(Pair(1, 2, ["a"])) == repr(Point(1, 2, ["a"])).replace(
        "test_repr_reads_like_a_dataclass.<locals>.Point", "Pair")
