"""Immutable records: the frozen data classes the package needs, built
without generated code.

The standard library's `dataclass` compiles each generated method with
`exec` when it decorates a class, and loading it loads `inspect` (with
`ast`, `dis` and `tokenize`); for the package's record types that cost
every command about 20 ms at start.  A `Record` subclass gets the same
behaviour from closures and a few shared methods:

- its fields are its own annotations, in order, and `_fields` names them;
- a class attribute with a field's name is that field's default, and
  `factory(make)` gives each instance a fresh default `make()`;
- it is built from its fields by position or keyword (a missing, unknown
  or repeated one raises TypeError), and then `__post_init__` runs;
- its attributes cannot be assigned or deleted;
- `==` and `hash` compare the fields of two records of one class;
- `repr` reads like a dataclass's, and `replace(**changes)` builds a copy
  whose checks run again.

The fields live in the instance `__dict__`, so `functools.cached_property`
works on a record.
"""

from __future__ import annotations

from operator import attrgetter


class factory:
    """A field default made afresh for each instance by calling `make()`."""

    def __init__(self, make):
        self.make = make


def _methods(cls):
    """`__init__`, `__eq__` and `__hash__` of the record class `cls`."""
    names = cls._fields
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    n = len(names)
    known = frozenset(names)
    values = attrgetter(*names)
    made = {name: value.make for name, value in defaults.items() if isinstance(value, factory)}
    plain = {name: value for name, value in defaults.items() if name not in made}
    set_dict = object.__setattr__

    # `kwargs` is a fresh dict of each call, so it becomes the instance's
    # `__dict__` without a copy
    def __init__(self, *args, **kwargs):
        if kwargs and not kwargs.keys() <= known:
            raise TypeError(f"{cls.__name__}() got unknown fields "
                            f"{sorted(kwargs.keys() - known)}")
        if args:
            if len(args) > n or kwargs and not kwargs.keys().isdisjoint(names[:len(args)]):
                raise TypeError(f"{cls.__name__}() takes {n} fields, got {len(args)} "
                                f"by position and {sorted(kwargs)} by keyword")
            for i, value in enumerate(args):
                kwargs[names[i]] = value
        if len(kwargs) < n:
            for name, value in plain.items():
                if name not in kwargs:
                    kwargs[name] = value
            for name, make in made.items():
                if name not in kwargs:
                    kwargs[name] = make()
            if len(kwargs) < n:
                raise TypeError(f"{cls.__name__}() missing fields "
                                f"{[name for name in names if name not in kwargs]}")
        set_dict(self, "__dict__", kwargs)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not cls:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    for method in (__init__, __eq__, __hash__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
    return __init__, __eq__, __hash__


class Record:
    """Base class of an immutable record; see the module docstring."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls.__init__, cls.__eq__, cls.__hash__ = _methods(cls)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a {type(self).__name__}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with `changes` applied, checked again."""
        return self.__class__(**{**{name: getattr(self, name) for name in self._fields},
                                 **changes})
