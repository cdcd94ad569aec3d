"""Record classes for values and reports, with no generated code.

A record's fields are its class's ``__slots__``, in order; annotations
beside them give their types.  ``__init__`` takes the fields by position or
by name, and a field the call leaves out takes its value from the class's
``_defaults``.  Two records are equal when they are of the same class and
their fields are equal; ``repr`` is ``Name(field=value, ...)``; pickle and
copy go through the fields.  A ``Record`` is mutable and so unhashable; a
``Frozen`` record refuses assignment and hashes its fields.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from a call with keywords or defaults."""
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")
        return values

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        # pickle and copy rebuild from the fields, past a frozen __setattr__
        return _rebuild, (type(self), self._fields())


def _rebuild(cls, values):
    obj = cls.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        _set(obj, name, value)
    return obj


class Frozen(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __hash__(self) -> int:
        return hash(self._fields())
