"""Immutable value classes that need no generated code.

dataclass(frozen=True) execs a fresh __init__, __repr__, __eq__, __hash__
and __setattr__ for every class at import.  The vector, number and
expression types share these instead.  A subclass names its fields in
`_fields` and keeps them in __slots__; __init__ stores them in that order,
or, in a subclass that converts or checks them, through `_set`.  A value
compares and hashes by its exact type and fields, refuses assignment after
construction, and is not a tuple: it has no len, order or concatenation.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

_set = object.__setattr__


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.__class__, self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt through __init__, since slots cannot be restored by setattr
        return self.__class__, self._values()
