"""The shared base of the package's value classes.

Each subclass lists its fields in ``_fields``, in constructor order, and
sets them in an explicit ``__init__``. The base compares, hashes and
prints an instance by those fields: equal to an instance of the same
class with equal fields, hashed as the tuple of its fields, and printed
as ``Name(field=value, ...)``. A subclass with no cached_property also
sets ``__slots__`` to its fields.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
