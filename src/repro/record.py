"""The base of the value types built once per event.

A frozen ``slots=True`` dataclass assigns each field through a call
of ``object.__setattr__`` when it is built.  The records made on every
event — a stream event, its decision, an admission test's outcome, a
mobile's next boundary crossing — are built far
more often than they are compared, so they are ``__slots__`` classes
whose ``__init__`` sets plain slots, and :class:`Record` gives them what
the dataclass did: equality and hashing by fields, a dataclass-style
``repr`` and pickling.  Their fields are set once, at construction, and
never reassigned.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """A value type over its ``__slots__``: equal to another record of
    the same class with equal fields, hashed by them, and pickled as a
    call of its constructor with them (so ``__init__``'s checks run on
    load too)."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return (self.__class__, self._fields())
