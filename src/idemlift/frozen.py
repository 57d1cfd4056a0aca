"""The base of the immutable records: algebra kinds, spectra, contours,
families, traces and scenarios.

A record class declares its fields as ``__slots__`` and writes out its own
``__init__``, which sets each field with ``object.__setattr__`` and then
calls the class's ``__post_init__`` validation hook where it has one.
From the fields, in declaration order (base classes first), :class:`Frozen`
gives every record

* equality and hash over the field values, with ``NotImplemented``
  against any other class, so records of two kinds never compare equal;
* the repr ``Kind(field=value, ...)``;
* refusal of assignment and deletion;
* ``replace(**changes)``: a copy with some fields changed, built through
  ``__init__`` so that it is validated again.

Nothing is generated or compiled when a record class is defined.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Frozen"]


class Frozen:
    """Immutable record whose fields are its ``__slots__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name for klass in reversed(cls.__mro__) for name in vars(klass).get("__slots__", ())
        )

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the field tuples of one object compare equal, so identity decides
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {self.__class__.__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {self.__class__.__name__}")

    def replace(self, **changes: Any):
        """A copy with the given fields changed, validated as a new record."""
        unknown = changes.keys() - set(self._fields)
        if unknown:
            raise TypeError(f"{self.__class__.__name__} has no field {sorted(unknown)[0]!r}")
        return self.__class__(**{name: changes.get(name, getattr(self, name)) for name in self._fields})
