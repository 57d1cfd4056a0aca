"""The base of the immutable records: algebra kinds, spectra, contours,
families, traces and scenarios.

A record class declares its fields as ``__slots__`` and each default
once in ``_defaults``, where a mutable one (dict, list or set), which
records would share, is refused when the class is defined.  It writes no
``__init__``.  From the fields, in declaration order (base classes
first), :class:`Frozen` gives every record

* one constructor, whose parameters are the fields in that order, as
  ``inspect.signature`` of the class shows.  It sets the fields and then
  calls the class's ``__post_init__`` hook, which validates or
  normalises them (a no-op unless the class overrides it);
* equality and hash over the field values, with ``NotImplemented``
  against any other class, so records of two kinds never compare equal;
* the repr ``Kind(field=value, ...)``;
* refusal of assignment and deletion;
* ``replace(**changes)``: a copy with some fields changed, built through
  the constructor so that it is validated again.

Nothing is generated or compiled when a record class is defined.
"""

from __future__ import annotations

import inspect
from typing import Any

__all__ = ["Frozen"]
_MISSING = object()  # a field neither given nor defaulted


class _ClassSignature:
    """A record class's ``__signature__``, built when first read, not at
    import; a record has none, so a callable one keeps its ``__call__``'s."""

    def __get__(self, record: Any, cls: type) -> inspect.Signature:
        if record is not None:
            raise AttributeError("__signature__")
        if "_signature" not in vars(cls):
            kind, empty = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
            cls._signature = inspect.Signature(
                [inspect.Parameter(f, kind, default=cls._defaults.get(f, empty)) for f in cls._fields]
            )
        return cls._signature


class Frozen:
    """Immutable record whose fields are its ``__slots__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}
    __signature__ = _ClassSignature()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        fields, setters, defaults = [], [], {}
        for klass in reversed(cls.__mro__):
            own = vars(klass)
            for name in own.get("__slots__", ()):
                fields.append(name)
                setters.append(own[name].__set__)  # the slot's setter, past the refusing __setattr__
            defaults.update(own.get("_defaults", {}))
        cls._fields, cls._setters, cls._defaults = tuple(fields), tuple(setters), defaults
        for name, value in defaults.items():
            if name not in cls._fields:
                raise TypeError(f"{cls.__name__} has no field {name!r} to give a default")
            if isinstance(value, (dict, list, set)):  # every record built without it would share it
                raise TypeError(f"{cls.__name__}.{name} has a mutable default {value!r}")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for setter, value in zip(self._setters, args):
            setter(self, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """``__signature__.bind`` at a fraction of its cost: the positionals,
        then each later field by keyword or default; it raises what bind does."""
        rest = self._fields[len(args):]
        tail = [kwargs.get(name, self._defaults.get(name, _MISSING)) for name in rest]
        if (len(args) + len(tail) != len(self._fields) or not kwargs.keys() <= set(rest)
                or any([value is _MISSING for value in tail])):
            type(self).__signature__.bind(*args, **kwargs)
        return args + tuple(tail)

    def __post_init__(self) -> None:
        """Validate or normalise the fields once they are set."""

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
        return self.__class__(*[changes.get(name, getattr(self, name)) for name in self._fields])
