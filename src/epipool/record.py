"""The one base of the package's value records.

A record class lists its fields in ``__slots__`` and writes its own
``__init__``, which checks its arguments and sets each field once with
``object.__setattr__``.  ``__init__`` must accept the fields positionally in
``__slots__`` order, because pickling and ``replace`` call it that way.
``Record`` adds what follows from the fields alone:
equality with a record of the same class whose fields are equal, a hash
over the fields, the repr ``Name(field=value, ...)``, immutability, pickling
and copying through ``__init__``, and ``replace``.

The package does not use ``dataclasses``.  A ``@dataclass`` writes the source
of its methods and compiles it with ``exec`` every time its module is
imported, and importing ``dataclasses`` pulls in ``inspect``, ``ast`` and
``dis``.  For a CLI command that does tens of milliseconds of work, that was
most of the package's import time.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, TypeVar

R = TypeVar("R", bound="Record")


class FrozenInstanceError(AttributeError):
    """A field of a record was assigned or deleted."""


class Record:
    __slots__ = ()
    _key: Callable[[Record], object]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if cls.__slots__:
            # the fields in one C call: a tuple, or the value of a lone field
            cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def replace(self: R, **changes: object) -> R:
        """A copy with the named fields changed, checked by ``__init__`` again."""
        unknown = changes.keys() - set(self.__slots__)
        if unknown:
            raise TypeError(f"{self.__class__.__qualname__} has no field {min(unknown)!r}")
        return self.__class__(*[changes.get(name, getattr(self, name)) for name in self.__slots__])
