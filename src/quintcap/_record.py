"""The base class of the package's records.

A record's fields are the names in ``__slots__``, a base class's first.
Records compare, hash and print as ``@dataclass(frozen=True)`` classes do,
without importing ``dataclasses``, which pulls in ``inspect`` and costs
several milliseconds of every cold start.
"""

from __future__ import annotations


class Record:
    """Fields named by ``__slots__``; each subclass writes its ``__init__``
    and sets the fields there with ``_set``.

    ``==`` holds between two records of the same class whose fields are
    equal, ``hash`` is the hash of the tuple of the fields and ``repr`` is
    ``Name(field=value, ...)`` without the fields in ``_UNSHOWN``.
    Assigning or deleting a field raises AttributeError.  A record whose
    fields hold lists or dicts is unhashable, as its tuple of fields is.
    """

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()
    _UNSHOWN: tuple[str, ...] = ()
    _SETTERS: tuple = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._FIELDS += cls.__dict__.get("__slots__", ())
        # The slots' own setters bypass __setattr__, and cost what the
        # object.__setattr__ calls of a frozen dataclass's __init__ cost.
        cls._SETTERS = tuple(getattr(cls, name).__set__ for name in cls._FIELDS)

    def _set(self, *values: object) -> None:
        """Set the first len(values) fields, in order."""
        for set_field, value in zip(self._SETTERS, values):
            set_field(self, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __setattr__(self, name: str, value: object) -> None:
        if name in self._FIELDS:
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        if name in self._FIELDS:
            raise AttributeError(f"cannot delete field {name!r}")
        object.__delattr__(self, name)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = (f"{n}={getattr(self, n)!r}" for n in self._FIELDS if n not in self._UNSHOWN)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    # Pickling and copy.copy set fields through these, not through __setattr__.
    def __getstate__(self) -> tuple:
        return self._values()

    def __setstate__(self, state: tuple) -> None:
        self._set(*state)
