"""Immutable value records, without the import cost of ``dataclasses``."""

from operator import attrgetter

# Record.__setattr__ refuses assignment, so __init__ methods set their slots
# through object's own __setattr__.
setfield = object.__setattr__


class Record:
    """Base of the package's frozen value types; the fields are ``__slots__``.

    Behaves like ``@dataclass(frozen=True)``: instances compare equal only to
    instances of the same class with equal fields, hash by their fields, print
    as ``Name(field=value, ...)``, raise AttributeError on assignment or
    deletion, and pickle by calling the constructor with their fields.  Each
    subclass lists its fields in ``__slots__`` and writes its own ``__init__``
    that stores them with ``setfield``; a subclass with ``__slots__ = ()``
    keeps the fields and the ``__init__`` of its base.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            f for c in reversed(cls.__mro__) for f in c.__dict__.get("__slots__", ())
        )
        # the fields in one C call: a tuple, or the lone value of a one-field record
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)
