"""Base of the immutable value classes, as `dataclass(frozen=True)` gave
them, without importing `dataclasses` (and `inspect`, `ast`, `dis`) or
compiling generated methods at import.  Equality and hashing compare the
fields named in `_fields`; repr shows those in `_shown`, by default the
same.  A subclass's `__init__` checks its arguments, then sets each field
once through `__dict__`; assigning or deleting any attribute raises
AttributeError."""

from operator import attrgetter


class Frozen:
    def __init_subclass__(cls):
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the value, not a 1-tuple.
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))
        cls._shown = vars(cls).get("_shown", cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
