"""Immutable value types as plain classes.

:class:`Value` is the base of the package's frozen records: Thomason sets and
filtrations, local families, free terms, local factors, ideals and cosilting
modules.  A subclass names its fields in ``_fields`` and sets each one in its
``__init__`` with ``object.__setattr__``, or, when its fields are slots,
with ``_setters``, the slots' own setters, which skip the guard for about
two thirds of the cost; assigning or deleting an attribute afterwards
raises AttributeError.  Two values are equal when they have the
same class and equal fields, a value hashes as the tuple of its fields, and
its repr is ``Class(field=value, ...)``.  A subclass without a
``cached_property`` lists its fields in ``__slots__`` too.  Nothing is
generated at import, so importing the package loads no code generator and
not :mod:`inspect`.
"""

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields)
        # the key of one field is a 1-tuple, as the tuple of several is
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda value: (get(value),))
        slots = cls.__dict__.get("__slots__", ())
        if all(name in slots for name in cls._fields):
            cls._setters = tuple(cls.__dict__[name].__set__ for name in cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # copy and pickle restore the fields past the guard
    def __getstate__(self):
        return self._key(self)

    def __setstate__(self, state):
        for name, value in zip(self._fields, state):
            object.__setattr__(self, name, value)
