"""Immutable value classes on ``__slots__``, without the dataclasses module.

A frozen dataclass costs every fresh interpreter the import of
``dataclasses`` (which pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``) and an ``exec`` of generated methods per class.  A Record
subclass names its fields in ``__slots__``, in constructor order, and sets
each one once in ``__init__`` through ``set_field``.  It then has what the
frozen dataclass gave: equality and a hash over the field tuple, only
between instances of the same class, a ``Name(field=value, ...)`` repr,
and an AttributeError on any assignment or deletion.
"""

set_field = object.__setattr__


class Record:
    """Base of the package's immutable value classes."""

    __slots__ = ()

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"{type(self).__qualname__}({args})"
