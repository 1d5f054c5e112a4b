"""Immutable value classes on ``__slots__``, without the dataclasses module.

A frozen dataclass costs every fresh interpreter the import of
``dataclasses`` (which pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``) and an ``exec`` of generated methods per class.  A Record
subclass names its fields in ``__slots__``, in constructor order, and sets
each one once in ``__init__`` through ``set_field``.  It then has what the
frozen dataclass gave: equality and a hash over its fields, only between
instances of the same class, a ``Name(field=value, ...)`` repr, and an
AttributeError on any assignment or deletion.  Each subclass reads its
fields through one ``operator.attrgetter``, made when the class is
defined, so records used as dict keys (the places of a divisor) need no
hand-written ``__eq__`` or ``__hash__``.  The hash of the fields is
computed on first use and kept in the ``_hash`` slot, so a place booked on
every divisor call is not rehashed from its field elements each time.
"""

import operator

set_field = object.__setattr__


class Record:
    """Base of the package's immutable value classes."""

    __slots__ = ("_hash",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field value itself for one field, else the field tuple
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._fields(self))
            set_field(self, "_hash", h)
            return h

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"{type(self).__qualname__}({args})"
