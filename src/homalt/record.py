"""Plain value classes with what ``@dataclass`` would generate.

``dataclasses`` imports ``inspect``, ``ast``, ``dis`` and ``tokenize``,
which cost every ``homalt`` process more start-up time than the work of
a typical refutation.  A subclass lists its fields, in constructor
order, in ``_fields`` and sets them in its own ``__init__`` (which keeps
its signature, defaults and validation).  ``Record`` then gives the
field-listing ``repr`` and field-wise ``==`` of ``@dataclass``, and is
unhashable like it; ``FrozenRecord`` is ``@dataclass(frozen=True)``:
fields are set once, through ``_set``, and the instance hashes by its
fields.
"""

__all__ = ["Record", "FrozenRecord"]


class Record:
    _fields = ()

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields),
        )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None


class FrozenRecord(Record):
    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a frozen %s"
                             % (name, type(self).__qualname__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of a frozen %s"
                             % (name, type(self).__qualname__))

    def __hash__(self):
        return hash(self._values())
