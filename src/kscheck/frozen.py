"""The base class of the package's immutable values.

It lives on its own so that every value module can import it without
loading the others: the integer side (rays, contexts, the search) and the
``Fraction`` side (vectors, matrices, the lattice, states) share it.
"""

from __future__ import annotations

from operator import attrgetter


class _Frozen:
    """Base of the package's immutable values: equality, hash and repr
    over their fields.

    A subclass's fields are the names it annotates in its class body, in
    order, and ``_fields`` is set to them when the class is created; a
    subclass that annotates nothing keeps its parent's. Every module that
    defines a value class imports ``annotations`` from ``__future__``, so
    only the names are read and no annotation is evaluated. Fields are
    stored one way: one write into the instance ``__dict__``, which ends
    each checked ``__init__`` and is all :meth:`_trusted` does.
    ``functools.cached_property`` writes there too. Assignment and deletion
    raise ``AttributeError``. Values are equal when they have the same
    class and equal fields, and hash as their fields. These methods are
    written out once here rather than generated per class: generating them
    compiles source at every import, which cost each CLI start more than a
    small command's own work.

    :meth:`_trusted` is the one way to build a value without its
    constructor's checks. Its caller passes every field by name, in the
    form ``__init__`` would store it, and states beside the call why
    those checks cannot fail there.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__annotations__" in cls.__dict__:
            cls._fields = tuple(cls.__dict__["__annotations__"])
        # One C-level getter per class, so that equality and hashing cost
        # about what a hand-written comparison of the fields does.
        cls._values = staticmethod(attrgetter(*cls._fields))

    @classmethod
    def _trusted(cls, **fields: object):
        """A value holding ``fields`` as given, without ``__init__``."""
        value = object.__new__(cls)
        value.__dict__.update(fields)
        return value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
