"""The base class of the package's immutable values.

It lives on its own so that every value module can import it without
loading the others: the integer side (rays, contexts, the search) and the
``Fraction`` side (vectors, matrices, the lattice, states) share it.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import Callable, Sequence


def _store(setters: Sequence[Callable[[object, object], None]]):
    """One function that sets a value's fields, in field order, through
    their slot descriptors' ``__set__``.

    It is written out per arity because a loop over the setters cost each
    build more than the instance-``__dict__`` write it replaced. A value
    class has one to three fields; more fail to unpack when the class is
    created.
    """
    if len(setters) == 1:
        (a,) = setters

        def store(value, x):
            a(value, x)

    elif len(setters) == 2:
        a, b = setters

        def store(value, x, y):
            a(value, x)
            b(value, y)

    else:
        a, b, c = setters

        def store(value, x, y, z):
            a(value, x)
            b(value, y)
            c(value, z)

    return store


class _FrozenType(type):
    """Sets each value class's ``__slots__``, ``_fields``, ``_values`` and
    ``_store`` from the names its body annotates."""

    def __new__(mcls, name, bases, namespace, **kwargs):
        fields = tuple(namespace.get("__annotations__", ()))
        slots = fields
        if any([isinstance(attr, cached_property) for attr in namespace.values()]):
            # cached_property writes its result into the instance __dict__.
            slots += ("__dict__",)
        namespace["__slots__"] = slots
        cls = super().__new__(mcls, name, bases, namespace, **kwargs)
        if fields:
            cls._fields = fields
            # One C-level getter per class, so that equality and hashing
            # cost about what a hand-written comparison of the fields does.
            cls._values = staticmethod(attrgetter(*fields))
            cls._store = _store([cls.__dict__[field].__set__ for field in fields])
        return cls


class _Frozen(metaclass=_FrozenType):
    """Base of the package's immutable values: equality, hash and repr
    over their fields.

    A subclass's fields are the names it annotates in its class body, in
    order, and ``_fields`` is set to them when the class is created; a
    subclass that annotates nothing keeps its parent's. Every module that
    defines a value class imports ``annotations`` from ``__future__``, so
    only the names are read and no annotation is evaluated.

    Each field lives in a slot, as the metaclass sets ``__slots__`` to the
    annotated names. Only a class with a ``functools.cached_property``
    also gets a ``__dict__`` slot, which holds the cached values alone.
    Fields are stored one way: the class's ``_store``, built once with the
    class from its slots' ``__set__``, sets them all in field order. It
    ends each checked ``__init__`` and is what :meth:`_trusted` and
    unpickling call. Assignment and deletion raise ``AttributeError``.
    Values are equal when they have the same class and equal fields, and
    hash as their fields.

    These methods and the store are written out once here rather than
    generated per class: neither ``dataclasses`` nor compiled source is
    used, as generating code compiles it at every import, which cost each
    CLI start more than a small command's own work.

    :meth:`_trusted` is the one way to build a value without its
    constructor's checks. Its caller passes every field positionally in
    field order, the order in which the checked constructor takes them,
    in the form ``__init__`` would store it, and states beside the call
    why those checks cannot fail there.
    """

    @classmethod
    def _trusted(cls, *fields: object):
        """A value holding ``fields`` as given, without ``__init__``."""
        value = object.__new__(cls)
        value._store(*fields)
        return value

    def __reduce__(self):
        # Copies and unpickled values are built through the store too.
        return self._trusted, tuple([getattr(self, name) for name in self._fields])

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
