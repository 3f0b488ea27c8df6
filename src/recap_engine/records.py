"""Record classes: plain data with generated ``__init__``, ``__eq__`` and
``__repr__``.

:func:`record` reads a class's annotated fields once, in declaration order,
each with an optional default or :func:`field`, and installs the methods as
closures over that field list; no source is generated and nothing is
``exec``'d, so defining a record costs little at import. A record's
``__dict__`` holds exactly its fields, in declaration order, which the codec
and the writer rely on.

A frozen record rejects assignment and is hashable by its field tuple; any
other record is unhashable.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable

MISSING: Any = object()  # no default


class Field:
    """One field of a record: its name, its default or default factory, and
    the :class:`~.model.Spec` of a persisted field (None otherwise)."""

    __slots__ = ("name", "default", "factory", "spec")

    def __init__(self, default: Any = MISSING, factory: Any = MISSING, spec: Any = None):
        self.name = ""
        self.default = default
        self.factory = factory
        self.spec = spec


def field(*, default: Any = MISSING, factory: Any = MISSING, spec: Any = None) -> Any:
    """A field with a default, a factory called once per instance, or a spec."""
    return Field(default, factory, spec)


class FrozenRecordError(AttributeError):
    """Assignment to a field of a frozen record."""


def fields(cls: type) -> tuple[Field, ...]:
    """The fields of a record class, in declaration order."""
    try:
        return cls.__dict__["__record_fields__"]
    except (KeyError, AttributeError):
        raise TypeError(f"{cls!r} is not a record class") from None


def is_record(obj: Any) -> bool:
    """True for a record class or an instance of one."""
    cls = obj if isinstance(obj, type) else obj.__class__
    return "__record_fields__" in cls.__dict__


def record(cls: type | None = None, *, frozen: bool = False) -> Any:
    """Class decorator making ``cls`` a record; ``@record(frozen=True)`` for
    an immutable, hashable one."""
    if cls is None:
        return lambda cls: _make(cls, frozen)
    return _make(cls, frozen)


def _make(cls: type, frozen: bool) -> type:
    flds = []
    for name in cls.__dict__.get("__annotations__", {}):
        value = cls.__dict__.get(name, MISSING)
        f = value if isinstance(value, Field) else Field(default=value)
        f.name = name
        flds.append(f)
        # As with dataclasses: the class keeps a plain default, and no
        # attribute for a factory or a required field.
        if f.default is not MISSING:
            setattr(cls, name, f.default)
        elif name in cls.__dict__:
            delattr(cls, name)
    names = tuple(f.name for f in flds)
    cls.__record_fields__ = tuple(flds)
    cls.__init__ = _init(cls.__qualname__, flds, frozen)
    key = attrgetter(*names) if len(names) > 1 else lambda r: tuple(getattr(r, n) for n in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({body})"

    cls.__eq__ = __eq__
    cls.__repr__ = __repr__
    if frozen:

        def __hash__(self):
            return hash(key(self))

        def __setattr__(self, name, value):
            raise FrozenRecordError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise FrozenRecordError(f"cannot delete field {name!r}")

        cls.__hash__ = __hash__
        cls.__setattr__ = __setattr__
        cls.__delattr__ = __delattr__
    else:
        cls.__hash__ = None
    return cls


def _init(qualname: str, flds: list[Field], frozen: bool) -> Callable:
    """``__init__`` taking the fields positionally or by keyword. A call
    passing every field positionally takes one ``dict(zip(...))``; the
    others are bound field by field."""
    names = tuple(f.name for f in flds)
    size = len(names)
    known = frozenset(names)
    fills = [(f.name, f.default, f.factory) for f in flds]
    set_dict = object.__setattr__ if frozen else None

    def bind(args: tuple, kwargs: dict) -> dict:
        if len(args) > size:
            raise TypeError(f"{qualname}() takes {size} positional arguments but {len(args)} were given")
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in known:
                raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
            if name in given:
                raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
            given[name] = value
        values = {}
        missing = []
        for name, default, factory in fills:
            if name in given:
                values[name] = given[name]
            elif default is not MISSING:
                values[name] = default
            elif factory is not MISSING:
                values[name] = factory()
            else:
                missing.append(repr(name))
        if missing:
            raise TypeError(f"{qualname}() missing required argument(s): {', '.join(missing)}")
        return values

    if frozen:

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != size:
                set_dict(self, "__dict__", bind(args, kwargs))
            else:
                set_dict(self, "__dict__", dict(zip(names, args)))

    else:

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != size:
                self.__dict__ = bind(args, kwargs)
            else:
                self.__dict__ = dict(zip(names, args))

    __init__.__qualname__ = f"{qualname}.__init__"
    return __init__
