"""Record classes: plain data with generated ``__init__``, ``__eq__`` and
``__repr__``.

:func:`record` reads a class's annotated fields once, in declaration order,
each with an optional default or :func:`field`, and installs the methods as
closures over that field list; no source is generated and nothing is
``exec``'d, so defining a record costs little at import. A record's
``__dict__`` holds exactly its fields, in declaration order, which the codec
and the writer rely on.

A frozen record rejects assignment and is hashable by its field tuple; any
other record is unhashable. A field may carry a ``convert`` function, which a
frozen record applies to the field's value when it is built, here or by
:func:`replace`: the engine's persisted records hold their lists as tuples
and their free JSON as :class:`FrozenDict` and :class:`FrozenList`
(:func:`freeze`), so nothing below them can change in place.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable

MISSING: Any = object()  # no default


class Field:
    """One field of a record: its name, its default or default factory, the
    :class:`~.model.Spec` of a persisted field (None otherwise), and the
    function a frozen record passes its value through (None: kept as is)."""

    __slots__ = ("name", "default", "factory", "spec", "convert")

    def __init__(self, default: Any = MISSING, factory: Any = MISSING, spec: Any = None,
                 convert: Callable | None = None):
        self.name = ""
        self.default = default
        self.factory = factory
        self.spec = spec
        self.convert = convert


def field(*, default: Any = MISSING, factory: Any = MISSING, spec: Any = None,
          convert: Callable | None = None) -> Any:
    """A field with a default, a factory called once per instance, a spec,
    or a conversion."""
    return Field(default, factory, spec, convert)


class FrozenRecordError(AttributeError):
    """Assignment to a field of a frozen record, or a change to a frozen
    mapping or list."""


def _refuse(self, *args, **kwargs):
    raise FrozenRecordError(f"a {self.__class__.__name__} cannot change")


class FrozenDict(dict):
    """A dict that cannot change: ``json``, ``==`` and ``repr`` treat it as
    the dict it was built from."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):  # copy and pickle rebuild it through __init__
        return (self.__class__, (dict(self),))


class FrozenList(list):
    """A list that cannot change, as :class:`FrozenDict` is a dict."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse

    def __hash__(self):
        return hash(tuple(self))

    def __reduce__(self):  # copy and pickle rebuild it through __init__
        return (self.__class__, (list(self),))


def freeze(value: Any) -> Any:
    """A read-only deep copy of free JSON: each dict becomes a
    :class:`FrozenDict`, each list a :class:`FrozenList` and each tuple a
    tuple, all of frozen items; any other value is returned as is."""
    cls = value.__class__
    if cls is dict or cls is FrozenDict:
        return FrozenDict({
            key: freeze(item) if item.__class__ in _CONTAINERS else item
            for key, item in value.items()
        })
    if cls is list or cls is FrozenList or cls is tuple:
        items = [freeze(item) if item.__class__ in _CONTAINERS else item for item in value]
        return tuple(items) if cls is tuple else FrozenList(items)
    return value


_CONTAINERS = frozenset({dict, FrozenDict, list, FrozenList, tuple})


def freeze_items(value: Any) -> Any:
    """The value of a list field: a list or a tuple becomes a tuple of
    frozen items; any other value is frozen as free JSON."""
    if value.__class__ is list or value.__class__ is tuple:
        return tuple(map(freeze, value))
    return freeze(value)


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
    cls.__record_converts__ = tuple((f.name, f.convert) for f in flds if frozen and f.convert)
    cls.__init__ = _init(cls.__qualname__, flds, frozen, cls.__record_converts__)
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


def replace(record: Any, /, **changes: Any) -> Any:
    """A copy of ``record`` with the fields named in ``changes`` replaced;
    a frozen record converts the new values as its ``__init__`` does."""
    values = record.__dict__.copy()
    for name, value in changes.items():
        if name not in values:
            raise TypeError(f"{record.__class__.__qualname__} has no field {name!r}")
        values[name] = value
    for name, convert in record.__class__.__record_converts__:
        if name in changes:
            values[name] = convert(values[name])
    out = object.__new__(record.__class__)
    object.__setattr__(out, "__dict__", values)
    return out


def _init(qualname: str, flds: list[Field], frozen: bool, converts: tuple) -> Callable:
    """``__init__`` taking the fields positionally or by keyword. A call
    passing every field positionally takes one ``dict(zip(...))``; the
    others are bound field by field. A frozen record's values then go
    through their fields' conversions."""
    names = tuple(f.name for f in flds)
    size = len(names)
    known = frozenset(names)
    fills = [(f.name, f.default, f.factory) for f in flds]
    set_dict = object.__setattr__

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
                values = bind(args, kwargs)
            else:
                values = dict(zip(names, args))
            for name, convert in converts:
                values[name] = convert(values[name])
            set_dict(self, "__dict__", values)

    else:

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != size:
                self.__dict__ = bind(args, kwargs)
            else:
                self.__dict__ = dict(zip(names, args))

    __init__.__qualname__ = f"{qualname}.__init__"
    return __init__
