"""The write side of the record schema: the indented writer behind
:func:`~.bundle.serialize_bundle` and the copier behind
:func:`~.bundle.clone`.

The writer renders exactly what ``json.dumps(encode(record), indent=2,
ensure_ascii=False)`` renders, but straight from the record, walking the
specs of its class; ``json.dumps`` with an indent would use the pure-Python
encoder. ``bundle.py`` imports this module on first use, so commands that
never write a bundle do not load it.

A spec's writer is a pair (inline, write): ``inline`` maps the class of a
value the spec expects to a function giving its JSON text, and
``write(value, nl)`` renders any other value, given the newline-plus-indent
string of the line the value starts on.
"""

from __future__ import annotations

import copy
import json
from functools import partial
from typing import Any, Callable

from .bundle import CODECS, value_encoder
from .identifiers import Identifier
from .model import BOOL, ENUM, IDENT, INT, JSON, LAYER, LIST, MAP, RECORD, STR, TIER, Spec, Tier

_quote = json.encoder.encode_basestring  # json.dumps' string form with ensure_ascii=False
_dump = json.JSONEncoder(indent=2, ensure_ascii=False).encode
_NULL = {type(None): lambda _: "null"}
_IDENT_TEXT = {Identifier: lambda ident: _quote(ident.render())}
_TIER_TEXT = {tier: _quote(tier.label) for tier in Tier}
#: Kind -> its inline table. encode() renders None as null for every kind
#: but a required identifier, which it cannot render.
_INLINE = {
    STR: {str: _quote, **_NULL},
    BOOL: {bool: lambda b: "true" if b else "false", **_NULL},
    INT: {int: int.__repr__, **_NULL},
    TIER: {Tier: _TIER_TEXT.__getitem__, **_NULL},
    IDENT: {**_IDENT_TEXT, **_NULL},
}
_INLINE[ENUM] = _INLINE[STR]
_INLINE[LAYER] = _INLINE[IDENT]


_INF = float("inf")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


#: Class -> JSON text of a scalar, and of a dict key of that class.
_SCALARS = {
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_text(value: Any, nl: str) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` re-indented to
    ``nl``, for free JSON (event payloads, maps) and encoded records. A
    value of any class but dict, list, tuple, str, int, float, bool and
    None, or a dict key of any class but those scalars, goes to json.dumps
    itself; encoded JSON holds no raw newline, so the re-indent is exact."""
    cls = value.__class__
    if cls is str:
        return _quote(value)
    if cls is dict:
        if not value:
            return "{}"
        inner = nl + "  "
        parts = []
        for key, item in value.items():
            if key.__class__ is not str:
                text = _SCALARS.get(key.__class__)
                if text is None:
                    return _dump(value).replace("\n", nl)
                key = text(key)
            parts.append(_quote(key) + ": " + _json_text(item, inner))
        return _enclose(parts, "{}", inner, nl)
    if cls is list or cls is tuple:
        if not value:
            return "[]"
        inner = nl + "  "
        return _enclose([_json_text(item, inner) for item in value], "[]", inner, nl)
    text = _SCALARS.get(cls)
    return _dump(value).replace("\n", nl) if text is None else text(value)


def _dumper(enc: Callable | None) -> Callable[[Any, str], str]:
    """The general path: encode, then render the JSON."""
    if enc is None:
        return _json_text
    return lambda value, nl: _json_text(enc(value), nl)


def _enclose(parts: list[str], brackets: str, inner: str, nl: str) -> str:
    """Non-empty parts one per line between brackets. One join, so a large
    value is copied once."""
    parts[0] = brackets[0] + inner + parts[0]
    parts[-1] += nl + brackets[1]
    return ("," + inner).join(parts)


def _writer(spec: Spec) -> tuple[dict, Callable[[Any, str], str]]:
    """(inline, write) for one spec. MAP and JSON values, and values of a
    class the spec does not expect, take the general path."""
    kind = spec.kind
    if kind == RECORD:
        return {}, WRITERS[spec.of]
    dumped = _dumper(value_encoder(spec))
    if kind == IDENT or kind == LAYER:
        return (_INLINE[kind] if spec.nullable else _IDENT_TEXT), dumped
    if kind != LIST:
        return _INLINE.get(kind, {}), dumped
    inline, write = _writer(spec.of)

    def write_list(values: Any, nl: str) -> str:
        if values.__class__ is not list:
            return dumped(values, nl)
        if not values:
            return "[]"
        inner = nl + "  "
        # Inline where the item's class allows, without a call per item.
        parts = [text(v) if (text := inline.get(v.__class__)) else write(v, inner) for v in values]
        return _enclose(parts, "[]", inner, nl)

    return {}, write_list


def _record_writer(cls: type) -> Callable[[Any, str], str]:
    codec = CODECS[cls]
    # (escaped '"key": ', field name, inline, write); a key path's head
    # is one entry whose write renders its group from the record's values.
    layout: list[tuple] = []
    groups: dict[str, list] = {}

    def write_object(layout: list, values: dict, nl: str) -> str:
        inner = nl + "  "
        parts = [
            prefix + (text(v) if (text := inline.get((v := values[name]).__class__))
                      else write(v, inner))
            for prefix, name, inline, write in layout
        ]
        return _enclose(parts, "{}", inner, nl)

    for name, key, spec in codec.fields:
        if key.__class__ is str:
            layout.append((_quote(key) + ": ", name, *_writer(spec)))
            continue
        head, sub = key
        if head not in groups:
            groups[head] = []
            layout.append((_quote(head) + ": ", head, {}, partial(write_object, groups[head])))
        groups[head].append((_quote(sub) + ": ", name, *_writer(spec)))
    size = len(codec.fields)
    dumped = _dumper(codec.encode)

    def write_record(record: Any, nl: str) -> str:
        values = record.__dict__
        # encode() copies __dict__ whole, so a record holding anything but
        # its fields takes the general path.
        if record.__class__ is not cls or len(values) != size:
            return dumped(record, nl)
        if groups:  # each head reads its group's fields from the values
            values = {**values, **dict.fromkeys(groups, values)}
        return write_object(layout, values, nl)

    return write_record


# ---------------------------------------------------------------------------
# Copies
# ---------------------------------------------------------------------------


def _copier(spec: Spec) -> Callable | None:
    """Copier for one spec's values; None where values are immutable
    (str, bool, int, Identifier, Tier) and shared."""
    kind = spec.kind
    if kind == LIST:
        item = _copier(spec.of)
        return list if item is None else lambda values: list(map(item, values))
    if kind == MAP:
        return dict
    if kind == JSON:
        return _copy_json
    if kind == RECORD:
        return CLONERS[spec.of]
    return None


_ATOMS = frozenset({str, int, float, bool, type(None)})


def _copy_json(value: Any) -> Any:
    """``copy.deepcopy`` of free JSON: dicts and lists are rebuilt, JSON
    scalars shared, and any other value deep-copied."""
    cls = value.__class__
    if cls is dict:
        return {key: _copy_json(item) for key, item in value.items()}
    if cls is list:
        return [_copy_json(item) for item in value]
    if cls in _ATOMS:
        return value
    return copy.deepcopy(value)


def _record_cloner(cls: type) -> Callable[[Any], Any]:
    fields = CODECS[cls].fields
    copiers = [(name, c) for name, _, spec in fields if (c := _copier(spec)) is not None]
    new = object.__new__

    def clone_record(record: Any) -> Any:
        values = record.__dict__.copy()
        for name, copy_value in copiers:
            values[name] = copy_value(values[name])
        out = new(record.__class__)
        out.__dict__ = values
        return out

    return clone_record


#: Persisted class -> its record writer and its record cloner. CODECS lists
#: nested classes before the classes holding them, so each finds its nested
#: ones here.
WRITERS: dict[type, Callable[[Any, str], str]] = {}
CLONERS: dict[type, Callable[[Any], Any]] = {}
for _cls in CODECS:
    WRITERS[_cls] = _record_writer(_cls)
    CLONERS[_cls] = _record_cloner(_cls)
