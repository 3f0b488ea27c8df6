"""The write side of the record schema: the indented writer behind
:func:`~.bundle.serialize_bundle`.

The writer renders exactly what ``json.dumps(encode(record), indent=2,
ensure_ascii=False)`` renders, but straight from the record, walking the
specs of its class; ``json.dumps`` with an indent would use the pure-Python
encoder. ``bundle.py`` imports this module on first use, so commands that
never write a bundle do not load it.

A spec's writer is a pair (inline, write): ``inline`` maps the class of a
value the spec expects to a function giving its JSON text, and
``write(value, nl)`` renders any other value, given the newline-plus-indent
string of the line the value starts on.

Records below the bundle are frozen values, so a record's text is a
function of the record alone. :func:`write_bundle` keeps the text of each
top-level record of the bundle it last wrote and renders only the records
it has no text for.
"""

from __future__ import annotations

import json
import weakref
from functools import partial
from typing import Any, Callable

from .bundle import CODECS, value_encoder
from .identifiers import Identifier
from .model import BOOL, ENUM, IDENT, INT, LAYER, LIST, RECORD, STR, TIER, ProjectBundle, Spec, Tier
from .records import FrozenDict, FrozenList

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


_OBJECTS = frozenset({dict, FrozenDict})
_ARRAYS = frozenset({list, tuple, FrozenList})


def _json_text(value: Any, nl: str) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` re-indented to
    ``nl``, for free JSON (event payloads, maps) and encoded records. A
    value of any class but dict, list, tuple (or their frozen forms), str,
    int, float, bool and None, or a dict key of any class but those
    scalars, goes to json.dumps itself; encoded JSON holds no raw newline,
    so the re-indent is exact."""
    cls = value.__class__
    if cls is str:
        return _quote(value)
    if cls in _OBJECTS:
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
    if cls in _ARRAYS:
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
        if values.__class__ is not tuple and values.__class__ is not list:
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


#: Persisted class -> its record writer. CODECS lists nested classes
#: before the classes holding them, so each finds its nested ones here.
WRITERS: dict[type, Callable[[Any, str], str]] = {}
for _cls in CODECS:
    WRITERS[_cls] = _record_writer(_cls)


# ---------------------------------------------------------------------------
# The bundle, from the texts of its top-level records
# ---------------------------------------------------------------------------

_TOP = "\n  "  # where a top-level key starts
_ITEM = _TOP + "  "  # where a top-level record starts
_NEXT = "," + _ITEM  # between two top-level records
#: For each field of the bundle: the text before its value (the separator,
#: the newline and the escaped key), the field name, for a list of records
#: the set of its class and the class's writer (else None), and the
#: field's (inline, write) pair.
_LAYOUT = [
    (("," if i else "") + _TOP + _quote(key) + ": ", name,
     ({spec.of.of}, WRITERS[spec.of.of]) if spec.kind == LIST and spec.of.kind == RECORD else None,
     _writer(spec))
    for i, (name, key, spec) in enumerate(CODECS[ProjectBundle].fields)
]
#: id of a top-level record -> (the record, its text), for the records of
#: the bundle written last. An entry holds its record, so no other object
#: can take the record's id while the entry lives.
_texts: dict[int, tuple[Any, str]] = {}
#: A weak reference to the bundle written last: once that bundle is gone,
#: so are its texts, and the records only they kept.
_written: weakref.ref | None = None


def _forget(ref: weakref.ref) -> None:
    global _texts
    if ref is _written:
        _texts = {}


def write_bundle(bundle: Any) -> str:
    """The bundle's document, as ``WRITERS[ProjectBundle]`` renders it,
    with its final newline. A top-level record that the previous call
    rendered is not rendered again; the texts kept afterwards are those of
    this bundle, until it is dropped. The document is one join of the
    pieces, so a kept text is copied once."""
    global _texts, _written
    values = bundle.__dict__
    if bundle.__class__ is not ProjectBundle or len(values) != len(_LAYOUT):
        return WRITERS[ProjectBundle](bundle, "\n") + "\n"
    old, texts = _texts, {}
    pieces = ["{"]
    for lead, name, section, (inline, write) in _LAYOUT:
        pieces.append(lead)
        value = values[name]
        # A list holding anything but the section's records is written
        # whole, and none of its texts is kept.
        if section is None or value.__class__ is not list or set(map(type, value)) != section[0]:
            text = inline.get(value.__class__)
            pieces.append(text(value) if text else write(value, _TOP))
            continue
        write_record = section[1]
        pieces.append("[" + _ITEM)
        for record in value:
            key = id(record)
            entry = old.get(key)
            if entry is None:
                entry = (record, write_record(record, _ITEM))
            texts[key] = entry
            pieces.append(entry[1])
            pieces.append(_NEXT)
        pieces[-1] = _TOP + "]"
    pieces.append("\n}\n")
    _texts = texts
    if _written is None or _written() is not bundle:
        _written = weakref.ref(bundle, _forget)
    return "".join(pieces)
