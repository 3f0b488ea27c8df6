"""The engine's JSON text writer: :func:`json_text`, for every structured
output, and :func:`write_bundle`, behind :func:`~.bundle.serialize_bundle`.

Both render exactly what ``json.dumps(value, indent=2, ensure_ascii=False)``
renders; ``json.dumps`` with an indent would use the pure-Python encoder,
which leaves reference cycles behind. Modules import this one on first use,
so commands that neither write nor print structured output do not load it.

A record takes its class's path, as in the decoder. A cold class's
records are encoded and the JSON rendered (:func:`json_text`). A hot
class, one whose decoder is generated, gets a writer generated from its
specs (``codegen.py``) the first time one of its records is written
(``bundle._Codec.writer``); it fills one ``%`` template per indent from
straight-line field expressions. A command on a small bundle compiles none.

Records below the bundle are frozen values, so a record's text is a
function of the record alone. :func:`write_bundle` keeps the text of each
top-level record of the bundle it last wrote and renders only the records
it has no text for.
"""

from __future__ import annotations

import json
import weakref
from typing import Any, Callable

from .bundle import CODECS, value_encoder
from .identifiers import Identifier
from .model import LIST, RECORD, ProjectBundle
from .records import FrozenDict, FrozenList

_quote = json.encoder.encode_basestring  # json.dumps' string form with ensure_ascii=False
_dump = json.JSONEncoder(indent=2, ensure_ascii=False).encode
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


def json_text(value: Any, nl: str = "\n") -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` re-indented to
    ``nl``, for structured output, free JSON and encoded records. A
    value of any class but dict, list, tuple (or their frozen forms), str,
    int, float, bool and None, or a dict key of any class but those
    scalars, goes to json.dumps itself (:func:`_dumped`); encoded JSON
    holds no raw newline, so the re-indent is exact."""
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
                    return _dumped(value, nl)
                key = text(key)
            parts.append(_quote(key) + ": " + json_text(item, inner))
        return _enclose(parts, "{}", inner, nl)
    if cls in _ARRAYS:
        if not value:
            return "[]"
        inner = nl + "  "
        return _enclose([json_text(item, inner) for item in value], "[]", inner, nl)
    text = _SCALARS.get(cls)
    return _dumped(value, nl) if text is None else text(value)


def _dumped(value: Any, nl: str) -> str:
    """json.dumps' text of ``value``, re-indented to ``nl``. An
    :class:`Identifier` is a tuple, which json.dumps would write as an
    array: one anywhere in ``value`` is refused instead, as json.dumps
    refuses any other object it does not know."""
    _refuse_ids(value, set())
    return _dump(value).replace("\n", nl)


def _refuse_ids(value: Any, walking: set) -> None:
    """Raise json.dumps' TypeError at an Identifier in the values that
    json.dumps walks; ``walking`` holds the containers being walked, as a
    cycle is json.dumps' own error to report."""
    if isinstance(value, Identifier):
        raise TypeError("Object of type Identifier is not JSON serializable")
    if isinstance(value, dict):
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    else:
        return
    if id(value) not in walking:
        walking.add(id(value))
        for item in items:
            _refuse_ids(item, walking)
        walking.discard(id(value))


def _dumper(enc: Callable | None) -> Callable[[Any, str], str]:
    """The general path: encode, then render the JSON."""
    if enc is None:
        return json_text
    return lambda value, nl: json_text(enc(value), nl)


def _enclose(parts: list[str], brackets: str, inner: str, nl: str) -> str:
    """Non-empty parts one per line between brackets. One join, so a large
    value is copied once."""
    parts[0] = brackets[0] + inner + parts[0]
    parts[-1] += nl + brackets[1]
    return ("," + inner).join(parts)


# ---------------------------------------------------------------------------
# The bundle, from the texts of its top-level records
# ---------------------------------------------------------------------------

_TOP = "\n  "  # where a top-level key starts
_ITEM = _TOP + "  "  # where a top-level record starts
_NEXT = "," + _ITEM  # between two top-level records
#: For each field of the bundle: the text before its value (the separator,
#: the newline and the escaped key), the field name, for a list of records
#: its class (else None), and the field's general write.
_LAYOUT = [
    (("," if i else "") + _TOP + _quote(key) + ": ", name,
     spec.of.of if spec.kind == LIST and spec.of.kind == RECORD else None,
     _dumper(value_encoder(spec)))
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
    """``json.dumps(encode(bundle), indent=2, ensure_ascii=False) + "\\n"``.
    A top-level record that the previous call rendered is not rendered
    again; the texts kept afterwards are those of this bundle, until it is
    dropped. The document is one join of the pieces, so a kept text is
    copied once."""
    global _texts, _written
    values = bundle.__dict__
    if bundle.__class__ is not ProjectBundle or len(values) != len(_LAYOUT):
        return json_text(CODECS[ProjectBundle].encode(bundle), "\n") + "\n"
    old, texts = _texts, {}
    pieces = ["{"]
    for lead, name, section, write in _LAYOUT:
        pieces.append(lead)
        value = values[name]
        # A section holding anything but a tuple of its records is written
        # whole, and none of its texts is kept.
        if section is None or value.__class__ is not tuple or set(map(type, value)) != {section}:
            pieces.append(write(value, _TOP))
            continue
        codec = CODECS[section]
        fast, encode = codec.writer(), codec.encode
        pieces.append("[" + _ITEM)
        for record in value:
            key = id(record)
            entry = old.get(key)
            if entry is None:
                text = json_text(encode(record), _ITEM) if fast is None else fast(record, _ITEM)
                entry = (record, text)
            texts[key] = entry
            pieces.append(entry[1])
            pieces.append(_NEXT)
        pieces[-1] = _TOP + "]"
    pieces.append("\n}\n")
    _texts = texts
    if _written is None or _written() is not bundle:
        _written = weakref.ref(bundle, _forget)
    return "".join(pieces)
