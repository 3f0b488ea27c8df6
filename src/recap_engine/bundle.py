"""Parse, validate, and serialize the canonical bundle document.

The on-disk form is a single UTF-8 JSON document with fixed top-level keys.
Parsing either returns a fully-resolved model or a list of located
diagnostics, never both. Serialization is deterministic and round-trips:
``parse(serialize(b)) == b`` for every invariant-satisfying bundle.

Every persisted record is described once, by the :class:`~.model.Spec` of
each of its fields. One strict decoder and one encoder walk those specs,
for the bundle and for every record an event payload carries; so do
the indented writer behind :func:`serialize_bundle` (``writer.py``) and
:func:`declarations`, the walk over every declaration by the kind its
identity spec ``declares``. The decoder builds each value as its frozen
record holds it: lists as tuples, maps and free JSON read-only.
"""

from __future__ import annotations

import json
import re
from functools import partial
from itertools import chain, compress, count
from operator import attrgetter, is_not
from pathlib import Path
from typing import Any, Callable, Iterator

from .diagnostics import Diagnostic, OperationRejected, Severity, error, warning
from .identifiers import EMBEDDED_REF_RE, KIND_TO_NAMESPACE, Identifier, is_bare_name
from .identifiers import parse_identifier
from .model import BOOL, ENUM, IDENT, INT, JSON, LAYER, LIST, MAP, RECORD, STR, TIER
from .model import (
    ADDED_KINDS,
    EFFECT_KEYS,
    EVENT_PAYLOADS,
    Assessment,
    AuditEvent,
    DeclarationAdded,
    DeclaredAssumption,
    EvidentialUnit,
    Law,
    LayerDecl,
    ProjectBundle,
    ProjectDecl,
    ResolutionEffect,
    Route,
    Spec,
    Tier,
    event_time_key,
    event_timestamp_error,
    snake_name,
)
from .records import MISSING, FrozenDict, FrozenList, field, fields, freeze, record

VERSION_RE = re.compile(r"^v(\d+)\.(\d+)$")

#: One escape of a JSON string; group 1 is set when it stands for a lone
#: surrogate, which UTF-8 cannot encode. A surrogate pair is one match.
_ESCAPE_RE = re.compile(
    r"\\(?:u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}"
    r"|(u[dD][89a-fA-F][0-9a-fA-F]{2})|.)"
)

_ABSENT = object()  # a key missing from its JSON object
_TIERS = {tier.label: tier for tier in Tier}


@record
class ParseResult:
    """Outcome of a parse: a bundle plus warnings, or error diagnostics."""

    bundle: ProjectBundle | None
    diagnostics: list[Diagnostic] = field(factory=list)

    @property
    def ok(self) -> bool:
        return self.bundle is not None

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]


# ---------------------------------------------------------------------------
# The codec: one entry per persisted class, built at import
# ---------------------------------------------------------------------------


def _render(ident: Identifier | None) -> str | None:
    return None if ident is None else ident.render()


def value_encoder(spec: Spec) -> Callable | None:
    """Value encoder for one spec; None when the value is already JSON."""
    kind = spec.kind
    if kind == IDENT or kind == LAYER:
        return _render if spec.nullable else Identifier.render
    if kind == TIER:
        return lambda tier: None if tier is None else tier.label
    if kind == MAP:
        return dict
    if kind == RECORD:
        return CODECS[spec.of].encode
    if kind == LIST:
        item = value_encoder(spec.of)
        if item is None:
            return list
        return lambda values: list(map(item, values))
    return None


class _Codec:
    """The specs of one persisted class, in field order."""

    def __init__(self, cls: type):
        self.cls = cls
        self.name = snake_name(cls)
        #: (field name, JSON key or key path, spec)
        self.fields = [(f.name, f.spec.key or f.name, f.spec) for f in fields(cls)]
        self.specs = {name: spec for name, _, spec in self.fields}
        self.encode = _record_encoder(self.fields)
        self.text = [(name, key if key.__class__ is str else ".".join(key))
                     for name, key, spec in self.fields if spec.text]
        self.text_fields = tuple(name for name, _, s in self.fields if s.text and s.kind == STR)
        self.body = tuple(name for name, _, spec in self.fields if spec.body)
        self.layer_refs = [name for name, _, spec in self.fields if spec.kind == LAYER]
        self.check = _CHECKS.get(cls)
        self.decoders = {name: _field_decoder(spec) for name, _, spec in self.fields}
        self.identity: Callable | None = None
        #: The declaration kind the class declares, if any, and its list
        #: fields that hold declarations at any depth, with their codecs.
        self.declares = self.fields[0][2].declares
        lists = [(name, CODECS[spec.of.of]) for name, _, spec in self.fields
                 if spec.kind == LIST and spec.of.kind == RECORD]
        self.holds = [(name, item) for name, item in lists if item.declares or item.holds]
        #: The fields that may cite a declaration: texts, references, and
        #: records holding either.
        self.cites = tuple(name for name, _, spec in self.fields if _cites(spec))
        named: tuple[str, ...] = ()
        if cls is LayerDecl:
            self.identity, named = _layer_identity, ("id", "kind")
        elif self.fields[0][2].identity:
            self.identity, named = _identity, (self.fields[0][0],)
        #: Fields read after the identity: (name, JSON key, label, the
        #: class of a raw value that needs no decoding or None, field
        #: decoder). A key path's field reads its head's value.
        self.rest = []
        heads: set[str] = set()
        for name, key, spec in self.fields:
            if name in named:
                continue
            if key.__class__ is str:
                plain = _PLAIN.get(spec.kind, _NONE if spec.nullable else None)
                self.rest.append((name, key, key, plain, self.decoders[name]))
                continue
            decode = _nested_decoder(key, self.decoders[name], report=key[0] not in heads)
            heads.add(key[0])
            self.rest.append((name, key[0], ".".join(key), None, decode))


def _cites(spec: Spec) -> bool:
    """Whether a field of this spec may hold a reference."""
    item = spec.of if spec.kind == LIST else spec
    return spec.text or bool(item.expect) or (item.kind == RECORD and bool(CODECS[item.of].cites))


def _record_encoder(specs: list) -> Callable[[Any], dict]:
    converters = [(name, value_encoder(spec)) for name, _, spec in specs if value_encoder(spec)]

    def encode_record(record: Any) -> dict:
        # A record's __dict__ holds exactly its fields, in declaration
        # order; copying it is the fast way to read them all.
        out = dict(record.__dict__)
        for name, enc in converters:
            out[name] = enc(out[name])
        return out

    keys = [key for _, key, _ in specs]
    if all(key.__class__ is str for key in keys):
        return encode_record

    def encode_nested(record: Any) -> dict:
        out: dict = {}
        for key, value in zip(keys, encode_record(record).values()):
            if key.__class__ is str:
                out[key] = value
            else:
                out.setdefault(key[0], {})[key[1]] = value
        return out

    return encode_nested


#: Kind -> the class of a raw value that is its own decoded value; for
#: other nullable kinds, null is.
_PLAIN = {STR: str, BOOL: bool, INT: int}
_NONE = type(None)
#: The classes of a raw JSON array and object: json.loads builds the plain
#: ones, and a stored event payload holds the frozen ones.
_ARRAYS = frozenset({list, FrozenList})
_OBJECTS = frozenset({dict, FrozenDict})


CODECS: dict[type, _Codec] = {}


def _build(cls: type) -> None:
    if cls in CODECS:
        return
    for f in fields(cls):
        if f.spec is None:
            raise TypeError(f"{cls.__name__}.{f.name} has no spec")
        inner = f.spec.of if f.spec.kind == LIST else f.spec
        if inner.kind == RECORD:
            _build(inner.of)
    CODECS[cls] = _Codec(cls)


TOP_LEVEL_KEYS = tuple(f.name for f in fields(ProjectBundle))


def text_fields(cls: type) -> tuple[str, ...]:
    """Names of the string fields scanned for embedded references."""
    return CODECS[cls].text_fields


def body_fields(cls: type) -> tuple[str, ...]:
    """Names of the fields that make up a frozen route's fingerprint."""
    return CODECS[cls].body


def field_effect(cls: type, name: str) -> str | None:
    """The resolution effect that edits field ``name`` of ``cls``, by its
    spec: ``edit_text`` for a text, ``edit_list_item`` for a list of texts,
    ``clear_ref`` for a nullable reference and ``remove_ref`` for a list of
    references; None for any other field."""
    spec = CODECS[cls].specs.get(name)
    if spec is None:
        return None
    many = spec.kind == LIST
    item = spec.of if many else spec
    if item.kind == STR and spec.text:
        return "edit_list_item" if many else "edit_text"
    if item.kind == IDENT and item.expect and (many or spec.nullable):
        return "remove_ref" if many else "clear_ref"
    return None


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


class _IdentMemo(dict):
    """Raw string -> its :class:`Identifier`, the string itself when it is a
    bare name, or None; each distinct string is parsed once per parse."""

    def __missing__(self, raw: str) -> Identifier | str | None:
        parsed = parse_identifier(raw)
        if parsed is None and is_bare_name(raw):
            parsed = raw
        self[raw] = parsed
        return parsed


_ANY = ("any",)


class _Decoder:
    """Strict spec-driven decoder collecting located diagnostics as it walks.

    A context ``(namespace, layer, owner)`` names the declaring layer and
    the owner of the enclosing record, where bare names default to.

    Each field goes through its codec's field decoder, which decodes a
    well-typed value inline and hands anything else to :meth:`value`, the
    one place that reports; a location is rendered only there, or when a
    reference fails to resolve.
    """

    def __init__(self, idents: _IdentMemo | None = None) -> None:
        self.diagnostics: list[Diagnostic] = []
        #: (canonical id, expected kinds, path, label, index); the location
        #: is rendered only if the reference fails to resolve.
        self.references: list[tuple] = []
        self.idents = _IdentMemo() if idents is None else idents

    def fail(self, path: str, message: str, code: str = "E_SYNTAX") -> None:
        self.diagnostics.append(error(code, path, message))

    def scan_text(self, text: str, path: str, label: str, index: int | None) -> None:
        # Every token the pattern finds is a canonical id.
        for token in EMBEDDED_REF_RE.findall(text):
            self.references.append((token, _ANY, path, label, index))

    def container(self, raw: Any, path: str) -> dict:
        if raw is _ABSENT:
            return {}
        if isinstance(raw, dict):
            return raw
        self.fail(path, f"expected object, got {type(raw).__name__}")
        return {}

    def value(self, spec: Spec, raw: Any, path: str, ctx: tuple) -> Any:
        kind = spec.kind
        if spec.nullable and (raw is None or raw is _ABSENT):
            return None
        if kind == STR or kind == ENUM:
            value = raw
            if raw is None or raw is _ABSENT:
                value = ""
            elif not isinstance(raw, str):
                self.fail(path, f"expected {spec.noun or 'string, got ' + type(raw).__name__}")
                value = ""
            if kind == STR or value in spec.of:
                return value
            self.fail(path, f"{value!r} is not one of {sorted(spec.of)}")
            return spec.of[0]
        if kind == BOOL:
            if raw is _ABSENT:
                return False
            if isinstance(raw, bool):
                return raw
            self.fail(path, f"expected boolean, got {type(raw).__name__}")
            return False
        if kind == INT:
            if isinstance(raw, int) and not isinstance(raw, bool):
                return raw
            self.fail(path, f"expected {spec.noun or 'integer'}")
            return None
        if kind == TIER:
            tier = _TIERS.get(raw) if isinstance(raw, str) else None
            if tier is None:
                self.fail(path, f"{None if raw is _ABSENT else raw!r} is not a tier")
            return tier
        if kind == IDENT:
            if not isinstance(raw, str) or not raw:
                self.fail(path, "expected identifier string")
                return None
            parsed = self.idents[raw]
            if parsed.__class__ is not Identifier:
                if spec.owner is None or parsed is None:
                    self.fail(path, f"{raw!r} is not a valid identifier")
                    return None
                ns, layer, owner = ctx
                if spec.owner == "child":
                    parsed = Identifier("child", owner, raw)
                else:
                    parsed = Identifier(ns, layer if ns != "gp" else "", raw)
            if spec.expect:
                self.references.append((parsed.render(), spec.expect, path, None, None))
            return parsed
        if kind == LAYER:
            # Bare names stay strings until every layer is known.
            if not isinstance(raw, str) or not raw:
                self.fail(path, "expected layer reference")
                return None
            parsed = self.idents[raw]
            if parsed is not None:
                return parsed
            self.fail(path, f"{raw!r} is not a valid layer reference")
            return None
        if kind == LIST:
            return self.items(spec.of, raw, path, path, ctx)
        if kind == MAP:
            out = {}
            for key, item in self.container(raw, path).items():
                if isinstance(item, str):
                    out[key] = item
                else:
                    self.fail(f"{path}.{key}", "expected string")
            return FrozenDict(out)
        if kind == JSON:
            return freeze(self.container(raw, path))
        if not isinstance(raw, dict):
            self.fail(path, "expected object")
            return None
        return self.record(CODECS[spec.of], raw, path, ctx)

    def items(self, spec: Spec, raw: Any, path: str, prefix: str, ctx: tuple) -> tuple:
        if raw is _ABSENT:
            return ()
        if not isinstance(raw, list):
            self.fail(path, f"expected list, got {type(raw).__name__}")
            return ()
        kind = spec.kind
        out = []
        for i, item in enumerate(raw):
            if kind == STR:
                if not isinstance(item, str):
                    self.fail(f"{prefix}[{i}]", "expected string")
                    continue
            elif kind == ENUM:
                if item not in spec.of:
                    noun = spec.noun or f"one of {sorted(spec.of)}"
                    self.fail(f"{prefix}[{i}]", f"{item!r} is not {noun}")
                    continue
            elif kind == RECORD:
                if not isinstance(item, dict):
                    self.fail(f"{prefix}[{i}]", "expected object")
                    continue
                item = self.record(CODECS[spec.of], item, f"{prefix}[{i}]", ctx)
            else:
                item = self.value(spec, item, f"{prefix}[{i}]", ctx)
            if item is not None:
                out.append(item)
        return tuple(out)

    def record(self, codec: _Codec, obj: dict, path: str, ctx: tuple) -> Any:
        values: dict[str, Any] = {}
        if codec.identity is not None:
            named = codec.identity(self, codec, obj, path, ctx)
            if named is None:
                return None
            values, ctx = named
        get = obj.get
        for name, key, label, plain, decode_value in codec.rest:
            raw = get(key, _ABSENT)
            if raw.__class__ is plain:  # decoded already
                values[name] = raw
            else:
                values[name] = decode_value(self, raw, path, label, ctx)
        # Every field is in ``values``, in declaration order, each held as
        # its spec says, so this is what the record __init__ would build.
        record = _new(codec.cls)
        _set_dict(record, "__dict__", values)
        for name, label in codec.text:
            text = values[name]
            # Every canonical reference holds one of the namespace prefixes.
            if text.__class__ is str:
                if "child:" in text or "parent:" in text or "gp:" in text:
                    self.scan_text(text, path, label, None)
            else:
                for i, item in enumerate(text):
                    if "child:" in item or "parent:" in item or "gp:" in item:
                        self.scan_text(item, path, label, i)
        if codec.check is not None:
            codec.check(self, record, obj, path)
        return record


_new = object.__new__
_set_dict = object.__setattr__  # a frozen record's own __setattr__ refuses


def _field_decoder(spec: Spec) -> Callable:
    """Decoder of one field: ``(decoder, raw, path, label, ctx)``, the
    field's location being ``path.label``. It decodes a well-typed value
    inline and hands any other value, with its rendered location, to
    :meth:`_Decoder.value`. A list is decoded inline only when every item
    is well-typed, so that :meth:`_Decoder.items` reports a bad one in
    order; bare names, which take their owner from the context, take the
    general path too."""
    kind = spec.kind
    item = spec.of if kind == LIST else spec

    def general(dec, raw, path, label, ctx):
        return dec.value(spec, raw, f"{path}.{label}", ctx)

    decode = general  # the _PLAIN kinds, and a lone RECORD, which is rare
    if kind == ENUM or kind == TIER:
        table = _TIERS if kind == TIER else {member: member for member in spec.of}

        def decode(dec, raw, path, label, ctx):
            value = table.get(raw) if raw.__class__ is str else None
            return general(dec, raw, path, label, ctx) if value is None else value

    elif kind == MAP:

        def decode(dec, raw, path, label, ctx):
            if raw.__class__ in _OBJECTS and all(map(str.__instancecheck__, raw.values())):
                return FrozenDict(raw)
            return general(dec, raw, path, label, ctx)

    elif kind == JSON:

        def decode(dec, raw, path, label, ctx):
            return freeze(raw) if raw.__class__ is dict else general(dec, raw, path, label, ctx)

    elif kind == IDENT or kind == LAYER:
        expect, bare = spec.expect, kind == LAYER  # a layer keeps a bare name for now

        def decode(dec, raw, path, label, ctx):
            ident = dec.idents[raw] if raw.__class__ is str else None
            if ident.__class__ is not Identifier and (ident is None or not bare):
                return general(dec, raw, path, label, ctx)
            if expect:
                dec.references.append((raw, expect, path, label, None))
            return ident

    elif kind == LIST and (item.kind == STR or item.kind == ENUM):
        check = str.__instancecheck__ if item.kind == STR else item.of.__contains__

        def decode(dec, raw, path, label, ctx):
            if raw.__class__ in _ARRAYS and all(map(check, raw)):
                return tuple(raw)
            return general(dec, raw, path, label, ctx)

    elif kind == LIST and item.kind == RECORD:
        codec = CODECS[item.of]

        def decode(dec, raw, path, label, ctx):
            if raw.__class__ in _ARRAYS:
                if not raw:
                    return ()
                if all(obj.__class__ in _OBJECTS for obj in raw):
                    out = []
                    for i, obj in enumerate(raw):
                        record = dec.record(codec, obj, f"{path}.{label}[{i}]", ctx)
                        if record is not None:
                            out.append(record)
                    return tuple(out)
            return general(dec, raw, path, label, ctx)

    elif kind == LIST:  # identifiers
        expect = item.expect

        def decode(dec, raw, path, label, ctx):
            if raw.__class__ in _ARRAYS:
                memo = dec.idents
                idents = tuple([memo[value] if value.__class__ is str else None for value in raw])
                if all(ident.__class__ is Identifier for ident in idents):
                    if expect:
                        dec.references += [(v, expect, path, label, i) for i, v in enumerate(raw)]
                    return idents
            return general(dec, raw, path, label, ctx)

    return decode


def _nested_decoder(key: tuple[str, str], decode: Callable, report: bool) -> Callable:
    """Field decoder of a key path ``(head, sub)``, given the head's raw
    value. Only the first field under a head reports a head that is not an
    object."""
    head, sub = key

    def decode_nested(dec, raw, path, label, ctx):
        if raw.__class__ is not dict:
            if report:
                raw = dec.container(raw, f"{path}.{head}")
            elif not isinstance(raw, dict):
                raw = {}
        return decode(dec, raw.get(sub, _ABSENT), path, label, ctx)

    return decode_nested


def _identity(dec: _Decoder, codec: _Codec, obj: dict, path: str, ctx: tuple):
    """Decode the naming field first; it sets the owner for bare names."""
    name, key, spec = codec.fields[0]
    ident = codec.decoders[name](dec, obj.get(key, _ABSENT), path, key, ctx)
    if ident is None:
        return None
    ns, layer, _ = ctx
    # Laws are decoded on any layer kind; declaring them below the
    # grandparent is a contamination finding, not a parse failure. Ids live
    # in the declaring layer's namespace either way.
    if spec.owner == "layer" and (ident.namespace != ns or (ns != "gp" and ident.owner != layer)):
        dec.fail(f"{path}.{key}", f"{ident.render()} is not owned by this layer")
        return None
    plural = _CHILD_IDS.get(codec.cls)
    if plural is not None and ident.namespace != "child":
        dec.fail(f"{path}.{key}", f"{plural} live in the child namespace")
        return None
    if ident.__class__ is Identifier:
        ctx = (ns, layer, ident.owner)
    return {name: ident}, ctx


def _layer_identity(dec: _Decoder, codec: _Codec, obj: dict, path: str, ctx: tuple):
    """A layer's kind picks the namespace its bare id and declarations use."""
    kind = codec.decoders["kind"](dec, obj.get("kind", _ABSENT), path, "kind", ctx)
    ns = KIND_TO_NAMESPACE.get(kind, "gp")
    raw_id = obj.get("id")
    if not isinstance(raw_id, str) or not raw_id:
        dec.fail(f"{path}.id", "layer id missing")
        return None
    parsed = dec.idents[raw_id]
    if parsed.__class__ is not Identifier:
        if parsed is None:
            dec.fail(f"{path}.id", f"{raw_id!r} is not a valid identifier")
            return None
        parsed = Identifier(ns, "" if ns == "gp" else raw_id, raw_id)
    if parsed.namespace != ns:
        dec.fail(
            f"{path}.id",
            f"layer id namespace {parsed.namespace!r} does not match kind {kind!r}",
        )
    return {"id": parsed, "kind": kind}, (ns, parsed.local_name, parsed.owner)


def _check_layer(dec: _Decoder, layer: LayerDecl, obj: dict, path: str) -> None:
    if obj.get("parent_ref") is None and layer.kind != "grandparent":
        dec.fail(f"{path}.parent_ref", f"{layer.kind} layer requires parent_ref")


def _check_unit(dec: _Decoder, unit: EvidentialUnit, obj: dict, path: str) -> None:
    raw = obj.get("interpretations")
    if not isinstance(raw, list) or not raw:
        dec.fail(f"{path}.interpretations", "unit requires at least one interpretation")


def _check_assumption(dec: _Decoder, da: DeclaredAssumption, obj: dict, path: str) -> None:
    if not da.covers:
        dec.fail(f"{path}.covers", "assumption must cover at least one dimension")


def _check_event(dec: _Decoder, event: AuditEvent, obj: dict, path: str) -> None:
    # The decoder reported a non-string timestamp already; a missing or
    # null one decoded to "".
    raw = obj.get("timestamp")
    message = event_timestamp_error(event.timestamp)
    if message and (raw is None or raw.__class__ is str):
        dec.fail(f"{path}.timestamp", message)
    try:
        _decode_payload(event.kind, event.payload, dec.idents)
    except ValueError as exc:
        dec.fail(f"{path}.payload", str(exc), code="E_PAYLOAD_SCHEMA")


def _check_effect(dec: _Decoder, effect: ResolutionEffect, obj: dict, path: str) -> None:
    missing = [key for key in EFFECT_KEYS[effect.op] if obj.get(key) is None]
    if missing:
        dec.fail(path, f"{effect.op} effect missing keys: {', '.join(missing)}")
    elif effect.op == "add_law" or effect.op == "add_abstraction":
        effect.record = _decode_added(dec, effect.op[4:], effect.layer, effect.record, path)


def _check_declaration_added(dec: _Decoder, added: DeclarationAdded, obj: dict, path: str) -> None:
    added.record = _decode_added(dec, added.decl_kind, added.layer, added.record, path)


def _decode_added(dec: _Decoder, kind: str, layer: Identifier | None, raw: Any, path: str) -> Any:
    """The ``record`` a payload adds as a declaration of ``kind``: a law or
    an abstraction as ``layer`` declares it, a unit or a contract as the
    bundle does."""
    ctx = ("child", "", "")
    if kind == "law" or kind == "abstraction":
        if layer is None:
            dec.fail(f"{path}.layer", f"a {kind} is added to a layer")
            return None
        ctx = (layer.namespace, layer.local_name, layer.local_name)
    return dec.value(Spec(RECORD, ADDED_KINDS[kind]), raw, f"{path}.record", ctx)


_CHILD_IDS = {EvidentialUnit: "units", Route: "routes", ProjectDecl: "projects"}
_CHECKS = {
    LayerDecl: _check_layer,
    EvidentialUnit: _check_unit,
    DeclaredAssumption: _check_assumption,
    AuditEvent: _check_event,
    ResolutionEffect: _check_effect,
    DeclarationAdded: _check_declaration_added,
}

# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


def declarations(record: Any) -> Iterator[tuple]:
    """Every declaration within a persisted record (a bundle, a layer, ...),
    in document order, as ``(kind, id, holder, field, index, up)``.

    The declaration is ``getattr(holder, field)[index]`` and ``kind`` is
    the ``declares`` of its identity spec. ``up`` is where the holder sits
    under ``record``, for :func:`declaration_location`: None for ``record``
    itself, else ``(up, field, index)`` of the holder.
    """
    return _declarations(record, CODECS[record.__class__], None)


def _declarations(holder: Any, codec: _Codec, up: tuple | None) -> Iterator[tuple]:
    for name, item in codec.holds:
        kind, key, holds = item.declares, item.fields[0][0], item.holds
        for i, record in enumerate(holder.__dict__[name]):
            if kind:
                yield kind, record.__dict__[key], holder, name, i, up
            if holds:
                yield from _declarations(record, item, (up, name, i))


def declared_ids(records: list) -> list[Identifier]:
    """The ids that ``records``, all of one class, and the records nested in
    them declare: the ids :func:`declarations` yields, without their places
    and taken a level at a time, which is several times quicker."""
    if not records:
        return []
    levels = _declared(records, CODECS[records[0].__class__])
    return list(chain.from_iterable(ids for _, ids in levels))


def _declared(records: list, codec: _Codec) -> Iterator[tuple[str, list[Identifier]]]:
    """(declaration kind, ids) for each level of :func:`declared_ids`."""
    if codec.declares:
        yield codec.declares, list(map(attrgetter(codec.fields[0][0]), records))
    for name, item in codec.holds:
        yield from _declared(list(chain.from_iterable(map(attrgetter(name), records))), item)


def declaration_location(holder: Any, name: str, index: int, up: tuple | None) -> str:
    """Where a declaration's id is, e.g. ``layers[0].laws[1].id``, from its
    :func:`declarations` tuple."""
    key = CODECS[holder.__dict__[name][index].__class__].fields[0][1]
    where = f"{name}[{index}].{key}"
    while up is not None:
        up, name, index = up
        where = f"{name}[{index}].{where}"
    return where


def _index_declarations(bundle: ProjectBundle, diags: list[Diagnostic]) -> dict[str, str]:
    """Canonical id -> declaration kind, reporting duplicates."""
    index: dict[str, str] = {}
    for kind, ident, holder, name, i, up in declarations(bundle):
        key = ident.render()
        if key in index:
            where = declaration_location(holder, name, i, up)
            diags.append(error("E_DUP_ID", where, f"duplicate declaration of {key}"))
        else:
            index[key] = kind
    return index


def _resolve_layer_refs(bundle: ProjectBundle, diags: list[Diagnostic]) -> None:
    """Replace bare layer references with canonical layer identifiers. This
    finishes records the parse is still building, which nothing else has
    seen, so it writes their values in place."""
    by_name = {}
    for layer in bundle.layers:
        by_name.setdefault(layer.local_name, []).append(layer)

    def resolve(raw: str, section: str, i: int, name: str) -> Identifier | None:
        candidates = by_name.get(raw, [])
        if len(candidates) == 1:
            return candidates[0].id
        where = f"{section}[{i}].{name}"
        diags.append(error("E_UNRESOLVED_REF", where, f"layer reference {raw!r} does not resolve"))
        return None

    for section, _, spec in CODECS[ProjectBundle].fields[1:]:
        names = CODECS[spec.of.of].layer_refs
        for i, record in enumerate(getattr(bundle, section) if names else ()):
            values = record.__dict__
            for name in names:
                raw = values[name]
                if raw is not None and raw.__class__ is not Identifier:
                    values[name] = resolve(raw, section, i, name)


def _validate_structure(bundle: ProjectBundle, diags: list[Diagnostic]) -> None:
    grandparents = [l for l in bundle.layers if l.kind == "grandparent"]
    if len(grandparents) != 1:
        diags.append(
            error(
                "E_NO_GRANDPARENT",
                "layers",
                f"exactly one grandparent layer required, found {len(grandparents)}",
            )
        )
        return
    by_id: dict[Identifier, LayerDecl] = {}
    for layer in bundle.layers:
        by_id.setdefault(layer.id, layer)
    for i, layer in enumerate(bundle.layers):
        if layer.kind == "grandparent":
            if layer.parent_ref is not None:
                diags.append(
                    error("E_SYNTAX", f"layers[{i}].parent_ref", "grandparent has no parent")
                )
            continue
        if layer.parent_ref is None:
            continue  # already reported
        target = by_id.get(layer.parent_ref)
        if target is None:
            continue  # unresolved, reported by reference pass
        if layer.kind == "parent" and target.kind != "grandparent":
            diags.append(
                error(
                    "E_SYNTAX",
                    f"layers[{i}].parent_ref",
                    "a parent layer answers to the grandparent",
                )
            )
        if layer.kind == "child" and target.kind != "parent":
            diags.append(
                error(
                    "E_SYNTAX",
                    f"layers[{i}].parent_ref",
                    "a child layer answers to a parent layer",
                )
            )
    # abstraction correspondence stays within the declaring parent
    for i, layer in enumerate(bundle.layers):
        local = {ab.id.local_name: ab for ab in layer.abstractions}
        for j, ab in enumerate(layer.abstractions):
            for key, value in ab.correspondence.items():
                path = f"layers[{i}].abstractions[{j}].correspondence"
                if key not in local:
                    diags.append(
                        error("E_UNRESOLVED_REF", path, f"correspondence key {key!r} not declared here")
                    )
                if value not in local:
                    diags.append(
                        error("E_UNRESOLVED_REF", path, f"correspondence value {value!r} not declared here")
                    )
    # event ordering: strictly increasing sequence, timestamp-sorted with
    # sequence as tiebreaker
    last_seq = 0
    last_key: tuple[str, int] | None = None
    for i, event in enumerate(bundle.events):
        if event.sequence <= last_seq:
            diags.append(
                error(
                    "E_SYNTAX",
                    f"events[{i}].sequence",
                    f"sequence {event.sequence} does not increase",
                )
            )
        last_seq = max(last_seq, event.sequence)
        key = (event_time_key(event.timestamp), event.sequence)
        if last_key is not None and key < last_key:
            diags.append(
                error("E_SYNTAX", f"events[{i}]", "events are not ordered by timestamp")
            )
        last_key = key


def _resolve_references(
    decoder: _Decoder, index: dict[str, str], diags: list[Diagnostic]
) -> None:
    for key, expect, path, label, at in decoder.references:
        kind = index.get(key)
        if kind is not None and (kind in expect or "any" in expect):
            continue
        # The location is rendered only here: path, path.label or path.label[at].
        where = path if label is None else f"{path}.{label}"
        if at is not None:
            where = f"{where}[{at}]"
        if kind is None:
            diags.append(error("E_UNRESOLVED_REF", where, f"unresolved reference {key}"))
        else:
            message = f"{key} is a {kind}, expected {' or '.join(expect)}"
            diags.append(error("E_SYNTAX", where, message))


def reference_errors(before: ProjectBundle, after: ProjectBundle) -> list[Diagnostic]:
    """What a parse of ``after`` would report at the references that a
    write put in it: E_UNRESOLVED_REF at one that no declaration of
    ``after`` names, E_SYNTAX at one naming a declaration of a kind its
    field does not expect. A write puts in the top-level records that
    ``after`` holds where ``before`` holds another record or none, less
    the references that a replaced record cited in the same way."""
    added, replaced = _Decoder(), _Decoder()
    for name, key, spec in CODECS[ProjectBundle].fields[1:]:
        old, new = before.__dict__[name], after.__dict__[name]
        if old == new:  # equal records cite alike
            continue
        codec = CODECS[spec.of.of]
        changed = compress(count(), map(is_not, new, old))
        for i in chain(changed, range(len(old), len(new))):
            if i < len(old):  # a write replaces a record in its place
                values, previous = new[i].__dict__, old[i].__dict__
                if all(values[f] is previous[f] for f in codec.cites):
                    continue
                replaced.record(codec, encode(old[i]), "", ("child", "", ""))
            added.record(codec, encode(new[i]), f"{key}[{i}]", ("child", "", ""))
    # A reference is (canonical id, expected kinds, path, label, index).
    cited = {ref[:2] for ref in replaced.references}
    added.references = [ref for ref in added.references if ref[:2] not in cited]
    if not added.references:
        return []
    keys = {added.idents[ref[0]]: ref[0] for ref in added.references}
    index = {}  # canonical id -> the kind of a declaration of it, for the ids cited
    for kind, ids in _declared([after], CODECS[ProjectBundle]):
        for ident in keys.keys() & ids:
            index.setdefault(keys[ident], kind)
    diags: list[Diagnostic] = []
    _resolve_references(added, index, diags)
    return diags


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def parse_bundle(text: str) -> ParseResult:
    """Parse a bundle document.

    Returns a resolved bundle (possibly with warnings) or located error
    diagnostics; every malformed input yields at least one diagnostic.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        return ParseResult(None, [error("E_SYNTAX", f"line {exc.lineno}", exc.msg)])
    except RecursionError:
        return ParseResult(None, [error("E_SYNTAX", "line 1", "document nests too deeply")])
    surrogate = lone_surrogate(text)
    if surrogate is not None:
        return ParseResult(None, [surrogate])
    if not isinstance(raw, dict):
        return ParseResult(None, [error("E_SYNTAX", "line 1", "bundle must be a JSON object")])

    decoder = _Decoder()
    for key in raw:
        if key not in TOP_LEVEL_KEYS:
            message = f"unknown top-level key {key!r}"
            decoder.diagnostics.append(warning("W_UNKNOWN_KEY", key, message))

    codec = CODECS[ProjectBundle]
    ctx = ("child", "", "")
    recap_version = decoder.value(
        codec.specs["recap_version"], raw.get("recap_version"), "$.recap_version", ctx
    )
    if "recap_version" not in raw:
        decoder.fail("recap_version", "recap_version is required")
    elif not VERSION_RE.match(recap_version):
        decoder.fail("recap_version", f"{recap_version!r} is not a v<major>.<minor> version")

    bundle = ProjectBundle(recap_version=recap_version or "v0.0")
    for name, key, spec in codec.fields[1:]:
        items = decoder.items(spec.of, raw.get(key, _ABSENT), f"$.{key}", key, ctx)
        setattr(bundle, name, list(items))

    diags = list(decoder.diagnostics)
    if not any(d.severity == Severity.ERROR for d in diags):
        _resolve_layer_refs(bundle, diags)
        index = _index_declarations(bundle, diags)
        _validate_structure(bundle, diags)
        _resolve_references(decoder, index, diags)

    if any(d.severity == Severity.ERROR for d in diags):
        return ParseResult(None, diags)
    return ParseResult(bundle, diags)


def lone_surrogate(text: str) -> Diagnostic | None:
    """E_SYNTAX at the first escape in a well-formed JSON text that stands
    for a lone surrogate (``"\\ud800"``): ``json.loads`` accepts one, but
    no bundle holding it can be written back as UTF-8. Only an escape
    stands for one, so a text without a backslash pays for one search."""
    if "\\" not in text or "\\u" not in text:
        return None
    for match in _ESCAPE_RE.finditer(text):
        if match.group(1):
            line = text.count("\n", 0, match.start()) + 1
            message = f"\\{match.group(1)} is a lone surrogate, which UTF-8 cannot encode"
            return error("E_SYNTAX", f"line {line}", message)
    return None


def decode_utf8(data: bytes) -> str:
    """A file's bytes as text mode reads them: UTF-8, with universal
    newlines. Raises :class:`OperationRejected` with E_SYNTAX at the line of
    the first byte that is not UTF-8."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = before.count(b"\n") + 1
        raise OperationRejected(
            [error("E_SYNTAX", f"line {line}", f"not valid UTF-8: {exc.reason}")]
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_bundle(path: str | Path) -> ProjectBundle:
    """Parse a bundle file, raising :class:`OperationRejected` on errors."""
    result = parse_bundle(decode_utf8(Path(path).read_bytes()))
    if result.bundle is None:
        raise OperationRejected(result.errors())
    return result.bundle


def _strict(
    spec: Spec, raw: Any, what: str, at: str, owner: str, ns: str, idents: _IdentMemo | None = None
) -> Any:
    decoder = _Decoder(idents)
    # Under at == "" the value is a document: its fields are located by
    # their keys alone, and the document itself as "$".
    value = decoder.value(spec, raw, at or "$", (ns, owner, owner))
    errors = [d for d in decoder.diagnostics if d.severity == Severity.ERROR]
    if errors or (value is None and not spec.nullable):
        detail = "; ".join(f"{d.location.removeprefix('$.')}: {d.message}" for d in errors)
        raise ValueError(f"malformed {what}: {detail}")
    return value


def decode(
    cls: type, obj: Any, owner: str = "", ns: str = "child", *, at: str | None = None
) -> Any:
    """Decode one record outside a bundle (an event payload, a report, a
    changelog file) as strictly as :func:`parse_bundle` does.

    Bare names default to ``owner`` within the ``ns`` namespace. Raises
    ValueError naming every malformed field; references are not resolved.
    Errors are located under ``at``, by default the record's name; a caller
    decoding a user's file passes ``at=""``, so that each field is named by
    its key in the file.
    """
    name = CODECS[cls].name
    return _strict(Spec(RECORD, cls), obj, name, name if at is None else at, owner, ns)


def decode_field(
    cls: type, name: str, raw: Any, owner: str = "", ns: str = "child", *, at: str = ""
) -> Any:
    """Decode one field's value by its spec, as :func:`decode` does. Errors
    are located under ``at``, by default ``<record>.<field>``; a caller
    decoding a user's file passes the user's key."""
    codec = CODECS[cls]
    at = at or f"{codec.name}.{name}"
    return _strict(codec.specs[name], raw, at, at, owner, ns)


def decode_payload(kind: str, payload: Any) -> Any:
    """The record (``model.EVENT_PAYLOADS``) an audit event of ``kind``
    carries in ``payload``, decoded as :func:`decode` does: the ids in it
    are history, so none is resolved. Raises ValueError with the
    E_PAYLOAD_SCHEMA message: the keys the payload lacks, if any, else
    every malformed value."""
    return _decode_payload(kind, payload, None)


def _decode_payload(kind: str, payload: Any, idents: _IdentMemo | None) -> Any:
    """:func:`decode_payload`, parsing identifiers through ``idents``: a
    parse passes its own memo, so an id the bundle holds is parsed once."""
    if payload.__class__ not in _OBJECTS:
        raise ValueError(f"{kind} payload must be an object")
    missing = sorted(_PAYLOAD_KEYS[kind] - payload.keys())
    if missing:
        raise ValueError(f"{kind} payload missing keys: {', '.join(missing)}")
    # In the grandparent's namespace: a bump's laws are the only
    # layer-owned ids a payload holds outside an added law or abstraction,
    # which is decoded in its own layer.
    return _strict(_PAYLOAD_SPECS[kind], payload, f"{kind} payload", "", "", "gp", idents)


def encode(record: Any) -> dict:
    """The canonical JSON object of a persisted record."""
    return CODECS[record.__class__].encode(record)


def route_body_dict(route: Route) -> dict:
    """The frozen body of a route: the parts locked by a freeze.

    Revisions, rejected alternatives, and the freeze stamp itself are
    history, not body.
    """
    record = encode(route)
    return {name: record[name] for name in body_fields(Route)}


def serialize_bundle(bundle: ProjectBundle) -> str:
    """Deterministic canonical rendering of an invariant-satisfying bundle:
    ``json.dumps(encode(bundle), indent=2, ensure_ascii=False) + "\\n"``.

    The text of each top-level record the last call rendered is reused
    (``writer.write_bundle``), so a bundle that a write changed in a few
    records costs a few renders and one join."""
    # Imported on first use, so commands that never write do not load it.
    from .writer import write_bundle

    return write_bundle(bundle)


def clone(bundle: ProjectBundle) -> ProjectBundle:
    """A new bundle over copies of ``bundle``'s lists. It shares every
    record, which cannot change, so a write to either bundle, which
    replaces records in that bundle's own lists, leaves the other as it
    was."""
    copy = _new(ProjectBundle)
    copy.__dict__ = {name: value.copy() if value.__class__ is list else value
                     for name, value in bundle.__dict__.items()}
    return copy


for _cls in (ProjectBundle, *EVENT_PAYLOADS.values()):
    _build(_cls)

#: Event kind -> the spec of its payload record, and the keys it requires:
#: the fields without a default.
_PAYLOAD_SPECS = {kind: Spec(RECORD, cls) for kind, cls in EVENT_PAYLOADS.items()}
_PAYLOAD_KEYS = {
    kind: frozenset(f.name for f in fields(cls) if f.default is MISSING and f.factory is MISSING)
    for kind, cls in EVENT_PAYLOADS.items()
}

decode_route_dict = partial(decode, Route)
decode_law_dict = partial(decode, Law, ns="gp")
decode_unit_dict = partial(decode, EvidentialUnit)
decode_assessment_dict = partial(decode, Assessment)
decode_declared_assumption_dict = partial(decode, DeclaredAssumption)
