"""Parse, validate, and serialize the canonical bundle document.

The on-disk form is a single UTF-8 JSON document with fixed top-level keys.
Parsing either returns a fully-resolved model or a list of located
diagnostics, never both. Serialization is deterministic and round-trips:
``parse(serialize(b)) == b`` for every invariant-satisfying bundle.

Every persisted record is described once, by the :class:`~.model.Spec` of
each of its fields. One strict decoder and one encoder walk those specs,
for the bundle and for every record an event payload carries; so do
the indented writer behind :func:`serialize_bundle` (``writer.py``) and
:func:`declaration_map`, the walk over every declaration by the kind its
identity spec ``declares``. The decoder builds each value as its frozen
record holds it: lists as tuples, maps and free JSON read-only.

A class decodes, walks and writes its records on one of two paths. A cold
class takes the general ones: :meth:`_Decoder.record`, which reports,
:func:`_cite`, and ``writer._json_text`` of its encoding. A class turns hot
at its :data:`_HOT`-th general decode, or with a hot class that holds it:
its :class:`_Codec` then gets a decoder generated from its specs
(``codegen.py``), which builds a well-typed record in straight-line code
and leaves any other to the general path; its walk and writer are
generated on first use. On the 448 KB seed-71 ``validate_clean`` input
that makes a parse about 19% faster (Python 3.11, a shared 2-vCPU host).

What a record cites is described once too, by its plan in :data:`PLANS`,
and one walk, :func:`citations`, reads it. The decoder records no
references: the parse, the write check (:func:`~.audit.write_errors`)
and its search for what still cites a dropped id all read that walk, and
the contamination scan reads the list a parse built. The write check, and
:func:`~.audit.clone` and :func:`~.audit.declared_ids` that only writes
use, live in ``audit``; their names here are forwarded to it.
"""

from __future__ import annotations

import gc
import json
import re
import sys
from functools import partial
from itertools import chain
from operator import attrgetter, methodcaller
from pathlib import Path
from typing import Any, Callable, Iterator

from . import forwarder
from .diagnostics import Diagnostic, OperationRejected, Severity, error, warning
from .identifiers import KIND_TO_NAMESPACE, Identifier, is_bare_name
from .identifiers import extract_references, parse_identifier
from .model import BOOL, ENUM, IDENT, INT, JSON, LAYER, LIST, MAP, RECORD, STR, TIER
from .model import (
    ADDED_KINDS,
    EFFECT_KEYS,
    EVENT_PAYLOADS,
    AuditEvent,
    BundleIndex,
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
    layer_scopes,
    snake_name,
)
from .records import MISSING, FrozenDict, FrozenList, field, fields, freeze, record

__getattr__ = forwarder(
    globals(), dict.fromkeys(("write_errors", "declared_ids", "clone"), "audit")
)

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
        # Looked up on the value, so a value of another class fails to render.
        return _render if spec.nullable else methodcaller("render")
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
        self.body = tuple(name for name, _, spec in self.fields if spec.body)
        self.layer_refs = [name for name, _, spec in self.fields if spec.kind == LAYER]
        self.check = _CHECKS.get(cls)
        self.identity: Callable | None = None
        #: The declaration kind the class declares, if any, and its list
        #: fields that hold declarations at any depth, with their codecs.
        self.declares = self.fields[0][2].declares
        lists = [(name, CODECS[spec.of.of]) for name, _, spec in self.fields
                 if spec.kind == LIST and spec.of.kind == RECORD]
        self.holds = [(name, item) for name, item in lists if item.declares or item.holds]
        #: The generated decoder, walk and writer (``codegen.py``): the class is
        #: hot once it has the decoder (:data:`_HOT`). The general decodes until
        #: then, and whether a check that rewrites a field keeps it cold.
        self.fast: Callable | None = None
        self.cite: Callable[[Any, Any, list], None] | None = None
        self.write: Callable[[Any, str], str] | None = None
        self.seen = 0
        nested = [s.of if s.kind == LIST else s for _, _, s in self.fields]
        self.general = cls in (ResolutionEffect, DeclarationAdded) or any(
            CODECS[s.of].general for s in nested if s.kind == RECORD)
        named: tuple[str, ...] = ()
        if cls is LayerDecl:
            self.identity, named = _layer_identity, ("id", "kind")
        elif self.fields[0][2].identity:
            self.identity, named = _identity, (self.fields[0][0],)
        #: Fields read after the identity: (name, JSON key, label, spec, and
        #: for a key path the key under the head and whether the field is
        #: the first under it, which alone reports a head that is no object).
        self.rest = []
        heads: set[str] = set()
        for name, key, spec in self.fields:
            if name in named:
                continue
            if key.__class__ is str:
                self.rest.append((name, key, key, spec, None))
                continue
            self.rest.append((name, key[0], ".".join(key), spec, (key[1], key[0] not in heads)))
            heads.add(key[0])

    def walk(self) -> Callable[[Any, Any, list], None] | None:
        """A hot class's generated walk, made on first use; None if cold."""
        if self.cite is None and self.fast is not None:
            from .codegen import generate_citer  # loaded by now, with the decoder
            self.cite = generate_citer(self)
        return self.cite

    def writer(self) -> Callable[[Any, str], str] | None:
        """A hot class's generated writer, made on first use; None if cold."""
        if self.write is None and self.fast is not None:
            from .codegen import generate_writer  # loaded by now, with the decoder
            self.write = generate_writer(self)
        return self.write


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


def body_fields(cls: type) -> tuple[str, ...]:
    """Names of the fields that make up a frozen route's fingerprint."""
    return CODECS[cls].body


# The kinds of a plan step. Their numbers are the order in which the
# contamination scan numbers the findings of a record's steps.
TEXT, DECLS, REFS, TEXTS, REF, ITEMS = range(6)
#: The kinds a reference embedded in a text may name: any.
_ANY = ("any",)


def _plan(codec: _Codec) -> tuple:
    """``(key, steps)`` of one persisted class: its identity field if it
    declares something, else None, and a step ``(kind, field, JSON label,
    of)`` for each field that may cite a declaration, in field order, texts
    last. ``of`` is the kinds a reference field (an identifier whose spec
    has ``expect``) or a text (:data:`_ANY`) may name, or the nested class
    of a list of records whose own plan has steps."""
    steps, texts = [], []
    for name, key, spec in codec.fields:
        many = spec.kind == LIST
        item = spec.of if many else spec
        nested = item.of if many and item.kind == RECORD else None
        label = key if key.__class__ is str else ".".join(key)
        if item.kind == STR and spec.text:
            texts.append((TEXTS if many else TEXT, name, label, _ANY))
        elif item.kind == IDENT and item.expect:
            steps.append((REFS if many else REF, name, label, item.expect))
        elif nested and PLANS[nested][1]:
            steps.append((DECLS if PLANS[nested][0] else ITEMS, name, label, nested))
    return codec.fields[0][0] if codec.declares else None, tuple(steps + texts)


#: Persisted class -> its :func:`_plan`, built with :data:`CODECS`: the one
#: description of which fields cite a declaration.
PLANS: dict[type, tuple] = {}
#: Plan step kind -> the resolution effect that edits such a field.
_EFFECTS = {TEXT: "edit_text", TEXTS: "edit_list_item", REF: "clear_ref", REFS: "remove_ref"}


def citations(record: Any, where: tuple | None) -> list[tuple]:
    """``(id, expected kinds, where, label, index)`` for each reference
    ``record`` holds, in the order a parse meets them (:data:`PLANS`): each
    id of a reference field or embedded in a text, with those of a nested
    list's records in place. ``where`` is the position of the record holding
    it, and ``reference[2:]`` its own (:func:`render_position`). A position
    is ``(position above, JSON label, index or None)``; a bundle's is None."""
    out: list[tuple] = []
    cite = CODECS[record.__class__].walk()
    if cite is None:
        _cite(record, PLANS[record.__class__][1], where, out)
    else:
        cite(record, where, out)
    return out


def _cite(record: Any, steps: tuple, where: tuple | None, out: list) -> None:
    """The general citation walk: ``record``'s plan ``steps``, read one at
    a time; a nested list's records go through their class's generated
    walk if it has one."""
    values = record.__dict__
    for step, name, label, of in steps:
        value = values[name]
        # Only a text holding a namespace prefix, so a colon, can cite an id.
        if step == TEXT:
            if ":" in value and ("child:" in value or "parent:" in value or "gp:" in value):
                out += [(ref, of, where, label, None) for ref in extract_references(value)]
        elif step == REF:
            if value is not None:
                out.append((value, of, where, label, None))
        elif step == REFS:
            out += [(ref, of, where, label, i) for i, ref in enumerate(value)]
        elif step == TEXTS:
            for i, text in enumerate(value):
                if ":" in text and ("child:" in text or "parent:" in text or "gp:" in text):
                    out += [(ref, of, where, label, i) for ref in extract_references(text)]
        elif value:
            cite = CODECS[of].walk()
            if cite is None:
                inner = PLANS[of][1]
                for i, item in enumerate(value):
                    _cite(item, inner, (where, label, i), out)
            else:
                for i, item in enumerate(value):
                    cite(item, (where, label, i), out)


def render_position(where: tuple | None) -> str:
    """A position ``(position above, label, index)`` as text, e.g.
    ``units[1].notes``; the bundle's, None, is ""."""
    parts = []
    while where is not None:
        where, label, index = where
        parts.append(label if index is None else f"{label}[{index}]")
    return ".".join(reversed(parts))


def text_fields(cls: type) -> tuple[str, ...]:
    """Names of the string fields scanned for embedded references."""
    return tuple(name for step, name, _, _ in PLANS[cls][1] if step == TEXT)


def field_effect(cls: type, name: str) -> str | None:
    """The resolution effect that edits field ``name`` of ``cls``, by its
    plan step (:data:`PLANS`): ``edit_text`` for a text, ``edit_list_item``
    for a list of texts, ``clear_ref`` for a nullable reference and
    ``remove_ref`` for a list of references; None for any other field."""
    step = next((kind for kind, f, _, _ in PLANS[cls][1] if f == name), None)
    if step == REF and not CODECS[cls].specs[name].nullable:
        return None
    return _EFFECTS.get(step)


def wrong_field(decl: Any, effect: ResolutionEffect) -> str | None:
    """Why replay refuses a field ``effect`` on ``decl``, its container
    (None if there is none), or None: the field is not of the kind the op
    edits (:func:`field_effect`)."""
    if decl is None or field_effect(decl.__class__, effect.field) != effect.op:
        return f"{effect.op} target {effect.container.render()}.{effect.field} not found"
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


class _Decoder:
    """Strict spec-driven decoder collecting located diagnostics as it walks.

    A context ``(namespace, layer, owner)`` names the declaring layer and
    the owner of the enclosing record, where bare names default to.

    A record of a hot class goes through its generated decoder
    (``codegen.py``); any other record, and one that decoder refuses,
    through :meth:`record`, which decodes each field by :meth:`value`, the
    one place that reports. It records no references: a parse resolves
    those of the records it built (:func:`citations`).
    """

    def __init__(self, idents: _IdentMemo | None = None) -> None:
        self.diagnostics: list[Diagnostic] = []
        self.idents = _IdentMemo() if idents is None else idents
        #: The record each decoded event's payload decodes to, in order.
        self.payloads: list[Any] = []

    def fail(self, path: str, message: str, code: str = "E_SYNTAX") -> None:
        self.diagnostics.append(error(code, path, message))

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
        codec = CODECS[spec.of]
        record = _BAD if codec.fast is None else codec.fast(self, raw, ctx)
        return self.record(codec, raw, path, ctx) if record is _BAD else record

    def items(self, spec: Spec, raw: Any, path: str, prefix: str, ctx: tuple) -> tuple:
        if raw is _ABSENT:
            return ()
        if not isinstance(raw, list):
            self.fail(path, f"expected list, got {type(raw).__name__}")
            return ()
        kind = spec.kind
        codec = CODECS[spec.of] if kind == RECORD else None
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
                record = _BAD if codec.fast is None else codec.fast(self, item, ctx)
                item = self.record(codec, item, f"{prefix}[{i}]", ctx) if record is _BAD else record
            else:
                item = self.value(spec, item, f"{prefix}[{i}]", ctx)
            if item is not None:
                out.append(item)
        return tuple(out)

    def record(self, codec: _Codec, obj: dict, path: str, ctx: tuple) -> Any:
        if codec.fast is None and not codec.general:
            codec.seen += 1
            if codec.seen >= _HOT:
                from .codegen import generate  # loaded only once a class is hot
                codec.fast = generate(codec)
        values: dict[str, Any] = {}
        if codec.identity is not None:
            named = codec.identity(self, codec, obj, path, ctx)
            if named is None:
                return None
            values, ctx = named
        get = obj.get
        for name, key, label, spec, under in codec.rest:
            raw = get(key, _ABSENT)
            if under is not None:  # a key path: the value is under the head's
                if not isinstance(raw, dict):
                    raw = self.container(raw, f"{path}.{key}") if under[1] else {}
                raw = raw.get(under[0], _ABSENT)
            values[name] = self.value(spec, raw, f"{path}.{label}", ctx)
        # Every field is in ``values``, in declaration order, each held as
        # its spec says, so this is what the record __init__ would build.
        record = _new(codec.cls)
        _set_dict(record, "__dict__", values)
        if codec.check is not None:
            codec.check(self, record, obj, path)
        return record


_new = object.__new__
_set_dict = object.__setattr__  # a frozen record's own __setattr__ refuses


#: A class is hot once its decoder is generated: at its 256th general decode,
#: or with the decoder of a hot class that holds it. Compiling costs 0.1-0.9 ms,
#: uncached, against 1.5 us saved a record. Its citation walk and writer are
#: each generated on first use after that. Only tests set this.
_HOT = 256
#: What a generated decoder (``codegen.py``) returns for a value that is
#: not well typed; and what it reads a missing list or object as.
_BAD = object()
_NO_ITEMS, _NO_KEYS, _IS_STR = FrozenList(), FrozenDict(), str.__instancecheck__


def _identity(dec: _Decoder, codec: _Codec, obj: dict, path: str, ctx: tuple):
    """Decode the naming field first; it sets the owner for bare names."""
    name, key, spec = codec.fields[0]
    ident = dec.value(spec, obj.get(key, _ABSENT), f"{path}.{key}", ctx)
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
    kind = dec.value(codec.specs["kind"], obj.get("kind", _ABSENT), f"{path}.kind", ctx)
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
    elif ns != "gp" and parsed.owner != parsed.local_name:
        # Its declarations are owned by (namespace, local name): a layer
        # named under another owner would share that scope with it.
        name = parsed.local_name
        message = f"layer id {parsed.render()} does not name its layer {name!r} as owner"
        dec.fail(f"{path}.id", message)
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
        dec.payloads.append(_decode_payload(event.kind, event.payload, dec.idents))
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


def declaration_map(bundle: ProjectBundle) -> tuple[dict, list]:
    """Every declaration in ``bundle``, by one pre-order walk in document
    order over the list fields that hold declarations (``_Codec.holds``):
    canonical id -> (its first declaration, its path), and (id, declaration,
    path) for each later declaration of an id already mapped. A path is the
    tuple of (field, index) steps from the bundle down to the declaration,
    e.g. ``(("layers", 0), ("laws", 1))``."""
    found: dict[Identifier, tuple[Any, tuple]] = {}
    repeats: list[tuple[Identifier, Any, tuple]] = []
    _walk_declarations(bundle, CODECS[ProjectBundle], (), found, repeats)
    return found, repeats


def _walk_declarations(holder: Any, codec: _Codec, up: tuple, found: dict, repeats: list) -> None:
    """:func:`declaration_map`'s walk below ``holder``. A module-level
    function, not a closure: a nested function that calls itself is a
    reference cycle, which would keep each map and its records alive until
    the cyclic collector runs."""
    for name, item in codec.holds:
        key, holds = item.declares and item.fields[0][0], item.holds
        for i, record in enumerate(holder.__dict__[name]):
            path = up + ((name, i),)
            if key:
                ident, entry = record.__dict__[key], (record, path)
                if found.setdefault(ident, entry) is not entry:
                    repeats.append((ident, record, path))
            if holds:
                _walk_declarations(record, item, path, found, repeats)


def _declared(records: list, codec: _Codec) -> Iterator[tuple[str, list[Identifier]]]:
    """(declaration kind, ids) for each level of ``records``, all of one
    class, and the records nested in them (:func:`~.audit.declared_ids`)."""
    if codec.declares:
        yield codec.declares, list(map(attrgetter(codec.fields[0][0]), records))
    for name, item in codec.holds:
        yield from _declared(list(chain.from_iterable(map(attrgetter(name), records))), item)


def declaration_location(decl: Any, path: tuple) -> str:
    """Where a declaration's id is, e.g. ``layers[0].laws[1].id``, from the
    declaration and its :func:`declaration_map` path."""
    steps = "".join(f"{name}[{i}]." for name, i in path)
    return steps + CODECS[decl.__class__].fields[0][1]


def unowned(levels: list[tuple[str, list[Identifier]]], owners: dict) -> list[Identifier]:
    """The ids of ``levels`` (``(declaration kind, ids)``, :func:`_declared`)
    that name no layer of ``owners`` (:func:`~.model.layer_scopes`) by their
    namespace and owner. A layer is its own owner and is not checked. The
    parse and the write check (:func:`~.audit.write_errors`) both apply
    this rule, so every declaration of a state they pass has an owner."""
    return [ident for kind, ids in levels if kind != "layer"
            for ident in ids if (ident.namespace, ident.owner) not in owners]


def unknown_layer(ident: Identifier, where: str) -> Diagnostic:
    return error("E_UNKNOWN_LAYER", where, f"no declared layer owns {ident.render()}")


def _check_owners(bundle: ProjectBundle, levels: list, diags: list[Diagnostic]) -> None:
    """E_UNKNOWN_LAYER at each declaration whose id names no declared layer
    (:func:`unowned`), in document order, and E_SYNTAX at each project's
    ``layer_ref`` that is not the layer its id names."""
    owners = layer_scopes(bundle.layers)
    bad = set(unowned(levels, owners))
    if bad:
        diags += [unknown_layer(ident, declaration_location(decl, path))
                  for ident, (decl, path) in declaration_map(bundle)[0].items() if ident in bad]
    for i, project in enumerate(bundle.projects):
        owner = owners.get((project.id.namespace, project.id.owner))
        if owner is not None and project.layer_ref != owner.id:
            message = f"{project.id.render()} belongs to layer {owner.id.render()}"
            diags.append(error("E_SYNTAX", f"projects[{i}].layer_ref", message))


def _resolve_layer_refs(bundle: ProjectBundle, diags: list[Diagnostic]) -> None:
    """Replace bare layer references with canonical layer identifiers, and
    check that a canonical one names a declared layer. This finishes
    records the parse is still building, which nothing else has seen, so
    it writes their values in place."""
    by_name = {}
    for layer in bundle.layers:
        by_name.setdefault(layer.local_name, []).append(layer)
    declared = {layer.id for layer in bundle.layers}

    def resolve(raw: Identifier | str, section: str, i: int, name: str) -> Identifier | None:
        candidates = by_name.get(raw, ()) if raw.__class__ is str else ()
        if len(candidates) == 1:
            return candidates[0].id
        diags.append(_unresolved_layer(raw, f"{section}[{i}].{name}"))
        return None

    for section, _, spec in CODECS[ProjectBundle].fields[1:]:
        names = CODECS[spec.of.of].layer_refs
        for i, record in enumerate(getattr(bundle, section) if names else ()):
            values = record.__dict__
            for name in names:
                raw = values[name]
                if raw is not None and raw not in declared:
                    values[name] = resolve(raw, section, i, name)


def _unresolved_layer(raw: Identifier | str, where: str) -> Diagnostic:
    shown = raw if raw.__class__ is str else raw.render()
    return error("E_UNRESOLVED_REF", where, f"layer reference {shown!r} does not resolve")


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
    references: list[tuple], index: dict[Identifier, str], diags: list[Diagnostic]
) -> None:
    """Report each of ``references`` (:func:`citations`) that names no id of
    ``index`` (id -> declaration kind), or one of a kind it does not expect."""
    for ident, expect, up, label, at in references:
        kind = index.get(ident)
        if kind is not None and (kind in expect or expect is _ANY):
            continue
        # The location and the id are rendered only here.
        where = render_position((up, label, at))
        if kind is None:
            diags.append(error("E_UNRESOLVED_REF", where, f"unresolved reference {ident.render()}"))
        else:
            message = f"{ident.render()} is a {kind}, expected {' or '.join(expect)}"
            diags.append(error("E_SYNTAX", where, message))


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def parse_bundle(text: str) -> ParseResult:
    """Parse a bundle document.

    Returns a resolved bundle (possibly with warnings) or located error
    diagnostics; every malformed input yields at least one diagnostic.

    The parse builds only acyclic data (a JSON tree, then frozen records),
    so it runs with the cyclic collector paused and ends with one young
    collection, made after the JSON tree is freed, over what it kept. A
    caller that has disabled the collector finds it still disabled and
    no collection made.
    """
    if not gc.isenabled():
        return _parse(text)
    gc.disable()
    try:
        return _parse(text)
    finally:
        gc.collect(0)
        gc.enable()


def _parse(text: str) -> ParseResult:
    """:func:`parse_bundle`'s work; its JSON tree is freed on return."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        return ParseResult(None, [error("E_SYNTAX", f"line {exc.lineno}", exc.msg)])
    except RecursionError:
        return ParseResult(None, [error("E_SYNTAX", "line 1", "document nests too deeply")])
    except ValueError:  # an integer literal longer than int() converts
        message = f"integer literal longer than {sys.get_int_max_str_digits()} digits"
        return ParseResult(None, [error("E_SYNTAX", "line 1", message)])
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
        setattr(bundle, name, items)

    diags = list(decoder.diagnostics)
    if not any(d.severity == Severity.ERROR for d in diags):
        _resolve_layer_refs(bundle, diags)
        # Id -> declaration kind, from the ids taken a level at a time; a
        # bundle that repeats an id is walked in document order, to report
        # each repeat at its place.
        levels = list(_declared([bundle], codec))
        index = {ident: kind for kind, ids in levels for ident in ids}
        if len(index) < sum(len(ids) for _, ids in levels):
            found, repeats = declaration_map(bundle)
            diags += [error("E_DUP_ID", declaration_location(decl, path),
                            f"duplicate declaration of {ident.render()}")
                      for ident, decl, path in repeats]
            index = {ident: CODECS[decl.__class__].declares for ident, (decl, _) in found.items()}
        _validate_structure(bundle, diags)
        references = citations(bundle, None)
        _resolve_references(references, index, diags)
        # Like the layer references, ownership is judged on a bundle
        # otherwise known good.
        if not any(d.severity == Severity.ERROR for d in diags):
            _check_owners(bundle, levels, diags)

    if any(d.severity == Severity.ERROR for d in diags):
        return ParseResult(None, diags)
    # The state's readers take the payloads and references as the parse built them.
    kept = BundleIndex.of(bundle)
    kept._decoded = (bundle.events, tuple(decoder.payloads))
    kept.citations = references
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
    E_PAYLOAD_SCHEMA message: an unknown kind, the keys the payload lacks,
    if any, else every malformed value.

    This is the one gate on a recorded event: the parse, :func:`~.audit.commit`,
    :func:`~.audit.replay` and :attr:`~.model.BundleIndex.payloads`, which
    the verdict's readers of the log share, all decode through it."""
    return _decode_payload(kind, payload, None)


def _decode_payload(kind: str, payload: Any, idents: _IdentMemo | None) -> Any:
    """:func:`decode_payload`, parsing identifiers through ``idents``: a
    parse passes its own memo, so an id the bundle holds is parsed once."""
    if kind not in _PAYLOAD_SPECS:
        raise ValueError(f"unknown kind {kind!r}")
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


for _cls in (ProjectBundle, *EVENT_PAYLOADS.values()):
    _build(_cls)
for _cls, _codec in CODECS.items():  # a nested class comes before its holder
    PLANS[_cls] = _plan(_codec)

#: Event kind -> the spec of its payload record, and the keys it requires:
#: the fields without a default.
_PAYLOAD_SPECS = {kind: Spec(RECORD, cls) for kind, cls in EVENT_PAYLOADS.items()}
_PAYLOAD_KEYS = {
    kind: frozenset(f.name for f in fields(cls) if f.default is MISSING and f.factory is MISSING)
    for kind, cls in EVENT_PAYLOADS.items()
}

decode_route_dict = partial(decode, Route)
decode_law_dict = partial(decode, Law, ns="gp")
