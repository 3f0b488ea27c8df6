"""Record decoders, writers and citation walks generated from the codec's
specs and plans, as ``dataclasses`` and ``attrs`` build ``__init__`` and
``cattrs`` its structuring functions. A class is hot once its decoder is
generated: at its ``bundle._HOT``-th general decode, or with the decoder of
a hot class that holds it. Its citation walk and writer are generated on
their first use after that. All three live on the class's codec, so a
command on a small bundle does not load this module.
"""

from __future__ import annotations

from json.encoder import encode_basestring as _quote
from operator import itemgetter
from typing import Any, Callable

from . import bundle
from .bundle import _CHILD_IDS, CODECS, REF, REFS, TEXT, TEXTS, _identity, _layer_identity
from .identifiers import extract_references
from .model import BOOL, ENUM, IDENT, INT, JSON, LAYER, LIST, MAP, RECORD, STR, TIER
from .model import AuditEvent, DeclaredAssumption, EvidentialUnit, LayerDecl, Spec, Tier

#: Kind -> what a missing key reads as where that is no fault (else None).
_MISSING = {BOOL: "False", LIST: "_NO_ITEMS", MAP: "_NO_KEYS", JSON: "_NO_KEYS"}
#: Owner -> the id of a bare name, as ``bundle._Decoder.value`` builds it.
_BARE = {
    "child": "Identifier('child', owner, {0})",
    "layer": "Identifier(ns, layer if ns != 'gp' else '', {0})",
    "self": "Identifier(ns, '' if ns == 'gp' else {0}, {0})",  # a layer's own id
}
#: Class -> its check (``bundle._CHECKS``) as lines that return _BAD where
#: it would report, and keep what an event's payload decodes to.
_GUARDS = {
    LayerDecl: ["if f_parent_ref is None and f_kind != 'grandparent': return _BAD"],
    EvidentialUnit: ["if not f_interpretations: return _BAD"],
    DeclaredAssumption: ["if not f_covers: return _BAD"],
    AuditEvent: ["if event_timestamp_error(f_timestamp): return _BAD",
                 "try: dec.payloads.append(_decode_payload(f_kind, f_payload, idents))",
                 "except ValueError: return _BAD"],
}


def generate(codec: Any) -> Callable:
    """The decoder of ``codec``'s class: ``(decoder, obj, ctx)`` -> the record
    ``bundle._Decoder.record`` builds from ``obj``, in straight-line code, or
    ``bundle._BAD`` where that would report anything, the identity's rules
    and the class's check (:data:`_GUARDS`) included. It reports nothing and
    decodes a nested record by that class's decoder, generated if need be."""
    consts: dict[str, Any] = {}
    lines = ["ns, layer, owner = ctx", "get = obj.get", "idents = dec.idents"]
    if codec.identity is _layer_identity:  # its kind picks the namespace of its id
        lines += [*_read("f_kind", "get", "kind", codec.specs["kind"], consts),
                  "ns = KIND_TO_NAMESPACE[f_kind]",
                  *_read("f_id", "get", "id", Spec(IDENT, owner="self"), consts),
                  "if f_id.namespace != ns: return _BAD",
                  "if ns != 'gp' and f_id.owner != f_id.local_name: return _BAD",
                  "layer, owner = f_id.local_name, f_id.owner", "ctx = (ns, layer, owner)"]
    elif codec.identity is _identity:
        name, key, spec = codec.fields[0]
        v = f"f_{name}"
        lines += _read(v, "get", key, spec, consts)
        if spec.owner == "layer":
            lines.append(f"if {v}.namespace != ns or (ns != 'gp' and {v}.owner != layer): return _BAD")
        if codec.cls in _CHILD_IDS:
            lines.append(f"if {v}.namespace != 'child': return _BAD")
        if spec.kind == IDENT:
            lines += [f"owner = {v}.owner", "ctx = (ns, layer, owner)"]
    for name, key, _, spec, under in codec.rest:
        get = "get"
        if under is not None:  # a key path: its head must be an object
            if under[1]:
                lines += [f"h_{key} = get({key!r})", f"if h_{key}.__class__ not in _OBJECTS: return _BAD"]
            get, key = f"h_{key}.get", under[0]
        lines += _read(f"f_{name}", get, key, spec, consts)
    values = ", ".join(f"{name!r}: f_{name}" for name, _, _ in codec.fields)
    lines += [*_GUARDS.get(codec.cls, ()), "record = _new(Cls)",
              f"_set_dict(record, '__dict__', {{{values}}})", "return record"]
    consts["Cls"] = codec.cls
    return _compiled("decode", "dec, obj, ctx", lines, consts, codec)


def _compiled(name: str, params: str, lines: list[str], consts: dict, codec: Any) -> Callable:
    """The function ``name(params)`` of body ``lines`` for ``codec``'s
    class. It reads bundle's names, and its constants from the closure of
    ``make``, which takes them."""
    source = "".join([f"def make({', '.join(consts)}):\n", f"    def {name}({params}):\n",
                      *(f"        {line}\n" for line in lines or ["pass"]), f"    return {name}\n"])
    namespace: dict[str, Any] = {}
    exec(compile(source, f"<{name} {codec.name}>", "exec"), vars(bundle), namespace)
    return namespace["make"](**consts)


def _read(v: str, get: str, key: str, spec: Spec, consts: dict) -> list[str]:
    """Lines that set ``v`` to the decoded value of field ``key``, read by
    ``get``, or return _BAD. Null or no key reads as None if nullable, "" if a string."""
    if spec.kind == STR:
        empty = "None" if spec.nullable else "''"
        return [f"{v} = {get}({key!r})", f"if {v}.__class__ is not str:",
                f"    if {v} is not None: return _BAD", f"    {v} = {empty}"]
    if spec.nullable:
        return [f"{v} = {get}({key!r})", f"if {v} is not None:",
                *("    " + line for line in _body(spec, v, consts))]
    return [f"{v} = {get}({key!r}, {_MISSING.get(spec.kind, 'None')})", *_body(spec, v, consts)]


def _body(spec: Spec, v: str, consts: dict) -> list[str]:
    """Lines that turn the raw value in ``v`` into its decoded value, as
    ``bundle._Decoder.value`` would, or return _BAD where it would report."""
    kind = spec.kind
    if kind == STR or kind == BOOL or kind == INT:  # named as their classes are
        return [f"if {v}.__class__ is not {kind}: return _BAD"]
    if kind == TIER or kind == LAYER:
        lookup = f"_TIERS.get({v})" if kind == TIER else f"idents[{v}]"
        return [f"{v} = {lookup} if {v}.__class__ is str else None", f"if {v} is None: return _BAD"]
    if kind == IDENT:
        lines = [f"i = idents[{v}] if {v}.__class__ is str else None", "if i.__class__ is not Identifier:"]
        if spec.owner is None:
            lines.append("    return _BAD")
        else:
            lines += ["    if i is None: return _BAD", f"    i = {_BARE[spec.owner].format(v)}"]
        return lines + [f"{v} = i"]
    if kind == MAP:
        return [f"if {v}.__class__ not in _OBJECTS or not all(map(_IS_STR, {v}.values())): "
                "return _BAD", f"{v} = FrozenDict({v})"]
    if kind == JSON:
        return [f"if {v}.__class__ not in _OBJECTS: return _BAD", f"{v} = freeze({v})"]
    if kind == LIST:
        item = _body(spec.of, "x", consts)
        return [f"if {v}.__class__ not in _ARRAYS: return _BAD", "o = []", f"for x in {v}:",
                *("    " + line for line in item), "    o.append(x)", f"{v} = tuple(o)"]
    const = f"c{len(consts)}"
    if kind == ENUM:
        consts[const] = spec.of
        return [f"if {v} not in {const}: return _BAD"]
    nested = CODECS[spec.of]  # RECORD
    if nested.fast is None:
        nested.fast = generate(nested)
    consts[const] = nested.fast
    return [f"if {v}.__class__ not in _OBJECTS: return _BAD", f"{v} = {const}(dec, {v}, ctx)",
            f"if {v} is _BAD: return _BAD"]


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def generate_writer(codec: Any) -> Callable[[Any, str], str]:
    """The writer of ``codec``'s class: ``(record, nl)`` -> the text of
    ``json.dumps(encode(record), indent=2, ensure_ascii=False)`` with each
    line break replaced by ``nl``. It fills one ``%`` template, built the
    first time it meets the indent ``nl``, from straight-line field
    expressions (:func:`_text`). A value of a class its spec does not
    expect, and a record of another class or with extra fields, is encoded
    and rendered on the general path (``writer._dumper``)."""
    from . import writer  # loaded by now: only the writer generates writers

    consts: dict[str, Any] = {
        "Cls": codec.cls, "size": len(codec.fields), "dumped": writer._dumper(codec.encode),
        "q": _quote, "T": _TIER_TEXT, "int_text": int.__repr__, "templates": {},
    }
    # Each key of the object in order: a field, or a key path's head with
    # every field under it, where the head first appears.
    entries: dict[str, list] = {}
    for name, key, spec in codec.fields:
        head, sub = (key, None) if key.__class__ is str else key
        entries.setdefault(head, []).append((sub, name, spec))
    # The template at nl == "\n": JSON keys hold no raw newline, so each
    # "\n" in it starts a line, and replacing it by nl indents the lot.
    strings: dict[str, str] = {}  # name -> its expression in nl
    parts, texts = [], []
    for key, group in entries.items():
        if group[0][0] is None:  # a field
            _, name, spec = group[0]
            parts.append(f"\n  {_key(key)}: %s")
            texts.append(_text(spec, f"f_{name}", 1, consts, strings))
            continue
        subs = ",".join(f"\n    {_key(sub)}: %s" for sub, _, _ in group)
        parts.append(f"\n  {_key(key)}: {{{subs}\n  }}")
        texts += [_text(spec, f"f_{name}", 2, consts, strings) for _, name, spec in group]
    consts["base"] = "{" + ",".join(parts) + "\n}"
    names = [name for name, _, _ in codec.fields]
    if len(names) == 1:  # itemgetter of one key gives the value itself
        read = f"f_{names[0]} = values[{names[0]!r}]"
    else:
        consts["get"] = itemgetter(*names)
        read = "".join(f"f_{name}, " for name in names) + "= get(values)"
    order = sorted(strings)
    built = "".join(strings[n] + ", " for n in order)
    lines = [
        "if record.__class__ is not Cls: return dumped(record, nl)",
        "values = record.__dict__",
        "if len(values) != size: return dumped(record, nl)",
        "strings = templates.get(nl)",
        "if strings is None:",
        f"    strings = templates[nl] = (base.replace('\\n', nl), {built})",
        f"t, {''.join(n + ', ' for n in order)}= strings",
        read,
        f"return t % ({''.join(text + ', ' for text in texts)})",
    ]
    return _compiled("write", "record, nl", lines, consts, codec)


def _key(key: str) -> str:
    """A JSON key as its template holds it: escaped, with each % doubled."""
    return _quote(key).replace("%", "%%")


#: Tier -> its JSON text.
_TIER_TEXT = {tier: _quote(tier.label) for tier in Tier}
#: Kind -> (the text of a value of the class the spec expects, the test
#: for that class), for the kinds whose values render inline.
_INLINE_TEXT = {
    STR: ("q({0})", "{0}.__class__ is str"),
    BOOL: ("('true' if {0} else 'false')", "{0}.__class__ is bool"),
    INT: ("int_text({0})", "{0}.__class__ is int"),
    TIER: ("T[{0}]", "{0}.__class__ is Tier"),
    IDENT: ("q({0}.render())", "{0}.__class__ is Identifier"),
}
_INLINE_TEXT[ENUM] = _INLINE_TEXT[STR]
_INLINE_TEXT[LAYER] = _INLINE_TEXT[IDENT]


def _text(spec: Spec, v: str, depth: int, consts: dict, strings: dict) -> str:
    """An expression for the text of the value in ``v``, held by ``spec``
    on a line at ``depth`` below the record's own: inline where the value
    is of the class the spec expects (a record by its class's generated
    writer), else encoded and rendered by the general path. ``strings``
    collects the indent strings it names."""
    from . import writer

    at = _string(strings, "i", depth)
    if spec.kind == RECORD:  # its writer checks its class
        return f"{_const(consts, CODECS[spec.of].writer())}({v}, {at})"
    general = f"{_const(consts, writer._dumper(bundle.value_encoder(spec)))}({v}, {at})"
    if spec.kind == LIST:  # joined inline; the brackets join round the items
        x = f"x{depth + 1}"
        item = _text(spec.of, x, depth + 1, consts, strings)
        items = f"{_string(strings, 's', depth + 1)}.join([{item} for {x} in {v}])"
        around = f"{_string(strings, 'o', depth + 1)}, {_string(strings, 'e', depth)}"
        text = f"({items}.join(({around})) if {v} else '[]')"
        return f"({text} if {v}.__class__ is tuple or {v}.__class__ is list else {general})"
    if spec.kind not in _INLINE_TEXT:  # MAP and JSON
        return general
    text, test = (part.format(v) for part in _INLINE_TEXT[spec.kind])
    # encode() renders None as null for every kind but a required
    # identifier, which it cannot render.
    nullable = spec.nullable or (spec.kind != IDENT and spec.kind != LAYER)
    null = f"'null' if {v} is None else " if nullable else ""
    return f"({text} if {test} else {null}{general})"


#: Letter -> (prefix, suffix) of an indent string: ``prefix + nl + "  " *
#: depth + suffix`` goes by the letter and the depth.
_AROUND = {"i": ("", ""), "s": (",", ""), "o": ("[", ""), "e": ("", "]")}


def _string(strings: dict, letter: str, depth: int) -> str:
    """The name of an indent string (:data:`_AROUND`), collected with its
    expression in nl."""
    prefix, suffix = _AROUND[letter]
    strings[f"{letter}{depth}"] = f"{prefix!r} + nl + {'  ' * depth + suffix!r}"
    return f"{letter}{depth}"


def _const(consts: dict, value: Any) -> str:
    """The name ``value`` goes by in the generated source."""
    name = f"w{len(consts)}"
    consts[name] = value
    return name


# ---------------------------------------------------------------------------
# Citation walks
# ---------------------------------------------------------------------------

#: Only a text holding a namespace prefix, so a colon, can cite an id.
_CITES = "':' in {0} and ('child:' in {0} or 'parent:' in {0} or 'gp:' in {0})"


def generate_citer(codec: Any) -> Callable[[Any, Any, list], None]:
    """The citation walk of ``codec``'s class: ``(record, where, out)``
    appends to ``out`` what ``bundle._cite`` would for ``record`` under its
    plan (``bundle.PLANS``), in straight-line code, one block a step. A
    nested list's records go through their class's own walk
    (``_Codec.walk``): a hot class's nested classes are hot with it."""
    consts: dict[str, Any] = {"extract": extract_references}
    steps = bundle.PLANS[codec.cls][1]
    lines = []
    for step, name, label, of in steps:
        v, at = f"f_{name}", repr(label)
        expect = _const(consts, of)
        if step == REF:
            lines += [f"if {v} is not None: out.append(({v}, {expect}, where, {at}, None))"]
        elif step == REFS:
            lines += [f"if {v}: out += [(r, {expect}, where, {at}, i) for i, r in enumerate({v})]"]
        elif step == TEXT:
            lines += [f"if {_CITES.format(v)}:",
                      f"    out += [(r, {expect}, where, {at}, None) for r in extract({v})]"]
        elif step == TEXTS:
            lines += [f"for i, t in enumerate({v}):", f"    if {_CITES.format('t')}:",
                      f"        out += [(r, {expect}, where, {at}, i) for r in extract(t)]"]
        else:  # DECLS or ITEMS
            cite = _const(consts, CODECS[of].walk())
            lines += [f"if {v}:", f"    for i, x in enumerate({v}): {cite}(x, (where, {at}, i), out)"]
    names = [name for _, name, _, _ in steps]
    if len(names) == 1:  # itemgetter of one key gives the value itself
        lines.insert(0, f"f_{names[0]} = record.__dict__[{names[0]!r}]")
    elif names:
        consts["get"] = itemgetter(*names)
        lines.insert(0, "".join(f"f_{name}, " for name in names) + "= get(record.__dict__)")
    return _compiled("cite", "record, where, out", lines, consts, codec)
