"""Namespaced identifiers with layer provenance.

Every declaration in a bundle is named by an identifier whose namespace
records the kind of layer that owns it. Provenance is what makes
cross-layer reference scanning decidable: an identifier's namespace *is*
its origin.

Rendered forms:
    gp:<name>                grandparent-owned
    parent:<owner>:<name>    owned by parent layer <owner>
    child:<owner>:<name>     owned by child layer <owner>
"""

from __future__ import annotations

import re

from .records import FrozenRecordError

NAMESPACES = ("gp", "parent", "child")

#: Maps a layer kind to the namespace its declarations live in.
KIND_TO_NAMESPACE = {"grandparent": "gp", "parent": "parent", "child": "child"}

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_CANONICAL_RE = re.compile(
    rf"^(?:gp:(?P<gp_name>{_NAME})|(?P<ns>parent|child):(?P<owner>{_NAME}):(?P<name>{_NAME}))$"
)

#: Finds canonical identifier references embedded in narrative text.
EMBEDDED_REF_RE = re.compile(
    rf"\b(gp:{_NAME}|(?:parent|child):{_NAME}:{_NAME})\b"
)


class Identifier:
    """A fully-qualified, case-sensitive name with layer provenance.

    Immutable, hashable and ordered by (namespace, owner, local_name). It is
    written out rather than made a record because it is the engine's
    hottest value: every index, memo and reference lookup hashes and
    compares identifiers, so the field tuple and its hash are computed
    once, at construction.
    """

    __slots__ = ("namespace", "owner", "local_name", "_key", "_hash")

    namespace: str
    owner: str  # local name of the owning layer; "" for the gp namespace
    local_name: str

    def __init__(self, namespace: str, owner: str, local_name: str):
        key = (namespace, owner, local_name)
        # Through the slots' own setters: __setattr__ refuses every write.
        _set_namespace(self, namespace)
        _set_owner(self, owner)
        _set_local_name(self, local_name)
        _set_key(self, key)
        _set_hash(self, hash(key))

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is Identifier else NotImplemented

    def __lt__(self, other):
        return self._key < other._key if other.__class__ is Identifier else NotImplemented

    def __le__(self, other):
        return self._key <= other._key if other.__class__ is Identifier else NotImplemented

    def __gt__(self, other):
        return self._key > other._key if other.__class__ is Identifier else NotImplemented

    def __ge__(self, other):
        return self._key >= other._key if other.__class__ is Identifier else NotImplemented

    def __reduce__(self):
        # Rebuilt through __init__, so copies and unpickled values compute
        # their own hash (string hashes differ between processes).
        return (Identifier, self._key)

    def __repr__(self) -> str:
        return (
            f"Identifier(namespace={self.namespace!r}, owner={self.owner!r}, "
            f"local_name={self.local_name!r})"
        )

    def render(self) -> str:
        if self.namespace == "gp":
            return f"gp:{self.local_name}"
        return f"{self.namespace}:{self.owner}:{self.local_name}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


_set_namespace, _set_owner, _set_local_name, _set_key, _set_hash = (
    Identifier.__dict__[name].__set__ for name in Identifier.__slots__
)


def parse_identifier(text: str) -> Identifier | None:
    """Parse a canonical rendered identifier; None if it is not one."""
    m = _CANONICAL_RE.match(text)
    if not m:
        return None
    if m.group("gp_name"):
        return Identifier("gp", "", m.group("gp_name"))
    return Identifier(m.group("ns"), m.group("owner"), m.group("name"))


def extract_references(text: str) -> list[Identifier]:
    """All canonical identifier references embedded in a text, in order.

    Duplicates are preserved; one injected reference is one occurrence.
    """
    out = []
    for token in EMBEDDED_REF_RE.findall(text or ""):
        ident = parse_identifier(token)
        if ident is not None:
            out.append(ident)
    return out


def is_bare_name(text: str) -> bool:
    """True when text is a plain local name without any namespace prefix."""
    return re.fullmatch(_NAME, text) is not None
