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
from operator import itemgetter

from .records import FrozenRecordError

#: Maps a layer kind to the namespace its declarations live in.
KIND_TO_NAMESPACE = {"grandparent": "gp", "parent": "parent", "child": "child"}

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_CANONICAL_RE = re.compile(
    rf"gp:(?P<gp_name>{_NAME})|(?P<ns>parent|child):(?P<owner>{_NAME}):(?P<name>{_NAME})"
)
_BARE_RE = re.compile(_NAME)

#: Finds canonical identifier references embedded in narrative text, as
#: (its text, gp name, namespace, owner, name) with the unused parts empty.
EMBEDDED_REF_RE = re.compile(
    rf"\b(gp:({_NAME})|(parent|child):({_NAME}):({_NAME}))\b"
)


class Identifier(tuple):
    """A fully-qualified, case-sensitive name with layer provenance.

    An id is the tuple ``(namespace, owner, local_name, text)``, where
    ``text`` is its canonical rendered form, so it is hashed and built in
    C and :meth:`render` reads a field. The text is a function of the
    other three, so two ids are equal, and order, as their
    ``(namespace, owner, local_name)``. An id is never equal to a plain
    tuple, does not order against one, and is never JSON-encoded as an
    array (``writer.json_text`` refuses it as ``json.dumps`` refuses any
    other object). Frozen: assigning a field raises
    :class:`~.records.FrozenRecordError`.
    """

    __slots__ = ()

    namespace = property(itemgetter(0))
    owner = property(itemgetter(1))  # local name of the owning layer; "" for the gp namespace
    local_name = property(itemgetter(2))

    def __new__(cls, namespace: str, owner: str, local_name: str):
        text = f"gp:{local_name}" if namespace == "gp" else f"{namespace}:{owner}:{local_name}"
        return _new(cls, (namespace, owner, local_name, text))

    __hash__ = tuple.__hash__

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    # Between two ids the tuple's own comparison: its first three fields
    # decide it, as the text follows from them. A plain tuple is compared
    # here too, or its reflected comparison would compare the contents.
    def __eq__(self, other):
        if other.__class__ is Identifier:
            return _eq(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is Identifier:
            return _ne(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    def __lt__(self, other):
        return _lt(self, other) if other.__class__ is Identifier else _unordered("<", other)

    def __le__(self, other):
        return _le(self, other) if other.__class__ is Identifier else _unordered("<=", other)

    def __gt__(self, other):
        return _gt(self, other) if other.__class__ is Identifier else _unordered(">", other)

    def __ge__(self, other):
        return _ge(self, other) if other.__class__ is Identifier else _unordered(">=", other)

    def __reduce__(self):
        return (Identifier, self[:3])

    def __repr__(self) -> str:
        return (
            f"Identifier(namespace={self[0]!r}, owner={self[1]!r}, "
            f"local_name={self[2]!r})"
        )

    def render(self) -> str:
        return self[3]

    __str__ = render


_new = tuple.__new__
_eq, _ne, _lt, _le, _gt, _ge = (
    tuple.__eq__, tuple.__ne__, tuple.__lt__, tuple.__le__, tuple.__gt__, tuple.__ge__
)


def _unordered(op: str, other):
    if isinstance(other, tuple):
        raise TypeError(
            f"'{op}' not supported between instances of 'Identifier' and {type(other).__name__!r}"
        )
    return NotImplemented


def parse_identifier(text: str) -> Identifier | None:
    """Parse a canonical rendered identifier; None if it is not one."""
    m = _CANONICAL_RE.fullmatch(text)  # the whole text: "$" let a final "\n" through
    if not m:
        return None
    gp_name, ns, owner, name = m.groups()  # one call reads every part
    # The matched text is the canonical text: built in C, rendered by no one.
    return _new(Identifier, ("gp", "", gp_name, text) if gp_name else (ns, owner, name, text))


def extract_references(text: str) -> list[Identifier]:
    """All canonical identifier references embedded in a text, in order.

    Duplicates are preserved; one injected reference is one occurrence.
    """
    return [_new(Identifier, ("gp", "", gp, ref) if gp else (ns, owner, name, ref))
            for ref, gp, ns, owner, name in EMBEDDED_REF_RE.findall(text or "")]


def is_bare_name(text: str) -> bool:
    """True when text is a plain local name without any namespace prefix."""
    return _BARE_RE.fullmatch(text) is not None
