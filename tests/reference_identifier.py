"""The slots implementation of :class:`recap_engine.identifiers.Identifier`
that the tuple form replaced, kept verbatim as the reference the
differential test in ``test_identifier_differential.py`` checks against.
Its hash differs from the tuple form's by design; nothing else may.
"""

from __future__ import annotations

from recap_engine.records import FrozenRecordError


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
