"""The tuple :class:`~recap_engine.identifiers.Identifier` against the
slots class it replaced (``reference_identifier.py``).

An id is now the tuple ``(namespace, owner, local_name, text)``. Every
observable behaviour but the hash value must match the reference:
comparison and order, rendering, ``repr``, copies and pickles, and the
refusal of assignment. As a tuple it must still never equal a plain tuple
nor order against one.
"""

from __future__ import annotations

import copy
import operator
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_identifier
from recap_engine.identifiers import Identifier, extract_references, parse_identifier
from recap_engine.records import FrozenRecordError

Reference = reference_identifier.Identifier

_COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)
_ORDERINGS = _COMPARISONS[2:]
_COPIERS = (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)))

# Few short names, so that equal and near-equal triples are common.
_NAMES = st.sampled_from(["a", "b", "A", "_", "S1", "C1"]) | st.from_regex(
    r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True
)
_TRIPLES = st.sampled_from(["gp", "parent", "child"]).flatmap(
    lambda ns: st.tuples(st.just(ns), st.just("") if ns == "gp" else _NAMES, _NAMES)
)


def _outcome(op, left, right):
    """What ``op(left, right)`` gives, or the class of the error it raises."""
    try:
        return op(left, right)
    except TypeError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(triples=st.lists(_TRIPLES, min_size=1, max_size=6))
def test_the_tuple_identifier_behaves_as_the_slots_reference(triples):
    ids = [Identifier(*t) for t in triples]
    refs = [Reference(*t) for t in triples]
    for a, ra in zip(ids, refs):
        for b, rb in zip(ids, refs):
            for op in _COMPARISONS:
                assert op(a, b) is op(ra, rb), (op, a, b)
            assert (hash(a) == hash(b)) if a == b else True
        assert a.render() == ra.render() == str(a) == str(ra)
        assert repr(a) == repr(ra)
        assert (a.namespace, a.owner, a.local_name) == (ra.namespace, ra.owner, ra.local_name)
        # Built from its text by the parse, in C: the same value and hash.
        parsed = parse_identifier(a.render())
        assert parsed == a and hash(parsed) == hash(a) and repr(parsed) == repr(a)
        for copier in _COPIERS:
            clone, ref_clone = copier(a), copier(ra)
            assert clone.__class__ is Identifier and ref_clone.__class__ is Reference
            assert clone == a and hash(clone) == hash(a) and repr(clone) == repr(ref_clone)
            assert clone.render() == a.render()
        for name in ("namespace", "owner", "local_name", "elsewhere"):
            for target in (a, ra):
                with pytest.raises(FrozenRecordError):
                    setattr(target, name, "x")
                with pytest.raises(FrozenRecordError):
                    delattr(target, name)
    assert [repr(i) for i in sorted(ids)] == [repr(r) for r in sorted(refs)]
    assert [repr(i) for i in sorted(ids, reverse=True)] == [repr(r) for r in sorted(refs, reverse=True)]
    # Rendered into a text and found there again, in order.
    assert extract_references(" ".join(r.render() for r in refs)) == ids


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(triple=_TRIPLES)
def test_an_identifier_is_never_a_plain_tuple_or_its_text(triple):
    ident, ref = Identifier(*triple), Reference(*triple)
    for other in (tuple(ident), triple, ident.render()):
        for op in (operator.eq, operator.ne):
            assert op(ident, other) is op(ref, other) is (op is operator.ne)
            assert op(other, ident) is op(other, ref) is (op is operator.ne)
    for other in (tuple(ident), triple):
        for op in _ORDERINGS:
            assert _outcome(op, ident, other) is _outcome(op, ref, other) is TypeError
            assert _outcome(op, other, ident) is _outcome(op, other, ref) is TypeError
    assert ident == mock.ANY and mock.ANY == ident and not ident != mock.ANY
    assert ref == mock.ANY and mock.ANY == ref
    assert ident.__eq__(object()) is NotImplemented and ident.__lt__(object()) is NotImplemented
    assert ident != object() and _outcome(operator.lt, ident, object()) is TypeError
