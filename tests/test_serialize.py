"""The indented writer behind ``serialize_bundle`` against its oracle.

The writer renders records straight from their specs; the oracle is the
general path it replaced, ``json.dumps(encode(b), indent=2,
ensure_ascii=False) + "\\n"``. The two must agree byte for byte on every
bundle, including values of a type their spec does not expect, on both
paths: each class's generated writer and the general writer.
"""

from __future__ import annotations

import copy
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbundles import TimeSource, inject_faults, parse_dict, random_bundle_dict
from test_audit import random_ops_session
from toy import toy_bundle

from recap_engine import writer
from recap_engine.bundle import clone, decode, encode, serialize_bundle
from recap_engine.identifiers import Identifier
from recap_engine.model import AnalyticMemo, AuditEvent, ContaminationResolved
from recap_engine.records import replace

# Every test here runs on the generated writers and on the general writer.
pytestmark = pytest.mark.usefixtures("writers")


def oracle(bundle) -> str:
    return json.dumps(encode(bundle), indent=2, ensure_ascii=False) + "\n"


def test_toy_bundle_matches_the_oracle():
    assert serialize_bundle(toy_bundle()) == oracle(toy_bundle())


def test_faulty_random_bundles_match_the_oracle(decoders):
    rng = random.Random(4040)
    for k in range(10):
        for _ in range(3):
            doc = random_bundle_dict(rng, n_parents=2, n_children=4)
            inject_faults(rng, doc, k)
            bundle = parse_dict(doc)
            assert serialize_bundle(bundle) == oracle(bundle), k


def test_session_bundles_with_every_op_payload_match_the_oracle():
    rng = random.Random(77)
    clock = TimeSource()
    for _ in range(10):
        _, live, _, _ = random_ops_session(rng, clock)
        assert serialize_bundle(live) == oracle(live)


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text() | st.integers(), inner, max_size=3),
    max_leaves=12,
)
# Strings the escaper has to handle: quotes, backslashes, control
# characters, non-ASCII and the line separators JSON leaves raw.
_AWKWARD_TEXT = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600\u2028 az')) | st.text()
_TOY = toy_bundle()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    payload=st.dictionaries(st.text(), _JSON, max_size=4),
    sections=st.dictionaries(_AWKWARD_TEXT | st.integers(), _AWKWARD_TEXT, max_size=3),
    text=_AWKWARD_TEXT,
    odd=_JSON,
    nulls=st.booleans(),
    extra=st.booleans(),
)
def test_writer_matches_the_oracle_on_arbitrary_values(payload, sections, text, odd, nulls, extra):
    bundle = clone(_TOY)
    bundle.events += (
        AuditEvent(
            sequence=bundle.next_sequence(),
            timestamp="2026-06-01T00:00:00Z",
            actor=text,
            kind="flow_recorded",
            payload=payload,
            affected=[text, ""],
        ),
    )
    bundle.memos += (AnalyticMemo(project_ref=bundle.projects[0].id, sections=sections),)
    unit, route = bundle.units[0], bundle.routes[0]
    unit = replace(unit, notes=text)
    unit = replace(unit, limitations=odd)  # a value of a type the spec does not expect
    route = replace(route, disconfirming_models=(text,))
    if nulls:
        unit = replace(unit, declared_tier=None)
        unit = replace(unit, split_from=None)
        route = replace(route, frozen_at=None)
        layers = bundle.layers
        bundle.layers = layers[:1] + (replace(layers[1], parent_ref=None),) + layers[2:]
    bundle.units = (unit,) + bundle.units[1:]
    bundle.routes = (route,) + bundle.routes[1:]
    if extra:  # an attribute that is not a field, which encode() copies too
        annotated = copy.copy(bundle.routes[1])
        vars(annotated)["annotation"] = odd
        bundle.routes = bundle.routes[:1] + (annotated,) + bundle.routes[2:]
    assert serialize_bundle(bundle) == oracle(bundle)


def _outcome(write, bundle):
    """The text ``write`` renders, or the class of the error it raises."""
    try:
        return write(bundle)
    except (TypeError, ValueError, AttributeError) as exc:
        return type(exc)


class _Text(str):
    """A str subclass, a class no spec expects."""


def _holding(record, name, value):
    """A copy of ``record`` holding ``value`` in field ``name`` as it is,
    past the conversion a field applies (a list stays a list)."""
    out = copy.copy(record)
    vars(out)[name] = value
    return out


# (field, value): a value of a class its spec does not expect.
_SWAPS = {
    "int in STR": ("text", 7),
    "True in INT": ("sequence", True),
    "1 in BOOL": ("untestable", 1),
    "list for tuple": ("supporting_units",
                       [Identifier("child", "C1", "S1"), Identifier("gp", "", "L1")]),
    "None in ident": ("id", None),
    "str subclass": ("text", _Text('a "quoted" text')),
}
#: Where each field is, on a top-level record and on a nested one. No
#: record nested in a bundle has an INT field; ResolutionEffect, which a
#: payload holds, does, and is written below.
_TOP = {"text": ("units", "notes"), "sequence": ("events", "sequence"),
        "untestable": ("units", "quarantined"), "supporting_units": ("units", "measurement_refs"),
        "id": ("units", "study_id")}


@pytest.mark.parametrize("swap, nested", [
    pytest.param(swap, nested, id=f"{'nested' if nested else 'top'}-{swap}")
    for swap in _SWAPS for nested in (False, True) if not (nested and swap == "True in INT")
])
def test_a_value_of_an_unexpected_class_renders_as_the_oracle_does(swap, nested):
    name, value = _SWAPS[swap]
    bundle = clone(_TOY)
    if nested:  # on the first assumption of the first route
        route = bundle.routes[0]
        assumptions = (_holding(route.assumptions[0], name, value),) + route.assumptions[1:]
        bundle.routes = (replace(route, assumptions=assumptions),) + bundle.routes[1:]
    else:
        section, name = _TOP[name]
        records = getattr(bundle, section)
        setattr(bundle, section, (_holding(records[0], name, value),) + records[1:])
    written = _outcome(serialize_bundle, bundle)
    assert written == _outcome(oracle, bundle)
    # encode() cannot render a required identifier that is None.
    assert isinstance(written, str) == (swap != "None in ident")


def test_true_in_an_int_field_of_a_nested_record_renders_as_json_dumps_does():
    contamination = {"id": "CONT-0001", "rule_violated": "R3_horizontal_borrowing",
                     "direction": "horizontal", "nature": "content",
                     "site": {"container": "child:C1:S1"}}
    record = decode(ContaminationResolved, {
        "contamination": contamination, "action": "reversed",
        "effects": [{"op": "quarantine", "target": "child:C1:S1"}]})
    record = _holding(record, "effects", (_holding(record.effects[0], "index", True),))
    text = (writer._FAST.get(ContaminationResolved) or writer._dumper(encode))(record, "\n")
    assert '"index": true' in text
    assert text == json.dumps(encode(record), indent=2, ensure_ascii=False)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(value=_JSON)
def test_a_list_field_holding_any_value_renders_or_fails_as_the_oracle_does(value):
    bundle = clone(_TOY)
    bundle.routes = (replace(bundle.routes[0], disconfirming_models=value),) + bundle.routes[1:]
    assert _outcome(serialize_bundle, bundle) == _outcome(oracle, bundle)


# Free JSON as event payloads carry it: floats (NaN, infinities, negative
# zero, exponents) nested in lists and dicts, several levels deep, with
# keys of every scalar class json coerces.
_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 1e16, 1.5e-7, float("nan"), float("-inf")])
_NESTED = st.recursive(
    _FLOATS | _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=2).map(tuple)
    | st.dictionaries(
        st.text() | st.integers() | st.booleans() | st.none() | _FLOATS, inner, max_size=4
    ),
    max_leaves=40,
)


def _containers(value) -> list:
    """Every dict, list and tuple inside a JSON value, itself included."""
    if isinstance(value, dict):
        return [value] + [c for item in value.values() for c in _containers(item)]
    if isinstance(value, (list, tuple)):
        return [value] + [c for item in value for c in _containers(item)]
    return []


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    payload=st.dictionaries(st.text(), _NESTED, max_size=4),
    sections=st.dictionaries(st.text() | st.integers() | _FLOATS, _NESTED, max_size=3),
)
def test_nested_payloads_write_and_clone_as_json_and_deepcopy_do(payload, sections):
    bundle = clone(_TOY)
    bundle.events += (
        AuditEvent(
            sequence=1,
            timestamp="2026-06-01T00:00:00Z",
            actor="a",
            kind="flow_recorded",
            payload=payload,
        ),
    )
    bundle.memos += (AnalyticMemo(project_ref=bundle.projects[0].id, sections=sections),)
    assert _outcome(serialize_bundle, bundle) == _outcome(oracle, bundle)
    copied = clone(bundle).events[-1].payload
    assert repr(copied) == repr(copy.deepcopy(payload))
    shared = {id(c) for c in _containers(payload) if not isinstance(c, tuple)}
    assert not shared & {id(c) for c in _containers(copied)}


class _Map(dict):
    """A dict subclass, which the writer hands to json.dumps whole."""


@pytest.mark.parametrize("held", [
    pytest.param(lambda i: i, id="bare"),
    pytest.param(lambda i: [1, {"at": (i,)}], id="in-free-json"),
    pytest.param(lambda i: {_Text("key"): i}, id="under-an-odd-key"),
    pytest.param(lambda i: _Map(at=[i]), id="in-a-dict-subclass"),
])
def test_an_identifier_in_a_payload_is_refused_not_written_as_an_array(held):
    # An id is a tuple, which json.dumps would write as an array.
    bundle = clone(_TOY)
    payload = {"flow": "child:C1:S1", "extra": held(Identifier("child", "C1", "S1"))}
    bundle.events += (AuditEvent(sequence=bundle.next_sequence(), timestamp="2026-06-01T00:00:00Z",
                                 actor="a", kind="flow_recorded", payload=payload),)
    with pytest.raises(TypeError, match="Object of type Identifier is not JSON serializable"):
        serialize_bundle(bundle)


@pytest.mark.parametrize("nested", [False, True])
def test_a_string_in_an_identifier_field_is_refused_as_a_value_of_another_class(nested):
    bundle = clone(_TOY)
    if nested:  # the first assumption of the first route
        route = bundle.routes[0]
        assumption = _holding(route.assumptions[0], "id", "child:C1:A1")
        bundle.routes = (replace(route, assumptions=(assumption,) + route.assumptions[1:]),) + bundle.routes[1:]
    else:
        bundle.units = (_holding(bundle.units[0], "study_id", "child:C1:S1"),) + bundle.units[1:]
    assert _outcome(serialize_bundle, bundle) is AttributeError is _outcome(oracle, bundle)


def test_a_cycle_in_a_payload_is_still_json_dumps_own_error():
    bundle = clone(_TOY)
    cyclic = _Map()
    cyclic["self"] = [cyclic]
    bundle.events += (AuditEvent(sequence=bundle.next_sequence(), timestamp="2026-06-01T00:00:00Z",
                                 actor="a", kind="flow_recorded", payload={"extra": cyclic}),)
    with pytest.raises(ValueError, match="Circular reference detected"):
        serialize_bundle(bundle)
