"""The indented writer behind ``serialize_bundle`` against its oracle.

The writer renders records straight from their specs; the oracle is the
general path it replaced, ``json.dumps(encode(b), indent=2,
ensure_ascii=False) + "\\n"``. The two must agree byte for byte on every
bundle, including values of a type their spec does not expect.
"""

from __future__ import annotations

import copy
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from genbundles import TimeSource, inject_faults, parse_dict, random_bundle_dict
from test_audit import random_ops_session
from toy import toy_bundle

from recap_engine.bundle import clone, encode, serialize_bundle
from recap_engine.model import AnalyticMemo, AuditEvent
from recap_engine.records import replace


def oracle(bundle) -> str:
    return json.dumps(encode(bundle), indent=2, ensure_ascii=False) + "\n"


def test_toy_bundle_matches_the_oracle():
    assert serialize_bundle(toy_bundle()) == oracle(toy_bundle())


def test_faulty_random_bundles_match_the_oracle():
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
    bundle.events.append(
        AuditEvent(
            sequence=bundle.next_sequence(),
            timestamp="2026-06-01T00:00:00Z",
            actor=text,
            kind="flow_recorded",
            payload=payload,
            affected=[text, ""],
        )
    )
    bundle.memos.append(AnalyticMemo(project_ref=bundle.projects[0].id, sections=sections))
    unit, route = bundle.units[0], bundle.routes[0]
    unit = replace(unit, notes=text)
    unit = replace(unit, limitations=odd)  # a value of a type the spec does not expect
    route = replace(route, disconfirming_models=(text,))
    if nulls:
        unit = replace(unit, declared_tier=None)
        unit = replace(unit, split_from=None)
        route = replace(route, frozen_at=None)
        bundle.layers[1] = replace(bundle.layers[1], parent_ref=None)
    bundle.units[0], bundle.routes[0] = unit, route
    if extra:  # an attribute that is not a field, which encode() copies too
        bundle.routes[1] = copy.copy(bundle.routes[1])
        vars(bundle.routes[1])["annotation"] = odd
    assert serialize_bundle(bundle) == oracle(bundle)


def _outcome(write, bundle):
    """The text ``write`` renders, or the class of the error it raises."""
    try:
        return write(bundle)
    except (TypeError, ValueError, AttributeError) as exc:
        return type(exc)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(value=_JSON)
def test_a_list_field_holding_any_value_renders_or_fails_as_the_oracle_does(value):
    bundle = clone(_TOY)
    bundle.routes[0] = replace(bundle.routes[0], disconfirming_models=value)
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
    bundle.events.append(
        AuditEvent(
            sequence=1,
            timestamp="2026-06-01T00:00:00Z",
            actor="a",
            kind="flow_recorded",
            payload=payload,
        )
    )
    bundle.memos.append(AnalyticMemo(project_ref=bundle.projects[0].id, sections=sections))
    assert _outcome(serialize_bundle, bundle) == _outcome(oracle, bundle)
    copied = clone(bundle).events[-1].payload
    assert repr(copied) == repr(copy.deepcopy(payload))
    shared = {id(c) for c in _containers(payload) if not isinstance(c, tuple)}
    assert not shared & {id(c) for c in _containers(copied)}
