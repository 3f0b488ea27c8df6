"""The audit-event payload contract: each kind's payload is one record in
``model.EVENT_PAYLOADS``, decoded by ``bundle.decode_payload`` the same way
when a bundle is parsed, when an operation commits and when a log is
replayed.
"""

from __future__ import annotations

import copy
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from genbundles import TimeSource, edit
from test_audit import random_ops_session
from test_codec import _paths, _swapped
from toy import toy_bundle, toy_text

from recap_engine.audit import _APPLIERS
from recap_engine.bundle import CODECS, decode_payload, decode_route_dict, encode, parse_bundle
from recap_engine.bundle import serialize_bundle
from recap_engine.cli import main
from recap_engine.contamination import flag_contamination, record_flow, resolve_contamination
from recap_engine.contamination import scan_bundle
from recap_engine.identifiers import Identifier
from recap_engine.layers import bump_version
from recap_engine.model import (
    EVENT_KINDS,
    EVENT_PAYLOADS,
    LIST,
    Assessment,
    ChangelogEntry,
    FlowEvent,
    ResolutionEffect,
    ReTierEvent,
    Tier,
)
from recap_engine.routing import declare_route
from recap_engine.tiering import apply_retier, declare_tier

# ---------------------------------------------------------------------------
# Guard: one record and one applier per kind
# ---------------------------------------------------------------------------


def test_event_kinds_payload_records_and_appliers_name_the_same_kinds():
    assert EVENT_KINDS == tuple(EVENT_PAYLOADS)
    assert EVENT_KINDS[0] == "tier_declared"  # an unknown kind decodes as this one
    assert [CODECS[cls].name for cls in EVENT_PAYLOADS.values()] == list(EVENT_KINDS)
    assert set(_APPLIERS) == set(EVENT_KINDS)


def test_no_payload_record_field_references_or_is_scanned():
    # Payload ids are history: nothing in a payload is resolved or scanned.
    for cls in (*EVENT_PAYLOADS.values(), ResolutionEffect):
        for name, _, spec in CODECS[cls].fields:
            item = spec.of if spec.kind == LIST else spec
            assert not (spec.expect or item.expect), f"{cls.__name__}.{name}"
            assert not spec.text, f"{cls.__name__}.{name}"


# ---------------------------------------------------------------------------
# Malformed payloads stop parsing
# ---------------------------------------------------------------------------

#: Payloads whose keys are all present but whose values do not decode.
MALFORMED = {
    "tier_value": ("tier_declared",
                   {"unit": "child:C1:S1", "tier": "gold", "justification": 5}),
    "frozen_at": ("route_frozen",
                  {"route": "child:C1:R2", "frozen_at": 5, "body_hash": "0"}),
    "quarantine_target": ("declaration_quarantined", {"target": 5}),
    "split_units": ("unit_split", {"source": "child:C1:S3", "units": "x"}),
}


def _toy_with_event(kind: str, payload: dict) -> dict:
    doc = json.loads(toy_text())
    doc["events"].append({"sequence": 2, "timestamp": "2026-06-01T00:00:00Z", "actor": "a",
                          "kind": kind, "payload": payload, "affected": []})
    return doc


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_payload_is_a_payload_schema_error(case):
    result = parse_bundle(json.dumps(_toy_with_event(*MALFORMED[case])))
    assert result.bundle is None
    assert [(d.code, d.location) for d in result.diagnostics] == [
        ("E_PAYLOAD_SCHEMA", "events[1].payload")
    ]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_validate_exits_2_on_a_malformed_payload(case, tmp_path, capsys):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(_toy_with_event(*MALFORMED[case])), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.strip().splitlines()
    assert line.startswith("E_PAYLOAD_SCHEMA events[1].payload malformed ")
    assert "Traceback" not in err


def test_missing_keys_are_reported_before_values():
    with pytest.raises(ValueError) as err:
        decode_payload("tier_declared", {"tier": 5})
    assert str(err.value) == "tier_declared payload missing keys: justification, unit"


def test_bare_names_in_a_payload_default_to_the_owner_of_its_subject():
    # As the appliers decoded them: a re-tier's assumptions under the
    # unit's owner, a revised body over the route's.
    event = encode(ReTierEvent("t", "s", "j", "i", Tier.CORE, Tier.CORE))
    retier = decode_payload("retier", {
        "unit": "child:C1:S2", "event": event,
        "explicit_assumptions": [{"id": "A9", "text": "t", "covers": ["design"]}],
    })
    assert retier.explicit_assumptions[0].id == Identifier("child", "C1", "A9")
    body = {"construct_ref": "K1", "objective": "o", "disconfirming_models": [],
            "assumptions": [{"id": "AS9", "text": "t", "plausibility": "p",
                             "failure_modes": "f", "consequences_for_inference": "c"}]}
    revised = decode_payload("route_revised", {
        "route": "child:C2:R2", "revision": {}, "body": body, "body_hash": "0",
    })
    assert revised.body.construct_ref == Identifier("child", "C2", "K1")
    assert revised.body.assumptions[0].id == Identifier("child", "C2", "AS9")


# ---------------------------------------------------------------------------
# Properties: what parses decodes
# ---------------------------------------------------------------------------


def _assert_every_event_decodes(bundle) -> None:
    for event in bundle.events:
        record = decode_payload(event.kind, event.payload)
        assert record.__class__ is EVENT_PAYLOADS[event.kind]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_event_of_a_random_session_decodes_through_its_record(seed):
    _, live, _, _ = random_ops_session(random.Random(seed), TimeSource())
    result = parse_bundle(serialize_bundle(live))
    assert result.bundle is not None, result.diagnostics
    _assert_every_event_decodes(result.bundle)


def _toy_log() -> dict:
    """The toy document with a log holding every event kind: the ones an
    operation writes through it, the others appended as written records."""
    clock = TimeSource()
    live = toy_bundle()
    declare_tier(live, Identifier("child", "C1", "S1"), Tier.CORE, "Fits the table.",
                 timestamp=clock.next())
    apply_retier(
        live, Identifier("child", "C1", "S2"),
        ReTierEvent(clock.next(), "Later detail.", "Ambiguity resolved.", "May join.",
                    Tier.SUPPLEMENT, Tier.CORE),
        new_interpretations=[Assessment("aligned", "adequate", "sufficient", "transparent", False)],
        justification="Alignment restored.",
    )
    route = encode(live.routes[0])
    route.update(id="child:C1:R9", frozen_at=None, revisions=[],
                 assumptions=[dict(a, id=a["id"] + "_9") for a in route["assumptions"]])
    declare_route(live, live.projects[0].id, decode_route_dict(route), commit_route=False,
                  timestamp=clock.next())
    record_flow(live, FlowEvent(Identifier("gp", "", "FX"), live.layers[0].id, live.layers[1].id,
                                "content", "A note.", clock.next()))
    gp = live.grandparent()
    bump_version(live, ChangelogEntry("v1.0", "v1.1", "Seen across projects.", "Tier discipline.",
                                      "Domain free.", clock.next()), gp.laws)
    law = live.grandparent().laws[4]
    edit(live, law, text=law.text + " Calibrated against child:C1:S1.")
    event = scan_bundle(live)[0]
    event.risks_introduced = "Project detail absorbed."
    flag_contamination(live, copy.deepcopy(event), timestamp=clock.next())
    resolve_contamination(live, event, "quarantine", timestamp=clock.next())
    doc = json.loads(serialize_bundle(live))
    unit = dict(doc["units"][2], study_id="child:C1:S3a", split_from="child:C1:S3")
    law = {"id": "LZ", "text": "An appended discipline."}
    body = {name: doc["routes"][1][name]
            for name in ("construct_ref", "objective", "assumptions", "disconfirming_models")}
    revision = {"timestamp": "t", "justification": "j", "downstream_implications": "d",
                "change_description": "c"}
    written = [
        ("route_revised", {"route": "child:C1:R2", "revision": revision, "body": body,
                           "body_hash": "0"}),
        ("unit_split", {"source": "child:C1:S3", "units": [unit]}),
        ("declaration_added", {"decl_kind": "law", "layer": "gp:G", "record": law}),
        ("declaration_added", {"decl_kind": "unit", "project": "child:C1:PRJ",
                               "record": dict(unit, study_id="child:C1:S4")}),
        ("contamination_resolved", {
            "contamination": doc["events"][-1]["payload"]["contamination"],
            "action": "insight_extracted",
            "effects": [{"op": "quarantine", "target": "child:C1:S1"},
                        {"op": "add_abstraction", "layer": "parent:P:P",
                         "record": {"id": "KZ", "kind": "construct", "definition": "d"}}]}),
        ("declaration_quarantined", {"target": "child:C1:S3"}),
    ]
    for kind, payload in written:
        doc["events"].append({"sequence": len(doc["events"]) + 1, "timestamp": clock.next(),
                              "actor": "a", "kind": kind, "payload": payload, "affected": []})
    return json.loads(json.dumps(doc))  # shares no object between payloads and sections


TOY_LOG = _toy_log()
#: (event index, path within its payload) of every payload value.
PAYLOAD_SITES = [
    (i, path) for i, event in enumerate(TOY_LOG["events"]) for path in _paths(event["payload"])
]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.text(max_size=4)
    | st.sampled_from(["core", "child:C1:S1", "S1", "gp:G", "quarantine", "law", "v1.2"]),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4,
)


def test_the_toy_log_parses_and_holds_every_kind():
    result = parse_bundle(json.dumps(TOY_LOG))
    assert result.bundle is not None, result.diagnostics
    assert {event["kind"] for event in TOY_LOG["events"]} == set(EVENT_KINDS)
    _assert_every_event_decodes(result.bundle)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(PAYLOAD_SITES), _JSON)
def test_a_toy_log_with_a_mutated_payload_parses_iff_the_payload_decodes(site, value):
    i, path = site
    doc = _swapped(TOY_LOG, ("events", i, "payload") + path, value)
    event = doc["events"][i]
    try:
        decode_payload(event["kind"], event["payload"])
        decodes = True
    except ValueError:
        decodes = False
    result = parse_bundle(json.dumps(doc))
    if decodes:
        assert result.bundle is not None, result.diagnostics
        _assert_every_event_decodes(result.bundle)
    else:
        assert result.bundle is None
        assert [(d.code, d.location) for d in result.diagnostics] == [
            ("E_PAYLOAD_SCHEMA", f"events[{i}].payload")
        ]
