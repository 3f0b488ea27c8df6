import copy
import json
import random

import pytest
from genbundles import parse_dict, random_bundle_dict
from toy import variant

from recap_engine.bundle import (
    decode,
    decode_law_dict,
    load_bundle,
    parse_bundle,
    serialize_bundle,
)
from recap_engine.diagnostics import OperationRejected, Severity
from recap_engine.model import Abstraction, DeclaredAssumption


def codes(result):
    return [d.code for d in result.diagnostics]


# ---------------------------------------------------------------------------
# Golden parse
# ---------------------------------------------------------------------------


def test_toy_parses_with_expected_counts(toy_doc):
    result = parse_bundle(json.dumps(toy_doc))
    assert result.bundle is not None, codes(result)
    bundle = result.bundle
    assert len(bundle.units) == 3
    assert len(bundle.routes) == 4
    assert len(bundle.layers) == 3
    assert bundle.grandparent().local_name == "G"


def test_empty_document_is_syntax_error_at_line_1():
    result = parse_bundle("")
    assert result.bundle is None
    assert result.diagnostics[0].code == "E_SYNTAX"
    assert result.diagnostics[0].location == "line 1"


def test_deeply_nested_document_is_syntax_error_at_line_1():
    result = parse_bundle("[" * 200000)
    assert result.bundle is None
    assert [(d.code, d.location) for d in result.diagnostics] == [("E_SYNTAX", "line 1")]


@pytest.mark.parametrize(
    "escape", ["\\ud800", "\\uDC00", "x\\ud83d\\u0041", "\\ude00\\ud83d"]
)
def test_a_lone_surrogate_escape_is_a_syntax_error_at_its_line(toy_doc, escape):
    toy_doc["units"][0]["notes"] = "placeholder"
    text = json.dumps(toy_doc, indent=1).replace('"placeholder"', f'"{escape}"')
    line = text[: text.index(escape)].count("\n") + 1
    result = parse_bundle(text)
    assert result.bundle is None
    [diag] = result.diagnostics
    assert (diag.code, diag.location) == ("E_SYNTAX", f"line {line}")
    assert "lone surrogate" in diag.message


@pytest.mark.parametrize("escape", ["\\ud83d\\ude00", "\\\\ud800", "\\u00e9"])
def test_surrogate_pairs_and_other_escapes_still_parse(toy_doc, escape):
    toy_doc["units"][0]["notes"] = "placeholder"
    text = json.dumps(toy_doc).replace('"placeholder"', f'"{escape}"')
    result = parse_bundle(text)
    assert result.bundle is not None, result.diagnostics
    assert result.bundle.units[0].notes == json.loads(f'"{escape}"')
    assert serialize_bundle(result.bundle).encode("utf-8")


def test_load_bundle_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.bundle"
    path.write_bytes(b'{\n"recap_version": "v1.0",\n"x": "caf\xe9"}')
    with pytest.raises(OperationRejected) as err:
        load_bundle(path)
    assert [d.render() for d in err.value.diagnostics] == [
        "E_SYNTAX line 3 not valid UTF-8: invalid continuation byte"
    ]


def test_non_object_document_rejected():
    result = parse_bundle("[1, 2, 3]")
    assert result.bundle is None
    assert result.diagnostics[0].code == "E_SYNTAX"


def test_unresolved_route_reference_names_the_identifier():
    doc = variant(
        lambda d: d["projects"][0]["assignments"].append(
            {"unit_ref": "child:C1:S1", "route_ref": "child:C1:R9", "role": "sensitivity"}
        )
    )
    result = parse_bundle(json.dumps(doc))
    assert result.bundle is None
    unresolved = [d for d in result.diagnostics if d.code == "E_UNRESOLVED_REF"]
    assert unresolved and any("R9" in d.message for d in unresolved)


def test_an_id_with_a_trailing_newline_is_not_a_valid_identifier(toy_doc):
    # It used to parse as the id without the newline, so writing the bundle
    # back changed the id without a word.
    toy_doc["units"][0]["study_id"] += "\n"
    result = parse_bundle(json.dumps(toy_doc))
    assert result.bundle is None
    assert [(d.code, d.location, d.message) for d in result.diagnostics] == [
        ("E_SYNTAX", "units[0].study_id", "'child:C1:S1\\n' is not a valid identifier")
    ]


def test_duplicate_declaration_rejected():
    doc = variant(lambda d: d["units"].append(dict(d["units"][0])))
    result = parse_bundle(json.dumps(doc))
    assert result.bundle is None
    assert "E_DUP_ID" in codes(result)


def test_ids_repeated_at_two_depths_are_each_reported_at_the_repeat_in_document_order():
    # A law and an abstraction repeat their layers' ids, a flow repeats an
    # abstraction's and a unit repeats a unit's. The routes' construct_ref
    # to that abstraction still finds one: the first declaration wins.
    def repeat(doc):
        doc["layers"][0]["laws"].append({"id": "G", "text": "Repeats the grandparent's id."})
        doc["layers"][1]["abstractions"].append(
            {"id": "P", "kind": "construct", "definition": "Repeats the parent's id."})
        doc["flows"].append(dict(doc["flows"][0], id="parent:P:C"))
        doc["units"].append(copy.deepcopy(doc["units"][0]))

    result = parse_bundle(json.dumps(variant(repeat)))
    assert [(d.code, d.location, d.message) for d in result.diagnostics] == [
        ("E_DUP_ID", "layers[0].laws[9].id", "duplicate declaration of gp:G"),
        ("E_DUP_ID", "layers[1].abstractions[7].id", "duplicate declaration of parent:P:P"),
        ("E_DUP_ID", "units[3].study_id", "duplicate declaration of child:C1:S1"),
        ("E_DUP_ID", "flows[1].id", "duplicate declaration of parent:P:C"),
    ]


def test_zero_grandparents_rejected():
    def drop_gp(d):
        d["layers"] = [l for l in d["layers"] if l["kind"] != "grandparent"]

    result = parse_bundle(json.dumps(variant(drop_gp)))
    assert result.bundle is None
    assert "E_NO_GRANDPARENT" in codes(result)


def test_two_grandparents_rejected():
    def add_gp(d):
        d["layers"].append(
            {
                "id": "G2",
                "kind": "grandparent",
                "version": "v1.0",
                "parent_ref": None,
                "laws": [],
                "abstractions": [],
                "vocabulary": [],
            }
        )

    result = parse_bundle(json.dumps(variant(add_gp)))
    assert result.bundle is None
    assert "E_NO_GRANDPARENT" in codes(result)


def test_unknown_top_level_key_is_warning_only():
    doc = variant(lambda d: d.update(extras={"x": 1}))
    result = parse_bundle(json.dumps(doc))
    assert result.bundle is not None
    warnings = [d for d in result.diagnostics if d.code == "W_UNKNOWN_KEY"]
    assert warnings and all(d.severity == Severity.WARNING for d in warnings)


def test_child_parent_ref_must_name_a_parent():
    def rewire(d):
        child = next(l for l in d["layers"] if l["id"] == "C1")
        child["parent_ref"] = "G"

    result = parse_bundle(json.dumps(variant(rewire)))
    assert result.bundle is None
    assert "E_SYNTAX" in codes(result)


def test_correspondence_must_stay_within_parent():
    def corrupt(d):
        parent = next(l for l in d["layers"] if l["id"] == "P")
        parent["abstractions"][3]["correspondence"] = {"m1": "Z9"}

    result = parse_bundle(json.dumps(variant(corrupt)))
    assert result.bundle is None
    assert "E_UNRESOLVED_REF" in codes(result)


def test_embedded_text_reference_must_resolve():
    def corrupt(d):
        d["units"][0]["notes"] += " see child:C1:GHOST"

    result = parse_bundle(json.dumps(variant(corrupt)))
    assert result.bundle is None
    assert "E_UNRESOLVED_REF" in codes(result)


def test_assessment_values_validated():
    def corrupt(d):
        d["units"][0]["interpretations"][0]["measurement"] = "sparkling"

    result = parse_bundle(json.dumps(variant(corrupt)))
    assert result.bundle is None
    assert "E_SYNTAX" in codes(result)


#: A well-formed flow_recorded payload, for events whose payload is not
#: under test.
_FLOW = {"flow": {"id": "gp:FX", "source_layer": "gp:G", "dest_layer": "parent:P:P",
                  "info_class": "content", "payload": "note",
                  "timestamp": "2026-01-01T00:00:00Z"}}


def test_event_sequence_must_increase():
    def corrupt(d):
        d["events"] = [
            {"sequence": 1, "timestamp": "2026-01-01T00:00:00Z", "actor": "a",
             "kind": "flow_recorded", "payload": _FLOW, "affected": []},
            {"sequence": 1, "timestamp": "2026-01-01T00:00:01Z", "actor": "a",
             "kind": "flow_recorded", "payload": _FLOW, "affected": []},
        ]

    result = parse_bundle(json.dumps(variant(corrupt)))
    assert result.bundle is None


def test_diagnostics_totality_on_malformed_inputs():
    bad_inputs = ["", "{", "null", '{"recap_version": 3}', '{"layers": 5}']
    for text in bad_inputs:
        result = parse_bundle(text)
        assert result.bundle is None
        assert result.errors(), text
        assert all(d.location for d in result.errors())


def test_parse_is_deterministic():
    text = json.dumps(variant(lambda d: d["units"][0].update(notes="see child:C1:GHOST")))
    first = parse_bundle(text)
    second = parse_bundle(text)
    assert [d.render() for d in first.diagnostics] == [d.render() for d in second.diagnostics]


# ---------------------------------------------------------------------------
# Round-trip
# ---------------------------------------------------------------------------


def test_toy_round_trip(toy):
    text = serialize_bundle(toy)
    result = parse_bundle(text)
    assert result.bundle is not None, codes(result)
    assert result.bundle == toy
    assert serialize_bundle(result.bundle) == text


def test_minimal_bundle_round_trip():
    doc = {
        "recap_version": "v1.0",
        "layers": [
            {
                "id": "G",
                "kind": "grandparent",
                "version": "v1.0",
                "parent_ref": None,
                "laws": [],
                "abstractions": [],
                "vocabulary": [],
            }
        ],
        "projects": [],
        "units": [],
        "routes": [],
        "flows": [],
        "contracts": [],
        "events": [],
        "reviewer_blocks": [],
        "memos": [],
    }
    result = parse_bundle(json.dumps(doc))
    assert result.bundle is not None
    rendered = json.loads(serialize_bundle(result.bundle))
    assert len(rendered["layers"]) == 1
    again = parse_bundle(serialize_bundle(result.bundle))
    assert again.bundle == result.bundle


def test_random_bundles_round_trip():
    rng = random.Random(11)
    for _ in range(40):
        bundle = parse_dict(random_bundle_dict(rng))
        text = serialize_bundle(bundle)
        reparsed = parse_bundle(text)
        assert reparsed.bundle is not None
        assert reparsed.bundle == bundle
        assert serialize_bundle(reparsed.bundle) == text


def test_serialization_is_deterministic(toy):
    assert serialize_bundle(toy) == serialize_bundle(toy)


# ---------------------------------------------------------------------------
# Strict scalars: payload decoders reject what the parser rejects
# ---------------------------------------------------------------------------


def test_law_decoder_rejects_a_string_boolean():
    with pytest.raises(ValueError, match="immutable_core"):
        decode_law_dict({"id": "gp:x", "text": "t", "immutable_core": "false"})


def test_abstraction_decoder_rejects_unknown_kind_and_non_string_definition():
    with pytest.raises(ValueError) as err:
        decode(Abstraction, {"id": "a", "kind": "bogus", "definition": 3}, owner="p", ns="parent")
    assert "abstraction.kind" in str(err.value)
    assert "abstraction.definition" in str(err.value)


def test_declared_assumption_decoder_rejects_list_text():
    record = {"id": "A1", "text": ["not", "a", "string"], "covers": ["measurement"]}
    with pytest.raises(ValueError, match="declared_assumption.text"):
        decode(DeclaredAssumption, record, "C1")


def test_boolean_event_sequence_is_a_syntax_error():
    def add_event(d):
        d["events"] = [
            {"sequence": True, "timestamp": "2026-01-01T00:00:00Z", "actor": "a",
             "kind": "flow_recorded", "payload": _FLOW, "affected": []},
        ]

    result = parse_bundle(json.dumps(variant(add_event)))
    assert result.bundle is None
    assert [(d.code, d.location) for d in result.diagnostics] == [
        ("E_SYNTAX", "events[0].sequence")
    ]


def _with_events(*events):
    def add(d):
        d["events"] = [
            {"sequence": i + 1, "actor": "a", "kind": "flow_recorded",
             "payload": _FLOW, "affected": [], **event}
            for i, event in enumerate(events)
        ]

    return json.dumps(variant(add))


@pytest.mark.parametrize(
    "stamp",
    ["2026-01-01T00:00:00+00:00", "2026-01-01 00:00:00Z", "2026-01-01T00:00Z",
     "2026-01-01T00:00:00z", "2026-01-01T00:00:00.Z", "２０２６-01-01T00:00:00Z", "", None],
)
def test_event_timestamp_form_is_checked(stamp):
    result = parse_bundle(_with_events({"timestamp": stamp}))
    assert [(d.code, d.location) for d in result.diagnostics] == [
        ("E_SYNTAX", "events[0].timestamp")
    ]


def test_missing_event_timestamp_is_reported():
    result = parse_bundle(_with_events({}))
    assert [(d.code, d.location) for d in result.diagnostics] == [
        ("E_SYNTAX", "events[0].timestamp")
    ]


def test_event_timestamps_order_by_time_not_by_string():
    in_order = ["2026-01-01T00:00:00Z", "2026-01-01T00:00:00.25Z", "2026-01-01T00:00:00.5Z",
                "2026-01-01T00:00:00.50Z", "2026-01-01T00:00:01Z"]
    result = parse_bundle(_with_events(*({"timestamp": t} for t in in_order)))
    assert result.bundle is not None, result.diagnostics
    result = parse_bundle(_with_events(*({"timestamp": t} for t in in_order[2::-1])))
    assert [(d.code, d.location) for d in result.diagnostics] == [
        ("E_SYNTAX", "events[1]"), ("E_SYNTAX", "events[2]")
    ]


def test_malformed_bump_payload_is_a_parse_error():
    entry = {"from_version": "v1.0", "to_version": "v1.1", "motivating_insight": "m",
             "boundary_affected": "b", "generalizability_reasoning": "g",
             "timestamp": "2026-01-01T00:00:00Z"}
    good = {"timestamp": "2026-01-01T00:00:00Z", "kind": "version_bumped",
            "payload": {"entry": entry, "laws": []}}
    assert parse_bundle(_with_events(good)).bundle is not None
    for payload in ({"entry": entry, "laws": [5]}, {"entry": [], "laws": []}):
        result = parse_bundle(_with_events({**good, "payload": payload}))
        assert [(d.code, d.location) for d in result.diagnostics] == [
            ("E_PAYLOAD_SCHEMA", "events[0].payload")
        ]
