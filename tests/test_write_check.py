"""Commit decides whether a write leaves a bundle that parses: a write that
declares an id the bundle already declares, or that stops declaring an id
the bundle still cites, is rejected with a diagnostic at that id and
leaves the bundle as it was. A parse, in turn, resolves every layer
reference, canonical ones included."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbundles import edit, inject_borrowings, random_bundle_dict
from toy import PRJ, toy_bundle, toy_dict

from recap_engine.audit import append_event, commit
from recap_engine.bundle import encode, parse_bundle, serialize_bundle
from recap_engine.cli import main
from recap_engine.contamination import record_flow, resolve_contamination, scan_bundle
from recap_engine.diagnostics import OperationRejected
from recap_engine.identifiers import Identifier
from recap_engine.layers import bump_version
from recap_engine.model import (
    ChangelogEntry,
    ContaminationEvent,
    ContaminationSite,
    FlowEvent,
    RouteRevision,
)
from recap_engine.records import replace
from recap_engine.reporting import compliance_verdict
from recap_engine.routing import committed_route, revise_route

STAMP = "2026-05-01T00:00:00Z"
ENTRY = ChangelogEntry(
    "v1.0", "v1.1", "Repeated coverage gaps in ambiguity handling.",
    "Tiering discipline at the meta-layer.",
    "The gap is independent of any domain or instrument.", "2026-03-01T00:00:00Z",
)


def rejected(bundle, operation) -> list[tuple[str, str]]:
    """The (code, location) pairs ``operation`` is rejected with; the
    bundle's bytes must be unchanged."""
    before = serialize_bundle(bundle)
    with pytest.raises(OperationRejected) as err:
        operation()
    assert serialize_bundle(bundle) == before
    return [(d.code, d.location) for d in err.value.diagnostics]


def test_a_bump_listing_a_law_twice_is_rejected_unchanged(toy):
    laws = toy.grandparent().laws
    assert rejected(toy, lambda: bump_version(toy, ENTRY, laws + laws[-1:])) == [
        ("E_DUP_ID", "gp:flow_governance")
    ]


def test_the_cli_bump_of_a_changelog_listing_a_law_twice_exits_1_unchanged(tmp_path, capsys):
    bundle = toy_bundle()
    path, changelog = tmp_path / "toy.bundle", tmp_path / "change.json"
    path.write_text(serialize_bundle(bundle))
    original = path.read_text()
    laws = [encode(law) for law in bundle.grandparent().laws]
    changelog.write_text(json.dumps({**encode(ENTRY), "new_laws": laws + laws[-1:]}))
    code = main(["version", str(path), "bump", "--changelog", str(changelog)])
    assert code == 1
    assert "E_DUP_ID gp:flow_governance" in capsys.readouterr().err
    assert path.read_text() == original


@pytest.mark.parametrize("name, expected", [
    ("S1", [("E_DUP_ID", "child:C1:S1"), ("E_UNDOCUMENTED", "child:C1:AS1")]),
    ("AS9", [("E_UNDOCUMENTED", "child:C1:AS1")]),
])
def test_a_revision_renaming_a_cited_assumption_is_rejected_unchanged(toy, name, expected):
    # The reviewer block cites child:C1:AS1; child:C1:S1 is a unit.
    route = committed_route(toy, toy.projects[0])
    first, *rest = route.assumptions
    body = replace(route, assumptions=(replace(first, id=Identifier("child", "C1", name)), *rest))
    revision = RouteRevision(STAMP, "New evidence.", "Coherence is re-checked.", "Renamed.")
    assert rejected(toy, lambda: revise_route(toy, PRJ, revision, body)) == expected


def test_reversing_a_flow_a_text_still_cites_is_rejected_unchanged(toy):
    flow = FlowEvent(
        id=Identifier("child", "C1", "FX"),
        source_layer=Identifier("child", "C1", "C1"),
        dest_layer=Identifier("parent", "P", "P"),
        info_class="content",
        payload="A finding moved up.",
        timestamp=STAMP,
    )
    record_flow(toy, flow)
    edit(toy, toy.units[0], notes="Read with child:C1:FX.")
    [event] = [e for e in scan_bundle(toy) if e.site.container == "child:C1:FX"]
    event.risks_introduced = "Content moved upward."
    assert rejected(
        toy, lambda: resolve_contamination(toy, event, "reverse", timestamp="2026-05-02T00:00:00Z")
    ) == [("E_UNDOCUMENTED", "child:C1:FX")]
    assert not event.resolved


@pytest.mark.parametrize("kind", ["unit", "law"])
def test_a_committed_declaration_with_a_taken_id_is_rejected_unchanged(toy, kind):
    if kind == "unit":
        payload = {"decl_kind": "unit", "record": encode(toy.units[0])}
        taken = "child:C1:S1"
    else:
        law = toy.grandparent().laws[4]
        payload = {"decl_kind": "law", "layer": "gp:G", "record": encode(law)}
        taken = law.id.render()
    assert rejected(
        toy, lambda: commit(toy, "declaration_added", payload, actor="t", timestamp=STAMP)
    ) == [("E_DUP_ID", taken)]


def test_removing_an_abstraction_a_correspondence_names_is_rejected_unchanged(toy):
    # parent:P:m1 maps itself to A in its correspondence.
    event = ContaminationEvent(
        id="CONT-0001", rule_violated="R2_downward_rewrite", direction="downward",
        nature="structural", site=ContaminationSite(container="parent:P:A"),
        risks_introduced="r", corrective_action="reversed", resolved=True,
    )
    payload = {"contamination": encode(event), "action": "reversed",
               "effects": [{"op": "remove_declaration", "target": "parent:P:A"}]}
    assert rejected(
        toy, lambda: commit(toy, "contamination_resolved", payload, actor="t", timestamp=STAMP)
    ) == [("E_UNDOCUMENTED", "parent:P:A")]


ABSTRACTION = {"id": "zz_new", "kind": "construct", "definition": "d",
               "correspondence": {"nope": "nada"}}


def _resolution_adding(record: dict) -> dict:
    event = ContaminationEvent(
        id="CONT-0001", rule_violated="R2_downward_rewrite", direction="downward",
        nature="structural", site=ContaminationSite(container="parent:P:A"),
        risks_introduced="r", corrective_action="insight_extracted", resolved=True,
    )
    return {"contamination": encode(event), "action": "insight_extracted",
            "effects": [{"op": "add_abstraction", "layer": "parent:P:P", "record": record}]}


@pytest.mark.parametrize("kind, payload", [
    ("declaration_added", {"decl_kind": "abstraction", "layer": "parent:P:P",
                           "record": ABSTRACTION}),
    ("contamination_resolved", _resolution_adding(ABSTRACTION)),
])
def test_an_abstraction_corresponding_outside_its_layer_is_rejected_as_the_parse_would(
    toy, toy_doc, kind, payload
):
    toy_doc["layers"][1]["abstractions"].append(ABSTRACTION)
    parsed = parse_bundle(json.dumps(toy_doc)).errors()
    assert [d.code for d in parsed] == ["E_UNRESOLVED_REF"] * 2
    before, events = serialize_bundle(toy), toy.events
    with pytest.raises(OperationRejected) as err:
        commit(toy, kind, payload, actor="t", timestamp=STAMP)
    assert serialize_bundle(toy) == before and toy.events is events
    assert [d.render() for d in err.value.diagnostics] == [d.render() for d in parsed]


def test_an_abstraction_corresponding_within_its_layer_is_committed(toy):
    record = {"id": "zz_new", "kind": "construct", "definition": "d",
              "correspondence": {"zz_new": "A"}}
    payload = {"decl_kind": "abstraction", "layer": "parent:P:P", "record": record}
    commit(toy, "declaration_added", payload, actor="t", timestamp=STAMP)
    assert parse_bundle(serialize_bundle(toy)).bundle is not None


@pytest.mark.parametrize("change, expected", [
    ({"affected": [7]}, "E_SYNTAX events[1].affected[0] expected string"),
    ({"actor": None}, "E_SYNTAX events[1].actor expected string, got NoneType"),
])
def test_a_commit_whose_event_would_not_read_back_is_rejected_unchanged(toy, change, expected):
    payload = {"decl_kind": "abstraction", "layer": "parent:P:P",
               "record": {"id": "zz_new", "kind": "construct", "definition": "d"}}
    before, events = serialize_bundle(toy), toy.events
    with pytest.raises(OperationRejected) as err:
        commit(toy, "declaration_added", payload,
               **{"actor": "t", "timestamp": STAMP, **change})
    assert serialize_bundle(toy) == before and toy.events is events
    assert [d.render() for d in err.value.diagnostics] == [expected]


@pytest.mark.parametrize("change, expected", [
    ({"affected": ("S1", 7)}, "E_SYNTAX events[1].affected[1] expected string"),
    ({"affected": None}, "E_SYNTAX events[1].affected expected list, got NoneType"),
    ({"actor": None}, "E_SYNTAX events[1].actor expected string, got NoneType"),
])
def test_append_event_refuses_what_the_parse_would_not_read_back(toy, change, expected):
    event = replace(toy.events[0], sequence=2, timestamp=STAMP, **change)
    events = toy.events
    with pytest.raises(OperationRejected) as err:
        append_event(toy, event)
    assert toy.events is events
    assert [d.render() for d in err.value.diagnostics] == [expected]


CONTRACT = {"id": "child:C1:K", "info_type": "content", "origin_layer": "child:C2:C2",
            "destination_layer": "child:C1:C1", "legal_justification": "l",
            "no_reinterpretation_clause": True, "documentation_ref": "doc"}


@pytest.mark.parametrize("origin", ["child:C2:C2", "C2", "C1"])
def test_a_committed_contract_naming_an_undeclared_layer_is_rejected_unchanged(toy, origin):
    # The toy declares gp:G, parent:P:P and child:C1:C1. A payload is
    # history, so a bare name is not resolved, even one that would parse.
    payload = {"decl_kind": "contract", "record": {**CONTRACT, "origin_layer": origin}}
    assert rejected(
        toy, lambda: commit(toy, "declaration_added", payload, actor="t", timestamp=STAMP)
    ) == [("E_UNRESOLVED_REF", "contracts[0].origin_layer")]


def test_a_committed_flow_naming_an_undeclared_layer_is_rejected_unchanged(toy):
    flow = {**encode(toy.flows[0]), "id": "gp:F2", "source_layer": "gp:NOPE"}
    assert rejected(
        toy, lambda: commit(toy, "flow_recorded", {"flow": flow}, actor="t", timestamp=STAMP)
    ) == [("E_UNRESOLVED_REF", "flows[1].source_layer")]


@pytest.mark.parametrize("field, value", [
    ("source_layer", Identifier("gp", "", "NOPE")),
    ("dest_layer", Identifier("child", "C2", "C2")),
    ("contract_ref", Identifier("child", "C1", "NOPE")),
])
def test_record_flow_leaves_an_unresolved_flow_to_commit(toy, field, value):
    flow = replace(toy.flows[0], id=Identifier("gp", "", "F2"), **{field: value})
    assert rejected(toy, lambda: record_flow(toy, flow, timestamp=STAMP)) == [
        ("E_UNRESOLVED_REF", f"flows[1].{field}")
    ]


# ---------------------------------------------------------------------------
# Canonical layer references
# ---------------------------------------------------------------------------


def parse_errors(doc: dict) -> list[tuple[str, str]]:
    return [(d.code, d.location) for d in parse_bundle(json.dumps(doc)).errors()]


def test_a_canonical_layer_reference_no_layer_declares_does_not_parse():
    doc = toy_dict()
    doc["flows"].append({**doc["flows"][0], "id": "gp:F2", "source_layer": "gp:NOPE"})
    assert parse_errors(doc) == [("E_UNRESOLVED_REF", "flows[1].source_layer")]
    doc = toy_dict()
    doc["projects"][0]["layer_ref"] = "child:NOPE:NOPE"
    assert parse_errors(doc) == [("E_UNRESOLVED_REF", "projects[0].layer_ref")]


LAYER_FIELDS = ("parent_ref", "layer_ref", "source_layer", "dest_layer", "origin_layer",
                "destination_layer")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), pick=st.integers(0, 2**16),
       namespace=st.sampled_from(["gp", "parent", "child"]),
       owner=st.sampled_from(["G", "P1", "C1", "C2", "NOPE"]),
       name=st.sampled_from(["G", "P1", "P2", "C1", "C2", "NOPE"]))
def test_any_layer_field_holding_a_canonical_id_parses_only_if_the_scan_can_judge_it(
    seed, pick, namespace, owner, name
):
    doc = random_bundle_dict(random.Random(seed))
    inject_borrowings(doc)
    places = [(record, key) for section in ("layers", "projects", "flows", "contracts")
              for record in doc[section] for key in LAYER_FIELDS if record.get(key) is not None]
    record, key = places[pick % len(places)]
    record[key] = f"gp:{name}" if namespace == "gp" else f"{namespace}:{owner}:{name}"
    result = parse_bundle(json.dumps(doc))
    if result.bundle is not None:
        scan_bundle(result.bundle)
        compliance_verdict(result.bundle)
