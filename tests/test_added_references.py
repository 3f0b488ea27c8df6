"""An operation that adds records rejects a reference in them that neither
the bundle nor the operation itself declares: the bundle it would write
would not parse. The rejection is the diagnostic a parse of that bundle
gives, E_UNRESOLVED_REF (or E_SYNTAX for a declaration of the wrong kind)
at the reference, and the bundle is left as it was."""

import pytest

from genbundles import edit, parse_dict
from toy import PRJ, variant

from recap_engine.audit import commit
from recap_engine.bundle import clone, decode_route_dict, encode, parse_bundle, serialize_bundle
from recap_engine.contamination import record_flow, resolve_contamination, scan_bundle
from recap_engine.diagnostics import OperationRejected, Severity
from recap_engine.identifiers import Identifier
from recap_engine.layers import bump_version
from recap_engine.model import (
    Assessment,
    ChangelogEntry,
    DeclaredAssumption,
    FlowEvent,
    InsightProposal,
    Law,
    ReTierEvent,
    RouteRevision,
    Tier,
)
from recap_engine.records import replace
from recap_engine.routing import committed_route, declare_route, revise_route
from recap_engine.tiering import apply_retier, declare_tier, tier_unit

GHOST = "parent:P:GHOST"


def rejected(bundle, operation) -> list[tuple[str, str]]:
    """The (code, location) pairs ``operation`` is rejected with; the
    bundle must be unchanged."""
    before = serialize_bundle(bundle)
    with pytest.raises(OperationRejected) as err:
        operation()
    assert serialize_bundle(bundle) == before
    return [(d.code, d.location) for d in err.value.diagnostics]


def parse_errors(bundle) -> list[tuple[str, str]]:
    result = parse_bundle(serialize_bundle(bundle))
    return [(d.code, d.location) for d in result.diagnostics if d.severity == Severity.ERROR]


def copied_route(toy, local: str, **changes):
    """Route 0 of the toy under a new id, with fresh assumption ids."""
    record = encode(toy.routes[0])
    record.update(id=f"child:C1:{local}", **changes)
    record["assumptions"] = [
        {**a, "id": f"child:C1:{local}_{i}"} for i, a in enumerate(record["assumptions"])
    ]
    return decode_route_dict(record)


def test_declare_route_rejects_an_undeclared_construct_as_a_reparse_would(toy):
    route = copied_route(toy, "R9", construct_ref=GHOST)
    written = clone(toy)
    written.routes.append(route)
    expected = [("E_UNRESOLVED_REF", f"routes[{len(toy.routes)}].construct_ref")]
    assert parse_errors(written) == expected
    assert rejected(toy, lambda: declare_route(toy, PRJ, route, commit_route=False)) == expected


def test_declare_route_rejects_a_reference_of_the_wrong_kind(toy):
    route = copied_route(toy, "R9", construct_ref="child:C1:S1")
    assert rejected(toy, lambda: declare_route(toy, PRJ, route, commit_route=False)) == [
        ("E_SYNTAX", f"routes[{len(toy.routes)}].construct_ref")
    ]


def test_declare_route_accepts_references_to_declarations(toy):
    route = copied_route(toy, "R9")
    declare_route(toy, PRJ, route, commit_route=False)
    assert parse_errors(toy) == []


def test_record_flow_rejects_an_undeclared_id_in_its_payload(toy):
    flow = FlowEvent(
        id=Identifier("child", "C1", "F9"),
        source_layer=Identifier("gp", "", "G"),
        dest_layer=Identifier("child", "C1", "C1"),
        info_class="content",
        payload=f"Constraint refresh citing {GHOST}.",
        timestamp="2026-05-02T00:00:00Z",
    )
    assert rejected(toy, lambda: record_flow(toy, flow)) == [
        ("E_UNRESOLVED_REF", f"flows[{len(toy.flows)}].payload")
    ]


def test_bump_version_rejects_a_law_citing_an_undeclared_id(toy):
    gp = toy.grandparent()
    laws = gp.laws + (Law(Identifier("gp", "", "new_law"), "Extends gp:GHOST."),)
    entry = ChangelogEntry(
        "v1.0", "v1.1", "Repeated coverage gaps in ambiguity handling.",
        "Tiering discipline at the meta-layer.",
        "The gap is independent of any domain or instrument.", "2026-03-01T00:00:00Z",
    )
    where = f"layers[{toy.layers.index(gp)}].laws[{len(gp.laws)}].text"
    assert rejected(toy, lambda: bump_version(toy, entry, laws)) == [("E_UNRESOLVED_REF", where)]


def test_extract_insight_rejects_an_addition_citing_an_undeclared_id():
    def pollute(doc):
        parent = next(l for l in doc["layers"] if l["id"] == "P")
        parent["abstractions"][1]["definition"] += " Tuned for child:C1:S2."

    bundle = parse_dict(variant(pollute))
    event = scan_bundle(bundle)[0]
    event.risks_introduced = "A domain abstraction absorbed one project's reading."
    proposal = InsightProposal(
        id="INS-GHOST",
        origin_layer=Identifier("child", "C1", "C1"),
        target_layer=Identifier("parent", "P", "P"),
        statement="intermediate readings need a declared stability indicator",
        proposed_additions=[{
            "kind": "abstraction",
            "id": "stability_indicator",
            "abstraction_kind": "measurement_class",
            "definition": "An indicator refining gp:GHOST.",
        }],
    )
    parent = next(i for i, l in enumerate(bundle.layers) if l.id.local_name == "P")
    where = f"layers[{parent}].abstractions[{len(bundle.layers[parent].abstractions)}].definition"
    assert rejected(
        bundle, lambda: resolve_contamination(bundle, event, "extract_insight", proposal=proposal)
    ) == [("E_UNRESOLVED_REF", where)]
    assert not event.resolved


def test_revise_route_rejects_a_body_citing_an_undeclared_construct(toy):
    route = committed_route(toy, toy.projects[0])
    body = replace(route, construct_ref=Identifier("parent", "P", "GHOST"))
    revision = RouteRevision(
        "2026-04-01T00:00:00Z", "New evidence on the construct.",
        "Coherence is re-checked.", "Construct re-anchored.",
    )
    where = f"routes[{toy.routes.index(route)}].construct_ref"
    assert rejected(toy, lambda: revise_route(toy, PRJ, revision, body)) == [
        ("E_UNRESOLVED_REF", where)
    ]


def test_apply_retier_rejects_an_assumption_citing_an_undeclared_id(toy):
    s2 = next(i for i, u in enumerate(toy.units) if u.study_id.local_name == "S2")
    event = ReTierEvent(
        "2026-02-02T00:00:00Z", "A later report clarified the measurement protocol.",
        "Measurement detail resolves the earlier ambiguity.",
        "Primary inference may now include the unit.", Tier.SUPPLEMENT, Tier.CORE,
    )
    assumption = DeclaredAssumption(
        Identifier("child", "C1", "DA9"), f"Holds as in {GHOST}.", ("measurement",)
    )
    where = f"units[{s2}].explicit_assumptions[0].text"
    assert rejected(toy, lambda: apply_retier(
        toy, toy.units[s2].study_id, event,
        new_interpretations=[Assessment("aligned", "adequate", "sufficient", "transparent", False)],
        new_assumptions=[assumption],
        justification="Updated measurement detail restores alignment.",
    )) == [("E_UNRESOLVED_REF", where)]


def test_declare_tier_rejects_a_justification_citing_an_undeclared_id(toy):
    unit = toy.units[0]
    tier = tier_unit(unit).tier
    assert rejected(toy, lambda: declare_tier(toy, unit.study_id, tier, f"As {GHOST} says.")) == [
        ("E_UNRESOLVED_REF", "units[0].tier_justification")
    ]


def test_a_committed_declaration_citing_an_undeclared_id_is_rejected(toy):
    unit = encode(replace(toy.units[0], study_id=Identifier("child", "C1", "S9"),
                          measurement_refs=(Identifier("parent", "P", "GHOST"),)))
    payload = {"decl_kind": "unit", "record": unit, "project": PRJ.render()}
    assert rejected(toy, lambda: commit(
        toy, "declaration_added", payload, actor="t", timestamp="2026-05-01T00:00:00Z"
    )) == [("E_UNRESOLVED_REF", f"units[{len(toy.units)}].measurement_refs[0]")]


def test_a_write_is_not_blamed_for_a_reference_the_record_already_had(toy):
    # An in-memory edit left a dangling reference; a tier declaration that
    # does not touch it is accepted, as it was before the check.
    unit = edit(toy, toy.units[0], measurement_refs=(Identifier("parent", "P", "GHOST"),))
    declare_tier(toy, unit.study_id, tier_unit(unit).tier, "Re-read; parent:P:m1 applies.")
    assert parse_errors(toy) == [("E_UNRESOLVED_REF", "units[0].measurement_refs[0]")]
