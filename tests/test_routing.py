import copy
import json
import random

import pytest

from genbundles import edit
from toy import PRJ, toy_dict, toy_text

from recap_engine.bundle import decode_route_dict, parse_bundle, serialize_bundle
from recap_engine.diagnostics import OperationRejected, Severity
from recap_engine.identifiers import Identifier
from recap_engine.model import BundleIndex, RouteRevision
from recap_engine.records import replace
from recap_engine.routing import (
    check_freeze_integrity,
    check_route_coherence,
    committed_route,
    declare_route,
    freeze_route,
    revise_route,
    route_body_hash,
)


def route_record(local, owner="C1", **overrides):
    record = {
        "id": f"child:{owner}:{local}",
        "project_ref": f"child:{owner}:PRJ",
        "construct_ref": "parent:P:C",
        "objective": "descriptive",
        "assumptions": [
            {
                "id": f"child:{owner}:{local}_AS1",
                "text": "Readings are comparable across observation windows.",
                "plausibility": "Plausible given the shared protocol.",
                "failure_modes": "Protocol drift between windows.",
                "consequences_for_inference": "Comparability claim weakens.",
                "supporting_units": [],
                "untestable": True,
            }
        ],
        "disconfirming_models": ["A windowing artifact could produce the same pattern."],
        "rejected_alternatives": [],
        "frozen_at": None,
        "revisions": [],
        "quarantined": False,
    }
    record.update(overrides)
    return record


def fresh_toy_uncommitted():
    """Toy document with no committed route and no prior route declarations."""
    doc = toy_dict()
    doc["projects"][0]["committed_route"] = None
    doc["projects"][0]["assignments"] = []
    doc["routes"] = []
    doc["reviewer_blocks"] = []  # the block mirrors route assumptions
    result = parse_bundle(json.dumps(doc))
    assert result.bundle is not None, [d.render() for d in result.diagnostics]
    return result.bundle


def errors_only(diags):
    return [d for d in diags if d.severity == Severity.ERROR]


# ---------------------------------------------------------------------------
# declareRoute
# ---------------------------------------------------------------------------


def test_commit_after_exploratory_comparison():
    bundle = fresh_toy_uncommitted()
    for local in ("R1", "R3", "R4"):
        declare_route(bundle, PRJ, decode_route_dict(route_record(local)), commit_route=False)
    committed = decode_route_dict(
        route_record(
            "R2",
            objective="associational",
            rejected_alternatives=[
                {"sketch": "R1 comparative estimation", "rationale": "No contrast available."},
                {"sketch": "R3 measurement evaluation", "rationale": "Auxiliary role only."},
                {"sketch": "R4 predictive modeling", "rationale": "Not the declared objective."},
            ],
        )
    )
    declare_route(bundle, PRJ, committed, commit_route=True)
    project = bundle.projects[0]
    assert project.committed_route.render() == "child:C1:R2"
    sketches = " ".join(
        r.sketch for r in BundleIndex(bundle).routes.get(project.committed_route).rejected_alternatives
    )
    assert "R1" in sketches and "R3" in sketches and "R4" in sketches
    assert len(bundle.routes) == 4


def test_second_committed_route_rejected():
    bundle = fresh_toy_uncommitted()
    declare_route(bundle, PRJ, decode_route_dict(route_record("R1")), commit_route=True)
    before = serialize_bundle(bundle)
    with pytest.raises(OperationRejected) as err:
        declare_route(bundle, PRJ, decode_route_dict(route_record("R5")), commit_route=True)
    assert "E_SECOND_ROUTE" in [d.code for d in err.value.diagnostics]
    assert serialize_bundle(bundle) == before


def test_a_route_reusing_a_declared_id_is_rejected_unchanged():
    # Named like a unit, and with an assumption named like another route's.
    bundle = fresh_toy_uncommitted()
    declare_route(bundle, PRJ, decode_route_dict(route_record("R1")), commit_route=False)
    before = serialize_bundle(bundle)
    record = route_record("S1")
    record["assumptions"][0]["id"] = "child:C1:R1_AS1"
    with pytest.raises(OperationRejected) as err:
        declare_route(bundle, PRJ, decode_route_dict(record), commit_route=False)
    assert [(d.code, d.location) for d in err.value.diagnostics] == [
        ("E_DUP_ID", "child:C1:S1"), ("E_DUP_ID", "child:C1:R1_AS1")
    ]
    assert serialize_bundle(bundle) == before


def test_route_without_disconfirming_model_rejected():
    bundle = fresh_toy_uncommitted()
    record = route_record("R1", disconfirming_models=[])
    with pytest.raises(OperationRejected) as err:
        declare_route(bundle, PRJ, decode_route_dict(record), commit_route=True)
    assert "E_NO_DISCONFIRMING" in [d.code for d in err.value.diagnostics]


def test_route_without_assumptions_rejected():
    bundle = fresh_toy_uncommitted()
    record = route_record("R1", assumptions=[])
    with pytest.raises(OperationRejected) as err:
        declare_route(bundle, PRJ, decode_route_dict(record), commit_route=True)
    assert "E_NO_ASSUMPTIONS" in [d.code for d in err.value.diagnostics]


# ---------------------------------------------------------------------------
# checkRouteCoherence
# ---------------------------------------------------------------------------


def test_toy_routing_table_is_coherent(toy):
    assert errors_only(check_route_coherence(toy, PRJ)) == []


def test_supplement_in_primary_role_flagged(toy):
    edit(toy, toy.projects[0].assignments[1], role="primary_inference",
         route_ref=Identifier("child", "C1", "R2"))
    codes = [d.code for d in errors_only(check_route_coherence(toy, PRJ))]
    assert "E_SUPPLEMENT_PRIMARY" in codes


def test_excluded_unit_with_any_role_flagged(toy):
    project = toy.projects[0]
    edit(toy, project, assignments=project.assignments + (
        type(toy.projects[0].assignments[0])(
            unit_ref=Identifier("child", "C1", "S3"),
            route_ref=Identifier("child", "C1", "R2"),
            role="contextual",
        ),
    ))
    codes = [d.code for d in errors_only(check_route_coherence(toy, PRJ))]
    assert "E_EXCLUDED_ASSIGNED" in codes


def test_core_unit_off_committed_route_flagged(toy):
    edit(toy, toy.projects[0].assignments[0], route_ref=Identifier("child", "C1", "R3"))
    codes = [d.code for d in errors_only(check_route_coherence(toy, PRJ))]
    assert "E_CORE_OFF_ROUTE" in codes


def test_unassigned_core_unit_flagged(toy):
    edit(toy, toy.projects[0], assignments=toy.projects[0].assignments[1:])
    codes = [d.code for d in errors_only(check_route_coherence(toy, PRJ))]
    assert "E_CORE_OFF_ROUTE" in codes


def test_unanchored_assumption_flagged(toy):
    route = committed_route(toy, toy.projects[0])
    edit(toy, route.assumptions[0], supporting_units=(), untestable=False)
    codes = [d.code for d in errors_only(check_route_coherence(toy, PRJ))]
    assert "E_ASSUMPTION_UNANCHORED" in codes


def test_duplicate_assignment_flagged(toy):
    project = toy.projects[0]
    edit(toy, project, assignments=project.assignments + (copy.deepcopy(project.assignments[0]),))
    codes = [d.code for d in errors_only(check_route_coherence(toy, PRJ))]
    assert "E_DUP_ASSIGNMENT" in codes


# ---------------------------------------------------------------------------
# freezeRoute
# ---------------------------------------------------------------------------


def test_freeze_records_event_and_blocks_refreeze(toy):
    # toy arrives frozen by the authoring workflow
    route = committed_route(toy, toy.projects[0])
    assert route.frozen_at is not None
    assert toy.events[-1].kind == "route_frozen"
    with pytest.raises(OperationRejected) as err:
        freeze_route(toy, PRJ)
    assert err.value.diagnostics[0].code == "E_ALREADY_FROZEN"


def test_freeze_blocked_while_incoherent():
    doc = toy_dict()
    doc["projects"][0]["assignments"][0]["route_ref"] = "child:C1:R3"  # core off route
    bundle = parse_bundle(json.dumps(doc)).bundle
    before = serialize_bundle(bundle)
    with pytest.raises(OperationRejected) as err:
        freeze_route(bundle, PRJ)
    codes = [d.code for d in err.value.diagnostics]
    assert "E_INCOHERENT" in codes and "E_CORE_OFF_ROUTE" in codes
    assert serialize_bundle(bundle) == before


def test_freeze_succeeds_implies_coherence(toy):
    assert errors_only(check_route_coherence(toy, PRJ)) == []


# ---------------------------------------------------------------------------
# reviseRoute
# ---------------------------------------------------------------------------


def revision(**overrides):
    fields = dict(
        timestamp="2026-01-06T10:00:00Z",
        justification="The proxy assumption needed an explicit range bound.",
        downstream_implications="Sensitivity readings narrow to the bounded range.",
        change_description="Added a range bound to the proxy assumption.",
    )
    fields.update(overrides)
    return RouteRevision(**fields)


def _revised_body(toy):
    route = committed_route(toy, toy.projects[0])
    body = decode_route_dict(
        {
            **route_record("R2", objective="associational"),
            "assumptions": [
                {
                    "id": "child:C1:AS1",
                    "text": "m1 valid for A",
                    "plausibility": "High: m1 aligns with the declared definition of A.",
                    "failure_modes": "Instrument drift between observation windows.",
                    "consequences_for_inference": "The association loses construct anchoring.",
                    "supporting_units": ["child:C1:S1"],
                    "untestable": False,
                },
                {
                    "id": "child:C1:AS2",
                    "text": "proxy B monotonic within the observed range",
                    "plausibility": "Moderate: the proxy tracks B directionally.",
                    "failure_modes": "Non-monotone behaviour outside the observed range.",
                    "consequences_for_inference": "The mediated reading attenuates.",
                    "supporting_units": ["child:C1:S1"],
                    "untestable": False,
                },
            ],
        }
    )
    return body


def test_frozen_route_revision_appends_record(toy):
    route = committed_route(toy, toy.projects[0])
    history = len(route.revisions)
    revise_route(toy, PRJ, revision(), _revised_body(toy))
    route = committed_route(toy, toy.projects[0])
    assert len(route.revisions) == history + 1
    assert "within the observed range" in route.assumptions[1].text
    assert toy.events[-1].kind == "route_revised"
    assert errors_only(check_freeze_integrity(toy)) == []


def test_revision_with_incomplete_record_rejected(toy):
    with pytest.raises(OperationRejected) as err:
        revise_route(toy, PRJ, revision(justification=" "), _revised_body(toy))
    assert "E_SILENT_REVISION" in [d.code for d in err.value.diagnostics]


def test_revision_removing_disconfirming_models_rejected(toy):
    body = replace(_revised_body(toy), disconfirming_models=())
    with pytest.raises(OperationRejected) as err:
        revise_route(toy, PRJ, revision(), body)
    assert "E_NO_DISCONFIRMING" in [d.code for d in err.value.diagnostics]


def test_revising_unfrozen_route_rejected():
    bundle = fresh_toy_uncommitted()
    declare_route(bundle, PRJ, decode_route_dict(route_record("R1")), commit_route=True)
    with pytest.raises(OperationRejected) as err:
        revise_route(bundle, PRJ, revision(), decode_route_dict(route_record("R1")))
    assert "E_ROUTE_NOT_FROZEN" in [d.code for d in err.value.diagnostics]


def test_direct_edit_of_frozen_route_detected(toy):
    route = committed_route(toy, toy.projects[0])
    edit(toy, route, objective="predictive")  # silent mutation outside the protocol
    codes = [d.code for d in errors_only(check_freeze_integrity(toy))]
    assert codes == ["E_SILENT_REVISION"]


def test_freeze_without_event_is_unauditable():
    doc = toy_dict()
    doc["routes"][1]["frozen_at"] = "2026-01-05T09:00:00Z"  # stamp with no event
    bundle = parse_bundle(json.dumps(doc)).bundle
    diags = check_freeze_integrity(bundle)
    assert [d.code for d in diags] == ["W_FREEZE_UNRECORDED"]


# ---------------------------------------------------------------------------
# Property: one-route and freeze immutability under random command sequences
# ---------------------------------------------------------------------------


def test_random_command_sequences_preserve_route_laws():
    rng = random.Random(41)
    stamp = [100]

    def ts():
        stamp[0] += 1
        return f"2026-04-01T{stamp[0] // 3600:02d}:{stamp[0] // 60 % 60:02d}:{stamp[0] % 60:02d}Z"

    for trial in range(30):
        bundle = fresh_toy_uncommitted()
        project = bundle.projects[0]
        declared = 0
        frozen_hash = None
        revision_count = 0
        for step in range(60):
            action = rng.choice(["declare", "commit", "freeze", "revise", "noop"])
            route = committed_route(bundle, project)
            try:
                if action == "declare":
                    declared += 1
                    declare_route(
                        bundle,
                        PRJ,
                        decode_route_dict(route_record(f"X{trial}_{declared}")),
                        commit_route=False,
                        timestamp=ts(),
                    )
                elif action == "commit":
                    declared += 1
                    declare_route(
                        bundle,
                        PRJ,
                        decode_route_dict(route_record(f"X{trial}_{declared}")),
                        commit_route=True,
                        timestamp=ts(),
                    )
                elif action == "freeze":
                    freeze_route(bundle, PRJ, timestamp=ts())
                elif action == "revise" and route is not None:
                    body = decode_route_dict(
                        route_record(
                            route.id.local_name,
                            objective=rng.choice(["descriptive", "stability-mapping"]),
                        )
                    )
                    revise_route(bundle, PRJ, revision(timestamp=ts()), body)
            except OperationRejected:
                pass
            # invariant: at most one committed route
            committed_ids = [
                r.id.render()
                for r in bundle.routes
                if project.committed_route is not None and r.id == project.committed_route
            ]
            assert len(committed_ids) <= 1
            route = committed_route(bundle, project)
            if route is not None and route.frozen_at is not None:
                current_hash = route_body_hash(route)
                if frozen_hash is None:
                    frozen_hash = current_hash
                    revision_count = len(route.revisions)
                elif current_hash != frozen_hash:
                    # only a revision may move the body, one record per change
                    assert len(route.revisions) == revision_count + 1
                    frozen_hash = current_hash
                    revision_count = len(route.revisions)
            assert errors_only(check_freeze_integrity(bundle)) == []


@pytest.mark.parametrize("kind", ["route_frozen", "route_revised"])
@pytest.mark.parametrize(
    "route", [["child:C1:R2"], {"id": "child:C1:R2"}, 7], ids=["list", "object", "int"]
)
def test_freeze_record_with_a_non_string_route_is_a_payload_finding(
    kind, route, tmp_path, capsys
):
    from recap_engine.cli import main
    from recap_engine.reporting import compliance_verdict

    doc = json.loads(toy_text())
    event = doc["events"][0]  # the toy's freeze of its committed route
    assert event["kind"] == "route_frozen"
    event["kind"] = kind
    event["payload"]["route"] = route
    if kind == "route_revised":
        event["payload"].update(revision={}, body={})
    result = parse_bundle(json.dumps(doc))
    assert result.bundle is None
    assert [(d.code, d.location) for d in result.diagnostics] == [
        ("E_PAYLOAD_SCHEMA", "events[0].payload")
    ]
    # The same record edited into a bundle after parsing it.
    bundle = parse_bundle(toy_text()).bundle
    bundle.events = (replace(bundle.events[0], kind=kind, payload=event["payload"]),) + bundle.events[1:]
    report = compliance_verdict(bundle)
    assert report.verdict == "non_compliant"
    findings = [(d.code, d.location, d.message) for d in report.findings]
    message = f"malformed {kind} payload: route: expected identifier string"
    assert [f for f in findings if f[0] == "E_PAYLOAD_SCHEMA"] == [
        ("E_PAYLOAD_SCHEMA", "events[0].payload", message)
    ]
    # The event is skipped, so the committed route's freeze is unrecorded.
    assert [d.code for d in check_freeze_integrity(bundle)] == ["W_FREEZE_UNRECORDED"]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "internal error" not in out + err
    assert "E_PAYLOAD_SCHEMA" in out + err
