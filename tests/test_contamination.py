import copy
import json
import random

import pytest

from genbundles import edit, inject_borrowings, inject_faults, layer_named, parse_dict
from genbundles import random_bundle_dict
from toy import FREEZE_TS, PRJ, toy_dict, variant

from recap_engine.audit import find_declaration, replay
from recap_engine.bundle import PLANS, clone, parse_bundle, serialize_bundle
from recap_engine.contamination import (
    check_flow,
    flag_contamination,
    record_flow,
    resolve_contamination,
    scan_bundle,
    trace_downstream,
    validate_contract,
    validate_insight,
)
from recap_engine.diagnostics import OperationRejected
from recap_engine.identifiers import Identifier
from recap_engine.layers import resolve_constraints
from recap_engine.model import (
    BoundaryContract,
    BundleIndex,
    ContaminationEvent,
    ContaminationSite,
    FlowEvent,
    InsightProposal,
    ProjectBundle,
)
from recap_engine.records import replace
from recap_engine.reporting import compliance_verdict
from recap_engine.routing import freeze_route

INFO_CLASSES = ("content", "measurement", "assumption", "methodological_insight")

ALLOWED = ("allowed", None, None)
UP_R1 = ("violation", "upward", "R1_upward_content")
UP_R5 = ("violation", "upward", "R5_meta_engine_insulation")
HZ_R3 = ("violation", "horizontal", "R3_horizontal_borrowing")

# Hand-written truth table: (form, info_class) -> (without contract, with
# matching contract). Derived from the flow laws: constraints move down,
# only validated insight climbs one level, lateral movement is
# contract-gated, and no contract ever legalizes upward movement.
FLOW_TRUTH_TABLE = {
    ("self", "content"): (ALLOWED, ALLOWED),
    ("self", "measurement"): (ALLOWED, ALLOWED),
    ("self", "assumption"): (ALLOWED, ALLOWED),
    ("self", "methodological_insight"): (ALLOWED, ALLOWED),
    ("gp_to_parent", "content"): (ALLOWED, ALLOWED),
    ("gp_to_parent", "measurement"): (ALLOWED, ALLOWED),
    ("gp_to_parent", "assumption"): (ALLOWED, ALLOWED),
    ("gp_to_parent", "methodological_insight"): (ALLOWED, ALLOWED),
    ("parent_to_child", "content"): (ALLOWED, ALLOWED),
    ("parent_to_child", "measurement"): (ALLOWED, ALLOWED),
    ("parent_to_child", "assumption"): (ALLOWED, ALLOWED),
    ("parent_to_child", "methodological_insight"): (ALLOWED, ALLOWED),
    ("gp_to_child", "content"): (ALLOWED, ALLOWED),
    ("gp_to_child", "measurement"): (ALLOWED, ALLOWED),
    ("gp_to_child", "assumption"): (ALLOWED, ALLOWED),
    ("gp_to_child", "methodological_insight"): (ALLOWED, ALLOWED),
    ("child_to_parent", "content"): (UP_R1, UP_R1),
    ("child_to_parent", "measurement"): (UP_R1, UP_R1),
    ("child_to_parent", "assumption"): (UP_R1, UP_R1),
    ("child_to_parent", "methodological_insight"): (ALLOWED, ALLOWED),
    ("parent_to_gp", "content"): (UP_R1, UP_R1),
    ("parent_to_gp", "measurement"): (UP_R1, UP_R1),
    ("parent_to_gp", "assumption"): (UP_R1, UP_R1),
    ("parent_to_gp", "methodological_insight"): (ALLOWED, ALLOWED),
    ("child_to_gp", "content"): (UP_R1, UP_R1),
    ("child_to_gp", "measurement"): (UP_R1, UP_R1),
    ("child_to_gp", "assumption"): (UP_R1, UP_R1),
    ("child_to_gp", "methodological_insight"): (UP_R5, UP_R5),
    ("child_to_child", "content"): (HZ_R3, ALLOWED),
    ("child_to_child", "measurement"): (HZ_R3, ALLOWED),
    ("child_to_child", "assumption"): (HZ_R3, ALLOWED),
    ("child_to_child", "methodological_insight"): (HZ_R3, ALLOWED),
    ("parent_to_parent", "content"): (HZ_R3, ALLOWED),
    ("parent_to_parent", "measurement"): (HZ_R3, ALLOWED),
    ("parent_to_parent", "assumption"): (HZ_R3, ALLOWED),
    ("parent_to_parent", "methodological_insight"): (HZ_R3, ALLOWED),
}

FORM_ENDPOINTS = {
    "self": ("G", "G"),
    "gp_to_parent": ("G", "P1"),
    "parent_to_child": ("P1", "C1"),
    "gp_to_child": ("G", "C1"),
    "child_to_parent": ("C1", "P1"),
    "parent_to_gp": ("P1", "G"),
    "child_to_gp": ("C1", "G"),
    "child_to_child": ("C1", "C2"),
    "parent_to_parent": ("P1", "P2"),
}


def matrix_bundle() -> ProjectBundle:
    layers = []

    def layer(local, kind, parent=None):
        layers.append(
            {
                "id": local,
                "kind": kind,
                "version": "v1.0",
                "parent_ref": parent,
                "laws": [],
                "abstractions": [],
                "vocabulary": [],
            }
        )

    layer("G", "grandparent")
    layer("P1", "parent", "G")
    layer("P2", "parent", "G")
    layer("C1", "child", "P1")
    layer("C2", "child", "P1")
    doc = {
        "recap_version": "v1.0",
        "layers": layers,
        "projects": [],
        "units": [],
        "routes": [],
        "flows": [],
        "contracts": [],
        "events": [],
        "reviewer_blocks": [],
        "memos": [],
    }
    return parse_dict(doc)


def layer_id(bundle, local):
    return layer_named(bundle, local).id


def make_flow(bundle, src, dst, info, contract_ref=None):
    return FlowEvent(
        id=Identifier("gp", "", "TF"),
        source_layer=layer_id(bundle, src),
        dest_layer=layer_id(bundle, dst),
        info_class=info,
        payload="A structural note.",
        timestamp="2026-02-10T00:00:00Z",
        contract_ref=contract_ref,
    )


def make_contract(bundle, src, dst, info):
    return BoundaryContract(
        id=Identifier("gp", "", "CT"),
        info_type=info,
        origin_layer=layer_id(bundle, src),
        destination_layer=layer_id(bundle, dst),
        legal_justification="A reviewed, documented transfer.",
        no_reinterpretation_clause=True,
        documentation_ref="shared memo record",
    )


# ---------------------------------------------------------------------------
# Flow matrix
# ---------------------------------------------------------------------------


def test_flow_matrix_matches_truth_table_exhaustively():
    checked = 0
    for (form, info), (without, with_contract) in FLOW_TRUTH_TABLE.items():
        src, dst = FORM_ENDPOINTS[form]
        for has_contract, expected in ((False, without), (True, with_contract)):
            bundle = matrix_bundle()
            contract_ref = None
            if has_contract:
                bundle.contracts += (make_contract(bundle, src, dst, info),)
                contract_ref = bundle.contracts[0].id
            flow = make_flow(bundle, src, dst, info, contract_ref)
            verdict = check_flow(flow, bundle)
            got = (
                "allowed" if verdict.allowed else "violation",
                verdict.direction if not verdict.allowed else None,
                verdict.rule if not verdict.allowed else None,
            )
            assert got == expected, (form, info, has_contract, verdict)
            checked += 1
    assert checked == len(FLOW_TRUTH_TABLE) * 2 == 72


def test_upward_content_never_legalized_by_contract():
    for src, dst in (("C1", "P1"), ("P1", "G"), ("C1", "G")):
        for info in ("content", "measurement", "assumption"):
            bundle = matrix_bundle()
            bundle.contracts += (make_contract(bundle, src, dst, info),)
            flow = make_flow(bundle, src, dst, info, bundle.contracts[0].id)
            verdict = check_flow(flow, bundle)
            assert not verdict.allowed and verdict.direction == "upward"


def test_mismatched_or_incomplete_contract_is_r4():
    bundle = matrix_bundle()
    contract = make_contract(bundle, "C1", "C2", "measurement")
    bundle.contracts += (contract,)
    flow = make_flow(bundle, "C1", "C2", "assumption", contract.id)
    verdict = check_flow(flow, bundle)
    assert (verdict.direction, verdict.rule) == ("horizontal", "R4_missing_contract")

    incomplete = make_contract(bundle, "C1", "C2", "assumption")
    incomplete = replace(incomplete, no_reinterpretation_clause=False)
    bundle.contracts = [incomplete]
    flow = make_flow(bundle, "C1", "C2", "assumption", incomplete.id)
    verdict = check_flow(flow, bundle)
    assert (verdict.direction, verdict.rule) == ("horizontal", "R4_missing_contract")
    assert validate_contract(incomplete)


def test_unknown_layer_rejected():
    bundle = matrix_bundle()
    flow = make_flow(bundle, "C1", "C2", "content")
    flow = replace(flow, dest_layer=Identifier("child", "C9", "C9"))
    with pytest.raises(OperationRejected) as err:
        check_flow(flow, bundle)
    assert err.value.diagnostics[0].code == "E_UNKNOWN_LAYER"


def test_insight_with_domain_payload_upward_is_violation():
    doc = toy_dict()
    bundle = parse_dict(doc)
    flow = FlowEvent(
        id=Identifier("child", "C1", "F9"),
        source_layer=Identifier("child", "C1", "C1"),
        dest_layer=Identifier("parent", "P", "P"),
        info_class="methodological_insight",
        payload="The mapping child:C1:S1 uses should become the default.",
        timestamp="2026-02-10T00:00:00Z",
    )
    verdict = check_flow(flow, bundle)
    assert (verdict.direction, verdict.rule) == ("upward", "R1_upward_content")


# ---------------------------------------------------------------------------
# Insight transmission
# ---------------------------------------------------------------------------


def test_clean_abstracted_insight_passes(toy):
    proposal = InsightProposal(
        id="INS-1",
        origin_layer=Identifier("parent", "P", "P"),
        target_layer=Identifier("gp", "", "G"),
        statement="operationalization stability should be a declared dimension",
        proposed_additions=[
            {
                "kind": "law",
                "id": "operationalization_stability",
                "text": "Operationalization stability is a declared tier dimension.",
            }
        ],
    )
    assert validate_insight(proposal, toy) == []


def test_child_identifier_in_statement_is_domain_term(toy):
    proposal = InsightProposal(
        id="INS-2",
        origin_layer=Identifier("parent", "P", "P"),
        target_layer=Identifier("gp", "", "G"),
        statement="The reading of child:C1:S1 generalizes.",
    )
    codes = [d.code for d in validate_insight(proposal, toy)]
    assert "E_DOMAIN_TERM" in codes


def test_parent_identifier_barred_for_grandparent_target(toy):
    proposal = InsightProposal(
        id="INS-3",
        origin_layer=Identifier("parent", "P", "P"),
        target_layer=Identifier("gp", "", "G"),
        statement="Treat parent:P:m1 stability as a dimension.",
    )
    assert "E_DOMAIN_TERM" in [d.code for d in validate_insight(proposal, toy)]


def test_an_insight_restating_an_existing_law_is_a_duplicate_id():
    # The proposal passes validation; commit refuses a law the target
    # already declares, as for any write, and changes nothing.
    def pollute(doc):
        parent = next(l for l in doc["layers"] if l["id"] == "P")
        parent["abstractions"][1]["definition"] += " Tuned for child:C1:S2."

    bundle = parse_dict(variant(pollute))
    event = scan_bundle(bundle)[0]
    event.risks_introduced = "A domain abstraction absorbed one project's reading."
    proposal = InsightProposal(
        id="INS-4",
        origin_layer=Identifier("parent", "P", "P"),
        target_layer=Identifier("gp", "", "G"),
        statement="stability of measurement",
        proposed_additions=[{"kind": "law", "id": "one_route", "text": "softened"}],
    )
    assert validate_insight(proposal, bundle) == []
    before = serialize_bundle(bundle)
    with pytest.raises(OperationRejected) as err:
        resolve_contamination(bundle, event, "extract_insight", proposal=proposal)
    assert [(d.code, d.location) for d in err.value.diagnostics] == [
        ("E_DUP_ID", "gp:one_route")
    ]
    assert serialize_bundle(bundle) == before
    assert not event.resolved


def test_foreign_vocabulary_rejected(toy):
    proposal = InsightProposal(
        id="INS-5",
        origin_layer=Identifier("parent", "P", "P"),
        target_layer=Identifier("gp", "", "G"),
        statement="Every proxy needs a declared dimension.",  # "proxy" lives at P
    )
    assert "E_FOREIGN_VOCAB" in [d.code for d in validate_insight(proposal, toy)]


def test_skip_level_insight_rejected(toy):
    proposal = InsightProposal(
        id="INS-6",
        origin_layer=Identifier("child", "C1", "C1"),
        target_layer=Identifier("gp", "", "G"),
        statement="stability matters",
    )
    assert "R5_meta_engine_insulation" in [d.code for d in validate_insight(proposal, toy)]


# ---------------------------------------------------------------------------
# scanBundle
# ---------------------------------------------------------------------------


def test_toy_bundle_scans_clean(toy):
    assert scan_bundle(toy) == []


def test_a_parent_named_like_its_child_owns_only_its_own_ids():
    # The toy with layer P renamed parent:C1:C1: both layers have the local
    # name C1, so only an id's namespace tells which of them owns it, in
    # either layer order.
    doc = json.loads(json.dumps(toy_dict()).replace('"parent:P:', '"parent:C1:'))
    gp, parent, child = doc["layers"]
    parent["id"] = child["parent_ref"] = doc["flows"][0]["dest_layer"] = "parent:C1:C1"
    doc["projects"][0]["layer_ref"] = "child:C1:C1"
    for layers in ([gp, parent, child], [gp, child, parent]):
        bundle = parse_dict(dict(doc, layers=layers))
        freeze_route(bundle, PRJ, timestamp=FREEZE_TS, actor="toy-author")
        assert scan_bundle(bundle) == []
        assert compliance_verdict(bundle).verdict == "compliant"


def test_child_law_override_is_downward_rewrite():
    def override(doc):
        child = next(l for l in doc["layers"] if l["id"] == "C1")
        child["laws"].append(
            {
                "id": "A",
                "text": "A means whatever m1 measures.",
                "immutable_core": False,
                "quarantined": False,
            }
        )

    bundle = parse_dict(variant(override))
    events = scan_bundle(bundle)
    assert len(events) == 1
    event = events[0]
    assert (event.rule_violated, event.direction) == ("R2_downward_rewrite", "downward")
    assert event.site.container == "child:C1:A"
    assert event.nature == "structural"


def test_gp_law_citing_child_is_upward():
    def pollute(doc):
        gp = next(l for l in doc["layers"] if l["kind"] == "grandparent")
        gp["laws"][4]["text"] += " Calibrated against child:C1:S1."

    bundle = parse_dict(variant(pollute))
    events = scan_bundle(bundle)
    assert [(e.rule_violated, e.direction) for e in events] == [
        ("R1_upward_content", "upward")
    ]
    assert events[0].site.token == "child:C1:S1"


def test_sibling_assumption_reuse_is_horizontal():
    rng = random.Random(77)
    doc = random_bundle_dict(rng, n_parents=1, n_children=2)
    # make sure both children carry a unit to borrow between
    doc["units"].append(
        {
            "study_id": "child:C2:SB",
            "design_type": "Observational (Abstract)",
            "interpretations": [
                {
                    "construct_alignment": "aligned",
                    "measurement": "adequate",
                    "design": "sufficient",
                    "reporting": "transparent",
                    "speculation_required": False,
                }
            ],
            "splittable": False,
            "declared_tier": None,
            "tier_justification": "",
            "explicit_assumptions": [
                {
                    "id": "child:C2:DAB",
                    "text": "Borrows the proxy reading of child:C1:PRJ.",
                    "covers": ["measurement"],
                }
            ],
            "retier_events": [],
            "measurement_refs": [],
            "bias_considerations": "none → nondirectional",
            "measurement_issues": "",
            "notes": "",
            "methods_summary": "",
            "strengths": "",
            "limitations": "",
            "split_from": None,
            "superseded": False,
            "quarantined": False,
        }
    )
    bundle = parse_dict(doc)
    events = [e for e in scan_bundle(bundle) if e.site.container == "child:C2:DAB"]
    assert len(events) == 1
    assert (events[0].rule_violated, events[0].direction, events[0].nature) == (
        "R3_horizontal_borrowing",
        "horizontal",
        "assumption",
    )


def test_sibling_reuse_with_matching_contract_is_clean():
    rng = random.Random(78)
    doc = random_bundle_dict(rng, n_parents=1, n_children=2)
    doc["units"][0]["notes"] += " Shares framing with child:C2:PRJ."
    owner = doc["units"][0]["study_id"].split(":")[1]
    doc["contracts"].append(
        {
            "id": "child:C2:CT1",
            "info_type": "content",
            "origin_layer": "C2",
            "destination_layer": owner,
            "legal_justification": "Reviewed cross-project framing transfer.",
            "no_reinterpretation_clause": True,
            "documentation_ref": "joint memo",
        }
    )
    bundle = parse_dict(doc)
    assert scan_bundle(bundle) == []


def test_scan_reports_upward_events_first():
    def pollute(doc):
        child = next(l for l in doc["layers"] if l["id"] == "C1")
        child["laws"].append(
            {"id": "A", "text": "Local override.", "immutable_core": False, "quarantined": False}
        )
        gp = next(l for l in doc["layers"] if l["kind"] == "grandparent")
        gp["laws"][5]["text"] += " Anchored to child:C1:S1."

    bundle = parse_dict(variant(pollute))
    events = scan_bundle(bundle)
    assert [e.direction for e in events] == ["upward", "downward"]
    assert [e.id for e in events] == ["CONT-0001", "CONT-0002"]


def test_fault_injection_counts_and_directions():
    rng = random.Random(4242)
    for trial in range(40):
        doc = random_bundle_dict(rng)
        k = rng.randint(0, 5)
        expected = inject_faults(rng, doc, k)
        bundle = parse_dict(doc)
        events = scan_bundle(bundle)
        got = sorted((e.direction, e.rule_violated, e.site.container) for e in events)
        want = sorted((e["direction"], e["rule"], e["container"]) for e in expected)
        assert got == want, trial


# ---------------------------------------------------------------------------
# traceDownstream
# ---------------------------------------------------------------------------


def test_unit_site_reaches_its_decision_surface(toy):
    # decouple the route assumptions from S1 so the reachable set is exactly
    # the four decision nodes
    route = BundleIndex(toy).routes.get(Identifier("child", "C1", "R2"))
    assumptions = tuple(
        replace(assumption, supporting_units=(), untestable=True)
        for assumption in route.assumptions
    )
    edit(toy, route, assumptions=assumptions)
    from recap_engine.model import ContaminationEvent, ContaminationSite

    event = ContaminationEvent(
        id="CONT-X",
        rule_violated="R3_horizontal_borrowing",
        direction="horizontal",
        nature="measurement",
        site=ContaminationSite(container="child:C1:S1", field="measurement_issues", token="x"),
    )
    assert trace_downstream(event, toy) == [
        "coherence:child:C1:R2",
        "studylog:child:C1:S1",
        "tier:child:C1:S1",
        "tiertable:child:C1:S1",
    ]


def test_unreferenced_declaration_traces_to_nothing():
    def override(doc):
        child = next(l for l in doc["layers"] if l["id"] == "C1")
        child["laws"].append(
            {"id": "A", "text": "Local override.", "immutable_core": False, "quarantined": False}
        )

    bundle = parse_dict(variant(override))
    event = scan_bundle(bundle)[0]
    assert event.decisions_affected == []


def test_gp_law_site_reaches_every_project():
    rng = random.Random(99)
    doc = random_bundle_dict(rng, n_parents=2, n_children=4)
    doc["layers"][0]["laws"][0]["text"] += " Anchored to child:C1:PRJ."
    bundle = parse_dict(doc)
    events = scan_bundle(bundle)
    assert len(events) == 1
    projects = {p.id.render() for p in bundle.projects}
    assert projects <= set(events[0].decisions_affected)


def _oracle_edges(bundle) -> dict[str, set[str]]:
    """Dependency edges rebuilt from the declarations alone, independent of
    the engine's graph builder."""
    edges: dict[str, set[str]] = {}

    def add(a, b):
        edges.setdefault(a, set()).add(b)

    gp = bundle.grandparent()
    for project in bundle.projects:
        for law in gp.laws:
            add(law.id.render(), project.id.render())
        child = BundleIndex(bundle).layers.get(project.layer_ref)
        parent = BundleIndex(bundle).layers.get(child.parent_ref) if child else None
        if parent is not None:
            for ab in parent.abstractions:
                add(ab.id.render(), project.id.render())
        for assignment in project.assignments:
            add(
                f"tier:{assignment.unit_ref.render()}",
                f"coherence:{assignment.route_ref.render()}",
            )
    for unit in bundle.units:
        if unit.superseded or unit.quarantined:
            continue
        key = unit.study_id.render()
        add(key, f"tier:{key}")
        add(f"tier:{key}", f"studylog:{key}")
        if unit.declared_tier is not None and unit.declared_tier.label in (
            "core",
            "supplement",
        ):
            add(f"tier:{key}", f"tiertable:{key}")
        for ref in unit.measurement_refs:
            add(ref.render(), key)
    for route in bundle.routes:
        add(route.id.render(), f"coherence:{route.id.render()}")
        for assumption in route.assumptions:
            add(assumption.id.render(), f"coherence:{route.id.render()}")
            for ref in assumption.supporting_units:
                add(ref.render(), assumption.id.render())
    return edges


def _oracle_reach(edges: dict[str, set[str]], start: str) -> list[str]:
    reachable, frontier = set(), list(edges.get(start, ()))
    while frontier:
        node = frontier.pop()
        if node in reachable:
            continue
        reachable.add(node)
        frontier.extend(edges.get(node, ()))
    return sorted(reachable)


def _unit_assigned_in_two_projects(doc):
    doc["projects"].append(
        {"id": "child:C1:PRJ2", "layer_ref": "C1", "unit_refs": ["child:C1:S2"],
         "assignments": [{"unit_ref": "child:C1:S2", "route_ref": "child:C1:R4",
                          "role": "contextual"}]}
    )


def test_trace_matches_independent_reachability_oracle():
    # Oracle: a plain BFS over edges rebuilt from the declarations; every
    # event of every scan must match it, including bundles with many faults.
    rng = random.Random(123)
    many = 0
    for k in (1, 3, 6):
        for _ in range(15):
            doc = random_bundle_dict(rng)
            expected_faults = inject_faults(rng, doc, k)
            bundle = parse_dict(doc)
            events = scan_bundle(bundle)
            assert events, expected_faults
            many += len(events) >= 3
            edges = _oracle_edges(bundle)
            for event in events:
                reachable = _oracle_reach(edges, event.site.container)
                assert reachable == event.decisions_affected, (event.id, expected_faults)
                assert trace_downstream(event, bundle) == event.decisions_affected
            # Events sharing a container still own their lists.
            assert len({id(e.decisions_affected) for e in events}) == len(events)
    assert many >= 10
    # A unit assigned in two projects reaches the coherence of both routes.
    bundle = parse_dict(variant(_unit_assigned_in_two_projects))
    edges = _oracle_edges(bundle)
    for unit in bundle.units:
        site = ContaminationSite(container=unit.study_id.render(), field="notes", token="x")
        event = ContaminationEvent(id="CONT-X", rule_violated="R3_horizontal_borrowing",
                                   direction="horizontal", nature="content", site=site)
        assert trace_downstream(event, bundle) == _oracle_reach(edges, site.container)
    assert {"coherence:child:C1:R3", "coherence:child:C1:R4"} <= set(
        _oracle_reach(edges, "child:C1:S2"))


def test_scan_builds_the_reference_graph_once(monkeypatch):
    import recap_engine.contamination as contamination

    calls = []
    original = contamination.build_reference_graph

    def counting(bundle):
        calls.append(bundle)
        return original(bundle)

    monkeypatch.setattr(contamination, "build_reference_graph", counting)
    rng = random.Random(77)
    doc = random_bundle_dict(rng, n_parents=2, n_children=6)
    inject_faults(rng, doc, 12)
    assert len(scan_bundle(parse_dict(doc))) >= 10
    assert len(calls) == 1

    calls.clear()
    assert scan_bundle(parse_dict(random_bundle_dict(random.Random(78)))) == []
    assert calls == []


def test_tracing_a_scanned_state_builds_no_further_graph(monkeypatch):
    import recap_engine.contamination as contamination

    calls = []
    original = contamination.build_reference_graph
    monkeypatch.setattr(contamination, "build_reference_graph",
                        lambda bundle: calls.append(bundle) or original(bundle))
    rng = random.Random(77)
    doc = random_bundle_dict(rng, n_parents=2, n_children=6)
    inject_faults(rng, doc, 12)
    bundle = parse_dict(doc)
    events = scan_bundle(bundle)
    for event in events + scan_bundle(bundle):
        assert trace_downstream(event, bundle) == event.decisions_affected
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# resolveContamination
# ---------------------------------------------------------------------------


def _horizontal_case():
    rng = random.Random(314)
    doc = random_bundle_dict(rng, n_parents=1, n_children=2)
    unit = doc["units"][0]
    owner = unit["study_id"].split(":")[1]
    sibling = "C2" if owner != "C2" else "C1"
    unit["notes"] += f" Matches the convention of child:{sibling}:PRJ."
    bundle = parse_dict(doc)
    events = scan_bundle(bundle)
    assert len(events) == 1
    return bundle, events[0]


def test_reverse_removes_the_reference_and_logs_once():
    bundle, event = _horizontal_case()
    event.risks_introduced = "Convention reuse could smuggle an unvetted assumption."
    events_before = len(bundle.events)
    resolve_contamination(bundle, event, "reverse", timestamp="2026-05-01T00:00:00Z")
    assert event.resolved and event.corrective_action == "reversed"
    assert len(bundle.events) == events_before + 1
    assert bundle.events[-1].kind == "contamination_resolved"
    assert scan_bundle(bundle) == []
    _, owner, local = event.site.container.split(":")
    unit = BundleIndex(bundle).units.get(Identifier("child", owner, local))
    assert event.site.token not in unit.notes


def test_reverse_of_a_missing_disconfirming_model_is_rejected():
    rng = random.Random(271)
    doc = random_bundle_dict(rng, n_parents=1, n_children=2)
    route = doc["routes"][0]
    owner = route["id"].split(":")[1]
    sibling = "C2" if owner != "C2" else "C1"
    assert len(route["disconfirming_models"]) == 1
    route["disconfirming_models"][0] += f" As in child:{sibling}:PRJ."
    bundle = parse_dict(doc)
    [event] = scan_bundle(bundle)
    assert event.site.field == "disconfirming_models[0]"
    event.risks_introduced = "A sibling's rival model was borrowed unvetted."
    event.site.field = "disconfirming_models[9]"
    before = serialize_bundle(bundle)
    with pytest.raises(OperationRejected) as err:
        resolve_contamination(bundle, event, "reverse", timestamp="2026-05-01T00:00:00Z")
    assert [(d.code, d.location) for d in err.value.diagnostics] == [
        ("E_UNDOCUMENTED", event.site.container)
    ]
    assert serialize_bundle(bundle) == before
    assert not event.resolved

    event.site.field = "disconfirming_models[0]"
    resolve_contamination(bundle, event, "reverse", timestamp="2026-05-01T00:00:00Z")
    assert scan_bundle(bundle) == []


def _borrowing_bundle():
    doc = random_bundle_dict(random.Random(0), n_parents=1, n_children=2)
    assert inject_borrowings(doc)
    return parse_dict(doc)


RISKS = "A sibling's declaration was borrowed unvetted."


def _attempt(bundle, event, action):
    """Resolve ``event``; on rejection, check that neither the bundle nor
    the event changed and return the diagnostics' (code, location)."""
    before, unresolved = serialize_bundle(bundle), copy.deepcopy(event)
    try:
        resolve_contamination(bundle, event, action, timestamp="2026-05-01T00:00:00Z")
    except OperationRejected as err:
        assert serialize_bundle(bundle) == before
        assert event == unresolved
        return [(d.code, d.location) for d in err.diagnostics]
    return None


@pytest.mark.parametrize(
    "action, effects, rejected",
    [
        (
            "quarantine",
            {"quarantine"},
            # a declared assumption, a route assumption and a project have
            # no quarantine flag
            ["child:C1:DAB", "child:C1:AS1", "child:C1:AS1"] + ["child:C1:PRJ"] * 3,
        ),
        (
            "reverse",
            {"remove_flow", "remove_declaration", "edit_text", "remove_ref",
             "edit_list_item", "clear_ref", "remove_assignment"},
            # a unit's measurement_refs still cite the abstraction
            ["child:C2:mz"],
        ),
    ],
)
def test_each_scanned_event_resolves_and_replays_or_is_rejected_unchanged(
    action, effects, rejected
):
    initial = _borrowing_bundle()
    seen, refused = set(), []
    for i in range(len(scan_bundle(initial))):
        live = clone(initial)
        event = scan_bundle(live)[i]
        event.risks_introduced = RISKS
        diagnostics = _attempt(live, event, action)
        if diagnostics is not None:
            assert diagnostics == [("E_UNDOCUMENTED", event.site.container)]
            refused.append(event.site.container)
            continue
        assert event.resolved
        [resolution] = live.events[len(initial.events):]
        assert serialize_bundle(replay(initial, [resolution])) == serialize_bundle(live)
        assert parse_bundle(serialize_bundle(live)).bundle is not None
        seen.update(effect["op"] for effect in resolution.payload["effects"])
    assert seen == effects
    assert refused == rejected


def test_removing_a_declaration_that_is_not_a_law_or_an_abstraction_is_rejected():
    bundle = _borrowing_bundle()
    site = ContaminationSite(container="child:C1:S1")
    event = ContaminationEvent(
        id="CONT-0001",
        rule_violated="R2_downward_rewrite",
        direction="downward",
        nature="structural",
        site=site,
        risks_introduced=RISKS,
    )
    assert _attempt(bundle, event, "reverse") == [("E_UNDOCUMENTED", "child:C1:S1")]


def test_a_cited_declaration_is_removed_only_once_nothing_cites_it():
    bundle = _borrowing_bundle()

    def event_at(field, container="child:C2:mz"):
        event = next(
            e for e in scan_bundle(bundle) if (e.site.container, e.site.field) == (container, field)
        )
        event.risks_introduced = RISKS
        return event

    assert _attempt(bundle, event_at(""), "reverse") == [("E_UNDOCUMENTED", "child:C2:mz")]
    assert _attempt(bundle, event_at("measurement_refs", "child:C1:S1"), "reverse") is None
    assert _attempt(bundle, event_at(""), "reverse") is None
    assert parse_bundle(serialize_bundle(bundle)).bundle is not None

    doc = random_bundle_dict(random.Random(0), n_parents=1, n_children=2)
    assert inject_borrowings(doc)
    doc["units"][0]["measurement_refs"].remove("child:C2:mz")
    doc["routes"][0]["construct_ref"] = "child:C2:mz"
    bundle = parse_dict(doc)
    assert _attempt(bundle, event_at(""), "reverse") == [("E_UNDOCUMENTED", "child:C2:mz")]

    # A text citation resolves at parse time as well.
    doc = random_bundle_dict(random.Random(0), n_parents=1, n_children=2)
    assert inject_borrowings(doc)
    doc["units"][0]["measurement_refs"].remove("child:C2:mz")
    doc["units"][0]["notes"] += " Read as child:C2:mz."
    bundle = parse_dict(doc)
    assert _attempt(bundle, event_at(""), "reverse") == [("E_UNDOCUMENTED", "child:C2:mz")]


@pytest.mark.parametrize("citation", ["correspondence", "flow payload"])
def test_a_declaration_a_correspondence_or_a_flow_names_is_not_removed(citation):
    doc = random_bundle_dict(random.Random(0), n_parents=1, n_children=2)
    assert inject_borrowings(doc)
    doc["units"][0]["measurement_refs"].remove("child:C2:mz")
    if citation == "correspondence":
        c2 = next(layer for layer in doc["layers"] if layer["id"] == "C2")
        c2["abstractions"].append({"id": "kz", "kind": "construct", "definition": "Local.",
                                   "correspondence": {"mz": "kz"}})
    else:
        doc["flows"][-1]["payload"] += " Read as child:C2:mz."
    bundle = parse_dict(doc)
    event = next(e for e in scan_bundle(bundle) if e.site.container == "child:C2:mz")
    event.risks_introduced = RISKS
    assert _attempt(bundle, event, "reverse") == [("E_UNDOCUMENTED", "child:C2:mz")]


def test_a_resolution_whose_effect_fails_in_commit_leaves_the_event_as_it_was():
    bundle = _borrowing_bundle()
    event = next(e for e in scan_bundle(bundle) if e.site.field == "unit_refs")
    event.risks_introduced = RISKS
    event.site.token = "child:C2:GONE"  # not in the list, so the applier would fail
    before, unresolved = serialize_bundle(bundle), copy.deepcopy(event)
    with pytest.raises(OperationRejected) as err:
        resolve_contamination(bundle, event, "reverse", timestamp="2026-05-01T00:00:00Z")
    assert [(d.code, d.location) for d in err.value.diagnostics] == [
        ("E_UNDOCUMENTED", "child:C1:PRJ")
    ]
    assert serialize_bundle(bundle) == before
    assert event == unresolved


@pytest.mark.parametrize(
    "field", ["measurement_refs", "supporting_units", "assignments", "limitations", "text",
              "failure_modes", "disconfirming_models[1]"]
)
def test_reversing_a_token_that_is_not_at_its_site_is_rejected_unchanged(field):
    bundle = _borrowing_bundle()
    event = next(e for e in scan_bundle(bundle) if e.site.field == field)
    event.risks_introduced = RISKS
    event.site.token = "child:C2:GONE"
    assert _attempt(bundle, event, "reverse") == [("E_UNDOCUMENTED", event.site.container)]


def test_resolution_without_risks_is_undocumented():
    bundle, event = _horizontal_case()
    before = serialize_bundle(bundle)
    with pytest.raises(OperationRejected) as err:
        resolve_contamination(bundle, event, "reverse")
    assert "E_UNDOCUMENTED" in [d.code for d in err.value.diagnostics]
    assert serialize_bundle(bundle) == before
    assert not event.resolved


def test_quarantine_marks_declaration_inert(toy):
    gp = toy.grandparent()
    law = next(l for l in gp.laws if l.id.local_name == "A")
    law = edit(toy, law, text=law.text + " Calibrated against child:C1:S1.")
    events = scan_bundle(toy)
    assert len(events) == 1
    event = events[0]
    event.risks_introduced = "The construct definition absorbed a project detail."
    resolve_contamination(toy, event, "quarantine", timestamp="2026-05-01T00:00:00Z")
    assert find_declaration(toy, law.id.render()).quarantined
    assert scan_bundle(toy) == []
    resolved = resolve_constraints(toy, Identifier("child", "C1", "C1"))
    assert "gp:A" not in {law.id.render() for law in resolved.laws}
    for late in scan_bundle(toy):
        assert "gp:A" not in late.decisions_affected


def test_extract_insight_appends_abstraction_at_parent():
    def pollute(doc):
        parent = next(l for l in doc["layers"] if l["id"] == "P")
        parent["abstractions"][1]["definition"] += " Tuned for child:C1:S2."

    bundle = parse_dict(variant(pollute))
    events = scan_bundle(bundle)
    assert len(events) == 1
    event = events[0]
    event.risks_introduced = "A domain abstraction absorbed one project's reading."
    proposal = InsightProposal(
        id="INS-UP",
        origin_layer=Identifier("child", "C1", "C1"),
        target_layer=Identifier("parent", "P", "P"),
        statement="intermediate readings need a declared stability indicator",
        proposed_additions=[
            {
                "kind": "abstraction",
                "id": "stability_indicator",
                "abstraction_kind": "measurement_class",
                "definition": "A declared indicator of operationalization stability.",
            }
        ],
    )
    resolve_contamination(
        bundle, event, "extract_insight", proposal=proposal, timestamp="2026-05-01T00:00:00Z"
    )
    parent = layer_named(bundle, "P")
    assert any(ab.id.local_name == "stability_indicator" for ab in parent.abstractions)
    assert event.resolved and event.corrective_action == "insight_extracted"
    assert scan_bundle(bundle) == []


def test_extract_insight_with_failing_proposal_rejected():
    bundle, event = _horizontal_case()
    event.risks_introduced = "documented"
    bad = InsightProposal(
        id="INS-BAD",
        origin_layer=Identifier("child", "C1", "C1"),
        target_layer=Identifier("parent", "P1", "P1"),
        statement="generalize child:C1:PRJ",
    )
    with pytest.raises(OperationRejected) as err:
        resolve_contamination(bundle, event, "extract_insight", proposal=bad)
    assert "E_INSIGHT_REJECTED" in [d.code for d in err.value.diagnostics]
    assert not event.resolved


def test_flow_violation_reversal_removes_the_flow():
    doc = toy_dict()
    doc["flows"].append(
        {
            "id": "child:C1:FV",
            "source_layer": "C1",
            "dest_layer": "G",
            "info_class": "measurement",
            "payload": "m1 redefines A",
            "timestamp": "2026-02-11T00:00:00Z",
            "contract_ref": None,
            "quarantined": False,
        }
    )
    bundle = parse_dict(doc)
    events = scan_bundle(bundle)
    assert [(e.rule_violated, e.direction) for e in events] == [
        ("R1_upward_content", "upward")
    ]
    event = events[0]
    event.risks_introduced = "A measurement tried to reshape a construct definition."
    resolve_contamination(bundle, event, "reverse", timestamp="2026-05-01T00:00:00Z")
    assert all(f.id.render() != "child:C1:FV" for f in bundle.flows)
    assert scan_bundle(bundle) == []


def test_a_flow_named_like_a_unit_is_rejected_unchanged(toy):
    flow = FlowEvent(
        id=Identifier("child", "C1", "S1"),
        source_layer=Identifier("gp", "", "G"),
        dest_layer=Identifier("child", "C1", "C1"),
        info_class="content",
        payload="Constraint refresh.",
        timestamp="2026-05-02T00:00:00Z",
    )
    before = serialize_bundle(toy)
    with pytest.raises(OperationRejected) as err:
        record_flow(toy, flow)
    assert [(d.code, d.location) for d in err.value.diagnostics] == [
        ("E_DUP_ID", "child:C1:S1")
    ]
    assert serialize_bundle(toy) == before


def test_record_flow_and_flag_are_logged(toy):
    flow = FlowEvent(
        id=Identifier("child", "C1", "F2"),
        source_layer=Identifier("child", "C1", "C1"),
        dest_layer=Identifier("parent", "P", "P"),
        info_class="methodological_insight",
        payload="operationalization stability should be a declared dimension",
        timestamp="2026-05-02T00:00:00Z",
    )
    record_flow(toy, flow)
    assert toy.events[-1].kind == "flow_recorded"
    assert toy.flows[-1].id.render() == "child:C1:F2"
    event_count = len(toy.events)
    from recap_engine.model import ContaminationEvent, ContaminationSite

    synthetic = ContaminationEvent(
        id="CONT-M",
        rule_violated="R3_horizontal_borrowing",
        direction="horizontal",
        nature="content",
        site=ContaminationSite(container="child:C1:S1"),
        risks_introduced="documented",
    )
    flag_contamination(toy, synthetic)
    assert len(toy.events) == event_count + 1
    assert toy.events[-1].kind == "contamination_flagged"


def test_extract_insight_rejects_an_unknown_abstraction_kind():
    def pollute(doc):
        parent = next(l for l in doc["layers"] if l["id"] == "P")
        parent["abstractions"][1]["definition"] += " Tuned for child:C1:S2."

    bundle = parse_dict(variant(pollute))
    before = serialize_bundle(bundle)
    event = scan_bundle(bundle)[0]
    event.risks_introduced = "A domain abstraction absorbed one project's reading."
    proposal = InsightProposal(
        id="INS-KIND",
        origin_layer=Identifier("child", "C1", "C1"),
        target_layer=Identifier("parent", "P", "P"),
        statement="intermediate readings need a declared stability indicator",
        proposed_additions=[
            {
                "kind": "abstraction",
                "id": "stability_indicator",
                "abstraction_kind": "bogus",
                "definition": "A declared indicator of operationalization stability.",
            }
        ],
    )
    with pytest.raises(OperationRejected) as err:
        resolve_contamination(bundle, event, "extract_insight", proposal=proposal)
    located = [(d.code, d.location) for d in err.value.diagnostics]
    assert ("E_SYNTAX", "INS-KIND") in located
    assert not event.resolved
    assert serialize_bundle(bundle) == before


def test_scan_sites_and_locations_at_every_reference_position():
    """A lateral reference from C1 to C2 in each place the scan checks, at
    an index other than 0 where there is one: each event names the
    declaration, field and token, and the location, of its reference."""
    doc = random_bundle_dict(random.Random(0), n_parents=1, n_children=2)
    c2 = next(layer for layer in doc["layers"] if layer["id"] == "C2")
    c2["abstractions"].append(
        {"id": "child:C2:mz", "kind": "measurement_class", "definition": "Local.",
         "correspondence": {}, "quarantined": False}
    )
    unit = doc["units"][1]
    assert unit["study_id"] == "child:C1:S2"
    unit["measurement_refs"] = ["parent:P1:mx", "parent:P1:mx", "child:C2:mz"]
    unit["limitations"] += " As child:C2:PRJ does."
    unit["explicit_assumptions"] = [
        {"id": "child:C1:DA9", "text": "Bounded as in child:C2:PRJ.",
         "covers": ["construct_alignment", "measurement", "design", "reporting"]}
    ]
    route = doc["routes"][0]
    assert route["id"] == "child:C1:R1"
    route["assumptions"][0]["supporting_units"] = ["child:C1:S1", "child:C2:S1"]
    route["assumptions"][0]["failure_modes"] += " See child:C2:R1."
    route["disconfirming_models"].append("Alternative: child:C2:PRJ.")
    project = doc["projects"][0]
    refs, roles = len(project["unit_refs"]), len(project["assignments"])
    project["unit_refs"].append("child:C2:S1")
    project["assignments"].append(
        {"unit_ref": "child:C2:S2", "route_ref": "child:C1:R1", "role": "contextual"}
    )
    project["committed_route"] = "child:C2:R1"

    events = [e for e in scan_bundle(parse_dict(doc)) if e.direction == "horizontal"]
    seen = [
        (e.rule_violated, e.nature, e.site.container, e.site.field, e.site.token, e.location)
        for e in events
    ]
    r3 = "R3_horizontal_borrowing"
    assert seen == [
        (r3, "content", "child:C1:S2", "limitations", "child:C2:PRJ", "units[1].limitations"),
        (r3, "assumption", "child:C1:DA9", "text", "child:C2:PRJ",
         "units[1].explicit_assumptions[0].text"),
        (r3, "measurement", "child:C1:S2", "measurement_refs", "child:C2:mz",
         "units[1].measurement_refs[2]"),
        (r3, "assumption", "child:C1:AS1", "failure_modes", "child:C2:R1",
         "routes[0].assumptions[0].failure_modes"),
        (r3, "assumption", "child:C1:AS1", "supporting_units", "child:C2:S1",
         "routes[0].assumptions[0].supporting_units[1]"),
        (r3, "content", "child:C1:R1", "disconfirming_models[1]", "child:C2:PRJ",
         "routes[0].disconfirming_models[1]"),
        (r3, "content", "child:C1:PRJ", "unit_refs", "child:C2:S1",
         f"projects[0].unit_refs[{refs}]"),
        (r3, "content", "child:C1:PRJ", "committed_route", "child:C2:R1",
         "projects[0].committed_route"),
        (r3, "content", "child:C1:PRJ", "assignments", "child:C2:S2",
         f"projects[0].assignments[{roles}]"),
    ]


# ---------------------------------------------------------------------------
# Every field the scan's plan holds
# ---------------------------------------------------------------------------


def _plan_fields(cls, prefix=""):
    """The dotted path of every text and reference field in the plan of
    ``cls`` (``bundle.PLANS``) and of the records it nests."""
    for _, name, _, of in PLANS[cls][1]:
        if isinstance(of, type):
            yield from _plan_fields(of, f"{prefix}{name}.")
        else:
            yield prefix + name


def _record(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _append(path, name, suffix=" As in child:C2:PRJ."):
    def edit(doc):
        _record(doc, path)[name] += suffix

    return edit


def _set(path, name, value):
    def edit(doc):
        _record(doc, path)[name] = value

    return edit


def _add(path, name, item):
    def edit(doc):
        _record(doc, path)[name].append(item)

    return edit


_C1 = ("layers", 3)
_UNIT = ("units", 0)  # child:C1:S1
_ASSUMED = ("units", 0, "explicit_assumptions", 0)  # child:C1:DA1
_ROUTE = ("routes", 0)  # child:C1:R1
_STEP = ("routes", 0, "assumptions", 0)  # child:C1:AS1
_PROJECT = ("projects", 0)  # child:C1:PRJ
_ROLE = {"unit_ref": "child:C1:S1", "route_ref": "child:C1:R1", "role": "contextual"}
_SIBLING = "child:C2:PRJ"

#: Plan field -> (edit of a clean two-parent, two-child bundle putting a
#: sibling's id there; the R3 event's nature, container, field, token and
#: location).
FIELD_CASES = {
    "layers.laws.text": (
        _add(_C1, "laws", {"id": "LB", "text": f"As in {_SIBLING}.", "immutable_core": False}),
        ("assumption", "child:C1:LB", "text", _SIBLING, "layers[3].laws[0].text"),
    ),
    "layers.abstractions.definition": (
        _add(_C1, "abstractions",
             {"id": "mb", "kind": "measurement_class", "definition": f"As in {_SIBLING}."}),
        ("content", "child:C1:mb", "definition", _SIBLING,
         "layers[3].abstractions[0].definition"),
    ),
    **{
        f"units.{name}": (
            _append(_UNIT, name),
            (nature, "child:C1:S1", name, _SIBLING, f"units[0].{name}"),
        )
        for name, nature in [
            ("tier_justification", "content"), ("bias_considerations", "content"),
            ("measurement_issues", "measurement"), ("notes", "content"),
            ("methods_summary", "content"), ("strengths", "content"),
            ("limitations", "content"),
        ]
    },
    "units.explicit_assumptions.text": (
        _append(_ASSUMED, "text"),
        ("assumption", "child:C1:DA1", "text", _SIBLING, "units[0].explicit_assumptions[0].text"),
    ),
    "units.measurement_refs": (
        _set(_UNIT, "measurement_refs", ["parent:P1:mx", "parent:P2:mx"]),
        ("measurement", "child:C1:S1", "measurement_refs", "parent:P2:mx",
         "units[0].measurement_refs[1]"),
    ),
    "units.split_from": (
        _set(_UNIT, "split_from", "child:C2:S1"),
        ("content", "child:C1:S1", "split_from", "child:C2:S1", "units[0].split_from"),
    ),
    "routes.assumptions.supporting_units": (
        _set(_STEP, "supporting_units", ["child:C1:S1", "child:C2:S1"]),
        ("assumption", "child:C1:AS1", "supporting_units", "child:C2:S1",
         "routes[0].assumptions[0].supporting_units[1]"),
    ),
    **{
        f"routes.assumptions.{name}": (
            _append(_STEP, name),
            ("assumption", "child:C1:AS1", name, _SIBLING, f"routes[0].assumptions[0].{name}"),
        )
        for name in ("text", "plausibility", "failure_modes", "consequences_for_inference")
    },
    "routes.disconfirming_models": (
        _add(_ROUTE, "disconfirming_models", f"Alternative: {_SIBLING}."),
        ("content", "child:C1:R1", "disconfirming_models[1]", _SIBLING,
         "routes[0].disconfirming_models[1]"),
    ),
    "routes.project_ref": (
        _set(_ROUTE, "project_ref", _SIBLING),
        ("content", "child:C1:R1", "project_ref", _SIBLING, "routes[0].project_ref"),
    ),
    "routes.construct_ref": (
        _set(_ROUTE, "construct_ref", "parent:P2:K1"),
        ("content", "child:C1:R1", "construct_ref", "parent:P2:K1", "routes[0].construct_ref"),
    ),
    **{
        f"routes.rejected_alternatives.{name}": (
            _set(_ROUTE, "rejected_alternatives", [
                {"sketch": "A panel contrast.", "rationale": "Too coarse.", name: f"As {_SIBLING}."}
            ]),
            ("content", "child:C1:R1", "rejected_alternatives", _SIBLING,
             "routes[0].rejected_alternatives[0]"),
        )
        for name in ("sketch", "rationale")
    },
    "projects.unit_refs": (
        _add(_PROJECT, "unit_refs", "child:C2:S1"),
        ("content", "child:C1:PRJ", "unit_refs", "child:C2:S1", "projects[0].unit_refs[3]"),
    ),
    "projects.committed_route": (
        _set(_PROJECT, "committed_route", "child:C2:R1"),
        ("content", "child:C1:PRJ", "committed_route", "child:C2:R1",
         "projects[0].committed_route"),
    ),
    **{
        f"projects.assignments.{name}": (
            _add(_PROJECT, "assignments", {**_ROLE, name: ref}),
            ("content", "child:C1:PRJ", "assignments", ref, "projects[0].assignments[1]"),
        )
        for name, ref in (("unit_ref", "child:C2:S1"), ("route_ref", "child:C2:R1"))
    },
}

#: The fields the hand-written passes this scan replaced did not check.
NEWLY_CHECKED = (
    "layers.laws.text",
    "layers.abstractions.definition",
    "units.split_from",
    "routes.project_ref",
    "routes.construct_ref",
    "routes.rejected_alternatives.sketch",
    "routes.rejected_alternatives.rationale",
)


def _field_case_bundle(path):
    doc = random_bundle_dict(random.Random(0), n_parents=2, n_children=2)
    assert scan_bundle(parse_dict(doc)) == []
    FIELD_CASES[path][0](doc)
    return parse_dict(doc)


def _r3(bundle):
    return [e for e in scan_bundle(bundle) if e.rule_violated == "R3_horizontal_borrowing"]


def test_every_field_of_the_scan_plan_has_a_case():
    from recap_engine.contamination import _SECTIONS

    scanned = [path for path in _plan_fields(ProjectBundle) if path.split(".")[0] in _SECTIONS]
    assert sorted(scanned) == sorted(FIELD_CASES)


@pytest.mark.parametrize("path", sorted(FIELD_CASES))
def test_a_sibling_id_in_each_scanned_field_is_one_r3_event(path):
    [event] = _r3(_field_case_bundle(path))
    site = event.site
    assert (event.nature, site.container, site.field, site.token, event.location) == (
        FIELD_CASES[path][1]
    )
    assert event.direction == "horizontal"


@pytest.mark.parametrize("path", NEWLY_CHECKED)
def test_a_newly_checked_finding_quarantines_and_reverses_or_is_refused(path):
    initial = _field_case_bundle(path)
    live = clone(initial)
    [event] = _r3(live)
    event.risks_introduced = RISKS
    assert _attempt(live, event, "quarantine") is None
    assert _r3(live) == []
    [resolution] = live.events[len(initial.events):]
    assert serialize_bundle(replay(initial, [resolution])) == serialize_bundle(live)

    live = clone(initial)
    [event] = _r3(live)
    event.risks_introduced = RISKS
    if _attempt(live, event, "reverse") is None:
        assert _r3(live) == []
        assert parse_bundle(serialize_bundle(live)).bundle is not None


def test_a_sibling_id_in_split_from_is_reversed_by_clearing_it():
    initial = _field_case_bundle("units.split_from")
    live = clone(initial)
    [event] = _r3(live)
    event.risks_introduced = RISKS
    assert _attempt(live, event, "reverse") is None
    [resolution] = live.events[len(initial.events):]
    [effect] = resolution.payload["effects"]
    assert (effect["op"], effect["field"]) == ("clear_ref", "split_from")
    assert _r3(live) == []
    assert parse_bundle(serialize_bundle(live)).bundle is not None
    assert serialize_bundle(replay(initial, [resolution])) == serialize_bundle(live)
