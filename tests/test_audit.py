import copy
import json
import random

import pytest

from genbundles import TimeSource, edit, inject_borrowings, inject_faults, parse_dict
from genbundles import random_bundle_dict
from toy import toy_bundle, toy_dict

from recap_engine import records
from recap_engine.audit import _apply_effects, append_event, commit, find_declaration, replay
from recap_engine.bundle import clone, declaration_location, declarations, declared_ids
from recap_engine.bundle import decode_route_dict
from recap_engine.bundle import parse_bundle, serialize_bundle
from recap_engine.diagnostics import OperationRejected
from recap_engine.identifiers import Identifier
from recap_engine.layers import bump_version
from recap_engine.model import AuditEvent, BundleIndex, ChangelogEntry, FlowEvent, Law, Tier
from recap_engine.model import ResolutionEffect
from recap_engine.contamination import record_flow, resolve_contamination, scan_bundle
from recap_engine.routing import declare_route, freeze_route
from recap_engine.tiering import declare_tier, split_unit, tier_unit


def flow_payload_event(bundle, seq=None, ts="2026-06-01T00:00:00Z"):
    return AuditEvent(
        sequence=seq if seq is not None else bundle.next_sequence(),
        timestamp=ts,
        actor="tester",
        kind="flow_recorded",
        payload={
            "flow": {
                "id": "gp:FX",
                "source_layer": "gp:G",
                "dest_layer": "parent:P:P",
                "info_class": "content",
                "payload": "note",
                "timestamp": ts,
                "contract_ref": None,
                "quarantined": False,
            }
        },
        affected=["gp:FX"],
    )


# ---------------------------------------------------------------------------
# appendEvent
# ---------------------------------------------------------------------------


def test_append_with_correct_sequence(toy):
    count = len(toy.events)
    append_event(toy, flow_payload_event(toy))
    assert len(toy.events) == count + 1


def test_sequence_gap_rejected(toy):
    before = serialize_bundle(toy)
    with pytest.raises(OperationRejected) as err:
        append_event(toy, flow_payload_event(toy, seq=toy.next_sequence() + 5))
    assert err.value.diagnostics[0].code == "E_SEQUENCE_GAP"
    assert serialize_bundle(toy) == before


def test_timestamp_regression_rejected(toy):
    with pytest.raises(OperationRejected) as err:
        append_event(toy, flow_payload_event(toy, ts="2020-01-01T00:00:00Z"))
    assert err.value.diagnostics[0].code == "E_SEQUENCE_GAP"


def test_event_timestamp_form_enforced(toy):
    before = serialize_bundle(toy)
    with pytest.raises(OperationRejected) as err:
        append_event(toy, flow_payload_event(toy, ts="2026-06-01T00:00:00+00:00"))
    assert [(d.code, d.location) for d in err.value.diagnostics] == [
        ("E_SYNTAX", f"events[{len(toy.events)}].timestamp")
    ]
    assert serialize_bundle(toy) == before


def test_fractional_timestamps_order_by_time(toy):
    head = toy.events[-1].timestamp
    assert head.endswith(":00Z")
    # "...:00.5Z" sorts before "...:00Z" as a string, but is later.
    append_event(toy, flow_payload_event(toy, ts=head[:-1] + ".5Z"))
    with pytest.raises(OperationRejected) as err:
        append_event(toy, flow_payload_event(toy, ts=head))
    assert err.value.diagnostics[0].code == "E_SEQUENCE_GAP"


def test_payload_schema_enforced(toy):
    event = records.replace(flow_payload_event(toy), payload={"wrong": 1})
    with pytest.raises(OperationRejected) as err:
        append_event(toy, event)
    assert err.value.diagnostics[0].code == "E_PAYLOAD_SCHEMA"


def test_no_in_place_edit_surface(toy):
    # append-only by construction: the store exposes no mutating accessor,
    # and appending never touches existing events
    import recap_engine.audit as audit

    public = [n for n in dir(audit) if not n.startswith("_")]
    assert not any("edit" in n or "delete" in n or "rewrite" in n for n in public)
    head = copy.deepcopy(toy.events[0])
    append_event(toy, flow_payload_event(toy))
    assert toy.events[0] == head


def test_events_carry_engine_version(toy):
    declare_tier(
        toy,
        Identifier("child", "C1", "S1"),
        Tier.CORE,
        "Construct alignment",
        timestamp="2026-06-01T00:00:00Z",
    )
    from recap_engine import ENGINE_VERSION

    assert toy.events[-1].payload["engine_version"] == ENGINE_VERSION


def test_a_commit_whose_second_effect_fails_is_rejected_whole(toy):
    # The first effect applies, the second names no declaration: commit
    # rejects the event, appends nothing and leaves S1 unquarantined.
    before, events = serialize_bundle(toy), len(toy.events)
    contamination = {"id": "CONT-0001", "rule_violated": "R3_horizontal_borrowing",
                     "direction": "horizontal", "nature": "content",
                     "site": {"container": "child:C1:S1"}}
    effects = [{"op": "quarantine", "target": "child:C1:S1"},
               {"op": "quarantine", "target": "child:C1:NOPE"}]
    with pytest.raises(OperationRejected) as err:
        commit(toy, "contamination_resolved",
               {"contamination": contamination, "action": "quarantined", "effects": effects},
               actor="tester", timestamp="2026-06-01T00:00:00Z")
    assert [(d.code, d.location) for d in err.value.diagnostics] == [
        ("E_UNDOCUMENTED", "child:C1:NOPE")
    ]
    assert len(toy.events) == events
    assert serialize_bundle(toy) == before
    assert not find_declaration(toy, "child:C1:S1").quarantined


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def test_toy_event_sequence_replays_to_live_state():
    doc = toy_dict()
    initial = parse_dict(doc)
    live = toy_bundle()  # same document, frozen through the engine
    replayed = replay(initial, live.events)
    assert serialize_bundle(replayed) == serialize_bundle(live)
    s_tiers = {
        u.study_id.local_name: u.declared_tier.label for u in replayed.units
    }
    assert s_tiers == {"S1": "core", "S2": "supplement", "S3": "excluded"}
    route = BundleIndex(replayed).routes.get(Identifier("child", "C1", "R2"))
    assert route.frozen_at is not None


def test_empty_event_list_is_identity(toy):
    assert serialize_bundle(replay(toy, [])) == serialize_bundle(toy)


def test_replay_divergence_reported_for_gap(toy):
    event = flow_payload_event(toy, seq=99)
    with pytest.raises(OperationRejected) as err:
        replay(toy, [event])
    assert err.value.diagnostics[0].code == "E_REPLAY_DIVERGENCE"


def test_replay_divergence_reported_for_missing_target(toy):
    event = AuditEvent(
        sequence=toy.next_sequence(),
        timestamp="2026-06-01T00:00:00Z",
        actor="tester",
        kind="tier_declared",
        payload={"unit": "child:C1:GHOST", "tier": "core", "justification": "x"},
    )
    with pytest.raises(OperationRejected) as err:
        replay(toy, [event])
    assert err.value.diagnostics[0].code == "E_REPLAY_DIVERGENCE"


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("contamination_resolved", {"contamination": {}, "action": "reversed", "effects": [5]}),
        ("contamination_resolved", {"contamination": {}, "action": "reversed", "effects": "x"}),
        ("declaration_quarantined", {"target": 5}),
    ],
)
def test_replay_reports_any_applier_failure_as_divergence(toy, kind, payload):
    event = AuditEvent(
        sequence=toy.next_sequence(),
        timestamp="2026-06-01T00:00:00Z",
        actor="tester",
        kind=kind,
        payload=payload,
    )
    before = serialize_bundle(toy)
    with pytest.raises(OperationRejected) as err:
        replay(toy, [event])
    [diag] = err.value.diagnostics
    assert (diag.code, diag.location) == ("E_REPLAY_DIVERGENCE", f"events[{event.sequence}]")
    assert diag.message.startswith(f"{kind} failed to apply: ")
    assert serialize_bundle(toy) == before


@pytest.mark.parametrize(
    "effect",
    [
        {"op": "clear_ref", "container": "child:C1:PRJ", "field": "layer_ref"},
        {"op": "remove_ref", "container": "child:C1:PRJ", "field": "assignments",
         "target": "child:C1:S1"},
        {"op": "edit_list_item", "container": "gp:G", "field": "vocabulary", "index": 0,
         "old": "construct", "new": "concept"},
    ],
    ids=["clear_ref", "remove_ref", "edit_list_item"],
)
def test_an_effect_on_a_field_of_another_kind_is_a_replay_divergence(effect):
    # clear_ref takes a nullable reference, remove_ref a list of references
    # and edit_list_item a list of texts; none of these fields is one.
    initial = toy_bundle()
    doc = json.loads(serialize_bundle(initial))
    contamination = {"id": "CONT-0001", "rule_violated": "R3_horizontal_borrowing",
                     "direction": "horizontal", "nature": "content",
                     "site": {"container": effect["container"], "field": effect["field"]}}
    doc["events"].append({
        "sequence": 2, "timestamp": "2026-06-01T00:00:00Z", "actor": "tester",
        "kind": "contamination_resolved", "affected": [],
        "payload": {"contamination": contamination, "action": "reversed", "effects": [effect]},
    })
    bundle = parse_dict(doc)
    with pytest.raises(OperationRejected) as err:
        replay(initial, bundle.events[1:])
    [diag] = err.value.diagnostics
    assert diag.code == "E_REPLAY_DIVERGENCE"
    assert diag.message.endswith(f"{effect['container']}.{effect['field']} not found")


# ---------------------------------------------------------------------------
# Random accepted command sequences: live == replay, rejections change nothing
# ---------------------------------------------------------------------------


def random_ops_session(rng: random.Random, clock: TimeSource, n_ops: int = 8, step=None):
    """Build a bundle, snapshot it, run a random op mix, and return
    (snapshot, live, accepted_count, rejected_count). Some bundles start
    with lateral borrowings, for the resolve op to find; the others start
    with no route. ``step(snapshot, live)``, if given, runs after each op."""
    doc = random_bundle_dict(rng)
    if rng.random() < 0.5:
        while not inject_borrowings(doc):
            doc = random_bundle_dict(rng)
    else:
        for project in doc["projects"]:
            project["committed_route"] = None
            project["assignments"] = []
        doc["routes"] = []
    if rng.random() < 0.5 and doc["projects"]:
        owner = doc["projects"][0]["id"].split(":")[1]
        doc["units"].append(
            {
                "study_id": f"child:{owner}:SPL",
                "design_type": "Observational (Abstract)",
                "interpretations": [
                    {
                        "construct_alignment": "aligned",
                        "measurement": "adequate",
                        "design": "sufficient",
                        "reporting": "transparent",
                        "speculation_required": False,
                    },
                    {
                        "construct_alignment": "partial",
                        "measurement": "adequate",
                        "design": "sufficient",
                        "reporting": "transparent",
                        "speculation_required": False,
                    },
                ],
                "splittable": True,
                "declared_tier": None,
                "tier_justification": "",
                # Copied to each part of a split, under an id of its own.
                "explicit_assumptions": [
                    {
                        "id": f"child:{owner}:SPLA",
                        "text": "Partial alignment is read under the declared rules.",
                        "covers": ["construct_alignment"],
                    }
                ],
                "retier_events": [],
                "measurement_refs": [],
                "bias_considerations": "mixed → nondirectional",
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
        doc["projects"][0]["unit_refs"].append(f"child:{owner}:SPL")
    live = parse_dict(doc)
    snapshot = copy.deepcopy(live)
    after = None if step is None else lambda: step(snapshot, live)
    accepted, rejected = random_ops(rng, clock, live, n_ops, step=after)
    return snapshot, live, accepted, rejected


def random_ops(rng: random.Random, clock: TimeSource, live, n_ops: int = 8, start: int = 0,
               step=None):
    """Run a random op mix on ``live``, numbering new ids from ``start``;
    returns (accepted, rejected). ``step()``, if given, runs after each op."""
    accepted = rejected = 0
    children = [l.local_name for l in live.layers if l.kind == "child"]
    for i in range(start, start + n_ops):
        # resolve is listed twice, so that the sessions of
        # test_random_sessions_replay_to_live_state reach every effect kind
        op = rng.choice(["tier", "commit", "freeze", "flow", "bump", "split", "resolve", "resolve"])
        before = serialize_bundle(live)
        try:
            if op == "tier":
                unit = rng.choice(live.units) if live.units else None
                if unit is None:
                    continue
                decision_tier = (
                    tier_unit(unit).tier if not unit.splittable else Tier.EXCLUDED
                )
                target = decision_tier if rng.random() < 0.8 else Tier.CORE
                declare_tier(
                    live,
                    unit.study_id,
                    target,
                    "Structural fit re-affirmed.",
                    timestamp=clock.next(),
                )
            elif op == "commit":
                child = rng.choice(children)
                project = next(p for p in live.projects if p.id.owner == child)
                parent = BundleIndex(live).layers_by_name.get(child).parent_ref.local_name
                route = decode_route_dict(
                    {
                        "id": f"child:{child}:RN{i}",
                        "project_ref": project.id.render(),
                        "construct_ref": f"parent:{parent}:K1",
                        "objective": "descriptive",
                        "assumptions": [
                            {
                                "id": f"child:{child}:RNAS{i}",
                                "text": "Comparable windows.",
                                "plausibility": "Shared protocol.",
                                "failure_modes": "Protocol drift.",
                                "consequences_for_inference": "Weaker comparability.",
                                "supporting_units": [],
                                "untestable": True,
                            }
                        ],
                        "disconfirming_models": ["A windowing artifact."],
                        "rejected_alternatives": [],
                        "frozen_at": None,
                        "revisions": [],
                        "quarantined": False,
                    }
                )
                declare_route(
                    live,
                    project.id,
                    route,
                    commit_route=rng.random() < 0.7,
                    timestamp=clock.next(),
                )
            elif op == "freeze":
                project = rng.choice(live.projects)
                freeze_route(live, project.id, timestamp=clock.next())
            elif op == "flow":
                flow = FlowEvent(
                    id=Identifier("gp", "", f"FL{i}"),
                    source_layer=live.grandparent().id,
                    dest_layer=BundleIndex(live).layers_by_name.get(rng.choice(children)).id,
                    info_class="content",
                    payload="Constraint refresh.",
                    timestamp=clock.next(),
                )
                record_flow(live, flow, timestamp=flow.timestamp)
            elif op == "bump":
                gp = live.grandparent()
                ok = rng.random() < 0.6
                new_laws = [copy.deepcopy(l) for l in gp.laws]
                if ok:
                    new_laws.append(
                        Law(
                            id=Identifier("gp", "", f"LX{i}"),
                            text="An appended discipline.",
                        )
                    )
                else:
                    new_laws = new_laws[:-1]  # rescind attempt
                major, minor = gp.version[1:].split(".")
                entry = ChangelogEntry(
                    from_version=gp.version,
                    to_version=f"v{major}.{int(minor) + 1}",
                    motivating_insight="Coverage gap seen across projects.",
                    boundary_affected="Tier discipline boundary.",
                    generalizability_reasoning="Independent of any domain.",
                    timestamp=clock.next(),
                )
                bump_version(live, entry, new_laws, timestamp=entry.timestamp)
            elif op == "split":
                splittables = [u for u in live.units if u.splittable and not u.superseded]
                if not splittables:
                    continue
                unit = rng.choice(splittables)
                names = [
                    Identifier("child", unit.study_id.owner, f"{unit.study_id.local_name}_p{j}")
                    for j in range(len(unit.interpretations))
                ]
                split_unit(live, unit.study_id, names, timestamp=clock.next())
            elif op == "resolve":
                events = scan_bundle(live)
                if not events:
                    continue
                event = rng.choice(events)
                if rng.random() < 0.8:  # else left undocumented, so rejected
                    event.risks_introduced = "An unvetted reference crossed a boundary."
                unresolved = copy.deepcopy(event)
                action = rng.choice(["quarantine", "reverse"])
                resolve_contamination(live, event, action, timestamp=clock.next())
            accepted += 1
            # An accepted write keeps the bundle parseable.
            diagnostics = parse_bundle(serialize_bundle(live)).diagnostics
            assert not diagnostics, f"{op}: {[d.render() for d in diagnostics]}"
        except OperationRejected:
            rejected += 1
            assert serialize_bundle(live) == before, f"rejected {op} mutated the bundle"
            assert op != "resolve" or event == unresolved, "rejected resolve changed its event"
        if step is not None:
            step()
    return accepted, rejected


def test_random_sessions_replay_to_live_state():
    rng = random.Random(2024)
    clock = TimeSource()
    effects = set()
    for _ in range(120):
        snapshot, live, accepted, _ = random_ops_session(rng, clock)
        new_events = live.events[len(snapshot.events):]
        assert len(new_events) == accepted
        replayed = replay(snapshot, new_events)
        assert serialize_bundle(replayed) == serialize_bundle(live)
        for event in new_events:
            if event.kind == "contamination_resolved":
                effects.update(effect["op"] for effect in event.payload["effects"])
    assert effects == {
        "quarantine", "edit_text", "edit_list_item", "remove_ref", "clear_ref",
        "remove_assignment", "remove_declaration", "remove_flow",
    }


def test_retier_and_resolution_replay():
    clock = TimeSource()
    live = toy_bundle()
    snapshot = copy.deepcopy(live)
    from recap_engine.model import Assessment, ReTierEvent
    from recap_engine.tiering import apply_retier

    apply_retier(
        live,
        Identifier("child", "C1", "S2"),
        ReTierEvent(
            timestamp=clock.next(),
            source_of_information="Later measurement detail.",
            justification="Ambiguity resolved by the new detail.",
            implications_for_route="Unit may join primary inference.",
            old_tier=Tier.SUPPLEMENT,
            new_tier=Tier.CORE,
        ),
        new_interpretations=[Assessment("aligned", "adequate", "sufficient", "transparent", False)],
        justification="Updated detail restores alignment.",
    )
    # assignment still references the old role; repair for coherence realism
    edit(live, live.projects[0].assignments[1], role="primary_inference",
         route_ref=Identifier("child", "C1", "R2"))
    law = live.grandparent().laws[4]
    edit(live, law, text=law.text + " Calibrated against child:C1:S1.")
    event = scan_bundle(live)[0]
    event.risks_introduced = "Construct definition absorbed project detail."
    resolve_contamination(live, event, "quarantine", timestamp=clock.next())
    replayed = replay(snapshot, live.events[len(snapshot.events):])
    # the direct assignment repair and law edit are declaration-level changes
    # outside the event log; apply them to the snapshot side as well
    assert replayed.grandparent().laws[4].quarantined
    s2 = BundleIndex(replayed).units.get(Identifier("child", "C1", "S2"))
    assert s2.declared_tier == Tier.CORE
    assert len(s2.retier_events) == 1


def test_replay_rejects_a_retier_payload_the_parser_would_reject(toy):
    event = AuditEvent(
        sequence=toy.next_sequence(),
        timestamp="2026-06-01T00:00:00Z",
        actor="tester",
        kind="retier",
        payload={
            "unit": "child:C1:S2",
            "event": {
                "timestamp": 5,
                "source_of_information": "s",
                "justification": "j",
                "implications_for_route": "i",
                "old_tier": "supplement",
                "new_tier": "core",
            },
        },
    )
    with pytest.raises(OperationRejected) as err:
        replay(toy, [event])
    assert err.value.diagnostics[0].code == "E_REPLAY_DIVERGENCE"
    assert "timestamp" in err.value.diagnostics[0].message


# ---------------------------------------------------------------------------
# The clone replay starts from
# ---------------------------------------------------------------------------


def _mutable_ids(obj, out: set) -> set:
    """ids of every list, dict and record reachable from ``obj``, except
    frozen records (the hashable ones) and read-only mappings and lists,
    which cannot change and may be shared."""
    if isinstance(obj, (records.FrozenDict, records.FrozenList, tuple)) or (
        records.is_record(obj) and type(obj).__hash__ is not None
    ):
        return out
    if isinstance(obj, list):
        values = obj
    elif isinstance(obj, dict):
        values = obj.values()
    elif records.is_record(obj) and not isinstance(obj, Identifier):
        values = vars(obj).values()
    else:
        return out
    out.add(id(obj))
    for value in values:
        _mutable_ids(value, out)
    return out


def _resolution_session(seed: int):
    """(initial, live): a faulty bundle and a copy whose findings were
    resolved live, exercising the resolution effects."""
    rng = random.Random(seed)
    doc = random_bundle_dict(rng, n_parents=2, n_children=3)
    inject_faults(rng, doc, 4)
    initial, live = parse_dict(doc), parse_dict(doc)
    for i, event in enumerate(scan_bundle(live)):
        event.risks_introduced = "An unvetted reference crossed a boundary."
        action = ("reverse", "quarantine")[i % 2]
        try:
            resolve_contamination(live, event, action, timestamp=f"2026-05-01T00:00:{i:02d}Z")
        except OperationRejected:
            pass
    return initial, live


def _session_bundles():
    rng = random.Random(808)
    clock = TimeSource()
    for _ in range(12):
        snapshot, live, _, _ = random_ops_session(rng, clock)
        yield snapshot, live
    for seed in range(6):
        yield _resolution_session(seed)


def test_clone_equals_deepcopy_and_shares_nothing_mutable():
    bundles = [toy_bundle()] + [b for pair in _session_bundles() for b in pair]
    for bundle in bundles:
        twin = clone(bundle)
        assert twin == copy.deepcopy(bundle)
        assert serialize_bundle(twin) == serialize_bundle(bundle)
        assert not _mutable_ids(twin, set()) & _mutable_ids(bundle, set())


def test_replay_leaves_its_initial_bundle_unchanged():
    resolved = 0
    for initial, live in _session_bundles():
        before = serialize_bundle(initial)
        events = live.events[len(initial.events):]
        resolved += sum(e.kind == "contamination_resolved" for e in events)
        assert serialize_bundle(replay(initial, events)) == serialize_bundle(live)
        assert serialize_bundle(initial) == before
    assert resolved > 0


def test_replay_from_an_unparsed_mutated_bundle_matches_its_reparsed_form():
    # ``live`` was mutated in process and never re-parsed, so it may share
    # objects in ways a parsed bundle does not; no applier may rely on that.
    rng = random.Random(909)
    clock = TimeSource()
    replayed_events = 0
    for _ in range(20):
        _, live, _, _ = random_ops_session(rng, clock)
        reparsed = parse_bundle(serialize_bundle(live)).bundle
        follow = parse_bundle(serialize_bundle(live)).bundle
        random_ops(rng, clock, follow, start=100)
        events = follow.events[len(live.events):]
        replayed_events += len(events)
        expected = serialize_bundle(follow)
        assert serialize_bundle(replay(live, events)) == expected
        assert serialize_bundle(replay(reparsed, events)) == expected
    assert replayed_events > 0


# ---------------------------------------------------------------------------
# Declarations: the spec-driven walk and the lookup built on it
# ---------------------------------------------------------------------------


def hand_declarations(bundle):
    """(kind, id, record, id location) of every declaration, in document
    order, listed section by section."""
    for i, layer in enumerate(bundle.layers):
        yield "layer", layer.id, layer, f"layers[{i}].id"
        for j, law in enumerate(layer.laws):
            yield "law", law.id, law, f"layers[{i}].laws[{j}].id"
        for j, ab in enumerate(layer.abstractions):
            yield "abstraction", ab.id, ab, f"layers[{i}].abstractions[{j}].id"
    for i, project in enumerate(bundle.projects):
        yield "project", project.id, project, f"projects[{i}].id"
    for i, unit in enumerate(bundle.units):
        yield "unit", unit.study_id, unit, f"units[{i}].study_id"
        for j, da in enumerate(unit.explicit_assumptions):
            where = f"units[{i}].explicit_assumptions[{j}].id"
            yield "declared_assumption", da.id, da, where
    for i, route in enumerate(bundle.routes):
        yield "route", route.id, route, f"routes[{i}].id"
        for j, assumption in enumerate(route.assumptions):
            yield "assumption", assumption.id, assumption, f"routes[{i}].assumptions[{j}].id"
    for i, flow in enumerate(bundle.flows):
        yield "flow", flow.id, flow, f"flows[{i}].id"
    for i, contract in enumerate(bundle.contracts):
        yield "contract", contract.id, contract, f"contracts[{i}].id"


def _declaration_bundles():
    doc = toy_dict()
    doc["contracts"].append(
        {"id": "child:C1:K", "info_type": "content", "origin_layer": "child:C2:C2",
         "destination_layer": "child:C1:C1", "legal_justification": "l",
         "no_reinterpretation_clause": True, "documentation_ref": "doc"}
    )
    yield parse_dict(doc)
    for seed in (3, 17):
        yield parse_dict(random_bundle_dict(random.Random(seed), n_parents=2, n_children=3))


def test_declarations_walk_every_section_in_document_order():
    kinds = set()
    for bundle in _declaration_bundles():
        walked = [
            (kind, ident, getattr(holder, name)[i], declaration_location(holder, name, i, up))
            for kind, ident, holder, name, i, up in declarations(bundle)
        ]
        assert walked == list(hand_declarations(bundle))
        assert sorted(declared_ids([bundle])) == sorted(ident for _, ident, *_ in walked)
        kinds.update(kind for kind, *_ in walked)
    assert len(kinds) == 10  # every kind is exercised


def test_find_declaration_returns_each_declaration_by_its_canonical_id():
    for bundle in _declaration_bundles():
        declared = list(hand_declarations(bundle))
        assert len(declared) > 20
        for _, ident, record, _ in declared:
            assert find_declaration(bundle, ident.render()) is record


@pytest.mark.parametrize(
    "canonical", ["child:C1:NOPE", "gp:NOPE", "parent:Q", "", "not an id", "child:", ":::"]
)
def test_find_declaration_of_an_unknown_or_malformed_id_is_none(canonical):
    assert find_declaration(toy_bundle(), canonical) is None


def test_remove_declaration_removes_a_law_or_an_abstraction_only():
    bundle = toy_bundle()
    grandparent, parent = bundle.layers[0], bundle.layers[1]
    law, abstraction = grandparent.laws[4], parent.abstractions[2]
    for decl in (law, abstraction):
        _apply_effects(bundle, [ResolutionEffect("remove_declaration", target=decl.id)])
        assert find_declaration(bundle, decl.id.render()) is None
    assert len(bundle.layers[0].laws) == 8 and len(bundle.layers[1].abstractions) == 6
    for ident in (parent.id, bundle.units[0].study_id, bundle.routes[0].assumptions[0].id):
        with pytest.raises(ValueError, match="not found"):
            _apply_effects(bundle, [ResolutionEffect("remove_declaration", target=ident)])
        assert find_declaration(bundle, ident.render()) is not None
