import random

import pytest

from genbundles import edit, edit_payload, parse_dict, random_bundle_dict

from recap_engine.bundle import serialize_bundle
from recap_engine.diagnostics import OperationRejected
from recap_engine.identifiers import Identifier
from recap_engine.layers import (
    CORE_LAW_NAMES,
    bump_version,
    check_law_evolution,
    law_history,
    parse_version,
    resolve_constraints,
    seed_core_laws,
    validate_grandparent_laws,
)
from recap_engine.model import BundleIndex, ChangelogEntry, Law


def law(name, text, core=False):
    return Law(id=Identifier("gp", "", name), text=text, immutable_core=core)


def entry(from_v="v1.0", to_v="v1.1", **overrides):
    fields = dict(
        from_version=from_v,
        to_version=to_v,
        motivating_insight="Repeated coverage gaps in ambiguity handling.",
        boundary_affected="Tiering discipline at the meta-layer.",
        generalizability_reasoning="The gap is independent of any domain or instrument.",
        timestamp="2026-03-01T00:00:00Z",
    )
    fields.update(overrides)
    return ChangelogEntry(**fields)


# ---------------------------------------------------------------------------
# Version strings
# ---------------------------------------------------------------------------


def test_version_parsing_and_order():
    assert parse_version("v1.0") == (1, 0)
    assert parse_version("v2.10") == (2, 10)
    assert parse_version("1.0") is None
    assert parse_version("v1") is None
    assert parse_version("v1.2") < parse_version("v1.10")


# ---------------------------------------------------------------------------
# resolveConstraints
# ---------------------------------------------------------------------------


def test_toy_child_inherits_all_law_groups_and_correspondences(toy):
    resolved = resolve_constraints(toy, Identifier("child", "C1", "C1"))
    law_names = {l.id.local_name for l in resolved.laws}
    # the four protected laws plus the declared construct/tiering/flow groups
    assert set(CORE_LAW_NAMES) <= law_names
    assert {"A", "B", "C", "tiering_discipline", "flow_governance"} <= law_names
    assert resolved.correspondences == {"m1": "A", "m2": "B", "m3": "C"}
    assert {"m1", "m2", "m3"} <= {a.id.local_name for a in resolved.abstractions}


def test_child_under_empty_parent_gets_exactly_the_laws(toy):
    parent = next(l for l in toy.layers if l.kind == "parent")
    edit(toy, parent, abstractions=())
    resolved = resolve_constraints(toy, Identifier("child", "C1", "C1"))
    assert resolved.abstractions == []
    assert resolved.correspondences == {}
    assert {l.id.render() for l in resolved.laws} == {
        l.id.render() for l in toy.grandparent().laws
    }


def test_resolution_never_mutates_the_bundle(toy):
    before = serialize_bundle(toy)
    resolve_constraints(toy, Identifier("child", "C1", "C1"))
    assert serialize_bundle(toy) == before


def test_unknown_layer_and_not_child_errors(toy):
    with pytest.raises(OperationRejected) as err:
        resolve_constraints(toy, Identifier("child", "CX", "CX"))
    assert err.value.diagnostics[0].code == "E_UNKNOWN_LAYER"
    with pytest.raises(OperationRejected) as err:
        resolve_constraints(toy, Identifier("parent", "P", "P"))
    assert err.value.diagnostics[0].code == "E_NOT_CHILD"


def test_randomized_trees_match_path_walk_oracle():
    # Oracle: walk child -> parent -> grandparent collecting declarations,
    # independent of the engine's resolver.
    rng = random.Random(23)
    for _ in range(25):
        bundle = parse_dict(random_bundle_dict(rng))
        for layer in bundle.layers:
            if layer.kind != "child":
                continue
            walked_laws, walked_abs = [], {}
            cursor = layer
            while cursor is not None:
                for ab in cursor.abstractions:
                    walked_abs.setdefault(ab.id.render(), ab)
                walked_laws.extend(l.id.render() for l in cursor.laws)
                cursor = (
                    BundleIndex(bundle).layers.get(cursor.parent_ref) if cursor.parent_ref else None
                )
            resolved = resolve_constraints(bundle, layer.id)
            assert resolved.law_ids() == set(walked_laws)
            assert resolved.abstraction_ids() == set(walked_abs)


# ---------------------------------------------------------------------------
# checkLawEvolution
# ---------------------------------------------------------------------------


def test_pure_append_is_clean():
    old = [law("L1", "first"), law("L2", "second")]
    new = old + [law("L3", "third")]
    assert check_law_evolution(old, new) == []


def test_softening_a_protected_law_reports_both_codes():
    old = [law("one_route", "A project commits to exactly one route.", core=True)]
    new = [law("one_route", "A project usually commits to one route.", core=True)]
    codes = {d.code for d in check_law_evolution(old, new)}
    assert codes == {"E_LAW_REWRITTEN", "E_CORE_TOUCHED"}


def test_rescinding_reports_removal():
    old = [law("L1", "x"), law("L2", "y")]
    new = [law("L1", "x")]
    codes = [d.code for d in check_law_evolution(old, new)]
    assert codes == ["E_LAW_RESCINDED"]


def test_unflagging_protected_law_is_core_touch():
    old = [law("anti_reification", "text", core=True)]
    new = [law("anti_reification", "text", core=False)]
    assert {d.code for d in check_law_evolution(old, new)} == {"E_CORE_TOUCHED"}


def test_random_pairs_match_set_comparison_oracle():
    rng = random.Random(5)
    pool = [f"L{i}" for i in range(8)]
    texts = ["alpha", "beta", "gamma"]
    for _ in range(300):
        old = [
            law(name, rng.choice(texts), core=rng.random() < 0.2)
            for name in rng.sample(pool, rng.randint(1, 6))
        ]
        new = [
            law(name, rng.choice(texts), core=rng.random() < 0.2)
            for name in rng.sample(pool, rng.randint(1, 6))
        ]
        diags = check_law_evolution(old, new)
        # Oracle: plain set comparison over (id -> text / flag) maps.
        new_map = {l.id.render(): l for l in new}
        expect_clean = all(
            l.id.render() in new_map
            and new_map[l.id.render()].text == l.text
            and (not l.immutable_core or new_map[l.id.render()].immutable_core)
            for l in old
        )
        assert (not diags) == expect_clean


# ---------------------------------------------------------------------------
# bumpVersion
# ---------------------------------------------------------------------------


def test_happy_bump_advances_version_and_logs_one_event(toy):
    gp = toy.grandparent()
    events_before = len(toy.events)
    new_laws = gp.laws + (law("ambiguity_coverage", "Ambiguity must be covered explicitly."),)
    bump_version(toy, entry(), new_laws, timestamp="2026-03-01T00:00:00Z")
    assert toy.grandparent().version == "v1.1"
    assert len(toy.events) == events_before + 1
    assert toy.events[-1].kind == "version_bumped"


def test_incomplete_changelog_rejected_atomically(toy):
    before = serialize_bundle(toy)
    with pytest.raises(OperationRejected) as err:
        bump_version(toy, entry(generalizability_reasoning="  "), toy.grandparent().laws)
    assert "E_CHANGELOG_INCOMPLETE" in [d.code for d in err.value.diagnostics]
    assert serialize_bundle(toy) == before


def test_child_reference_in_motivation_is_upward_content(toy):
    with pytest.raises(OperationRejected) as err:
        bump_version(
            toy,
            entry(motivating_insight="Because child:C1:S1 behaved oddly."),
            toy.grandparent().laws,
        )
    assert "E_UPWARD_CONTENT" in [d.code for d in err.value.diagnostics]


def test_non_advancing_or_stale_versions_rejected(toy):
    with pytest.raises(OperationRejected) as err:
        bump_version(toy, entry(to_v="v1.0"), toy.grandparent().laws)
    assert "E_VERSION_ORDER" in [d.code for d in err.value.diagnostics]
    with pytest.raises(OperationRejected) as err:
        bump_version(toy, entry(from_v="v0.9", to_v="v1.1"), toy.grandparent().laws)
    assert "E_VERSION_STALE" in [d.code for d in err.value.diagnostics]


def test_rescinding_bump_rejected(toy):
    gp = toy.grandparent()
    with pytest.raises(OperationRejected) as err:
        bump_version(toy, entry(), gp.laws[:-1])
    assert "E_LAW_RESCINDED" in [d.code for d in err.value.diagnostics]


def test_seeded_grandparent_passes_validation():
    from recap_engine.model import LayerDecl

    gp = LayerDecl(
        id=Identifier("gp", "", "G"), kind="grandparent", version="v1.0",
        laws=seed_core_laws(),
    )
    assert validate_grandparent_laws(gp) == []


def test_missing_protected_law_is_flagged(toy):
    gp = toy.grandparent()
    gp = edit(toy, gp, laws=tuple(l for l in gp.laws if l.id.local_name != "one_route"))
    assert "E_CORE_LAW_MISSING" in [d.code for d in validate_grandparent_laws(gp)]


def test_extra_immutable_flag_is_flagged(toy):
    gp = toy.grandparent()
    edit(toy, next(l for l in gp.laws if l.id.local_name == "A"), immutable_core=True)
    gp = toy.grandparent()
    assert "E_CORE_FLAG" in [d.code for d in validate_grandparent_laws(gp)]


def test_malformed_recorded_bump_is_a_payload_schema_rejection(toy):
    bump_version(toy, entry(), toy.grandparent().laws)
    edit_payload(toy, -1, lambda payload: payload["laws"][0].update(immutable_core="false"))
    with pytest.raises(OperationRejected) as err:
        law_history(toy)
    assert [(d.code, d.location) for d in err.value.diagnostics] == [
        ("E_PAYLOAD_SCHEMA", f"events[{len(toy.events) - 1}].payload")
    ]
