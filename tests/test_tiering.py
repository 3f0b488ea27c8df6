import itertools
import random

import pytest

from genbundles import edit
from toy import assessment

from recap_engine.bundle import decode, parse_bundle, serialize_bundle
from recap_engine.diagnostics import OperationRejected
from recap_engine.identifiers import Identifier
from recap_engine.model import (
    Assessment,
    BundleIndex,
    DeclaredAssumption,
    EvidentialUnit,
    ReTierEvent,
    Tier,
    event_timestamp_error,
)
from recap_engine.tiering import (
    apply_retier,
    check_retier_chain,
    check_tier_declaration,
    compute_tier,
    compute_tier_decision,
    declare_tier,
    split_unit,
    tier_unit,
)

ALIGNMENTS = ("mismatch", "partial", "aligned")
MEASUREMENTS = ("failed", "conditional_proxy", "minor_limitation", "adequate")
DESIGNS = ("incompatible", "limited", "sufficient")
REPORTINGS = ("opaque", "ambiguous", "transparent")

FULL_COVER = [
    DeclaredAssumption(
        id=Identifier("child", "C1", f"cov_{dim}"), text=f"covers {dim}", covers=[dim]
    )
    for dim in ("construct_alignment", "measurement", "design", "reporting")
]


def make_assessment(al, me, de, re, sp) -> Assessment:
    return Assessment(
        construct_alignment=al,
        measurement=me,
        design=de,
        reporting=re,
        speculation_required=sp,
    )


def all_assessments():
    for al, me, de, re, sp in itertools.product(
        ALIGNMENTS, MEASUREMENTS, DESIGNS, REPORTINGS, (False, True)
    ):
        yield make_assessment(al, me, de, re, sp)


def oracle_tier(a: Assessment, covered: bool) -> Tier:
    """Independent brute-force reading of the tiering algorithm: written as
    literal nested conditionals over the declared rules, not as a rule list.

    Immediate exclusion: construct cannot be reconciled or essential
    information absent. Then: speculation excludes; failed measurement or
    incompatible design excludes. A clean unit is core. Otherwise, the unit
    holds at least one conditional limitation; it is supplement exactly when
    explicit assumptions cover every limited dimension, else excluded.
    """
    if a.construct_alignment == "mismatch" or a.reporting == "opaque":
        return Tier.EXCLUDED
    if a.speculation_required:
        return Tier.EXCLUDED
    if a.measurement == "failed":
        return Tier.EXCLUDED
    if a.design == "incompatible":
        return Tier.EXCLUDED
    if a.construct_alignment == "aligned":
        if a.measurement in ("adequate", "minor_limitation"):
            if a.design == "sufficient" and a.reporting == "transparent":
                return Tier.CORE
    # at least one sub-core dimension remains
    if covered:
        return Tier.SUPPLEMENT
    limited = (
        a.construct_alignment == "partial"
        or a.measurement == "conditional_proxy"
        or a.design == "limited"
        or a.reporting == "ambiguous"
    )
    assert limited, "decision table reached step 5 without a limited dimension"
    return Tier.EXCLUDED


# ---------------------------------------------------------------------------
# Decision table
# ---------------------------------------------------------------------------


def test_golden_single_assessments():
    s1 = make_assessment("aligned", "minor_limitation", "sufficient", "transparent", False)
    assert compute_tier_decision(s1, []) == (Tier.CORE, "R_CORE")

    s3 = make_assessment("mismatch", "failed", "sufficient", "opaque", False)
    assert compute_tier_decision(s3, []) == (Tier.EXCLUDED, "R_STEP1_MISMATCH")

    s2 = make_assessment("partial", "conditional_proxy", "sufficient", "ambiguous", False)
    assert compute_tier_decision(s2, FULL_COVER) == (Tier.SUPPLEMENT, "R_SUPPLEMENT_COVERED")

    perfect = make_assessment("aligned", "adequate", "sufficient", "transparent", False)
    assert compute_tier(perfect, []) == Tier.CORE


def test_opacity_alone_excludes_at_step_one():
    a = make_assessment("aligned", "adequate", "sufficient", "opaque", False)
    assert compute_tier_decision(a, FULL_COVER) == (Tier.EXCLUDED, "R_STEP1_OPACITY")


def test_speculation_excludes_despite_full_coverage():
    a = make_assessment("aligned", "adequate", "sufficient", "transparent", True)
    assert compute_tier_decision(a, FULL_COVER) == (Tier.EXCLUDED, "R_SPECULATION")


def test_uncovered_ambiguity_is_excluded_not_supplement():
    a = make_assessment("aligned", "conditional_proxy", "sufficient", "transparent", False)
    assert compute_tier_decision(a, []) == (Tier.EXCLUDED, "R_UNCOVERED_AMBIGUITY")


def test_partial_coverage_must_cover_every_limited_dimension():
    a = make_assessment("partial", "conditional_proxy", "sufficient", "transparent", False)
    only_alignment = [FULL_COVER[0]]
    assert compute_tier(a, only_alignment) == Tier.EXCLUDED
    assert compute_tier(a, FULL_COVER[:2]) == Tier.SUPPLEMENT


def test_exhaustive_table_matches_oracle():
    # 216 assessments x {full coverage, no coverage} = 432 cases
    checked = 0
    for a in all_assessments():
        for covered, assumptions in ((True, FULL_COVER), (False, [])):
            assert compute_tier(a, assumptions) == oracle_tier(a, covered), (a, covered)
            checked += 1
    assert checked == 432


def test_step1_dominance_over_all_combinations():
    for a in all_assessments():
        if a.construct_alignment == "mismatch" or a.reporting == "opaque":
            assert compute_tier(a, FULL_COVER) == Tier.EXCLUDED
            assert compute_tier(a, []) == Tier.EXCLUDED


def _degradations(a: Assessment):
    orders = {
        "construct_alignment": ALIGNMENTS,
        "measurement": MEASUREMENTS,
        "design": DESIGNS,
        "reporting": REPORTINGS,
    }
    for name, order in orders.items():
        index = order.index(getattr(a, name))
        if index > 0:
            fields = {
                "construct_alignment": a.construct_alignment,
                "measurement": a.measurement,
                "design": a.design,
                "reporting": a.reporting,
                "speculation_required": a.speculation_required,
            }
            fields[name] = order[index - 1]
            yield Assessment(**fields)
    if not a.speculation_required:
        yield make_assessment(
            a.construct_alignment, a.measurement, a.design, a.reporting, True
        )


def test_conservatism_single_step_degradations_never_raise_tier():
    for a in all_assessments():
        for assumptions in (FULL_COVER, []):
            base = compute_tier(a, assumptions)
            for worse in _degradations(a):
                assert compute_tier(worse, assumptions) <= base, (a, worse)
            for i in range(len(assumptions)):
                reduced = assumptions[:i] + assumptions[i + 1 :]
                assert compute_tier(a, reduced) <= base


# ---------------------------------------------------------------------------
# tierUnit
# ---------------------------------------------------------------------------


def unit_of(*assessments, splittable=False, assumptions=(), local="U1"):
    return EvidentialUnit(
        study_id=Identifier("child", "C1", local),
        design_type="Observational (Abstract)",
        interpretations=list(assessments),
        splittable=splittable,
        explicit_assumptions=list(assumptions),
    )


def test_unsplittable_takes_conservative_tier():
    core = make_assessment("aligned", "adequate", "sufficient", "transparent", False)
    supp = make_assessment("partial", "adequate", "sufficient", "transparent", False)
    unit = unit_of(core, supp, assumptions=FULL_COVER)
    decision = tier_unit(unit)
    assert decision.tier == Tier.SUPPLEMENT
    assert decision.conservative_merge
    assert len(decision.per_interpretation) == 2


def test_singleton_unit_reduces_to_compute_tier():
    a = make_assessment("aligned", "minor_limitation", "sufficient", "transparent", False)
    decision = tier_unit(unit_of(a))
    assert (decision.tier, decision.rule_id) == compute_tier_decision(a, [])


def test_splittable_multi_interpretation_must_split():
    a = make_assessment("aligned", "adequate", "sufficient", "transparent", False)
    with pytest.raises(OperationRejected) as err:
        tier_unit(unit_of(a, a, splittable=True))
    assert err.value.diagnostics[0].code == "E_MUST_SPLIT"


def test_random_multi_interpretation_units_fold_with_min():
    rng = random.Random(3)
    pool = list(all_assessments())
    for _ in range(200):
        chosen = rng.sample(pool, rng.randint(2, 4))
        assumptions = FULL_COVER if rng.random() < 0.5 else []
        unit = unit_of(*chosen, assumptions=assumptions)
        decision = tier_unit(unit)
        assert decision.tier == min(compute_tier(a, assumptions) for a in chosen)


# ---------------------------------------------------------------------------
# checkTierDeclaration
# ---------------------------------------------------------------------------


def test_toy_s1_declaration_is_clean(toy):
    s1 = BundleIndex(toy).units.get(Identifier("child", "C1", "S1"))
    assert check_tier_declaration(s1) == []


def test_mismatched_declaration_reports_both_tiers(toy):
    s1 = BundleIndex(toy).units.get(Identifier("child", "C1", "S1"))
    s1 = edit(toy, s1, declared_tier=Tier.SUPPLEMENT)
    diags = check_tier_declaration(s1)
    assert [d.code for d in diags] == ["E_TIER_MISMATCH"]
    assert "core" in diags[0].message and "supplement" in diags[0].message


def test_missing_justification_reported(toy):
    s1 = BundleIndex(toy).units.get(Identifier("child", "C1", "S1"))
    s1 = edit(toy, s1, tier_justification="")
    assert "E_NO_JUSTIFICATION" in [d.code for d in check_tier_declaration(s1)]


def test_declare_tier_op_rejects_wrong_tier(toy):
    before = serialize_bundle(toy)
    with pytest.raises(OperationRejected):
        declare_tier(toy, Identifier("child", "C1", "S1"), Tier.SUPPLEMENT, "because")
    assert serialize_bundle(toy) == before


# ---------------------------------------------------------------------------
# splitUnit
# ---------------------------------------------------------------------------


def _add_splittable(toy, interpretations):
    record = {
        "study_id": "child:C1:SX",
        "design_type": "Observational (Abstract)",
        "interpretations": interpretations,
        "splittable": True,
        "declared_tier": None,
        "tier_justification": "",
        "explicit_assumptions": [],
        "retier_events": [],
        "measurement_refs": [],
        "bias_considerations": "mixed → nondirectional risk",
        "measurement_issues": "mixed readings",
        "notes": "",
        "methods_summary": "",
        "strengths": "",
        "limitations": "",
        "split_from": None,
        "superseded": False,
        "quarantined": False,
    }
    unit = decode(EvidentialUnit, record)
    toy.units += (unit,)
    edit(toy, toy.projects[0], unit_refs=toy.projects[0].unit_refs + (unit.study_id,))
    return unit


def test_split_produces_single_interpretation_units(toy):
    _add_splittable(toy, [assessment(), assessment(alignment="partial")])
    names = [Identifier("child", "C1", "SXa"), Identifier("child", "C1", "SXb")]
    events_before = len(toy.events)
    pieces = split_unit(toy, Identifier("child", "C1", "SX"), names)
    assert [tier_unit(p).tier for p in pieces] == [Tier.CORE, Tier.EXCLUDED]
    source = BundleIndex(toy).units.get(Identifier("child", "C1", "SX"))
    assert source.superseded
    assert len(toy.events) == events_before + 1
    assert all(p.split_from == source.study_id for p in pieces)
    refs = toy.projects[0].unit_refs
    assert source.study_id not in refs and names[0] in refs and names[1] in refs


def test_split_rejections(toy):
    unit = _add_splittable(toy, [assessment(), assessment()])
    unit = edit(toy, unit, splittable=False)
    with pytest.raises(OperationRejected) as err:
        split_unit(toy, unit.study_id, [Identifier("child", "C1", "Za")])
    codes = {d.code for d in err.value.diagnostics}
    assert "E_NOT_SPLITTABLE" in codes and "E_NAME_ARITY" in codes


def _splittable_s2(toy):
    """Toy S2, which declares three assumptions, made splittable with a
    second interpretation."""
    s2 = BundleIndex(toy).units.get(Identifier("child", "C1", "S2"))
    interpretations = s2.interpretations + (Assessment(**assessment()),)
    return edit(toy, s2, splittable=True, interpretations=interpretations)


def test_split_parts_get_their_own_assumption_ids_and_keep_their_tiers(toy):
    s2 = _splittable_s2(toy)
    names = [Identifier("child", "C1", "S2a"), Identifier("child", "C1", "S2b")]
    parts = split_unit(toy, s2.study_id, names)
    assert [[a.id.render() for a in p.explicit_assumptions] for p in parts] == [
        [f"child:C1:{part}_DA{k}" for k in (1, 2, 3)] for part in ("S2a", "S2b")
    ]
    assert [[a.covers for a in p.explicit_assumptions] for p in parts] == [
        [a.covers for a in s2.explicit_assumptions]
    ] * 2
    assert [tier_unit(p).tier for p in parts] == [
        compute_tier_decision(a, s2.explicit_assumptions)[0] for a in s2.interpretations
    ]
    assert parse_bundle(serialize_bundle(toy)).diagnostics == []


def test_a_split_reusing_a_declared_id_is_rejected_unchanged(toy):
    # The first part is named like a route, the second like the first
    # part's copy of assumption DA1.
    s2 = _splittable_s2(toy)
    before = serialize_bundle(toy)
    names = [Identifier("child", "C1", "R1"), Identifier("child", "C1", "R1_DA1")]
    with pytest.raises(OperationRejected) as err:
        split_unit(toy, s2.study_id, names)
    assert [(d.code, d.location) for d in err.value.diagnostics] == [
        ("E_DUP_ID", "child:C1:R1"), ("E_DUP_ID", "child:C1:R1_DA1")
    ]
    assert serialize_bundle(toy) == before


def test_split_then_tier_matches_conservative_merge(toy):
    rng = random.Random(9)
    pool = list(all_assessments())
    for trial in range(25):
        chosen = rng.sample(pool, 2)
        merged = unit_of(*chosen, local="M")
        split_a, split_b = unit_of(chosen[0], local="A"), unit_of(chosen[1], local="B")
        merged_tier = tier_unit(merged).tier
        assert merged_tier == min(tier_unit(split_a).tier, tier_unit(split_b).tier)


# ---------------------------------------------------------------------------
# applyReTier
# ---------------------------------------------------------------------------


def _retier_event(old, new, **overrides):
    fields = dict(
        timestamp="2026-02-02T00:00:00Z",
        source_of_information="A later report clarified the measurement protocol.",
        justification="Measurement detail resolves the earlier ambiguity.",
        implications_for_route="Primary inference may now include the unit.",
        old_tier=old,
        new_tier=new,
    )
    fields.update(overrides)
    return ReTierEvent(**fields)


def test_retier_s2_to_core_with_full_event(toy):
    s2_id = Identifier("child", "C1", "S2")
    events_before = len(toy.events)
    apply_retier(
        toy,
        s2_id,
        _retier_event(Tier.SUPPLEMENT, Tier.CORE),
        new_interpretations=[
            Assessment("aligned", "adequate", "sufficient", "transparent", False)
        ],
        justification="Updated measurement detail restores alignment.",
    )
    s2 = BundleIndex(toy).units.get(s2_id)
    assert s2.declared_tier == Tier.CORE
    assert len(s2.retier_events) == 1
    assert len(toy.events) == events_before + 1
    assert check_tier_declaration(s2) == []


def test_retier_with_empty_justification_is_silent(toy):
    with pytest.raises(OperationRejected) as err:
        apply_retier(
            toy,
            Identifier("child", "C1", "S2"),
            _retier_event(Tier.SUPPLEMENT, Tier.CORE, justification="  "),
        )
    assert "E_SILENT_RETIER" in [d.code for d in err.value.diagnostics]


def test_retier_with_stale_old_tier_rejected(toy):
    before = serialize_bundle(toy)
    with pytest.raises(OperationRejected) as err:
        apply_retier(
            toy,
            Identifier("child", "C1", "S2"),
            _retier_event(Tier.CORE, Tier.SUPPLEMENT),
        )
    assert "E_STALE_OLD_TIER" in [d.code for d in err.value.diagnostics]
    assert serialize_bundle(toy) == before


def test_retier_requires_matching_assessments(toy):
    with pytest.raises(OperationRejected) as err:
        apply_retier(
            toy,
            Identifier("child", "C1", "S2"),
            _retier_event(Tier.SUPPLEMENT, Tier.CORE),
        )
    assert "E_TIER_MISMATCH" in [d.code for d in err.value.diagnostics]


def test_retier_with_a_malformed_timestamp_is_rejected_unchanged(toy):
    # The event's stamp orders the unit's re-tier chain, which compares
    # stamps of the audit log's form only.
    before = serialize_bundle(toy)
    with pytest.raises(OperationRejected) as err:
        apply_retier(
            toy,
            Identifier("child", "C1", "S2"),
            _retier_event(Tier.SUPPLEMENT, Tier.CORE, timestamp="yesterday"),
            new_interpretations=[
                Assessment("aligned", "adequate", "sufficient", "transparent", False)
            ],
            justification="Updated measurement detail restores alignment.",
            timestamp="2026-02-02T00:00:00Z",
        )
    assert [(d.code, d.location, d.message) for d in err.value.diagnostics] == [
        ("E_SYNTAX", "child:C1:S2", event_timestamp_error("yesterday"))
    ]
    assert serialize_bundle(toy) == before


# ---------------------------------------------------------------------------
# Recorded re-tier history
# ---------------------------------------------------------------------------


def test_retier_chain_flags_order_stale_start_and_blank_fields(toy):
    s2 = BundleIndex(toy).units.get(Identifier("child", "C1", "S2"))
    s2 = edit(toy, s2, retier_events=(
        _retier_event(Tier.SUPPLEMENT, Tier.CORE, timestamp="2026-02-03T00:00:00Z"),
        _retier_event(Tier.EXCLUDED, Tier.SUPPLEMENT, implications_for_route=" "),
    ))
    diags = check_retier_chain(s2)
    second = "child:C1:S2.retier_events[1]"
    assert [(d.code, d.location) for d in diags] == [
        ("E_SILENT_RETIER", second),
        ("E_STALE_OLD_TIER", second),
        ("E_SILENT_RETIER", second),
    ]
    assert diags[0].message == "re-tier events are not in timestamp order"
    assert diags[1].message == "event starts at excluded but history was at core"
    assert diags[2].message == "re-tier event lacks implications_for_route"


@pytest.mark.parametrize(
    "stamps, in_order",
    [
        (("2026-02-03T00:00:00Z", "2026-02-03T00:00:00.5Z"), True),
        (("2026-02-03T00:00:00.5Z", "2026-02-03T00:00:00Z"), False),
    ],
    ids=["whole-then-fraction", "fraction-then-whole"],
)
def test_retier_chain_orders_timestamps_in_time_not_as_text(toy, stamps, in_order):
    # As text, "...:00.5Z" sorts before "...:00Z"; in time it comes after.
    s2 = BundleIndex(toy).units.get(Identifier("child", "C1", "S2"))
    s2 = edit(toy, s2, declared_tier=Tier.SUPPLEMENT, retier_events=(
        _retier_event(Tier.SUPPLEMENT, Tier.CORE, timestamp=stamps[0]),
        _retier_event(Tier.CORE, Tier.SUPPLEMENT, timestamp=stamps[1]),
    ))
    expected = [] if in_order else [("E_SILENT_RETIER", "child:C1:S2.retier_events[1]")]
    assert [(d.code, d.location) for d in check_retier_chain(s2)] == expected


def test_retier_chain_must_end_at_the_declared_tier(toy):
    s2 = BundleIndex(toy).units.get(Identifier("child", "C1", "S2"))
    s2 = edit(toy, s2, retier_events=(_retier_event(Tier.SUPPLEMENT, Tier.CORE),))
    diags = check_retier_chain(s2)
    assert [(d.code, d.location) for d in diags] == [("E_SILENT_RETIER", "child:C1:S2")]
    assert diags[0].message == (
        "declared tier supplement does not match the last re-tier event (core)"
    )
    s2 = edit(toy, s2, declared_tier=Tier.CORE)
    assert check_retier_chain(s2) == []
