"""Golden fixture: the abstract three-study project (A/B/C constructs,
measurements m1-m3, studies S1/S2/S3, routes R1-R4, layers G/P/C1)."""

from __future__ import annotations

import copy

from genbundles import CORE_LAW_SEEDS

from recap_engine.bundle import parse_bundle, serialize_bundle
from recap_engine.identifiers import Identifier
from recap_engine.routing import freeze_route

FREEZE_TS = "2026-01-05T09:00:00Z"

PRJ = Identifier("child", "C1", "PRJ")


def _law(name: str, text: str, core: bool = False) -> dict:
    return {"id": name, "text": text, "immutable_core": core, "quarantined": False}


def _unit(
    local: str,
    interpretations: list[dict],
    tier: str,
    justification: str,
    **fields,
) -> dict:
    record = {
        "study_id": f"child:C1:{local}",
        "design_type": "Observational (Abstract)",
        "interpretations": interpretations,
        "splittable": False,
        "declared_tier": tier,
        "tier_justification": justification,
        "explicit_assumptions": [],
        "retier_events": [],
        "measurement_refs": [],
        "bias_considerations": "",
        "measurement_issues": "",
        "notes": "",
        "methods_summary": "",
        "strengths": "",
        "limitations": "",
        "split_from": None,
        "superseded": False,
        "quarantined": False,
    }
    record.update(fields)
    return record


def assessment(
    alignment="aligned",
    measurement="adequate",
    design="sufficient",
    reporting="transparent",
    speculation=False,
) -> dict:
    return {
        "construct_alignment": alignment,
        "measurement": measurement,
        "design": design,
        "reporting": reporting,
        "speculation_required": speculation,
    }


def _route(local: str, objective: str, construct: str, assumptions: list[dict],
           disconfirming: list[str], rejected: list[dict] | None = None) -> dict:
    return {
        "id": f"child:C1:{local}",
        "project_ref": "child:C1:PRJ",
        "construct_ref": construct,
        "objective": objective,
        "assumptions": assumptions,
        "disconfirming_models": disconfirming,
        "rejected_alternatives": rejected or [],
        "frozen_at": None,
        "revisions": [],
        "quarantined": False,
    }


def _simple_assumption(local: str, text: str) -> dict:
    return {
        "id": f"child:C1:{local}",
        "text": text,
        "plausibility": "Plausible under the declared correspondence rules.",
        "failure_modes": "Breaks if the correspondence between measurement and construct drifts.",
        "consequences_for_inference": "The pathway loses construct anchoring.",
        "supporting_units": [],
        "untestable": True,
    }


def toy_dict() -> dict:
    """The authored (pre-freeze) bundle document as a plain dict."""
    gp_laws = [
        _law("anti_reification", CORE_LAW_SEEDS["anti_reification"], core=True),
        _law("one_route", CORE_LAW_SEEDS["one_route"], core=True),
        _law(
            "construct_measurement_separation",
            CORE_LAW_SEEDS["construct_measurement_separation"],
            core=True,
        ),
        _law("grandparent_insulation", CORE_LAW_SEEDS["grandparent_insulation"], core=True),
        _law("A", "A is an abstract exposure construct, defined conceptually."),
        _law("B", "B is an abstract intermediate construct, defined conceptually."),
        _law("C", "C is an abstract outcome construct, defined conceptually."),
        _law(
            "tiering_discipline",
            "Every evidential unit receives exactly one structural tier with a "
            "documented justification.",
        ),
        _law(
            "flow_governance",
            "Constraints flow downward; only abstracted methodological insight "
            "flows upward; lateral transfer requires an explicit boundary contract.",
        ),
    ]
    layers = [
        {
            "id": "G",
            "kind": "grandparent",
            "version": "v1.0",
            "parent_ref": None,
            "laws": gp_laws,
            "abstractions": [],
            "vocabulary": [
                "construct",
                "measurement",
                "operationalization",
                "stability",
                "dimension",
                "declared",
                "tier",
                "route",
                "evidence",
                "assumption",
                "insight",
                "remains",
                "unstable",
            ],
        },
        {
            "id": "P",
            "kind": "parent",
            "version": "v1.0",
            "parent_ref": "G",
            "laws": [],
            "abstractions": [
                {
                    "id": "A",
                    "kind": "construct",
                    "definition": "Domain abstraction of the exposure construct.",
                    "correspondence": {},
                    "quarantined": False,
                },
                {
                    "id": "B",
                    "kind": "construct",
                    "definition": "Domain abstraction of the intermediate construct.",
                    "correspondence": {},
                    "quarantined": False,
                },
                {
                    "id": "C",
                    "kind": "construct",
                    "definition": "Domain abstraction of the outcome construct.",
                    "correspondence": {},
                    "quarantined": False,
                },
                {
                    "id": "m1",
                    "kind": "measurement_class",
                    "definition": "Measurement class approximating the exposure construct.",
                    "correspondence": {"m1": "A"},
                    "quarantined": False,
                },
                {
                    "id": "m2",
                    "kind": "measurement_class",
                    "definition": "Proxy measurement class approximating the intermediate construct.",
                    "correspondence": {"m2": "B"},
                    "quarantined": False,
                },
                {
                    "id": "m3",
                    "kind": "measurement_class",
                    "definition": "Measurement class approximating the outcome construct.",
                    "correspondence": {"m3": "C"},
                    "quarantined": False,
                },
                {
                    "id": "observational_abstract",
                    "kind": "design_form",
                    "definition": "Observational design form without assigned contrast.",
                    "correspondence": {},
                    "quarantined": False,
                },
            ],
            "vocabulary": ["exposure", "outcome", "mediator", "indicator", "proxy"],
        },
        {
            "id": "C1",
            "kind": "child",
            "version": "v1.0",
            "parent_ref": "P",
            "laws": [],
            "abstractions": [],
            "vocabulary": ["cohort", "panel"],
        },
    ]
    units = [
        _unit(
            "S1",
            [assessment(measurement="minor_limitation")],
            "core",
            "Construct alignment",
            measurement_refs=["parent:P:m1", "parent:P:m2", "parent:P:m3"],
            bias_considerations="Proxy for B → nondirectional risk",
            measurement_issues="Partial misalignment for B",
            notes="Adequate for R2",
            methods_summary="Association between A and C via m1–m3 mapping",
            strengths="Clear construct A; transparent m1",
            limitations="Proxy for B",
        ),
        _unit(
            "S2",
            [
                assessment(
                    alignment="partial", measurement="conditional_proxy", reporting="ambiguous"
                )
            ],
            "supplement",
            "Partial mismatch",
            explicit_assumptions=[
                {
                    "id": "child:C1:DA1",
                    "text": "Partial alignment of A is read under the declared correspondence only.",
                    "covers": ["construct_alignment"],
                },
                {
                    "id": "child:C1:DA2",
                    "text": "Proxy readings are treated as conditional indicators, not values.",
                    "covers": ["measurement"],
                },
                {
                    "id": "child:C1:DA3",
                    "text": "Ambiguously reported sections are restricted to sensitivity use.",
                    "covers": ["reporting"],
                },
            ],
            measurement_refs=["parent:P:m1", "parent:P:m2"],
            bias_considerations="Ambiguous operationalization of A and B → attenuates the association",
            measurement_issues="Ambiguous A/B",
            notes="Sensitivity use only",
            methods_summary="Joint reading of A and B under ambiguous operationalization",
            strengths="Probes the A–B boundary",
            limitations="Ambiguous A/B",
        ),
        _unit(
            "S3",
            [assessment(alignment="mismatch", measurement="failed", reporting="opaque")],
            "excluded",
            "Definition opacity",
            bias_considerations="Non-correspondence of measurements → nondirectional risk",
            measurement_issues="Non-correspondence",
            notes="Recorded but not used",
        ),
    ]
    routes = [
        _route(
            "R1",
            "comparative",
            "parent:P:C",
            [_simple_assumption("RA_R1", "A comparative contrast exists across units.")],
            ["A baseline shift could mimic the contrast."],
        ),
        _route(
            "R2",
            "associational",
            "parent:P:C",
            [
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
                    "text": "proxy B monotonic",
                    "plausibility": "Moderate: the proxy tracks B directionally.",
                    "failure_modes": "Non-monotone behaviour at extreme values of B.",
                    "consequences_for_inference": "The mediated reading attenuates.",
                    "supporting_units": ["child:C1:S1"],
                    "untestable": False,
                },
            ],
            ["C may influence B rather than vice versa."],
            rejected=[
                {
                    "sketch": "R1 comparative estimation",
                    "rationale": "No comparative contrast is available across units.",
                },
                {
                    "sketch": "R3 measurement evaluation",
                    "rationale": "Kept as an auxiliary evaluation role only.",
                },
                {
                    "sketch": "R4 predictive modeling",
                    "rationale": "Prediction is not the declared objective.",
                },
            ],
        ),
        _route(
            "R3",
            "measurement-evaluation",
            "parent:P:B",
            [_simple_assumption("RA_R3", "Measurement classes are comparable across units.")],
            ["Apparent instability may reflect sampling rather than operationalization."],
        ),
        _route(
            "R4",
            "predictive",
            "parent:P:C",
            [_simple_assumption("RA_R4", "Past observations are informative about later ones.")],
            ["A regime change could break the learned mapping."],
        ),
    ]
    return {
        "recap_version": "v1.0",
        "layers": layers,
        "projects": [
            {
                "id": "child:C1:PRJ",
                "layer_ref": "C1",
                "question": "How does A relate to C, mediated through B?",
                "committed_route": "child:C1:R2",
                "unit_refs": ["child:C1:S1", "child:C1:S2", "child:C1:S3"],
                "assignments": [
                    {
                        "unit_ref": "child:C1:S1",
                        "route_ref": "child:C1:R2",
                        "role": "primary_inference",
                    },
                    {
                        "unit_ref": "child:C1:S2",
                        "route_ref": "child:C1:R3",
                        "role": "measurement_evaluation",
                    },
                ],
            }
        ],
        "units": units,
        "routes": routes,
        "flows": [
            {
                "id": "gp:F1",
                "source_layer": "G",
                "dest_layer": "P",
                "info_class": "content",
                "payload": "Constraint refresh: tiering discipline and flow governance bind all domain abstractions.",
                "timestamp": "2026-01-02T08:00:00Z",
                "contract_ref": None,
                "quarantined": False,
            }
        ],
        "contracts": [],
        "events": [],
        "reviewer_blocks": [
            {
                "project_ref": "child:C1:PRJ",
                "methodological_findings": [
                    "Construct A measured reliably.",
                    "Proxy B introduces potential attenuation.",
                ],
                "conceptual_insight": "Operationalization of B remains unstable.",
                "anticipated_critique": {
                    "text": "Why was a stronger proxy not used?",
                    "referenced_decisions": ["child:C1:S1"],
                },
                "disconfirming_model": "C may influence B rather than vice versa.",
                "assumptions_ref": ["child:C1:AS1", "child:C1:AS2"],
            }
        ],
        "memos": [
            {
                "project_ref": "child:C1:PRJ",
                "sections": {
                    "interpretation_under_assumptions": "The A–C association is read under m1 validity and proxy monotonicity.",
                    "uncertainty": "Uncertainty concentrates in the proxy for B.",
                    "boundary_evaluation": "S2 bounds the reading where operationalization is ambiguous.",
                    "supplement_roles": "S2 serves measurement evaluation only.",
                    "inheritance_compliance": "No inherited definition was altered; no lateral borrowing occurred.",
                },
            }
        ],
    }


def toy_bundle():
    """The complete, compliant toy bundle: authored document plus the freeze
    applied through the engine (which records the freeze event)."""
    result = parse_bundle(serialize_dict(toy_dict()))
    assert result.bundle is not None, [d.render() for d in result.diagnostics]
    bundle = result.bundle
    freeze_route(bundle, PRJ, timestamp=FREEZE_TS, actor="toy-author")
    return bundle


def serialize_dict(obj: dict) -> str:
    import json

    return json.dumps(obj, indent=2, ensure_ascii=False)


def toy_text() -> str:
    """Serialized form of the complete toy bundle."""
    return serialize_bundle(toy_bundle())


def over_long_integer_text() -> str:
    """The toy's text with an unknown first key holding a 5,000-digit
    integer, longer than ``json.loads`` converts (``sys.get_int_max_str_digits``)."""
    return '{"zz": ' + "1" * 5000 + ", " + toy_text().lstrip()[1:]


def variant(mutator) -> dict:
    """A deep-copied toy dict passed through a mutator, for fixtures."""
    data = copy.deepcopy(toy_dict())
    mutator(data)
    return data
