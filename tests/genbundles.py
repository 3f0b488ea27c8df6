"""Seeded random bundle generation and fault injection for property tests."""

from __future__ import annotations

import json
import random

from recap_engine import records
from recap_engine.bundle import decode, parse_bundle
from recap_engine.model import Assessment, DeclaredAssumption, ProjectBundle, Tier
from recap_engine.tiering import compute_tier_decision

WORDS = (
    "signal",
    "window",
    "panel",
    "contrast",
    "reading",
    "cohort",
    "indicator",
    "mapping",
    "series",
    "frame",
)

ALIGNMENTS = ("mismatch", "partial", "aligned")
MEASUREMENTS = ("failed", "conditional_proxy", "minor_limitation", "adequate")
DESIGNS = ("incompatible", "limited", "sufficient")
REPORTINGS = ("opaque", "ambiguous", "transparent")
SECONDARY = ("sensitivity", "boundary", "contextual", "measurement_evaluation")


#: A wording of each of the four protected laws, for the bundles tests
#: build. A bundle may word them differently but must keep each wording
#: byte-stable across versions.
CORE_LAW_SEEDS = {
    "anti_reification": (
        "Constructs, categories, and variables are analytic instruments, not "
        "natural kinds; their legitimacy derives from their inferential role."
    ),
    "one_route": (
        "A project commits to exactly one inferential route; comparison is "
        "exploratory, commitment is singular."
    ),
    "construct_measurement_separation": (
        "Constructs are defined conceptually; measurements approximate them "
        "and never define them."
    ),
    "grandparent_insulation": (
        "Laws of this layer cannot be modified from below; lower layers may "
        "only propose abstracted, append-only methodological refinements."
    ),
}


class TimeSource:
    """Monotone ISO-8601 timestamps for deterministic event ordering."""

    def __init__(self) -> None:
        self.tick = 0

    def next(self) -> str:
        self.tick += 1
        t = self.tick
        return f"2026-02-01T{t // 3600 % 24:02d}:{t // 60 % 60:02d}:{t % 60:02d}Z"


def _prose(rng: random.Random, n: int = 4) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(n))


def _assessment(rng: random.Random) -> dict:
    return {
        "construct_alignment": rng.choice(ALIGNMENTS),
        "measurement": rng.choice(MEASUREMENTS),
        "design": rng.choice(DESIGNS),
        "reporting": rng.choice(REPORTINGS),
        "speculation_required": rng.random() < 0.15,
    }


def random_bundle_dict(rng: random.Random, *, n_parents: int | None = None,
                       n_children: int | None = None) -> dict:
    """A structurally valid, contamination-free bundle document."""
    n_parents = n_parents if n_parents is not None else rng.randint(1, 2)
    n_children = n_children if n_children is not None else rng.randint(2, 4)
    gp_laws = [
        {"id": name, "text": CORE_LAW_SEEDS[name], "immutable_core": True, "quarantined": False}
        for name in CORE_LAW_SEEDS
    ]
    for i in range(rng.randint(1, 3)):
        gp_laws.append(
            {
                "id": f"L{i + 1}",
                "text": f"Declared discipline {i + 1}: {_prose(rng)}.",
                "immutable_core": False,
                "quarantined": False,
            }
        )
    layers = [
        {
            "id": "G",
            "kind": "grandparent",
            "version": "v1.0",
            "parent_ref": None,
            "laws": gp_laws,
            "abstractions": [],
            "vocabulary": ["construct", "measurement", "dimension", "stability"],
        }
    ]
    parents = [f"P{i + 1}" for i in range(n_parents)]
    for name in parents:
        abstractions = [
            {
                "id": f"K{j + 1}",
                "kind": "construct",
                "definition": f"Domain construct {j + 1}: {_prose(rng)}.",
                "correspondence": {},
                "quarantined": False,
            }
            for j in range(rng.randint(1, 2))
        ]
        abstractions.append(
            {
                "id": "mx",
                "kind": "measurement_class",
                "definition": f"Measurement class: {_prose(rng)}.",
                "correspondence": {"mx": "K1"},
                "quarantined": False,
            }
        )
        layers.append(
            {
                "id": name,
                "kind": "parent",
                "version": "v1.0",
                "parent_ref": "G",
                "laws": [],
                "abstractions": abstractions,
                "vocabulary": ["indicator", "proxy"],
            }
        )
    children = [f"C{i + 1}" for i in range(n_children)]
    units, routes, projects = [], [], []
    for ci, child in enumerate(children):
        parent = parents[ci % len(parents)]
        layers.append(
            {
                "id": child,
                "kind": "child",
                "version": "v1.0",
                "parent_ref": parent,
                "laws": [],
                "abstractions": [],
                "vocabulary": ["cohort"],
            }
        )
        unit_refs = []
        assignments = []
        route_id = f"child:{child}:R1"
        for ui in range(rng.randint(0, 3)):
            local = f"S{ui + 1}"
            full = f"child:{child}:{local}"
            interp = _assessment(rng)
            assumptions = []
            if rng.random() < 0.6:
                assumptions = [
                    {
                        "id": f"child:{child}:DA{ui + 1}",
                        "text": f"Reading bounded: {_prose(rng)}.",
                        "covers": ["construct_alignment", "measurement", "design", "reporting"],
                    }
                ]
            tier, _ = compute_tier_decision(
                decode(Assessment, interp),
                [decode(DeclaredAssumption, a, child) for a in assumptions],
            )
            units.append(
                {
                    "study_id": full,
                    "design_type": "Observational (Abstract)",
                    "interpretations": [interp],
                    "splittable": False,
                    "declared_tier": tier.label,
                    "tier_justification": f"Structural fit: {_prose(rng, 3)}.",
                    "explicit_assumptions": assumptions,
                    "retier_events": [],
                    "measurement_refs": [f"parent:{parent}:mx"] if rng.random() < 0.5 else [],
                    "bias_considerations": f"{_prose(rng, 3)} → nondirectional risk",
                    "measurement_issues": _prose(rng, 3),
                    "notes": _prose(rng, 3),
                    "methods_summary": _prose(rng, 4),
                    "strengths": _prose(rng, 3),
                    "limitations": _prose(rng, 3),
                    "split_from": None,
                    "superseded": False,
                    "quarantined": False,
                }
            )
            unit_refs.append(full)
            if tier == Tier.CORE:
                assignments.append(
                    {"unit_ref": full, "route_ref": route_id, "role": "primary_inference"}
                )
            elif tier == Tier.SUPPLEMENT:
                assignments.append(
                    {"unit_ref": full, "route_ref": route_id, "role": rng.choice(SECONDARY)}
                )
        routes.append(
            {
                "id": route_id,
                "project_ref": f"child:{child}:PRJ",
                "construct_ref": f"parent:{parent}:K1",
                "objective": rng.choice(["associational", "descriptive", "comparative"]),
                "assumptions": [
                    {
                        "id": f"child:{child}:AS1",
                        "text": f"Assumed: {_prose(rng)}.",
                        "plausibility": f"Plausible: {_prose(rng, 3)}.",
                        "failure_modes": f"Fails when {_prose(rng, 3)}.",
                        "consequences_for_inference": f"Then {_prose(rng, 3)}.",
                        "supporting_units": unit_refs[:1] if unit_refs else [],
                        "untestable": not unit_refs,
                    }
                ],
                "disconfirming_models": [f"Alternative: {_prose(rng)}."],
                "rejected_alternatives": [],
                "frozen_at": None,
                "revisions": [],
                "quarantined": False,
            }
        )
        projects.append(
            {
                "id": f"child:{child}:PRJ",
                "layer_ref": child,
                "question": f"How does K1 behave: {_prose(rng, 3)}?",
                "committed_route": route_id,
                "unit_refs": unit_refs,
                "assignments": assignments,
            }
        )
    return {
        "recap_version": "v1.0",
        "layers": layers,
        "projects": projects,
        "units": units,
        "routes": routes,
        "flows": [],
        "contracts": [],
        "events": [],
        "reviewer_blocks": [],
        "memos": [],
    }


def edit(bundle: ProjectBundle, old, **changes):
    """A hand edit of the frozen record ``old``, wherever it sits in
    ``bundle``: put ``records.replace(old, **changes)`` in its place,
    rebuilding each record above it, and return the new record."""
    new = records.replace(old, **changes)
    for name, items in vars(bundle).items():
        for i, item in enumerate(items if items.__class__ is tuple else ()):
            found = _put(item, old, new)
            if found is not None:
                setattr(bundle, name, items[:i] + (found,) + items[i + 1:])
                return new
    raise LookupError(f"{old!r} is not in the bundle")


def edit_payload(bundle: ProjectBundle, i: int, change) -> None:
    """A hand edit of event ``i``'s payload: ``change`` edits a plain copy
    of it, which then replaces the event's payload."""
    payload = json.loads(json.dumps(bundle.events[i].payload))
    change(payload)
    events = list(bundle.events)
    events[i] = records.replace(events[i], payload=payload)
    bundle.events = events


def _put(record, old, new):
    """``record`` with ``old`` replaced by ``new`` at or below it, or None."""
    if record is old:
        return new
    for name, value in vars(record).items() if records.is_record(record) else ():
        for j, item in enumerate(value if value.__class__ is tuple else ()):
            found = _put(item, old, new)
            if found is not None:
                return records.replace(record, **{name: value[:j] + (found,) + value[j + 1:]})
    return None


def layer_named(bundle: ProjectBundle, local: str):
    """The first layer of ``bundle`` whose local name is ``local``, or None."""
    return next((layer for layer in bundle.layers if layer.local_name == local), None)


def parse_dict(doc: dict):
    result = parse_bundle(json.dumps(doc))
    assert result.bundle is not None, [d.render() for d in result.diagnostics]
    return result.bundle


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


def inject_faults(rng: random.Random, doc: dict, k: int) -> list[dict]:
    """Inject k distinct illegal references; returns the expected findings as
    {direction, rule, container} records."""
    expected = []
    used: set[tuple] = set()
    children = [l for l in doc["layers"] if l["kind"] == "child"]
    parents = [l for l in doc["layers"] if l["kind"] == "parent"]
    gp = next(l for l in doc["layers"] if l["kind"] == "grandparent")
    kinds = ["gp_text", "parent_text", "horizontal_text", "law_override", "bad_flow"]
    attempts = 0
    while len(expected) < k and attempts < 500:
        attempts += 1
        kind = rng.choice(kinds)
        if kind == "gp_text":
            law = rng.choice(gp["laws"])
            if not children or ("gp", law["id"]) in used:
                continue
            child = rng.choice(children)
            target_units = [
                u for u in doc["units"] if u["study_id"].startswith(f"child:{child['id']}:")
            ]
            token = (
                target_units[0]["study_id"]
                if target_units
                else f"child:{child['id']}:PRJ"
            )
            law["text"] += f" Anchored to {token}."
            used.add(("gp", law["id"]))
            expected.append(
                {
                    "direction": "upward",
                    "rule": "R1_upward_content",
                    "container": f"gp:{law['id']}",
                }
            )
        elif kind == "parent_text":
            if not parents or not children:
                continue
            parent = rng.choice(parents)
            abstraction = rng.choice(parent["abstractions"])
            if ("parent", parent["id"], abstraction["id"]) in used:
                continue
            child = rng.choice(children)
            token = f"child:{child['id']}:PRJ"
            abstraction["definition"] += f" Tuned for {token}."
            used.add(("parent", parent["id"], abstraction["id"]))
            expected.append(
                {
                    "direction": "upward",
                    "rule": "R1_upward_content",
                    "container": f"parent:{parent['id']}:{abstraction['id']}",
                }
            )
        elif kind == "horizontal_text":
            if len(children) < 2 or not doc["units"]:
                continue
            unit = rng.choice(doc["units"])
            owner = unit["study_id"].split(":")[1]
            siblings = [c for c in children if c["id"] != owner]
            if not siblings or ("unit", unit["study_id"]) in used:
                continue
            sibling = rng.choice(siblings)
            token = f"child:{sibling['id']}:PRJ"
            unit["notes"] += f" Matches the convention of {token}."
            used.add(("unit", unit["study_id"]))
            expected.append(
                {
                    "direction": "horizontal",
                    "rule": "R3_horizontal_borrowing",
                    "container": unit["study_id"],
                }
            )
        elif kind == "law_override":
            child = rng.choice(children) if children else None
            if child is None or ("override", child["id"]) in used:
                continue
            shadow = rng.choice(gp["laws"])
            child["laws"].append(
                {
                    "id": shadow["id"],
                    "text": "Locally it means whatever the instrument measures.",
                    "immutable_core": False,
                    "quarantined": False,
                }
            )
            used.add(("override", child["id"]))
            expected.append(
                {
                    "direction": "downward",
                    "rule": "R2_downward_rewrite",
                    "container": f"child:{child['id']}:{shadow['id']}",
                }
            )
        else:
            child = rng.choice(children) if children else None
            if child is None or ("flow", child["id"]) in used:
                continue
            flow_id = f"child:{child['id']}:F{len(doc['flows']) + 1}"
            doc["flows"].append(
                {
                    "id": flow_id,
                    "source_layer": child["id"],
                    "dest_layer": "G",
                    "info_class": rng.choice(["content", "measurement", "assumption"]),
                    "payload": "Observed convention should become law.",
                    "timestamp": "2026-02-01T00:00:00Z",
                    "contract_ref": None,
                    "quarantined": False,
                }
            )
            used.add(("flow", child["id"]))
            expected.append(
                {"direction": "upward", "rule": "R1_upward_content", "container": flow_id}
            )
    assert len(expected) == k, f"could not place {k} injections"
    return expected


def inject_borrowings(doc: dict) -> bool:
    """One lateral reference from child C1 to child C2 at each place the scan
    checks (a unit text, a declared-assumption text, ``measurement_refs``, a
    route-assumption text, ``supporting_units``, ``disconfirming_models``,
    ``unit_refs``, ``committed_route`` and ``assignments``), plus the
    abstraction C2 declares for the measurement reference, a law C1
    declares and one upward flow. Returns False, leaving ``doc`` unchanged,
    when C1 or C2 declares no unit."""
    ours, theirs = (
        [u for u in doc["units"] if u["study_id"].startswith(f"child:{c}:")] for c in ("C1", "C2")
    )
    if not ours or not theirs:
        return False
    sibling_unit = theirs[0]["study_id"]
    c1, c2 = (next(layer for layer in doc["layers"] if layer["id"] == c) for c in ("C1", "C2"))
    c1["laws"].append({"id": "LB", "text": "A local rule.", "immutable_core": False,
                       "quarantined": False})
    c2["abstractions"].append(
        {"id": "mz", "kind": "measurement_class", "definition": "Local.",
         "correspondence": {}, "quarantined": False}
    )
    unit = ours[0]
    unit["limitations"] += " As child:C2:PRJ does."
    unit["explicit_assumptions"].append(
        {"id": "child:C1:DAB", "text": "Bounded as in child:C2:PRJ.", "covers": ["reporting"]}
    )
    unit["measurement_refs"].append("child:C2:mz")
    route = next(r for r in doc["routes"] if r["id"] == "child:C1:R1")
    route["assumptions"][0]["failure_modes"] += " See child:C2:R1."
    route["assumptions"][0]["supporting_units"].append(sibling_unit)
    route["disconfirming_models"].append("Alternative: child:C2:PRJ.")
    project = next(p for p in doc["projects"] if p["id"] == "child:C1:PRJ")
    project["unit_refs"].append(sibling_unit)
    project["committed_route"] = "child:C2:R1"
    project["assignments"].append(
        {"unit_ref": sibling_unit, "route_ref": "child:C1:R1", "role": "contextual"}
    )
    doc["flows"].append(
        {"id": "child:C1:FB", "source_layer": "C1", "dest_layer": "G", "info_class": "content",
         "payload": "A local finding.", "timestamp": "2026-02-01T00:00:00Z",
         "contract_ref": None, "quarantined": False}
    )
    return True
