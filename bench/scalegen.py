"""Seeded scale generator for the recap-engine benchmark.

Everything here is derived from the seed alone and never from the engine
under test: bundle documents, the faults injected into them, the findings
those faults must produce, the tiers the decision table must give, and the
accept/reject outcome of every planned mutation. The module imports nothing
from ``recap_engine`` and nothing from ``tests/``, so neither an engine
change nor a test-fixture edit can move the benchmark's inputs or answers.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random

WORDS = (
    "signal", "window", "panel", "contrast", "reading", "cohort", "indicator",
    "mapping", "series", "frame", "stratum", "interval", "baseline", "scale",
)

ALIGNMENTS = ("mismatch", "partial", "aligned")
MEASUREMENTS = ("failed", "conditional_proxy", "minor_limitation", "adequate")
DESIGNS = ("incompatible", "limited", "sufficient")
REPORTINGS = ("opaque", "ambiguous", "transparent")
DIMENSIONS = ("construct_alignment", "measurement", "design", "reporting")
SECONDARY_ROLES = ("sensitivity", "boundary", "contextual", "measurement_evaluation")
TIER_ORDER = ("excluded", "supplement", "core")
MEMO_SECTIONS = (
    "interpretation_under_assumptions",
    "uncertainty",
    "boundary_evaluation",
    "supplement_roles",
    "inheritance_compliance",
)
CORE_LAWS = (
    ("anti_reification", "Constructs are analytic instruments, not natural kinds."),
    ("one_route", "A project commits to exactly one inferential route."),
    ("construct_measurement_separation", "Measurements approximate constructs and never define them."),
    ("grandparent_insulation", "Laws of this layer cannot be modified from below."),
)

#: The five fault kinds the injector places.
FAULT_KINDS = ("horizontal_text", "gp_text", "parent_text", "law_override", "bad_flow")
#: The flow-law violation codes a contamination finding can carry.
FAULT_RULES = (
    "R1_upward_content",
    "R2_downward_rewrite",
    "R3_horizontal_borrowing",
    "R4_missing_contract",
    "R5_meta_engine_insulation",
)


GP = "gp:G"


def layer_id(kind: str, name: str) -> str:
    """Canonical id of a parent or child layer named ``name``."""
    return f"{kind}:{name}:{name}"


def local_name(ident: str) -> str:
    return ident.rsplit(":", 1)[1]


class Clock:
    """Strictly increasing ISO-8601 UTC timestamps from a fixed origin."""

    def __init__(self, day: int = 1) -> None:
        self.day = day
        self.tick = 0

    def next(self) -> str:
        self.tick += 1
        t = self.tick
        return (
            f"2026-03-{self.day:02d}T{t // 3600 % 24:02d}:{t // 60 % 60:02d}:{t % 60:02d}Z"
        )


def prose(rng: random.Random, n: int = 4) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(n))


# ---------------------------------------------------------------------------
# The decision table, restated independently of the engine
# ---------------------------------------------------------------------------


def limited_dimensions(a: dict) -> list[str]:
    out = []
    if a["construct_alignment"] == "partial":
        out.append("construct_alignment")
    if a["measurement"] == "conditional_proxy":
        out.append("measurement")
    if a["design"] == "limited":
        out.append("design")
    if a["reporting"] == "ambiguous":
        out.append("reporting")
    return out


def oracle_tier(a: dict, covered: set[str]) -> str:
    """Tier of one assessment: exclusions first, then the clean core case,
    then supplement exactly when every limited dimension is covered."""
    if a["construct_alignment"] == "mismatch" or a["reporting"] == "opaque":
        return "excluded"
    if a["speculation_required"]:
        return "excluded"
    if a["measurement"] == "failed" or a["design"] == "incompatible":
        return "excluded"
    if (
        a["construct_alignment"] == "aligned"
        and a["measurement"] in ("adequate", "minor_limitation")
        and a["design"] == "sufficient"
        and a["reporting"] == "transparent"
    ):
        return "core"
    if all(dim in covered for dim in limited_dimensions(a)):
        return "supplement"
    return "excluded"


def unit_tier(interpretations: list[dict], assumptions: list[dict]) -> str:
    """Unsplittable ambiguity resolves to the most conservative reading."""
    covered = {dim for da in assumptions for dim in da["covers"]}
    tiers = [oracle_tier(a, covered) for a in interpretations]
    return min(tiers, key=TIER_ORDER.index)


def random_assessment(rng: random.Random) -> dict:
    return {
        "construct_alignment": rng.choice(ALIGNMENTS),
        "measurement": rng.choice(MEASUREMENTS),
        "design": rng.choice(DESIGNS),
        "reporting": rng.choice(REPORTINGS),
        "speculation_required": rng.random() < 0.1,
    }


def assessment_for(rng: random.Random, tier: str, covered: set[str]) -> dict:
    """An assessment the table maps to ``tier`` given the covered dimensions."""
    if tier == "core":
        return {
            "construct_alignment": "aligned",
            "measurement": rng.choice(("adequate", "minor_limitation")),
            "design": "sufficient",
            "reporting": "transparent",
            "speculation_required": False,
        }
    if tier == "excluded":
        a = random_assessment(rng)
        a["construct_alignment"] = "mismatch"
        return a
    dim = rng.choice(sorted(covered))
    a = {
        "construct_alignment": "aligned",
        "measurement": "adequate",
        "design": "sufficient",
        "reporting": "transparent",
        "speculation_required": False,
    }
    a[dim] = {
        "construct_alignment": "partial",
        "measurement": "conditional_proxy",
        "design": "limited",
        "reporting": "ambiguous",
    }[dim]
    return a


# ---------------------------------------------------------------------------
# Route fingerprint, restated from the bundle format
# ---------------------------------------------------------------------------


def route_body(route: dict) -> dict:
    return {
        "construct_ref": route["construct_ref"],
        "objective": route["objective"],
        "assumptions": route["assumptions"],
        "disconfirming_models": route["disconfirming_models"],
    }


def body_hash(route: dict) -> str:
    text = json.dumps(route_body(route), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def law(name: str, text: str, core: bool = False) -> dict:
    return {"id": f"gp:{name}", "text": text, "immutable_core": core, "quarantined": False}


def unit_record(child: str, local: str, interpretations: list[dict], assumptions: list[dict],
                tier: str | None, rng: random.Random, *, splittable: bool = False,
                parent: str | None = None) -> dict:
    return {
        "study_id": f"child:{child}:{local}",
        "design_type": "Observational (Abstract)",
        "interpretations": interpretations,
        "splittable": splittable,
        "declared_tier": tier,
        "tier_justification": f"Structural fit: {prose(rng, 3)}." if tier else "",
        "explicit_assumptions": assumptions,
        "retier_events": [],
        "measurement_refs": [f"parent:{parent}:mx"] if parent and rng.random() < 0.5 else [],
        "bias_considerations": f"{prose(rng, 3)}, {rng.choice(('attenuates', 'inflates', 'nondirectional'))} risk",
        "measurement_issues": prose(rng, 3),
        "notes": prose(rng, 3),
        "methods_summary": prose(rng, 5),
        "strengths": prose(rng, 3),
        "limitations": prose(rng, 3),
        "split_from": None,
        "superseded": False,
        "quarantined": False,
    }


def route_record(child: str, local: str, construct: str, supporting: list[str],
                 rng: random.Random) -> dict:
    return {
        "id": f"child:{child}:{local}",
        "project_ref": f"child:{child}:PRJ",
        "construct_ref": construct,
        "objective": rng.choice(("associational", "descriptive", "comparative")),
        "assumptions": [
            {
                "id": f"child:{child}:{local}AS1",
                "text": f"Assumed: {prose(rng)}.",
                "plausibility": f"Plausible: {prose(rng, 3)}.",
                "failure_modes": f"Fails when {prose(rng, 3)}.",
                "consequences_for_inference": f"Then {prose(rng, 3)}.",
                "supporting_units": supporting,
                "untestable": not supporting,
            }
        ],
        "disconfirming_models": [f"Alternative: {prose(rng)}."],
        "rejected_alternatives": [
            {"sketch": f"Sketch: {prose(rng, 3)}.", "rationale": f"Because {prose(rng, 3)}."}
        ],
        "frozen_at": None,
        "revisions": [],
        "quarantined": False,
    }


# ---------------------------------------------------------------------------
# Clean bundles
# ---------------------------------------------------------------------------


def clean_bundle(rng: random.Random, n_projects: int, units_per_project: int, *,
                 frozen_share: float = 1.0, orphan_units: int = 0,
                 splittable_units: int = 0) -> tuple[dict, dict]:
    """A compliant bundle document and the answers it implies.

    One child layer per project; each project commits to one route, which is
    frozen behind a recorded fingerprint with probability ``frozen_share``.
    ``orphan_units`` extra tiered units and ``splittable_units`` untiered
    two-reading units are declared outside every project, so mutations on
    them cannot disturb route coherence.
    """
    clock = Clock()
    n_parents = max(1, min(4, n_projects // 2))
    extra_laws = [law(f"L{i + 1}", f"Declared discipline {i + 1}: {prose(rng)}.") for i in range(3)]
    gp_laws = [law(name, text, core=True) for name, text in CORE_LAWS] + extra_laws
    layers = [
        {
            "id": GP, "kind": "grandparent", "version": "v1.1", "parent_ref": None,
            "laws": gp_laws, "abstractions": [],
            "vocabulary": ["construct", "measurement", "dimension", "stability"],
        }
    ]
    parents = [f"P{i + 1}" for i in range(n_parents)]
    for name in parents:
        layers.append(
            {
                "id": layer_id("parent", name), "kind": "parent", "version": "v1.0",
                "parent_ref": GP, "laws": [],
                "abstractions": [
                    {"id": f"parent:{name}:K1", "kind": "construct", "definition": f"Construct: {prose(rng)}.",
                     "correspondence": {}, "quarantined": False},
                    {"id": f"parent:{name}:K2", "kind": "construct", "definition": f"Construct: {prose(rng)}.",
                     "correspondence": {}, "quarantined": False},
                    {"id": f"parent:{name}:mx", "kind": "measurement_class",
                     "definition": f"Measurement class: {prose(rng)}.",
                     "correspondence": {"mx": "K1"}, "quarantined": False},
                ],
                "vocabulary": ["indicator", "proxy"],
            }
        )
    children = [f"C{i + 1}" for i in range(n_projects)]
    parent_of = {child: parents[i % n_parents] for i, child in enumerate(children)}
    units, routes, projects, blocks, memos = [], [], [], [], []
    freeze_events = []
    counts = {"study_log_rows": 0, "tier_table_rows": 0, "units": 0}
    tiers: dict[str, str] = {}
    frozen_projects, unfrozen_projects = [], []
    for child in children:
        parent = parent_of[child]
        layers.append(
            {"id": layer_id("child", child), "kind": "child", "version": "v1.0",
             "parent_ref": layer_id("parent", parent),
             "laws": [], "abstractions": [], "vocabulary": ["cohort"]}
        )
        route_id = f"child:{child}:R1"
        unit_refs, assignments, core_units = [], [], []
        for ui in range(units_per_project):
            uid, tier, record = _tiered_unit(rng, child, f"S{ui + 1}", parent)
            units.append(record)
            unit_refs.append(uid)
            tiers[uid] = tier
            counts["study_log_rows"] += 1
            if tier == "core":
                core_units.append(uid)
                assignments.append({"unit_ref": uid, "route_ref": route_id, "role": "primary_inference"})
                counts["tier_table_rows"] += 1
            elif tier == "supplement":
                assignments.append({"unit_ref": uid, "route_ref": route_id,
                                    "role": rng.choice(SECONDARY_ROLES)})
                counts["tier_table_rows"] += 1
        counts["units"] += units_per_project
        route = route_record(child, "R1", f"parent:{parent}:K1", core_units[:1], rng)
        if rng.random() < frozen_share:
            frozen_projects.append(f"child:{child}:PRJ")
            freeze_events.append(route)
        else:
            unfrozen_projects.append(f"child:{child}:PRJ")
        routes.append(route)
        if rng.random() < 0.3:
            routes.append(route_record(child, "R2", f"parent:{parent}:K2", [], rng))
        projects.append(
            {"id": f"child:{child}:PRJ", "layer_ref": layer_id("child", child),
             "question": f"How does K1 behave: {prose(rng, 3)}?",
             "committed_route": route_id, "unit_refs": unit_refs, "assignments": assignments}
        )
        blocks.append(
            {"project_ref": f"child:{child}:PRJ",
             "methodological_findings": [f"Finding: {prose(rng)}.", f"Finding: {prose(rng)}."],
             "conceptual_insight": f"Insight: {prose(rng)}.",
             "anticipated_critique": {"text": f"Why {prose(rng, 3)}?",
                                      "referenced_decisions": [unit_refs[0] if unit_refs else route_id]},
             "disconfirming_model": f"Alternative: {prose(rng)}.",
             "assumptions_ref": [a["id"] for a in route["assumptions"]]}
        )
        memos.append(
            {"project_ref": f"child:{child}:PRJ",
             "sections": {name: f"{prose(rng, 5)}." for name in MEMO_SECTIONS}}
        )
    for oi in range(orphan_units):
        child = children[oi % len(children)]
        uid, tier, record = _tiered_unit(rng, child, f"O{oi + 1}", parent_of[child])
        units.append(record)
        tiers[uid] = tier
    for si in range(splittable_units):
        child = children[si % len(children)]
        record = unit_record(
            child, f"X{si + 1}",
            [random_assessment(rng), random_assessment(rng)], [], None, rng, splittable=True,
        )
        units.append(record)

    contracts, flows = [], []
    for i in range(0, len(children) - 1, 2):
        src, dst = children[i], children[i + 1]
        cid = f"child:{src}:K{dst}"
        contracts.append(
            {"id": cid, "info_type": "measurement", "origin_layer": layer_id("child", src),
             "destination_layer": layer_id("child", dst),
             "legal_justification": f"Shared instrument: {prose(rng, 3)}.",
             "no_reinterpretation_clause": True, "documentation_ref": f"doc/{src}-{dst}"}
        )
        flows.append(
            {"id": f"child:{src}:F{dst}", "source_layer": layer_id("child", src),
             "dest_layer": layer_id("child", dst),
             "info_class": "measurement", "payload": f"Calibration: {prose(rng)}.",
             "timestamp": "", "contract_ref": cid, "quarantined": False}
        )
    for i, parent in enumerate(parents):
        flows.append(
            {"id": f"gp:FD{i + 1}", "source_layer": GP, "dest_layer": layer_id("parent", parent),
             "info_class": "content", "payload": f"Constraint refresh: {prose(rng)}.",
             "timestamp": "", "contract_ref": None, "quarantined": False}
        )

    # The audit log: one recorded bump to the current version, one record per
    # flow, and one freeze per frozen route, in timestamp order.
    events = []

    def log(kind: str, payload: dict, affected: list[str], stamp: str) -> None:
        events.append({"sequence": len(events) + 1, "timestamp": stamp, "actor": "author",
                       "kind": kind, "payload": payload, "affected": affected})

    log("version_bumped",
        {"entry": {"from_version": "v1.0", "to_version": "v1.1",
                   "motivating_insight": "Disciplines were made explicit.",
                   "boundary_affected": "Tiering discipline.",
                   "generalizability_reasoning": "Applies to every child layer.",
                   "timestamp": "2026-03-01T00:00:00Z"},
         "laws": copy.deepcopy(gp_laws)},
        ["gp:G"], clock.next())
    for flow in flows:
        flow["timestamp"] = clock.next()
        log("flow_recorded", {"flow": dict(flow)}, [flow["id"]], flow["timestamp"])
    for route in freeze_events:
        route["frozen_at"] = clock.next()
        log("route_frozen",
            {"route": route["id"], "frozen_at": route["frozen_at"], "body_hash": body_hash(route)},
            [route["id"]], route["frozen_at"])

    doc = {
        "recap_version": "v1.0", "layers": layers, "projects": projects, "units": units,
        "routes": routes, "flows": flows, "contracts": contracts, "events": events,
        "reviewer_blocks": blocks, "memos": memos,
    }
    answer = {
        "verdict": "compliant",
        "units": counts["units"],
        "study_log_rows": counts["study_log_rows"],
        "tier_table_rows": counts["tier_table_rows"],
        "tiers": tiers,
        "frozen_projects": frozen_projects,
        "unfrozen_projects": unfrozen_projects,
    }
    return doc, answer


def _tiered_unit(rng: random.Random, child: str, local: str,
                 parent: str) -> tuple[str, str, dict]:
    """A declared unit whose tier is the table's answer, sometimes with two
    unsplittable readings and sometimes with a chained re-tier history."""
    uid = f"child:{child}:{local}"
    assumptions = []
    if rng.random() < 0.6:
        covers = sorted(rng.sample(DIMENSIONS, rng.randint(1, 4)))
        assumptions = [{"id": f"child:{child}:{local}DA", "text": f"Bounded: {prose(rng)}.",
                        "covers": covers}]
    interpretations = [random_assessment(rng)]
    if rng.random() < 0.1:
        interpretations.append(random_assessment(rng))
    tier = unit_tier(interpretations, assumptions)
    record = unit_record(child, local, interpretations, assumptions, tier, rng, parent=parent)
    if rng.random() < 0.1:
        history = [rng.choice(TIER_ORDER)] + [tier]
        record["retier_events"] = [
            {"timestamp": f"2026-02-01T00:00:{i:02d}Z",
             "source_of_information": f"Source: {prose(rng, 2)}.",
             "justification": f"Because {prose(rng, 3)}.",
             "implications_for_route": f"Route keeps {prose(rng, 2)}.",
             "old_tier": history[i], "new_tier": history[i + 1]}
            for i in range(len(history) - 1)
        ]
    return uid, tier, record


def dumps(doc: dict) -> str:
    """The bundle's canonical text: what the engine's serializer must write
    back for a bundle parsed from it."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def count_declarations(doc: dict) -> int:
    """Every id-bearing declaration the parser indexes."""
    n = 0
    for layer in doc["layers"]:
        n += 1 + len(layer["laws"]) + len(layer["abstractions"])
    n += len(doc["projects"])
    for unit in doc["units"]:
        n += 1 + len(unit["explicit_assumptions"])
    for route in doc["routes"]:
        n += 1 + len(route["assumptions"])
    return n + len(doc["flows"]) + len(doc["contracts"])


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


def inject_faults(rng: random.Random, doc: dict, density: float) -> list[tuple[str, str, str]]:
    """Place ``round(density * units)`` faults, at least one of each of the
    five kinds and the rest horizontal borrowings on distinct units. Returns
    the expected findings as sorted (direction, rule, container) triples.
    """
    n_faults = max(len(FAULT_KINDS), round(density * len(doc["units"])))
    layer_of = {local_name(l["id"]): l for l in doc["layers"] if l["kind"] == "child"}
    children = sorted(layer_of, key=lambda name: int(name[1:]))
    parents = [l for l in doc["layers"] if l["kind"] == "parent"]
    gp = doc["layers"][0]
    contract_pairs = {(c["origin_layer"], c["destination_layer"]) for c in doc["contracts"]}
    expected = []

    gp_law = rng.choice(gp["laws"])
    gp_law["text"] += f" Anchored to {rng.choice(doc['units'])['study_id']}."
    expected.append(("upward", "R1_upward_content", gp_law["id"]))

    parent = rng.choice(parents)
    abstraction = rng.choice(parent["abstractions"])
    abstraction["definition"] += f" Tuned for child:{rng.choice(children)}:PRJ."
    expected.append(("upward", "R1_upward_content", abstraction["id"]))

    child = rng.choice(children)
    shadow = f"child:{child}:{local_name(rng.choice(gp['laws'])['id'])}"
    layer_of[child]["laws"].append(
        {"id": shadow, "text": "Locally it means whatever the instrument measures.",
         "immutable_core": False, "quarantined": False}
    )
    expected.append(("downward", "R2_downward_rewrite", shadow))

    child = rng.choice(children)
    flow_id = f"child:{child}:FUP"
    doc["flows"].append(
        {"id": flow_id, "source_layer": layer_id("child", child), "dest_layer": GP,
         "info_class": rng.choice(("content", "measurement", "assumption")),
         "payload": "Observed convention should become law.",
         "timestamp": "2026-03-02T00:00:00Z", "contract_ref": None, "quarantined": False}
    )
    expected.append(("upward", "R1_upward_content", flow_id))

    n_horizontal = n_faults - 4
    for unit in rng.sample(doc["units"], min(n_horizontal, len(doc["units"]))):
        owner = unit["study_id"].split(":")[1]
        sibling = rng.choice([c for c in children if c != owner])
        unit["notes"] += f" Matches the convention of child:{sibling}:PRJ."
        # A contract on the same boundary for another information class
        # turns a plain borrowing into a contract near-miss.
        boundary = (layer_id("child", sibling), layer_id("child", owner))
        rule = "R4_missing_contract" if boundary in contract_pairs else "R3_horizontal_borrowing"
        expected.append(("horizontal", rule, unit["study_id"]))
    return sorted(expected)


# ---------------------------------------------------------------------------
# Mutation sessions
# ---------------------------------------------------------------------------

REVISION = {"justification": "New constraint.", "downstream_implications": "Objective narrows.",
            "change_description": "Objective changed."}


class _Planner:
    """Plans mutations against a base bundle and knows each one's outcome.

    It tracks just enough state for that: each unit's tier and covered
    dimensions, which projects' routes are frozen, the splittable units and
    contaminated sites left, the flow ids taken, and the grandparent's
    version and laws. Each ``plan_*`` method returns a step with the
    requested outcome, or None when the current state allows none.
    """

    def __init__(self, rng: random.Random, doc: dict, answer: dict, contaminated: list[dict]):
        self.rng = rng
        self.clock = Clock(day=20)
        self.serial = 0
        self.units = {u["study_id"]: u for u in doc["units"]}
        self.tiers = dict(answer["tiers"])
        self.frozen = sorted(answer["frozen_projects"])
        self.unfrozen = sorted(answer["unfrozen_projects"])
        self.splittable = [u["study_id"] for u in doc["units"] if u["splittable"]]
        self.contaminated = contaminated
        self.flow_ids = sorted(f["id"] for f in doc["flows"])
        self.route_of = {p["id"]: p["committed_route"] for p in doc["projects"]}
        self.routes = {r["id"]: r for r in doc["routes"]}
        self.version = 1
        self.laws = copy.deepcopy(doc["layers"][0]["laws"])
        self.children = [l["id"] for l in doc["layers"] if l["kind"] == "child"]

    def step(self, kind: str, accept: bool, **args) -> dict:
        return {"kind": kind, "accept": accept, "timestamp": self.clock.next(), "args": args}

    def plan_declare_tier(self, valid: bool) -> dict:
        uid = self.rng.choice(sorted(self.tiers))
        tier = self.tiers[uid]
        if not valid:
            tier = self.rng.choice([t for t in TIER_ORDER if t != tier])
        return self.step("declare_tier", valid, unit=uid, tier=tier, justification="Re-affirmed fit.")

    def plan_apply_retier(self, valid: bool) -> dict | None:
        """A re-reading that keeps the unit's tier, so route coherence holds;
        the invalid one claims a stale old tier."""
        uid = self.rng.choice(sorted(self.tiers))
        covered = {d for da in self.units[uid]["explicit_assumptions"] for d in da["covers"]}
        tier = self.tiers[uid]
        if tier == "supplement" and not covered:
            return None
        event = {"timestamp": self.clock.next(), "source_of_information": "Re-read of the source.",
                 "justification": "Clarified reporting.", "implications_for_route": "None.",
                 "old_tier": tier, "new_tier": tier}
        if not valid:
            event["old_tier"] = self.rng.choice([t for t in TIER_ORDER if t != tier])
        return self.step("apply_retier", valid, unit=uid, event=event,
                         interpretations=[assessment_for(self.rng, tier, covered)])

    def plan_split_unit(self, valid: bool) -> dict | None:
        if not valid:
            uid = self.rng.choice(sorted(self.tiers))
            return self.step("split_unit", False, unit=uid, names=[f"{uid}a", f"{uid}b"])
        if not self.splittable:
            return None
        uid = self.splittable.pop(self.rng.randrange(len(self.splittable)))
        owner = uid.split(":")[1]
        names = [f"child:{owner}:SP{self.serial}a", f"child:{owner}:SP{self.serial}b"]
        return self.step("split_unit", True, unit=uid, names=names)

    def plan_declare_route(self, valid: bool) -> dict:
        """An exploratory route; committing it instead is a second route."""
        project = self.rng.choice(sorted(self.route_of))
        child = project.split(":")[1]
        construct = self.routes[self.route_of[project]]["construct_ref"]
        record = route_record(child, f"RN{self.serial}", construct, [], self.rng)
        return self.step("declare_route", valid, project=project, route=record, commit=not valid)

    def plan_freeze_route(self, valid: bool) -> dict | None:
        if valid and self.unfrozen:
            project = self.unfrozen.pop(self.rng.randrange(len(self.unfrozen)))
            self.frozen.append(project)
            return self.step("freeze_route", True, project=project)
        if not valid and self.frozen:
            return self.step("freeze_route", False, project=self.rng.choice(self.frozen))
        return None

    def plan_revise_route(self, valid: bool) -> dict | None:
        """A new objective for a frozen route; revising an unfrozen one is
        rejected."""
        projects = self.frozen if valid else self.unfrozen
        if not projects:
            return None
        project = self.rng.choice(projects)
        rid = self.route_of[project]
        body = copy.deepcopy(self.routes[rid])
        if valid:
            body["objective"] = self.rng.choice(("descriptive", "stability-mapping", "prognostic"))
            self.routes[rid] = body
        return self.step("revise_route", valid, project=project, body=body,
                         revision=dict(REVISION, timestamp=self.clock.next()))

    def plan_record_flow(self, valid: bool) -> dict:
        """A downward constraint flow; reusing a recorded flow id is rejected."""
        if valid:
            fid = f"gp:BF{self.serial}"
            self.flow_ids.append(fid)
        else:
            fid = self.rng.choice(self.flow_ids)
        flow = {"id": fid, "source_layer": GP, "dest_layer": self.rng.choice(self.children),
                "info_class": "content", "payload": f"Constraint refresh: {prose(self.rng)}."}
        return self.step("record_flow", valid, flow=flow)

    def plan_resolve_contamination(self, valid: bool) -> dict | None:
        """Quarantine or reverse a borrowing; undocumented risks are rejected."""
        if not self.contaminated:
            return None
        site = self.contaminated.pop(0) if valid else self.contaminated[0]
        return self.step("resolve_contamination", valid, site=site,
                         action=self.rng.choice(("quarantine", "reverse")),
                         risks="Borrowed convention may bias the reading." if valid else "")

    def plan_bump_version(self, valid: bool) -> dict:
        """An append-only law set; rewriting an existing law is rejected."""
        entry = {"from_version": f"v1.{self.version}", "to_version": f"v1.{self.version + 1}",
                 "motivating_insight": "A refinement was validated.",
                 "boundary_affected": "Flow governance.",
                 "generalizability_reasoning": "Holds for every child layer.",
                 "timestamp": self.clock.next()}
        laws = copy.deepcopy(self.laws) + [law(f"B{self.serial}", f"Appended: {prose(self.rng)}.")]
        if valid:
            self.version += 1
            self.laws = laws
        else:
            laws[self.rng.randrange(len(self.laws))]["text"] += " Rewritten."
        return self.step("bump_version", valid, entry=entry, laws=laws)


MUTATION_KINDS = ("declare_tier", "apply_retier", "split_unit", "declare_route", "freeze_route",
                  "revise_route", "record_flow", "resolve_contamination", "bump_version")


def mutation_session(rng: random.Random, n_projects: int, units_per_project: int,
                     n_ops: int, n_accepted: int) -> dict:
    """A base bundle plus a plan of ``n_ops`` mutations of which exactly
    ``n_accepted`` are valid, each marked with the outcome the engine's rules
    imply. Kinds are drawn at random among those the state allows.
    """
    doc, answer = clean_bundle(
        rng, n_projects, units_per_project, frozen_share=0.6,
        orphan_units=max(4, n_projects), splittable_units=3,
    )
    contaminated = []
    orphans = [u for u in doc["units"] if local_name(u["study_id"]).startswith("O")]
    for unit in rng.sample(orphans, 3):
        owner = unit["study_id"].split(":")[1]
        sibling = next(local_name(l["id"]) for l in doc["layers"]
                       if l["kind"] == "child" and local_name(l["id"]) != owner)
        token = f"child:{sibling}:PRJ"
        unit["notes"] += f" Matches the convention of {token}."
        contaminated.append({"container": unit["study_id"], "field": "notes", "token": token})
    planner = _Planner(rng, doc, answer, contaminated)
    marks = [True] * n_accepted + [False] * (n_ops - n_accepted)
    rng.shuffle(marks)
    plan = []
    for valid in marks:
        for kind in rng.sample(MUTATION_KINDS, len(MUTATION_KINDS)):
            planner.serial += 1
            step = getattr(planner, f"plan_{kind}")(valid)
            if step is not None:
                plan.append(step)
                break
    return {"doc": doc, "plan": plan}
