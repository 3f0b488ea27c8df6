"""The write operations, by domain: tiers, routes, version bumps, then
flows and contamination. Each checks its input and writes through
:func:`~.audit.commit`. Only writes load this module; each operation's name
is forwarded here from its domain's module (``tiering``, ``routing``,
``layers``, ``contamination``)."""

from __future__ import annotations

import re

from .audit import clone, commit, find_declaration, now_utc
from .bundle import body_fields, decode, encode, field_effect, route_body_dict, text_fields
from .diagnostics import Diagnostic, OperationRejected, error, reject
from .identifiers import KIND_TO_NAMESPACE, Identifier, extract_references, parse_identifier
from .layers import check_law_evolution, parse_version
from .model import Abstraction, Assessment, BundleIndex, ChangelogEntry, ContaminationEvent
from .model import ContaminationSite, DeclaredAssumption, EvidentialUnit, FlowEvent
from .model import InsightProposal, Law, ProjectBundle, ReTierEvent, Route, RouteRevision, Tier
from .model import event_timestamp_error
from .records import replace
from .routing import check_route_coherence, route_body_hash, validate_route_shape
from .tiering import tier_unit

def declare_tier(
    bundle: ProjectBundle,
    unit_id: Identifier,
    tier: Tier,
    justification: str,
    *,
    actor: str = "engine",
    timestamp: str | None = None,
) -> ProjectBundle:
    """Record a tier declaration. The declaration must agree with the table;
    mismatches are rejected so non-compliance cannot enter through this door."""
    unit = BundleIndex.of(bundle).units.get(unit_id)
    if unit is None:
        raise reject("E_UNRESOLVED_REF", unit_id.render(), "unit not found")
    if not justification.strip():
        raise reject("E_NO_JUSTIFICATION", unit_id.render(), "justification must be nonempty")
    decision = tier_unit(unit)  # raises E_MUST_SPLIT for splittable ambiguity
    if decision.tier != tier:
        raise reject(
            "E_TIER_MISMATCH",
            unit_id.render(),
            f"declared {tier.label} but the table gives {decision.tier.label}",
        )
    commit(
        bundle,
        "tier_declared",
        {"unit": unit_id.render(), "tier": tier.label, "justification": justification},
        actor=actor,
        timestamp=timestamp or now_utc(),
        affected=[unit_id.render()],
    )
    return bundle


def apply_retier(
    bundle: ProjectBundle,
    unit_id: Identifier,
    event: ReTierEvent,
    *,
    new_interpretations: list[Assessment] | None = None,
    new_assumptions: list[DeclaredAssumption] | None = None,
    justification: str = "",
    actor: str = "engine",
    timestamp: str | None = None,
) -> ProjectBundle:
    """Re-tier a unit with a complete, timestamped event.

    The declared assessments are updated in the same transaction so the
    declaration still matches the table afterwards; silent modification has
    no code path.
    """
    unit = BundleIndex.of(bundle).units.get(unit_id)
    if unit is None:
        raise reject("E_UNRESOLVED_REF", unit_id.render(), "unit not found")
    diags: list[Diagnostic] = []
    for name in ("timestamp", "source_of_information", "justification", "implications_for_route"):
        if not getattr(event, name).strip():
            diags.append(
                error(
                    "E_SILENT_RETIER",
                    unit_id.render(),
                    f"re-tier event lacks {name}; silent modification is prohibited",
                )
            )
    # A blank stamp is reported above; the chain's time order needs the log's form.
    stamp_error = event.timestamp.strip() and event_timestamp_error(event.timestamp)
    if stamp_error:
        diags.append(error("E_SYNTAX", unit_id.render(), stamp_error))
    if event.old_tier != unit.declared_tier:
        current = unit.declared_tier
        diags.append(
            error(
                "E_STALE_OLD_TIER",
                unit_id.render(),
                f"event claims old tier {event.old_tier.label} but the unit is "
                f"{current.label if current else 'undeclared'}",
            )
        )
    if diags:
        raise OperationRejected(diags)
    probe = replace(
        unit,
        interpretations=new_interpretations or unit.interpretations,
        explicit_assumptions=(
            new_assumptions if new_assumptions is not None else unit.explicit_assumptions
        ),
    )
    decision = tier_unit(probe)
    if decision.tier != event.new_tier:
        raise reject(
            "E_TIER_MISMATCH",
            unit_id.render(),
            f"re-tier to {event.new_tier.label} but the updated assessments "
            f"give {decision.tier.label}",
        )
    payload: dict = {
        "unit": unit_id.render(),
        "event": encode(event),
        "justification": justification,
    }
    probe_record = encode(probe)
    if new_interpretations is not None:
        payload["interpretations"] = probe_record["interpretations"]
    if new_assumptions is not None:
        payload["explicit_assumptions"] = probe_record["explicit_assumptions"]
    commit(
        bundle,
        "retier",
        payload,
        actor=actor,
        timestamp=timestamp or event.timestamp,
        affected=[unit_id.render()],
    )
    return bundle


def split_unit(
    bundle: ProjectBundle,
    unit_id: Identifier,
    names: list[Identifier],
    *,
    actor: str = "engine",
    timestamp: str | None = None,
) -> list[EvidentialUnit]:
    """Split a multi-interpretation unit into one unit per interpretation.

    New units inherit the design type, the narrative fields, and the
    declared assumptions, carry a provenance link to the source, and start
    untiered. Each part's copy of an assumption is named after the part
    (``<part>_<assumption>``), so no two declarations share an id. The
    source stays in the document, marked superseded.
    """
    unit = BundleIndex.of(bundle).units.get(unit_id)
    if unit is None:
        raise reject("E_UNRESOLVED_REF", unit_id.render(), "unit not found")
    diags: list[Diagnostic] = []
    if not unit.splittable:
        diags.append(error("E_NOT_SPLITTABLE", unit_id.render(), "unit is not splittable"))
    if len(names) != len(unit.interpretations):
        diags.append(
            error(
                "E_NAME_ARITY",
                unit_id.render(),
                f"{len(unit.interpretations)} interpretations but {len(names)} names",
            )
        )
    if len({n.render() for n in names}) != len(names):
        diags.append(error("E_NAME_ARITY", unit_id.render(), "split names must be unique"))
    parts = [
        replace(
            unit,
            study_id=name,
            interpretations=(interp,),
            splittable=False,
            declared_tier=None,
            tier_justification="",
            explicit_assumptions=tuple(
                replace(a, id=Identifier(
                    name.namespace, name.owner, f"{name.local_name}_{a.id.local_name}"
                ))
                for a in unit.explicit_assumptions
            ),
            retier_events=(),
            split_from=unit_id,
            superseded=False,
        )
        for name, interp in zip(names, unit.interpretations)
    ]
    if diags:
        raise OperationRejected(diags)
    commit(
        bundle,
        "unit_split",
        {"source": unit_id.render(), "units": [encode(part) for part in parts]},
        actor=actor,
        timestamp=timestamp or now_utc(),
        affected=[unit_id.render()] + [n.render() for n in names],
    )
    units = BundleIndex.of(bundle).units
    return [units[name] for name in names]


def declare_route(
    bundle: ProjectBundle,
    project_id: Identifier,
    route: Route,
    *,
    commit_route: bool = True,
    actor: str = "engine",
    timestamp: str | None = None,
) -> ProjectBundle:
    """Declare a route for a project.

    Committed declarations bind the project; exploratory ones are stored as
    uncommitted declarations for comparison and belong in the committed
    route's rejected-alternatives record.
    """
    project = BundleIndex.of(bundle).projects.get(project_id)
    if project is None:
        raise reject("E_UNRESOLVED_REF", project_id.render(), "project not found")
    diags = validate_route_shape(route)
    if commit_route and project.committed_route is not None:
        diags.append(
            error(
                "E_SECOND_ROUTE",
                project_id.render(),
                f"project already committed to {project.committed_route.render()}; "
                "a project may compare routes but never operate under more than one",
            )
        )
    if diags:
        raise OperationRejected(diags)
    commit(
        bundle,
        "route_declared",
        {
            "project": project_id.render(),
            "route": encode(route),
            "committed": commit_route,
        },
        actor=actor,
        timestamp=timestamp or now_utc(),
        affected=[project_id.render(), route.id.render()],
    )
    return bundle


def freeze_route(
    bundle: ProjectBundle,
    project_id: Identifier,
    *,
    timestamp: str | None = None,
    actor: str = "engine",
) -> ProjectBundle:
    """Freeze the committed route; coherence failures block freezing."""
    index = BundleIndex.of(bundle)
    project = index.projects.get(project_id)
    if project is None:
        raise reject("E_UNRESOLVED_REF", project_id.render(), "project not found")
    route = index.routes.get(project.committed_route)
    if route is None:
        raise reject("E_NO_ROUTE", project_id.render(), "project has no committed route")
    if route.frozen_at is not None:
        raise reject("E_ALREADY_FROZEN", route.id.render(), f"frozen at {route.frozen_at}")
    coherence = [d for d in check_route_coherence(bundle, project_id) if d.severity.name == "ERROR"]
    if coherence:
        raise OperationRejected(
            [
                error(
                    "E_INCOHERENT",
                    route.id.render(),
                    "coherence failures block freezing: "
                    + "; ".join(d.code for d in coherence),
                )
            ]
            + coherence
        )
    stamp = timestamp or now_utc()
    commit(
        bundle,
        "route_frozen",
        {"route": route.id.render(), "frozen_at": stamp, "body_hash": route_body_hash(route)},
        actor=actor,
        timestamp=stamp,
        affected=[route.id.render()],
    )
    return bundle


def revise_route(
    bundle: ProjectBundle,
    project_id: Identifier,
    revision: RouteRevision,
    new_body: Route,
    *,
    actor: str = "engine",
    timestamp: str | None = None,
) -> ProjectBundle:
    """Replace a frozen route's body under a complete revision record.

    The replacement must keep the route invariants and stay coherent with
    the evidence; anything less is a silent revision and is rejected.
    """
    index = BundleIndex.of(bundle)
    project = index.projects.get(project_id)
    if project is None:
        raise reject("E_UNRESOLVED_REF", project_id.render(), "project not found")
    route = index.routes.get(project.committed_route)
    if route is None:
        raise reject("E_NO_ROUTE", project_id.render(), "project has no committed route")
    diags: list[Diagnostic] = []
    if route.frozen_at is None:
        diags.append(
            error("E_ROUTE_NOT_FROZEN", route.id.render(), "revisions apply to frozen routes")
        )
    for name in ("timestamp", "justification", "downstream_implications", "change_description"):
        if not getattr(revision, name).strip():
            diags.append(
                error(
                    "E_SILENT_REVISION",
                    route.id.render(),
                    f"revision record lacks {name}; silent revision is prohibited",
                )
            )
    diags.extend(validate_route_shape(new_body))
    if diags:
        raise OperationRejected(diags)
    # Trial-apply on a clone so coherence is checked against the new body
    # without touching the live bundle.
    candidate = replace(route, **{name: getattr(new_body, name) for name in body_fields(Route)})
    trial = clone(bundle)
    trial.routes = tuple(candidate if r is route else r for r in trial.routes)
    coherence = [d for d in check_route_coherence(trial, project_id) if d.severity.name == "ERROR"]
    if coherence:
        raise OperationRejected(
            [error("E_INCOHERENT", route.id.render(), "revised body breaks coherence")]
            + coherence
        )
    body = route_body_dict(candidate)
    commit(
        bundle,
        "route_revised",
        {
            "route": route.id.render(),
            "revision": encode(revision),
            "body": body,
            "body_hash": route_body_hash(candidate),
        },
        actor=actor,
        timestamp=timestamp or revision.timestamp,
        affected=[route.id.render()],
    )
    return bundle


def _upward_content_in_entry(entry: ChangelogEntry) -> list[Diagnostic]:
    """Changelog narratives may cite grandparent ids only; parent or child
    references are domain content and bar the bump."""
    diags: list[Diagnostic] = []
    for name in text_fields(ChangelogEntry):
        for ref in extract_references(getattr(entry, name)):
            if ref.namespace != "gp":
                diags.append(
                    error(
                        "E_UPWARD_CONTENT",
                        f"changelog.{name}",
                        f"{ref.render()} is domain content; only methodological "
                        "reasoning is admissible",
                    )
                )
    return diags


def check_changelog_entry(entry: ChangelogEntry, current_version: str) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for name in text_fields(ChangelogEntry):
        if not getattr(entry, name).strip():
            diags.append(
                error("E_CHANGELOG_INCOMPLETE", f"changelog.{name}", f"{name} must be nonempty")
            )
    old = parse_version(entry.from_version)
    new = parse_version(entry.to_version)
    if old is None or new is None or new <= old:
        diags.append(
            error(
                "E_VERSION_ORDER",
                "changelog.to_version",
                f"{entry.to_version!r} does not advance {entry.from_version!r}",
            )
        )
    if entry.from_version != current_version:
        diags.append(
            error(
                "E_VERSION_STALE",
                "changelog.from_version",
                f"bump starts at {entry.from_version!r} but the registry is at "
                f"{current_version!r}",
            )
        )
    diags.extend(_upward_content_in_entry(entry))
    return diags


def bump_version(
    bundle: ProjectBundle,
    entry: ChangelogEntry,
    new_laws: list[Law],
    *,
    actor: str = "engine",
    timestamp: str | None = None,
) -> ProjectBundle:
    """Advance the grandparent to entry.to_version with an append-only law
    set. Rejection is atomic: any diagnostic leaves the bundle untouched."""
    gp = bundle.grandparent()
    diags = check_changelog_entry(entry, gp.version)
    diags.extend(check_law_evolution(gp.laws, new_laws))
    if diags:
        raise OperationRejected(diags)
    commit(
        bundle,
        "version_bumped",
        {
            "entry": encode(entry),
            "laws": [encode(law) for law in new_laws],
        },
        actor=actor,
        timestamp=timestamp or entry.timestamp or now_utc(),
        affected=[gp.id.render()],
    )
    return bundle


def validate_insight(proposal: InsightProposal, bundle: ProjectBundle) -> list[Diagnostic]:
    """Insight may move upward only when it is domain-independent,
    expressible in the target layer's vocabulary
    (:func:`~.contamination.insight_errors`), and append-only: it adds laws
    at the grandparent or abstractions at a parent. An addition that names
    an id the target already declares is left to ``commit``, which rejects
    it as E_DUP_ID."""
    # Loaded here: the other write commands need nothing of the scan's module.
    from .contamination import _RANK, insight_errors

    index = BundleIndex.of(bundle)
    where = proposal.id
    origin = index.layers.get(proposal.origin_layer)
    target = index.layers.get(proposal.target_layer)
    if origin is None or target is None:
        return [error("E_UNKNOWN_LAYER", where, "origin or target layer not found")]
    diags: list[Diagnostic] = []
    if _RANK[target.kind] != _RANK[origin.kind] + 1:
        diags.append(
            error(
                "R5_meta_engine_insulation",
                where,
                "insight moves exactly one level up; it cannot skip or descend",
            )
        )
    texts = [proposal.statement]
    for addition in proposal.proposed_additions:
        texts.extend(
            t for t in (addition.get("text"), addition.get("definition")) if isinstance(t, str)
        )
    diags += insight_errors(index, target, where, texts, proposal.referenced_terms)
    for addition in proposal.proposed_additions:
        kind = addition.get("kind")
        if kind not in ("law", "abstraction"):
            diags.append(
                error("E_REWRITE_ATTEMPT", where, "additions must be laws or abstractions")
            )
            continue
        if kind == "law" and target.kind != "grandparent":
            diags.append(error("E_REWRITE_ATTEMPT", where, "laws live at the grandparent"))
        if kind == "abstraction" and target.kind != "parent":
            diags.append(error("E_REWRITE_ATTEMPT", where, "abstractions live at a parent"))
        cls, record = _addition_record(addition)
        try:
            decode(cls, record, owner=target.local_name, ns=KIND_TO_NAMESPACE[target.kind])
        except ValueError as exc:
            diags.append(error("E_SYNTAX", where, str(exc)))
    return diags


def _addition_record(addition: dict) -> tuple[type, dict]:
    """The law or abstraction record an accepted insight appends."""
    if addition["kind"] == "law":
        text = addition.get("text", "")
        return Law, {"id": addition.get("id"), "text": text, "immutable_core": False}
    return Abstraction, {
        "id": addition.get("id"),
        "kind": addition.get("abstraction_kind", "construct"),
        "definition": addition.get("definition", addition.get("text", "")),
    }


def record_flow(
    bundle: ProjectBundle,
    flow: FlowEvent,
    *,
    actor: str = "engine",
    timestamp: str | None = None,
) -> ProjectBundle:
    """Record a flow event. Recording is factual: illegal movements are
    recorded too, then flagged by the scan."""
    commit(
        bundle,
        "flow_recorded",
        {"flow": encode(flow)},
        actor=actor,
        timestamp=timestamp or flow.timestamp or now_utc(),
        affected=[flow.id.render()],
    )
    return bundle


def flag_contamination(
    bundle: ProjectBundle,
    event: ContaminationEvent,
    *,
    actor: str = "engine",
    timestamp: str | None = None,
) -> ProjectBundle:
    """Persist a detection into the audit log without resolving it."""
    commit(
        bundle,
        "contamination_flagged",
        {"contamination": encode(event)},
        actor=actor,
        timestamp=timestamp or now_utc(),
        affected=list(event.decisions_affected),
    )
    return bundle


def _reversal_effects(bundle: ProjectBundle, event: ContaminationEvent) -> list[dict]:
    site = event.site
    container, field, token = site.container, site.field, site.token
    if field == "payload":
        return [{"op": "remove_flow", "target": container}]
    decl = find_declaration(bundle, container)
    if decl is None:
        raise reject("E_UNDOCUMENTED", container, "contaminated declaration not found")
    if not field:
        # The declaration itself is the violation (unauthorized law or
        # abstraction): reversal deletes it, which commit refuses while
        # anything still cites it.
        if decl.__class__ is not Law and decl.__class__ is not Abstraction:
            raise reject("E_UNDOCUMENTED", container, "not a law or an abstraction")
        return [{"op": "remove_declaration", "target": container}]
    # Each effect below removes the site's token. Commit refuses to remove
    # a reference or an assignment that is not there; a cleared reference
    # and an edited text are checked here.
    _require(site, parse_identifier(token) is not None)
    op = field_effect(decl.__class__, field)
    if op == "remove_ref":
        return [{"op": op, "container": container, "field": field, "target": token}]
    if op == "clear_ref":
        ref = getattr(decl, field)
        _require(site, ref is not None and ref.render() == token)
        return [{"op": op, "container": container, "field": field}]
    if field == "assignments":
        return [{"op": "remove_assignment", "container": container, "token": token}]
    m = re.fullmatch(r"disconfirming_models\[(\d+)\]", field)
    if m is not None:
        index = int(m.group(1))
        models = getattr(decl, "disconfirming_models", [])
        if index >= len(models):
            raise reject("E_UNDOCUMENTED", container, f"no disconfirming model at {field}")
        old = models[index]
        _require(site, token in old)
        new = old.replace(token, "", 1).strip()
        return [{"op": "edit_list_item", "container": container, "field": "disconfirming_models",
                 "index": index, "old": old, "new": new}]
    if op != "edit_text":
        raise reject("E_UNDOCUMENTED", container, f"cannot reverse field {field!r}")
    old = getattr(decl, field)
    _require(site, token in old)
    new = old.replace(token, "", 1).strip()
    return [{"op": "edit_text", "container": container, "field": field, "old": old, "new": new}]


def _require(site: ContaminationSite, present: bool) -> None:
    """A reversal removes the site's token from its field; without one
    there, it would change nothing."""
    if not present:
        message = f"reference {site.token!r} not present at {site.field}"
        raise reject("E_UNDOCUMENTED", site.container, message)


def resolve_contamination(
    bundle: ProjectBundle,
    event: ContaminationEvent,
    action: str,
    *,
    proposal: InsightProposal | None = None,
    actor: str = "engine",
    timestamp: str | None = None,
) -> ProjectBundle:
    """Correct a flagged contamination event.

    quarantine isolates the contaminated component in place; reverse deletes
    the offending reference or declaration; extract_insight quarantines and
    appends the validated abstraction upward. Resolution demands complete
    documentation and appends exactly one audit event.
    """
    if action not in ("quarantine", "reverse", "extract_insight"):
        raise reject("E_UNDOCUMENTED", event.id, f"unknown corrective action {action!r}")
    diags: list[Diagnostic] = []
    if event.resolved:
        diags.append(error("E_UNDOCUMENTED", event.id, "event is already resolved"))
    if not event.risks_introduced.strip():
        diags.append(
            error(
                "E_UNDOCUMENTED",
                event.id,
                "downstream inferential risks must be documented before resolution",
            )
        )
    if not event.rule_violated or not event.direction or not event.nature:
        diags.append(error("E_UNDOCUMENTED", event.id, "violation record incomplete"))
    if diags:
        raise OperationRejected(diags)
    # Commit refuses an effect on a declaration that is not there, once its
    # id is well formed.
    if parse_identifier(event.site.container) is None:
        raise reject("E_UNDOCUMENTED", event.site.container, "declaration not found")

    effects: list[dict]
    if action == "reverse":
        effects = _reversal_effects(bundle, event)
    else:
        container = event.site.container
        effects = [{"op": "quarantine", "target": container}]
        if action == "extract_insight":
            if proposal is None:
                raise reject("E_INSIGHT_REJECTED", event.id, "extract_insight needs a proposal")
            failures = validate_insight(proposal, bundle)
            if failures:
                raise OperationRejected(
                    [error("E_INSIGHT_REJECTED", event.id, "insight failed validation")]
                    + failures
                )
            layer = proposal.target_layer.render()
            for addition in proposal.proposed_additions:
                cls, record = _addition_record(addition)
                op = "add_law" if cls is Law else "add_abstraction"
                effects.append({"op": op, "layer": layer, "record": record})

    action_label = {
        "quarantine": "quarantined",
        "reverse": "reversed",
        "extract_insight": "insight_extracted",
    }[action]
    stamp = timestamp or now_utc()
    sequence = bundle.next_sequence()
    before = (event.corrective_action, event.versioned_update, event.timestamp, event.resolved)
    event.corrective_action = action_label
    event.versioned_update = f"event:{sequence}"
    event.timestamp = stamp
    event.resolved = True
    try:
        commit(
            bundle,
            "contamination_resolved",
            {"contamination": encode(event), "action": action_label, "effects": effects},
            actor=actor,
            timestamp=stamp,
            affected=list(event.decisions_affected) or [event.site.container],
        )
    except Exception:
        event.corrective_action, event.versioned_update, event.timestamp, event.resolved = before
        raise
    return bundle
