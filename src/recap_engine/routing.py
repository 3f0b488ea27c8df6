"""One-route enforcement, freeze semantics, and route-evidence coherence.

A project holds at most one committed route. Freezing locks the route body
behind a recorded fingerprint; afterwards only a justified revision may
change it, and each revision re-records the fingerprint. Coherence ties the
tiered evidence to the committed route's role structure.
"""

from __future__ import annotations

import json
from collections import Counter

from .bundle import body_fields, clone, encode, route_body_dict
from .diagnostics import Diagnostic, OperationRejected, error, reject, warning
from .identifiers import Identifier
from .model import (
    BundleIndex,
    ProjectBundle,
    ProjectDecl,
    Route,
    RouteFrozen,
    RouteRevised,
    RouteRevision,
    Tier,
)
from .records import replace

# Write operations import .audit (and with it datetime) when they run, so
# read-only commands never load it.

SECONDARY_ROLES = ("sensitivity", "boundary", "contextual", "measurement_evaluation")


def route_body_hash(route: Route) -> str:
    """Stable fingerprint of the parts a freeze locks."""
    import hashlib  # loaded here: only freezes and integrity checks need it

    body = json.dumps(route_body_dict(route), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def validate_route_shape(route: Route) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    where = route.id.render()
    if not route.disconfirming_models:
        diags.append(
            error(
                "E_NO_DISCONFIRMING",
                where,
                "route lists no disconfirming model; every inference needs at "
                "least one plausible alternative",
            )
        )
    if not route.assumptions:
        diags.append(error("E_NO_ASSUMPTIONS", where, "route declares no assumptions"))
    for i, assumption in enumerate(route.assumptions):
        for name in ("text", "plausibility", "failure_modes", "consequences_for_inference"):
            if not getattr(assumption, name).strip():
                diags.append(
                    error(
                        "E_NO_ASSUMPTIONS",
                        f"{where}.assumptions[{i}]",
                        f"assumption {assumption.id.render()} lacks {name}",
                    )
                )
    return diags


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
    from .audit import commit, now_utc

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


def committed_route(bundle: ProjectBundle, project: ProjectDecl) -> Route | None:
    return BundleIndex.of(bundle).routes.get(project.committed_route)


def check_route_coherence(bundle: ProjectBundle, project_id: Identifier) -> list[Diagnostic]:
    """Coherence between the committed route and the tiered evidence.

    Clean iff every core unit serves primary inference on the committed
    route, supplement units hold secondary roles only, no excluded unit
    holds any role, and each assumption is anchored in evidence or marked
    untestable.
    """
    index = BundleIndex.of(bundle)
    project = index.projects.get(project_id)
    if project is None:
        return [error("E_UNRESOLVED_REF", project_id.render(), "project not found")]
    route = index.routes.get(project.committed_route)
    if route is None:
        return [error("E_NO_ROUTE", project_id.render(), "project has no committed route")]
    diags = duplicate_assignments(project)
    for unit in index.active_units(project):
        key = unit.study_id.render()
        assignment = index.assignment(project, unit.study_id)
        tier = unit.declared_tier
        if tier is None:
            diags.append(error("E_TIER_UNDECLARED", key, "unit has no declared tier"))
            continue
        if tier == Tier.CORE:
            if (
                assignment is None
                or assignment.role != "primary_inference"
                or assignment.route_ref != route.id
            ):
                diags.append(
                    error(
                        "E_CORE_OFF_ROUTE",
                        key,
                        "core unit must serve primary inference on the committed route",
                    )
                )
        elif tier == Tier.SUPPLEMENT:
            if assignment is None:
                diags.append(
                    warning(
                        "W_SUPPLEMENT_UNASSIGNED",
                        key,
                        "supplement unit has no declared secondary role",
                    )
                )
            elif assignment.role not in SECONDARY_ROLES:
                diags.append(
                    error(
                        "E_SUPPLEMENT_PRIMARY",
                        key,
                        "supplement evidence may not be promoted into a primary role",
                    )
                )
        else:
            if assignment is not None:
                diags.append(
                    error(
                        "E_EXCLUDED_ASSIGNED",
                        key,
                        "excluded units never participate in inference",
                    )
                )
    for i, assumption in enumerate(route.assumptions):
        if not assumption.supporting_units and not assumption.untestable:
            diags.append(
                error(
                    "E_ASSUMPTION_UNANCHORED",
                    f"{route.id.render()}.assumptions[{i}]",
                    f"assumption {assumption.id.render()} cites no unit and is "
                    "not marked untestable",
                )
            )
    return diags


def duplicate_assignments(project: ProjectDecl) -> list[Diagnostic]:
    """E_DUP_ASSIGNMENT once for each unit the project assigns more than one role."""
    counts = Counter(a.unit_ref for a in project.assignments)
    message = "unit holds more than one role assignment"
    return [error("E_DUP_ASSIGNMENT", ref.render(), message) for ref, n in counts.items() if n > 1]


def freeze_route(
    bundle: ProjectBundle,
    project_id: Identifier,
    *,
    timestamp: str | None = None,
    actor: str = "engine",
) -> ProjectBundle:
    """Freeze the committed route; coherence failures block freezing."""
    from .audit import commit, now_utc

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
    from .audit import commit, now_utc

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


def check_freeze_integrity(bundle: ProjectBundle) -> list[Diagnostic]:
    """Detect silent mutation of frozen routes.

    The freeze event records a body fingerprint and every revision records
    the next one; a frozen route whose current body does not match the last
    recorded fingerprint was edited outside the revision protocol. An event
    whose payload does not decode is not read: the verdict reports it.
    """
    diags: list[Diagnostic] = []
    last_hash: dict[Identifier, str] = {}
    recorded_frozen: set[Identifier] = set()
    for record in BundleIndex.of(bundle).payloads:
        if record.__class__ is RouteFrozen:
            recorded_frozen.add(record.route)
        elif record.__class__ is not RouteRevised:
            continue
        last_hash[record.route] = record.body_hash
    for route in bundle.routes:
        if route.frozen_at is None or route.quarantined:
            continue
        key = route.id.render()
        if route.id not in recorded_frozen:
            diags.append(
                warning(
                    "W_FREEZE_UNRECORDED",
                    key,
                    "frozen_at set but no freeze event recorded; the freeze "
                    "cannot be audited",
                )
            )
            continue
        if route_body_hash(route) != last_hash[route.id]:
            diags.append(
                error(
                    "E_SILENT_REVISION",
                    key,
                    "frozen route body does not match the recorded fingerprint",
                )
            )
    return diags
