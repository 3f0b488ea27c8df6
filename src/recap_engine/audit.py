"""Append-only audit log and event replay.

Every accepted mutation appends exactly one event whose payload is rich
enough to reproduce the mutation. Live operations and :func:`replay` share
the same appliers, each taking its kind's payload record as
:func:`~.bundle.decode_payload` decodes it for the parser too, so
replaying the log over the initial declarations reproduces live state by
construction. Rejected operations touch nothing.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import Any, Callable

from .bundle import clone, decode_payload, declarations, field_effect
from .diagnostics import Diagnostic, OperationRejected, error, reject
from .identifiers import Identifier, parse_identifier
from .model import (
    EVENT_KINDS,
    AuditEvent,
    BundleIndex,
    ContaminationFlagged,
    ContaminationResolved,
    DeclarationAdded,
    DeclarationQuarantined,
    FlowRecorded,
    Law,
    LayerDecl,
    ProjectBundle,
    ResolutionEffect,
    Retier,
    RouteDeclared,
    RouteFrozen,
    RouteRevised,
    TierDeclared,
    UnitSplit,
    VersionBumped,
    event_time_key,
    event_timestamp_error,
)


def now_utc() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# Declaration lookup shared by appliers
# ---------------------------------------------------------------------------


def find_declaration(bundle: ProjectBundle, canonical: str):
    """Locate any id-bearing declaration by its canonical rendered id."""
    ident = parse_identifier(canonical)
    return None if ident is None else _declaration(bundle, ident)


def _declaration(bundle: ProjectBundle, ident: Identifier):
    for _, decl_id, holder, name, i, _ in declarations(bundle):
        if decl_id == ident:
            return getattr(holder, name)[i]
    return None


def _lookup(bundle: ProjectBundle, kind: str, ident: Identifier):
    """The unit, route, layer or project named ``ident``, looked up in a
    fresh :class:`BundleIndex`."""
    found = getattr(BundleIndex(bundle), kind + "s").get(ident)
    if found is None:
        raise ValueError(f"{kind} {ident.render()} not found")
    return found


def _quarantine(bundle: ProjectBundle, target: Identifier) -> None:
    decl = _declaration(bundle, target)
    if decl is None or not hasattr(decl, "quarantined"):
        raise ValueError(f"quarantine target {target.render()} not found")
    decl.quarantined = True


def _add_to_layer(bundle: ProjectBundle, layer: Identifier, decl) -> None:
    """Append a law or an abstraction to the layer declaring it."""
    layer_decl = _lookup(bundle, "layer", layer)
    (layer_decl.laws if decl.__class__ is Law else layer_decl.abstractions).append(decl)


def _apply_effects(bundle: ProjectBundle, effects: list[ResolutionEffect]) -> None:
    """Apply the recorded effects of a contamination resolution."""
    for effect in effects:
        op = effect.op
        if op == "quarantine":
            _quarantine(bundle, effect.target)
        elif op == "remove_flow":
            before = len(bundle.flows)
            bundle.flows = [f for f in bundle.flows if f.id != effect.target]
            if len(bundle.flows) == before:
                raise ValueError(f"flow {effect.target.render()} not found")
        elif op == "remove_declaration":
            _remove_declaration(bundle, effect.target)
        elif op == "add_law" or op == "add_abstraction":
            _add_to_layer(bundle, effect.layer, effect.record)
        elif op == "remove_assignment":
            decl = _declaration(bundle, effect.container)
            if decl is None or not hasattr(decl, "assignments"):
                raise ValueError(f"project {effect.container.render()} not found")
            token = effect.token
            kept = [a for a in decl.assignments if token != a.unit_ref and token != a.route_ref]
            if len(kept) == len(decl.assignments):
                raise ValueError(f"assignment citing {token.render()} not present")
            decl.assignments = kept
        else:
            _edit_field(bundle, effect)


def _edit_field(bundle: ProjectBundle, effect: ResolutionEffect) -> None:
    """Apply an effect on one field, which must be of the kind the effect
    edits (:func:`~.bundle.field_effect`)."""
    op, name = effect.op, effect.field
    decl = _declaration(bundle, effect.container)
    if decl is None or field_effect(decl.__class__, name) != op:
        raise ValueError(f"{op} target {effect.container.render()}.{name} not found")
    value = getattr(decl, name)
    if op == "clear_ref":
        setattr(decl, name, None)
    elif op == "remove_ref":
        kept = [ref for ref in value if ref != effect.target]
        if len(kept) == len(value):
            raise ValueError(f"reference {effect.target.render()} not present")
        setattr(decl, name, kept)
    elif op == "edit_text":
        if value != effect.old:
            raise ValueError("edit target text diverged from the recorded state")
        setattr(decl, name, effect.new)
    else:  # edit_list_item
        index = effect.index
        if not 0 <= index < len(value):
            raise ValueError(f"edit target {effect.container.render()}.{name}[{index}] not found")
        if value[index] != effect.old:
            raise ValueError("edit target text diverged from the recorded state")
        value[index] = effect.new


def _remove_declaration(bundle: ProjectBundle, ident: Identifier) -> None:
    """Remove a law or an abstraction, the declarations whose existence
    alone can be a violation."""
    for _, decl_id, holder, name, _, _ in declarations(bundle):
        if decl_id == ident and holder.__class__ is LayerDecl:
            setattr(holder, name, [d for d in getattr(holder, name) if d.id != ident])
            return
    raise ValueError(f"declaration {ident.render()} not found")


# ---------------------------------------------------------------------------
# Event appliers: each takes its kind's decoded payload record
# ---------------------------------------------------------------------------


def _apply_tier_declared(bundle: ProjectBundle, declared: TierDeclared) -> None:
    unit = _lookup(bundle, "unit", declared.unit)
    unit.tier_justification = declared.justification
    unit.declared_tier = declared.tier


def _apply_retier(bundle: ProjectBundle, retier: Retier) -> None:
    unit = _lookup(bundle, "unit", retier.unit)
    unit.retier_events.append(retier.event)
    unit.declared_tier = retier.event.new_tier
    if retier.justification:
        unit.tier_justification = retier.justification
    if retier.interpretations is not None:
        unit.interpretations = retier.interpretations
    if retier.explicit_assumptions is not None:
        unit.explicit_assumptions = retier.explicit_assumptions


def _apply_route_declared(bundle: ProjectBundle, declared: RouteDeclared) -> None:
    route = declared.route
    if route.id not in BundleIndex(bundle).routes:
        bundle.routes.append(route)
    if declared.committed:
        _lookup(bundle, "project", declared.project).committed_route = route.id


def _apply_route_frozen(bundle: ProjectBundle, frozen: RouteFrozen) -> None:
    _lookup(bundle, "route", frozen.route).frozen_at = frozen.frozen_at


def _apply_route_revised(bundle: ProjectBundle, revised: RouteRevised) -> None:
    route = _lookup(bundle, "route", revised.route)
    # A record's __dict__ holds exactly its fields: the body's are Route's.
    route.__dict__.update(revised.body.__dict__)
    route.revisions.append(revised.revision)


def _apply_flow_recorded(bundle: ProjectBundle, recorded: FlowRecorded) -> None:
    bundle.flows.append(recorded.flow)


def _apply_contamination_flagged(bundle: ProjectBundle, flagged: ContaminationFlagged) -> None:
    # Pure record: detection mutates nothing.
    return None


def _apply_contamination_resolved(bundle: ProjectBundle, resolved: ContaminationResolved) -> None:
    _apply_effects(bundle, resolved.effects)


def _apply_version_bumped(bundle: ProjectBundle, bumped: VersionBumped) -> None:
    gp = bundle.grandparent()
    gp.laws = bumped.laws
    gp.version = bumped.entry.to_version


def _apply_unit_split(bundle: ProjectBundle, split: UnitSplit) -> None:
    source = _lookup(bundle, "unit", split.source)
    source.superseded = True
    bundle.units.extend(split.units)
    for project in bundle.projects:
        if source.study_id in project.unit_refs:
            refs = [r for r in project.unit_refs if r != source.study_id]
            refs.extend(u.study_id for u in split.units)
            project.unit_refs = refs


def _apply_declaration_added(bundle: ProjectBundle, added: DeclarationAdded) -> None:
    decl = added.record
    if added.decl_kind == "unit":
        bundle.units.append(decl)
        if added.project is not None:
            _lookup(bundle, "project", added.project).unit_refs.append(decl.study_id)
    elif added.decl_kind == "contract":
        bundle.contracts.append(decl)
    else:
        _add_to_layer(bundle, added.layer, decl)


def _apply_declaration_quarantined(bundle: ProjectBundle, done: DeclarationQuarantined) -> None:
    _quarantine(bundle, done.target)


_APPLIERS: dict[str, Callable[[ProjectBundle, Any], None]] = {
    "tier_declared": _apply_tier_declared,
    "retier": _apply_retier,
    "route_declared": _apply_route_declared,
    "route_frozen": _apply_route_frozen,
    "route_revised": _apply_route_revised,
    "flow_recorded": _apply_flow_recorded,
    "contamination_flagged": _apply_contamination_flagged,
    "contamination_resolved": _apply_contamination_resolved,
    "version_bumped": _apply_version_bumped,
    "unit_split": _apply_unit_split,
    "declaration_added": _apply_declaration_added,
    "declaration_quarantined": _apply_declaration_quarantined,
}


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def validate_event(bundle: ProjectBundle, event: AuditEvent) -> list[Diagnostic]:
    """Why ``event`` cannot be appended to the log, if anything: its
    sequence, its timestamp, its kind or its payload."""
    return _check(bundle, event)[0]


def _check(bundle: ProjectBundle, event: AuditEvent) -> tuple[list[Diagnostic], Any]:
    """:func:`validate_event`'s diagnostics, and the decoded payload."""
    diags: list[Diagnostic] = []
    expected = bundle.next_sequence()
    if event.sequence != expected:
        diags.append(
            error(
                "E_SEQUENCE_GAP",
                f"events[{len(bundle.events)}]",
                f"sequence {event.sequence}, expected {expected}",
            )
        )
    bad_timestamp = event_timestamp_error(event.timestamp)
    if bad_timestamp:
        diags.append(error("E_SYNTAX", f"events[{len(bundle.events)}].timestamp", bad_timestamp))
    elif bundle.events and event_time_key(event.timestamp) < event_time_key(
        bundle.events[-1].timestamp
    ):
        diags.append(
            error(
                "E_SEQUENCE_GAP",
                f"events[{len(bundle.events)}]",
                "event timestamp precedes the log head",
            )
        )
    if event.kind not in EVENT_KINDS:
        diags.append(error("E_PAYLOAD_SCHEMA", "event.kind", f"unknown kind {event.kind!r}"))
        return diags, None
    try:
        return diags, decode_payload(event.kind, event.payload)
    except ValueError as exc:
        diags.append(error("E_PAYLOAD_SCHEMA", "event.payload", str(exc)))
        return diags, None


def append_event(bundle: ProjectBundle, event: AuditEvent) -> ProjectBundle:
    """Append a pre-built event to the log. Storage only: appending does not
    re-run the event's effect. Operations use :func:`commit`."""
    diags = validate_event(bundle, event)
    if diags:
        raise OperationRejected(diags)
    bundle.events.append(event)
    return bundle


def commit(
    bundle: ProjectBundle,
    kind: str,
    payload: dict,
    *,
    actor: str,
    timestamp: str,
    affected: list[str] | None = None,
) -> AuditEvent:
    """Apply an operation's effect and append its event, as one step.

    The payload must already be complete; appliers consume exactly what
    replay will later consume.
    """
    from . import ENGINE_VERSION

    payload = dict(payload)
    payload.setdefault("engine_version", ENGINE_VERSION)
    event = AuditEvent(
        sequence=bundle.next_sequence(),
        timestamp=timestamp,
        actor=actor,
        kind=kind,
        payload=payload,
        affected=list(affected or []),
    )
    diags, record = _check(bundle, event)
    if diags:
        raise OperationRejected(diags)
    _APPLIERS[kind](bundle, record)
    bundle.events.append(event)
    return event


def replay(initial: ProjectBundle, events: list[AuditEvent]) -> ProjectBundle:
    """Rebuild state by applying events to a :func:`~.bundle.clone` of the
    initial bundle.

    The first event must continue the initial bundle's log. Raises with
    E_REPLAY_DIVERGENCE when an event cannot be applied cleanly; that is an
    engine bug, not an input error.
    """
    state = clone(initial)
    for event in events:
        if event.sequence != state.next_sequence():
            raise reject(
                "E_REPLAY_DIVERGENCE",
                f"events[{event.sequence}]",
                f"sequence {event.sequence} does not continue the log",
            )
        applier = _APPLIERS.get(event.kind)
        if applier is None:
            raise reject(
                "E_REPLAY_DIVERGENCE", f"events[{event.sequence}]", f"unknown kind {event.kind!r}"
            )
        try:
            applier(state, decode_payload(event.kind, event.payload))
        except Exception as exc:
            raise reject(
                "E_REPLAY_DIVERGENCE",
                f"events[{event.sequence}]",
                f"{event.kind} failed to apply: {exc}",
            ) from exc
        state.events.append(event)
    return state
