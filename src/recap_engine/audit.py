"""Append-only audit log and event replay.

Every accepted mutation appends exactly one event whose payload is rich
enough to reproduce the mutation. Live operations and :func:`replay` share
the same appliers, so replaying the log over the initial declarations
reproduces live state by construction. Rejected operations touch nothing.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import Callable

from .bundle import body_fields, clone, decode, decode_bump, decode_field, declarations, encode
from .bundle import text_fields
from .diagnostics import Diagnostic, OperationRejected, error, reject
from .identifiers import KIND_TO_NAMESPACE, parse_identifier
from .model import (
    Abstraction,
    AuditEvent,
    BoundaryContract,
    BundleIndex,
    EVENT_KINDS,
    EvidentialUnit,
    FlowEvent,
    Law,
    LayerDecl,
    ProjectBundle,
    ReTierEvent,
    Route,
    RouteRevision,
    event_time_key,
    event_timestamp_error,
    missing_payload_keys,
)


def now_utc() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# Declaration lookup shared by appliers
# ---------------------------------------------------------------------------


def find_declaration(bundle: ProjectBundle, canonical: str):
    """Locate any id-bearing declaration by its canonical rendered id."""
    ident = parse_identifier(canonical)
    if ident is None:
        return None
    for _, decl_id, holder, name, i, _ in declarations(bundle):
        if decl_id == ident:
            return getattr(holder, name)[i]
    return None


def _lookup(bundle: ProjectBundle, kind: str, canonical: str):
    """The unit, route, layer or project named by a canonical id, looked up
    in a fresh :class:`BundleIndex`."""
    ident = parse_identifier(canonical)
    found = getattr(BundleIndex(bundle), kind + "s").get(ident) if ident else None
    if found is None:
        raise ValueError(f"{kind} {canonical} not found")
    return found


def _apply_effects(bundle: ProjectBundle, effects: list[dict]) -> None:
    """Apply the recorded effects of a contamination resolution."""
    for effect in effects:
        op = effect.get("op")
        if op == "quarantine":
            decl = find_declaration(bundle, effect["target"])
            if decl is None or not hasattr(decl, "quarantined"):
                raise ValueError(f"quarantine target {effect['target']} not found")
            decl.quarantined = True
        elif op == "edit_text":
            decl = find_declaration(bundle, effect["container"])
            name = effect["field"]
            if decl is None or name not in text_fields(type(decl)):
                raise ValueError(f"edit target {effect.get('container')}.{name} not found")
            if getattr(decl, name) != effect["old"]:
                raise ValueError("edit target text diverged from the recorded state")
            setattr(decl, name, decode_field(type(decl), name, effect["new"]))
        elif op == "edit_list_item":
            decl = find_declaration(bundle, effect["container"])
            name = effect["field"]
            seq = getattr(decl, name, None) if decl is not None else None
            index = effect["index"]
            if not isinstance(seq, list) or index >= len(seq):
                raise ValueError(f"edit target {effect.get('container')}.{name} not found")
            if seq[index] != effect["old"]:
                raise ValueError("edit target text diverged from the recorded state")
            seq[index] = effect["new"]
        elif op == "remove_ref":
            decl = find_declaration(bundle, effect["container"])
            name = effect["field"]
            seq = getattr(decl, name, None) if decl is not None else None
            if not isinstance(seq, list):
                raise ValueError(f"reference list {effect.get('container')}.{name} not found")
            kept = [r for r in seq if r.render() != effect["target"]]
            if len(kept) == len(seq):
                raise ValueError(f"reference {effect['target']} not present")
            setattr(decl, name, kept)
        elif op == "clear_ref":
            decl = find_declaration(bundle, effect["container"])
            if decl is None or not hasattr(decl, effect["field"]):
                raise ValueError(f"reference field {effect.get('container')} not found")
            setattr(decl, effect["field"], None)
        elif op == "remove_assignment":
            decl = find_declaration(bundle, effect["container"])
            if decl is None or not hasattr(decl, "assignments"):
                raise ValueError(f"project {effect.get('container')} not found")
            token = effect["token"]
            kept = [
                a
                for a in decl.assignments
                if token not in (a.unit_ref.render(), a.route_ref.render())
            ]
            if len(kept) == len(decl.assignments):
                raise ValueError(f"assignment citing {token} not present")
            decl.assignments = kept
        elif op == "remove_flow":
            before = len(bundle.flows)
            bundle.flows = [f for f in bundle.flows if f.id.render() != effect["target"]]
            if len(bundle.flows) == before:
                raise ValueError(f"flow {effect['target']} not found")
        elif op == "remove_declaration":
            _remove_declaration(bundle, effect["target"])
        elif op == "add_law":
            layer = _lookup(bundle, "layer", effect["layer"])
            layer.laws.append(_decode_in(layer, Law, effect["record"]))
        elif op == "add_abstraction":
            layer = _lookup(bundle, "layer", effect["layer"])
            layer.abstractions.append(_decode_in(layer, Abstraction, effect["record"]))
        else:
            raise ValueError(f"unknown resolution effect {op!r}")


def _decode_in(layer: LayerDecl, cls: type, record: dict):
    """Decode a law or abstraction declared by ``layer``."""
    return decode(cls, record, owner=layer.local_name, ns=KIND_TO_NAMESPACE[layer.kind])


def _remove_declaration(bundle: ProjectBundle, canonical: str) -> None:
    """Remove a law or an abstraction, the declarations whose existence
    alone can be a violation."""
    ident = parse_identifier(canonical)
    if ident is None:
        raise ValueError(f"bad declaration id {canonical}")
    for _, decl_id, holder, name, _, _ in declarations(bundle):
        if decl_id == ident and holder.__class__ is LayerDecl:
            setattr(holder, name, [d for d in getattr(holder, name) if d.id != ident])
            return
    raise ValueError(f"declaration {canonical} not found")


# ---------------------------------------------------------------------------
# Event appliers
# ---------------------------------------------------------------------------


def _apply_tier_declared(bundle: ProjectBundle, payload: dict) -> None:
    unit = _lookup(bundle, "unit", payload["unit"])
    # A declared tier is never null, as a re-tier's target is not.
    tier = decode_field(ReTierEvent, "new_tier", payload["tier"])
    unit.tier_justification = decode_field(
        EvidentialUnit, "tier_justification", payload["justification"]
    )
    unit.declared_tier = tier


def _apply_retier(bundle: ProjectBundle, payload: dict) -> None:
    unit = _lookup(bundle, "unit", payload["unit"])
    # Decode every part before touching the unit.
    event = decode(ReTierEvent, payload["event"])
    changes = {"declared_tier": event.new_tier}
    if payload.get("justification"):
        changes["tier_justification"] = decode_field(
            EvidentialUnit, "tier_justification", payload["justification"]
        )
    for name in ("interpretations", "explicit_assumptions"):
        if payload.get(name) is not None:
            changes[name] = decode_field(
                EvidentialUnit, name, payload[name], owner=unit.study_id.owner
            )
    unit.retier_events.append(event)
    for name, value in changes.items():
        setattr(unit, name, value)


def _apply_route_declared(bundle: ProjectBundle, payload: dict) -> None:
    route = decode(Route, payload["route"])
    if route.id not in BundleIndex(bundle).routes:
        bundle.routes.append(route)
    if payload["committed"]:
        _lookup(bundle, "project", payload["project"]).committed_route = route.id


def _apply_route_frozen(bundle: ProjectBundle, payload: dict) -> None:
    route = _lookup(bundle, "route", payload["route"])
    route.frozen_at = payload["frozen_at"]


def _apply_route_revised(bundle: ProjectBundle, payload: dict) -> None:
    route = _lookup(bundle, "route", payload["route"])
    body = {name: payload["body"][name] for name in body_fields(Route)}
    replacement = decode(Route, {**encode(route), **body})
    revision = decode(RouteRevision, payload["revision"])
    for name in body:
        setattr(route, name, getattr(replacement, name))
    route.revisions.append(revision)


def _apply_flow_recorded(bundle: ProjectBundle, payload: dict) -> None:
    bundle.flows.append(decode(FlowEvent, payload["flow"]))


def _apply_contamination_flagged(bundle: ProjectBundle, payload: dict) -> None:
    # Pure record: detection mutates nothing.
    return None


def _apply_contamination_resolved(bundle: ProjectBundle, payload: dict) -> None:
    _apply_effects(bundle, payload["effects"])


def _apply_version_bumped(bundle: ProjectBundle, payload: dict) -> None:
    gp = bundle.grandparent()
    entry, gp.laws = decode_bump(payload)
    gp.version = entry.to_version


def _apply_unit_split(bundle: ProjectBundle, payload: dict) -> None:
    source = _lookup(bundle, "unit", payload["source"])
    new_units = decode_field(ProjectBundle, "units", payload["units"])
    source.superseded = True
    bundle.units.extend(new_units)
    for project in bundle.projects:
        if source.study_id in project.unit_refs:
            refs = [r for r in project.unit_refs if r != source.study_id]
            refs.extend(u.study_id for u in new_units)
            project.unit_refs = refs


def _apply_declaration_added(bundle: ProjectBundle, payload: dict) -> None:
    decl_kind = payload["decl_kind"]
    record = payload["record"]
    if decl_kind == "unit":
        unit = decode(EvidentialUnit, record)
        bundle.units.append(unit)
        project_id = payload.get("project")
        if project_id:
            _lookup(bundle, "project", project_id).unit_refs.append(unit.study_id)
    elif decl_kind == "law":
        layer = _lookup(bundle, "layer", payload["layer"])
        layer.laws.append(_decode_in(layer, Law, record))
    elif decl_kind == "abstraction":
        layer = _lookup(bundle, "layer", payload["layer"])
        layer.abstractions.append(_decode_in(layer, Abstraction, record))
    elif decl_kind == "contract":
        bundle.contracts.append(decode(BoundaryContract, record))
    else:
        raise ValueError(f"unsupported declaration kind {decl_kind!r}")


def _apply_declaration_quarantined(bundle: ProjectBundle, payload: dict) -> None:
    decl = find_declaration(bundle, payload["target"])
    if decl is None or not hasattr(decl, "quarantined"):
        raise ValueError(f"quarantine target {payload['target']} not found")
    decl.quarantined = True


_APPLIERS: dict[str, Callable[[ProjectBundle, dict], None]] = {
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
        return diags
    if not isinstance(event.payload, dict):
        diags.append(error("E_PAYLOAD_SCHEMA", "event.payload", "payload must be an object"))
        return diags
    missing = missing_payload_keys(event.kind, event.payload)
    if missing:
        diags.append(error("E_PAYLOAD_SCHEMA", "event.payload", missing))
    return diags


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
    diags = validate_event(bundle, event)
    if diags:
        raise OperationRejected(diags)
    _APPLIERS[kind](bundle, payload)
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
            applier(state, event.payload)
        except Exception as exc:
            raise reject(
                "E_REPLAY_DIVERGENCE",
                f"events[{event.sequence}]",
                f"{event.kind} failed to apply: {exc}",
            ) from exc
        state.events.append(event)
    return state
