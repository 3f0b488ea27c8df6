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

from .bundle import (
    clone,
    declared_ids,
    declarations,
    decode_payload,
    field_effect,
    reference_errors,
)
from .diagnostics import Diagnostic, OperationRejected, error, reject
from .identifiers import Identifier, parse_identifier
from .records import replace
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
# Lookups and replacements shared by appliers
# ---------------------------------------------------------------------------


class _Refusal(ValueError):
    """Why an event does not apply to the state it meets: :func:`commit`
    rejects it with ``code`` at ``where`` (an id or a location), and
    :func:`replay` reports an E_REPLAY_DIVERGENCE."""

    def __init__(self, where: Identifier | str, message: str, code: str = "E_UNDOCUMENTED"):
        super().__init__(message)
        self.code = code
        self.location = where if where.__class__ is str else where.render()


def find_declaration(bundle: ProjectBundle, canonical: str):
    """Locate any id-bearing declaration by its canonical rendered id."""
    ident = parse_identifier(canonical)
    return None if ident is None else _locate(bundle, ident)[0]


def duplicate_ids(bundle: ProjectBundle, added: list) -> list[Diagnostic]:
    """An E_DUP_ID at each id that the records in ``added``, all of one
    class, or the records nested in them declare while a declaration of
    ``bundle`` or an earlier id of ``added`` already uses it: the parser
    would reject the written bundle."""
    new = declared_ids(added)
    taken = set(new).intersection(declared_ids([bundle]))
    diags = []
    for ident in new:
        if ident in taken:
            where = ident.render()
            diags.append(error("E_DUP_ID", where, f"{where} already declared"))
        taken.add(ident)
    return diags


def _locate(bundle: ProjectBundle, ident: Identifier) -> tuple[Any, list]:
    """The first declaration named ``ident`` and its path from the bundle
    (:func:`_path`), or (None, [])."""
    for _, decl_id, holder, name, i, up in declarations(bundle):
        if decl_id == ident:
            return holder.__dict__[name][i], _path((up, name, i))
    return None, []


def _path(up: tuple | None) -> list[tuple[str, int]]:
    """The (field, index) steps from the bundle down to the record that a
    :func:`~.bundle.declarations` ``up`` chain names."""
    path = []
    while up is not None:
        up, name, i = up
        path.append((name, i))
    return path[::-1]


def _put(holder: Any, path: list[tuple[str, int]], new: Any) -> Any:
    """``holder`` with the record at ``path`` below it replaced by ``new``.
    A record is replaced, never edited: each record on the path is
    rebuilt, and the bundle's own list takes the new top-level record."""
    (name, i), rest = path[0], path[1:]
    items = holder.__dict__[name]
    if rest:
        new = _put(items[i], rest, new)
    if holder.__class__ is ProjectBundle:
        items[i] = new
        return holder
    return replace(holder, **{name: items[:i] + (new,) + items[i + 1 :]})


def _lookup(bundle: ProjectBundle, kind: str, ident: Identifier):
    """The unit, route, layer or project named ``ident``, looked up in a
    fresh :class:`BundleIndex`."""
    found = getattr(BundleIndex(bundle), kind + "s").get(ident)
    if found is None:
        raise _Refusal(ident, f"{kind} {ident.render()} not found", "E_UNRESOLVED_REF")
    return found


def _swap(items: list, old: Any, new: Any) -> None:
    """Put ``new`` where the record ``old`` is in one of the bundle's lists."""
    for i, item in enumerate(items):
        if item is old:
            items[i] = new
            return


def _quarantine(bundle: ProjectBundle, target: Identifier) -> None:
    decl, path = _locate(bundle, target)
    if decl is None or not hasattr(decl, "quarantined"):
        raise _Refusal(target, f"quarantine target {target.render()} not found")
    _put(bundle, path, replace(decl, quarantined=True))


def _add_to_layer(bundle: ProjectBundle, layer: Identifier, decl) -> None:
    """Append a law or an abstraction to the layer declaring it."""
    layer_decl = _lookup(bundle, "layer", layer)
    name = "laws" if decl.__class__ is Law else "abstractions"
    added = replace(layer_decl, **{name: getattr(layer_decl, name) + (decl,)})
    _swap(bundle.layers, layer_decl, added)


def _apply_effects(bundle: ProjectBundle, effects: list[ResolutionEffect]) -> None:
    """Apply the recorded effects of a contamination resolution. A refused
    effect is E_UNDOCUMENTED at the declaration it names."""
    for effect in effects:
        op = effect.op
        if op == "quarantine":
            _quarantine(bundle, effect.target)
        elif op == "remove_flow":
            kept = [f for f in bundle.flows if f.id != effect.target]
            if len(kept) == len(bundle.flows):
                raise _Refusal(effect.target, f"flow {effect.target.render()} not found")
            bundle.flows[:] = kept
        elif op == "remove_declaration":
            _remove_declaration(bundle, effect.target)
        elif op == "add_law" or op == "add_abstraction":
            _add_to_layer(bundle, effect.layer, effect.record)
        elif op == "remove_assignment":
            container, token = effect.container, effect.token
            decl, path = _locate(bundle, container)
            if decl is None or not hasattr(decl, "assignments"):
                raise _Refusal(container, f"project {container.render()} not found")
            kept = tuple(
                a for a in decl.assignments if token != a.unit_ref and token != a.route_ref
            )
            if len(kept) == len(decl.assignments):
                message = f"assignment citing {token.render()} not present"
                raise _Refusal(container, message)
            _put(bundle, path, replace(decl, assignments=kept))
        else:
            _edit_field(bundle, effect)


_DIVERGED = "edit target text diverged from the recorded state"


def _edit_field(bundle: ProjectBundle, effect: ResolutionEffect) -> None:
    """Apply an effect on one field, which must be of the kind the effect
    edits (:func:`~.bundle.field_effect`)."""
    op, name, container = effect.op, effect.field, effect.container
    decl, path = _locate(bundle, container)
    if decl is None or field_effect(decl.__class__, name) != op:
        raise _Refusal(container, f"{op} target {container.render()}.{name} not found")
    value = getattr(decl, name)
    if op == "clear_ref":
        value = None
    elif op == "remove_ref":
        kept = tuple(ref for ref in value if ref != effect.target)
        if len(kept) == len(value):
            message = f"reference {effect.target.render()} not present"
            raise _Refusal(container, message)
        value = kept
    elif op == "edit_text":
        if value != effect.old:
            raise _Refusal(container, _DIVERGED)
        value = effect.new
    else:  # edit_list_item
        index = effect.index
        if not 0 <= index < len(value):
            message = f"edit target {container.render()}.{name}[{index}] not found"
            raise _Refusal(container, message)
        if value[index] != effect.old:
            raise _Refusal(container, _DIVERGED)
        value = value[:index] + (effect.new,) + value[index + 1 :]
    _put(bundle, path, replace(decl, **{name: value}))


def _remove_declaration(bundle: ProjectBundle, ident: Identifier) -> None:
    """Remove a law or an abstraction, the declarations whose existence
    alone can be a violation."""
    for _, decl_id, holder, name, _, up in declarations(bundle):
        if decl_id == ident and holder.__class__ is LayerDecl:
            kept = tuple(d for d in holder.__dict__[name] if d.id != ident)
            _put(bundle, _path(up), replace(holder, **{name: kept}))
            return
    raise _Refusal(ident, f"declaration {ident.render()} not found")


# ---------------------------------------------------------------------------
# Event appliers: each takes its kind's decoded payload record, and writes
# by putting replacement records in the bundle's lists
# ---------------------------------------------------------------------------


def _apply_tier_declared(bundle: ProjectBundle, declared: TierDeclared) -> None:
    unit = _lookup(bundle, "unit", declared.unit)
    new = replace(unit, tier_justification=declared.justification, declared_tier=declared.tier)
    _swap(bundle.units, unit, new)


def _apply_retier(bundle: ProjectBundle, retier: Retier) -> None:
    unit = _lookup(bundle, "unit", retier.unit)
    changes = {
        "retier_events": unit.retier_events + (retier.event,),
        "declared_tier": retier.event.new_tier,
    }
    if retier.justification:
        changes["tier_justification"] = retier.justification
    if retier.interpretations is not None:
        changes["interpretations"] = retier.interpretations
    if retier.explicit_assumptions is not None:
        changes["explicit_assumptions"] = retier.explicit_assumptions
    _swap(bundle.units, unit, replace(unit, **changes))


def _apply_route_declared(bundle: ProjectBundle, declared: RouteDeclared) -> None:
    route = declared.route
    project = _lookup(bundle, "project", declared.project) if declared.committed else None
    if route.id not in BundleIndex(bundle).routes:
        bundle.routes.append(route)
    if project is not None:
        _swap(bundle.projects, project, replace(project, committed_route=route.id))


def _apply_route_frozen(bundle: ProjectBundle, frozen: RouteFrozen) -> None:
    route = _lookup(bundle, "route", frozen.route)
    _swap(bundle.routes, route, replace(route, frozen_at=frozen.frozen_at))


def _apply_route_revised(bundle: ProjectBundle, revised: RouteRevised) -> None:
    route = _lookup(bundle, "route", revised.route)
    # A record's __dict__ holds exactly its fields: the body's are Route's.
    revisions = route.revisions + (revised.revision,)
    _swap(bundle.routes, route, replace(route, **revised.body.__dict__, revisions=revisions))


def _apply_flow_recorded(bundle: ProjectBundle, recorded: FlowRecorded) -> None:
    bundle.flows.append(recorded.flow)


def _apply_contamination_flagged(bundle: ProjectBundle, flagged: ContaminationFlagged) -> None:
    # Pure record: detection mutates nothing.
    return None


def _apply_contamination_resolved(bundle: ProjectBundle, resolved: ContaminationResolved) -> None:
    _apply_effects(bundle, resolved.effects)


def _apply_version_bumped(bundle: ProjectBundle, bumped: VersionBumped) -> None:
    gp = BundleIndex(bundle).grandparent
    if gp is None:
        raise _Refusal("layers", "bundle has no grandparent layer", "E_NO_GRANDPARENT")
    _swap(bundle.layers, gp, replace(gp, laws=bumped.laws, version=bumped.entry.to_version))


def _apply_unit_split(bundle: ProjectBundle, split: UnitSplit) -> None:
    source = _lookup(bundle, "unit", split.source)
    _swap(bundle.units, source, replace(source, superseded=True))
    bundle.units.extend(split.units)
    parts = tuple(u.study_id for u in split.units)
    for i, project in enumerate(bundle.projects):
        if source.study_id in project.unit_refs:
            refs = tuple(r for r in project.unit_refs if r != source.study_id) + parts
            bundle.projects[i] = replace(project, unit_refs=refs)


def _apply_declaration_added(bundle: ProjectBundle, added: DeclarationAdded) -> None:
    decl = added.record
    if added.decl_kind == "unit":
        project = None if added.project is None else _lookup(bundle, "project", added.project)
        bundle.units.append(decl)
        if project is not None:
            refs = project.unit_refs + (decl.study_id,)
            _swap(bundle.projects, project, replace(project, unit_refs=refs))
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
    replay will later consume. An event that does not apply to the bundle,
    or that puts in a reference the written bundle would not resolve, is
    rejected, with the bundle left as it was.
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
    # The applier writes to a clone, whose lists are swapped in only once
    # every part of the event has applied: a refused event changes nothing.
    state = clone(bundle)
    try:
        _APPLIERS[kind](state, record)
    except _Refusal as exc:
        raise reject(exc.code, exc.location, str(exc)) from None
    diags = reference_errors(bundle, state)
    if diags:
        raise OperationRejected(diags)
    state.events.append(event)
    for name, items in state.__dict__.items():
        if items.__class__ is list:
            bundle.__dict__[name][:] = items
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
