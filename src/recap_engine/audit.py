"""Append-only audit log and event replay.

Every accepted mutation appends exactly one event whose payload is rich
enough to reproduce the mutation. Live operations and :func:`replay` share
the same appliers, each taking its kind's payload record as
:func:`~.bundle.decode_payload` decodes it for the parser too, so
replaying the log over the initial declarations reproduces live state by
construction. Rejected operations touch nothing.

:func:`commit` runs the one write check, :func:`write_errors`, on a
:func:`clone` the event applied to. Only writes and replay load this module.
"""

from __future__ import annotations

from collections import Counter
from datetime import datetime, timezone
from itertools import chain, compress, count
from operator import is_not
from typing import Any, Callable

# The write check calls bundle.citations through the module, so a
# replacement there (a test counting walks) sees every call.
from . import bundle as bundle_module
from .bundle import CODECS, PLANS, _declared, _resolve_references, _unresolved_layer
from .bundle import decode_payload, unknown_layer, unowned, wrong_field
from .diagnostics import Diagnostic, OperationRejected, error, reject
from .identifiers import Identifier, parse_identifier
from .records import replace
from .model import (
    Abstraction,
    AuditEvent,
    BundleIndex,
    ContaminationFlagged,
    ContaminationResolved,
    DeclarationAdded,
    DeclarationQuarantined,
    FlowRecorded,
    Law,
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
    layer_scopes,
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


def _locate(bundle: ProjectBundle, ident: Identifier) -> tuple[Any, tuple]:
    """The first declaration named ``ident`` and its path from the bundle
    (:attr:`BundleIndex.declarations`), or (None, ())."""
    return BundleIndex.of(bundle).declarations.get(ident, (None, ()))


def _put(holder: Any, path: tuple[tuple[str, int], ...], new: Any) -> Any:
    """``holder`` with the record at ``path`` below it replaced by ``new``.
    A record is replaced, never edited: each record on the path is
    rebuilt, and the bundle takes a new tuple with the new top-level one."""
    (name, i), rest = path[0], path[1:]
    items = holder.__dict__[name]
    if rest:
        new = _put(items[i], rest, new)
    items = items[:i] + (new,) + items[i + 1 :]
    if holder.__class__ is ProjectBundle:
        setattr(holder, name, items)
        return holder
    return replace(holder, **{name: items})


def _lookup(bundle: ProjectBundle, kind: str, ident: Identifier):
    """The unit, route, layer or project named ``ident``."""
    found = getattr(BundleIndex.of(bundle), kind + "s").get(ident)
    if found is None:
        raise _Refusal(ident, f"{kind} {ident.render()} not found", "E_UNRESOLVED_REF")
    return found


def _swap(bundle: ProjectBundle, name: str, old: Any, new: Any) -> None:
    """Put ``new`` where the record ``old`` is in the bundle's list ``name``."""
    for i, item in enumerate(bundle.__dict__[name]):
        if item is old:
            _put(bundle, ((name, i),), new)
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
    _swap(bundle, "layers", layer_decl, added)


def _apply_effects(bundle: ProjectBundle, effects: list[ResolutionEffect]) -> None:
    """Apply the recorded effects of a contamination resolution. A refused
    effect is E_UNDOCUMENTED at the declaration it names."""
    for effect in effects:
        op = effect.op
        if op == "quarantine":
            _quarantine(bundle, effect.target)
        elif op == "remove_flow":
            kept = tuple(f for f in bundle.flows if f.id != effect.target)
            if len(kept) == len(bundle.flows):
                raise _Refusal(effect.target, f"flow {effect.target.render()} not found")
            bundle.flows = kept
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
    edits (:func:`~.bundle.wrong_field`)."""
    op, name, container = effect.op, effect.field, effect.container
    decl, path = _locate(bundle, container)
    message = wrong_field(decl, effect)
    if message is not None:
        raise _Refusal(container, message)
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
    decl, path = _locate(bundle, ident)
    if decl.__class__ is not Law and decl.__class__ is not Abstraction:
        raise _Refusal(ident, f"declaration {ident.render()} not found")
    (_, i), (name, _) = path  # the layer, and its laws or abstractions
    layer = bundle.layers[i]
    kept = tuple(d for d in layer.__dict__[name] if d.id != ident)
    _put(bundle, path[:1], replace(layer, **{name: kept}))


# ---------------------------------------------------------------------------
# Event appliers: each takes its kind's decoded payload record, and writes
# by giving the bundle new tuples
# ---------------------------------------------------------------------------


def _apply_tier_declared(bundle: ProjectBundle, declared: TierDeclared) -> None:
    unit = _lookup(bundle, "unit", declared.unit)
    new = replace(unit, tier_justification=declared.justification, declared_tier=declared.tier)
    _swap(bundle, "units", unit, new)


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
    _swap(bundle, "units", unit, replace(unit, **changes))


def _apply_route_declared(bundle: ProjectBundle, declared: RouteDeclared) -> None:
    route = declared.route
    project = _lookup(bundle, "project", declared.project) if declared.committed else None
    if route.id not in BundleIndex.of(bundle).routes:
        bundle.routes += (route,)
    if project is not None:
        _swap(bundle, "projects", project, replace(project, committed_route=route.id))


def _apply_route_frozen(bundle: ProjectBundle, frozen: RouteFrozen) -> None:
    route = _lookup(bundle, "route", frozen.route)
    _swap(bundle, "routes", route, replace(route, frozen_at=frozen.frozen_at))


def _apply_route_revised(bundle: ProjectBundle, revised: RouteRevised) -> None:
    route = _lookup(bundle, "route", revised.route)
    # A record's __dict__ holds exactly its fields: the body's are Route's.
    revisions = route.revisions + (revised.revision,)
    _swap(bundle, "routes", route, replace(route, **revised.body.__dict__, revisions=revisions))


def _apply_flow_recorded(bundle: ProjectBundle, recorded: FlowRecorded) -> None:
    bundle.flows += (recorded.flow,)


def _apply_contamination_flagged(bundle: ProjectBundle, flagged: ContaminationFlagged) -> None:
    # Pure record: detection mutates nothing.
    return None


def _apply_contamination_resolved(bundle: ProjectBundle, resolved: ContaminationResolved) -> None:
    _apply_effects(bundle, resolved.effects)


def _apply_version_bumped(bundle: ProjectBundle, bumped: VersionBumped) -> None:
    gp = BundleIndex.of(bundle).grandparent
    if gp is None:
        raise _Refusal("layers", "bundle has no grandparent layer", "E_NO_GRANDPARENT")
    _swap(bundle, "layers", gp, replace(gp, laws=bumped.laws, version=bumped.entry.to_version))


def _apply_unit_split(bundle: ProjectBundle, split: UnitSplit) -> None:
    source = _lookup(bundle, "unit", split.source)
    _swap(bundle, "units", source, replace(source, superseded=True))
    bundle.units += tuple(split.units)
    parts = tuple(u.study_id for u in split.units)
    for project in bundle.projects:
        if source.study_id in project.unit_refs:
            refs = tuple(r for r in project.unit_refs if r != source.study_id) + parts
            _swap(bundle, "projects", project, replace(project, unit_refs=refs))


def _apply_declaration_added(bundle: ProjectBundle, added: DeclarationAdded) -> None:
    decl = added.record
    if added.decl_kind == "unit":
        project = None if added.project is None else _lookup(bundle, "project", added.project)
        bundle.units += (decl,)
        if project is not None:
            refs = project.unit_refs + (decl.study_id,)
            _swap(bundle, "projects", project, replace(project, unit_refs=refs))
    elif added.decl_kind == "contract":
        bundle.contracts += (decl,)
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
# The write check: what a parse of the written bundle would reject
# ---------------------------------------------------------------------------


def write_errors(before: ProjectBundle, after: ProjectBundle) -> list[Diagnostic]:
    """What a parse of ``after`` would reject that a write put in it. A
    write puts in the records each of ``after``'s tuples holds more often
    than ``before``'s, by identity, and takes out those held less often
    (:func:`_difference`). It is blamed, with the parse's own diagnostic,
    for a layer reference in a record it puts in that is not the id of a
    layer of ``after`` (a payload is history, so a bare name is not
    resolved) and for a reference it puts in (:func:`~.bundle.citations`), less
    those a record it takes out cited alike, that does not resolve in
    ``after``; for E_UNKNOWN_LAYER at an id it declares that names no
    layer of ``after`` (:func:`~.bundle.unowned`); for E_DUP_ID at an id it
    declares, less as a multiset those it stops declaring, that ``before``
    or an earlier one of them declares; and for E_UNDOCUMENTED at an id it
    stops declaring that ``after`` still cites (:func:`_citations`). A
    whole bundle is walked only to resolve a reference the write puts in or
    an id it declares or drops."""
    put: list[tuple] = []  # the references of the records put in
    cited: set[tuple] = set()  # (id, expected kinds) of those taken out
    new_levels: list[tuple] = []  # (declaration kind, ids) of the records put in
    old_ids: list[Identifier] = []
    layers = {layer.id for layer in after.layers}
    diags: list[Diagnostic] = []
    for name, key, spec in CODECS[ProjectBundle].fields[1:]:
        old, new = before.__dict__[name], after.__dict__[name]
        if old is new:
            continue
        codec = CODECS[spec.of.of]
        added, removed = _difference(old, new)
        new_levels += _declared([new[i] for i in added], codec)
        old_ids += declared_ids([old[j] for j in removed])
        paired = set(added).intersection(removed)  # replaced in place
        for i in added:
            values = new[i].__dict__
            diags += [_unresolved_layer(values[f], f"{key}[{i}].{f}") for f in codec.layer_refs
                      if values[f] is not None and values[f] not in layers]
            if i in paired:
                previous = old[i].__dict__
                if all(values[step[1]] is previous[step[1]] for step in PLANS[codec.cls][1]):
                    continue
                cited.update(ref[:2] for ref in bundle_module.citations(old[i], None))
            put += bundle_module.citations(new[i], (None, key, i))
        for j in set(removed) - paired:
            cited.update(ref[:2] for ref in bundle_module.citations(old[j], None))
    put = [ref for ref in put if ref[:2] not in cited]
    if put:
        wanted = {ref[0] for ref in put}
        index = {}  # id -> the kind of a declaration of it, for the ids cited
        for kind, ids in _declared([after], CODECS[ProjectBundle]):
            for ident in wanted.intersection(ids):
                index.setdefault(ident, kind)
        _resolve_references(put, index, diags)
    new_ids = list(chain.from_iterable(ids for _, ids in new_levels))
    if new_ids == old_ids:
        return diags
    diags += [unknown_layer(ident, ident.render())
              for ident in unowned(new_levels, layer_scopes(after.layers))]
    spare, taken = Counter(old_ids), None  # the ids the replaced records declared
    for ident in new_ids:
        if spare[ident]:
            spare[ident] -= 1
            continue
        if taken is None:
            taken = set(declared_ids([before]))
        if ident in taken:
            where = ident.render()
            diags.append(error("E_DUP_ID", where, f"{where} already declared"))
        taken.add(ident)
    dropped = list(+spare)
    if dropped:
        declared = (ids for _, ids in _declared([after], CODECS[ProjectBundle]))
        gone = set(dropped).difference(*declared)
        still = _citations(after, gone) if gone else gone
        for ident in dropped:
            if ident in still:
                diags.append(error("E_UNDOCUMENTED", ident.render(), "declaration is still cited"))
    return diags


def _difference(old: tuple, new: tuple) -> tuple[list[int], list[int]]:
    """The positions of the records ``new`` holds more often than ``old``,
    and of those ``old`` holds more often than ``new``, by identity. The
    ends the two share are skipped at C speed."""
    size = min(len(old), len(new))
    head = next(compress(count(), map(is_not, old, new)), size)
    tail = next(compress(count(), map(is_not, reversed(old), reversed(new))), size)
    tail = min(tail, size - head)
    old, new = old[head : len(old) - tail], new[head : len(new) - tail]
    return _extra(new, old, head), _extra(old, new, head)


def _extra(items: tuple, others: tuple, start: int) -> list[int]:
    """The positions, counted from ``start``, of the records of ``items``
    beyond the occurrences ``others`` holds: of a repeated one, the last."""
    left = Counter(map(id, others))
    out = []
    for i, key in enumerate(map(id, items), start):
        if left[key]:
            left[key] -= 1
        else:
            out.append(i)
    return out


def _citations(bundle: ProjectBundle, idents: set[Identifier]) -> set[Identifier]:
    """The ids among ``idents`` that ``bundle`` cites where a parse resolves
    them: in a reference or a text of any record (:func:`~.bundle.citations`), inert
    ones included, or in a correspondence of an abstraction of the layer
    that owns the id."""
    found = {ref[0] for ref in bundle_module.citations(bundle, None) if ref[0] in idents}
    for scope, layer in layer_scopes(bundle.layers).items():
        named = {n for ab in layer.abstractions for pair in ab.correspondence.items() for n in pair}
        found.update(i for i in idents if (i.namespace, i.owner) == scope and i.local_name in named)
    return found


def declared_ids(records: list) -> list[Identifier]:
    """The ids that ``records``, all of one class, and the records nested in
    them declare, taken a level at a time without their places: several
    times quicker than :func:`~.bundle.declaration_map`."""
    if not records:
        return []
    levels = _declared(records, CODECS[records[0].__class__])
    return list(chain.from_iterable(ids for _, ids in levels))


def clone(bundle: ProjectBundle) -> ProjectBundle:
    """A new bundle holding ``bundle``'s tuples. Tuples and records cannot
    change, so a write to either bundle, which gives that bundle new
    tuples, leaves the other as it was."""
    copy = object.__new__(ProjectBundle)
    copy.__dict__ = bundle.__dict__.copy()
    return copy


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
    bundle.events += (event,)
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
    or whose written bundle would not parse (:func:`write_errors`:
    a reference it puts in that does not resolve, an id it declares twice,
    an id it drops that is still cited), is rejected, with the bundle left
    as it was. This is the one check that a write leaves a bundle that
    parses; operations do not repeat it.
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
    # The applier writes to a clone, whose fields the bundle takes only once
    # every part of the event has applied: a refused event changes nothing.
    state = clone(bundle)
    try:
        _APPLIERS[kind](state, record)
    except _Refusal as exc:
        raise reject(exc.code, exc.location, str(exc)) from None
    diags = write_errors(bundle, state)
    if diags:
        raise OperationRejected(diags)
    state.events += (event,)
    vars(bundle).update(vars(state))
    BundleIndex.of(bundle)  # not the clone's index, whose decodes go with the clone
    return event


def replay(initial: ProjectBundle, events: list[AuditEvent]) -> ProjectBundle:
    """Rebuild state by applying events to a :func:`clone` of the
    initial bundle.

    The first event must continue the initial bundle's log. Raises with
    E_REPLAY_DIVERGENCE when an event cannot be applied cleanly; that is an
    engine bug, not an input error.
    """
    state = clone(initial)
    for sequence, event in enumerate(events, state.next_sequence()):
        if event.sequence != sequence:
            raise reject(
                "E_REPLAY_DIVERGENCE",
                f"events[{event.sequence}]",
                f"sequence {event.sequence} does not continue the log",
            )
        try:
            record = decode_payload(event.kind, event.payload)
            _APPLIERS[event.kind](state, record)
        except Exception as exc:
            raise reject(
                "E_REPLAY_DIVERGENCE",
                f"events[{event.sequence}]",
                f"{event.kind} failed to apply: {exc}",
            ) from exc
    # Appliers never read the log, so the events are appended in one step.
    state.events += tuple(events)
    return state
