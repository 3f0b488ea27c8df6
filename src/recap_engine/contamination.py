"""Flow permissions, contamination detection, and tracing.

The layer graph is an information-gated system: constraints flow downward,
only validated methodological insight flows upward one level at a time, and
lateral transfers need an explicit boundary contract. An identifier's
namespace is its provenance, which makes every check here decidable without
reading prose.

Recording flows, validating insight and correcting contamination are in
``operations``, which only writes load; it shares :func:`insight_errors`.
"""

from __future__ import annotations

import re
from collections import defaultdict
from itertools import chain
from operator import itemgetter

from . import forwarder
from .bundle import DECLS, PLANS, TEXTS, render_position
from .diagnostics import Diagnostic, error, reject
from .identifiers import Identifier, extract_references
from .model import (
    BoundaryContract,
    BundleIndex,
    ContaminationEvent,
    ContaminationSite,
    FlowEvent,
    LayerDecl,
    ProjectBundle,
    Tier,
)
from .records import record, replace

__getattr__ = forwarder(globals(), dict.fromkeys(
    ("record_flow", "flag_contamination", "resolve_contamination", "validate_insight"),
    "operations",
))

_RANK = {"child": 0, "parent": 1, "grandparent": 2}

_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")


@record(frozen=True)
class FlowVerdict:
    allowed: bool
    direction: str | None = None
    rule: str | None = None
    reason: str = ""

    # Both pass every field positionally, the record __init__'s fast path:
    # a scan builds a verdict per flow and per lateral reference.
    @staticmethod
    def ok(reason: str = "") -> "FlowVerdict":
        return FlowVerdict(True, None, None, reason)

    @staticmethod
    def violation(direction: str, rule: str, reason: str) -> "FlowVerdict":
        return FlowVerdict(False, direction, rule, reason)


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------


def validate_contract(contract: BoundaryContract) -> list[Diagnostic]:
    """All five contract elements must be present for it to authorize
    anything."""
    diags: list[Diagnostic] = []
    where = contract.id.render()
    if not contract.legal_justification.strip():
        diags.append(error("E_CONTRACT_INCOMPLETE", where, "legal justification missing"))
    if not contract.no_reinterpretation_clause:
        diags.append(
            error("E_CONTRACT_INCOMPLETE", where, "no-reinterpretation clause must be true")
        )
    if not contract.documentation_ref.strip():
        diags.append(error("E_CONTRACT_INCOMPLETE", where, "documentation mechanism missing"))
    return diags


def _horizontal_verdict(
    index: BundleIndex,
    source: Identifier,
    dest: Identifier,
    info_class: str,
    cited: BoundaryContract | None,
) -> FlowVerdict:
    if cited is not None:
        if (
            cited.origin_layer == source
            and cited.destination_layer == dest
            and cited.info_type == info_class
            and not validate_contract(cited)
        ):
            return FlowVerdict.ok("authorized by boundary contract")
        return FlowVerdict.violation(
            "horizontal",
            "R4_missing_contract",
            "cited contract does not authorize this transfer",
        )
    near_miss = False
    for contract in index.contracts_between.get((source, dest), ()):
        if contract.info_type == info_class and not validate_contract(contract):
            return FlowVerdict.ok("authorized by boundary contract")
        near_miss = True
    if near_miss:
        return FlowVerdict.violation(
            "horizontal",
            "R4_missing_contract",
            "a contract exists for this boundary but does not cover this transfer",
        )
    return FlowVerdict.violation(
        "horizontal",
        "R3_horizontal_borrowing",
        "lateral transfer without an explicit boundary contract",
    )


# ---------------------------------------------------------------------------
# Insight transmission
# ---------------------------------------------------------------------------


def insight_errors(index: BundleIndex, target: LayerDecl, where: str, texts: list[str],
                   referenced: list[Identifier]) -> list[Diagnostic]:
    """What bars insight stated in ``texts`` from moving up to ``target``:
    E_DOMAIN_TERM for each id of ``referenced``, then each id the texts
    cite, that is domain content relative to the target; then
    E_FOREIGN_VOCAB for each word of the texts that some layer's
    vocabulary holds and the target, with what it inherits, does not."""
    diags: list[Diagnostic] = []
    for ref in chain(referenced, *map(extract_references, texts)):
        if ref.namespace == "child" or (target.kind == "grandparent" and ref.namespace == "parent"):
            message = f"{ref.render()} is domain content relative to the {target.kind} layer"
            diags.append(error("E_DOMAIN_TERM", where, message))
    known = {t.lower() for layer in index.state.layers for t in layer.vocabulary}
    target_vocab = {t.lower() for cursor in (target, *index.ancestors(target))
                    for t in cursor.vocabulary}
    for text in texts:
        for token in _WORD_RE.findall(text):
            lowered = token.lower()
            if lowered in known and lowered not in target_vocab:
                message = f"term {token!r} is not admitted in the {target.kind} layer's vocabulary"
                diags.append(error("E_FOREIGN_VOCAB", where, message))
    return diags


# ---------------------------------------------------------------------------
# Flow matrix
# ---------------------------------------------------------------------------


def check_flow(flow: FlowEvent, bundle: ProjectBundle) -> FlowVerdict:
    """Total verdict over the flow-permission matrix.

    Downward movement is always legal (constraints flow down, lineage or
    not). Upward movement is legal only for validated insight climbing one
    level. Same-kind movement between distinct layers is lateral and
    contract-gated. Contracts never legalize upward movement.
    """
    index = BundleIndex.of(bundle)
    source = index.layers.get(flow.source_layer)
    dest = index.layers.get(flow.dest_layer)
    if source is None or dest is None:
        raise reject("E_UNKNOWN_LAYER", flow.id.render(), "flow endpoints must be layers")
    if source.id == dest.id:
        return FlowVerdict.ok("same-layer flow is a no-op")
    src_rank, dst_rank = _RANK[source.kind], _RANK[dest.kind]
    if src_rank > dst_rank:
        return FlowVerdict.ok("constraints flow downward")
    if src_rank < dst_rank:
        if flow.info_class != "methodological_insight":
            return FlowVerdict.violation(
                "upward",
                "R1_upward_content",
                f"{flow.info_class} may never move upward, contract or not",
            )
        if dst_rank - src_rank > 1:
            return FlowVerdict.violation(
                "upward",
                "R5_meta_engine_insulation",
                "insight reaches the grandparent only through a parent",
            )
        failures = insight_errors(index, dest, flow.id.render(), [flow.payload], [])
        if not failures:
            return FlowVerdict.ok("validated methodological insight")
        rule = (
            "R5_meta_engine_insulation" if dest.kind == "grandparent" else "R1_upward_content"
        )
        return FlowVerdict.violation(
            "upward", rule, "; ".join(d.message for d in failures)
        )
    cited = None
    if flow.contract_ref is not None:
        cited = index.contracts.get(flow.contract_ref)
        if cited is None:
            return FlowVerdict.violation(
                "horizontal", "R4_missing_contract", "cited contract does not exist"
            )
    return _horizontal_verdict(index, source.id, dest.id, flow.info_class, cited)


# ---------------------------------------------------------------------------
# Static bundle scan
# ---------------------------------------------------------------------------


#: The nature of what a reference in a field carries, by the field's name;
#: any field not named here carries content.
_NATURES = dict.fromkeys(("measurement_refs", "measurement_issues"), "measurement") | dict.fromkeys(
    ("text", "plausibility", "failure_modes", "consequences_for_inference", "supporting_units"),
    "assumption",
)
#: The sections whose references the scan checks, in the scan's order;
#: flows are judged by the flow matrix instead.
_SECTIONS = ("layers", "units", "routes", "projects")
#: Persisted class -> JSON label -> ``(step, field, nature, rank)`` for each
#: step of its plan (:data:`~.bundle.PLANS`); findings are numbered in the
#: order of ``rank``, the step's place once a record's steps are sorted by
#: kind. A bundle's steps are :data:`_SECTIONS`.
_STEPS = {
    cls: {
        label: (step, name, _NATURES.get(name, "content"), rank)
        for rank, (step, name, label, _) in enumerate(sorted(steps, key=itemgetter(0)))
    }
    for cls, (_, steps) in PLANS.items()
}
_STEPS[ProjectBundle] = {name: (DECLS, name, "", rank) for rank, name in enumerate(_SECTIONS)}
#: A layer's lists whose declarations only one layer kind may make; one made
#: elsewhere re-legislates inherited structure locally (R2).
_DECLARED_BY = (("laws", "grandparent"), ("abstractions", "parent"))
_UNSEEN = object()


class _Scanner:
    """Every reference the state cites (:attr:`BundleIndex.citations`) in
    :data:`_SECTIONS`, checked against the layer owning its top-level
    record; then the laws and abstractions each layer may not declare, and
    the flow matrix. A finding is sited at the nearest declaration; inside
    a record without an id, at that record's list field, and located at the
    record. What an inert (quarantined or superseded) record holds is not
    checked. Sites and locations are rendered only for a finding. The
    state's index keeps the scanner (:attr:`BundleIndex.contamination`).

    Its input is a state that parses or that a commit wrote, in which every
    declaration's id names a declared layer (:func:`~.bundle.unowned`), so
    every top-level record has an owner (:meth:`BundleIndex.owner`)."""

    def __init__(self, index: BundleIndex):
        self.index = index
        self.events: list[ContaminationEvent] = []
        #: :func:`build_reference_graph` once something is traced, and what
        #: each traced node reaches; the index keeps both with the events.
        self.graph: dict[str, set[str]] | None = None
        self._reached: dict[str, list[str]] = {}
        self._scope: dict[int, frozenset[Identifier]] = {}
        #: id() of a position -> :meth:`place`, the bundle's (None) first.
        #: One position serves all of a record's entries; the list holds it.
        self._places = {id(None): (index.state, None, None, None, None, ())}
        self.scan_references()
        self.scan_layers()
        self.scan_flows()
        self.events = tuple(sorted(self.events, key=lambda e: _DIRECTION_SEVERITY[e.direction]))
        for i, event in enumerate(self.events):
            event.id = f"CONT-{i + 1:04d}"
        self.index = None  # the index keeps the scanner; each cited position is placed

    def scan_references(self) -> None:
        """R1, R3 and R4 for each reference, in the scan's order: by the
        position of the record citing it, then by its step's rank."""
        found: list[tuple[tuple, ContaminationEvent]] = []
        last = place = None
        for ref, _, where, label, at in self.index.citations:
            if where is not last:
                last, place = where, self.place(where)
            if place is None:
                continue
            owner, namespace = place[1], ref.namespace
            if owner.kind != "child" and (
                namespace == "child" or (owner.kind == "grandparent" and namespace == "parent")
            ):
                rule = "R1_upward_content"
            else:
                ref_owner = self.index.owner(ref)
                if ref_owner is None or ref_owner.id in place[4]:
                    continue
                rule = None
            step, name, nature, rank = _STEPS[place[0].__class__][label]
            field, nature, location = place[3] or (
                name if step != TEXTS else f"{name}[{at}]", nature, (where, name, at)
            )
            if rule is None:
                verdict = _horizontal_verdict(self.index, ref_owner.id, owner.id, nature, None)
                if verdict.allowed:
                    continue
                rule = verdict.rule
            direction = "upward" if rule == "R1_upward_content" else "horizontal"
            event = _event(rule, direction, nature, place[2], render_position(location), field, ref)
            found.append((place[5] + (rank,), event))
        found.sort(key=itemgetter(0))  # stable: one field's references stay in order
        self.events += [event for _, event in found]

    def place(self, where: tuple | None) -> tuple | None:
        """``(record, owner, container, site, scope, order)`` of the record
        at ``where``: its owning layer, nearest declaration's id, ``(field,
        nature, position)`` of the outermost record without an id holding
        it, the ids of the owner and the layers above it, and its place in
        the scan's order. None outside the sections, or if inert or held by
        an inert record."""
        place = self._places.get(id(where), _UNSEEN)
        if place is _UNSEEN:
            place = self._places[id(where)] = self._place(*where)
        return place

    def _place(self, up: tuple | None, label: str, i: int) -> tuple | None:
        above = self.place(up)
        step = above and _STEPS[above[0].__class__].get(label)
        if step is None:
            return None
        holder, owner, container, site, scope, order = above
        _, name, nature, rank = step
        record = holder.__dict__[name][i]
        values = record.__dict__
        if values.get("quarantined") or values.get("superseded"):
            return None
        key = PLANS[record.__class__][0]
        if up is None:  # a section's record; a layer is its own owner
            owner = record if record.__class__ is LayerDecl else self.index.owner(values[key])
            scope = self._scope.get(id(owner))
            if scope is None:  # the index keeps the layer alive
                scope = frozenset(a.id for a in (owner, *self.index.ancestors(owner)))
                self._scope[id(owner)] = scope
        if key is not None:
            container = values[key]
        elif site is None:
            site = name, nature, (up, label, i)
        return record, owner, container, site, scope, order + (rank, i)

    def scan_layers(self) -> None:
        """R2 for each live law or abstraction of a layer of the wrong kind."""
        for i, layer in enumerate(self.index.state.layers):
            for name, kind in _DECLARED_BY:
                for j, decl in enumerate(layer.__dict__[name] if layer.kind != kind else ()):
                    if not decl.quarantined:
                        location = f"layers[{i}].{name}[{j}]"
                        self.events.append(
                            _event("R2_downward_rewrite", "downward", "structural", decl.id, location)
                        )

    def scan_flows(self) -> None:
        for fi, flow in enumerate(self.index.state.flows):
            if flow.quarantined:
                continue
            verdict = check_flow(flow, self.index.state)
            if verdict.allowed:
                continue
            rule, direction = verdict.rule or "R1_upward_content", verdict.direction or "upward"
            nature = "content" if flow.info_class == "methodological_insight" else flow.info_class
            self.events.append(_event(rule, direction, nature, flow.id, f"flows[{fi}]", "payload"))

    def trace(self, bundle: ProjectBundle, start: str) -> list[str]:
        """The nodes reachable from ``start``, sorted, in a new list; the
        first trace builds the graph of ``bundle``, which holds this state."""
        reached = self._reached.get(start)
        if reached is None:
            if self.graph is None:
                self.graph = build_reference_graph(bundle)
            seen, frontier = set(), list(self.graph.get(start, ()))
            while frontier:
                node = frontier.pop()
                if node not in seen:
                    seen.add(node)
                    frontier.extend(self.graph.get(node, ()))
            reached = self._reached[start] = sorted(seen)
        return list(reached)


def _event(rule: str, direction: str, nature: str, container: Identifier, location: str,
           field: str = "", token: Identifier | None = None) -> ContaminationEvent:
    # Every field positionally, the record __init__'s fast path: id, rule, direction, nature,
    # site, location, then defaults (no risks, decisions, action, update, timestamp; unresolved).
    site = ContaminationSite(container.render(), field, "" if token is None else token.render())
    return ContaminationEvent(
        "", rule, direction, nature, site, location, "", [], None, None, "", False
    )


_DIRECTION_SEVERITY = {"upward": 0, "downward": 1, "horizontal": 2}


def detect_contamination(bundle: ProjectBundle) -> list[ContaminationEvent]:
    """The scan's events, numbered, upward first: :func:`scan_bundle`
    without the downstream trace. The scan runs once per bundle state
    (:meth:`BundleIndex.of`); each call returns its own copies of the
    events, which the caller may change."""
    return [replace(event, site=replace(event.site), decisions_affected=[])
            for event in _detect(BundleIndex.of(bundle))]


def _detect(index: BundleIndex) -> tuple[ContaminationEvent, ...]:
    """The events of the scan kept on ``index``, which the caller only reads."""
    return index.contamination.events


def scan_bundle(bundle: ProjectBundle) -> list[ContaminationEvent]:
    """Detect every contamination event currently present in the bundle.

    Pure over the bundle; quarantined and superseded declarations are inert
    and produce nothing. A clean bundle returns an empty list. Upward events
    come first: they are the most severe class. Each event carries its
    :func:`trace_downstream` result; the reference graph is built once per
    bundle state, and only when something is traced.
    """
    scan = BundleIndex.of(bundle).contamination
    return [replace(event, site=replace(event.site),
                    decisions_affected=scan.trace(bundle, event.site.container))
            for event in scan.events]


# ---------------------------------------------------------------------------
# Downstream tracing
# ---------------------------------------------------------------------------


#: The reference fields whose record depends on what they cite (measurements, supporting units).
_DEPENDENCIES = frozenset(("measurement_refs", "supporting_units"))


def build_reference_graph(bundle: ProjectBundle) -> dict[str, set[str]]:
    """Dependency edges: node -> the decisions and rows depending on it.

    Each id a :data:`_DEPENDENCIES` field cites has an edge to the
    declaration holding the field, as the scan placed it. A project depends
    on the live laws and abstractions its owner's scope may declare
    (:data:`_DECLARED_BY`).
    The edges into derived decisions are policy: ``tier:<unit>``,
    ``studylog:<unit>``, ``tiertable:<unit>`` and ``coherence:<route>``.
    """
    graph: dict[str, set[str]] = defaultdict(set)
    index = BundleIndex.of(bundle)
    state, place = index.state, index.contamination.place
    last = container = None
    for ref, _, where, label, _ in index.citations:
        if label in _DEPENDENCIES:
            if where is not last:
                last, held = where, place(where)
                container = held and held[2].render()
            if container is not None:
                graph[ref.render()].add(container)
    declares = {  # id() of a layer -> the live laws and abstractions it may declare
        id(layer): [decl.id.render() for name, kind in _DECLARED_BY if layer.kind == kind
                    for decl in layer.__dict__[name] if not decl.quarantined]
        for layer in state.layers
    }
    live = set()
    for unit in state.units:
        if not unit.quarantined and not unit.superseded:
            key = unit.study_id.render()
            live.add(key)
            tier = f"tier:{key}"
            graph[key].add(tier)
            graph[tier].add(f"studylog:{key}")
            if unit.declared_tier in (Tier.CORE, Tier.SUPPLEMENT):
                graph[tier].add(f"tiertable:{key}")
    for project in state.projects:
        owner, key = index.owner(project.id), project.id.render()
        for layer in (owner, *index.ancestors(owner)):
            for decl in declares.get(id(layer), ()):
                graph[decl].add(key)
        for assignment in project.assignments:
            unit = assignment.unit_ref.render()
            if unit in live:
                graph[f"tier:{unit}"].add(f"coherence:{assignment.route_ref.render()}")
    for route in state.routes:
        if not route.quarantined:
            key = route.id.render()
            graph[key].add(f"coherence:{key}")
            for assumption in route.assumptions:
                graph[assumption.id.render()].add(f"coherence:{key}")
    return graph


def trace_downstream(event: ContaminationEvent, bundle: ProjectBundle) -> list[str]:
    """Transitive closure from the contaminated declaration to the tier
    decisions, route coherence, and report rows that depend on it."""
    return BundleIndex.of(bundle).contamination.trace(bundle, event.site.container)
