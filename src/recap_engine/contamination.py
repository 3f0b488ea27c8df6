"""Flow permissions, contamination detection, tracing, and correction.

The layer graph is an information-gated system: constraints flow downward,
only validated methodological insight flows upward one level at a time, and
lateral transfers need an explicit boundary contract. An identifier's
namespace is its provenance, which makes every check here decidable without
reading prose.
"""

from __future__ import annotations

import re
from collections import defaultdict
from operator import itemgetter

from .bundle import DECLS, PLANS, TEXTS, decode, encode, field_effect, render_position
from .diagnostics import Diagnostic, OperationRejected, error, reject
from .identifiers import KIND_TO_NAMESPACE, Identifier, extract_references, parse_identifier
from .model import (
    Abstraction,
    BoundaryContract,
    BundleIndex,
    ContaminationEvent,
    ContaminationSite,
    FlowEvent,
    InsightProposal,
    Law,
    LayerDecl,
    ProjectBundle,
    Tier,
)
from .records import record, replace

# Write operations import .audit (and with it datetime) when they run, so
# read-only commands never load it.

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


def _known_terms(bundle: ProjectBundle) -> set[str]:
    terms: set[str] = set()
    for layer in bundle.layers:
        terms.update(t.lower() for t in layer.vocabulary)
    return terms


def _effective_vocabulary(index: BundleIndex, layer: LayerDecl) -> set[str]:
    """A layer admits its own terms plus everything inherited from above."""
    return {t.lower() for cursor in (layer, *index.ancestors(layer)) for t in cursor.vocabulary}


def validate_insight(proposal: InsightProposal, bundle: ProjectBundle) -> list[Diagnostic]:
    """Insight may move upward only when it is domain-independent,
    expressible in the target layer's vocabulary, and append-only: it adds
    laws at the grandparent or abstractions at a parent. An addition that
    names an id the target already declares is left to ``commit``, which
    rejects it as E_DUP_ID."""
    index = BundleIndex.of(bundle)
    diags: list[Diagnostic] = []
    where = proposal.id
    origin = index.layers.get(proposal.origin_layer)
    target = index.layers.get(proposal.target_layer)
    if origin is None or target is None:
        return [error("E_UNKNOWN_LAYER", where, "origin or target layer not found")]
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
    referenced = list(proposal.referenced_terms)
    for text in texts:
        referenced.extend(extract_references(text))
    for ref in referenced:
        if ref.namespace == "child" or (
            target.kind == "grandparent" and ref.namespace == "parent"
        ):
            diags.append(
                error(
                    "E_DOMAIN_TERM",
                    where,
                    f"{ref.render()} is domain content relative to the "
                    f"{target.kind} layer",
                )
            )
    known = _known_terms(bundle)
    target_vocab = _effective_vocabulary(index, target)
    for text in texts:
        for token in _WORD_RE.findall(text):
            lowered = token.lower()
            if lowered in known and lowered not in target_vocab:
                diags.append(
                    error(
                        "E_FOREIGN_VOCAB",
                        where,
                        f"term {token!r} is not admitted in the {target.kind} "
                        "layer's vocabulary",
                    )
                )
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
        proposal = InsightProposal(
            id=flow.id.render(),
            origin_layer=source.id,
            target_layer=dest.id,
            statement=flow.payload,
        )
        failures = validate_insight(proposal, bundle)
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
    state's index keeps the scanner (:attr:`BundleIndex.contamination`)."""

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
        last = place = owner = None
        for ref, _, where, label, at in self.index.citations:
            if where is not last:
                last, place = where, self.place(where)
                owner = place and place[1]
            if owner is None:
                continue
            namespace = ref.namespace
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
        an inert record; owner and scope are None if no declared layer owns it."""
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
            scope = None if owner is None else self._scope.get(id(owner))
            if scope is None and owner is not None:  # the index keeps the layer alive
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
    (:data:`_DECLARED_BY`); one no declared layer owns, on the grandparent's.
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
        for layer in (owner, *index.ancestors(owner)) if owner else (index.grandparent,):
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


# ---------------------------------------------------------------------------
# Recording and resolution
# ---------------------------------------------------------------------------


def record_flow(
    bundle: ProjectBundle,
    flow: FlowEvent,
    *,
    actor: str = "engine",
    timestamp: str | None = None,
) -> ProjectBundle:
    """Record a flow event. Recording is factual: illegal movements are
    recorded too, then flagged by the scan."""
    from .audit import commit, now_utc

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
    from .audit import commit, now_utc

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
    from .audit import find_declaration

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
    from .audit import commit, now_utc

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
