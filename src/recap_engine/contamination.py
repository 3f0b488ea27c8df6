"""Flow permissions, contamination detection, tracing, and correction.

The layer graph is an information-gated system: constraints flow downward,
only validated methodological insight flows upward one level at a time, and
lateral transfers need an explicit boundary contract. An identifier's
namespace is its provenance, which makes every check here decidable without
reading prose.
"""

from __future__ import annotations

import re

from .bundle import CODECS, PLANS, REF, REFS, TEXT, TEXTS, decode, encode, field_effect
from .bundle import render_position
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
from .tiering import effective_tier

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
    # a scan builds a verdict per flow and per reference it checks.
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


def _contract_is_complete(contract: BoundaryContract) -> bool:
    return not validate_contract(contract)


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
            and _contract_is_complete(cited)
        ):
            return FlowVerdict.ok("authorized by boundary contract")
        return FlowVerdict.violation(
            "horizontal",
            "R4_missing_contract",
            "cited contract does not authorize this transfer",
        )
    near_miss = False
    for contract in index.contracts_between.get((source, dest), ()):
        if contract.info_type == info_class and _contract_is_complete(contract):
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


def _classify_field(field_name: str) -> str:
    if field_name in ("measurement_refs", "measurement_issues"):
        return "measurement"
    if field_name in (
        "text",
        "plausibility",
        "failure_modes",
        "consequences_for_inference",
        "supporting_units",
    ):
        return "assumption"
    return "content"


#: The sections the spec-driven walk checks, in scan order; flows are
#: judged by the flow matrix instead.
_SECTIONS = ("layers", "units", "routes", "projects")
#: A record with either flag set is inert: the walk skips it.
_INERT = ("quarantined", "superseded")

#: Persisted class -> its scan plan ``(key, inert, steps)``: the record's
#: :data:`~.bundle.PLANS` entry, the flags that make it inert, and each
#: step as ``(step, field, nature, nested scan plan)``, stably sorted by
#: step kind: texts, lists of declarations, lists of references, lists of
#: texts, single references, lists of records without an id.
_PLANS: dict[type, tuple] = {}
for _cls, (_key, _steps) in PLANS.items():  # a nested class comes before its holder
    _PLANS[_cls] = _key, tuple(name for name in _INERT if name in CODECS[_cls].specs), tuple(
        (step, name, _classify_field(name), _PLANS.get(of))  # a nested list's plan
        for step, name, _, of in sorted(_steps, key=lambda step: step[0])
    )
_ROOT = tuple(step for name in _SECTIONS for step in _PLANS[ProjectBundle][2] if step[1] == name)


#: The layer kind allowed to declare each class; a law or an abstraction
#: declared elsewhere re-legislates inherited structure locally (R2). The
#: walk flags one as it enters it, which it does only because both plans
#: have text steps: a list whose records' plans have none is not walked.
_DECLARED_BY = {Law: "grandparent", Abstraction: "parent"}


class _Scanner:
    """Every reference the record specs name, checked by one walk over
    :data:`_SECTIONS` that follows each class's plan, against the layer
    owning the top-level record, and then the flow matrix. A finding is
    sited at the nearest declaration; inside a record without an id, at
    that record's list field, and located at the record. Sites and
    locations are rendered only for a finding, and a text is searched only
    if it holds a namespace prefix."""

    def __init__(self, index: BundleIndex):
        self.bundle = index.state
        self.index = index
        self.events: list[ContaminationEvent] = []
        self._scope: dict[int, frozenset[Identifier]] = {}

    def flag(self, rule: str, direction: str, nature: str, container: Identifier,
             location: str, field: str = "", token: Identifier | None = None) -> None:
        # Every field is passed positionally, the record __init__'s fast
        # path: the event's id, rule, direction, nature, site and location,
        # then its defaults (no risks, decisions, action, update, timestamp;
        # unresolved).
        site = ContaminationSite(
            container.render(), field, "" if token is None else token.render()
        )
        self.events.append(
            ContaminationEvent(
                "", rule, direction, nature, site, location, "", [], None, None, "", False
            )
        )

    def scan_flows(self) -> None:
        nature_of = {
            "content": "content",
            "measurement": "measurement",
            "assumption": "assumption",
            "methodological_insight": "content",
        }
        for fi, flow in enumerate(self.bundle.flows):
            if flow.quarantined:
                continue
            verdict = check_flow(flow, self.bundle)
            if verdict.allowed:
                continue
            self.flag(
                verdict.rule or "R1_upward_content",
                verdict.direction or "upward",
                nature_of[flow.info_class],
                flow.id,
                f"flows[{fi}]",
                "payload",
            )

    def _same_or_above(self, layer: LayerDecl) -> frozenset[Identifier]:
        """The ids of ``layer`` and of the layers above it."""
        ids = self._scope.get(id(layer))
        if ids is None:
            ids = frozenset(a.id for a in (layer, *self.index.ancestors(layer)))
            self._scope[id(layer)] = ids  # the index keeps the layer alive
        return ids

    def check(self, owner: LayerDecl, ref: Identifier, container, field, nature, where) -> None:
        """Content cited upward from a layer below is R1; a reference to a
        layer that is neither ``owner`` nor above it is lateral, legal only
        under a boundary contract."""
        if owner.kind != "child" and (
            ref.namespace == "child" or (owner.kind == "grandparent" and ref.namespace == "parent")
        ):
            location = render_position(where)
            self.flag("R1_upward_content", "upward", nature, container, location, field, ref)
            return
        ref_owner = self.index.owner(ref)
        if ref_owner is None or ref_owner.id in self._same_or_above(owner):
            return
        verdict = _horizontal_verdict(self.index, ref_owner.id, owner.id, nature, None)
        if not verdict.allowed:
            rule = verdict.rule or "R3_horizontal_borrowing"
            self.flag(rule, "horizontal", nature, container, render_position(where), field, ref)

    def walk(self, owner, record, steps, container, where, site=None) -> None:
        """Check ``record``'s references. ``owner`` is None above the
        sections, and ``site`` is ``(field, nature, where)`` inside a record
        without an id."""
        values = record.__dict__
        for step, name, nature, nested in steps:
            value = values[name]
            if step == TEXT:
                if "child:" in value or "parent:" in value or "gp:" in value:
                    at = site or (name, nature, (where, name, None))
                    for ref in extract_references(value):
                        self.check(owner, ref, container, *at)
            elif step == REFS:
                for k, ref in enumerate(value):
                    self.check(owner, ref, container, *(site or (name, nature, (where, name, k))))
            elif step == REF:
                if value is not None:
                    at = site or (name, nature, (where, name, None))
                    self.check(owner, value, container, *at)
            elif step == TEXTS:
                for j, text in enumerate(value):
                    if "child:" in text or "parent:" in text or "gp:" in text:
                        at = site or (f"{name}[{j}]", nature, (where, name, j))
                        for ref in extract_references(text):
                            self.check(owner, ref, container, *at)
            else:
                key, inert, inner = nested
                for j, item in enumerate(value):
                    fields = item.__dict__
                    if inert and any(map(fields.__getitem__, inert)):
                        continue
                    at = (where, name, j)
                    if key is None:
                        self.walk(owner, item, inner, container, at, site or (name, nature, at))
                        continue
                    ident, layer = fields[key], owner
                    if layer is None:  # a section's record; a layer is its own owner
                        layer = item if item.__class__ is LayerDecl else self.index.owner(ident)
                    elif item.__class__ in _DECLARED_BY and (
                        _DECLARED_BY[item.__class__] != layer.kind
                    ):
                        self.flag("R2_downward_rewrite", "downward", "structural", ident,
                                  render_position(at))
                    if layer is not None:
                        self.walk(layer, item, inner, ident, at, site)


_DIRECTION_SEVERITY = {"upward": 0, "downward": 1, "horizontal": 2}


def detect_contamination(bundle: ProjectBundle) -> list[ContaminationEvent]:
    """The scan's events, numbered, upward first: :func:`scan_bundle`
    without the downstream trace. The scan runs once per bundle state
    (:meth:`BundleIndex.of`); each call returns its own copies of the
    events, which the caller may change."""
    index = BundleIndex.of(bundle)
    if index.contamination is None:
        index.contamination = _detect(index)
    return [
        replace(event, site=replace(event.site), decisions_affected=list(event.decisions_affected))
        for event in index.contamination
    ]


def _detect(index: BundleIndex) -> tuple[ContaminationEvent, ...]:
    """One scanner run over the state ``index`` captured."""
    scanner = _Scanner(index)
    scanner.walk(None, index.state, _ROOT, None, None)
    scanner.scan_flows()
    ordered = sorted(
        enumerate(scanner.events),
        key=lambda pair: (_DIRECTION_SEVERITY[pair[1].direction], pair[0]),
    )
    events = tuple(event for _, event in ordered)
    for i, event in enumerate(events):
        event.id = f"CONT-{i + 1:04d}"
    return events


def scan_bundle(bundle: ProjectBundle) -> list[ContaminationEvent]:
    """Detect every contamination event currently present in the bundle.

    Pure over the bundle; quarantined and superseded declarations are inert
    and produce nothing. A clean bundle returns an empty list. Upward events
    come first: they are the most severe class. Each event carries its
    :func:`trace_downstream` result; the reference graph is built once per
    scan, and only when something was flagged.
    """
    events = detect_contamination(bundle)
    graph = build_reference_graph(bundle) if events else {}
    reached: dict[str, list[str]] = {}
    for event in events:
        container = event.site.container
        if container not in reached:
            reached[container] = _reach(graph, container)
        event.decisions_affected = list(reached[container])
    return events


# ---------------------------------------------------------------------------
# Downstream tracing
# ---------------------------------------------------------------------------


def build_reference_graph(bundle: ProjectBundle) -> dict[str, set[str]]:
    """Dependency edges: node -> the decisions and rows depending on it.

    Synthetic nodes name derived decisions: ``tier:<unit>``,
    ``coherence:<route>``, ``studylog:<unit>``, ``tiertable:<unit>``.
    """
    graph: dict[str, set[str]] = {}

    def edge(src: str, dst: str) -> None:
        dsts = graph.get(src)
        if dsts is None:  # a set only for a source not seen before
            graph[src] = {dst}
        else:
            dsts.add(dst)

    index = BundleIndex.of(bundle)
    gp = index.grandparent
    laws = [] if gp is None else [law for law in gp.laws if not law.quarantined]
    for project in bundle.projects:
        project_key = project.id.render()
        for law in laws:
            edge(law.id.render(), project_key)
        child = index.owner(project.id)
        parent = None if child is None else index.layers.get(child.parent_ref)
        if parent is not None and parent.kind == "parent":
            for ab in parent.abstractions:
                if not ab.quarantined:
                    edge(ab.id.render(), project_key)
    active_units = [
        u for u in bundle.units if not u.quarantined and not u.superseded
    ]
    assignments = {}
    for project in bundle.projects:
        for assignment in project.assignments:
            assignments[assignment.unit_ref.render()] = assignment
    for unit in active_units:
        key = unit.study_id.render()
        tier_key = f"tier:{key}"
        edge(key, tier_key)
        edge(tier_key, f"studylog:{key}")
        tier = effective_tier(unit)
        if tier in (Tier.CORE, Tier.SUPPLEMENT):
            edge(tier_key, f"tiertable:{key}")
        assignment = assignments.get(key)
        if assignment is not None:
            edge(tier_key, f"coherence:{assignment.route_ref.render()}")
        for ref in unit.measurement_refs:
            edge(ref.render(), key)
    for route in bundle.routes:
        if route.quarantined:
            continue
        route_key = route.id.render()
        edge(route_key, f"coherence:{route_key}")
        for assumption in route.assumptions:
            edge(assumption.id.render(), f"coherence:{route_key}")
            for ref in assumption.supporting_units:
                edge(ref.render(), assumption.id.render())
    return graph


def trace_downstream(event: ContaminationEvent, bundle: ProjectBundle) -> list[str]:
    """Transitive closure from the contaminated declaration to the tier
    decisions, route coherence, and report rows that depend on it."""
    return _reach(build_reference_graph(bundle), event.site.container)


def _reach(graph: dict[str, set[str]], start: str) -> list[str]:
    """The nodes reachable from ``start``, sorted."""
    seen: set[str] = set()
    frontier = list(graph.get(start, ()))
    while frontier:
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(graph.get(node, ()))
    return sorted(seen)


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
