"""In-memory model of a project bundle.

One record class (``records.py``) per record kind in the bundle document.
The model is plain data: invariant checking lives in the parser and the
per-subsystem validators, and every mutation goes through an operation that
appends an audit event.

Records below :class:`ProjectBundle` are frozen values, maps and free JSON
are read-only, and every list, the bundle's too, is a tuple: a write gives
the bundle new tuples (``records.replace``) and edits nothing in place.
"""

from __future__ import annotations

import enum
import re
import weakref
from functools import cached_property
from itertools import compress, count
from operator import attrgetter, is_not
from typing import Any

from .identifiers import Identifier
from .records import MISSING, field, fields, freeze, freeze_items, record

# ---------------------------------------------------------------------------
# Ordinal scales (worst -> best). Tier conservatism relies on these orders.
# ---------------------------------------------------------------------------

ALIGNMENT_LEVELS = ("mismatch", "partial", "aligned")
MEASUREMENT_LEVELS = ("failed", "conditional_proxy", "minor_limitation", "adequate")
DESIGN_LEVELS = ("incompatible", "limited", "sufficient")
REPORTING_LEVELS = ("opaque", "ambiguous", "transparent")

ASSESSMENT_DIMENSIONS = ("construct_alignment", "measurement", "design", "reporting")

LAYER_KINDS = ("grandparent", "parent", "child")
ABSTRACTION_KINDS = ("construct", "measurement_class", "design_form")
INFO_CLASSES = ("content", "measurement", "assumption", "methodological_insight")
CONTAMINATION_NATURES = ("content", "assumption", "measurement", "structural")
EVIDENCE_ROLES = (
    "primary_inference",
    "sensitivity",
    "boundary",
    "contextual",
    "measurement_evaluation",
)
FLOW_DIRECTIONS = ("upward", "downward", "horizontal")
VIOLATION_RULES = (
    "R1_upward_content",
    "R2_downward_rewrite",
    "R3_horizontal_borrowing",
    "R4_missing_contract",
    "R5_meta_engine_insulation",
)
CORRECTIVE_ACTIONS = ("quarantined", "reversed", "insight_extracted")

#: Directional implication tags a bias statement must contain.
BIAS_DIRECTION_TAGS = ("attenuates", "inflates", "reverses", "nondirectional")


class Tier(enum.IntEnum):
    """Structural evidence tiers, ordered by inferential privilege.

    Lower value = more conservative; unsplittable ambiguity resolves to min().
    """

    EXCLUDED = 0
    SUPPLEMENT = 1
    CORE = 2

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Tier":
        return cls[label.upper()]


# ---------------------------------------------------------------------------
# Record schema
# ---------------------------------------------------------------------------

# Value kinds of persisted fields.
STR, BOOL, INT, ENUM, TIER = "str", "bool", "int", "enum", "tier"
IDENT, LAYER, LIST, MAP, RECORD, JSON = "ident", "layer", "list", "map", "record", "json"


@record(frozen=True)
class Spec:
    """How one persisted field is decoded, encoded and scanned.

    ``of`` is the allowed values of an ENUM, the item :class:`Spec` of a
    LIST, or the class of a RECORD. An IDENT lists the declaration kinds it
    may ``expect`` (none: it declares rather than references), and ``owner``
    says where a bare name lives: "child" under the enclosing record's owner,
    "layer" in the declaring layer's namespace. A LAYER is a bare or
    canonical layer reference, resolved once all layers are known. A
    ``nullable`` field reads null or a missing key as None.
    ``identity`` marks the field naming the record; a record without a valid
    one is dropped before any other field is read. On the identity field of
    a declaration, ``declares`` is its declaration kind, the name an
    ``expect`` uses for it. ``key`` is the JSON key
    path when it is not the field name, and ``noun`` replaces the usual
    "expected ..." wording of a type error. ``text`` fields are scanned for
    embedded references and may be edited by resolution effects; ``body``
    fields make up a route's frozen fingerprint.
    """

    kind: str
    of: Any = None
    nullable: bool = False
    expect: tuple[str, ...] = ()
    owner: str | None = None
    identity: bool = False
    declares: str = ""
    key: tuple[str, ...] = ()
    noun: str = ""
    text: bool = False
    body: bool = False


def spec(kind: str, of: Any = None, *, default: Any = MISSING, factory: Any = MISSING, **opts):
    """A record field carrying its :class:`Spec`. A frozen record holds a
    list field's value as a tuple, and any other value frozen as free JSON
    (:func:`~.records.freeze`): a string, a number or an identifier as it
    is, and a value of a type its spec does not expect read-only."""
    return field(default=default, factory=factory, spec=Spec(kind, of, **opts),
                 convert=freeze_items if kind == LIST else freeze)


def ref(*expect: str, owner: str | None = "child", **opts) -> Spec:
    """Spec of an identifier referencing one of the ``expect`` kinds."""
    return Spec(IDENT, expect=expect, owner=owner, **opts)


# ---------------------------------------------------------------------------
# Layers and laws
# ---------------------------------------------------------------------------


@record(frozen=True)
class Law:
    """A normative grandparent statement. The four protected laws carry
    immutable_core and can never change text across versions."""

    id: Identifier = spec(IDENT, owner="layer", identity=True, declares="law")
    text: str = spec(STR, text=True)
    immutable_core: bool = spec(BOOL, default=False)
    quarantined: bool = spec(BOOL, default=False)


@record(frozen=True)
class Abstraction:
    """A parent-level domain structure: construct, measurement class, or
    design form. correspondence maps measurement-class local names to
    construct local names within the same parent."""

    id: Identifier = spec(IDENT, owner="layer", identity=True, declares="abstraction")
    kind: str = spec(ENUM, ABSTRACTION_KINDS)
    definition: str = spec(STR, text=True)
    correspondence: dict[str, str] = spec(MAP, factory=dict)
    quarantined: bool = spec(BOOL, default=False)


@record(frozen=True)
class LayerDecl:
    id: Identifier = spec(IDENT, identity=True, declares="layer")
    kind: str = spec(ENUM, LAYER_KINDS)
    version: str = spec(STR)
    parent_ref: Identifier | None = spec(LAYER, nullable=True, default=None)
    laws: tuple[Law, ...] = spec(LIST, Spec(RECORD, Law), default=())
    abstractions: tuple[Abstraction, ...] = spec(LIST, Spec(RECORD, Abstraction), default=())
    vocabulary: tuple[str, ...] = spec(LIST, Spec(STR), default=())

    @property
    def local_name(self) -> str:
        return self.id.local_name


@record
class ChangelogEntry:
    """Formal record justifying a grandparent version increment."""

    from_version: str = spec(STR)
    to_version: str = spec(STR)
    motivating_insight: str = spec(STR, text=True)
    boundary_affected: str = spec(STR, text=True)
    generalizability_reasoning: str = spec(STR, text=True)
    timestamp: str = spec(STR)


# ---------------------------------------------------------------------------
# Units and tiering
# ---------------------------------------------------------------------------


@record(frozen=True)
class Assessment:
    """One declared reading of a unit on the four ordinal dimensions plus
    the speculation flag. All five are always present; ambiguity is an
    ordinal value, never an absent field."""

    construct_alignment: str = spec(ENUM, ALIGNMENT_LEVELS)
    measurement: str = spec(ENUM, MEASUREMENT_LEVELS)
    design: str = spec(ENUM, DESIGN_LEVELS)
    reporting: str = spec(ENUM, REPORTING_LEVELS)
    speculation_required: bool = spec(BOOL)


@record(frozen=True)
class DeclaredAssumption:
    id: Identifier = spec(IDENT, owner="child", identity=True, declares="declared_assumption")
    text: str = spec(STR, text=True)
    covers: tuple[str, ...] = spec(
        LIST, Spec(ENUM, ASSESSMENT_DIMENSIONS, noun="an assessment dimension")
    )


@record(frozen=True)
class ReTierEvent:
    timestamp: str = spec(STR)
    source_of_information: str = spec(STR)
    justification: str = spec(STR)
    implications_for_route: str = spec(STR)
    old_tier: Tier = spec(TIER)
    new_tier: Tier = spec(TIER)


@record(frozen=True)
class EvidentialUnit:
    """Smallest tierable entity, with its declared assessments and the
    narrative fields the study log projects."""

    study_id: Identifier = spec(IDENT, identity=True, declares="unit")
    design_type: str = spec(STR)
    interpretations: tuple[Assessment, ...] = spec(LIST, Spec(RECORD, Assessment))
    splittable: bool = spec(BOOL, default=False)
    declared_tier: Tier | None = spec(TIER, nullable=True, default=None)
    tier_justification: str = spec(STR, default="", text=True)
    explicit_assumptions: tuple[DeclaredAssumption, ...] = spec(
        LIST, Spec(RECORD, DeclaredAssumption), default=()
    )
    retier_events: tuple[ReTierEvent, ...] = spec(LIST, Spec(RECORD, ReTierEvent), default=())
    measurement_refs: tuple[Identifier, ...] = spec(LIST, ref("abstraction", "law"), default=())
    bias_considerations: str = spec(STR, default="", text=True)
    measurement_issues: str = spec(STR, default="", text=True)
    notes: str = spec(STR, default="", text=True)
    methods_summary: str = spec(STR, default="", text=True)
    strengths: str = spec(STR, default="", text=True)
    limitations: str = spec(STR, default="", text=True)
    split_from: Identifier | None = spec(
        IDENT, expect=("unit",), owner="child", nullable=True, default=None
    )
    superseded: bool = spec(BOOL, default=False)
    quarantined: bool = spec(BOOL, default=False)


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


@record(frozen=True)
class RouteAssumption:
    id: Identifier = spec(IDENT, owner="child", identity=True, declares="assumption")
    text: str = spec(STR, text=True)
    plausibility: str = spec(STR, text=True)
    failure_modes: str = spec(STR, text=True)
    consequences_for_inference: str = spec(STR, text=True)
    supporting_units: tuple[Identifier, ...] = spec(LIST, ref("unit"), default=())
    untestable: bool = spec(BOOL, default=False)


@record(frozen=True)
class RouteRevision:
    timestamp: str = spec(STR)
    justification: str = spec(STR)
    downstream_implications: str = spec(STR)
    change_description: str = spec(STR)


@record(frozen=True)
class RejectedAlternative:
    sketch: str = spec(STR, text=True)
    rationale: str = spec(STR, text=True)


@record(frozen=True)
class Route:
    id: Identifier = spec(IDENT, identity=True, declares="route")
    project_ref: Identifier = spec(IDENT, expect=("project",), owner="child")
    construct_ref: Identifier = spec(IDENT, expect=("law", "abstraction"), owner="child", body=True)
    objective: str = spec(STR, body=True)
    assumptions: tuple[RouteAssumption, ...] = spec(LIST, Spec(RECORD, RouteAssumption), body=True)
    disconfirming_models: tuple[str, ...] = spec(LIST, Spec(STR), text=True, body=True)
    rejected_alternatives: tuple[RejectedAlternative, ...] = spec(
        LIST, Spec(RECORD, RejectedAlternative), default=()
    )
    frozen_at: str | None = spec(STR, nullable=True, noun="string timestamp", default=None)
    revisions: tuple[RouteRevision, ...] = spec(LIST, Spec(RECORD, RouteRevision), default=())
    quarantined: bool = spec(BOOL, default=False)


@record(frozen=True)
class EvidenceRoleAssignment:
    unit_ref: Identifier = spec(IDENT, expect=("unit",), owner="child")
    route_ref: Identifier = spec(IDENT, expect=("route",), owner="child")
    role: str = spec(ENUM, EVIDENCE_ROLES)


@record(frozen=True)
class ProjectDecl:
    """A child-layer project: its question, its single committed route, its
    evidence universe, and the role each unit plays."""

    id: Identifier = spec(IDENT, identity=True, declares="project")
    layer_ref: Identifier = spec(LAYER)
    question: str = spec(STR, default="")
    committed_route: Identifier | None = spec(
        IDENT, expect=("route",), owner="child", nullable=True, default=None
    )
    unit_refs: tuple[Identifier, ...] = spec(LIST, ref("unit"), default=())
    assignments: tuple[EvidenceRoleAssignment, ...] = spec(
        LIST, Spec(RECORD, EvidenceRoleAssignment), default=()
    )


# ---------------------------------------------------------------------------
# Flows, contracts, contamination
# ---------------------------------------------------------------------------


@record(frozen=True)
class FlowEvent:
    """One recorded cross-layer information movement."""

    id: Identifier = spec(IDENT, identity=True, declares="flow")
    source_layer: Identifier = spec(LAYER)
    dest_layer: Identifier = spec(LAYER)
    info_class: str = spec(ENUM, INFO_CLASSES)
    payload: str = spec(STR, text=True)
    timestamp: str = spec(STR)
    contract_ref: Identifier | None = spec(
        IDENT, expect=("contract",), nullable=True, default=None
    )
    quarantined: bool = spec(BOOL, default=False)


@record(frozen=True)
class BoundaryContract:
    """Explicit, auditable authorization for a boundary crossing. All five
    elements must be present for the contract to legalize anything."""

    id: Identifier = spec(IDENT, identity=True, declares="contract")
    info_type: str = spec(ENUM, INFO_CLASSES)
    origin_layer: Identifier = spec(LAYER)
    destination_layer: Identifier = spec(LAYER)
    legal_justification: str = spec(STR)
    no_reinterpretation_clause: bool = spec(BOOL, default=False)
    documentation_ref: str = spec(STR, default="")


@record
class ContaminationSite:
    """Where a violation was detected: a declaration field, a reference
    token inside it, or a recorded flow."""

    container: str = spec(STR)  # canonical id of the offending declaration or flow
    field: str = spec(STR, default="")
    token: str = spec(STR, default="")


@record
class ContaminationEvent:
    id: str = spec(STR)
    rule_violated: str = spec(ENUM, VIOLATION_RULES)
    direction: str = spec(ENUM, FLOW_DIRECTIONS)
    nature: str = spec(ENUM, CONTAMINATION_NATURES)
    site: ContaminationSite = spec(RECORD, ContaminationSite)
    location: str = spec(STR, default="")
    risks_introduced: str = spec(STR, default="")
    decisions_affected: list[str] = spec(LIST, Spec(STR), factory=list)
    corrective_action: str | None = spec(ENUM, CORRECTIVE_ACTIONS, nullable=True, default=None)
    versioned_update: str | None = spec(STR, nullable=True, default=None)
    timestamp: str = spec(STR, default="")
    resolved: bool = spec(BOOL, default=False)


@record
class InsightProposal:
    """The only lawful upward flow: a domain-independent, append-only
    methodological refinement, moving exactly one level up."""

    id: str
    origin_layer: Identifier
    target_layer: Identifier
    statement: str
    referenced_terms: list[Identifier] = field(factory=list)
    proposed_additions: list[dict] = field(factory=list)


# ---------------------------------------------------------------------------
# Reporting artifacts (derived, never stored in the bundle)
# ---------------------------------------------------------------------------


@record(frozen=True)
class StudyLogEntry:
    study_id: str
    design_type: str
    tier_assignment: str
    reasons_for_tiering: str
    bias_considerations: str
    measurement_definition_issues: str
    notes: str


@record(frozen=True)
class TierTableRow:
    study_id: str
    methods_summary: str
    evidence_type: str
    strengths: str
    limitations: str


@record(frozen=True)
class ReviewerBlock:
    project_ref: Identifier = spec(IDENT, expect=("project",), identity=True)
    methodological_findings: tuple[str, ...] = spec(LIST, Spec(STR))
    conceptual_insight: str = spec(STR)
    anticipated_critique_text: str = spec(STR, key=("anticipated_critique", "text"))
    anticipated_critique_refs: tuple[Identifier, ...] = spec(
        LIST, ref("unit", "route"), key=("anticipated_critique", "referenced_decisions")
    )
    disconfirming_model: str = spec(STR)
    assumptions_ref: tuple[Identifier, ...] = spec(LIST, ref("assumption"))


@record(frozen=True)
class AnalyticMemo:
    project_ref: Identifier = spec(IDENT, expect=("project",), identity=True)
    sections: dict[str, str] = spec(MAP)


MEMO_SECTIONS = (
    "interpretation_under_assumptions",
    "uncertainty",
    "boundary_evaluation",
    "supplement_roles",
    "inheritance_compliance",
)


@record
class ComplianceReport:
    verdict: str  # "compliant" | "non_compliant"
    findings: list  # list[Diagnostic]


# ---------------------------------------------------------------------------
# Audit log
# ---------------------------------------------------------------------------


_EVENT_TIMESTAMP_RE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(?:\.[0-9]+)?Z"
)


def event_timestamp_error(value: Any) -> str | None:
    """Why ``value`` is not an audit-event timestamp, or None when it has the
    one accepted form: UTC, ``YYYY-MM-DDTHH:MM:SS[.f]Z``."""
    if value.__class__ is str and _EVENT_TIMESTAMP_RE.fullmatch(value):
        return None
    return f"{value!r} is not a UTC timestamp of the form YYYY-MM-DDTHH:MM:SS[.f]Z"


def event_time_key(timestamp: str) -> str:
    """Sort key of a well-formed event timestamp. Without the ``Z`` and the
    fraction's trailing zeros, string order is time order, so
    ``...:00Z`` < ``...:00.5Z`` < ``...:01Z``."""
    return timestamp[:19] + timestamp[19:-1].rstrip("0").rstrip(".")


def snake_name(cls: type) -> str:
    """A record class's codec name: ``TierDeclared`` -> ``tier_declared``."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower()


# Event payloads. Each audit-event kind's payload is one record, the kind
# being its codec name; a field without a default is a key the payload
# must carry, and a key no field names (``engine_version``) is ignored.
# The ids a payload holds are history: a later event may remove what they
# name, so they are decoded without ``expect`` and never resolved. An
# identity field sets the owner that the bare names after it default to.


#: The fields a freeze fingerprints, with their specs on Route: what a
#: route revision replaces.
RouteBody = record(type("RouteBody", (), {
    "__annotations__": {f.name: Any for f in fields(Route) if f.spec.body},
    **{f.name: field(default=f.default, factory=f.factory, spec=f.spec)
       for f in fields(Route) if f.spec.body},
}))

#: Resolution effect op -> the keys it must carry.
EFFECT_KEYS = {
    "quarantine": ("target",),
    "edit_text": ("container", "field", "old", "new"),
    "edit_list_item": ("container", "field", "index", "old", "new"),
    "remove_ref": ("container", "field", "target"),
    "clear_ref": ("container", "field"),
    "remove_assignment": ("container", "token"),
    "remove_flow": ("target",),
    "remove_declaration": ("target",),
    "add_law": ("layer", "record"),
    "add_abstraction": ("layer", "record"),
}


@record
class ResolutionEffect:
    """One recorded change of a contamination resolution. ``op`` names the
    change and the other fields it uses (:data:`EFFECT_KEYS`); ``record``
    is the law or abstraction an ``add_*`` appends to ``layer``, decoded
    in that layer."""

    op: str = spec(ENUM, tuple(EFFECT_KEYS))
    target: Identifier | None = spec(IDENT, nullable=True, default=None)
    container: Identifier | None = spec(IDENT, nullable=True, default=None)
    field: str = spec(STR, default="")
    index: int | None = spec(INT, nullable=True, default=None)
    old: str = spec(STR, default="")
    new: str = spec(STR, default="")
    token: Identifier | None = spec(IDENT, nullable=True, default=None)
    layer: Identifier | None = spec(IDENT, nullable=True, default=None)
    record: Any = spec(JSON, nullable=True, default=None)


@record
class TierDeclared:
    unit: Identifier = spec(IDENT, identity=True)
    tier: Tier = spec(TIER)
    justification: str = spec(STR)


@record
class Retier:
    """A re-tier. The declared assumptions it replaces, if any, are named
    under the unit's owner."""

    unit: Identifier = spec(IDENT, identity=True)
    event: ReTierEvent = spec(RECORD, ReTierEvent)
    justification: str = spec(STR, default="")
    interpretations: list[Assessment] | None = spec(
        LIST, Spec(RECORD, Assessment), nullable=True, default=None
    )
    explicit_assumptions: list[DeclaredAssumption] | None = spec(
        LIST, Spec(RECORD, DeclaredAssumption), nullable=True, default=None
    )


@record
class RouteDeclared:
    project: Identifier = spec(IDENT, identity=True)
    route: Route = spec(RECORD, Route)
    committed: bool = spec(BOOL)


@record
class RouteFrozen:
    route: Identifier = spec(IDENT, identity=True)
    frozen_at: str = spec(STR, noun="string timestamp")
    body_hash: str = spec(STR)


@record
class RouteRevised:
    route: Identifier = spec(IDENT, identity=True)
    revision: RouteRevision = spec(RECORD, RouteRevision)
    body: RouteBody = spec(RECORD, RouteBody)
    body_hash: str = spec(STR)


@record
class FlowRecorded:
    flow: FlowEvent = spec(RECORD, FlowEvent)


@record
class ContaminationFlagged:
    contamination: ContaminationEvent = spec(RECORD, ContaminationEvent)


@record
class ContaminationResolved:
    contamination: ContaminationEvent = spec(RECORD, ContaminationEvent)
    action: str = spec(ENUM, CORRECTIVE_ACTIONS)
    effects: list[ResolutionEffect] = spec(LIST, Spec(RECORD, ResolutionEffect))


@record
class VersionBumped:
    """A grandparent version bump; its laws are the grandparent's."""

    entry: ChangelogEntry = spec(RECORD, ChangelogEntry)
    laws: list[Law] = spec(LIST, Spec(RECORD, Law))


@record
class UnitSplit:
    source: Identifier = spec(IDENT, identity=True)
    units: list[EvidentialUnit] = spec(LIST, Spec(RECORD, EvidentialUnit))


#: Declaration kind -> the class of the record a payload adds as one.
ADDED_KINDS = {"unit": EvidentialUnit, "law": Law, "abstraction": Abstraction,
               "contract": BoundaryContract}


@record
class DeclarationAdded:
    """A unit (listed by ``project``, if given), a contract, or a law or an
    abstraction declared by ``layer``; ``record`` is decoded as such."""

    decl_kind: str = spec(ENUM, tuple(ADDED_KINDS))
    record: Any = spec(JSON)
    layer: Identifier | None = spec(IDENT, nullable=True, default=None)
    project: Identifier | None = spec(IDENT, nullable=True, default=None)


@record
class DeclarationQuarantined:
    target: Identifier = spec(IDENT, identity=True)


#: Audit-event kind -> its payload record. A parse reads an unknown kind as the
#: first, so the decode-differential fixture pins this order.
EVENT_PAYLOADS: dict[str, type] = {
    snake_name(cls): cls
    for cls in (
        TierDeclared,
        Retier,
        RouteDeclared,
        RouteFrozen,
        RouteRevised,
        FlowRecorded,
        ContaminationFlagged,
        ContaminationResolved,
        VersionBumped,
        UnitSplit,
        DeclarationAdded,
        DeclarationQuarantined,
    )
}
EVENT_KINDS = tuple(EVENT_PAYLOADS)


@record(frozen=True)
class AuditEvent:
    sequence: int = spec(INT, identity=True, noun="integer sequence")
    timestamp: str = spec(STR)
    actor: str = spec(STR)
    kind: str = spec(ENUM, EVENT_KINDS)
    payload: dict[str, Any] = spec(JSON)
    affected: tuple[str, ...] = spec(LIST, Spec(STR), default=())


# ---------------------------------------------------------------------------
# The bundle
# ---------------------------------------------------------------------------

@record
class ProjectBundle:
    """Root document: the project's complete epistemic ledger. Its lists
    are tuples, so a state of a bundle is the tuples it holds."""

    recap_version: str = spec(STR)
    layers: tuple[LayerDecl, ...] = spec(LIST, Spec(RECORD, LayerDecl), default=())
    projects: tuple[ProjectDecl, ...] = spec(LIST, Spec(RECORD, ProjectDecl), default=())
    units: tuple[EvidentialUnit, ...] = spec(LIST, Spec(RECORD, EvidentialUnit), default=())
    routes: tuple[Route, ...] = spec(LIST, Spec(RECORD, Route), default=())
    flows: tuple[FlowEvent, ...] = spec(LIST, Spec(RECORD, FlowEvent), default=())
    contracts: tuple[BoundaryContract, ...] = spec(LIST, Spec(RECORD, BoundaryContract), default=())
    events: tuple[AuditEvent, ...] = spec(LIST, Spec(RECORD, AuditEvent), default=())
    reviewer_blocks: tuple[ReviewerBlock, ...] = spec(LIST, Spec(RECORD, ReviewerBlock), default=())
    memos: tuple[AnalyticMemo, ...] = spec(LIST, Spec(RECORD, AnalyticMemo), default=())

    def __setattr__(self, name: str, value: Any) -> None:
        # A list is stored as a tuple, also in a __dict__ set whole (__init__).
        if name == "__dict__":
            value = {k: tuple(v) if isinstance(v, list) else v for k, v in value.items()}
        object.__setattr__(self, name, tuple(value) if isinstance(value, list) else value)

    # -- lookups ------------------------------------------------------------

    def grandparent(self) -> LayerDecl:
        for layer in self.layers:
            if layer.kind == "grandparent":
                return layer
        raise LookupError("bundle has no grandparent layer")

    def next_sequence(self) -> int:
        return self.events[-1].sequence + 1 if self.events else 1


def layer_scopes(layers: tuple[LayerDecl, ...]) -> dict[tuple[str, str], LayerDecl]:
    """``(namespace, owner)`` of the ids a layer declares -> the first of
    ``layers`` declaring such ids: ``("gp", "")`` for the grandparent, and
    the layer's namespace and local name for any other. An id names a
    declared layer if its namespace and owner are a key here."""
    out: dict[tuple[str, str], LayerDecl] = {}
    for layer in layers:
        ns = layer.id.namespace
        out.setdefault((ns, "" if ns == "gp" else layer.id.local_name), layer)
    return out


#: The bundle's tuples of records, the state an index captures.
_LISTS = tuple(f.name for f in fields(ProjectBundle) if f.spec.kind == LIST)


class BundleIndex:
    """Read-only lookups over one state of a bundle: the engine's only
    lookup by id.

    The index captures the tuples the bundle holds when it is built, in
    :attr:`state`, and builds every map from those; it holds no reference
    to the bundle itself. Each map is built on first use, and shared by
    every caller of the index, which only reads it; where ids repeat, the
    first declaration wins.

    Every caller takes the index through :meth:`of`, which keeps the index
    it built last and reuses it for any bundle holding the very same
    tuples, so the reads of one state share one index, one citation list
    (:attr:`citations`), one contamination scan and reference graph
    (:attr:`contamination`) and one row order and study log per project
    (:attr:`study_logs`).
    """

    def __init__(self, bundle: ProjectBundle):
        state = object.__new__(ProjectBundle)
        state.__dict__ = bundle.__dict__.copy()
        #: The indexed state: a bundle holding the indexed bundle's tuples.
        self.state = state
        #: id() of a project -> (the project, its active units in row order,
        #: its study log's rows or the OperationRejected raised building it,
        #: or None until built), once a report has read it (``reporting``).
        self.study_logs: dict[int, tuple[ProjectDecl, list, Any]] = {}
        self._ancestors: dict[Identifier | None, tuple[LayerDecl, ...]] = {}
        self._assignments: dict[int, tuple[ProjectDecl, dict]] = {}
        #: (events, their payloads): the last decoded log, this state's as
        #: the parse decoded it, or one taken over from the index replaced.
        self._decoded: tuple[tuple, tuple] = ((), ())

    @classmethod
    def of(cls, bundle: ProjectBundle) -> "BundleIndex":
        """The index of ``bundle``'s current state: the index built last if
        ``bundle`` holds the tuples it captured (a clone before its first
        write, or :attr:`state`, does), else a new one, kept instead until
        the bundle that built it is dropped."""
        global _kept
        if _kept is not None and _kept[1]._holds(bundle):
            return _kept[1]
        index = cls(bundle)
        # Decodes pass along one log only: a dropped bundle's are not kept.
        decoded = _kept[1]._decoded if _kept is not None else ((), ())
        if decoded[0] and bundle.events and decoded[0][0] is bundle.events[0]:
            index._decoded = decoded
        _kept = (weakref.ref(bundle, _forget), index)
        return index

    def _holds(self, bundle: ProjectBundle) -> bool:
        """Whether ``bundle`` holds the very tuples captured."""
        values, held = bundle.__dict__, self.state.__dict__
        return all(values[name] is held[name] for name in _LISTS)

    @cached_property
    def layers(self) -> dict[Identifier, LayerDecl]:
        return _first_by(self.state.layers, "id")

    @cached_property
    def grandparent(self) -> LayerDecl | None:
        return next((l for l in self.state.layers if l.kind == "grandparent"), None)

    @cached_property
    def _layers_by_scope(self) -> dict[tuple[str, str], LayerDecl]:
        return layer_scopes(self.state.layers)

    def owner(self, ident: Identifier) -> LayerDecl | None:
        """The layer that declares ``ident`` (:func:`layer_scopes`): the
        grandparent for a ``gp:`` id, else the first layer whose id has the
        namespace of ``ident`` and its owner as local name. It is never None
        for a declaration of a state that parses or that a commit wrote:
        both reject an id that names no declared layer."""
        return self._layers_by_scope.get((ident.namespace, ident.owner))

    @cached_property
    def declarations(self) -> dict[Identifier, tuple[Any, tuple]]:
        """Canonical id -> (the first declaration of it in document order,
        its path: the (field, index) steps from the bundle down to it),
        for every kind of declaration (:func:`~.bundle.declaration_map`)."""
        from .bundle import declaration_map

        return declaration_map(self.state)[0]

    @cached_property
    def citations(self) -> list[tuple]:
        """Every reference the state holds (:func:`~.bundle.citations`), in
        the order a parse meets them. A parse hands over the list it built
        for the state it returns; any other state is walked once."""
        from . import bundle

        return bundle.citations(self.state, None)

    @cached_property
    def contamination(self) -> Any:
        """The contamination scan of this state, run on first use."""
        from .contamination import _Scanner

        return _Scanner(self)

    @cached_property
    def payloads(self) -> tuple[Any, ...]:
        """For each event of the state, in log order, the record its
        payload decodes to (:func:`~.bundle.decode_payload`), or the
        ValueError raised: each reader of the log picks its records by
        class, and the verdict reports each error once. The decodes of the
        log this one goes on from are taken over (:meth:`of`), so a check
        after each write decodes only the events the write appended."""
        from .bundle import decode_payload

        events, done = self._decoded
        log = self.state.events
        same = next(compress(count(), map(is_not, events, log)), min(len(events), len(log)))
        out = list(done[:same])
        for event in log[same:]:
            try:
                out.append(decode_payload(event.kind, event.payload))
            except ValueError as exc:
                out.append(exc)
        self._decoded = log, tuple(out)
        return self._decoded[1]

    @cached_property
    def units(self) -> dict[Identifier, EvidentialUnit]:
        return _first_by(self.state.units, "study_id")

    @cached_property
    def routes(self) -> dict[Identifier, Route]:
        return _first_by(self.state.routes, "id")

    @cached_property
    def projects(self) -> dict[Identifier, ProjectDecl]:
        return _first_by(self.state.projects, "id")

    @cached_property
    def contracts(self) -> dict[Identifier, BoundaryContract]:
        return _first_by(self.state.contracts, "id")

    @cached_property
    def contracts_between(self) -> dict[tuple[Identifier, Identifier], list[BoundaryContract]]:
        """(origin layer, destination layer) -> contracts, in bundle order."""
        return _group_by(self.state.contracts, "origin_layer", "destination_layer")

    @cached_property
    def reviewer_blocks(self) -> dict[Identifier, list[ReviewerBlock]]:
        return _group_by(self.state.reviewer_blocks, "project_ref")

    @cached_property
    def memos(self) -> dict[Identifier, list[AnalyticMemo]]:
        return _group_by(self.state.memos, "project_ref")

    def ancestors(self, layer: LayerDecl) -> tuple[LayerDecl, ...]:
        """The layers above ``layer``, nearest first."""
        chain = self._ancestors.get(layer.parent_ref)
        if chain is None:
            above = self.layers.get(layer.parent_ref)
            chain = () if above is None else (above, *self.ancestors(above))
            self._ancestors[layer.parent_ref] = chain
        return chain

    def active_units(self, project: ProjectDecl) -> list[EvidentialUnit]:
        """The project's units that are neither superseded nor quarantined,
        in ``unit_refs`` order; unresolved refs are skipped."""
        units = (self.units.get(ref) for ref in project.unit_refs)
        return [u for u in units if u is not None and not u.superseded and not u.quarantined]

    def assignment(self, project: ProjectDecl, unit_ref: Identifier) -> EvidenceRoleAssignment | None:
        """The project's first role assignment for ``unit_ref``."""
        # Keyed by object identity; the entry holds the project so the key
        # cannot be reused while the index lives.
        entry = self._assignments.get(id(project))
        if entry is None:
            entry = (project, _first_by(project.assignments, "unit_ref"))
            self._assignments[id(project)] = entry
        return entry[1].get(unit_ref)


#: (a weak reference to a bundle, the index of its state) for the index
#: :meth:`BundleIndex.of` built last. When the bundle goes, so does the
#: entry, and with it the records only the index still held.
_kept: tuple[weakref.ref, BundleIndex] | None = None


def _forget(ref: weakref.ref) -> None:
    global _kept
    if _kept is not None and _kept[0] is ref:
        _kept = None


def _first_by(records: list, *names: str) -> dict:
    """Records keyed by one attribute, or by a tuple of several; the first
    record with a key is the one kept."""
    backwards = records[::-1]  # filled back to front
    return dict(zip(map(attrgetter(*names), backwards), backwards))


def _group_by(records: list, *names: str) -> dict:
    """Records keyed by one attribute, or by a tuple of several."""
    key = attrgetter(*names)
    out: dict = {}
    for record in records:
        out.setdefault(key(record), []).append(record)
    return out
