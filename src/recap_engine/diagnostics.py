"""Structured diagnostics with stable codes.

Every check in the engine reports findings as :class:`Diagnostic` records so
that CLI output, compliance reports, and tests all speak the same language.
Codes are stable API: `E_*` are error severity, `W_*` warnings, `R?_*` are
the flow-law violation classes, and `R_*` are tiering rule identifiers used
in decision explanations.
"""

from __future__ import annotations

import enum

from .records import record


class Severity(enum.IntEnum):
    ERROR = 0
    WARNING = 1
    INFO = 2

    def label(self) -> str:
        return self.name.lower()


@record(frozen=True)
class Diagnostic:
    code: str
    location: str
    message: str
    severity: Severity = Severity.ERROR

    def render(self) -> str:
        anchor = RULE_ANCHORS.get(self.code, "")
        suffix = f" [{anchor}]" if anchor else ""
        return f"{self.code} {self.location} {self.message}{suffix}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.label(),
            "location": self.location,
            "message": self.message,
        }


class RecapError(Exception):
    """Base class for engine errors."""


class OperationRejected(RecapError):
    """A mutating or constructive operation refused to run.

    Rejection is atomic: the bundle is untouched when this is raised.
    """

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        summary = "; ".join(d.code for d in self.diagnostics) or "rejected"
        super().__init__(summary)


def error(code: str, location: str, message: str) -> Diagnostic:
    return Diagnostic(code, location, message, Severity.ERROR)


def warning(code: str, location: str, message: str) -> Diagnostic:
    return Diagnostic(code, location, message, Severity.WARNING)


def reject(code: str, location: str, message: str) -> OperationRejected:
    return OperationRejected([error(code, location, message)])


# ---------------------------------------------------------------------------
# Code registry
# ---------------------------------------------------------------------------

#: Short anchor naming the governing framework rule for a code. Shown in
#: rendered diagnostics so every automated action maps back to a documented
#: rule.
RULE_ANCHORS: dict[str, str] = {
    "E_SECOND_ROUTE": "law:one_route",
    "E_NO_DISCONFIRMING": "law:disconfirming_model",
    "E_NO_ASSUMPTIONS": "law:declared_assumptions",
    "E_SILENT_REVISION": "law:versioned_revision",
    "E_SILENT_RETIER": "law:versioned_retier",
    "E_CORE_TOUCHED": "law:grandparent_insulation",
    "E_LAW_RESCINDED": "law:append_only_laws",
    "E_LAW_REWRITTEN": "law:append_only_laws",
    "E_UPWARD_CONTENT": "rule:R1_upward_content",
    "R1_upward_content": "rule:R1_upward_content",
    "R2_downward_rewrite": "rule:R2_downward_rewrite",
    "R3_horizontal_borrowing": "rule:R3_horizontal_borrowing",
    "R4_missing_contract": "rule:R4_boundary_contract",
    "R5_meta_engine_insulation": "rule:R5_meta_engine_insulation",
    "E_DOMAIN_TERM": "rule:R5_meta_engine_insulation",
    "E_FOREIGN_VOCAB": "rule:R5_meta_engine_insulation",
    "E_REWRITE_ATTEMPT": "law:refine_not_rewrite",
    "E_SUPPLEMENT_PRIMARY": "law:tier_roles",
    "E_EXCLUDED_ASSIGNED": "law:tier_roles",
    "E_CORE_OFF_ROUTE": "law:route_coherence",
    "E_TIER_MISMATCH": "tiering:deterministic_table",
    "E_NO_JUSTIFICATION": "tiering:step5_justification",
    "E_MUST_SPLIT": "tiering:ambiguity_rule3",
}

#: code -> (one-line summary, rule text printed by `explain`).
CODE_REGISTRY: dict[str, tuple[str, str]] = {
    # bundle-format
    "E_SYNTAX": (
        "malformed document",
        "The bundle must be one well-formed document with the canonical "
        "top-level keys and correctly shaped records.",
    ),
    "E_UNRESOLVED_REF": (
        "dangling identifier",
        "Every identifier referenced anywhere in the bundle must resolve to "
        "exactly one declaration.",
    ),
    "E_DUP_ID": (
        "duplicate declaration",
        "Each identifier may be declared at most once across the whole bundle.",
    ),
    "E_NO_GRANDPARENT": (
        "grandparent layer count is not one",
        "A bundle declares exactly one grandparent layer; it is the root of "
        "the inheritance tree.",
    ),
    "W_UNKNOWN_KEY": (
        "unknown top-level key",
        "Unknown top-level keys are tolerated for forward compatibility but "
        "carry no meaning in this version.",
    ),
    # layer-registry
    "E_UNKNOWN_LAYER": ("layer id not found", "The named layer is not declared."),
    "E_NOT_CHILD": (
        "layer is not a child",
        "Constraint resolution is defined for child layers only.",
    ),
    "E_LAW_RESCINDED": (
        "law removed",
        "Grandparent laws may be expanded but never rescinded; every law id "
        "present in an older version must persist in all newer versions.",
    ),
    "E_LAW_REWRITTEN": (
        "law text changed",
        "A law that persists across versions must keep byte-identical text; "
        "refinement happens by adding laws, not editing them.",
    ),
    "E_CORE_TOUCHED": (
        "protected law altered",
        "The four protected laws (anti-reification, one-route, "
        "construct-measurement separation, grandparent insulation) can never "
        "be modified, softened, or unflagged.",
    ),
    "E_CORE_LAW_MISSING": (
        "protected law absent",
        "Every grandparent layer carries the four protected laws; a bundle "
        "without them is structurally incomplete.",
    ),
    "E_CORE_FLAG": (
        "protected flag misused",
        "Only the four protected laws may carry the immutable-core flag.",
    ),
    "E_CHANGELOG_INCOMPLETE": (
        "changelog entry incomplete",
        "A version bump must document the motivating insight, the boundary "
        "affected, and the reasoning for generalizability.",
    ),
    "E_VERSION_ORDER": (
        "version does not advance",
        "The target version of a bump must be strictly greater than the "
        "source version under v<major>.<minor> ordering.",
    ),
    "E_VERSION_STALE": (
        "bump starts from a stale version",
        "A changelog entry must start from the grandparent's current version.",
    ),
    "E_UPWARD_CONTENT": (
        "domain content in meta-layer change",
        "Only methodological reasoning is admissible in grandparent-level "
        "changes; references to parent or child declarations are domain "
        "content and are barred.",
    ),
    # tiering-engine
    "E_MUST_SPLIT": (
        "splittable unit not split",
        "A unit with multiple interpretations must be split when possible; "
        "conservative merging applies only to unsplittable units.",
    ),
    "E_TIER_MISMATCH": (
        "declared tier disagrees with the decision table",
        "Tier assignment is a deterministic function of the declared "
        "assessment; a declaration that disagrees with the table is "
        "non-compliant.",
    ),
    "E_NO_JUSTIFICATION": (
        "tier declared without justification",
        "Tiering without justification is non-compliant; every declared tier "
        "carries a nonempty justification.",
    ),
    "E_TIER_UNDECLARED": (
        "unit has no declared tier",
        "Every evidential unit in a project must carry a declared tier with "
        "justification before the project can be judged compliant.",
    ),
    "E_NOT_SPLITTABLE": (
        "unit is not splittable",
        "Splitting applies only to units the author has declared splittable.",
    ),
    "E_NAME_ARITY": (
        "split names do not match interpretations",
        "Splitting a unit requires one fresh unique name per interpretation.",
    ),
    "E_SILENT_RETIER": (
        "tier changed without a complete event",
        "Re-tiering requires a timestamped event carrying the source of new "
        "information, the justification, and the route implications; silent "
        "modification is prohibited.",
    ),
    "E_STALE_OLD_TIER": (
        "re-tier event starts from the wrong tier",
        "A re-tier event must name the unit's current effective tier as its "
        "starting point.",
    ),
    # routing-engine
    "E_SECOND_ROUTE": (
        "second committed route",
        "A project commits to exactly one inferential route; comparison is "
        "exploratory, commitment is singular.",
    ),
    "E_NO_DISCONFIRMING": (
        "no disconfirming model",
        "Every route must list at least one plausible alternative capable of "
        "undermining its claim.",
    ),
    "E_NO_ASSUMPTIONS": (
        "no route assumptions",
        "A route must declare the assumptions that let evidence mean anything "
        "under it.",
    ),
    "E_NO_ROUTE": (
        "no committed route",
        "The operation requires a committed route on the project.",
    ),
    "E_ALREADY_FROZEN": (
        "route already frozen",
        "Freezing is a one-time transition; later changes go through "
        "versioned revisions.",
    ),
    "E_ROUTE_NOT_FROZEN": (
        "route is not frozen",
        "Revision records apply to frozen routes; before freezing, the route "
        "is still being drafted.",
    ),
    "E_INCOHERENT": (
        "route incoherent with evidence",
        "A route may be frozen (or revised) only while its assumptions cohere "
        "with the tiered evidence.",
    ),
    "E_SILENT_REVISION": (
        "frozen route mutated without a revision record",
        "After freezing, any change to the route body requires a justified, "
        "timestamped revision record; the recorded fingerprint must match the "
        "serialized body.",
    ),
    "E_CORE_OFF_ROUTE": (
        "core unit off the committed route",
        "Every core-tier unit serves primary inference on the committed "
        "route; core evidence cannot sit idle or serve side roles.",
    ),
    "E_SUPPLEMENT_PRIMARY": (
        "supplement unit in a primary role",
        "Supplement evidence is structurally secondary: sensitivity, "
        "boundary, contextual, or measurement-evaluation roles only.",
    ),
    "E_EXCLUDED_ASSIGNED": (
        "excluded unit holds a role",
        "Excluded units are documented but never participate in inference.",
    ),
    "E_ASSUMPTION_UNANCHORED": (
        "assumption cites no evidence",
        "Each route assumption lists at least one supporting unit or is "
        "explicitly marked untestable by evidence.",
    ),
    "E_DUP_ASSIGNMENT": (
        "unit holds two role assignments",
        "No unit may take multiple routes or hold more than one evidence "
        "role.",
    ),
    "W_SUPPLEMENT_UNASSIGNED": (
        "supplement unit has no role assignment",
        "Supplement units normally carry an explicit secondary role.",
    ),
    "W_FREEZE_UNRECORDED": (
        "freeze not backed by an event",
        "A frozen-at stamp without a recorded freeze event cannot be audited "
        "for silent revision.",
    ),
    # contamination-governor
    "R1_upward_content": (
        "upward content flow",
        "Domain content, measurements, and assumptions may never move to a "
        "higher layer under any circumstances; no contract legalizes it.",
    ),
    "R2_downward_rewrite": (
        "downward rewrite of inherited law",
        "Neither a parent nor a child may modify, soften, override, or "
        "locally re-declare the laws and abstractions it inherits.",
    ),
    "R3_horizontal_borrowing": (
        "horizontal borrowing without contract",
        "Assumptions, measurements, and conventions may not migrate between "
        "sibling modules without an explicit boundary contract.",
    ),
    "R4_missing_contract": (
        "boundary contract does not authorize this transfer",
        "A cross-boundary transfer must cite a complete contract matching the "
        "information type, origin, and destination.",
    ),
    "R5_meta_engine_insulation": (
        "meta-engine insulation breached",
        "Only abstracted methodological insight, brokered one level at a "
        "time and stripped of domain content, may reach the grandparent.",
    ),
    "E_DOMAIN_TERM": (
        "insight references domain identifiers",
        "An upward insight must be independent of any lower-layer "
        "declaration; referencing one makes it domain content.",
    ),
    "E_FOREIGN_VOCAB": (
        "insight uses vocabulary foreign to the target layer",
        "An insight must be expressible in the conceptual vocabulary admitted "
        "at the receiving layer.",
    ),
    "E_REWRITE_ATTEMPT": (
        "insight edits existing declarations",
        "Insight refines by appending; it never edits or deletes what exists.",
    ),
    "E_UNDOCUMENTED": (
        "contamination resolution lacks documentation",
        "Resolving a contamination event requires the rule violated, the "
        "nature, the downstream risks, the decisions affected, and the "
        "corrective action to be recorded first.",
    ),
    "E_INSIGHT_REJECTED": (
        "extracted insight failed validation",
        "Resolution by insight extraction is valid only when the proposal "
        "passes insight-transmission checks.",
    ),
    "E_CONTRACT_INCOMPLETE": (
        "boundary contract incomplete",
        "A boundary contract carries five elements: information type, origin "
        "and destination, legal justification, a no-reinterpretation clause, "
        "and a documentation mechanism.",
    ),
    # audit-log
    "E_SEQUENCE_GAP": (
        "event sequence not contiguous",
        "Audit events are append-only with strictly increasing sequence "
        "numbers.",
    ),
    "E_PAYLOAD_SCHEMA": (
        "event payload malformed",
        "Each event kind's payload is one record: it must carry the keys the "
        "record requires, and each value must decode to its field's type. A "
        "malformed payload stops parsing, as it would stop replay.",
    ),
    "E_REPLAY_DIVERGENCE": (
        "replay diverged from live state",
        "Replaying the event log over the initial declarations must "
        "reproduce live state exactly; divergence signals an engine bug.",
    ),
    # reporting
    "E_MISSING_FIELD": (
        "mandatory declared field missing",
        "Study-log rows are projections of unit declarations; a unit lacking "
        "a mandatory declared field cannot be logged.",
    ),
    "E_BIAS_DIRECTION": (
        "bias considerations lack a directional tag",
        "Bias must be stated with its directional implication: attenuates, "
        "inflates, reverses, or nondirectional.",
    ),
    "E_RB_FINDINGS": (
        "fewer than two methodological findings",
        "A reviewer block articulates at least two structural findings about "
        "the evidence base.",
    ),
    "E_RB_INSIGHT": (
        "conceptual insight missing",
        "A reviewer block articulates one conceptual insight, potentially "
        "eligible for upward transmission.",
    ),
    "E_RB_CRITIQUE": (
        "anticipated critique missing",
        "A reviewer block anticipates one plausible reviewer critique.",
    ),
    "E_RB_CRITIQUE_UNANCHORED": (
        "critique references no decision",
        "The anticipated critique must reference specific tiering or routing "
        "decisions.",
    ),
    "E_RB_DISCONFIRMING": (
        "disconfirming model missing",
        "A reviewer block states one coherent alternative able to weaken or "
        "invert the claim.",
    ),
    "E_RB_ASSUMPTIONS": (
        "route assumptions not mirrored",
        "A reviewer block lists exactly the assumptions of the committed "
        "route.",
    ),
    "E_NO_STUDY_LOG": (
        "study log cannot be built",
        "Without a complete study log, tiering decisions cannot be "
        "reconstructed and the project is non-compliant.",
    ),
    "E_NO_REVIEWER_BLOCK": (
        "reviewer block missing",
        "Every project produces a reviewer block; it is a structural "
        "obligation, not a reporting preference.",
    ),
    "E_NO_ANALYTIC_MEMO": (
        "analytic memo missing",
        "Every project produces an analytic memo covering interpretation, "
        "uncertainty, boundaries, supplement roles, and inheritance "
        "compliance.",
    ),
    "E_MEMO_SECTION": (
        "analytic memo section missing or empty",
        "The memo's five required sections must all be present and nonempty.",
    ),
    "E_FORMAT_UNSUPPORTED": (
        "unsupported render format",
        "CSV rendering exists for tabular artifacts only.",
    ),
    "W_NO_UNITS": (
        "project declares no units",
        "An empty evidence universe is valid but worth a second look.",
    ),
}

#: Tiering decision-table rule identifiers -> explanation.
TIER_RULES: dict[str, str] = {
    "R_STEP1_MISMATCH": (
        "Fundamental construct mismatch: the unit cannot be reconciled with "
        "the declared construct definition; excluded immediately."
    ),
    "R_STEP1_OPACITY": (
        "Irreducible reporting opacity: essential information is absent; "
        "excluded immediately."
    ),
    "R_SPECULATION": (
        "Inference would require assumptions not anchored in the reported "
        "data; speculative reconstruction is prohibited, so the unit is "
        "excluded."
    ),
    "R_MEASUREMENT_FAILED": (
        "The operationalization fails to approximate the construct; excluded."
    ),
    "R_DESIGN_INCOMPATIBLE": (
        "The design violates a non-negotiable route assumption; excluded."
    ),
    "R_CORE": (
        "Construct aligned, measurement adequate (at most minor limitation), "
        "design sufficient, reporting transparent: the unit requires no "
        "substantial qualification and enters the primary inferential channel."
    ),
    "R_SUPPLEMENT_COVERED": (
        "Each limited dimension is covered by an explicit declared "
        "assumption, so the unit participates conditionally as supplement."
    ),
    "R_UNCOVERED_AMBIGUITY": (
        "At least one limited dimension has no covering declared assumption; "
        "uncovered ambiguity is speculation, so the unit is excluded."
    ),
    "R_CONSERVATIVE_MERGE": (
        "Unsplittable multi-interpretation unit: the most conservative "
        "per-interpretation tier governs the whole unit."
    ),
}


def explain_code(code: str) -> str | None:
    """Rule text for a diagnostic code or tiering rule id; None if unknown."""
    if code in CODE_REGISTRY:
        summary, text = CODE_REGISTRY[code]
        anchor = RULE_ANCHORS.get(code)
        lines = [f"{code}: {summary}", text]
        if anchor:
            lines.append(f"anchor: {anchor}")
        return "\n".join(lines)
    if code in TIER_RULES:
        return f"{code}: {TIER_RULES[code]}"
    return None
