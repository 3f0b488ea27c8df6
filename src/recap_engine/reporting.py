"""Mandatory study-level outputs and the overall compliance verdict.

Reports are projections of declared content, never generators: every
narrative string in a report already exists in the bundle. The study log
covers every unit including excluded ones; the tier table covers only the
units that participate in inference.
"""

from __future__ import annotations

import csv
import io
import json
from functools import partial, singledispatch
from operator import attrgetter

from .bundle import decode, encode
from .contamination import detect_contamination, validate_contract
from .diagnostics import Diagnostic, OperationRejected, Severity, error, warning
from .layers import check_law_evolution, law_history, parse_version, validate_grandparent_laws
from .model import (
    AnalyticMemo,
    BIAS_DIRECTION_TAGS,
    BundleIndex,
    ComplianceReport,
    EvidentialUnit,
    MEMO_SECTIONS,
    ProjectBundle,
    ProjectDecl,
    ReviewerBlock,
    StudyLogEntry,
    Tier,
    TierTableRow,
)
from .records import fields
from .routing import check_freeze_integrity, check_route_coherence
from .tiering import check_retier_chain, check_tier_declaration, effective_tier

STUDY_LOG_FIELDS = (
    "Study_ID",
    "Design_Type",
    "Tier_Assignment",
    "Reasons_for_Tiering",
    "Bias_Considerations",
    "Measurement_Definition_Issues",
    "Notes",
)

TIER_TABLE_FIELDS = (
    "Study_ID",
    "Methods_Summary",
    "Evidence_Type",
    "Strengths",
    "Limitations",
)


class StudyLog(list):
    """List of StudyLogEntry rows; typed so an empty log still renders as one."""


class TierTable(list):
    """List of TierTableRow rows; typed so an empty table still renders as one."""


def _row_units(index: BundleIndex, project: ProjectDecl) -> list[EvidentialUnit]:
    # Rows carry the project-scoped local id, so order by it.
    return sorted(
        index.active_units(project), key=lambda u: (u.study_id.local_name, u.study_id.render())
    )


def _has_direction_tag(text: str) -> bool:
    lowered = text.lower()
    return any(tag in lowered for tag in BIAS_DIRECTION_TAGS)


def build_study_log(
    bundle: ProjectBundle, project: ProjectDecl, *, index: BundleIndex | None = None
) -> "StudyLog":
    """One row per unit, excluded units included; exclusion is not erasure.

    Rows are projections of unit declarations; a missing mandatory field
    rejects the build.
    """
    diags: list[Diagnostic] = []
    entries = StudyLog()
    for unit in _row_units(index or BundleIndex.of(bundle), project):
        where = unit.study_id.render()
        label = unit.study_id.local_name
        tier = effective_tier(unit)
        mandatory = {
            "design_type": unit.design_type,
            "tier_assignment": tier.label if tier is not None else "",
            "reasons_for_tiering": unit.tier_justification,
            "bias_considerations": unit.bias_considerations,
        }
        for name, value in mandatory.items():
            if not value.strip():
                diags.append(
                    error("E_MISSING_FIELD", where, f"unit lacks declared {name}")
                )
        if unit.bias_considerations.strip() and not _has_direction_tag(unit.bias_considerations):
            diags.append(
                error(
                    "E_BIAS_DIRECTION",
                    where,
                    "bias considerations state no directional implication "
                    f"(one of: {', '.join(BIAS_DIRECTION_TAGS)})",
                )
            )
        # Positional, in field order: the record __init__'s fast path.
        entries.append(
            StudyLogEntry(
                label,
                unit.design_type,
                mandatory["tier_assignment"],
                unit.tier_justification,
                unit.bias_considerations,
                unit.measurement_issues,
                unit.notes,
            )
        )
    if diags:
        raise OperationRejected(diags)
    return entries


def _evidence_type(index: BundleIndex, project: ProjectDecl, unit: EvidentialUnit) -> str:
    """Role in inference: the route objective for primary evidence, the role
    itself for secondary evidence."""
    assignment = index.assignment(project, unit.study_id)
    if assignment is None:
        return "Unassigned"
    if assignment.role == "primary_inference":
        route = index.routes.get(assignment.route_ref)
        tag = route.objective if route is not None else "primary"
        return tag.replace("-", " ").capitalize()
    return assignment.role.replace("_", " ").capitalize()


def build_tier_table(
    bundle: ProjectBundle, project: ProjectDecl, *, index: BundleIndex | None = None
) -> "TierTable":
    """Rows for core and supplement units only, study-log ordering."""
    index = index or BundleIndex.of(bundle)
    rows = TierTable()
    for unit in _row_units(index, project):
        if effective_tier(unit) not in (Tier.CORE, Tier.SUPPLEMENT):
            continue
        rows.append(
            TierTableRow(  # positional, in field order
                unit.study_id.local_name,
                unit.methods_summary,
                _evidence_type(index, project, unit),
                unit.strengths,
                unit.limitations,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Reviewer block and memo
# ---------------------------------------------------------------------------


def validate_reviewer_block(
    block: ReviewerBlock, bundle: ProjectBundle, *, index: BundleIndex | None = None
) -> list[Diagnostic]:
    """Cardinality and anchoring checks; each missing element gets its own
    code so an empty block reports all six."""
    index = index or BundleIndex.of(bundle)
    diags: list[Diagnostic] = []
    where = block.project_ref.render()
    project = index.projects.get(block.project_ref)
    if project is None:
        return [error("E_UNRESOLVED_REF", where, "reviewer block names no known project")]
    findings = [f for f in block.methodological_findings if f.strip()]
    if len(findings) < 2:
        diags.append(
            error("E_RB_FINDINGS", where, f"two methodological findings required, found {len(findings)}")
        )
    if not block.conceptual_insight.strip():
        diags.append(error("E_RB_INSIGHT", where, "conceptual insight missing"))
    if not block.anticipated_critique_text.strip():
        diags.append(error("E_RB_CRITIQUE", where, "anticipated critique missing"))
    anchored = []
    for ref in block.anticipated_critique_refs:
        target = index.units.get(ref) or index.routes.get(ref)
        if target is not None:
            anchored.append(ref)
    if not anchored:
        diags.append(
            error(
                "E_RB_CRITIQUE_UNANCHORED",
                where,
                "critique must reference at least one tiering or routing decision",
            )
        )
    if not block.disconfirming_model.strip():
        diags.append(error("E_RB_DISCONFIRMING", where, "disconfirming model missing"))
    route = index.routes.get(project.committed_route)
    declared = {ref.render() for ref in block.assumptions_ref}
    expected = {a.id.render() for a in route.assumptions} if route is not None else set()
    if not declared or route is None or declared != expected:
        diags.append(
            error(
                "E_RB_ASSUMPTIONS",
                where,
                "block must list exactly the committed route's assumptions",
            )
        )
    return diags


def validate_memo(memo: AnalyticMemo) -> list[Diagnostic]:
    """Section presence only; the engine does not judge narrative quality."""
    diags: list[Diagnostic] = []
    where = memo.project_ref.render()
    for section in MEMO_SECTIONS:
        if not memo.sections.get(section, "").strip():
            diags.append(
                error("E_MEMO_SECTION", where, f"memo section {section!r} missing or empty")
            )
    return diags


# ---------------------------------------------------------------------------
# Compliance
# ---------------------------------------------------------------------------

def _finding_sort_key(diag: Diagnostic) -> tuple:
    direction = 3
    if diag.code in ("R1_upward_content", "R5_meta_engine_insulation", "E_UPWARD_CONTENT"):
        direction = 0
    elif diag.code == "R2_downward_rewrite":
        direction = 1
    elif diag.code in ("R3_horizontal_borrowing", "R4_missing_contract"):
        direction = 2
    return (diag.severity, direction, diag.location, diag.code)


def compliance_verdict(bundle: ProjectBundle) -> ComplianceReport:
    """Run every validator and fold the findings into one verdict.

    A single error-severity finding means the bundle has exited the
    framework, no matter how precise everything else is.
    """
    findings: list[Diagnostic] = []
    index = BundleIndex.of(bundle)

    gp = None
    try:
        gp = bundle.grandparent()
    except LookupError:
        findings.append(error("E_NO_GRANDPARENT", "layers", "no grandparent layer"))
    if gp is not None:
        findings.extend(validate_grandparent_laws(gp))
        try:
            history = law_history(bundle)
        except OperationRejected as exc:  # a recorded bump that does not decode
            findings.extend(exc.diagnostics)
            history = []
        previous_laws = None
        previous_version = None
        for version, laws in history:
            if previous_laws is not None:
                findings.extend(check_law_evolution(previous_laws, laws))
                old_v, new_v = parse_version(previous_version), parse_version(version)
                if old_v is None or new_v is None or new_v <= old_v:
                    findings.append(
                        error(
                            "E_VERSION_ORDER",
                            "events",
                            f"recorded bump {previous_version} -> {version} does not advance",
                        )
                    )
            previous_laws, previous_version = laws, version
        if history:
            findings.extend(check_law_evolution(history[-1][1], gp.laws))

    for unit in bundle.units:
        if unit.superseded or unit.quarantined:
            continue
        findings.extend(check_tier_declaration(unit))
        findings.extend(check_retier_chain(unit))

    from .routing import validate_route_shape

    for route in bundle.routes:
        if not route.quarantined:
            findings.extend(validate_route_shape(route))

    for project in bundle.projects:
        if project.committed_route is not None:
            findings.extend(check_route_coherence(bundle, project.id, index=index))
        else:
            findings.append(
                error(
                    "E_NO_ROUTE",
                    project.id.render(),
                    "project has not committed to an inferential route",
                )
            )
            seen: set[str] = set()
            for assignment in project.assignments:
                key = assignment.unit_ref.render()
                if key in seen:
                    findings.append(
                        error("E_DUP_ASSIGNMENT", key, "unit holds more than one role assignment")
                    )
                seen.add(key)
        if not project.unit_refs:
            findings.append(
                warning("W_NO_UNITS", project.id.render(), "project declares no units")
            )
        try:
            build_study_log(bundle, project, index=index)
        except OperationRejected as exc:
            findings.append(
                error(
                    "E_NO_STUDY_LOG",
                    project.id.render(),
                    "study log cannot be built from the declared units",
                )
            )
            findings.extend(exc.diagnostics)
        blocks = index.reviewer_blocks.get(project.id, [])
        if not blocks:
            findings.append(
                error("E_NO_REVIEWER_BLOCK", project.id.render(), "reviewer block missing")
            )
        for block in blocks:
            findings.extend(validate_reviewer_block(block, bundle, index=index))
        memos = index.memos.get(project.id, [])
        if not memos:
            findings.append(
                error("E_NO_ANALYTIC_MEMO", project.id.render(), "analytic memo missing")
            )
        for memo in memos:
            findings.extend(validate_memo(memo))

    findings.extend(check_freeze_integrity(bundle))
    for contract in bundle.contracts:
        findings.extend(validate_contract(contract))

    for event in detect_contamination(bundle):
        findings.append(
            Diagnostic(
                code=event.rule_violated,
                location=event.location,
                message=(
                    f"{event.direction} contamination at {event.site.container}"
                    + (f" via {event.site.token}" if event.site.token else "")
                ),
                severity=Severity.ERROR,
            )
        )

    findings.sort(key=_finding_sort_key)
    has_error = any(d.severity == Severity.ERROR for d in findings)
    return ComplianceReport(
        verdict="non_compliant" if has_error else "compliant", findings=findings
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _markdown_table(headings: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    lines = ["| " + " | ".join(headings) + " |", "| " + " | ".join("---" for _ in headings) + " |"]
    for row in rows:
        cells = [cell.replace("|", "\\|").replace("\n", " ") for cell in row]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def _csv_table(headings: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(headings)
    writer.writerows(rows)
    return out.getvalue()


#: Each table artifact: its structured name, row record and column headings.
_TABLES = {
    StudyLog: ("study_log", StudyLogEntry, STUDY_LOG_FIELDS),
    TierTable: ("tier_table", TierTableRow, TIER_TABLE_FIELDS),
}


def render_report(artifact, fmt: str) -> str:
    """Render a report artifact as markdown, csv, or structured text.

    CSV exists for the tabular artifacts only. Structured output is JSON and
    parses back to an equal artifact via :func:`parse_report`.
    """
    if fmt not in ("markdown", "csv", "structured"):
        raise OperationRejected(
            [error("E_FORMAT_UNSUPPORTED", "format", f"unknown format {fmt!r}")]
        )
    return _render(artifact, fmt)


def _unrenderable(artifact, fmt: str) -> str:
    raise OperationRejected(
        [error("E_FORMAT_UNSUPPORTED", "artifact", f"cannot render {type(artifact).__name__}")]
    )


#: The renderer of an artifact, by its type.
_render = singledispatch(_unrenderable)


def _render_table(table: type, rows: list, fmt: str) -> str:
    name, row, headings = _TABLES[table]
    if fmt == "structured":
        return json.dumps(
            {"artifact": name, "rows": [r.__dict__ for r in rows]}, indent=2, ensure_ascii=False
        )
    cells = list(map(attrgetter(*(f.name for f in fields(row))), rows))
    return (_markdown_table if fmt == "markdown" else _csv_table)(headings, cells)


_render.register(StudyLog, partial(_render_table, StudyLog))
_render.register(TierTable, partial(_render_table, TierTable))


@_render.register(list)
def _render_list(artifact: list, fmt: str) -> str:
    """An untyped list renders as the table whose rows it holds, if any."""
    for table, (_, row, _) in _TABLES.items():
        if artifact and all(isinstance(r, row) for r in artifact):
            return _render_table(table, artifact, fmt)
    return _unrenderable(artifact, fmt)


@_render.register(ReviewerBlock)
def _render_reviewer_block(artifact: ReviewerBlock, fmt: str) -> str:
    if fmt == "csv":
        raise OperationRejected(
            [error("E_FORMAT_UNSUPPORTED", "format", "reviewer block is not tabular")]
        )
    record = {"artifact": "reviewer_block", **encode(artifact)}
    if fmt == "structured":
        return json.dumps(record, indent=2, ensure_ascii=False)
    lines = [f"# Reviewer Block: {record['project_ref']}", ""]
    lines.append("## Methodological findings")
    lines.extend(f"- {f}" for f in record["methodological_findings"])
    lines.append("")
    lines.append(f"## Conceptual insight\n{record['conceptual_insight']}")
    lines.append(
        "\n## Anticipated critique\n"
        + record["anticipated_critique"]["text"]
        + "\n(references: "
        + ", ".join(record["anticipated_critique"]["referenced_decisions"])
        + ")"
    )
    lines.append(f"\n## Disconfirming model\n{record['disconfirming_model']}")
    lines.append("\n## Route assumptions\n" + ", ".join(record["assumptions_ref"]))
    return "\n".join(lines) + "\n"


@_render.register(ComplianceReport)
def _render_compliance_report(artifact: ComplianceReport, fmt: str) -> str:
    if fmt == "csv":
        raise OperationRejected(
            [error("E_FORMAT_UNSUPPORTED", "format", "compliance report is not tabular")]
        )
    record = {
        "artifact": "compliance_report",
        "verdict": artifact.verdict,
        "findings": [d.to_dict() for d in artifact.findings],
    }
    if fmt == "structured":
        return json.dumps(record, indent=2, ensure_ascii=False)
    lines = [f"verdict: {artifact.verdict}"]
    lines.extend(d.render() for d in artifact.findings)
    return "\n".join(lines) + "\n"


def parse_report(text: str):
    """Parse a structured render back into its artifact."""
    record = json.loads(text)
    kind = record.get("artifact")
    for table, (name, row, _) in _TABLES.items():
        if kind == name:
            return table(row(**r) for r in record["rows"])
    if kind == "reviewer_block":
        return decode(ReviewerBlock, record)
    if kind == "compliance_report":
        findings = [
            Diagnostic(
                code=f["code"],
                location=f["location"],
                message=f["message"],
                severity=Severity[f["severity"].upper()],
            )
            for f in record["findings"]
        ]
        return ComplianceReport(verdict=record["verdict"], findings=findings)
    raise ValueError(f"unknown artifact kind {kind!r}")
